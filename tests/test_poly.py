from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from deltoid_lab.models import z_of_theta
from deltoid_lab.poly import (
    EVAL_CHUNK,
    CompiledPolys,
    MPoly,
    NonDivisibleError,
    VariableMismatchError,
    det_cofactor,
    det_fraction_free,
    divide_exact,
    monomials_up_to,
    solve_field_linear,
    streamed_mean_se,
    try_divide,
    _powers,
)
from deltoid_lab.scalars import FieldScalar, I, ONE, ZERO
from deltoid_lab.spectral import eigen_PQ_lambda, pq_indices

from conftest import deltoid_polys, g2_polys, poly_strategy

VARS = ("Z", "Zb")
Z = MPoly.var(VARS, "Z")
Zb = MPoly.var(VARS, "Zb")


def test_monomial_product():
    assert Z * Zb == MPoly(VARS, {(1, 1): ONE})


def test_binomial_identity():
    # (Z + Zb)^2 - (Z^2 + Zb^2) = 2 Z Zb
    assert (Z + Zb) ** 2 - (Z * Z + Zb * Zb) == Z * Zb * 2


def test_p1_plus_p2_at_origin():
    from deltoid_lab.models import p1_p2

    p1, p2 = p1_p2()
    total = (p1 + p2).constant_term()
    assert total.rational_value() == Fraction(-2)


def test_constructor_checks_lengths_and_drops_zeros():
    with pytest.raises(ValueError):
        MPoly(VARS, {(1,): ONE})
    with pytest.raises(ValueError):
        MPoly(VARS, {(1, 0, 0): ONE, (0, 1): ONE})
    p = MPoly(VARS, {(1, 0): ZERO, (0, 1): ONE, (2, 2): FieldScalar(0, 0, 0, 0)})
    assert p.terms == {(0, 1): ONE}
    assert not MPoly(VARS, {(1, 1): ZERO})
    # Results of the ring operations are as clean as constructed ones.
    q = Z * Zb - Zb * Z
    assert q.terms == {} and q == MPoly.zero(VARS)
    assert (Z + Zb - Z).terms == {(0, 1): ONE}


def test_variable_mismatch():
    other = MPoly.var(("s", "p"), "s")
    with pytest.raises(VariableMismatchError):
        Z + other
    with pytest.raises(VariableMismatchError):
        Z.diff("s")


def test_differentiate():
    f = Z * Z * Zb
    assert f.diff("Z") == Z * Zb * 2
    assert f.diff("Zb") == Z * Z
    g = MPoly.variables_ring(("s", "p"))
    sp = g["p"] - g["s"] ** 2 + g["s"] + 1
    assert sp.diff("s") == g["s"] * (-2) + 1


def test_substitute_monomial_images():
    six = ("z1", "z2", "z3")
    zvar = MPoly.var(("Z",), "Z")
    imgs = {"Z": (MPoly.var(six, "z1") + MPoly.var(six, "z2") + MPoly.var(six, "z3")) * Fraction(1, 3)}
    assert zvar.subs(imgs) == imgs["Z"]
    with pytest.raises(VariableMismatchError):
        Z.subs(imgs)  # the two-variable ring needs an image for Zb too


def test_substitute_expands_by_hand():
    g = MPoly.variables_ring(("s", "p"))
    f = g["s"] ** 2 - g["p"] * 4
    image = f.subs({"s": Z + Zb, "p": Z * Zb})
    assert image == (Z - Zb) ** 2


def test_substitute_selfmap_first_coordinate():
    # The (s, p) self-map sends s to 3p - 1.
    g = MPoly.variables_ring(("s", "p"))
    images = {"s": g["p"] * 3 - 1, "p": (g["s"] ** 3 - g["s"] * g["p"] * 3) * 3 - g["p"] * 6 + 1}
    assert g["s"].subs(images) == g["p"] * 3 - 1


def test_conj_swap():
    pairs = (("Z", "Zb"),)
    assert (Z * Zb).conj_swap(pairs) == Z * Zb
    assert (Z * Z * Zb).conj_swap(pairs) == Zb * Zb * Z
    real_combo = (Z - Zb) * I
    assert real_combo.conj_swap(pairs) == real_combo
    with pytest.raises(VariableMismatchError):
        Z.conj_swap((("Z", "Z"),))


def test_rotate_j():
    from deltoid_lab.scalars import J

    w = {"Z": 1, "Zb": -1}
    assert Z.rotate_j(w) == Z * J
    assert (Z * Zb).rotate_j(w) == Z * Zb
    assert (Z ** 3).rotate_j(w) == Z ** 3


@given(deltoid_polys)
@settings(max_examples=40)
def test_conj_swap_involution(f):
    pairs = (("Z", "Zb"),)
    assert f.conj_swap(pairs).conj_swap(pairs) == f
    assert f.swap_variables(pairs).swap_variables(pairs) == f


@given(deltoid_polys)
@settings(max_examples=40)
def test_rotate_j_period_three(f):
    w = {"Z": 1, "Zb": -1}
    assert f.rotate_j(w).rotate_j(w).rotate_j(w) == f


def test_divide_exact_examples():
    assert divide_exact(Z * Z - 1, Z - 1) == Z + 1
    with pytest.raises(NonDivisibleError):
        divide_exact(Z * Z + 1, Z - 1)
    assert try_divide(Z * Z + 1, Z - 1) is None


def test_boundary_cofactor_division(deltoid_boundary):
    # Gamma(P, Z) = -3 Z P, so the quotient is exactly -3 Z.
    f = deltoid_boundary * Z * (-3)
    assert divide_exact(f, deltoid_boundary) == Z * (-3)


@given(deltoid_polys, deltoid_polys)
@settings(max_examples=60)
def test_divide_roundtrip(f, g):
    if g.is_zero():
        return
    assert divide_exact(f * g, g) == f


@given(deltoid_polys, deltoid_polys, deltoid_polys)
@settings(max_examples=40)
def test_ring_axioms(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


def test_det_small():
    assert det_fraction_free([[Z]]) == Z
    m = [[Z, Zb], [Zb, Z]]
    assert det_fraction_free(m) == Z * Z - Zb * Zb
    assert det_cofactor(m) == Z * Z - Zb * Zb


def test_det_deltoid_metric(deltoid_boundary):
    from deltoid_lab.models import deltoid_model

    m = deltoid_model(1)
    mat = [
        [m.gamma_entry("Z", "Z"), m.gamma_entry("Z", "Zb")],
        [m.gamma_entry("Zb", "Z"), m.gamma_entry("Zb", "Zb")],
    ]
    assert det_fraction_free(mat) == -deltoid_boundary


@given(poly_strategy(VARS, max_degree=1, max_terms=2))
@settings(max_examples=10)
def test_det_bareiss_vs_cofactor_4x4(seed_poly):
    import random

    rng = random.Random(hash(str(seed_poly)) & 0xFFFF)
    entries = []
    for _ in range(4):
        row = []
        for _ in range(4):
            row.append(
                MPoly(
                    VARS,
                    {
                        (rng.randint(0, 1), rng.randint(0, 1)): FieldScalar(
                            Fraction(rng.randint(-3, 3))
                        )
                    },
                )
            )
        entries.append(row)
    assert det_fraction_free(entries) == det_cofactor(entries)


def test_zero_determinant():
    m = [[Z, Z], [Z, Z]]
    assert det_fraction_free(m).is_zero()


def test_solve_field_linear():
    one = ONE
    two = FieldScalar(Fraction(2))
    sol = solve_field_linear([[one, one], [one, -one]], [two, FieldScalar()])
    assert sol == [one, one]
    assert solve_field_linear([[one], [one]], [one, two]) is None


def test_monomials_up_to_weighted():
    mons = monomials_up_to(("s", "p"), 3, weight=lambda e: e[0] + 2 * e[1])
    assert (3, 0) in mons and (1, 1) in mons and (0, 1) in mons
    assert (2, 1) not in mons  # weighted degree 4


def test_canonical_string_order():
    f = Z * Zb * 2 - Zb + MPoly.const(VARS, Fraction(1, 2))
    assert str(f) == "2*Z*Zb - Zb + 1/2"


def test_evaluate_exact():
    f = Z * Z - Zb * Fraction(1, 2)
    value = f.evaluate_exact({"Z": Fraction(2), "Zb": Fraction(4)})
    assert value.rational_value() == Fraction(2)


def test_evaluate_numeric():
    import numpy as np

    f = Z * Zb
    arr = np.array([1 + 1j, 2j])
    got = f.evaluate({"Z": arr, "Zb": np.conj(arr)})
    assert np.allclose(got, np.abs(arr) ** 2)


# -- the compiled evaluator ------------------------------------------------------


def term_by_term(poly, point):
    """The former evaluator: one val**k per factor of every term; the oracle."""
    vals = [point[v] for v in poly.variables]
    total = None
    for exps, coeff in poly.terms.items():
        term = coeff.to_complex()
        for val, k in zip(vals, exps):
            if k:
                term = term * val**k
        total = term if total is None else total + term
    return 0j if total is None else total


def deltoid_points(count, seed=11):
    """Random points of the closed deltoid domain (torus images)."""
    t = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=(2, count))
    return z_of_theta(t[0], t[1])


def relative_error(got, expected):
    return np.max(np.abs(got - expected)) / max(np.max(np.abs(expected)), 1e-300)


def eigen_pairs(lam, degree):
    return [e.poly for n, k in pq_indices(degree, include_constant=True)
            for e in eigen_PQ_lambda(lam, n, k)]


def sum_terms_written_out(poly, point):
    """The compiled evaluator's sum as an expression, block by block: powers by
    repeated multiplication and 0 + (c * x1**k1) * x2**k2 + ... in term order."""
    flat = [np.asarray(point[v], dtype=complex).reshape(-1) for v in poly.variables]
    top = [max([e[i] for e in poly.terms], default=0) for i in range(len(poly.variables))]
    blocks = []
    for start in range(0, flat[0].size, EVAL_CHUNK):
        powers = [_powers(a[start:start + EVAL_CHUNK], t) for a, t in zip(flat, top)]
        total = 0j
        for exps, coeff in poly.terms.items():
            term = coeff.to_complex()
            for p, k in zip(powers, exps):
                if k:
                    term = term * p[k]
            total = total + term
        blocks.append(np.broadcast_to(total, flat[0][start:start + EVAL_CHUNK].shape))
    return np.concatenate(blocks)


class TestCompiledEvaluator:
    @pytest.mark.parametrize("shape", ["scalar", "0-d", "multi-chunk"])
    def test_in_place_sum_bit_equal_to_expression(self, shape):
        z = deltoid_points(2 * EVAL_CHUNK + 37, seed=13)
        value = {"scalar": 0.3 - 0.1j, "0-d": np.asarray(z[5]), "multi-chunk": z}[shape]
        point = {"Z": value, "Zb": value.conjugate()}
        polys = eigen_pairs(Fraction(4), 4) + [MPoly.zero(VARS), MPoly.const(VARS, -2) + Z]
        values = CompiledPolys(polys).values(point)
        for row, poly in zip(values, polys):
            expected = sum_terms_written_out(poly, point)
            # Bits, not values: -0.0 and 0.0 differ here.
            assert np.array_equal(row.reshape(-1).view(np.uint64), expected.view(np.uint64))

    def test_evaluate_matches_term_by_term(self):
        z = deltoid_points(3000)
        point = {"Z": z, "Zb": z.conj()}
        for poly in eigen_pairs(Fraction(11, 2), 5):
            assert relative_error(poly.evaluate(point), term_by_term(poly, point)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(poly_strategy(VARS, max_degree=5, max_terms=8))
    def test_real_form_matches_term_by_term(self, poly):
        z = deltoid_points(500, seed=3)
        expected = np.real(term_by_term(poly, {"Z": z, "Zb": z.conj()}))
        got = CompiledPolys([poly, Z * Zb]).real_values(z)[0]
        assert np.allclose(got, expected, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(expected))))

    def test_rows_match_single_evaluation(self):
        polys = eigen_pairs(Fraction(4), 4)
        compiled = CompiledPolys(polys)
        z = deltoid_points(2000, seed=5)
        point = {"Z": z, "Zb": z.conj()}
        values = compiled.values(point)
        real = compiled.real_values(z)
        for i, poly in enumerate(polys):
            expected = term_by_term(poly, point)
            assert relative_error(values[i], expected) < 1e-12
            assert relative_error(real[i], np.real(expected)) < 1e-12

    def test_mean_and_standard_error(self):
        polys = [p for p in eigen_pairs(Fraction(4), 3) if p.total_degree() > 0]
        z = deltoid_points(3 * EVAL_CHUNK + 123, seed=7)
        mean, se = CompiledPolys(polys).real_mean_se(z)
        for i, poly in enumerate(polys):
            vals = np.real(term_by_term(poly, {"Z": z, "Zb": z.conj()}))
            assert abs(mean[i] - vals.mean()) < 1e-14
            assert abs(se[i] / (vals.std(ddof=1) / np.sqrt(len(vals))) - 1.0) < 1e-12

    def test_mean_and_standard_error_bit_equal_to_values_reduction(self):
        # The reduction as it was: Chan's update over the value blocks themselves.
        def former(blocks):
            count, mean, m2 = 0, 0.0, 0.0
            for values in blocks:
                size = values.shape[1]
                block_mean = values.mean(axis=1)
                deviations = np.subtract(values, block_mean[:, None], out=values)
                block_m2 = np.square(deviations, out=deviations).sum(axis=1)
                delta = block_mean - mean
                total = count + size
                mean = mean + delta * (size / total)
                m2 = m2 + block_m2 + delta * delta * (count * size / total)
                count = total
            return mean, np.sqrt(m2 / (count - 1) / count)

        compiled = CompiledPolys(eigen_pairs(Fraction(4), 3))
        z = deltoid_points(3 * EVAL_CHUNK + 123, seed=7)
        values = compiled.real_values(z)
        expected = former(values[:, start:start + EVAL_CHUNK].copy()
                          for start in range(0, z.size, EVAL_CHUNK))
        got = compiled.real_mean_se(z)
        assert all(np.array_equal(x, y) for x, y in zip(got, expected))

    def test_zero_rows_are_exact(self):
        # A zero polynomial compiles to an all-zero row of the real matrix.
        polys = [p for p in eigen_pairs(Fraction(11, 2), 4) if not p.is_zero()]
        polys.insert(3, MPoly.zero(VARS))
        z = deltoid_points(2 * EVAL_CHUNK + 37, seed=17)
        compiled = CompiledPolys(polys)
        values = compiled.real_values(z)
        assert values.shape == (len(polys), z.size)
        assert not values[3].view(np.uint64).any()  # +0.0, bit for bit
        mean, se = compiled.real_mean_se(z)
        assert not mean[3].view(np.uint64).any() and not se[3].view(np.uint64).any()
        alone = CompiledPolys([MPoly.zero(VARS)])
        assert not alone.real_values(z).view(np.uint64).any()
        assert not np.concatenate(alone.real_mean_se(z)).view(np.uint64).any()

    def test_negative_block_m2_raises(self):
        moments = [(3, np.array([1.0, 2.0]), np.array([0.5, 0.25])),
                   (2, np.array([1.0, 2.0]), np.array([0.5, -1e-18]))]
        with pytest.raises(ArithmeticError, match="negative block M2"):
            streamed_mean_se(iter(moments))
        assert streamed_mean_se(iter(moments[:1]))[0].tolist() == [1.0, 2.0]

    def test_partial_last_chunk(self):
        poly = eigen_pairs(Fraction(7, 3), 4)[-2]
        z = deltoid_points(2 * EVAL_CHUNK + 37, seed=9)
        point = {"Z": z, "Zb": z.conj()}
        expected = term_by_term(poly, point)
        assert relative_error(poly.evaluate(point), expected) < 1e-12
        real = CompiledPolys([poly]).real_values(z)[0]
        assert relative_error(real, np.real(expected)) < 1e-12

    def test_zero_and_constant(self):
        z = deltoid_points(10).reshape(2, 5)
        point = {"Z": z, "Zb": z.conj()}
        zero = MPoly.zero(VARS).evaluate(point)
        assert zero.shape == (2, 5) and not zero.any()
        const = MPoly.const(VARS, Fraction(3, 2)).evaluate(point)
        assert const.shape == (2, 5) and np.all(const == 1.5)
        compiled = CompiledPolys([MPoly.zero(VARS), MPoly.const(VARS, -2)])
        assert np.array_equal(compiled.real_values(z), np.stack([np.zeros((2, 5)),
                                                                 np.full((2, 5), -2.0)]))

    def test_scalar_input(self):
        f = Z * Z - Zb * Fraction(1, 2) + 1
        got = f.evaluate({"Z": 0.25 + 0.5j, "Zb": 0.25 - 0.5j})
        assert isinstance(got, complex)
        assert abs(got - term_by_term(f, {"Z": 0.25 + 0.5j, "Zb": 0.25 - 0.5j})) < 1e-15
        assert MPoly.zero(VARS).evaluate({"Z": 1j, "Zb": -1j}) == 0j

    @settings(max_examples=40, deadline=None)
    @given(poly_strategy(VARS, max_degree=5, max_terms=8))
    def test_scalar_evaluate_matches_exact(self, poly):
        # A scalar point is a point set of shape (); evaluate still returns a complex.
        point = {"Z": FieldScalar(Fraction(1, 4), Fraction(-3, 8)),
                 "Zb": FieldScalar(Fraction(5, 8), Fraction(1, 2))}
        got = poly.evaluate({name: value.to_complex() for name, value in point.items()})
        expected = poly.evaluate_exact(point).to_complex()
        assert type(got) is complex
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_scalar_evaluate_is_exact_on_dyadic_data(self):
        # Dyadic coefficients and points: neither evaluation rounds.
        f = Z**3 * Fraction(3, 4) - Z * Zb * Fraction(1, 2) + Zb**2 - 5
        point = {"Z": FieldScalar(Fraction(1, 4), Fraction(1, 2)),
                 "Zb": FieldScalar(Fraction(-3, 8), Fraction(1, 8))}
        got = f.evaluate({name: value.to_complex() for name, value in point.items()})
        assert type(got) is complex and got == f.evaluate_exact(point).to_complex()

    def test_rejects_mixed_rings_and_non_pairs(self):
        with pytest.raises(VariableMismatchError):
            CompiledPolys([Z, MPoly.var(("x",), "x")])
        with pytest.raises(ValueError):
            CompiledPolys([MPoly.var(("x",), "x")]).real_values(deltoid_points(4))
