from fractions import Fraction

import pytest

from deltoid_lab import diffusion
from deltoid_lab.diffusion import DiffusionModel, cometric, l_apply
from deltoid_lab.models import (
    DELTOID_CONJ_PAIRS,
    DELTOID_VARS,
    deltoid_model,
    g2_from_lambda,
    g2_model,
)
from deltoid_lab.poly import MPoly, grlex_key, monomials_up_to
from deltoid_lab.scalars import ONE, FieldScalar
from deltoid_lab import spectral
from deltoid_lab.spectral import (
    DELTOID_BASIS,
    G2_BASIS,
    EigenPoly,
    EigenvalueCollisionError,
    coefficient_components_ok,
    eigen_g2,
    eigen_PQ,
    eigen_PQ_lambda,
    eigen_R,
    eigenbasis,
    eigenvalue_deltoid,
    g2_weighted_degree,
    graded_triangular_solve,
    operator_table,
    pq_indices,
    pq_pair,
    pq_polys,
    rewrite_symmetric_in_sp,
    rotation_mixes_pair,
    verify_rotation,
)

LAM = Fraction(7, 3)
MODEL = deltoid_model(LAM)
Z = MPoly.var(DELTOID_VARS, "Z")
Zb = MPoly.var(DELTOID_VARS, "Zb")


def solve_inputs(model, basis, max_degree):
    """graded_triangular_solve's (order, rank, table, eigenvalues) from a fresh
    table to max_degree, outside the cache."""
    order = tuple(basis.monomials(max_degree))
    table = operator_table(model, order, {})
    return (order, {e: i for i, e in enumerate(order)}, table,
            {e: -spectral._diagonal(table, e) for e in order})


def reference_solve(model, basis, lead):
    """The eigenpolynomial of lead solved from a fresh table, outside the cache."""
    inputs = solve_inputs(model, basis, basis.degree(lead))
    poly, mu = graded_triangular_solve(model, lead, *inputs)
    return EigenPoly(lead[0], lead[1], mu, poly, basis.flavor)


def reference_pq(model, n, k):
    return pq_pair(reference_solve(model, DELTOID_BASIS, (n, k)),
                   reference_solve(model, DELTOID_BASIS, (k, n)))


def former_solve(model, lead, order_key, table):
    """The back-substitution as it was: every step builds table[m] + m * mu as
    an MPoly and keeps its diagonal until the caller pops it."""
    variables = model.variables
    lead_key = order_key(lead)
    below = sorted((e for e in table if order_key(e) < lead_key), key=order_key, reverse=True)
    eigenvalues = {e: -spectral._diagonal(table, e) for e in (lead, *below)}
    mu = eigenvalues[lead]
    coeffs = {lead: ONE}
    acc = {}

    def accumulate(exps, scale):
        shifted = table[exps] + MPoly(variables, {exps: ONE}) * mu
        for e, c in shifted.terms.items():
            total = acc.get(e)
            new = c * scale if total is None else total + c * scale
            if new:
                acc[e] = new
            elif total is not None:
                del acc[e]

    accumulate(lead, ONE)
    acc.pop(lead, None)
    for exps in below:
        rhs = acc.pop(exps, None)
        if rhs is None or not rhs:
            continue
        denom = mu - eigenvalues[exps]
        if denom == 0:
            raise EigenvalueCollisionError(lead, exps, mu)
        c = rhs * Fraction(-1, 1) / FieldScalar.from_rational(denom)
        coeffs[exps] = c
        accumulate(exps, c)
        acc.pop(exps, None)
    assert not acc
    return MPoly(variables, coeffs), mu


def weird_model():
    """A legal triangular operator whose drift is tuned so that the (0,1)
    mode shares the (3,1) eigenvalue *and* receives a nonzero feed."""
    g = MPoly.variables_ring(DELTOID_VARS)
    gamma = {
        ("Z", "Z"): g["Zb"] - g["Z"] ** 2,
        ("Zb", "Zb"): g["Z"] - g["Zb"] ** 2,
        ("Z", "Zb"): (1 - g["Z"] * g["Zb"]) * Fraction(1, 2),
    }
    return DiffusionModel(DELTOID_VARS, gamma, {"Z": g["Z"] * 3, "Zb": -g["Zb"]})


@pytest.fixture
def l_apply_calls(monkeypatch):
    """Empty the eigenbasis cache and record every L application it makes."""
    calls = []

    def counted(model, poly):
        calls.append(poly)
        return l_apply(model, poly)

    spectral._OPERATORS.clear()
    monkeypatch.setattr(spectral, "l_apply", counted)
    return calls


class TestEigenR:
    def test_constant(self):
        e = eigen_R(MODEL, 0, 0)
        assert e.poly == MPoly.const(DELTOID_VARS, 1)
        assert e.eigenvalue == 0

    def test_linear(self):
        e = eigen_R(MODEL, 1, 0)
        assert e.poly == Z
        assert e.eigenvalue == LAM

    def test_one_one_by_hand(self):
        # Solving L(Z Zb + c) = -(2 lam + 1)(Z Zb + c) gives c = -1/(2 lam + 1).
        e = eigen_R(MODEL, 1, 1)
        assert e.poly == Z * Zb - Fraction(1, 2 * LAM + 1)
        assert e.eigenvalue == 2 * LAM + 1

    @pytest.mark.parametrize("lam", [Fraction(1), Fraction(5, 2), Fraction(4)])
    def test_eigen_relation_exact(self, lam):
        model = deltoid_model(lam)
        for d in range(6):
            for k in range(d + 1):
                e = eigen_R(model, d - k, k)
                assert l_apply(model, e.poly) == e.poly * (-e.eigenvalue)
                assert e.eigenvalue == eigenvalue_deltoid(lam, d - k, k)

    def test_conjugation_swap(self):
        r32 = eigen_R(MODEL, 3, 2)
        r23 = eigen_R(MODEL, 2, 3)
        assert r32.poly.conj_swap(DELTOID_CONJ_PAIRS) == r23.poly

    def test_benign_collision_is_consistent(self):
        # At the flat parameter the (3,5) solve shares its eigenvalue with
        # the lower-degree (7,0) mode; the feed is zero, so the solve stays
        # consistent and fixes the Z^7 coefficient to zero instead of aborting.
        model = deltoid_model(1)
        e = eigen_R(model, 3, 5)
        assert eigenvalue_deltoid(Fraction(1), 7, 0) == e.eigenvalue
        assert not e.poly.coefficient((7, 0))
        assert l_apply(model, e.poly) == e.poly * (-e.eigenvalue)

    def test_inconsistent_collision_raises(self):
        with pytest.raises(EigenvalueCollisionError) as err:
            eigen_R(weird_model(), 3, 1)
        assert err.value.witness == (0, 1)


class TestEigenPQ:
    def test_dominant_terms(self):
        p_hat, q_hat = eigen_PQ(MODEL, 1, 0)
        assert p_hat.poly == (Z + Zb) * Fraction(1, 2)
        from deltoid_lab.scalars import I

        assert q_hat.poly == (Z - Zb) * (I * Fraction(-1, 2))

    def test_symmetry_types(self):
        for n, k in pq_indices(5):
            p_hat, q_hat = eigen_PQ_lambda(LAM, n, k)
            # Reflection (pure variable swap): P symmetric, Q antisymmetric.
            assert p_hat.poly.swap_variables(DELTOID_CONJ_PAIRS) == p_hat.poly
            assert q_hat.poly.swap_variables(DELTOID_CONJ_PAIRS) == -q_hat.poly
            # Complex conjugation (swap + conjugate coefficients) fixes both:
            # they are real-valued functions.
            assert p_hat.poly.conj_swap(DELTOID_CONJ_PAIRS) == p_hat.poly
            assert q_hat.poly.conj_swap(DELTOID_CONJ_PAIRS) == q_hat.poly

    def test_diagonal_q_vanishes(self):
        _, q_hat = eigen_PQ(MODEL, 2, 2)
        assert q_hat.poly.is_zero()

    def test_coefficient_components(self):
        for n, k in pq_indices(5):
            p_hat, q_hat = eigen_PQ_lambda(LAM, n, k)
            assert coefficient_components_ok(p_hat)
            assert coefficient_components_ok(q_hat)

    def test_pq_polys_lists_every_nonzero_pair_member(self):
        expected = []
        for n, k in pq_indices(5):
            for e in eigen_PQ_lambda(LAM, n, k):
                if not e.poly.is_zero():
                    expected.append((e.flavor, n, k, e.poly))
        listed = pq_polys(LAM, 5)
        assert all(isinstance(e, EigenPoly) for e in listed)
        assert [(e.flavor, e.n, e.k, e.poly) for e in listed] == expected
        assert [(e.flavor, e.n, e.k) for e in listed if e.n == e.k] == [("P", 1, 1), ("P", 2, 2)]
        assert [e.flavor for e in listed[:3]] == ["P", "Q", "P"]


class TestRotation:
    @pytest.mark.parametrize("n,k", [(1, 0), (2, 0), (3, 0), (2, 1), (3, 3), (4, 1)])
    def test_rotation_relation(self, n, k):
        rep = verify_rotation(MODEL, n, k)
        assert rep.ok_2x2 and rep.ok_scalar

    def test_mixing_predicate_matches_the_rotation(self):
        # Z -> jZ moves P-hat (and so mixes in Q-hat) exactly when the
        # predicate holds; otherwise it fixes both polynomials.
        w = {"Z": 1, "Zb": -1}
        indices = pq_indices(6, include_constant=True)
        for n, k in indices:
            p_hat, q_hat = eigen_PQ(MODEL, n, k)
            fixed = p_hat.poly.rotate_j(w) == p_hat.poly and q_hat.poly.rotate_j(w) == q_hat.poly
            assert rotation_mixes_pair(n, k) == (not fixed), (n, k)
        assert [ix for ix in indices if not rotation_mixes_pair(*ix)] == [
            (0, 0), (1, 1), (3, 0), (2, 2), (4, 1), (6, 0), (3, 3)]

    def test_trivial_when_class_zero(self):
        p_hat, q_hat = eigen_PQ(MODEL, 3, 0)
        w = {"Z": 1, "Zb": -1}
        assert p_hat.poly.rotate_j(w) == p_hat.poly
        assert q_hat.poly.rotate_j(w) == q_hat.poly


class TestG2Eigen:
    def test_degree_one(self):
        model = g2_from_lambda(LAM)
        (e,) = eigen_g2(model, 1)
        assert e.poly == MPoly.var(("s", "p"), "s")
        assert e.eigenvalue == LAM

    def test_degree_two_p_leader(self):
        model = g2_from_lambda(LAM)
        slice2 = {(e.n, e.k): e for e in eigen_g2(model, 2)}
        g = MPoly.variables_ring(("s", "p"))
        assert slice2[(0, 1)].poly == g["p"] - Fraction(1, 2 * LAM + 1)

    def test_matches_symmetric_pairs(self):
        model = g2_from_lambda(LAM)
        for n, k in pq_indices(5):
            p_hat, _ = eigen_PQ_lambda(LAM, n, k)
            in_sp = rewrite_symmetric_in_sp(p_hat.poly)
            match = next(e for e in eigen_g2(model, n + k) if (e.n, e.k) == (n - k, k))
            lead = in_sp.coefficient((n - k, k))
            assert in_sp == match.poly * lead

    def test_weighted_degree(self):
        assert g2_weighted_degree((3, 2)) == 7

    def test_rewrite_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            rewrite_symmetric_in_sp(Z)


class TestGradedBasis:
    def test_operator_preserves_grading(self):
        for basis, model in ((DELTOID_BASIS, deltoid_model(Fraction(5, 2))),
                             (G2_BASIS, g2_from_lambda(Fraction(5, 2)))):
            table = operator_table(model, basis.monomials(6), {})
            assert all(basis.degree(e) <= basis.degree(exps)
                       for exps, image in table.items() for e in image.terms)

    def test_order_is_the_former_keys(self):
        # One rule, (degree(e), e), gives the former deltoid key (graded-lex)
        # and the former G2 key (weighted degree, then the power of s).
        deltoid = monomials_up_to(DELTOID_VARS, 12)
        g2 = monomials_up_to(G2_BASIS.variables, 12, weight=g2_weighted_degree)
        assert DELTOID_BASIS.monomials(12) == sorted(deltoid, key=grlex_key)
        assert G2_BASIS.monomials(12) == sorted(g2, key=lambda e: (g2_weighted_degree(e), e[0]))

    def test_g2_plain_degree_not_preserved(self):
        # The cubic term in Gamma(p, p) raises the plain total degree; only
        # the weighted grading is stable, which is the point of the grading.
        from deltoid_lab.spectral import GradedBasis

        plain = GradedBasis(("s", "p"), sum, "G")
        table = operator_table(g2_from_lambda(Fraction(5, 2)), plain.monomials(4), {})
        assert any(sum(e) > sum(exps) for exps, image in table.items() for e in image.terms)


class TestEigenbasis:
    def test_deltoid_basis_matches_eigen_R(self, l_apply_calls, monkeypatch):
        model = deltoid_model(1)
        basis = eigenbasis(model, 8)
        # One L application per monomial of degree <= 8, shared by every solve.
        assert len(l_apply_calls) == len(basis) == 45
        monkeypatch.undo()
        for (n, k), e in basis.items():
            assert e == reference_solve(model, DELTOID_BASIS, (n, k))
        # The benign flat-parameter collision keeps its zero in the shared table.
        assert not basis[(3, 5)].poly.coefficient((7, 0))

    def test_g2_basis_matches_slices(self):
        model = g2_from_lambda(LAM)
        basis = eigenbasis(model, 6)
        for d in range(7):
            for e in eigen_g2(model, d):
                assert basis[(e.n, e.k)] == e == reference_solve(model, G2_BASIS, (e.n, e.k))

    def test_rejects_unknown_variables(self):
        g = MPoly.variables_ring(("x",))
        model = DiffusionModel(("x",), {("x", "x"): 1 - g["x"] ** 2}, {"x": -g["x"]})
        with pytest.raises(ValueError):
            eigenbasis(model, 2)


class TestParameterBasis:
    def test_probe_pairs_share_one_table(self, l_apply_calls, monkeypatch):
        from deltoid_lab.hypergroup import ProbeContext

        lam = Fraction(11, 2)
        ctx = ProbeContext.build(lam, 4)
        # One L application per monomial of degree <= 4, for all eight pairs.
        assert len(l_apply_calls) == 15
        monkeypatch.undo()
        model = deltoid_model(lam)
        for (n, k), pair in ctx.pairs.items():
            assert pair == reference_pq(model, n, k)

    def test_growing_the_table_keeps_earlier_pairs(self):
        lam = Fraction(13, 3)
        spectral._OPERATORS.clear()
        low = eigen_PQ_lambda(lam, 1, 1)
        high = eigen_PQ_lambda(lam, 4, 2)
        assert eigen_PQ_lambda(lam, 1, 1) is low
        model = deltoid_model(lam)
        assert low == reference_pq(model, 1, 1) and high == reference_pq(model, 4, 2)
        with pytest.raises(ValueError):
            eigen_PQ_lambda(lam, -1, 0)


class TestOperatorCache:
    def test_equal_model_reuses_the_table(self, l_apply_calls):
        basis = eigenbasis(deltoid_model(LAM), 8)
        assert len(l_apply_calls) == 45
        again = deltoid_model(LAM)  # a second object, equal in value
        for n, k in pq_indices(6, include_constant=True):
            assert verify_rotation(again, n, k).ok
        assert eigen_R(again, 4, 2) is basis[(4, 2)]
        assert len(l_apply_calls) == 45

    def test_g2_slices_share_one_table(self, l_apply_calls):
        model = g2_from_lambda(LAM)
        for d in range(6):
            eigen_g2(model, d)
        # 12 monomials s^r p^t with r + 2t <= 5, each L-applied once.
        assert len(l_apply_calls) == 12

    def test_other_drift_gets_its_own_entry(self, l_apply_calls):
        r31 = eigen_R(MODEL, 3, 1)
        before = len(l_apply_calls)
        # weird_model shares the deltoid Gamma table and differs in drift only.
        with pytest.raises(EigenvalueCollisionError):
            eigen_R(weird_model(), 3, 1)
        assert len(l_apply_calls) > before
        assert eigen_R(MODEL, 3, 1) is r31

    def test_request_order_changes_no_polynomial(self):
        lam = Fraction(17, 4)
        spectral._OPERATORS.clear()
        high_first = (eigen_PQ_lambda(lam, 4, 2), eigen_PQ_lambda(lam, 1, 1))
        spectral._OPERATORS.clear()
        low_first = eigen_PQ_lambda(lam, 1, 1)
        assert (eigen_PQ_lambda(lam, 4, 2), low_first) == high_first


class TestFormerSolveOracle:
    """The solve reads the table's rows; the former MPoly arithmetic is the oracle."""

    @staticmethod
    def assert_same(model, basis, leads):
        degree = max(map(basis.degree, leads))
        inputs = solve_inputs(model, basis, degree)
        table = inputs[2]
        cached = eigenbasis(model, degree)
        for lead in leads:
            expected = former_solve(model, lead, lambda e: (basis.degree(e), e), table)
            got = graded_triangular_solve(model, lead, *inputs)
            assert got == expected, lead
            # The same terms in the same order: numeric evaluation sums them in it.
            assert list(got[0].terms.items()) == list(expected[0].terms.items())
            e = cached[lead]
            assert (e.poly, e.eigenvalue) == expected
            assert list(e.poly.terms.items()) == list(expected[0].terms.items())

    @pytest.mark.parametrize("lam", [Fraction(1), Fraction(7, 3), Fraction(4),
                                     Fraction(11, 2), Fraction(17, 5)])
    def test_deltoid_leads_to_degree_eight(self, lam):
        spectral._OPERATORS.clear()
        self.assert_same(deltoid_model(lam), DELTOID_BASIS, DELTOID_BASIS.monomials(8))

    @pytest.mark.parametrize("lam", [Fraction(7, 3), Fraction(17, 5)])
    def test_g2_leads_to_weighted_degree_six(self, lam):
        # The weighted grading's order is not the graded-lex enumeration order
        # of (s, p), so a solve that walked the enumeration would differ.
        assert G2_BASIS.monomials(6) != monomials_up_to(G2_BASIS.variables, 6,
                                                        weight=G2_BASIS.degree)
        spectral._OPERATORS.clear()
        self.assert_same(g2_from_lambda(lam), G2_BASIS, G2_BASIS.monomials(6))

    def test_benign_collision(self):
        model = deltoid_model(1)
        inputs = solve_inputs(model, DELTOID_BASIS, 8)
        expected = former_solve(model, (3, 5), grlex_key, inputs[2])
        poly, mu = graded_triangular_solve(model, (3, 5), *inputs)
        assert (poly, mu) == expected
        assert not poly.coefficient((7, 0)) and inputs[3][(7, 0)] == mu
        assert l_apply(model, poly) == poly * (-mu)
        spectral._OPERATORS.clear()
        cached = eigen_R(model, 3, 5)
        assert (cached.poly, cached.eigenvalue) == expected
        assert list(cached.poly.terms.items()) == list(expected[0].terms.items())

    def test_inconsistent_collision(self):
        model = weird_model()
        inputs = solve_inputs(model, DELTOID_BASIS, 4)
        with pytest.raises(EigenvalueCollisionError) as former:
            former_solve(model, (3, 1), grlex_key, inputs[2])
        with pytest.raises(EigenvalueCollisionError) as err:
            graded_triangular_solve(model, (3, 1), *inputs)
        assert former.value.witness == err.value.witness == (0, 1)


class TestMonomialSequence:
    def test_handed_out_monomials_are_immutable(self):
        spectral._OPERATORS.clear()
        entry = spectral._operator(deltoid_model(LAM))
        held = entry.monomials(8)
        assert isinstance(held, tuple) and held == tuple(DELTOID_BASIS.monomials(8))
        with pytest.raises(TypeError):
            held[0] = (9, 9)
        with pytest.raises(AttributeError):
            held.append((9, 0))
        low = entry.monomials(4)
        assert isinstance(low, tuple) and low == tuple(DELTOID_BASIS.monomials(4))
        assert entry.monomials(8) == tuple(DELTOID_BASIS.monomials(8))

    def test_lower_degrees_keep_the_graded_lex_order(self):
        # The order is graded-lex in the basis's own (for G2, weighted) grading,
        # so every lower degree is a prefix of the held monomials.
        spectral._OPERATORS.clear()
        entry = spectral._operator(g2_from_lambda(LAM))
        held = entry.monomials(6)
        for d in range(7):
            low = entry.monomials(d)
            assert low == tuple(G2_BASIS.monomials(d)) == held[:len(low)]


class TestPieri:
    @pytest.mark.parametrize("lam", [Fraction(1), Fraction(7, 3), Fraction(4)])
    def test_z_times_r_is_three_term(self, lam):
        # Koornwinder's A2 Pieri rule: multiplying R(n,k) by Z leaves only
        # R(n+1,k), R(n-1,k+1) and R(n,k-1).  Triangularity fixes the
        # coefficient of R(n+1,k) to 1; the remainder must lie in the span
        # of the other two.
        basis = eigenbasis(deltoid_model(lam), 7)
        for n, k in ((d - k, k) for d in range(7) for k in range(d + 1)):
            rest = Z * basis[(n, k)].poly - basis[(n + 1, k)].poly
            for m in ((n - 1, k + 1), (n, k - 1)):
                if min(m) >= 0:
                    rest = rest - basis[m].poly * rest.coefficient(m)
            assert rest.is_zero(), (lam, n, k)


class TestSharedSecondOrderTable:
    """Operator rows are the memoized second-order images plus each model's
    first-order part; they must equal L applied afresh, whatever ran before."""

    @staticmethod
    def assert_rows_are_l_apply(model, degree):
        entry = spectral._operator(model)
        held = entry.monomials(degree)
        for exps in held:
            assert entry.table[exps] == l_apply(model, MPoly(model.variables, {exps: ONE}))
        return entry

    @pytest.mark.parametrize("earlier", [None, Fraction(7, 3)])
    def test_deltoid_rows_to_degree_eight(self, earlier):
        diffusion._COMETRICS.clear()
        spectral._OPERATORS.clear()
        if earlier is not None:
            self.assert_rows_are_l_apply(deltoid_model(earlier), 8)
        entry = self.assert_rows_are_l_apply(deltoid_model(Fraction(17, 5)), 8)
        # One second-order image per monomial, shared by both parameters.
        assert len(cometric(entry.model)._second) == 45

    @pytest.mark.parametrize("earlier", [None, (Fraction(1, 4), Fraction(2, 3))])
    def test_g2_rows_to_weighted_degree_eight(self, earlier):
        diffusion._COMETRICS.clear()
        spectral._OPERATORS.clear()
        if earlier is not None:
            self.assert_rows_are_l_apply(g2_model(*earlier), 8)
        entry = self.assert_rows_are_l_apply(g2_model(Fraction(-1, 2), Fraction(1, 3)), 8)
        assert len(cometric(entry.model)._second) == len(G2_BASIS.monomials(8))

    def test_basis_after_another_parameter_equals_a_fresh_one(self):
        lam = Fraction(17, 5)
        diffusion._COMETRICS.clear()
        spectral._OPERATORS.clear()
        fresh = eigenbasis(deltoid_model(lam), 8)
        diffusion._COMETRICS.clear()
        spectral._OPERATORS.clear()
        eigenbasis(deltoid_model(Fraction(7, 3)), 8)
        after = eigenbasis(deltoid_model(lam), 8)
        assert after == fresh
        for lead, e in after.items():
            assert list(e.poly.terms.items()) == list(fresh[lead].poly.terms.items())
