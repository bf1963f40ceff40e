from fractions import Fraction

import pytest
from hypothesis import given, settings

from deltoid_lab import diffusion, verify
from deltoid_lab.diffusion import (
    DiffusionModel,
    NotClosedError,
    boundary_ideal_check,
    cometric,
    divergence_sums,
    drift_from_measure,
    gamma_apply,
    l_apply,
    pushforward,
    rewrite_in_images,
)
from deltoid_lab.models import (
    DELTOID_VARS,
    PI_IMAGES,
    PSI1_IMAGES,
    PSI_IMAGES,
    deltoid_boundary_poly,
    deltoid_model,
    g2_from_lambda,
    g2_model,
    sixdim_model,
)
from deltoid_lab.poly import MPoly, NonDivisibleError, monomials_up_to
from deltoid_lab.report import VerificationReport
from deltoid_lab.scalars import ZERO

from conftest import deltoid_polys

Z = MPoly.var(DELTOID_VARS, "Z")
Zb = MPoly.var(DELTOID_VARS, "Zb")
LAM = Fraction(7, 3)
MODEL = deltoid_model(LAM)


def test_gamma_table_values():
    assert MODEL.gamma_entry("Z", "Zb") == (1 - Z * Zb) * Fraction(1, 2)
    assert MODEL.gamma_entry("Zb", "Z") == MODEL.gamma_entry("Z", "Zb")


def test_gamma_of_constant():
    f = Z * Z * Zb
    assert gamma_apply(MODEL, f, MPoly.const(DELTOID_VARS, 5)).is_zero()


def test_gamma_reproduces_table():
    assert gamma_apply(MODEL, Z, Zb) == MODEL.gamma_entry("Z", "Zb")


def test_gamma_sum_coordinates_matches_g2_entry():
    # Gamma(Z + Zb, Z + Zb) becomes p - s^2 + s + 1 in the (s, p) variables.
    got = gamma_apply(MODEL, Z + Zb, Z + Zb)
    g = MPoly.variables_ring(("s", "p"))
    expected = (g["p"] - g["s"] ** 2 + g["s"] + 1).subs(
        {"s": PSI_IMAGES["s"], "p": PSI_IMAGES["p"]}
    )
    assert got == expected


def test_l_apply_basics():
    assert l_apply(MODEL, Z) == Z * (-LAM)
    assert l_apply(MODEL, MPoly.const(DELTOID_VARS, 1)).is_zero()
    # Hand product rule: L(Z Zb) = Zb L(Z) + Z L(Zb) + 2 Gamma(Z, Zb).
    assert l_apply(MODEL, Z * Zb) == Z * Zb * (-(2 * LAM + 1)) + 1


@given(deltoid_polys, deltoid_polys)
@settings(max_examples=40)
def test_leibniz(f, g):
    lhs = gamma_apply(MODEL, f * g, Z + Zb * 2)
    rhs = f * gamma_apply(MODEL, g, Z + Zb * 2) + g * gamma_apply(MODEL, f, Z + Zb * 2)
    assert lhs == rhs


@given(deltoid_polys, deltoid_polys)
@settings(max_examples=40)
def test_diffusion_property(f, g):
    lhs = l_apply(MODEL, f * g)
    rhs = f * l_apply(MODEL, g) + g * l_apply(MODEL, f) + gamma_apply(MODEL, f, g) * 2
    assert lhs == rhs


@given(deltoid_polys)
@settings(max_examples=40)
def test_chain_rule_square(f):
    assert l_apply(MODEL, f * f) == f * l_apply(MODEL, f) * 2 + gamma_apply(MODEL, f, f) * 2


def test_pushforward_identity_map():
    images = {"Z": Z, "Zb": Zb}
    again = pushforward(MODEL, images, dict(MODEL.params))
    assert again == MODEL


def test_pushforward_sixdim_to_deltoid():
    assert pushforward(sixdim_model(LAM), PI_IMAGES, {"lambda": LAM}) == MODEL


def test_pushforward_deltoid_to_g2():
    image = pushforward(MODEL, PSI_IMAGES)
    target = g2_from_lambda(LAM)
    assert dict(image.gamma) == dict(target.gamma)
    assert dict(image.drift) == dict(target.drift)


def test_pushforward_functoriality():
    # Composing the two projections equals the direct 6-dim -> (s, p) map.
    lam = Fraction(3)
    staged = pushforward(
        pushforward(sixdim_model(lam), PI_IMAGES, {"lambda": lam}), PSI_IMAGES
    )
    composed_images = {
        "s": PSI_IMAGES["s"].subs(PI_IMAGES),
        "p": PSI_IMAGES["p"].subs(PI_IMAGES),
    }
    direct = pushforward(sixdim_model(lam), composed_images)
    assert dict(direct.gamma) == dict(staged.gamma)
    assert dict(direct.drift) == dict(staged.drift)


def test_pushforward_not_closed():
    # Gamma(Z Zb, Z Zb) involves Z^3 + Zb^3, which is not a polynomial in
    # Z Zb alone, so the one-coordinate map must be rejected.
    with pytest.raises(NotClosedError):
        pushforward(MODEL, {"p": Z * Zb})


def former_solve_linear(rows, rhs):
    """Gauss-Jordan elimination over every entry, zeros included."""
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    a = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    pivots, r = [], 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = a[r][col].inverse()
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][col]:
                factor = a[i][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[r])]
        pivots.append((r, col))
        r += 1
        if r == nrows:
            break
    if any(a[i][ncols] for i in range(r, nrows)):
        return None
    solution = [ZERO] * ncols
    for row, col in pivots:
        solution[col] = a[row][ncols]
    return solution


def former_rewrite(target, images, new_variables):
    """The rewrite as it was: every candidate image rebuilt from powers of the
    images, once per rewrite."""
    if target.is_zero():
        return MPoly.zero(new_variables)
    img_list = [images[v] for v in new_variables]
    img_degrees = [g.total_degree() for g in img_list]
    candidates = monomials_up_to(new_variables, target.total_degree(),
                                 weight=lambda e: sum(k * d for k, d in zip(e, img_degrees)))
    candidate_polys = []
    for exps in candidates:
        p = MPoly.const(target.variables, 1)
        for g, k in zip(img_list, exps):
            if k:
                p = p * g**k
        candidate_polys.append(p)
    row_index = {}
    for p in candidate_polys + [target]:
        for e in p.terms:
            row_index.setdefault(e, len(row_index))
    rows = [[ZERO] * len(candidates) for _ in range(len(row_index))]
    for col, p in enumerate(candidate_polys):
        for e, c in p.terms.items():
            rows[row_index[e]][col] = c
    rhs = [ZERO] * len(row_index)
    for e, c in target.terms.items():
        rhs[row_index[e]] = c
    solution = former_solve_linear(rows, rhs)
    assert solution is not None
    result = MPoly(new_variables, dict(zip(candidates, solution)))
    assert result.subs(dict(images)) == target
    return result


def former_pushforward(model, images, params=None):
    new_variables = tuple(images)
    gamma = {(u, v): former_rewrite(gamma_apply(model, images[u], images[v]), images,
                                    new_variables)
             for i, u in enumerate(new_variables) for v in new_variables[i:]}
    drift = {u: former_rewrite(l_apply(model, images[u]), images, new_variables)
             for u in new_variables}
    return DiffusionModel(new_variables, gamma, drift, dict(params or {}))


@pytest.mark.parametrize("lam", [Fraction(7, 3), Fraction(4), Fraction(17, 5)])
@pytest.mark.parametrize("source,images", [
    (sixdim_model, PI_IMAGES),
    (deltoid_model, PSI_IMAGES),
    (lambda lam: g2_model(Fraction(-1, 2), (2 * lam - 5) / 6), PSI1_IMAGES),
], ids=["pi", "psi", "psi1"])
def test_pushforward_matches_former_rewrites(lam, source, images):
    model = source(lam)
    got = pushforward(model, images, {"lambda": lam})
    expected = former_pushforward(model, images, {"lambda": lam})
    assert got == expected
    for key, entry in got.gamma.items():
        assert list(entry.terms.items()) == list(expected.gamma[key].terms.items())
    for u, entry in got.drift.items():
        assert list(entry.terms.items()) == list(expected.drift[u].terms.items())


def test_rewrite_certifies():
    target = (Z + Zb) ** 3 - Z * Zb * 3
    got = rewrite_in_images(target, PSI_IMAGES, ("s", "p"))
    g = MPoly.variables_ring(("s", "p"))
    assert got == g["s"] ** 3 - g["p"] * 3


def test_drift_from_measure_lebesgue():
    # Zero exponents: the drift is the bare divergence of the cometric.
    drift = drift_from_measure(DELTOID_VARS, MODEL.gamma, [])
    assert drift == divergence_sums(MODEL)


def test_drift_from_measure_deltoid():
    p_poly = deltoid_boundary_poly()
    alpha = (2 * LAM - 5) / 6
    drift = drift_from_measure(DELTOID_VARS, MODEL.gamma, [(p_poly, alpha)])
    assert drift == dict(MODEL.drift)


def test_drift_from_measure_rejects_incompatible_factor():
    with pytest.raises(NonDivisibleError):
        drift_from_measure(DELTOID_VARS, MODEL.gamma, [(Z + 1, Fraction(1, 2))])


def test_boundary_ideal_check():
    p_poly = deltoid_boundary_poly()
    cof = boundary_ideal_check(MODEL, p_poly)
    assert cof["Z"] == Z * (-3)
    assert cof["Zb"] == Zb * (-3)
    with pytest.raises(NonDivisibleError):
        boundary_ideal_check(MODEL, Z * Zb - 1)


def test_divergence_deltoid():
    div = divergence_sums(MODEL)
    assert div["Z"] == Z * Fraction(-5, 2)
    assert div["Zb"] == Zb * Fraction(-5, 2)


def test_model_serialization_roundtrip_shape():
    doc = MODEL.to_jsonable()
    assert doc["variables"] == ["Z", "Zb"]
    assert set(doc["gamma"]) == {"Z,Z", "Z,Zb", "Zb,Zb"}
    assert doc["params"] == {"lambda": "7/3"}
    assert doc["drift"]["Z"] == "-7/3*Z"


def test_model_validation():
    gamma = {("Z", "Z"): Z}
    with pytest.raises(ValueError):
        DiffusionModel(DELTOID_VARS, gamma, {"Z": Z})  # missing Zb drift


@pytest.fixture
def empty_memos():
    """Start from an empty Gamma memo, as a fresh process does."""
    diffusion._COMETRICS.clear()


def test_memo_is_keyed_by_the_gamma_table():
    # Models with one Gamma table share one memo whatever their drift; the
    # G2 family shares one across (a1, a2).
    assert cometric(deltoid_model(2)) is cometric(deltoid_model(Fraction(17, 5)))
    assert cometric(g2_model(0, 0)) is cometric(g2_from_lambda(LAM))
    assert cometric(sixdim_model(2)) is not cometric(MODEL)


def test_image_maps_in_the_same_variables_get_their_own_rewrites():
    # The memo keys a map by its images, not by the names of its variables.
    scaled = pushforward(MODEL, {"Z": Z * 2, "Zb": Zb * 2})
    assert scaled.gamma_entry("Z", "Z") == Zb * 2 - Z * Z
    assert scaled.drift == MODEL.drift
    assert pushforward(MODEL, {"Z": Z, "Zb": Zb}, dict(MODEL.params)) == MODEL


def test_pushforward_after_another_parameter_equals_a_fresh_one(empty_memos):
    fresh = pushforward(sixdim_model(3), PI_IMAGES)
    diffusion._COMETRICS.clear()
    pushforward(sixdim_model(2), PI_IMAGES)
    after = pushforward(sixdim_model(3), PI_IMAGES, {"lambda": Fraction(3)})
    assert after == deltoid_model(3)
    for entries, fresh_entries in ((after.gamma, fresh.gamma), (after.drift, fresh.drift)):
        for key, entry in entries.items():
            assert list(entry.terms.items()) == list(fresh_entries[key].terms.items())


def test_measure_cofactors_are_shared_and_exact(empty_memos):
    p_poly = deltoid_boundary_poly()
    for lam in (Fraction(7, 3), Fraction(17, 5), Fraction(4)):
        drift = drift_from_measure(DELTOID_VARS, deltoid_model(lam).gamma,
                                   [(p_poly, (2 * lam - 5) / 6)])
        assert drift == deltoid_model(lam).drift
    # One division per variable for the one base, read by both callers.
    assert list(cometric(MODEL)._cofactors) == [p_poly]
    assert boundary_ideal_check(MODEL, p_poly) == {"Z": Z * (-3), "Zb": Zb * (-3)}


def test_corrupted_gamma_misses_the_memo():
    p_poly = deltoid_boundary_poly()
    boundary_ideal_check(MODEL, p_poly)
    pushforward(MODEL, PSI_IMAGES)
    corrupt = verify._deltoid_gamma(corrupt=True)
    assert corrupt.gamma_key != MODEL.gamma_key
    assert cometric(corrupt) is not cometric(MODEL)
    # The division and the rewrite run again on the corrupted table, and fail.
    with pytest.raises(NonDivisibleError):
        boundary_ideal_check(corrupt, p_poly)
    with pytest.raises(NonDivisibleError):
        drift_from_measure(DELTOID_VARS, corrupt.gamma, [(p_poly, Fraction(1, 2))])
    with pytest.raises(NotClosedError):
        pushforward(corrupt, PSI_IMAGES)


def test_negative_control_fails_after_a_clean_symbolic_suite():
    results = []
    for negative_control in (False, True, False):
        report = VerificationReport(config={}, anchors=dict(verify.IDENTITY_MANIFEST))
        verify._suite_symbolic(report, verify.VerifyConfig(negative_control=negative_control))
        results.append({e.name: e.status for e in report.entries})
    clean, corrupted, again = results
    assert set(clean.values()) == {"proven-exact", "proven-by-interpolation"}
    assert again == clean
    assert corrupted["deltoid.metric_determinant"] == "exact-fail"
    assert corrupted == {**clean, "deltoid.metric_determinant": "exact-fail"}
