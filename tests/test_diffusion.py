from fractions import Fraction

import pytest
from hypothesis import given, settings

from deltoid_lab.diffusion import (
    DiffusionModel,
    NotClosedError,
    boundary_ideal_check,
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
    PSI_IMAGES,
    deltoid_boundary_poly,
    deltoid_model,
    g2_from_lambda,
    sixdim_model,
)
from deltoid_lab.poly import MPoly, NonDivisibleError

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
