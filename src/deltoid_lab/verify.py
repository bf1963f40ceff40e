"""One-shot verification suite certifying every identity in the laboratory.

run_verify executes, in order: exact-algebra self-tests, the symbolic
identities of the three model families (determinant factorizations,
boundary ideals, divergence sums, measure-derived drifts, the projection
chain and the self-map intertwining, proven for every parameter value by
interpolation), the eigenstructure checks, quadrature orthogonality and
self-adjointness, the distributional sampling identities, and the Markov
block probe.  Exactly three checks resolve a printed formula against a
computed one and are reported as discrepancy-noted with both values.

IDENTITY_MANIFEST is the one registry: each name and anchor is written
there, and each name once more at its check site.  Each exact identity is
one ``with _exact(...)`` block; a failed ``require``, or any other exception
raised inside it, ends only that block and records the identity as
exact-fail with its witness, so every run reports every registered identity.
An identity proven for every parameter value is one ``_for_all_lambda``
call, an ``_exact`` block that checks it at two or more distinct lambdas
and names the failing ones as its witness.

Each numeric identity, and each discrepancy-noted one, is one
``with _numeric(...) as record:`` block ending in ``record(details, *gates)``.
A gate is one measured value, its bound and its comparison; ``_numeric`` is
the one place that turns gates into numeric-pass or numeric-fail, and it
records an exception raised in the block as numeric-fail with
``type: message`` as the witness.  A computation several identities share
(a Gram loop, a sample batch) is cached; if it raises, it raises again in
each identity that reads it, and the identities that do not still run.
Gates and per-suite wall seconds stay on the in-memory report, unemitted.

Exit codes: 0 all pass, 1 numeric failure, 2 exact-identity failure,
3 usage error.
"""

from __future__ import annotations

import functools
import math
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .diffusion import (
    DiffusionModel,
    NotClosedError,
    boundary_ideal_check,
    divergence_sums,
    drift_from_measure,
    l_apply,
    pushforward,
)
from .hypergroup import (
    CONTRACTION_BOUND,
    ProbeContext,
    ThetaPair,
    block_cross_correlations,
    coverage_check,
    delta_report,
    estimate_markov_matrix,
    exact_markov_matrix,
    positivity_scan,
    representation_check,
    theta_grid,
)
from .models import (
    DELTOID_CONJ_PAIRS,
    DELTOID_J_WEIGHTS,
    DELTOID_VARS,
    G2_VARS,
    PI_IMAGES,
    PSI1_IMAGES,
    PSI_IMAGES,
    SIXDIM_CONJ_PAIRS,
    SIXDIM_VARS,
    deltoid_boundary_poly,
    deltoid_boundary_values,
    deltoid_density_exponent,
    deltoid_model,
    flat_torus_sign_report,
    g2_from_lambda,
    g2_gamma_table,
    g2_model,
    lifted_density_exponent,
    membership_deltoid,
    omega1_membership,
    p1_p2,
    p1_polar_decomposition_residual,
    phi_theta,
    psi1_intertwining_factor,
    q1_q2,
    real_cometric_at,
    sixdim_model,
    su3_gamma_pointwise,
)
from .poly import CompiledPolys, MPoly, det_cofactor, det_fraction_free, divide_exact, try_divide
from .quadrature import (
    TorusGrid,
    eigenvalue_recovery,
    gram,
    jacobian_weight_audit,
    measure_invariance_residual,
    selfadjoint_check,
)
from .report import Gate, VerificationReport
from .sampling import (
    estimate_moments,
    pushforward_deltoid,
    sample_omega1,
    sample_su3_haar,
    su3_trace_blocks,
    torus_z_blocks,
)
from .scalars import FieldScalar, ONE
from .spectral import (
    coefficient_components_ok,
    eigen_PQ_lambda,
    eigen_R,
    eigen_g2,
    eigenbasis,
    eigenvalue_deltoid,
    pq_indices,
    pq_polys,
    rewrite_symmetric_in_sp,
    rotation_mixes_pair,
    verify_rotation,
)

LAMBDA_EIGEN_SET = (Fraction(1), Fraction(5, 2), Fraction(7, 3), Fraction(4), Fraction(11, 2))
LAMBDA_INTERP = (Fraction(2), Fraction(3))
Z_GATE = 4.0  # standard errors: every Monte-Carlo z-score must stay below this


class ExactIdentityFailure(AssertionError):
    """A zero-tolerance identity failed; the message is the witness."""


@dataclass(frozen=True)
class VerifyConfig:
    """Flat configuration; every knob is a plain key for the config file."""

    seed: int = 20260808
    eigen_degree_max: int = 8
    gram_degree_max: int = 5
    probe_degree_max: int = 4
    grid_n: int = 96
    torus_samples: int = 1_000_000
    su3_samples: int = 1_000_000
    omega1_samples: int = 100_000
    theta_per_axis: int = 5
    selfadjoint_pairs: int = 20
    coverage_theta_n: int = 600
    coverage_omega_n: int = 100
    cusp_grid_n: int = 400
    negative_control: bool = False

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# The identity registry (scripts/make_goldens.py writes it to docs/identities.json):
# each name with the machine-readable anchor of the mathematical fact it checks.
IDENTITY_MANIFEST: tuple[tuple[str, str], ...] = (
    ("algebra.field_axioms", "field-QiSqrt3-axioms"),
    ("algebra.conjugation_involution", "coefficient-conjugation-involution"),
    ("algebra.rotation_period", "j-rotation-period-three"),
    ("algebra.determinant_cross_check", "bareiss-vs-cofactor-determinant"),
    ("algebra.exact_division_roundtrip", "polynomial-exact-division"),
    ("deltoid.metric_determinant", "deltoid-metric-det-equals-minus-boundary"),
    ("deltoid.boundary_cofactors", "deltoid-boundary-ideal-cofactors"),
    ("deltoid.measure_drift", "deltoid-powerlaw-measure-drift"),
    ("deltoid.divergence_sum", "deltoid-cometric-divergence"),
    ("sixdim.metric_determinant", "lifted-metric-det-factorization"),
    ("sixdim.boundary_cofactors", "lifted-boundary-ideal-cofactors"),
    ("sixdim.divergence_sum", "lifted-cometric-divergence"),
    ("sixdim.measure_drift", "lifted-powerlaw-measure-drift"),
    ("sixdim.projection_to_deltoid", "average-map-projection"),
    ("deltoid.projection_to_g2", "symmetric-coordinates-projection"),
    ("g2.metric_determinant", "g2-metric-det-factorization"),
    ("g2.boundary_cofactors", "g2-boundary-ideal-cofactors"),
    ("g2.measure_drift", "g2-powerlaw-measure-drift"),
    ("g2.psi1_intertwining", "boundary-exchange-selfmap-intertwining"),
    ("g2.psi1_not_closed", "selfmap-image-fails-off-halfinteger"),
    ("g2.psi1_boundary_exchange", "selfmap-exchanges-boundary-factors"),
    ("g2.boundary_pullback_to_deltoid", "g2-boundary-factors-under-projection"),
    ("flat_torus.constraint_match", "flat-gradient-table-on-constraint-set"),
    ("sixdim.p1_polar_form", "p1-polar-product-decomposition"),
    ("su3.casimir_pointwise", "su3-casimir-trace-reduction"),
    ("sixdim.ellipticity", "lifted-cometric-positive-definite"),
    ("deltoid.membership_consistency", "cubic-roots-vs-boundary-sign"),
    ("spectral.eigen_relation", "eigenpolynomial-relation"),
    ("spectral.conjugation_swap", "eigenbasis-conjugation-swap"),
    ("spectral.rotation_relation", "eigenpair-rotation-action"),
    ("spectral.coefficient_realness", "eigenbasis-coefficient-components"),
    ("spectral.g2_eigen_match", "g2-weighted-eigenbasis-matches-symmetric-pairs"),
    ("spectral.max_at_cusp", "eigen-maximum-at-reference-cusp"),
    ("quadrature.jacobian_discriminant", "orbit-map-jacobian-proportional-to-boundary"),
    ("quadrature.gram_orthogonality", "quadrature-gram-diagonal"),
    ("quadrature.norm_equality", "pair-norm-equality-off-residue-class"),
    ("quadrature.selfadjointness", "integration-by-parts-residual"),
    ("quadrature.measure_invariance", "generator-integrates-to-zero"),
    ("quadrature.eigenvalue_recovery", "rayleigh-quotient-recovers-eigenvalue"),
    ("sampling.torus_moments", "uniform-torus-realizes-lambda-one"),
    ("sampling.su3_moments", "haar-trace-realizes-lambda-four"),
    ("sampling.omega1_predicate", "lifted-sampler-membership"),
    ("sampling.two_sampler_agreement", "rejection-vs-mcmc-cross-validation"),
    ("sampling.omega1_pushforward_moments", "lifted-samples-project-to-deltoid-measure"),
    ("sampling.phi_theta_invariance", "measure-invariance-under-rotations"),
    ("sampling.conjugation_invariance", "measure-invariance-under-conjugation"),
    ("hypergroup.exact_vs_estimated", "kernel-block-closed-forms-vs-monte-carlo"),
    ("hypergroup.block_diagonality", "kernel-commutes-cross-correlations-vanish"),
    ("hypergroup.positivity_scan", "kernel-blocks-are-contractions"),
    ("hypergroup.theta_coverage", "rotation-orbit-covers-domain"),
    ("hypergroup.representation_check", "moment-coefficients-define-contraction"),
    ("discrepancy.flat_torus_cross_term_sign", "flat-table-cross-term-sign"),
    ("discrepancy.g2_boundary_cubic_printings", "g2-cubic-factor-two-printings"),
    ("discrepancy.markov_delta_closed_form", "second-diagonal-entry-closed-form"),
)


@contextmanager
def _exact(report: VerificationReport, name: str, details: str, status: str = "proven-exact"):
    """One exact identity as a block; ``require(ok, witness)`` ends only this block.

    A block that completes records ``status`` with ``details``; the first
    failed ``require`` records exact-fail with its witness instead, and any
    other exception raised in the block records exact-fail with
    ``type: message`` as the witness.
    """

    def require(condition: bool, witness: str) -> None:
        if not condition:
            raise ExactIdentityFailure(witness)

    try:
        yield require
    except ExactIdentityFailure as failure:
        report.add(name, "exact-fail", str(failure))
    except Exception as error:
        report.add(name, "exact-fail", f"{type(error).__name__}: {error}")
    else:
        report.add(name, status, details)


def _for_all_lambda(report: VerificationReport, name: str, details: str,
                    check: Callable[[Fraction], bool],
                    lambdas: tuple[Fraction, ...] = LAMBDA_INTERP) -> None:
    """An identity of degree <= 1 in lambda, proven by interpolation.

    ``check(lam)`` tests the identity exactly at one rational lambda.  Both
    sides are polynomials of degree at most one in lambda, so agreement at
    two distinct values proves it for every lambda; fewer than two distinct
    values, or a repeated one, is rejected.  The block records
    proven-by-interpolation, or exact-fail naming the failing values.
    """
    with _exact(report, name, details, "proven-by-interpolation") as require:
        if len(lambdas) < 2 or len(set(lambdas)) != len(lambdas):
            raise ValueError(f"need two or more distinct parameter values, got {lambdas}")
        witnesses = tuple(lam for lam in lambdas if not check(lam))
        require(not witnesses, f"witnesses {witnesses}")


@contextmanager
def _numeric(report: VerificationReport, name: str, status: str | None = None):
    """One numeric identity as a block that ends with ``record(details, *gates)``.

    numeric-pass when every gate holds, else numeric-fail; a given ``status``
    (discrepancy-noted) is recorded as it is.  An exception raised in the
    block records numeric-fail with ``type: message`` as the witness.
    """

    def record(details: str, *gates: Gate) -> None:
        verdict = status or ("numeric-pass" if all(g.holds() for g in gates) else "numeric-fail")
        report.add(name, verdict, details, gates)

    try:
        yield record
    except Exception as error:
        report.add(name, "numeric-fail", f"{type(error).__name__}: {error}")


def _random_scalar(rng: random.Random) -> FieldScalar:
    return FieldScalar(
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
    )


def _random_poly(rng: random.Random, variables, degree: int, terms: int) -> MPoly:
    out = MPoly.zero(variables)
    nvars = len(variables)
    for _ in range(terms):
        exps = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(nvars)] += 1
        out = out + MPoly(variables, {tuple(exps): _random_scalar(rng)})
    return out


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def _suite_algebra(report: VerificationReport, config: VerifyConfig) -> None:
    rng = random.Random(config.seed)
    with _exact(report, "algebra.field_axioms",
                "40 random triples: associativity, distributivity, inverses") as require:
        for _ in range(40):
            x, y, z = (_random_scalar(rng) for _ in range(3))
            require((x * y) * z == x * (y * z), f"assoc at {x},{y},{z}")
            require(x * (y + z) == x * y + x * z, f"dist at {x},{y},{z}")
            if x:
                require(x * x.inverse() == ONE, f"inverse at {x}")

    with _exact(report, "algebra.conjugation_involution",
                "conjugation swap is an involution on random polynomials") as require:
        for _ in range(15):
            f = _random_poly(rng, SIXDIM_VARS, 3, 5)
            require(f.conj_swap(SIXDIM_CONJ_PAIRS).conj_swap(SIXDIM_CONJ_PAIRS) == f,
                    "involution failed")

    with _exact(report, "algebra.rotation_period",
                "triple j-rotation is the identity on random polynomials") as require:
        for _ in range(15):
            f = _random_poly(rng, DELTOID_VARS, 4, 5)
            w = DELTOID_J_WEIGHTS
            require(f.rotate_j(w).rotate_j(w).rotate_j(w) == f, "period-three failed")

    with _exact(report, "algebra.determinant_cross_check",
                "fraction-free elimination agrees with cofactor expansion") as require:
        for size in (2, 3, 4):
            for _ in range(4):
                m = [[_random_poly(rng, DELTOID_VARS, 1, 2) for _ in range(size)]
                     for _ in range(size)]
                require(det_fraction_free(m) == det_cofactor(m), f"{size}x{size} mismatch")

    with _exact(report, "algebra.exact_division_roundtrip",
                "divide_exact(f*g, g) = f on random polynomials") as require:
        for _ in range(12):
            f = _random_poly(rng, G2_VARS, 3, 4)
            g = _random_poly(rng, G2_VARS, 2, 3)
            if g.is_zero():
                continue
            require(divide_exact(f * g, g) == f, "roundtrip failed")


def _deltoid_gamma(corrupt: bool = False) -> DiffusionModel:
    m = deltoid_model(1)
    if not corrupt:
        return m
    gamma = {
        ("Z", "Z"): m.gamma_entry("Z", "Z") + MPoly.var(DELTOID_VARS, "Z"),
        ("Zb", "Zb"): m.gamma_entry("Zb", "Zb"),
        ("Z", "Zb"): m.gamma_entry("Z", "Zb"),
    }
    return DiffusionModel(DELTOID_VARS, gamma, dict(m.drift), dict(m.params))


def _suite_symbolic(report: VerificationReport, config: VerifyConfig) -> None:
    p_poly = deltoid_boundary_poly()
    with _exact(report, "deltoid.metric_determinant",
                "2x2 metric determinant equals -P for the quartic boundary P") as require:
        base = _deltoid_gamma(corrupt=config.negative_control)
        det2 = det_fraction_free(
            [[base.gamma_entry("Z", "Z"), base.gamma_entry("Z", "Zb")],
             [base.gamma_entry("Zb", "Z"), base.gamma_entry("Zb", "Zb")]]
        )
        expected2 = (
            base.gamma_entry("Z", "Zb") ** 2
            - base.gamma_entry("Z", "Z") * base.gamma_entry("Zb", "Zb")
        )
        require(det2 == -expected2 and expected2 == p_poly, f"det = {det2}")

    zvar = MPoly.var(DELTOID_VARS, "Z")
    zbvar = MPoly.var(DELTOID_VARS, "Zb")
    with _exact(report, "deltoid.boundary_cofactors",
                "Gamma(P, Z) = -3 Z P and Gamma(P, Zb) = -3 Zb P") as require:
        cof = boundary_ideal_check(deltoid_model(1), p_poly)
        require(cof["Z"] == zvar * (-3) and cof["Zb"] == zbvar * (-3),
                str({k: str(v) for k, v in cof.items()}))

    def deltoid_drift_check(lam: Fraction) -> bool:
        m = deltoid_model(lam)
        derived = drift_from_measure(DELTOID_VARS, m.gamma,
                                     [(p_poly, deltoid_density_exponent(lam))])
        return derived == dict(m.drift)

    _for_all_lambda(report, "deltoid.measure_drift",
                    "P**((2l-5)/6) density gives drift (-l Z, -l Zb); exact at l in "
                    f"{LAMBDA_INTERP}", deltoid_drift_check)

    with _exact(report, "deltoid.divergence_sum",
                "column divergence of the deltoid cometric is -(5/2) per coordinate") as require:
        div = divergence_sums(deltoid_model(1))
        require(div["Z"] == zvar * Fraction(-5, 2) and div["Zb"] == zbvar * Fraction(-5, 2),
                str({k: str(v) for k, v in div.items()}))

    # Lifted model.
    sm = sixdim_model(2)
    p1, p2 = p1_p2()
    with _exact(report, "sixdim.metric_determinant",
                "6x6 metric determinant equals (243/64) P1 P2") as require:
        det6 = det_fraction_free([[sm.gamma_entry(u, v) for v in SIXDIM_VARS] for u in SIXDIM_VARS])
        require(det6 == p1 * p2 * Fraction(243, 64), f"det has {len(det6.terms)} terms")

    with _exact(report, "sixdim.boundary_cofactors",
                "Gamma(P1, w) = -3 w P1 for all six coordinates") as require:
        cof1 = boundary_ideal_check(sm, p1)
        require(all(cof1[v] == MPoly.var(SIXDIM_VARS, v) * (-3) for v in SIXDIM_VARS),
                str({k: str(v) for k, v in cof1.items()}))

    with _exact(report, "sixdim.divergence_sum",
                "column divergence of the lifted cometric is -(11/2) per coordinate") as require:
        div6 = divergence_sums(sm)
        require(all(div6[v] == MPoly.var(SIXDIM_VARS, v) * Fraction(-11, 2) for v in SIXDIM_VARS),
                str({k: str(v) for k, v in div6.items()}))

    def sixdim_drift_check(lam: Fraction) -> bool:
        m = sixdim_model(lam)
        derived = drift_from_measure(SIXDIM_VARS, m.gamma, [(p1, lifted_density_exponent(lam))])
        return derived == dict(m.drift)

    _for_all_lambda(report, "sixdim.measure_drift",
                    "P1**((2l-11)/6) density gives drift -l per coordinate; exact at l in (3, 6)",
                    sixdim_drift_check, (Fraction(3), Fraction(6)))

    def projection_check(lam: Fraction) -> bool:
        return pushforward(sixdim_model(lam), PI_IMAGES, {"lambda": lam}) == deltoid_model(lam)

    _for_all_lambda(report, "sixdim.projection_to_deltoid",
                    "average map carries the lifted model onto the deltoid model; exact at l in "
                    f"{LAMBDA_INTERP}", projection_check)

    def g2_projection_check(lam: Fraction) -> bool:
        image = pushforward(deltoid_model(lam), PSI_IMAGES)
        target = g2_from_lambda(lam)
        return image.gamma == target.gamma and image.drift == target.drift

    _for_all_lambda(report, "deltoid.projection_to_g2",
                    "(s, p) projection carries the deltoid model onto the G2 model; exact at l in "
                    f"{LAMBDA_INTERP}", g2_projection_check)

    # G2 family.
    q1, q2 = q1_q2()
    with _exact(report, "g2.metric_determinant",
                "2x2 metric determinant equals (1/4) q1 q2 with q2 defined by exact division"
                ) as require:
        gamma = g2_gamma_table()
        detg = gamma[("s", "s")] * gamma[("p", "p")] - gamma[("s", "p")] ** 2
        require(detg == q1 * q2 * Fraction(1, 4), f"det = {detg}")

    svar = MPoly.var(G2_VARS, "s")
    pvar = MPoly.var(G2_VARS, "p")
    with _exact(report, "g2.boundary_cofactors",
                "Gamma(log q1, .) = (-2s-2, -3p-2s+1); Gamma(log q2, .) = (-3s, -6p)") as require:
        gm = g2_model(Fraction(-1, 2), Fraction(1, 2))
        cq1 = boundary_ideal_check(gm, q1)
        cq2 = boundary_ideal_check(gm, q2)
        ok = (
            cq1["s"] == svar * (-2) - 2
            and cq1["p"] == pvar * (-3) - svar * 2 + 1
            and cq2["s"] == svar * (-3)
            and cq2["p"] == pvar * (-6)
        )
        require(ok, str({k: str(v)
                         for k, v in (cq1 | {f"2{k}": v for k, v in cq2.items()}).items()}))

    def g2_drift_check(lam: Fraction) -> bool:
        m = g2_from_lambda(lam)
        return m.drift["s"] == svar * (-lam) and m.drift["p"] == pvar * (-(2 * lam + 1)) + 1

    _for_all_lambda(report, "g2.measure_drift",
                    "q1**(-1/2) q2**((2l-5)/6) density gives drift (-l s, 1-(2l+1) p)",
                    g2_drift_check)

    with _exact(report, "g2.psi1_intertwining",
                "image of the (-1/2, a2) operator under the self-map equals exactly "
                "3 x the (a2, -1/2) operator (equivalently: one third of the image is the "
                "parameter-swapped operator), at a2 in (0, 1/2, 3/2)") as require:
        factors = [psi1_intertwining_factor(a2)
                   for a2 in (Fraction(0), Fraction(1, 2), Fraction(3, 2))]
        require(all(f == 3 for f in factors), f"factors {factors}")

    with _exact(report, "g2.psi1_not_closed",
                "the self-map does not carry the operator when a1 = 0 (image drift not polynomial)"
                ) as require:
        try:
            pushforward(g2_model(0, Fraction(1, 2)), PSI1_IMAGES)
        except NotClosedError:
            pass
        else:
            require(False, "pushforward unexpectedly closed at a1 = 0")

    pull_q1 = q1.subs(PSI1_IMAGES)
    cofactor = try_divide(q2.subs(PSI1_IMAGES), q1)
    with _exact(report, "g2.psi1_boundary_exchange",
                f"q1 pulls back to 3 q2; q2 pulls back to q1 * ({cofactor})") as require:
        require(pull_q1 == q2 * 3 and cofactor is not None, f"q1 pullback = {pull_q1}")

    with _exact(report, "g2.boundary_pullback_to_deltoid",
                "under (s, p) = (Z + Zb, Z Zb): q2 = -4 P and q1 = (Z - Zb)^2") as require:
        require(q2.subs(PSI_IMAGES) == p_poly * (-4) and q1.subs(PSI_IMAGES) == (zvar - zbvar) ** 2,
                "pullbacks do not match")


def _suite_models_numeric(report: VerificationReport, config: VerifyConfig) -> None:
    sign_report = functools.cache(lambda: flat_torus_sign_report(1000, seed=config.seed))
    with _numeric(report, "flat_torus.constraint_match") as record:
        sign = sign_report()
        record(f"gradient table matches the lifted table on the constraint set to "
               f"{sign['deviation_minus_variant']:.2e} over {sign['points']} points",
               Gate(sign["deviation_minus_variant"], 1e-10))

    with _numeric(report, "discrepancy.flat_torus_cross_term_sign", "discrepancy-noted") as record:
        sign = sign_report()
        record("printed cross term +(1/2) z_i zb_j vs gradient-derived -(1/2) z_i zb_j: the "
               f"minus sign matches the lifted table (deviation {sign['deviation_minus_variant']:.2e}) "
               f"while the plus sign deviates by {sign['deviation_plus_variant']:.2e}; resolution: -(1/2) z_i zb_j")

    with _numeric(report, "sixdim.p1_polar_form") as record:
        rng = np.random.default_rng(config.seed + 1)
        pts = np.sqrt(rng.uniform(size=(1000, 3))) * np.exp(1j * rng.uniform(0, 2 * math.pi, size=(1000, 3)))
        resid = p1_polar_decomposition_residual(pts)
        record(f"polar product form matches P1 to {resid:.2e} on 1000 random points",
               Gate(resid, 1e-10))

    with _numeric(report, "discrepancy.g2_boundary_cubic_printings", "discrepancy-noted") as record:
        _, q2 = q1_q2()
        record("two printed variants of the quintic's cubic factor (3p^2+12sp+6p-4s^3-1 vs "
               "3s^2+12sp+6p-4s^3-1): exact division of the metric determinant by q1/4 is the "
               f"resolution and yields {q2}, matching the first variant and refuting the "
               "second (which does not even vanish at the bitangent point (2,1))")

    with _numeric(report, "su3.casimir_pointwise") as record:
        res = su3_gamma_pointwise(sample_su3_haar(1000, config.seed + 2).points)
        worst = max(float(res[f"residual_{name}"].max())
                    for name in ("gamma_zz", "gamma_zzb", "l_z", "trace_identity"))
        gate = Gate(worst, 1e-8)
        # The residual is rounding noise of the samples; the details state its bound.
        record(f"scaled Casimir values {'match' if gate.holds() else 'miss'} the deltoid table "
               f"at parameter 4 to {gate.bound:.0e} on 1000 Haar samples (scale 1/2 for the "
               "unit-normalized entry table)", gate)

    with _numeric(report, "sixdim.ellipticity") as record:
        z = sample_omega1(Fraction(11, 2), 200, config.seed + 3, method="rejection").points
        point = dict(zip(SIXDIM_VARS, [*z.T, *np.conj(z.T)]))
        min_eig = float(np.linalg.eigvalsh(real_cometric_at(sixdim_model(3), point)).min())
        record(f"smallest real-cometric eigenvalue over 200 domain samples: {min_eig:.3e} > 0",
               Gate(min_eig, 0.0, ">"))

    with _numeric(report, "deltoid.membership_consistency") as record:
        rng = np.random.default_rng(config.seed + 4)
        box = rng.uniform(-1.2, 1.2, size=(10_000, 2))
        zbox = box[:, 0] + 1j * box[:, 1]
        pvals = np.asarray(deltoid_boundary_values(zbox))
        keep = np.abs(pvals) > 1e-6
        mismatches = int(np.count_nonzero(
            (membership_deltoid(zbox[keep]) == "interior") != (pvals[keep] > 0)))
        record(f"{mismatches} disagreements between root classifier and boundary sign "
               f"on {int(keep.sum())} box points (1e-6 boundary band excluded)",
               Gate(mismatches, 0, "=="))


def _suite_spectral(report: VerificationReport, config: VerifyConfig) -> None:
    dmax = config.eigen_degree_max
    with _exact(report, "spectral.eigen_relation",
                f"L(R) = -((l-1)(n+k)+n^2+k^2+nk) R for n+k <= {dmax} at l in "
                f"{tuple(str(l) for l in LAMBDA_EIGEN_SET)}") as require:
        for lam in LAMBDA_EIGEN_SET:
            model = deltoid_model(lam)
            for d in range(dmax + 1):
                for k in range(d + 1):
                    n = d - k
                    e = eigen_R(model, n, k)
                    require(l_apply(model, e.poly) == e.poly * (-e.eigenvalue)
                            and e.eigenvalue == eigenvalue_deltoid(lam, n, k),
                            f"lambda={lam}, (n,k)=({n},{k})")

    with _exact(report, "spectral.conjugation_swap",
                "conjugation swap maps R(n,k) to R(k,n) exactly") as require:
        for lam in LAMBDA_EIGEN_SET:
            basis = eigenbasis(deltoid_model(lam), dmax)
            for n, k in pq_indices(dmax):
                require(basis[(n, k)].poly.conj_swap(DELTOID_CONJ_PAIRS) == basis[(k, n)].poly,
                        f"lambda={lam}, (n,k)=({n},{k})")

    with _exact(report, "spectral.rotation_relation",
                "2x2 rotation action exact; the pair P + iQ picks up the scalar j**(n-k)"
                ) as require:
        for lam in LAMBDA_EIGEN_SET:
            model = deltoid_model(lam)
            for n, k in pq_indices(dmax, include_constant=True):
                require(verify_rotation(model, n, k).ok, f"lambda={lam}, (n,k)=({n},{k})")

    with _exact(report, "spectral.coefficient_realness",
                "R, P coefficients rational; Q coefficients purely imaginary") as require:
        for n, k in pq_indices(dmax):
            p_hat, q_hat = eigen_PQ_lambda(Fraction(4), n, k)
            require(coefficient_components_ok(p_hat) and coefficient_components_ok(q_hat),
                    f"(n,k)=({n},{k})")

    with _exact(report, "spectral.g2_eigen_match",
                "symmetric pairs rewritten in (s, p) equal the weighted-graded eigenbasis "
                "up to leading-coefficient scale, n+k <= 5") as require:
        lam = Fraction(7, 3)
        g2 = g2_from_lambda(lam)
        for n, k in pq_indices(5):
            p_hat, _ = eigen_PQ_lambda(lam, n, k)
            in_sp = rewrite_symmetric_in_sp(p_hat.poly)
            lead = in_sp.coefficient((n - k, k))
            # The slice n + k lists its leads (n + k - 2t, t) by t.
            require(in_sp == eigen_g2(g2, n + k)[k].poly * lead, f"(n,k)=({n},{k})")

    # Maximum at the reference cusp: the grid max of |P| must land within one
    # cell of the cusp (see cusp_scan).
    with _numeric(report, "spectral.max_at_cusp") as record:
        ngrid = config.cusp_grid_n
        polys = [eigen_PQ_lambda(lam, n, k)[0].poly for lam in (Fraction(4), Fraction(11, 2))
                 for n, k in pq_indices(5, include_constant=True)]
        worst_dist = max([dist for grid_max, near_max, dist in cusp_scan(polys, ngrid)
                          if near_max < grid_max * (1.0 - 1e-12)], default=0.0)
        record(f"grid max of |P| attained within one cell of Z = 1 for n+k <= 5 at "
               f"parameters 4 and 11/2 on a {ngrid}x{ngrid} grid"
               + ("" if worst_dist == 0.0 else f"; worst stray argmax at distance {worst_dist:.3f}"),
               Gate(worst_dist, 0.0, "=="))


def cusp_scan(polys: Sequence[MPoly], ngrid: int) -> list[tuple[float, float, float]]:
    """|p| of each polynomial in (Z, Zb) on the closed deltoid, sampled on an
    ngrid x ngrid grid aligned so that the cusp Z = 1 and the real axis are
    lattice points of the closed domain.

    Returns, per polynomial, (grid max, max over the grid points within 1.5
    cells of Z = 1, distance from Z = 1 of the first grid argmax).  The
    polynomials are compiled once and evaluated once, on the closure points
    only, kept in the grid's raveled order: maxima and first argmax are those
    of the whole grid with -inf outside the closure.
    """
    cell = 2.3 / (ngrid - 1)
    xs = 1.0 - cell * np.arange(ngrid - 1, -1, -1)
    ys = cell * (np.arange(ngrid) - (ngrid // 2))
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    zgrid = gx + 1j * gy
    z = zgrid[np.asarray(deltoid_boundary_values(zgrid)) >= 0.0]
    near = np.abs(z - 1.0) <= cell * 1.5
    values = np.abs(CompiledPolys(polys).values({"Z": z, "Zb": np.conj(z)}))
    return [(float(v.max()), float(v[near].max()), float(abs(z[np.argmax(v)] - 1.0)))
            for v in values]


def _suite_quadrature(report: VerificationReport, config: VerifyConfig) -> None:
    with _numeric(report, "quadrature.jacobian_discriminant") as record:
        audit = jacobian_weight_audit(64)
        record(f"|J|^2 / P constant to {audit['max_relative_deviation']:.2e} "
               f"(kappa = {audit['kappa']:.12f}); flat-parameter weight constant to "
               f"{audit['lambda1_weight_deviation']:.2e}",
               Gate(audit["max_relative_deviation"], 1e-9),
               Gate(audit["lambda1_weight_deviation"], 1e-9))

    @functools.cache
    def grid(lam: Fraction) -> TorusGrid:
        return TorusGrid.build(lam, config.grid_n)

    @functools.cache
    def gram_worst() -> tuple[float, float]:
        worst_off = 0.0
        worst_norm = 0.0
        for lam in (Fraction(1), Fraction(4)):
            entries = pq_polys(lam, config.gram_degree_max)
            gmat = gram([poly for *_, poly in entries], grid(lam))
            off = gmat - np.diag(np.diag(gmat))
            worst_off = max(worst_off, float(np.max(np.abs(off))))
            norms = np.sqrt(np.diag(gmat).real)
            for i, (flavor, n, k, _) in enumerate(entries):
                if flavor == "P" and rotation_mixes_pair(n, k):  # Q-hat(n, k) comes next
                    worst_norm = max(worst_norm, abs(float(norms[i] - norms[i + 1])))
        return worst_off, worst_norm

    with _numeric(report, "quadrature.gram_orthogonality") as record:
        worst_off, _ = gram_worst()
        record(f"max off-diagonal Gram entry {worst_off:.2e} at parameters 1 and 4, "
               f"grid {config.grid_n}, degree <= {config.gram_degree_max}",
               Gate(worst_off, 1e-8))
    with _numeric(report, "quadrature.norm_equality") as record:
        _, worst_norm = gram_worst()
        record(f"|norm(P) - norm(Q)| <= {worst_norm:.2e} for n - k not divisible by 3",
               Gate(worst_norm, 1e-8))

    @functools.cache
    def selfadjoint_worst() -> tuple[float, float, int]:
        rng = random.Random(config.seed + 5)
        worst_sa = 0.0
        worst_inv = 0.0
        pairs = 0
        for lam in (Fraction(1), Fraction(4)):
            model = deltoid_model(lam)
            for _ in range(config.selfadjoint_pairs // 2):
                pairs += 1
                f = _random_poly(rng, DELTOID_VARS, 3, 4)
                g = _random_poly(rng, DELTOID_VARS, 3, 4)
                f = f + f.conj_swap(DELTOID_CONJ_PAIRS)
                g = g + g.conj_swap(DELTOID_CONJ_PAIRS)
                worst_sa = max(worst_sa, selfadjoint_check(model, f, g, grid(lam)))
                worst_inv = max(worst_inv, measure_invariance_residual(model, f, grid(lam)))
        return worst_sa, worst_inv, pairs

    with _numeric(report, "quadrature.selfadjointness") as record:
        worst_sa, _, pairs = selfadjoint_worst()
        record(f"max |int f L(g) + int Gamma(f,g)| = {worst_sa:.2e} over "
               f"{pairs} random real pairs", Gate(worst_sa, 1e-9))
    with _numeric(report, "quadrature.measure_invariance") as record:
        _, worst_inv, _ = selfadjoint_worst()
        record(f"max |int L(f)| = {worst_inv:.2e}", Gate(worst_inv, 1e-9))

    with _numeric(report, "quadrature.eigenvalue_recovery") as record:
        lam = Fraction(4)
        model = deltoid_model(lam)
        worst_eig = 0.0
        for n, k in pq_indices(4):
            p_hat, _ = eigen_PQ_lambda(lam, n, k)
            rec = eigenvalue_recovery(model, p_hat.poly, grid(lam))
            worst_eig = max(worst_eig, abs(rec + float(eigenvalue_deltoid(lam, n, k))))
        record(f"max |Rayleigh quotient + eigenvalue| = {worst_eig:.2e}", Gate(worst_eig, 1e-7))


def _eigen_mean_worst_z(zvals, lam: Fraction, degree_max: int) -> float:
    """Worst |mean| / standard error of the eigenfunctions with 1 <= n+k <= degree_max
    at points zvals: an array, or an iterator over blocks that is never held whole."""
    mean, se = CompiledPolys([poly for *_, poly in pq_polys(lam, degree_max)]).real_mean_se(zvals)
    return float(np.max(np.abs(mean) / se))


def _suite_sampling(report: VerificationReport, config: VerifyConfig) -> None:
    with _numeric(report, "sampling.torus_moments") as record:
        worst = _eigen_mean_worst_z(torus_z_blocks(config.torus_samples, config.seed + 10),
                                    Fraction(1), 4)
        record(f"all eigenfunction means within {worst:.2f} standard errors of zero "
               f"({config.torus_samples} samples, 1 <= n+k <= 4)", Gate(worst, Z_GATE))

    with _numeric(report, "sampling.su3_moments") as record:
        worst = _eigen_mean_worst_z(su3_trace_blocks(config.su3_samples, config.seed + 11),
                                    Fraction(4), 4)
        record(f"all eigenfunction means within {worst:.2f} standard errors of zero "
               f"({config.su3_samples} samples, 1 <= n+k <= 4)", Gate(worst, Z_GATE))

    lam = Fraction(11, 2)
    rejection = functools.cache(lambda: sample_omega1(
        lam, config.omega1_samples, config.seed + 12, method="rejection"))
    with _numeric(report, "sampling.omega1_predicate") as record:
        batch = rejection()
        outside = int(np.count_nonzero(~omega1_membership(batch.points)))
        record(f"every accepted point satisfies P1 > 0, P2 < 0, max|z| < 1 "
               f"(acceptance rate {batch.stats['acceptance_rate']:.4f})", Gate(outside, 0, "=="))

    funcs = {"S1": lambda pts: (pts * pts.conjugate()).real.sum(axis=1)}
    with _numeric(report, "sampling.two_sampler_agreement") as record:
        mcmc = sample_omega1(lam, max(2000, config.omega1_samples // 25), config.seed + 13,
                             method="mcmc", step=0.25)
        m_rej = estimate_moments(rejection(), funcs)["S1"]
        m_mc = estimate_moments(mcmc, funcs)["S1"]
        zscore = m_rej.z(m_mc)
        record(f"E[S1]: rejection {m_rej.mean:.5f} vs MCMC {m_mc.mean:.5f} "
               f"({zscore:.2f} combined standard errors; MCMC ESS {mcmc.stats['ess']:.0f})",
               Gate(zscore, Z_GATE))

    with _numeric(report, "sampling.omega1_pushforward_moments") as record:
        worst = _eigen_mean_worst_z(pushforward_deltoid(rejection()), lam, 4)
        record(f"projected eigenfunction means within {worst:.2f} standard errors of zero",
               Gate(worst, Z_GATE))

    test_funcs = {
        "re_z1": lambda pts: pts[:, 0].real,
        "im_z2_zb3": lambda pts: (pts[:, 1] * np.conj(pts[:, 2])).imag,
        "abs_sum_sq": lambda pts: np.abs(pts.sum(axis=1)) ** 2,
        "re_z1sq_zb2": lambda pts: (pts[:, 0] ** 2 * np.conj(pts[:, 1])).real,
    }
    base_moments = functools.cache(lambda: estimate_moments(rejection(), test_funcs))
    with _numeric(report, "sampling.phi_theta_invariance") as record:
        base_m = base_moments()
        rotated = replace(rejection(), points=phi_theta(rejection().points, ThetaPair(0.9, 2.1)))
        rot_m = estimate_moments(rotated, test_funcs)
        worst = max(base_m[k].z(rot_m[k]) for k in test_funcs)
        record(f"moment shifts under the coordinate rotation within {worst:.2f} "
               "combined standard errors", Gate(worst, Z_GATE))

    with _numeric(report, "sampling.conjugation_invariance") as record:
        base_m = base_moments()
        conj_m = estimate_moments(replace(rejection(), points=np.conj(rejection().points)),
                                  test_funcs)
        worst = max(base_m[k].z(conj_m[k]) for k in test_funcs)
        record(f"moment shifts under conjugation within {worst:.2f} combined standard errors",
               Gate(worst, Z_GATE))


def _suite_hypergroup(report: VerificationReport, config: VerifyConfig) -> None:
    lam = Fraction(11, 2)
    probe = functools.cache(lambda: ProbeContext.build(lam, config.probe_degree_max, config.grid_n))
    samples = functools.cache(lambda: sample_omega1(
        lam, config.omega1_samples, config.seed + 20, method="rejection"))
    thetas = theta_grid(config.theta_per_axis)
    theta_mid = thetas[len(thetas) // 2]

    with _numeric(report, "hypergroup.exact_vs_estimated") as record:
        ctx, batch = probe(), samples()
        worst_z = max(z for theta in thetas for n, k in ctx.pairs for z in estimate_markov_matrix(
            ctx, n, k, theta, batch).z_scores(exact_markov_matrix(ctx, n, k, theta)).values())
        record(f"exact block entries reproduced within {worst_z:.2f} standard errors "
               f"over a {config.theta_per_axis}x{config.theta_per_axis} grid, "
               f"n+k <= {config.probe_degree_max}, {len(batch)} samples", Gate(worst_z, Z_GATE))

    with _numeric(report, "hypergroup.block_diagonality") as record:
        crosses = block_cross_correlations(probe(), theta_mid, samples())
        worst_cross = max(abs(c["correlation"]) / c["standard_error"] for c in crosses)
        record(f"cross-eigenvalue correlations within {worst_cross:.2f} standard errors "
               f"of zero ({len(crosses)} pairs)", Gate(worst_cross, Z_GATE))

    with _numeric(report, "hypergroup.positivity_scan") as record:
        scan = positivity_scan(probe(), thetas)
        record(f"largest exact block bound {scan['worst_block_bound']:.6f} <= 1; "
               f"max |alpha| = {scan['max_abs_alpha']:.6f}",
               Gate(scan["worst_block_bound"], CONTRACTION_BOUND, "<="))

    with _numeric(report, "hypergroup.theta_coverage") as record:
        cov = coverage_check(config.coverage_theta_n, config.coverage_omega_n)
        record(f"{cov['interior_cells']} interior cells, {cov['missed_cells']} missed",
               Gate(cov["missed_cells"], 0, "=="), Gate(cov["interior_cells"], 0, ">"))

    with _numeric(report, "hypergroup.representation_check") as record:
        grid = TorusGrid.build(lam, 64)
        nodes = grid.z.ravel()
        point_mass = np.zeros(len(nodes))
        point_mass[int(np.argmin(np.abs(nodes - 1.0)))] = 1.0
        # Row 0: the invariant measure; row 1: the point mass nearest the cusp.
        repc = representation_check(probe(), nodes, np.stack([grid.weight.ravel(), point_mass]))
        mu_zero = max(abs(a[0]) + abs(b[0]) for a, b in repc["coefficients"].values())
        a10 = repc["coefficients"][(1, 0)][0][1]
        worst_row = float(np.max(repc["worst_row_norm_sq"]))
        # The 11/2-parameter weight is only C^2, so quadrature carries ~1e-8
        # absolute error into the moment coefficients.
        record(f"invariant measure gives vanishing coefficients (max {mu_zero:.2e}); "
               f"near-cusp point mass gives a(1,0) = {a10:.4f} ~ 1; all rows contract "
               f"(worst row norm^2 {worst_row:.6f})",
               Gate(worst_row, CONTRACTION_BOUND, "<="), Gate(mu_zero, 1e-6),
               Gate(abs(a10 - 1.0), 0.05))

    with _numeric(report, "discrepancy.markov_delta_closed_form", "discrepancy-noted") as record:
        ctx = probe()
        pick = next(index for index in sorted(ctx.pairs) if rotation_mixes_pair(*index))
        drep = delta_report(ctx, pick[0], pick[1], theta_mid, samples())
        record(f"index {drep['index']} at theta = ({theta_mid.t1:.3f}, {theta_mid.t2:.3f}): "
               f"Monte-Carlo delta = {drep['monte_carlo']:.4f} +- {drep['monte_carlo_se']:.4f}; "
               f"rotation-derived delta = alpha = {drep['rotation_derived']:.4f}; printed "
               f"cot-prefactor form = {drep['cot_closed_form']:.4f}. The printed form violates "
               "delta(0) = 1 and disagrees with the sampled kernel; resolution: delta = alpha "
               "for n - k not divisible by 3")


# Run in this order; a suite's name is its function's name without "_suite_".
SUITES = (_suite_algebra, _suite_symbolic, _suite_models_numeric, _suite_spectral,
          _suite_quadrature, _suite_sampling, _suite_hypergroup)


def run_verify(config: VerifyConfig) -> tuple[VerificationReport, int]:
    """Execute the full verification suite; returns (report, exit_code)."""
    report = VerificationReport(config=config.to_dict(), anchors=dict(IDENTITY_MANIFEST))
    reference = Fraction(7, 3)
    report.models = {
        "deltoid": deltoid_model(reference).to_jsonable(),
        "sixdim": sixdim_model(reference).to_jsonable(),
        "g2": g2_from_lambda(reference).to_jsonable(),
    }
    for suite in SUITES:
        start = time.perf_counter()
        suite(report, config)
        report.suite_seconds[suite.__name__.removeprefix("_suite_")] = time.perf_counter() - start
    # add() rejects unregistered and repeated names, so only a missing check is left.
    missing = sorted(set(report.anchors) - set(report.names()))
    if missing:
        raise RuntimeError(f"identity registry out of sync: missing {missing}")
    return report, report.exit_code()
