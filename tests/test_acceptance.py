"""Acceptance suite: one test per exit criterion, read from one default verify.

A session fixture runs ``run_verify(VerifyConfig())``, the product claim,
once.  Each criterion asserts from its records the status of the identities
it covers, its pinned tolerance against each gate (bound, comparison and
measured value), its pinned sizes against ``report.config`` and its
wall-clock bound against the suite's seconds.  Criterion 09 keeps one loop
of its own, for the bound verify does not check: each estimated kernel
block, orthonormalized, has a largest singular value within 1 + 4 sigma of 1.
The emitted report's sha256 is pinned, so any change to the report bytes
shows here.  Run ``pytest tests/test_acceptance.py -v -s`` for one PASS line per criterion.
"""

import hashlib
import math
import operator
from fractions import Fraction

import numpy as np
import pytest

from deltoid_lab.hypergroup import ProbeContext, estimate_markov_matrix, theta_grid
from deltoid_lab.report import emit_report
from deltoid_lab.sampling import sample_omega1
from deltoid_lab.verify import LAMBDA_EIGEN_SET, LAMBDA_INTERP, VerifyConfig, run_verify

COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, "==": operator.eq}
# sha256 of the report bytes that `deltoid-lab verify --out` writes at the default config.
DEFAULT_REPORT_SHA256 = "72f1f588dfa213b2805a7b7152eeceb96f3f829193bf246115ffd9c7baec869b"


@pytest.fixture(scope="session")
def default_run():
    """(report, exit code) of verify at the default config."""
    report, code = run_verify(VerifyConfig())
    for entry in report.entries:
        if entry.status.startswith("numeric-"):
            assert entry.gates, entry.name
            assert all(math.isfinite(g.measured) for g in entry.gates), entry.name
    return report, code


@pytest.fixture(scope="session")
def report(default_run):
    return default_run[0]


def entry(report, name):
    return next(e for e in report.entries if e.name == name)


def assert_status(report, status, *names):
    for name in names:
        assert entry(report, name).status == status, (name, entry(report, name).details)


def assert_gates(report, name, *pinned):
    """The identity passed; its gates are exactly the pinned (bound, comparison)s and hold."""
    assert_status(report, "numeric-pass", name)
    gates = entry(report, name).gates
    assert [(g.bound, g.comparison) for g in gates] == list(pinned), name
    for gate in gates:
        assert COMPARE[gate.comparison](gate.measured, gate.bound), (name, gate)


def test_criterion_01_lifted_determinant(report):
    """6x6 metric determinant factors exactly as (243/64) P1 P2, under 60 s."""
    assert_status(report, "proven-exact", "sixdim.metric_determinant")
    assert report.suite_seconds["symbolic"] < 60.0
    print("\nCRITERION 1 PASS: det(6x6 Gamma) == (243/64) P1 P2 exactly")


def test_criterion_02_boundary_identities(report):
    """All boundary-ideal cofactor identities, exact, under 10 s."""
    assert_status(report, "proven-exact", "deltoid.boundary_cofactors",
                  "sixdim.boundary_cofactors", "g2.boundary_cofactors")
    assert report.suite_seconds["symbolic"] < 10.0
    print(f"\nCRITERION 2 PASS: boundary cofactors exact ({report.suite_seconds['symbolic']:.2f}s)")


def test_criterion_03_divergence_identity(report):
    """Column divergence of the lifted cometric is -(11/2) per coordinate, exact."""
    assert_status(report, "proven-exact", "sixdim.divergence_sum")
    print("\nCRITERION 3 PASS: divergence sums equal -(11/2) w for all six coordinates")


def test_criterion_04_projection_chain(report):
    """sixdim -> deltoid -> G2, and the G2 drift, proven for all parameters."""
    assert LAMBDA_INTERP == (Fraction(2), Fraction(3))
    assert_status(report, "proven-by-interpolation", "sixdim.projection_to_deltoid",
                  "deltoid.projection_to_g2", "g2.measure_drift")
    print("\nCRITERION 4 PASS: projection chain exact at lambda in (2, 3)")


def test_criterion_05_selfmap_intertwining(report):
    """The (-1/2, a2) operator's image is exactly 3 x the (a2, -1/2) operator;
    the pushforward does not close at a1 = 0."""
    assert_status(report, "proven-exact", "g2.psi1_intertwining", "g2.psi1_not_closed")
    assert "at a2 in (0, 1/2, 3/2)" in entry(report, "g2.psi1_intertwining").details
    print("\nCRITERION 5 PASS: image == 3 x swapped-parameter operator; not closed at a1 = 0")


def test_criterion_06_eigenstructure(report):
    """Exact eigen relations, conjugation swap and rotation for n+k <= 8 at five parameters."""
    assert report.config["eigen_degree_max"] == 8
    assert LAMBDA_EIGEN_SET == tuple(map(Fraction, ("1", "5/2", "7/3", "4", "11/2")))
    assert_status(report, "proven-exact", "spectral.eigen_relation",
                  "spectral.conjugation_swap", "spectral.rotation_relation")
    assert report.suite_seconds["spectral"] < 300.0
    print(f"\nCRITERION 6 PASS: eigenstructure exact for n+k <= 8 "
          f"({report.suite_seconds['spectral']:.1f}s < 300s)")


def test_criterion_07_orthogonality(report):
    """Gram diagonality, norm equality, self-adjointness at the stated grids."""
    assert report.config["grid_n"] == 96 and report.config["gram_degree_max"] == 5
    assert report.config["selfadjoint_pairs"] == 20
    assert_gates(report, "quadrature.gram_orthogonality", (1e-8, "<"))
    assert_gates(report, "quadrature.norm_equality", (1e-8, "<"))
    assert_gates(report, "quadrature.selfadjointness", (1e-9, "<"))
    print("\nCRITERION 7 PASS: Gram and norms within 1e-8; self-adjointness within 1e-9")


def test_criterion_08_distributional_identities(report):
    """Million-sample moment checks and the pointwise Casimir reduction."""
    assert report.config["torus_samples"] == report.config["su3_samples"] == 1_000_000
    assert_gates(report, "sampling.torus_moments", (4.0, "<"))
    assert_gates(report, "sampling.su3_moments", (4.0, "<"))
    assert_gates(report, "su3.casimir_pointwise", (1e-8, "<"))
    assert "on 1000 Haar samples" in entry(report, "su3.casimir_pointwise").details
    print("\nCRITERION 8 PASS: 10^6-sample means within 4 se; Casimir residual < 1e-8")


def test_criterion_09_hypergroup_probe(report):
    """Exact vs estimated kernel blocks over a 5x5 grid, contraction, crosses."""
    config = report.config
    assert config["theta_per_axis"] == 5 and config["omega1_samples"] >= 100_000
    assert config["probe_degree_max"] == 4 and config["grid_n"] == 96
    assert_gates(report, "hypergroup.exact_vs_estimated", (4.0, "<"))
    assert_gates(report, "hypergroup.block_diagonality", (4.0, "<"))
    assert report.suite_seconds["hypergroup"] < 900.0

    # The singular-value bound, on verify's own probe inputs (batch seed offset 20).
    lam = Fraction(11, 2)
    ctx = ProbeContext.build(lam, config["probe_degree_max"], config["grid_n"])
    batch = sample_omega1(lam, config["omega1_samples"], config["seed"] + 20, method="rejection")
    thetas = theta_grid(config["theta_per_axis"])
    assert len(thetas) == 25
    worst_sigma_excess = -math.inf
    for theta in thetas:
        for n, k in ctx.pairs:
            est = estimate_markov_matrix(ctx, n, k, theta, batch)
            se = {key: value[1] for key, value in est.provenance.items()}
            if n == k:
                sigma_max, err = abs(est.alpha), 4.0 * se["alpha"]
            else:
                p_norm2, q_norm2 = ctx.norms2[(n, k)]
                scale = math.sqrt(q_norm2 / p_norm2)
                m_orth = np.array([[est.alpha, est.beta * scale], [est.gamma / scale, est.delta]])
                sigma_max = float(np.linalg.svd(m_orth, compute_uv=False)[0])
                err = 4.0 * math.sqrt(se["alpha"] ** 2 + (se["beta"] * scale) ** 2
                                      + (se["gamma"] / scale) ** 2 + se["delta"] ** 2)
            worst_sigma_excess = max(worst_sigma_excess, sigma_max - 1.0 - err)
    assert worst_sigma_excess <= 0.0
    print(f"\nCRITERION 9 PASS: blocks and crosses within 4 se over 25 thetas; singular "
          f"values within 1 + 4 se (worst excess {worst_sigma_excess:.2e})")


def test_criterion_10_maximum_at_cusp(report):
    """Grid max of |P| lands within one cell of the reference cusp Z = 1."""
    assert report.config["cusp_grid_n"] == 400
    assert_gates(report, "spectral.max_at_cusp", (0.0, "=="))
    print("\nCRITERION 10 PASS: max of |P| on the 400x400 grid within one cell of Z = 1")


def test_criterion_11_discrepancy_ledger(default_run):
    """The default verify exits 0 with exactly three discrepancy entries, each resolved."""
    report, code = default_run
    assert code == 0
    discrepancies = [e for e in report.entries if e.status == "discrepancy-noted"]
    assert [e.name for e in discrepancies] == [
        "discrepancy.flat_torus_cross_term_sign",
        "discrepancy.g2_boundary_cubic_printings",
        "discrepancy.markov_delta_closed_form",
    ]
    assert all("resolution" in e.details for e in discrepancies)
    print("\nCRITERION 11 PASS: exactly three discrepancy-noted entries, each resolved")


def test_default_report_bytes_are_pinned(report, tmp_path):
    """The default report is byte-identical to the pinned one."""
    out = tmp_path / "report.json"
    emit_report(report, str(out))
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == DEFAULT_REPORT_SHA256, (
        f"the default verify report changed (sha256 {digest}); change the pin only "
        "together with a line in CHANGES.md that gives the reason")
