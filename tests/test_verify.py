"""Unit checks of single verify suites, run apart from the full suite."""

import ast
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from deltoid_lab import verify
from deltoid_lab.diffusion import drift_from_measure
from deltoid_lab.models import (
    DELTOID_VARS,
    deltoid_boundary_poly,
    deltoid_boundary_values,
    deltoid_model,
)
from deltoid_lab.poly import MPoly
from deltoid_lab.report import VerificationReport
from deltoid_lab.spectral import eigen_PQ_lambda, pq_indices


def _report() -> VerificationReport:
    return VerificationReport(config={}, anchors=dict(verify.IDENTITY_MANIFEST))


def test_error_inside_exact_block_is_recorded_and_the_run_goes_on(monkeypatch):
    def broken(matrix):
        raise RuntimeError("cofactor expansion broke")

    monkeypatch.setattr(verify, "det_cofactor", broken)
    report = _report()
    verify._suite_algebra(report, verify.VerifyConfig())
    entries = {e.name: e for e in report.entries}
    failed = entries["algebra.determinant_cross_check"]
    assert failed.status == "exact-fail"
    assert failed.details == "RuntimeError: cofactor expansion broke"
    # The identity after the broken one still runs.
    assert entries["algebra.exact_division_roundtrip"].status == "proven-exact"
    assert len(report.entries) == 5 and report.exit_code() == 2


def test_g2_eigen_match_fails_against_a_shifted_g2_model(monkeypatch):
    # Negative control: the G2 model built at lambda + 1/2 has other eigenpolynomials.
    real_g2_from_lambda = verify.g2_from_lambda
    monkeypatch.setattr(verify, "g2_from_lambda",
                        lambda lam: real_g2_from_lambda(lam + Fraction(1, 2)))
    report = _report()
    verify._suite_spectral(report, verify.VerifyConfig(eigen_degree_max=1, cusp_grid_n=5))
    (entry,) = [e for e in report.entries if e.name == "spectral.g2_eigen_match"]
    assert entry.status == "exact-fail"
    assert re.fullmatch(r"\(n,k\)=\(\d+,\d+\)", entry.details)


def test_selfadjointness_reports_the_pairs_it_ran():
    # Three pairs asked for run as one pair per parameter, two in all.
    config = verify.VerifyConfig(grid_n=16, gram_degree_max=1, selfadjoint_pairs=3)
    report = _report()
    verify._suite_quadrature(report, config)
    (entry,) = [e for e in report.entries if e.name == "quadrature.selfadjointness"]
    assert entry.details.endswith(" over 2 random real pairs")


def test_error_in_a_shared_numeric_computation_fails_only_its_readers(monkeypatch):
    def broken(polys, grid):
        raise RuntimeError("gram broke")

    monkeypatch.setattr(verify, "gram", broken)
    config = verify.VerifyConfig(grid_n=16, gram_degree_max=1)
    report = _report()
    verify._suite_quadrature(report, config)
    entries = {e.name: e for e in report.entries}
    assert len(entries) == 6
    for name in ("quadrature.gram_orthogonality", "quadrature.norm_equality"):
        assert (entries[name].status, entries[name].details) == ("numeric-fail",
                                                                 "RuntimeError: gram broke")
    for name in ("quadrature.jacobian_discriminant", "quadrature.selfadjointness",
                 "quadrature.measure_invariance", "quadrature.eigenvalue_recovery"):
        assert entries[name].status == "numeric-pass" and entries[name].gates


def test_pass_fail_statuses_are_written_only_in_numeric():
    tree = ast.parse(Path(verify.__file__).read_text())
    (numeric,) = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_numeric"]
    inside = {id(node) for node in ast.walk(numeric)}
    literals = [node for node in ast.walk(tree) if isinstance(node, ast.Constant)
                and node.value in ("numeric-pass", "numeric-fail")]
    assert literals and all(id(node) in inside for node in literals)


def _measure_drift_holds(lam: Fraction, exponent_lam: Fraction) -> bool:
    """deltoid_model(lam)'s drift is the one P**((2 exponent_lam - 5)/6) induces."""
    model = deltoid_model(lam)
    alpha = (2 * exponent_lam - 5) / 6
    return drift_from_measure(DELTOID_VARS, model.gamma,
                              [(deltoid_boundary_poly(), alpha)]) == dict(model.drift)


def _for_all_lambda_entry(check, *lambdas):
    report = _report()
    verify._for_all_lambda(report, "deltoid.measure_drift", "holds", check, *lambdas)
    (entry,) = report.entries
    return entry.status, entry.details


def test_for_all_lambda_pass_and_witness():
    assert _for_all_lambda_entry(lambda lam: _measure_drift_holds(lam, lam)) == (
        "proven-by-interpolation", "holds")
    # Negative control: the exponent relation is corrupted at lambda = 3 only,
    # and the witness names that value alone.
    assert _for_all_lambda_entry(lambda lam: _measure_drift_holds(lam, lam + (lam == 3))) == (
        "exact-fail", "witnesses (Fraction(3, 1),)")


def test_for_all_lambda_validates_inputs():
    checked = []
    for lambdas in ((Fraction(2),), (Fraction(2), Fraction(2))):
        status, details = _for_all_lambda_entry(checked.append, lambdas)
        assert status == "exact-fail"
        assert details.startswith("ValueError: need two or more distinct parameter values")
    assert not checked


def _per_polynomial_cusp_scan(poly, ngrid):
    """The cusp scan as verify ran it before cusp_scan: one MPoly.evaluate on
    the whole grid per polynomial, -inf outside the closure."""
    cell = 2.3 / (ngrid - 1)
    xs = 1.0 - cell * np.arange(ngrid - 1, -1, -1)
    ys = cell * (np.arange(ngrid) - (ngrid // 2))
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    zgrid = gx + 1j * gy
    closure = np.asarray(deltoid_boundary_values(zgrid)) >= 0.0
    vals = np.abs(poly.evaluate({"Z": zgrid, "Zb": np.conj(zgrid)}))
    vals = np.where(closure, vals, -np.inf)
    near = (np.abs(zgrid - 1.0) <= cell * 1.5) & closure
    zstar = zgrid.ravel()[int(np.argmax(vals))]
    return float(vals.max()), float(vals[near].max()), abs(zstar - 1.0)


@pytest.mark.parametrize("lam", [Fraction(4), Fraction(11, 2)], ids=["4", "11/2"])
def test_cusp_scan_matches_the_per_polynomial_scan(lam):
    polys = [eigen_PQ_lambda(lam, n, k)[0].poly for n, k in pq_indices(5, include_constant=True)]
    scans = verify.cusp_scan(polys, 400)
    assert len(scans) == len(polys)
    for poly, scan in zip(polys, scans):
        grid_max, near_max, _ = _per_polynomial_cusp_scan(poly, 400)
        assert scan[:2] == (grid_max, near_max)
        assert near_max >= grid_max * (1.0 - 1e-12)  # no stray maximum


def test_cusp_scan_sees_a_maximum_at_the_far_cusps():
    # |Z - 1|^2 vanishes at Z = 1 and peaks at the far cusps exp(+-2 pi i / 3),
    # at distance sqrt(3).  Neither is a lattice point and the domain thins
    # to a cusp there, so the grid argmax lies a few cells short of sqrt(3).
    z = MPoly.var(DELTOID_VARS, "Z")
    zb = MPoly.var(DELTOID_VARS, "Zb")
    one = MPoly.const(DELTOID_VARS, 1)
    ((grid_max, near_max, dist),) = verify.cusp_scan([(z - one) * (zb - one)], 400)
    assert (grid_max, near_max, dist) == _per_polynomial_cusp_scan((z - one) * (zb - one), 400)
    assert near_max < grid_max * (1.0 - 1e-12)
    assert math.sqrt(3.0) - 4 * (2.3 / 399) < dist < math.sqrt(3.0)
