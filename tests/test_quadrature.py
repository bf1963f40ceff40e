import math
import re
from fractions import Fraction

import numpy as np
import pytest

from deltoid_lab.diffusion import drift_from_measure
from deltoid_lab.models import (
    DELTOID_VARS,
    LAMBDA_RANGES,
    deltoid_boundary_poly,
    deltoid_boundary_values,
    deltoid_density_exponent,
    deltoid_model,
    z_of_theta,
)
from deltoid_lab.poly import MPoly
from deltoid_lab.quadrature import (
    TorusGrid,
    eigenvalue_recovery,
    gram,
    jacobian_weight_audit,
    measure_invariance_residual,
    selfadjoint_check,
    torus_jacobian,
)
from deltoid_lab.spectral import eigen_PQ_lambda, eigenvalue_deltoid, pq_indices

Z = MPoly.var(DELTOID_VARS, "Z")
Zb = MPoly.var(DELTOID_VARS, "Zb")


def test_normalization():
    grid = TorusGrid.build(4, 32)
    assert grid.mean(grid.evaluate(MPoly.const(DELTOID_VARS, 1))) == pytest.approx(1.0)


def test_lambda_below_one_refused():
    needed = LAMBDA_RANGES["quadrature"]
    with pytest.raises(ValueError, match=re.escape(f"{needed.user} needs lambda {needed}")):
        TorusGrid.build(Fraction(1, 2), 32)


def test_small_grid_refused():
    with pytest.raises(ValueError):
        TorusGrid.build(1, 8)


def test_grid_avoids_critical_lines():
    grid = TorusGrid.build(1, 48)
    jac = torus_jacobian(grid.t1, grid.t2)
    assert np.min(np.abs(jac)) > 1e-6


def test_mean_zero_eigenfunction():
    p_hat, _ = eigen_PQ_lambda(Fraction(4), 1, 0)
    grid = TorusGrid.build(4, 64)
    assert abs(grid.mean(grid.evaluate(p_hat.poly))) < 1e-10


def test_cross_oracle_with_monte_carlo():
    # |Z|^2 at the flat parameter: quadrature vs uniform torus sampling.
    from deltoid_lab.sampling import pushforward_deltoid, sample_torus

    grid = TorusGrid.build(1, 64)
    quad = grid.mean(grid.evaluate(Z * Zb))
    zs = pushforward_deltoid(sample_torus(400_000, 99))
    vals = np.abs(zs) ** 2
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(quad - vals.mean()) < 4 * se


def test_jacobian_audit():
    audit = jacobian_weight_audit(64)
    assert audit["max_relative_deviation"] < 1e-9
    assert audit["lambda1_weight_deviation"] < 1e-9
    assert audit["kappa"] == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_critical_line_maps_to_boundary():
    # On t1 = t2 the Jacobian and the boundary polynomial vanish together.
    t = np.linspace(0.0, 2.0 * math.pi, 721)
    assert np.max(np.abs(torus_jacobian(t, t))) < 1e-15
    assert np.max(np.abs(deltoid_boundary_values(z_of_theta(t, t)))) < 1e-15


@pytest.mark.parametrize("lam", [Fraction(1), Fraction(4), Fraction(11, 2)])
def test_grid_weight_is_the_certified_density_folded_with_the_jacobian(lam):
    # alpha is the exponent deltoid.measure_drift proves; the weight is
    # P**alpha * |J| folded through |J|**2 = P/3 into P**(alpha + 1/2).
    alpha = deltoid_density_exponent(lam)
    model = deltoid_model(lam)
    assert drift_from_measure(DELTOID_VARS, model.gamma,
                              [(deltoid_boundary_poly(), alpha)]) == dict(model.drift)
    grid = TorusGrid.build(lam, 32)
    expected = np.maximum(deltoid_boundary_values(grid.z), 0.0) ** float(alpha + Fraction(1, 2))
    assert np.array_equal(grid.weight, expected)


@pytest.mark.parametrize("lam", [Fraction(1), Fraction(4)])
def test_gram_diagonal(lam):
    grid = TorusGrid.build(lam, 96)
    polys = []
    labels = []
    for n, k in pq_indices(4):
        p_hat, q_hat = eigen_PQ_lambda(lam, n, k)
        polys.append(p_hat.poly)
        labels.append(("P", n, k))
        if n != k:
            polys.append(q_hat.poly)
            labels.append(("Q", n, k))
    matrix = gram(polys, grid)
    off = matrix - np.diag(np.diag(matrix))
    assert np.max(np.abs(off)) < 1e-8
    for i, (flavor, n, k) in enumerate(labels):
        if flavor == "P" and (n - k) % 3 != 0:
            j = labels.index(("Q", n, k))
            assert abs(math.sqrt(matrix[i, i].real) - math.sqrt(matrix[j, j].real)) < 1e-8


def test_gram_trivial():
    grid = TorusGrid.build(1, 32)
    matrix = gram([MPoly.const(DELTOID_VARS, 1)], grid)
    assert matrix.shape == (1, 1)
    assert matrix[0, 0].real == pytest.approx(1.0)


def test_grid_refinement_stability():
    lam = Fraction(4)
    polys = [eigen_PQ_lambda(lam, n, k)[0].poly for n, k in pq_indices(4)]
    g1 = gram(polys, TorusGrid.build(lam, 96))
    g2 = gram(polys, TorusGrid.build(lam, 192))
    assert np.max(np.abs(g1 - g2)) < 1e-10


def test_selfadjointness():
    lam = Fraction(4)
    grid = TorusGrid.build(lam, 96)
    model = deltoid_model(lam)
    f = Z + Zb
    assert selfadjoint_check(model, f, f, grid) < 1e-9
    g = Z * Z * Zb - Zb * 2 + 1
    assert selfadjoint_check(model, f, g, grid) < 1e-9


def test_selfadjointness_negative_control():
    # Wrong drift on one side must produce a visible residual.  The test
    # pair must not be killed by the three-fold rotation symmetry: with
    # f = g = Z + Zb the residual is -int (Z + Zb)^2, strictly negative.
    lam = Fraction(4)
    grid = TorusGrid.build(lam, 96)
    wrong = deltoid_model(lam + 1)
    assert selfadjoint_check(wrong, Z + Zb, Z + Zb, grid) > 1e-3


def test_constant_pair_identity():
    # Gamma(1, g) = 0 and int L(g) = 0 are the same statement.
    lam = Fraction(4)
    grid = TorusGrid.build(lam, 64)
    model = deltoid_model(lam)
    g = Z * Z - Zb
    one = MPoly.const(DELTOID_VARS, 1)
    assert selfadjoint_check(model, one, g, grid) == measure_invariance_residual(model, g, grid)


def test_measure_invariance():
    lam = Fraction(1)
    grid = TorusGrid.build(lam, 96)
    model = deltoid_model(lam)
    assert measure_invariance_residual(model, Z * Z * Zb + Z, grid) < 1e-9


def test_eigenvalue_recovery():
    lam = Fraction(4)
    grid = TorusGrid.build(lam, 96)
    model = deltoid_model(lam)
    p_hat, _ = eigen_PQ_lambda(lam, 2, 1)
    rec = eigenvalue_recovery(model, p_hat.poly, grid)
    assert abs(rec + float(eigenvalue_deltoid(lam, 2, 1))) < 1e-7


def _mean_exact_sum(grid: TorusGrid, values: np.ndarray) -> float:
    """Oracle summation: every float summand added as an exact rational."""
    flat = np.ravel(np.real(values * grid.weight))
    total = sum(Fraction(float(v)) for v in flat)
    norm = sum(Fraction(float(w)) for w in np.ravel(grid.weight))
    return float(total / norm)


def test_exact_sum_oracle():
    # Validates the pairwise reduction order of TorusGrid.mean on a small grid.
    grid = TorusGrid.build(Fraction(4), 32)
    values = grid.evaluate(Z * Zb + Z + Zb)
    assert abs(grid.mean(np.real(values)) - _mean_exact_sum(grid, values)) < 1e-13
