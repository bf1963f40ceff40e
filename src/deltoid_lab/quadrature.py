"""Quadrature against the deltoid measures via torus pullback.

The 6-to-1 orbit map Z(t) = (e^{i t1} + e^{i t2} + e^{-i(t1+t2)})/3 carries
the uniform torus onto the closed deltoid domain.  Integrals against the
measure with density proportional to P**alpha (alpha = (2*lambda - 5)/6)
pull back to torus integrals with weight P(Z(t))**alpha * |J(t)|, and the
squared Jacobian is proportional to P(Z(t)) -- an identity this module
audits numerically before anything relies on it.  After pullback the weight
is smooth for every lambda >= 1 (and is a trigonometric polynomial at the
reference points lambda = 1 and lambda = 4, where the periodic trapezoid
rule is exact to rounding).

Grid nodes are offset by a quarter step in t1 so that no node lands on the
critical lines t1 = t2, 2 t1 = -t2, t1 = -2 t2 where the Jacobian vanishes.
The covering multiplicity cancels in every normalized ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .diffusion import DiffusionModel, gamma_apply, l_apply
from .models import (
    LAMBDA_RANGES,
    deltoid_boundary_values,
    deltoid_density_exponent,
    theta_phases,
    z_of_theta,
)
from .poly import CompiledPolys, MPoly
from .scalars import RationalLike


def torus_jacobian(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Signed area Jacobian of t -> Z(t) in real coordinates."""
    e1, e2, e3 = theta_phases(t1, t2)
    dz1, dz2 = 1j * (e1 - e3) / 3.0, 1j * (e2 - e3) / 3.0
    return (np.conj(dz1) * dz2).imag


@dataclass(frozen=True)
class TorusGrid:
    """Uniform (quarter-offset) torus grid with pullback weights for one lambda."""

    lam: Fraction
    n: int
    t1: np.ndarray
    t2: np.ndarray
    z: np.ndarray
    weight: np.ndarray
    MIN_N = 16  # the smallest grid, in points per axis, that build accepts

    @staticmethod
    def build(lam: RationalLike, n: int) -> "TorusGrid":
        lam = Fraction(lam)
        LAMBDA_RANGES["quadrature"].require(
            lam, hint=". Use the sampling module for exploratory smaller parameters.")
        if n < TorusGrid.MIN_N:
            raise ValueError(f"grid must have at least {TorusGrid.MIN_N} points per axis")
        h = 2.0 * np.pi / n
        axis1 = (np.arange(n) + 0.25) * h
        axis2 = np.arange(n) * h
        t1, t2 = np.meshgrid(axis1, axis2, indexing="ij")
        z = z_of_theta(t1, t2)
        # The raw weight is P**alpha * |J| with alpha the deltoid density
        # exponent.  Since |J|**2 = P/3 (audited by jacobian_weight_audit), it
        # equals P**(alpha + 1/2) up to a constant that cancels in normalized
        # ratios; the folded form never divides by a near-zero P and is
        # exactly constant at lambda = 1 and exactly P at lambda = 4.
        exponent = float(deltoid_density_exponent(lam) + Fraction(1, 2))
        pvals = np.maximum(np.asarray(deltoid_boundary_values(z)), 0.0)
        weight = pvals**exponent
        if not np.all(np.isfinite(weight)):
            raise ValueError("non-finite quadrature weight; grid hit the critical set")
        return TorusGrid(lam, n, t1, t2, z, weight)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, f: MPoly) -> np.ndarray:
        return f.evaluate({"Z": self.z, "Zb": np.conj(self.z)})

    def mean(self, values: np.ndarray) -> float | complex:
        """Weighted mean = integral against the normalized measure."""
        flat = np.ravel(values * self.weight)
        total = np.sum(flat)
        norm = np.sum(np.ravel(self.weight))
        result = total / norm
        if np.iscomplexobj(values) and abs(np.imag(result)) > 0:
            return complex(result)
        return float(np.real(result))


def gram(polys: Sequence[MPoly], grid: TorusGrid) -> np.ndarray:
    """Pairwise inner-product matrix of the polynomials (conjugate-bilinear),
    compiled once and evaluated on the grid together."""
    values = CompiledPolys(polys).values({"Z": grid.z.ravel(), "Zb": np.conj(grid.z).ravel()})
    w = np.ravel(grid.weight)
    norm = np.sum(w)
    return (values * w) @ values.conj().T / norm


def selfadjoint_check(
    model: DiffusionModel, f: MPoly, g: MPoly, grid: TorusGrid
) -> float:
    """Residual |int f L(g) dmu + int Gamma(f, g) dmu|; zero for the reversible measure."""
    lg = l_apply(model, g)
    gfg = gamma_apply(model, f, g)
    lhs = grid.mean(grid.evaluate(f) * grid.evaluate(lg))
    rhs = grid.mean(grid.evaluate(gfg))
    return abs(lhs + rhs)


def measure_invariance_residual(model: DiffusionModel, f: MPoly, grid: TorusGrid) -> float:
    """|int L(f) dmu|; vanishes when mu is the reversible measure."""
    return abs(grid.mean(grid.evaluate(l_apply(model, f))))


def eigenvalue_recovery(model: DiffusionModel, poly: MPoly, grid: TorusGrid) -> float:
    """Rayleigh quotient int f L(f) / int f^2; returns the recovered eigenvalue."""
    values = grid.evaluate(poly)
    lvalues = grid.evaluate(l_apply(model, poly))
    num = grid.mean(np.real(values * np.conj(lvalues)))
    den = grid.mean(np.abs(values) ** 2)
    return float(num / den)


def jacobian_weight_audit(n: int = 64) -> dict:
    """Audit the proportionality |J(t)|^2 = kappa * P(Z(t)) on grid nodes.

    Also reports the spread of the lambda = 1 weight P**(-1/2) |J|, which the
    proportionality forces to be constant.  Deviations are relative to the
    median over nodes with P > 1e-6.
    """
    grid = TorusGrid.build(1, n)
    pvals = np.asarray(deltoid_boundary_values(grid.z))
    jac2 = torus_jacobian(grid.t1, grid.t2) ** 2
    mask = pvals > 1e-6
    ratio = jac2[mask] / pvals[mask]
    kappa = float(np.median(ratio))
    max_dev = float(np.max(np.abs(ratio / kappa - 1.0)))
    w1 = pvals[mask] ** (-0.5) * np.sqrt(jac2[mask])
    w1_med = float(np.median(w1))
    w1_dev = float(np.max(np.abs(w1 / w1_med - 1.0)))
    return {
        "kappa": kappa,
        "max_relative_deviation": max_dev,
        "lambda1_weight_median": w1_med,
        "lambda1_weight_deviation": w1_dev,
        "nodes_checked": int(mask.sum()),
    }
