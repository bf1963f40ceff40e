"""Probing the Markov transfer matrices of the rotated-coordinate kernels.

For each eigenspace index (n, k) the conditional kernel of the rotated
lifted process acts on the pair (P-hat, Q-hat) through a 2x2 matrix.  Two
entries have closed forms that are exact evaluations of the eigenpolynomials,

    alpha = P(Z(theta)) / P(1),      gamma = Q(Z(theta)) / P(1),

with beta = -gamma; the remaining entry delta has no usable closed form in
general and is estimated by Monte Carlo.  The estimation never bins
conditionals: commutation with the generator forces the kernel to be block
diagonal across eigenvalues, so the block entries are identified from plain
unconditional correlations

    E[u(pi(Phi_theta xi)) v(pi(xi))] = M[u, v] * ||v||^2 ,

normalized by quadrature norms.  Each entry is labelled "exact" (a closed
form, or a zero forced by Q-hat(n, n) = 0), "estimated" (a Monte-Carlo mean
and its standard error) or "unavailable" (NaN, no closed form), and the
labels are the whole comparison rule: MarkovMatrix.z_scores compares the
entries one block estimates and the other knows exactly.  The module also
hosts the parity and positivity scans and the moment-sequence
representation check for measures on the domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .models import ThetaPair, deltoid_boundary_values, z_of_theta, phi_theta
from .poly import CompiledPolys
from .quadrature import TorusGrid
from .sampling import MomentEstimate, SampleBatch, pushforward_deltoid
from .scalars import RationalLike
from .spectral import EigenPoly, eigen_PQ_lambda, eigenvalue_deltoid, pq_indices, pq_polys

# A block bound or squared row norm at most this counts as a contraction.
CONTRACTION_BOUND = 1.0 + 1e-9


@dataclass(frozen=True)
class MarkovMatrix:
    """2x2 kernel block on (P-hat, Q-hat) with per-entry provenance."""

    n: int
    k: int
    theta: ThetaPair
    alpha: float
    beta: float
    gamma: float
    delta: float
    provenance: dict  # entry -> ("exact", 0.0) | ("estimated", se) | ("unavailable", nan)

    def z_scores(self, exact: "MarkovMatrix") -> dict[str, float]:
        """|entry - exact entry| / standard error, per entry this block estimates
        and exact knows in closed form.  A zero standard error raises."""
        return {
            name: abs(getattr(self, name) - getattr(exact, name)) / se
            for name, (label, se) in self.provenance.items()
            if label == "estimated" and exact.provenance[name][0] == "exact"
        }


@dataclass(frozen=True)
class ProbeContext:
    """Shared exact/quadrature data for one deltoid parameter.

    pairs holds the (P-hat, Q-hat) eigenpolynomials per index; norms2 their
    squared quadrature norms; p_at_one the exact rational values P-hat(1).
    basis compiles every P-hat and Q-hat once, in the order of pairs (rows
    2i and 2i + 1 for the i-th index), and evaluates their real form.

    The values on a lifted sample batch are memoized, one entry for the
    projected batch and one for its rotation at the current theta.  Each
    entry holds the batch object itself and is reused only for that object.
    """

    lam: Fraction
    degree_max: int
    pairs: dict[tuple[int, int], tuple[EigenPoly, EigenPoly]]
    norms2: dict[tuple[int, int], tuple[float, float]]
    p_at_one: dict[tuple[int, int], Fraction]
    basis: CompiledPolys = field(repr=False, compare=False)
    _rows: dict[tuple[int, int], int] = field(init=False, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_rows", {index: 2 * i for i, index in enumerate(self.pairs)})

    @staticmethod
    def build(lam: RationalLike, degree_max: int, grid_n: int = 96) -> "ProbeContext":
        lam = Fraction(lam)
        grid = TorusGrid.build(lam, grid_n)
        pairs: dict[tuple[int, int], tuple[EigenPoly, EigenPoly]] = {}
        p_at_one: dict[tuple[int, int], Fraction] = {}
        for n, k in pq_indices(degree_max):
            p_hat, q_hat = eigen_PQ_lambda(lam, n, k)
            pairs[(n, k)] = (p_hat, q_hat)
            value = p_hat.poly.evaluate_exact({"Z": 1, "Zb": 1})
            if not value:
                raise ArithmeticError(
                    f"P-hat({n},{k}) vanishes at the cusp Z = 1; the ratio "
                    "normalization is undefined (this contradicts the eigenbasis structure)"
                )
            p_at_one[(n, k)] = value.rational_value()
        basis = CompiledPolys([e.poly for pair in pairs.values() for e in pair])
        squares = basis.real_values(grid.z) ** 2
        norms2 = {
            index: (float(grid.mean(squares[2 * i])), float(grid.mean(squares[2 * i + 1])))
            for i, index in enumerate(pairs)
        }
        return ProbeContext(lam, degree_max, pairs, norms2, p_at_one, basis)

    def split(self, values: np.ndarray, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The (P-hat, Q-hat) rows of index (n, k) from an array of basis values."""
        row = self._rows[(n, k)]
        return values[row], values[row + 1]

    def eval_pair(self, n: int, k: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.split(self.basis.real_values(z), n, k)

    def batch_values(self, batch: SampleBatch, theta: ThetaPair | None = None) -> np.ndarray:
        """Basis values at the projected batch, or at its rotation by theta."""
        key = "base" if theta is None else "rotated"
        entry = self._memo.get(key)
        if entry is not None and entry[0] is batch and entry[1] == theta:
            return entry[2]
        if theta is None:
            z = pushforward_deltoid(batch)
        else:
            z = phi_theta(batch.points, theta).mean(axis=1)
        values = self.basis.real_values(z)
        values.flags.writeable = False  # callers get row views of the memo
        self._memo[key] = (batch, theta, values)
        return values


def markov_pair_exact(
    ctx: ProbeContext, n: int, k: int, theta: ThetaPair
) -> tuple[float, float]:
    """(alpha, gamma) = (P(Z(theta)), Q(Z(theta))) / P(1), scale-independent."""
    z = z_of_theta(theta.t1, theta.t2)
    p_vals, q_vals = ctx.eval_pair(n, k, np.array([z]))
    denom = float(ctx.p_at_one[(n, k)])
    return float(p_vals[0]) / denom, float(q_vals[0]) / denom


def rotation_delta_exact(ctx: ProbeContext, n: int, k: int, theta: ThetaPair) -> float | None:
    """The rotation-derived delta of exact_markov_matrix, or None for n = k (mod 3)."""
    if (n - k) % 3 == 0:
        return None
    return exact_markov_matrix(ctx, n, k, theta).delta


def estimate_markov_matrix(
    ctx: ProbeContext,
    n: int,
    k: int,
    theta: ThetaPair,
    batch: SampleBatch,
) -> MarkovMatrix:
    """Estimate the full 2x2 block from unconditional correlations.

    With u, v ranging over the pair, E[u(pi(Phi_theta xi)) v(pi(xi))] equals
    M[u, v] ||v||^2; the norms come from quadrature.  Entries carry standard
    errors of the correlation means; Q-hat(n, n) = 0 makes the other three
    entries of an n = k block exact zeros.
    """
    if batch.kind != "omega1":
        raise ValueError("markov estimation needs lifted-domain samples")
    p_base, q_base = ctx.split(ctx.batch_values(batch), n, k)
    p_rot, q_rot = ctx.split(ctx.batch_values(batch, theta), n, k)
    p_norm2, q_norm2 = ctx.norms2[(n, k)]
    if p_norm2 <= 0 or (n != k and q_norm2 <= 0):
        raise ArithmeticError(f"degenerate quadrature norms for index ({n},{k})")
    terms = [("alpha", p_rot, p_base, p_norm2)]
    if n != k:
        terms += [("beta", p_rot, q_base, q_norm2), ("gamma", q_rot, p_base, p_norm2),
                  ("delta", q_rot, q_base, q_norm2)]
    entries = dict.fromkeys(("alpha", "beta", "gamma", "delta"), 0.0)
    provenance = dict.fromkeys(entries, ("exact", 0.0))
    for name, u_vals, v_vals, v_norm2 in terms:
        est = MomentEstimate.of(u_vals * v_vals)
        entries[name] = est.mean / v_norm2
        provenance[name] = ("estimated", est.standard_error / v_norm2)
    return MarkovMatrix(n, k, theta, **entries, provenance=provenance)


def exact_markov_matrix(ctx: ProbeContext, n: int, k: int, theta: ThetaPair) -> MarkovMatrix:
    """Exact (alpha, beta, gamma) and the rotation-derived delta when available.

    Evaluating the kernel at the cusp j and using the rotation of the pair
    forces delta(theta) = P(Z(theta))/P(1) = alpha whenever n - k is not
    divisible by 3.  For n = k (mod 3) the rotation carries no information
    and the delta entry is NaN: no exact value exists.
    """
    alpha, gamma = markov_pair_exact(ctx, n, k, theta)
    rotation = (n - k) % 3 != 0
    provenance = {
        "alpha": ("exact", 0.0),
        "beta": ("exact", 0.0),
        "gamma": ("exact", 0.0),
        "delta": ("exact", 0.0) if rotation else ("unavailable", math.nan),
    }
    return MarkovMatrix(
        n, k, theta, alpha, -gamma, gamma, alpha if rotation else math.nan, provenance,
    )


def delta_report(
    ctx: ProbeContext, n: int, k: int, theta: ThetaPair, batch: SampleBatch
) -> dict:
    """Monte-Carlo delta next to the rotation-derived value and, for comparison
    only, the printed form cot(2 pi (n - k)/3) * alpha, which violates
    delta(0) = 1.  Both candidates are None for n = k (mod 3)."""
    estimated = estimate_markov_matrix(ctx, n, k, theta, batch)
    exact = exact_markov_matrix(ctx, n, k, theta)
    rotation = cot = None
    if exact.provenance["delta"][0] == "exact":
        angle = 2.0 * math.pi * (n - k) / 3.0
        rotation, cot = exact.delta, (math.cos(angle) / math.sin(angle)) * exact.alpha
    return {
        "index": (n, k),
        "theta": (theta.t1, theta.t2),
        "monte_carlo": estimated.delta,
        "monte_carlo_se": estimated.provenance["delta"][1],
        "rotation_derived": rotation,
        "cot_closed_form": cot,
    }


def representation_check(ctx: ProbeContext, points: np.ndarray, weights: np.ndarray) -> dict:
    """Moment coefficients of a probability measure on the domain, and their row test.

    a = int P(z)/P(1) d nu and b = int Q(z)/P(1) d nu per index, expressed in
    the unit-norm basis (the antisymmetric integral picks up the norm ratio
    ||P|| / ||Q|| because the printed ratios are leading-coefficient
    normalized while the kernel block lives in the orthonormal basis).  For a
    symmetric Markov kernel the orthonormal-basis block row (a, b) must
    satisfy a^2 + b^2 <= 1; the check reports the worst row norm over all
    indices in the context.
    """
    z = np.asarray(points, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    weights = weights / weights.sum()
    means = ctx.basis.real_values(z) @ weights
    coeffs: dict[tuple[int, int], tuple[float, float]] = {}
    for n, k in ctx.pairs:
        p_mean, q_mean = ctx.split(means, n, k)
        denom = float(ctx.p_at_one[(n, k)])
        a = float(p_mean) / denom
        if n == k:
            b = 0.0
        else:
            p_norm2, q_norm2 = ctx.norms2[(n, k)]
            b = float(q_mean) / denom * math.sqrt(p_norm2 / q_norm2)
        coeffs[(n, k)] = (a, b)
    worst = max([0.0, *(a * a + b * b for a, b in coeffs.values())])
    return {
        "coefficients": coeffs,
        "worst_row_norm_sq": worst,
        "contraction_ok": worst <= CONTRACTION_BOUND,
    }


def theta_grid(per_axis: int) -> list[ThetaPair]:
    """Deterministic theta grid avoiding the degenerate lines by 1e-3."""
    two_pi = 2.0 * math.pi
    axis1 = [(i + 0.31) * two_pi / per_axis for i in range(per_axis)]
    axis2 = [(j + 0.618) * two_pi / per_axis for j in range(per_axis)]
    out = []
    for t1 in axis1:
        for t2 in axis2:
            pair = ThetaPair(t1, t2)
            if pair.is_interior(1e-3):
                out.append(pair)
    return out


def positivity_scan(ctx: ProbeContext, thetas: Sequence[ThetaPair]) -> dict:
    """Contraction bounds for the exact entries over a theta grid.

    The first column (alpha, gamma) of every block is exact.  In the
    orthonormal basis its norm is sqrt(alpha^2 + gamma^2 ||P||^2 / ||Q||^2),
    with gamma = 0 when n = k (Q-hat vanishes); it is a lower bound for the
    block's largest singular value and must itself be <= 1.  The basis is
    evaluated once, at Z(theta) for the whole grid.
    """
    z = z_of_theta([theta.t1 for theta in thetas], [theta.t2 for theta in thetas])
    values = ctx.basis.real_values(z)
    worst = alpha_bound = 0.0
    for (n, k) in ctx.pairs:
        denom = float(ctx.p_at_one[(n, k)])
        p_vals, q_vals = ctx.split(values, n, k)
        alpha, gamma = p_vals / denom, q_vals / denom
        p_norm2, q_norm2 = ctx.norms2[(n, k)]
        ratio2 = 0.0 if n == k else p_norm2 / q_norm2
        bound = np.sqrt(alpha * alpha + gamma * gamma * ratio2)
        alpha_bound = max(alpha_bound, float(np.max(np.abs(alpha), initial=0.0)))
        worst = max(worst, float(np.max(bound, initial=0.0)))
    return {"worst_block_bound": worst, "max_abs_alpha": alpha_bound}


def coverage_check(theta_per_axis: int, omega_per_axis: int) -> dict:
    """Surjectivity of theta -> Z(theta) onto the domain, cell by cell.

    Every cell of the omega grid over the cusps' box [-1/2, 1] x
    [-sqrt(3)/2, sqrt(3)/2] whose center lies strictly inside the domain
    must receive at least one image point of the theta grid, and there must
    be such a cell.
    """
    two_pi = 2.0 * math.pi
    ts = np.arange(theta_per_axis) * two_pi / theta_per_axis
    t1, t2 = np.meshgrid(ts, ts, indexing="ij")
    z = z_of_theta(t1, t2).ravel()
    x_lo, x_hi = -0.5, 1.0
    y_hi = math.sqrt(3.0) / 2.0
    xs = np.clip(((z.real - x_lo) / (x_hi - x_lo) * omega_per_axis).astype(int), 0, omega_per_axis - 1)
    ys = np.clip(((z.imag + y_hi) / (2.0 * y_hi) * omega_per_axis).astype(int), 0, omega_per_axis - 1)
    hit = np.zeros((omega_per_axis, omega_per_axis), dtype=bool)
    hit[xs, ys] = True
    centers_x = x_lo + (np.arange(omega_per_axis) + 0.5) * (x_hi - x_lo) / omega_per_axis
    centers_y = -y_hi + (np.arange(omega_per_axis) + 0.5) * (2.0 * y_hi) / omega_per_axis
    cx, cy = np.meshgrid(centers_x, centers_y, indexing="ij")
    interior = np.asarray(deltoid_boundary_values(cx + 1j * cy)) > 0.0
    cells = int(interior.sum())
    missed = int(np.count_nonzero(interior & ~hit))
    return {"interior_cells": cells, "missed_cells": missed}


def block_cross_correlations(
    ctx: ProbeContext,
    theta: ThetaPair,
    batch: SampleBatch,
) -> list[dict]:
    """Empirical correlations between distinct-eigenvalue eigenfunctions.

    Commutation forces these to vanish; each entry reports the correlation
    normalized to unit-norm functions together with its standard error.
    """
    base = ctx.batch_values(batch)
    rotated = ctx.batch_values(batch, theta)
    # (label, eigenvalue, rotated values, base values) per unit-norm function,
    # sorted by index so that the earlier index of a pair is the rotated one.
    functions = []
    for flavor, n, k, _ in sorted(pq_polys(ctx.lam, ctx.degree_max), key=lambda e: e[1:3]):
        row = "PQ".index(flavor)
        scale = math.sqrt(ctx.norms2[(n, k)][row])
        functions.append(((flavor, n, k), eigenvalue_deltoid(ctx.lam, n, k),
                          ctx.split(rotated, n, k)[row] / scale,
                          ctx.split(base, n, k)[row] / scale))
    out = []
    for i, (label1, mu1, rot1, _) in enumerate(functions):
        for label2, mu2, _, base2 in functions[i + 1:]:
            if mu1 != mu2:
                est = MomentEstimate.of(rot1 * base2)
                out.append({"pair": (label1, label2), "correlation": est.mean,
                            "standard_error": est.standard_error})
    return out
