"""Probing the Markov transfer matrices of the rotated-coordinate kernels.

For each eigenspace index (n, k) the kernel K_theta of the rotated lifted
process acts on the pair (P-hat, Q-hat) through a 2x2 block.  Among Markov
operators commuting with the generator, K_theta is the point mass at
Z(theta), so the block's first column is the pair evaluated there,

    alpha = P(Z(theta)) / P(1),      gamma = Q(Z(theta)) / P(1),

with beta = -gamma, and delta = alpha where the rotation Z -> jZ mixes the
pair (spectral.rotation_mixes_pair); elsewhere delta has no closed form here.
ProbeContext.first_columns is the one map from basis values to that column
in the orthonormal basis: representation_check applies it to the moments of
a stack of measures, and positivity_scan is that check at the point masses.
The Monte-Carlo estimate never bins conditionals: commutation makes the
kernel block diagonal across eigenvalues, so the entries come from plain
unconditional correlations normalized by quadrature norms,

    E[u(pi(Phi_theta xi)) v(pi(xi))] = M[u, v] * ||v||^2 .

ProbeContext.correlations makes all of them at one theta in one pass over
blocks of EVAL_CHUNK points, each block's moments matrix products, combined
by poly.streamed_mean_se.  The errors are those of independent samples, so
the probe takes a rejection-sampled batch and refuses a correlated (MCMC) one.

Each entry is labelled "exact" (a closed form, or a zero forced by
Q-hat(n, n) = 0, which the basis, spectral.pq_polys, leaves out),
"estimated" (a Monte-Carlo mean and its standard error) or "unavailable"
(NaN, no closed form); MarkovMatrix.z_scores compares the entries one block
estimates and the other knows exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .models import ThetaPair, deltoid_boundary_values, z_of_theta, phi_theta
from .poly import EVAL_CHUNK, CompiledPolys, streamed_mean_se
from .quadrature import TorusGrid
from .sampling import SampleBatch, pushforward_deltoid
from .scalars import RationalLike
from .spectral import EigenPoly, eigen_PQ_lambda, pq_indices, pq_polys, rotation_mixes_pair

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
    basis compiles spectral.pq_polys once (no row for the zero Q-hat(n, n)) and
    rows maps each index to its P-hat row, its Q-hat next; first_columns maps
    basis values to every block's orthonormal first column.

    The basis values at a lifted sample batch and its correlations at one
    theta (block moments from matrix products) are memoized; each entry
    holds the batch object and theta, and is reused only for those.
    """

    lam: Fraction
    degree_max: int
    pairs: dict[tuple[int, int], tuple[EigenPoly, EigenPoly]]
    norms2: dict[tuple[int, int], tuple[float, float]]
    p_at_one: dict[tuple[int, int], Fraction]
    basis: CompiledPolys = field(repr=False, compare=False)
    rows: dict[tuple[int, int], int] = field(repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        polys = pq_polys(lam, degree_max)
        basis = CompiledPolys([poly for _, _, _, poly in polys])
        rows = {(n, k): row for row, (flavor, n, k, _) in enumerate(polys) if flavor == "P"}
        squares = basis.real_values(grid.z) ** 2
        norms2 = {(n, k): (float(grid.mean(squares[row])),
                           float(grid.mean(squares[row + 1])) if n != k else 0.0)
                  for (n, k), row in rows.items()}
        return ProbeContext(lam, degree_max, pairs, norms2, p_at_one, basis, rows)

    def split(self, values: np.ndarray, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The (P-hat, Q-hat) rows of index (n, k) in basis values; Q-hat(n, n) reads 0."""
        row = self.rows[(n, k)]
        return values[row], values[row + 1] if n != k else np.zeros_like(values[row])

    def first_columns(self, values: np.ndarray) -> dict:
        """The first column (a, b) of every block in the orthonormal basis.

        values holds the basis rows at points, or integrated against measures
        (any trailing shape).  a = P-hat / P-hat(1) and b = Q-hat / P-hat(1)
        times ||P-hat|| / ||Q-hat||: the printed ratios are leading-coefficient
        normalized, the kernel block lives in the unit-norm basis.
        """
        columns = {}
        for (n, k), (p_norm2, q_norm2) in self.norms2.items():
            p_one = float(self.p_at_one[(n, k)])
            factor = 0.0 if n == k else math.sqrt(p_norm2 / q_norm2)  # Q-hat(n, n) = 0
            p_vals, q_vals = self.split(values, n, k)
            columns[(n, k)] = (p_vals / p_one, q_vals / p_one * factor)
        return columns

    def eval_pair(self, n: int, k: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.split(self.basis.real_values(z), n, k)

    def batch_values(self, batch: SampleBatch) -> np.ndarray:
        """Basis values at the projected batch."""
        entry = self._memo.get("base")
        if entry is None or entry[0] is not batch:
            values = self.basis.real_values(pushforward_deltoid(batch))
            values.flags.writeable = False  # callers get row views of the memo
            entry = self._memo["base"] = (batch, values)
        return entry[1]

    def correlations(self, batch: SampleBatch, theta: ThetaPair) -> tuple[np.ndarray, np.ndarray]:
        """Mean and standard error of u(pi(Phi_theta xi)) v(pi(xi)), each of shape
        (len(pairs), 2, 2): [i, a, b] takes row a (P-hat, Q-hat) of the i-th
        index at the rotated points and row b at the points.  Per block and index,
        (2, block) @ (block, 2) products of the rows and of their squares give
        the sums; an n = k index takes only its P-hat rows (Q-hat(n, n) = 0)."""
        entry = self._memo.get("correlations")
        if entry is None or entry[0] is not batch or entry[1] != theta:
            count = len(self.pairs)
            spans = [(self.rows[(n, k)], 1 if n == k else 2) for n, k in self.pairs]
            squares = np.empty((2, EVAL_CHUNK))  # base squares, one block at a time

            def sums(rotated, base):
                s1, s2 = np.zeros((2, count, 2, 2))
                for i, (r, w) in enumerate(spans):
                    u, v = rotated[r:r + w], base[r:r + w]
                    s1[i, :w, :w] = u @ v.T
                    v2 = np.square(v, out=squares[:w, :v.shape[1]])
                    s2[i, :w, :w] = np.square(u, out=u) @ v2.T
                return s1, s2

            mean, se = self._mean_se(batch, theta, sums)
            entry = self._memo["correlations"] = (
                batch, theta, (mean.reshape(count, 2, 2), se.reshape(count, 2, 2)))
        return entry[2]

    def _mean_se(self, batch: SampleBatch, theta: ThetaPair, sums) -> tuple:
        """Mean and standard error per entry of products of basis values at the
        rotated points and at the points: streamed_mean_se over blocks of
        EVAL_CHUNK points, each summed by sums(rotated, base) with every basis
        row at the rotated points and at the points.  The errors assume
        independent points, so batch must be lifted-domain samples drawn by
        rejection; another batch raises ValueError."""
        if batch.kind != "omega1":
            raise ValueError("the kernel probe needs lifted-domain samples")
        if batch.correlated:
            raise ValueError("the kernel probe needs independent samples; draw the "
                             "lifted-domain batch by rejection sampling, not MCMC")
        base = self.batch_values(batch)
        # One matrix-vector product rotates, to the bit as phi_theta(...).mean(axis=1).
        phases = phi_theta(np.ones(3), theta)
        moments = []  # (size, mean, M2 = sum of squares - size * mean^2) per block
        for start in range(0, len(batch), EVAL_CHUNK):
            block = slice(start, start + EVAL_CHUNK)
            (rotated,) = self.basis._real_blocks(batch.points[block] @ phases / 3.0)
            s1, s2 = sums(rotated, base[:, block])
            size = rotated.shape[1]
            mean = s1 / size
            # M2 of one value is 0, where S2 - mean^2 may round to either sign.
            moments.append((size, mean, s2 - size * (mean * mean) if size > 1 else 0.0 * s2))
        return streamed_mean_se(moments)


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
    return exact_markov_matrix(ctx, n, k, theta).delta if rotation_mixes_pair(n, k) else None


def estimate_markov_matrix(
    ctx: ProbeContext, n: int, k: int, theta: ThetaPair, batch: SampleBatch
) -> MarkovMatrix:
    """Estimate the full 2x2 block from unconditional correlations.

    With u, v ranging over the pair, E[u(pi(Phi_theta xi)) v(pi(xi))] equals
    M[u, v] ||v||^2; the norms come from quadrature.  Entries carry standard
    errors of the correlation means, read from ProbeContext.correlations,
    which takes only a rejection-sampled lifted-domain batch; Q-hat(n, n) = 0
    makes the other three entries of an n = k block exact zeros.
    """
    p_norm2, q_norm2 = ctx.norms2[(n, k)]
    if p_norm2 <= 0 or (n != k and q_norm2 <= 0):
        raise ArithmeticError(f"degenerate quadrature norms for index ({n},{k})")
    i = list(ctx.pairs).index((n, k))
    means, errors = (values[i] for values in ctx.correlations(batch, theta))
    terms = [("alpha", 0, 0, p_norm2)]
    if n != k:
        terms += [("beta", 0, 1, q_norm2), ("gamma", 1, 0, p_norm2), ("delta", 1, 1, q_norm2)]
    entries = dict.fromkeys(("alpha", "beta", "gamma", "delta"), 0.0)
    provenance = dict.fromkeys(entries, ("exact", 0.0))
    for name, rotated_row, base_row, v_norm2 in terms:
        entries[name] = float(means[rotated_row, base_row]) / v_norm2
        provenance[name] = ("estimated", float(errors[rotated_row, base_row]) / v_norm2)
    return MarkovMatrix(n, k, theta, **entries, provenance=provenance)


def exact_markov_matrix(ctx: ProbeContext, n: int, k: int, theta: ThetaPair) -> MarkovMatrix:
    """Exact (alpha, beta, gamma), and delta = alpha where the rotation mixes the
    pair (evaluating the kernel at the cusp j forces it); elsewhere delta is NaN,
    "unavailable"."""
    alpha, gamma = markov_pair_exact(ctx, n, k, theta)
    rotation = rotation_mixes_pair(n, k)
    provenance = dict.fromkeys(("alpha", "beta", "gamma"), ("exact", 0.0))
    provenance["delta"] = ("exact", 0.0) if rotation else ("unavailable", math.nan)
    return MarkovMatrix(n, k, theta, alpha, -gamma, gamma, alpha if rotation else math.nan,
                        provenance)


def delta_report(
    ctx: ProbeContext, n: int, k: int, theta: ThetaPair, batch: SampleBatch
) -> dict:
    """Monte-Carlo delta next to the rotation-derived value and, for comparison
    only, the printed form cot(2 pi (n - k)/3) * alpha, which violates
    delta(0) = 1.  Both candidates are None for n = k (mod 3)."""
    estimated = estimate_markov_matrix(ctx, n, k, theta, batch)
    rotation = rotation_delta_exact(ctx, n, k, theta)  # = alpha where it exists
    angle = 2.0 * math.pi * (n - k) / 3.0
    cot = None if rotation is None else (math.cos(angle) / math.sin(angle)) * rotation
    return {"index": (n, k), "theta": (theta.t1, theta.t2), "monte_carlo": estimated.delta,
            "monte_carlo_se": estimated.provenance["delta"][1], "rotation_derived": rotation,
            "cot_closed_form": cot}


def representation_check(ctx: ProbeContext, points: np.ndarray, weights: np.ndarray) -> dict:
    """Moment coefficients of probability measures on the domain, and their row test.

    weights has shape (..., points), one measure per leading index, each
    normalized to total mass 1.  Per block index the coefficients are the
    orthonormal first column (a, b) of ProbeContext.first_columns applied to
    the measure's integrals of P-hat and Q-hat.  For a symmetric Markov kernel
    the block row must satisfy a^2 + b^2 <= 1; row_norm_sq holds a^2 + b^2 per
    index and worst_row_norm_sq its maximum over the indices, per measure.
    """
    z = np.asarray(points, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    weights = weights / weights.sum(axis=-1, keepdims=True)
    # A stack of matrix-vector products: each measure's integrals are bit-equal
    # to those of a call with that measure alone.
    means = (ctx.basis.real_values(z) @ weights[..., None])[..., 0]
    return _row_test(ctx, np.moveaxis(means, -1, 0))


def _row_test(ctx: ProbeContext, integrals: np.ndarray) -> dict:
    """representation_check's result from the measures' integrals of the basis
    rows, shape (len(ctx.basis), *measures)."""
    coeffs = ctx.first_columns(integrals)
    row_norm_sq = {index: a * a + b * b for index, (a, b) in coeffs.items()}
    worst = np.max([np.zeros(integrals.shape[1:]), *row_norm_sq.values()], axis=0)
    return {
        "coefficients": coeffs,
        "row_norm_sq": row_norm_sq,
        "worst_row_norm_sq": worst,
        "contraction_ok": worst <= CONTRACTION_BOUND,
    }


def theta_grid(per_axis: int) -> list[ThetaPair]:
    """Deterministic theta grid avoiding the degenerate lines by 1e-3."""
    two_pi = 2.0 * math.pi
    axis1 = [(i + 0.31) * two_pi / per_axis for i in range(per_axis)]
    axis2 = [(j + 0.618) * two_pi / per_axis for j in range(per_axis)]
    pairs = (ThetaPair(t1, t2) for t1 in axis1 for t2 in axis2)
    return [pair for pair in pairs if pair.is_interior(1e-3)]


def positivity_scan(ctx: ProbeContext, thetas: Sequence[ThetaPair]) -> dict:
    """representation_check on the point masses at Z(theta), one per theta.

    The kernel K_theta is the point mass at Z(theta), so its moment
    coefficients are the exact first column of every block in the
    orthonormal basis.  The column's norm is a lower bound for the block's
    largest singular value and must itself be <= 1.  Per index: the largest
    norm over the grid (block_bounds) and the largest |alpha|
    (max_abs_alphas); worst_block_bound and max_abs_alpha are their maxima.
    """
    z = z_of_theta([theta.t1 for theta in thetas], [theta.t2 for theta in thetas])
    # A point mass integrates each basis row to its value at the point.
    rep = _row_test(ctx, ctx.basis.real_values(z))
    bounds = {index: math.sqrt(float(np.max(norm_sq, initial=0.0)))
              for index, norm_sq in rep["row_norm_sq"].items()}
    alphas = {index: float(np.max(np.abs(a), initial=0.0))
              for index, (a, _) in rep["coefficients"].items()}
    return {"block_bounds": bounds, "max_abs_alphas": alphas,
            "worst_block_bound": max(bounds.values()), "max_abs_alpha": max(alphas.values())}


def coverage_check(theta_per_axis: int, omega_per_axis: int) -> dict:
    """Surjectivity of theta -> Z(theta) onto the domain, cell by cell.

    Every cell of the omega grid over the cusps' box [-1/2, 1] x
    [-sqrt(3)/2, sqrt(3)/2] whose center lies strictly inside the domain
    must receive at least one image point of the theta grid, and there must
    be such a cell.  The image points are binned one block of theta rows
    (about EVAL_CHUNK points) at a time.
    """
    two_pi = 2.0 * math.pi
    ts = np.arange(theta_per_axis) * two_pi / theta_per_axis
    x_lo, x_hi = -0.5, 1.0
    y_hi = math.sqrt(3.0) / 2.0
    top = omega_per_axis - 1
    hit = np.zeros((omega_per_axis, omega_per_axis), dtype=bool)
    rows = max(1, EVAL_CHUNK // theta_per_axis)  # t1 values per block of about EVAL_CHUNK points
    for start in range(0, theta_per_axis, rows):
        z = z_of_theta(ts[start:start + rows, None], ts[None, :])
        xs = np.clip(((z.real - x_lo) / (x_hi - x_lo) * omega_per_axis).astype(int), 0, top)
        ys = np.clip(((z.imag + y_hi) / (2.0 * y_hi) * omega_per_axis).astype(int), 0, top)
        hit[xs, ys] = True
    centers_x = x_lo + (np.arange(omega_per_axis) + 0.5) * (x_hi - x_lo) / omega_per_axis
    centers_y = -y_hi + (np.arange(omega_per_axis) + 0.5) * (2.0 * y_hi) / omega_per_axis
    cx, cy = np.meshgrid(centers_x, centers_y, indexing="ij")
    interior = np.asarray(deltoid_boundary_values(cx + 1j * cy)) > 0.0
    cells = int(interior.sum())
    missed = int(np.count_nonzero(interior & ~hit))
    return {"interior_cells": cells, "missed_cells": missed}


def block_cross_correlations(ctx: ProbeContext, theta: ThetaPair, batch: SampleBatch) -> list[dict]:
    """Empirical correlations between distinct-eigenvalue eigenfunctions.

    Commutation forces these to vanish; each entry reports the correlation
    normalized to unit-norm functions together with its standard error.
    """
    # Label, eigenvalue, basis row and norm per function, sorted by index so
    # that the earlier index of a pair is the rotated one.
    labels, eigenvalues, rows, norms = (list(column) for column in zip(*(
        ((e.flavor, n, k), e.eigenvalue, ctx.rows[(n, k)] + row,
         math.sqrt(ctx.norms2[(n, k)][row]))
        for (n, k), pair in sorted(ctx.pairs.items())
        for row, e in enumerate(pair[:1] if n == k else pair))))  # Q-hat(n, n) = 0
    pairs = [(i, j) for i in range(len(rows)) for j in range(i + 1, len(rows))
             if eigenvalues[i] != eigenvalues[j]]
    first, second = [i for i, _ in pairs], [j for _, j in pairs]
    scale = np.array(norms)[:, None]

    def sums(rotated, base):
        u, v = rotated[rows] / scale, base[rows] / scale
        s1 = (u @ v.T)[first, second]
        return s1, (np.square(u, out=u) @ np.square(v, out=v).T)[first, second]

    mean, se = ctx._mean_se(batch, theta, sums)
    return [{"pair": (labels[i], labels[j]), "correlation": float(m), "standard_error": float(e)}
            for (i, j), m, e in zip(pairs, mean, se)]
