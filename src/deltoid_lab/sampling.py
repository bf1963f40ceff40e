"""Seeded random generation: torus points, SU(3) Haar matrices, lifted-domain samples.

Three sample spaces feed the distributional checks:

* uniform torus pairs, whose orbit image realizes the deltoid measure at
  lambda = 1;
* Haar special-unitary 3x3 matrices, whose normalized trace realizes the
  deltoid measure at lambda = 4;
* points of the 6-dimensional lifted domain under the density P1**beta,
  with beta = (2*lambda - 11)/6.  At lambda = 11/2 the density is uniform
  and rejection from the unit polydisc is exact; elsewhere a Metropolis
  random walk covers the family (rejection additionally supports beta > 0
  through the envelope P1 <= 1).

Everything is reproducible: a batch is a pure function of (parameters,
seed).

Two fast paths keep the random streams as they were.  Rejection screens
every polydisc proposal in real arithmetic on the drawn moduli and angles,
taking a cosine only where a cosine-free bound can pass, and builds complex
points only for the few percent that survive; the screen's margin exceeds
its rounding error, so it never drops a point omega1_membership accepts,
and omega1_membership stays the only judge.  A rejection round is streamed
in blocks of EVAL_CHUNK proposals, so its memory does not grow with the
number of proposals: moduli, angles and density uniforms come from three
copies of the generator, each advanced to where one bulk draw of the round
would reach it, so the points are those of drawing the round at once.
Haar SU(3) draws go through one kernel in blocks of SU3_CHUNK matrices: it
orthonormalizes two complex Gaussian columns a, b (12 normal draws per
matrix) and completes them by conj(a x b), so det = 1 holds by construction;
the trace path sums three diagonal entries and never builds the matrices.

A pass that only reduces a sample streams it: torus_z_blocks and
su3_trace_blocks yield the projected torus draws and the SU(3) traces one
block of at most EVAL_CHUNK points at a time, the same draws bit for bit as
pushforward_deltoid(sample_torus(n, seed)) and su3_trace_samples(n, seed),
so no whole sample is ever held.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Mapping

import numpy as np

from .models import (
    LAMBDA_RANGES,
    OMEGA1_P1_FLOOR,
    lifted_density_exponent,
    omega1_membership,
    omega1_modulus_parts,
    z_of_theta,
)
from .poly import blocks
from .scalars import RationalLike


# An MCMC batch reports its effective sample size from ESS_BATCHES batch
# means and is refused below MIN_ESS; a correlated standard error uses at most
# ESS_BATCHES batch means.
MIN_ESS = 100.0
ESS_BATCHES = 32
# The SU(3) samplers draw and orthonormalize the 2-frames of this many
# matrices at a time, so that a block's temporaries take a few MiB rather than
# scaling with the sample size.
SU3_CHUNK = 4096
# Rejection keeps a proposal for the membership judge when its screened
# P1 > -SCREEN_MARGIN and P2 < SCREEN_MARGIN (see _screen_mask).
SCREEN_MARGIN = 1e-9
# A Metropolis run discards its first MCMC_BURN_IN steps and then keeps every
# MCMC_THINNING-th state.
MCMC_BURN_IN = 10_000
MCMC_THINNING = 10


class SamplingError(RuntimeError):
    """A sampler could not produce a usable batch."""


@dataclass(frozen=True)
class MomentEstimate:
    """A Monte-Carlo mean with its standard error, over n samples."""

    mean: float
    standard_error: float
    n: int

    @classmethod
    def of(cls, values: np.ndarray, correlated: bool = False) -> "MomentEstimate":
        """Sample mean and standard error: std(ddof=1)/sqrt(n) for independent
        values, batch means for a correlated (MCMC) series; 0.0 below two values."""
        values = np.asarray(values, dtype=float)
        n = len(values)
        if n < 2:
            se = 0.0
        elif correlated:
            n_batches = min(ESS_BATCHES, max(2, n // 4))
            se = float(_batch_means(values, n_batches).std(ddof=1) / math.sqrt(n_batches))
        else:
            se = float(values.std(ddof=1) / math.sqrt(n))
        return cls(float(values.mean()), se, n)

    def z(self, other: "MomentEstimate") -> float:
        """|mean difference| in combined standard errors; 0.0 for equal exact means."""
        combined = math.hypot(self.standard_error, other.standard_error)
        return abs(self.mean - other.mean) / max(combined, 1e-300)


@dataclass(frozen=True)
class SampleBatch:
    """Reproducible batch of sample points with acceptance statistics."""

    kind: str  # torus | su3 | omega1
    seed: int
    params: dict
    points: np.ndarray
    stats: dict = field(default_factory=dict)
    correlated: bool = False  # True for MCMC output (batch-means errors)

    def __len__(self) -> int:
        return len(self.points)


# ---------------------------------------------------------------------------
# Torus
# ---------------------------------------------------------------------------


def _rng(n: int, seed: int | np.random.Generator) -> np.random.Generator:
    """The generator of a batch of n >= 1 samples: a new one for an int seed,
    or the Generator passed as seed, whose stream the batch continues."""
    if n < 1:
        raise ValueError("need at least one sample")
    return np.random.default_rng(seed)


def sample_torus(n: int, seed: int | np.random.Generator) -> SampleBatch:
    """n i.i.d. uniform angle pairs on [0, 2 pi)^2.  Each value is one draw,
    so consecutive batches from one Generator continue one bulk draw."""
    pts = _rng(n, seed).uniform(0.0, 2.0 * math.pi, size=(n, 2))
    return SampleBatch("torus", seed, {"n": n}, pts)


def torus_z_blocks(n: int, seed: int) -> Iterator[np.ndarray]:
    """pushforward_deltoid(sample_torus(n, seed)), bit for bit, one block of
    at most EVAL_CHUNK points at a time (each block the next batch of one
    generator), without ever holding the whole sample."""
    rng = _rng(n, seed)
    return (pushforward_deltoid(sample_torus(block.stop - block.start, rng))
            for block in blocks(n))


# ---------------------------------------------------------------------------
# SU(3) Haar
# ---------------------------------------------------------------------------


def _su3_frame(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The first two columns a, b of n Haar SU(3) matrices; the third is conj(a x b).

    Gram-Schmidt turns two complex Ginibre columns into an orthonormal
    2-frame (a, b) of C^3; b is projected twice ("twice is enough"), which
    keeps the frame orthonormal to rounding.  Gaussian columns are invariant
    under U(3) and Gram-Schmidt commutes with it, so the frame's law is
    U(3)-invariant.  SU(3) acts simply transitively on orthonormal 2-frames
    (g is fixed by its first two columns, since det g = 1 forces the third
    to be conj(a x b)), so the invariant law of the frame is the image of
    Haar measure on SU(3), and [a, b, conj(a x b)] is Haar with
    det = |a x b|^2 = 1 by construction.

    Returns (a, b): a[i] is entry (i, 0) and b[i] entry (i, 1) of every matrix.
    """
    # Twelve draws per matrix, real and imaginary interleaved per entry, so
    # that blocked generation consumes the stream exactly like one bulk call.
    raw = rng.standard_normal((n, 2, 3, 2))
    # g[i] is row i of the column g of every matrix, as one contiguous array.
    g1, g2 = np.ascontiguousarray(raw.view(complex)[..., 0].transpose(1, 2, 0))

    def unit(v: np.ndarray) -> np.ndarray:
        return v * (1.0 / np.sqrt(np.sum(v.real**2 + v.imag**2, axis=0)))

    a, b = unit(g1), g2
    for _ in range(2):
        b = b - a * np.sum(a.conj() * b, axis=0)
    return a, unit(b)


def _haar_su3_chunk(rng: np.random.Generator, n: int) -> np.ndarray:
    """n Haar SU(3) matrices [a, b, conj(a x b)], shape (n, 3, 3), from _su3_frame."""
    a, b = _su3_frame(rng, n)
    c = (a[[1, 2, 0]] * b[[2, 0, 1]] - a[[2, 0, 1]] * b[[1, 2, 0]]).conj()
    return np.array([a, b, c]).transpose(2, 1, 0)


def sample_su3_haar(n: int, seed: int | np.random.Generator) -> SampleBatch:
    """n Haar-distributed special unitary 3x3 matrices."""
    rng = _rng(n, seed)
    points = np.empty((n, 3, 3), dtype=complex)
    for block in blocks(n, SU3_CHUNK):
        points[block] = _haar_su3_chunk(rng, block.stop - block.start)
    return SampleBatch("su3", seed, {"n": n}, points)


def su3_trace_samples(n: int, seed: int | np.random.Generator) -> np.ndarray:
    """Normalized traces trace(g)/3 of n Haar SU(3) matrices.

    The same draws as sample_su3_haar(n, seed) followed by the trace map,
    bit for bit, but the matrices are never assembled: each block sums
    a[0] + b[1] + conj(a[0] b[1] - a[1] b[0]), the diagonal of [a, b, conj(a x b)].
    """
    rng = _rng(n, seed)
    out = np.empty(n, dtype=complex)
    for block in blocks(n, SU3_CHUNK):
        a, b = _su3_frame(rng, block.stop - block.start)
        out[block] = (a[0] + b[1] + (a[0] * b[1] - a[1] * b[0]).conj()) / 3.0
    return out


def su3_trace_blocks(n: int, seed: int) -> Iterator[np.ndarray]:
    """su3_trace_samples(n, seed), bit for bit, one block of at most
    EVAL_CHUNK traces at a time (each block the next batch of one generator),
    without ever holding them all."""
    rng = _rng(n, seed)
    return (su3_trace_samples(block.stop - block.start, rng) for block in blocks(n))


# ---------------------------------------------------------------------------
# Lifted domain
# ---------------------------------------------------------------------------


def _screen_mask(u: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Which polydisc proposals sqrt(u) * exp(1j * angles) may lie in the
    lifted domain, computed in real arithmetic on the draws.

    With (base, P2) = models.omega1_modulus_parts(u0, u1, u2) (u_i = |z_i|^2),

        P1 = base + amp*cos(a0 + a1 + a2),  amp = 8*sqrt(u0 u1 u2),

    and a proposal survives when P1 > -SCREEN_MARGIN and P2 < SCREEN_MARGIN.
    The cosine is taken in a second stage, only where P2 and the
    cosine-free bound base + amp pass.  That stage drops nothing the
    one-stage formula keeps: amp >= 0 and cos <= 1, and rounding is
    monotone, so fl(base + fl(amp * c)) <= fl(base + amp) for every cosine c,
    and the survivors are exactly those of evaluating P1 everywhere.

    The screen is conservative: omega1_membership evaluates the same
    polynomials from the complex points.  There |z_i|^2 differs from u_i by
    a few units of rounding eps = 2**-53 relative, and Re(z0 z1 z2) differs
    from sqrt(u0 u1 u2) cos(a0 + a1 + a2) by a few eps absolute (all moduli
    are at most 1; the rounded angle sum, below 6*pi, moves the cosine by at
    most 6*pi*eps).  Every term of P1 and P2 is at most 16 in size, so the
    two evaluations differ by less than 1000 * 16 * eps < 2e-12, far inside
    the margin 1e-9: a point the judge accepts (P1 > OMEGA1_P1_FLOOR, P2 < 0)
    always survives the screen.
    """
    u0, u1, u2 = u.T
    base, p2 = omega1_modulus_parts(u0, u1, u2)
    amp = 8.0 * np.sqrt(u0 * u1 * u2)
    keep = (base + amp > -SCREEN_MARGIN) & (p2 < SCREEN_MARGIN)
    phase = angles[:, 0] + angles[:, 1] + angles[:, 2]
    live = np.flatnonzero(keep)
    keep[live] = base[live] + amp[live] * np.cos(phase[live]) > -SCREEN_MARGIN
    return keep


def _stream_at(rng: np.random.Generator, skip: int) -> np.random.Generator:
    """A Generator on a copy of rng's stream, advanced past skip draws."""
    return np.random.Generator(copy.deepcopy(rng.bit_generator).advance(skip))


def sample_omega1(
    lam: RationalLike,
    n: int,
    seed: int,
    method: str = "rejection",
    step: float = 0.15,
) -> SampleBatch:
    """Samples of the lifted domain under the density P1**beta.

    method='rejection' draws uniform polydisc proposals and accepts into
    the membership set (exact at beta = 0, i.e. lambda = 11/2; beta > 0 is
    handled by an extra P1**beta acceptance using the envelope P1 <= 1;
    beta < 0 has no bounded envelope and requires MCMC).  A real-arithmetic
    screen (_screen_mask) discards proposals far outside the domain before
    omega1_membership judges the rest; its cosine-free bound stage is never
    below the rounded P1, so it drops nothing the full formula keeps.  Each
    round is streamed in blocks of EVAL_CHUNK proposals; points, stats and
    the random stream are those of drawing the round at once and judging
    every proposal, and memory stays at one block plus the n kept points.

    method='mcmc' runs a symmetric Gaussian random walk with Metropolis
    correction, burn-in and thinning (MCMC_BURN_IN, MCMC_THINNING); the batch
    records an effective sample size from batch means and refuses runs with
    ESS below MIN_ESS.
    """
    lam = Fraction(lam)
    LAMBDA_RANGES["lifted_sampler"].require(lam)
    if n < 1:
        raise ValueError("need at least one sample")
    beta = lifted_density_exponent(lam)
    if method == "rejection":
        return _omega1_rejection(lam, beta, n, seed)
    if method == "mcmc":
        return _omega1_mcmc(lam, beta, n, seed, step)
    raise ValueError(f"unknown method {method!r}")


def _omega1_rejection(lam: Fraction, beta: Fraction, n: int, seed: int) -> SampleBatch:
    LAMBDA_RANGES["rejection_sampler"].require(lam, SamplingError, ". Use method='mcmc'.")
    rng = np.random.default_rng(seed)
    points = np.empty((n, 3), dtype=complex)
    proposed = 0
    accepted = 0
    beta_f = float(beta)
    while accepted < n:
        m = max(200_000, 4 * (n - accepted))
        # One round reads 3m moduli, then 3m angles, then (beta > 0) m density
        # uniforms; each of the three is read block by block from its own copy
        # of the stream, started where a bulk draw of the round would reach it.
        u_rng, angle_rng, density_rng = (_stream_at(rng, skip) for skip in (0, 3 * m, 6 * m))
        for block in blocks(m):
            size = block.stop - block.start
            u = u_rng.random((size, 3))
            angles = angle_rng.random((size, 3))
            angles *= 2.0 * math.pi  # == uniform(0, 2 pi): 0 + 2 pi * draw
            survivors = np.flatnonzero(_screen_mask(u, angles))
            pts = np.sqrt(u[survivors]) * np.exp(1j * angles[survivors])
            mask, p1 = omega1_membership(pts, with_p1=True)
            if beta_f > 0.0:
                density_u = density_rng.random(size)
                density = np.where(mask, np.maximum(p1, 0.0) ** beta_f, 0.0)
                # Envelope: P1 <= 1 on the domain (P1(0) = 1 is the maximum).
                if np.any(density > 1.0 + 1e-12):
                    raise SamplingError("envelope P1 <= 1 violated; rejection invalid")
                mask &= density_u[survivors] < density
            kept = pts[mask]
            # The first n points are kept; the statistics count them all.
            room = points[accepted:accepted + len(kept)]
            room[...] = kept[:len(room)]
            accepted += len(kept)
        proposed += m
        rng.bit_generator.advance(7 * m if beta_f > 0.0 else 6 * m)
    stats = {"proposed": proposed, "acceptance_rate": accepted / proposed}
    return SampleBatch(
        "omega1", seed, {"lambda": lam, "beta": beta, "n": n, "method": "rejection"},
        points, stats,
    )


def _omega1_log_p1(z0: complex, z1: complex, z2: complex) -> float:
    """log P1 at one point of C^3, or -inf off the lifted domain.

    The scalar twin of models.omega1_membership and omega1_boundary_values
    for the MCMC inner loop, where numpy calls on one point cost far more
    than the arithmetic: the same omega1_modulus_parts and the same predicate
    (P1 > OMEGA1_P1_FLOOR, P2 < 0, max |z_i| < 1).  Values agree with the
    array path to rounding; numpy may fuse a complex product's multiply-add.
    """
    base, p2 = omega1_modulus_parts(z0.real * z0.real + z0.imag * z0.imag,
                                    z1.real * z1.real + z1.imag * z1.imag,
                                    z2.real * z2.real + z2.imag * z2.imag)
    p1 = base + 8.0 * (z0 * z1 * z2).real
    if p1 > OMEGA1_P1_FLOOR and p2 < 0.0 and max(abs(z0), abs(z1), abs(z2)) < 1.0:
        return math.log(p1)
    return -math.inf


def _omega1_mcmc(lam: Fraction, beta: Fraction, n: int, seed: int, step: float) -> SampleBatch:
    burn_in, thinning = MCMC_BURN_IN, MCMC_THINNING
    rng = np.random.default_rng(seed)
    beta_f = float(beta)
    current = (0j, 0j, 0j)
    current_logp = beta_f * _omega1_log_p1(*current)
    total_steps = burn_in + n * thinning
    kept = np.empty((n, 3), dtype=complex)
    accepted_moves = 0
    kept_count = 0
    for it in range(total_steps):
        d = rng.normal(scale=step, size=6).tolist()
        z0, z1, z2 = current
        proposal = (complex(z0.real + d[0], z0.imag + d[3]),
                    complex(z1.real + d[1], z1.imag + d[4]),
                    complex(z2.real + d[2], z2.imag + d[5]))
        log_p1 = _omega1_log_p1(*proposal)
        # A uniform draw of exactly 0.0 has log -inf, which accepts the move.
        if log_p1 > -math.inf and ((u := rng.random()) == 0.0
                                   or math.log(u) < beta_f * log_p1 - current_logp):
            current = proposal
            current_logp = beta_f * log_p1
            accepted_moves += 1
        if it >= burn_in and (it - burn_in) % thinning == 0 and kept_count < n:
            kept[kept_count] = current
            kept_count += 1
    s1 = (kept * kept.conjugate()).real.sum(axis=1)
    ess = _batch_means_ess(s1)
    stats = {
        "move_acceptance": accepted_moves / total_steps,
        "ess": ess,
        "burn_in": burn_in,
        "thinning": thinning,
        "step": step,
    }
    if ess < MIN_ESS:
        raise SamplingError(f"MCMC effective sample size {ess:.1f} < {MIN_ESS}")
    return SampleBatch(
        "omega1", seed, {"lambda": lam, "beta": beta, "n": n, "method": "mcmc"},
        kept, stats, correlated=True,
    )


def _batch_means(values: np.ndarray, n_batches: int) -> np.ndarray:
    """Means of n_batches consecutive equal batches; the remainder is dropped."""
    m = len(values) // n_batches
    return values[: m * n_batches].reshape(n_batches, m).mean(axis=1)


def _batch_means_ess(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=float)
    if len(values) // ESS_BATCHES < 2:
        return float(len(values))
    var_bm = _batch_means(values, ESS_BATCHES).var(ddof=1) / ESS_BATCHES
    var_iid = values.var(ddof=1)
    if var_bm <= 0:
        return float(len(values))
    return float(var_iid / var_bm)


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


def estimate_moments(
    batch: SampleBatch,
    functions: Mapping[str, Callable[[np.ndarray], np.ndarray]],
) -> dict[str, MomentEstimate]:
    """Sample means with standard errors (batch means for MCMC batches)."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    return {name: MomentEstimate.of(func(batch.points), batch.correlated)
            for name, func in functions.items()}


def pushforward_deltoid(batch: SampleBatch) -> np.ndarray:
    """Map a torus or omega1 batch into the deltoid domain: the complex Z value
    per sample.  SU(3) traces come from su3_trace_blocks instead."""
    if batch.kind == "torus":
        return z_of_theta(batch.points[:, 0], batch.points[:, 1])
    if batch.kind == "omega1":
        return batch.points.mean(axis=1)
    raise ValueError(f"no deltoid pushforward for batch kind {batch.kind!r}")
