import hashlib
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from deltoid_lab.models import (
    LAMBDA_RANGES, ThetaPair, omega1_boundary_values, omega1_membership, phi_theta,
)
from deltoid_lab import models, sampling, verify
from deltoid_lab.poly import EVAL_CHUNK, CompiledPolys
from deltoid_lab.sampling import (
    MomentEstimate,
    SamplingError,
    _batch_means_ess,
    _haar_su3_chunk,
    _omega1_log_p1,
    estimate_moments,
    pushforward_deltoid,
    sample_omega1,
    sample_su3_haar,
    sample_torus,
    su3_trace_blocks,
    su3_trace_samples,
    torus_z_blocks,
)
from deltoid_lab.spectral import eigen_PQ_lambda, pq_indices, pq_polys


def test_determinism():
    a = sample_torus(500, 42)
    b = sample_torus(500, 42)
    assert np.array_equal(a.points, b.points)
    c = sample_su3_haar(50, 7).points
    d = sample_su3_haar(50, 7).points
    assert np.array_equal(c, d)
    e = sample_omega1(Fraction(11, 2), 200, 5).points
    f = sample_omega1(Fraction(11, 2), 200, 5).points
    assert np.array_equal(e, f)


def test_torus_in_range():
    pts = sample_torus(1000, 1).points
    assert pts.shape == (1000, 2)
    assert np.all(pts >= 0) and np.all(pts < 2 * math.pi)


def test_su3_construction():
    g = sample_su3_haar(500, 11).points
    residual = np.max(np.abs(np.einsum("nij,nik->njk", g.conj(), g) - np.eye(3)))
    assert residual < 1e-12
    assert np.max(np.abs(np.linalg.det(g) - 1.0)) < 1e-12


def _haar_su3_qr_oracle(rng, n):
    """The frame by numpy: reduced QR of the same two Ginibre columns with the
    R-diagonal phases divided out, completed by conj(a x b)."""
    raw = rng.standard_normal((n, 2, 3, 2))
    z = (raw[..., 0] + 1j * raw[..., 1]).transpose(0, 2, 1)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (diag / np.abs(diag))[:, np.newaxis, :]
    c = np.cross(q[..., 0], q[..., 1]).conj()
    return np.concatenate([q, c[..., np.newaxis]], axis=-1)


def test_su3_gram_schmidt_matches_qr_oracle():
    g = _haar_su3_chunk(np.random.default_rng(61), 20_000)
    oracle = _haar_su3_qr_oracle(np.random.default_rng(61), 20_000)
    assert np.max(np.abs(g - oracle)) < 1e-12
    unitarity = np.einsum("nij,nik->njk", g.conj(), g) - np.eye(3)
    assert np.max(np.linalg.norm(unitarity, ord=2, axis=(1, 2))) < 1e-14
    assert np.max(np.abs(np.linalg.det(g) - 1.0)) < 1e-14


@pytest.mark.parametrize("n", [0, -1])
def test_samplers_refuse_fewer_than_one_sample(n):
    for sampler in (sample_torus, sample_su3_haar, su3_trace_samples, torus_z_blocks,
                    su3_trace_blocks):
        with pytest.raises(ValueError, match="need at least one sample"):
            sampler(n, 1)


def test_su3_trace_streaming_consistent():
    # Within one block and across blocks with a partial last one.
    for n in (1000, 3 * sampling.SU3_CHUNK + 17):
        traces = su3_trace_samples(n, 13)
        full = sample_su3_haar(n, 13).points
        assert np.array_equal(traces.view(np.uint64),
                              (np.trace(full, axis1=-2, axis2=-1) / 3.0).view(np.uint64))
        # Blocks consume the stream like one bulk draw.
        assert np.array_equal(full, _haar_su3_chunk(np.random.default_rng(13), n))


# Per stream: its block generator, the materialized sample it streams, and the
# parameter whose eigenfunction means verify takes over it.
STREAMS = {
    "torus": (torus_z_blocks, lambda n, seed: pushforward_deltoid(sample_torus(n, seed)),
              Fraction(1)),
    "su3": (su3_trace_blocks, su3_trace_samples, Fraction(4)),
}


@pytest.mark.parametrize("n", [1000, 40_001, 10**6])
@pytest.mark.parametrize("kind", sorted(STREAMS))
def test_streamed_blocks_bit_equal_to_materialized(kind, n):
    blocks_of, materialized, _ = STREAMS[kind]
    blocks = list(blocks_of(n, 83))
    assert [len(b) for b in blocks[:-1]] == [EVAL_CHUNK] * (len(blocks) - 1)
    assert 1 <= len(blocks[-1]) <= EVAL_CHUNK
    assert np.array_equal(np.concatenate(blocks).view(np.uint64),
                          materialized(n, 83).view(np.uint64))


@pytest.mark.parametrize("kind", sorted(STREAMS))
def test_streamed_moments_bit_equal_to_array_path(kind):
    blocks_of, materialized, lam = STREAMS[kind]
    compiled = CompiledPolys([poly for *_, poly in pq_polys(lam, 4)])
    n = 3 * EVAL_CHUNK + 101
    streamed = compiled.real_mean_se(blocks_of(n, 89))
    whole = compiled.real_mean_se(materialized(n, 89))
    assert all(np.array_equal(x.view(np.uint64), y.view(np.uint64))
               for x, y in zip(streamed, whole))
    assert (verify._eigen_mean_worst_z(blocks_of(10**6, 89), lam, 4)
            == verify._eigen_mean_worst_z(materialized(10**6, 89), lam, 4))


@pytest.mark.parametrize("kind", sorted(STREAMS))
def test_streamed_pass_memory_is_bounded(kind):
    # The 10**6 points alone take 16 MiB; the streamed pass never holds them.
    blocks_of, _, lam = STREAMS[kind]
    verify._eigen_mean_worst_z(blocks_of(100, 97), lam, 4)  # fill the exact caches first
    tracemalloc.start()
    try:
        verify._eigen_mean_worst_z(blocks_of(10**6, 97), lam, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_torus_eigen_means_vanish():
    zs = pushforward_deltoid(sample_torus(150_000, 17))
    for n, k in pq_indices(3):
        p_hat, _ = eigen_PQ_lambda(Fraction(1), n, k)
        vals = np.real(p_hat.poly.evaluate({"Z": zs, "Zb": np.conj(zs)}))
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean()) < 4 * se


def test_su3_eigen_means_vanish():
    zs = su3_trace_samples(150_000, 19)
    for n, k in pq_indices(3):
        p_hat, _ = eigen_PQ_lambda(Fraction(4), n, k)
        vals = np.real(p_hat.poly.evaluate({"Z": zs, "Zb": np.conj(zs)}))
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean()) < 4 * se


def test_su3_trace_moments_tell_haar_su3_apart():
    # E[(tr g)^3] = 1 counts the invariant det in V^(x)3, which Haar U(3) (or a
    # frame completed without the conjugate) lacks; E[|tr g|^4] = 2 counts the
    # two irreducible summands of V (x) V.
    t = 3.0 * su3_trace_samples(200_000, 37)
    for values, exact in (((t**3).real, 1.0), ((t**3).imag, 0.0), (np.abs(t) ** 4, 2.0)):
        estimate = MomentEstimate.of(values)
        assert abs(estimate.mean - exact) < 4 * estimate.standard_error


def test_su3_haar_center_symmetry():
    zs = su3_trace_samples(150_000, 23)
    se = np.abs(zs).std() / math.sqrt(len(zs))
    assert abs(zs.mean()) < 4 * se


def test_antisymmetric_mean_vanishes():
    zs = pushforward_deltoid(sample_torus(100_000, 29))
    _, q_hat = eigen_PQ_lambda(Fraction(1), 1, 0)
    vals = np.real(q_hat.poly.evaluate({"Z": zs, "Zb": np.conj(zs)}))
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean()) < 4 * se


class TestOmega1:
    def test_lambda_guard(self):
        needed = LAMBDA_RANGES["lifted_sampler"]
        for method in ("rejection", "mcmc"):
            with pytest.raises(ValueError, match=re.escape(f"{needed.user} needs lambda {needed}")):
                sample_omega1(Fraction(5, 2), 100, 1, method=method)

    def test_rejection_points_are_members(self):
        batch = sample_omega1(Fraction(11, 2), 5000, 31)
        assert bool(np.all(omega1_membership(batch.points)))
        assert 0.01 < batch.stats["acceptance_rate"] < 0.2

    @pytest.mark.parametrize("lam, method", [
        (Fraction(4), "mcmc"), (Fraction(11, 2), "rejection"), (Fraction(13, 2), "rejection"),
    ])
    def test_sampled_density_is_the_lifted_models_measure(self, lam, method):
        # The exponent the sampler runs gives the lifted drift exactly, as
        # sixdim.measure_drift proves for the same definition.
        from deltoid_lab.diffusion import drift_from_measure
        from deltoid_lab.models import SIXDIM_VARS, p1_p2, sixdim_model

        batch = sample_omega1(lam, 2000, 43, method=method)
        model = sixdim_model(lam)
        p1, _ = p1_p2()
        assert drift_from_measure(SIXDIM_VARS, model.gamma,
                                  [(p1, batch.params["beta"])]) == dict(model.drift)

    def test_rejection_beta_negative_refused(self):
        needed = LAMBDA_RANGES["rejection_sampler"]
        phrase = re.escape(f"{needed.user} needs lambda {needed}") + ".*method='mcmc'"
        with pytest.raises(SamplingError, match=phrase):
            sample_omega1(Fraction(4), 100, 1, method="rejection")

    def test_rejection_beta_positive_envelope(self):
        batch = sample_omega1(Fraction(7), 2000, 37, method="rejection")
        assert bool(np.all(omega1_membership(batch.points)))

    @staticmethod
    def _unscreened_rejection(lam, n, seed):
        """The rejection loop as written before the screen: every proposal is
        built as a complex point and judged by omega1_membership."""
        rng = np.random.default_rng(seed)
        chunks, proposed, accepted = [], 0, 0
        beta_f = float((2 * lam - 11) / 6)
        while accepted < n:
            m = max(200_000, 4 * (n - accepted))
            radii = np.sqrt(rng.uniform(size=(m, 3)))
            angles = rng.uniform(0.0, 2.0 * math.pi, size=(m, 3))
            pts = radii * np.exp(1j * angles)
            mask = omega1_membership(pts)
            if beta_f > 0.0:
                p1, _ = omega1_boundary_values(pts)
                density = np.where(mask, np.maximum(p1, 0.0) ** beta_f, 0.0)
                mask = mask & (rng.uniform(size=m) < density)
            kept = pts[mask]
            chunks.append(kept)
            proposed += m
            accepted += len(kept)
        return np.concatenate(chunks)[:n], {"proposed": proposed,
                                             "acceptance_rate": accepted / proposed}

    @pytest.mark.parametrize("lam", [Fraction(11, 2), Fraction(13, 2)],
                             ids=["beta-zero", "beta-one-third"])
    @pytest.mark.parametrize("seed", [3, 59, 20260820])
    def test_screened_rejection_matches_unscreened_loop(self, lam, seed):
        batch = sample_omega1(lam, 25_000, seed)
        points, stats = self._unscreened_rejection(lam, 25_000, seed)
        assert stats["proposed"] > 2 * 200_000  # several rounds of the m schedule
        assert np.array_equal(batch.points.view(float), points.view(float))
        assert batch.stats == stats

    def test_weighted_rejection_evaluates_the_boundary_once_per_block(self, monkeypatch):
        # At beta > 0 the density reads the P1 that membership computed, so each
        # block's survivors get one boundary evaluation, not two.  The points
        # are pinned by test_screened_rejection_matches_unscreened_loop.
        judged, evaluated = [], []

        def judge(points, *args, **kwargs):
            judged.append(len(points))
            return omega1_membership(points, *args, **kwargs)

        def boundary(points):
            evaluated.append(len(points))
            return omega1_boundary_values(points)

        monkeypatch.setattr(sampling, "omega1_membership", judge)
        monkeypatch.setattr(models, "omega1_boundary_values", boundary)
        sample_omega1(Fraction(13, 2), 25_000, 3)
        assert len(judged) > 2 * 200_000 // EVAL_CHUNK  # every block of several rounds
        assert evaluated == judged

    @staticmethod
    def _one_stage_screen(u, angles):
        """The screen as written before the bound stage: P1 with its cosine
        and P2 for every proposal."""
        u0, u1, u2 = u.T
        s1 = u0 + u1 + u2
        s2 = u0 * u0 + u1 * u1 + u2 * u2
        t = s1 - 1.0
        p2 = 2.0 * (s2 - 1.0) - t * t
        t = s1 + 1.0
        p1 = 2.0 - t * t + 2.0 * s2 + 8.0 * np.sqrt(u0 * u1 * u2) * np.cos(
            angles[:, 0] + angles[:, 1] + angles[:, 2])
        return (p1 > -sampling.SCREEN_MARGIN) & (p2 < sampling.SCREEN_MARGIN)

    def _assert_screens_agree(self, u, angles):
        assert np.array_equal(np.flatnonzero(sampling._screen_mask(u, angles)),
                              np.flatnonzero(self._one_stage_screen(u, angles)))

    @staticmethod
    def _screened_membership(u, angles):
        """Membership as the sampler decides it: screen, then judge the survivors."""
        survivors = np.flatnonzero(sampling._screen_mask(u, angles))
        member = np.zeros(len(u), dtype=bool)
        member[survivors] = omega1_membership(
            np.sqrt(u[survivors]) * np.exp(1j * angles[survivors]))
        return member

    def test_blocked_screen_equals_one_pass(self):
        # The sampler screens a round in blocks of EVAL_CHUNK proposals.
        rng = np.random.default_rng(97)
        size = 3 * sampling.EVAL_CHUNK + 101
        u = rng.uniform(size=(size, 3))
        angles = rng.uniform(0.0, 2.0 * math.pi, size=(size, 3))
        one_pass = sampling._screen_mask(u, angles)
        assert 0 < one_pass.sum() < size
        blocked = np.concatenate([sampling._screen_mask(u[block], angles[block])
                                  for block in sampling._blocks(size, sampling.EVAL_CHUNK)])
        assert np.array_equal(blocked, one_pass)
        self._assert_screens_agree(u, angles)
        assert len(sampling._screen_mask(u[:0], angles[:0])) == 0

    def test_screen_keeps_every_accepted_proposal(self):
        rng = np.random.default_rng(83)
        u = rng.uniform(size=(1_000_000, 3))
        angles = rng.uniform(0.0, 2.0 * math.pi, size=(1_000_000, 3))
        judged = omega1_membership(np.sqrt(u) * np.exp(1j * angles))
        survivors = np.flatnonzero(sampling._screen_mask(u, angles))
        assert 0.05 < judged.mean() and len(survivors) < 0.07 * len(u)
        assert np.all(np.isin(np.flatnonzero(judged), survivors))
        assert np.array_equal(self._screened_membership(u, angles), judged)
        self._assert_screens_agree(u, angles)

    def test_screen_near_the_boundary_surfaces(self):
        rng = np.random.default_rng(89)
        w = rng.uniform(size=(4000, 3))
        w /= np.max(w, axis=1, keepdims=True)
        angles = rng.uniform(0.0, 2.0 * math.pi, size=(4000, 3))
        # {P2 = 0} stays outside the domain (P1 < 0 there, even at the zero
        # total phase that maximizes P1), so both of its sides are judged
        # outside; the screen must still agree there.
        flat = np.column_stack([angles[:, :2], np.mod(-angles[:, 0] - angles[:, 1], 2 * math.pi)])

        def points(u, a):
            return np.sqrt(u) * np.exp(1j * a)

        def plant(a, which, inside):
            """u = t * w on both sides of {P_which = 0}, within 1e-12 of it, by
            bisecting t in [0, 1] on the rays that cross it in the polydisc."""
            crossing = ~inside(omega1_boundary_values(points(w, a))[which])
            ww, a = w[crossing], a[crossing]
            lo, hi = np.zeros(len(ww)), np.ones(len(ww))
            for _ in range(60):
                mid = (lo + hi) / 2
                ok = inside(omega1_boundary_values(points(mid[:, None] * ww, a))[which])
                lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
            u = np.concatenate([t[:, None] * ww for t in (lo - 1e-14, lo, hi, hi + 1e-14)])
            a = np.tile(a, (4, 1))
            near = omega1_boundary_values(points(u, a))[which]
            assert np.all(np.abs(near) < 1e-12) and np.any(near > 0) and np.any(near < 0)
            return u, a

        u, a = plant(angles, 0, lambda p1: p1 > 0)
        judged = omega1_membership(points(u, a))
        assert np.any(judged) and np.any(~judged)
        assert np.array_equal(self._screened_membership(u, a), judged)
        self._assert_screens_agree(u, a)
        u, a = plant(flat, 1, lambda p2: p2 < 0)
        judged = omega1_membership(points(u, a))
        assert np.max(omega1_boundary_values(points(u, a))[0]) < 0 and not np.any(judged)
        assert np.array_equal(self._screened_membership(u, a), judged)
        self._assert_screens_agree(u, a)

    def test_screen_at_its_margin_where_the_bound_is_tight(self):
        # At zero total phase the cosine is 1 and the bound stage evaluates
        # P1 itself; plant proposals on both sides of {P1 = -SCREEN_MARGIN}
        # there, a few units of rounding apart, where a bound that rounded
        # below P1 would drop a survivor of the one-stage screen.
        rng = np.random.default_rng(91)
        w = rng.uniform(size=(4000, 3))
        w /= np.max(w, axis=1, keepdims=True)
        a = rng.uniform(0.0, 2.0 * math.pi, size=(4000, 2))
        a = np.column_stack([a, np.mod(-a[:, 0] - a[:, 1], 2 * math.pi)])
        assert np.all(np.cos(a[:, 0] + a[:, 1] + a[:, 2]) == 1.0)

        def kept(t):
            return self._one_stage_screen(t[:, None] * w, a)

        crossing = ~kept(np.ones(len(w)))  # rays that leave the screen in the polydisc
        w, a = w[crossing], a[crossing]
        lo, hi = np.zeros(len(w)), np.ones(len(w))
        for _ in range(60):
            mid = (lo + hi) / 2
            ok = kept(mid)
            lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
        ts = [lo, hi]
        for _ in range(3):
            ts = [np.nextafter(ts[0], 0.0), *ts, np.nextafter(ts[-1], 1.0)]
        u = np.concatenate([t[:, None] * w for t in ts])
        a = np.tile(a, (len(ts), 1))
        reference = self._one_stage_screen(u, a)
        assert 0.2 < reference.mean() < 0.8
        self._assert_screens_agree(u, a)

    def test_rejection_memory_is_bounded(self):
        # A round of 200,000 proposals takes 9.2 MiB as whole arrays of
        # moduli and angles; the streamed round holds one block of each.
        sample_omega1(Fraction(11, 2), 200, 3)  # import-time and first-call allocations
        tracemalloc.start()
        try:
            sample_omega1(Fraction(11, 2), 200, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_mcmc_and_agreement(self):
        lam = Fraction(11, 2)
        rej = sample_omega1(lam, 30_000, 41)
        mc = sample_omega1(lam, 3000, 43, method="mcmc", step=0.25)
        assert mc.stats["ess"] >= 100
        assert 0.1 < mc.stats["move_acceptance"] < 0.6
        funcs = {"S1": lambda pts: (pts * pts.conjugate()).real.sum(axis=1)}
        a = estimate_moments(rej, funcs)["S1"]
        b = estimate_moments(mc, funcs)["S1"]
        assert abs(a.mean - b.mean) < 4 * math.hypot(a.standard_error, b.standard_error)

    @pytest.mark.parametrize("lam,digest,acceptance", [
        (Fraction(11, 2), "707b76099854ae8074a0b95105080413cc0b7aa9beda7c26e73dbabc844864d6",
         0.2412857142857143),
        (Fraction(13, 2), "91a7e1668d74840ed350b973001e9f81076ebc6f1e6e0e55f22f1fbfc7c8d653",
         0.25485714285714284),
    ], ids=["beta-zero", "beta-one-third"])
    def test_mcmc_stream_is_pinned(self, lam, digest, acceptance):
        # Computed with omega1_membership/omega1_boundary_values as the log
        # density; the scalar one must reproduce the chain bit for bit.
        mc = sample_omega1(lam, 1000, 43, method="mcmc", step=0.25, burn_in=2000, thinning=5)
        assert hashlib.sha256(mc.points.tobytes()).hexdigest() == digest
        assert mc.stats["move_acceptance"] == acceptance

    @staticmethod
    def _former_mcmc(lam, n, seed, step, burn_in, thinning):
        """The chain as it was drawn, acceptance uniform from rng.uniform()."""
        rng = np.random.default_rng(seed)
        beta = float((2 * lam - 11) / 6)
        current = (0j, 0j, 0j)
        current_logp = beta * _omega1_log_p1(*current)
        kept, moves = [], 0
        for it in range(burn_in + n * thinning):
            d = rng.normal(scale=step, size=6).tolist()
            proposal = tuple(complex(z.real + d[i], z.imag + d[i + 3])
                             for i, z in enumerate(current))
            log_p1 = _omega1_log_p1(*proposal)
            if log_p1 > -math.inf and math.log(rng.uniform()) < beta * log_p1 - current_logp:
                current, current_logp = proposal, beta * log_p1
                moves += 1
            if it >= burn_in and (it - burn_in) % thinning == 0 and len(kept) < n:
                kept.append(current)
        return np.array(kept), moves / (burn_in + n * thinning)

    @pytest.mark.parametrize("seed", [43, 59])
    def test_mcmc_matches_former_loop(self, seed):
        lam = Fraction(13, 2)
        mc = sample_omega1(lam, 1000, seed, method="mcmc", step=0.25, burn_in=2000, thinning=5)
        points, acceptance = self._former_mcmc(lam, 1000, seed, 0.25, 2000, 5)
        assert np.array_equal(mc.points.view(np.uint64), points.view(np.uint64))
        assert mc.stats["move_acceptance"] == acceptance

    def test_mcmc_zero_uniform_accepts_the_move(self, monkeypatch):
        # A uniform draw of exactly 0.0 (probability 2^-53 per in-domain
        # step) has log -inf and must accept the move, not raise.
        real_rng = np.random.default_rng

        class Stub:
            """The real stream, with the uniform draw of step zero_at read as 0.0."""

            def __init__(self, seed, zero_at=None):
                self.rng, self.zero_at, self.step, self.uniform_steps = real_rng(seed), zero_at, -1, []

            def normal(self, *args, **kwargs):
                self.step += 1
                return self.rng.normal(*args, **kwargs)

            def random(self):
                self.uniform_steps.append(self.step)
                u = self.rng.random()  # drawn either way: the stream stays as it is
                return 0.0 if self.step == self.zero_at else u

        def chain(zero_at):
            stubs = []
            monkeypatch.setattr(np.random, "default_rng",
                                lambda seed: stubs.append(Stub(seed, zero_at)) or stubs[-1])
            mc = sample_omega1(Fraction(13, 2), 6000, 43, method="mcmc", step=0.25,
                               burn_in=0, thinning=1)
            monkeypatch.undo()
            return mc.points, stubs[0].uniform_steps

        points, uniform_steps = chain(None)
        # The first in-domain step whose move the real draw rejects.
        rejected = next(i for i in uniform_steps if i and np.array_equal(points[i], points[i - 1]))
        forced, _ = chain(rejected)
        assert np.array_equal(forced[:rejected], points[:rejected])
        assert not np.array_equal(forced[rejected], forced[rejected - 1])

    def test_scalar_log_density_matches_array_path(self):
        rng = np.random.default_rng(67)
        # The bulk reaches past the polydisc, where some points have P1 > 0
        # and P2 < 0 and only max |z_i| < 1 rules them out.
        bulk = rng.uniform(-1.2, 1.2, (20_000, 3)) + 1j * rng.uniform(-1.2, 1.2, (20_000, 3))
        # Points within 1e-12 of {P1 = 0}: bisect P1 along rays from the
        # origin (P1(0) = 1), then step 1e-12 to either side.
        rays = rng.normal(size=(200, 3)) + 1j * rng.normal(size=(200, 3))
        rays /= np.max(np.abs(rays), axis=1, keepdims=True)
        lo, hi = np.zeros(200), np.ones(200)
        for _ in range(60):
            mid = (lo + hi) / 2
            inside = omega1_boundary_values(mid[:, None] * rays)[0] > 0
            lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
        near_p1 = [t[:, None] * rays for t in (lo - 1e-12, lo, hi, hi + 1e-12)]
        # Points within 1e-12 of |z_1| = 1, the other coordinates small.
        rim = rng.normal(size=(200, 3)) + 1j * rng.normal(size=(200, 3))
        rim[:, 1:] *= 1e-3
        near_rim = [rim * ((1 + eps) / np.abs(rim[:, :1])) for eps in (-1e-12, 0.0, 1e-12)]
        cloud = np.concatenate([bulk, *near_p1, *near_rim])
        member = omega1_membership(cloud)
        p1, p2 = omega1_boundary_values(cloud)
        assert np.any(member & (p1 < 1e-11)) and np.any(~member & (p1 > -1e-11))
        assert np.any((p1 > 1e-14) & (p2 < 0) & ~member)
        for point, inside, value in zip(cloud.tolist(), member, p1):
            log_p1 = _omega1_log_p1(*point)
            assert (log_p1 > -math.inf) == inside
            if inside:
                # numpy may fuse a multiply-add where Python rounds twice;
                # P1 sums terms up to about 30 in size, a few ulps of which
                # stay under 1e-14.
                assert abs(math.exp(log_p1) - value) < 1e-14

    def test_mcmc_ess_guard(self):
        with pytest.raises(SamplingError):
            sample_omega1(Fraction(11, 2), 500, 47, method="mcmc",
                          step=1e-5, burn_in=100, thinning=1)

    def test_phi_theta_invariance(self):
        batch = sample_omega1(Fraction(11, 2), 30_000, 53)
        funcs = {
            "re_z1": lambda pts: pts[:, 0].real,
            "abs_sum": lambda pts: np.abs(pts.sum(axis=1)) ** 2,
        }
        base = estimate_moments(batch, funcs)
        rotated_batch = sample_omega1(Fraction(11, 2), 30_000, 53)
        from dataclasses import replace

        rotated_batch = replace(
            rotated_batch, points=phi_theta(rotated_batch.points, ThetaPair(0.7, 1.9))
        )
        rot = estimate_moments(rotated_batch, funcs)
        for key in funcs:
            comb = math.hypot(base[key].standard_error, rot[key].standard_error)
            assert abs(base[key].mean - rot[key].mean) < 4 * comb


def test_estimate_moments_constant():
    batch = sample_torus(100, 3)
    out = estimate_moments(batch, {"one": lambda pts: np.ones(len(pts))})["one"]
    assert out.mean == 1.0 and out.standard_error == 0.0


def test_pushforward_refuses_an_su3_batch():
    # SU(3) traces are read through su3_trace_blocks; no deltoid pushforward takes the matrices.
    with pytest.raises(ValueError, match="'su3'"):
        pushforward_deltoid(sample_su3_haar(4, 1))


def test_moment_consistency_api():
    batch = sample_torus(50_000, 3)
    zs = pushforward_deltoid(batch)
    est = estimate_moments(batch, {"abs_z_sq": lambda pts: np.abs(
        (np.exp(1j * pts[:, 0]) + np.exp(1j * pts[:, 1]) + np.exp(-1j * (pts[:, 0] + pts[:, 1]))) / 3.0
    ) ** 2})["abs_z_sq"]
    assert abs(est.mean - float(np.mean(np.abs(zs) ** 2))) <= 0.1 * est.standard_error


def _standard_error_oracle(values: np.ndarray, correlated: bool) -> float:
    """The standard error as written before MomentEstimate.of held it."""
    n = len(values)
    if n < 2:
        return 0.0
    if not correlated:
        return float(values.std(ddof=1) / math.sqrt(n))
    n_batches = min(32, max(2, n // 4))
    m = n // n_batches
    trimmed = values[: m * n_batches].reshape(n_batches, m)
    return float(trimmed.mean(axis=1).std(ddof=1) / math.sqrt(n_batches))


def _batch_means_ess_oracle(values: np.ndarray) -> float:
    """The effective sample size as written before _batch_means was shared."""
    m = len(values) // 32
    if m < 2:
        return float(len(values))
    batch_means = values[: m * 32].reshape(32, m).mean(axis=1)
    var_bm = batch_means.var(ddof=1) / 32
    if var_bm <= 0:
        return float(len(values))
    return float(values.var(ddof=1) / var_bm)


def _ar1_series(n: int, seed: int) -> np.ndarray:
    """A strongly autocorrelated series, like an MCMC trace."""
    noise = np.random.default_rng(seed).standard_normal(n)
    out = np.empty(n)
    out[0] = noise[0]
    for i in range(1, n):
        out[i] = 0.9 * out[i - 1] + noise[i]
    return out


@pytest.mark.parametrize("n", [1, 2, 7, 100, 1001, 4099])
@pytest.mark.parametrize("correlated", [False, True], ids=["independent", "correlated"])
def test_moment_estimate_matches_the_old_formulas_bit_for_bit(n, correlated):
    values = _ar1_series(n, 71) if correlated else np.random.default_rng(71).uniform(size=n)
    est = MomentEstimate.of(values, correlated)
    assert est.n == n
    assert est.mean == float(values.mean())
    assert est.standard_error == _standard_error_oracle(values, correlated)


def test_moment_estimate_z():
    exact = MomentEstimate(0.25, 0.0, 10)
    assert exact.z(MomentEstimate(0.25, 0.0, 10)) == 0.0
    a, b = MomentEstimate(1.0, 0.3, 100), MomentEstimate(0.5, 0.4, 100)
    assert a.z(b) == b.z(a) == 0.5 / math.hypot(0.3, 0.4)


@pytest.mark.parametrize("n", [40, 64, 1000, 4000])
def test_batch_means_ess_unchanged(n):
    values = _ar1_series(n, 73)
    assert _batch_means_ess(values) == _batch_means_ess_oracle(values)
