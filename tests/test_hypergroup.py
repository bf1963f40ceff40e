import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from deltoid_lab.hypergroup import (
    CONTRACTION_BOUND,
    ProbeContext,
    block_cross_correlations,
    coverage_check,
    delta_report,
    estimate_markov_matrix,
    exact_markov_matrix,
    markov_pair_exact,
    positivity_scan,
    representation_check,
    rotation_delta_exact,
    theta_grid,
)
from deltoid_lab.models import ThetaPair, deltoid_boundary_values, phi_theta, z_of_theta
from deltoid_lab.poly import EVAL_CHUNK, CompiledPolys, MPoly, streamed_mean_se
from deltoid_lab.quadrature import TorusGrid
from deltoid_lab.sampling import MomentEstimate, sample_omega1
from deltoid_lab.spectral import eigenvalue_deltoid, pq_polys

LAM = Fraction(11, 2)


@pytest.fixture(scope="module")
def ctx():
    return ProbeContext.build(LAM, 3, grid_n=64)


@pytest.fixture(scope="module")
def batch():
    return sample_omega1(LAM, 60_000, 404, method="rejection")


class TestExactEntries:
    def test_theta_zero(self, ctx):
        alpha, gamma = markov_pair_exact(ctx, 1, 0, ThetaPair(0.0, 0.0))
        assert alpha == pytest.approx(1.0)
        assert gamma == pytest.approx(0.0)

    def test_constant_index_is_trivial(self):
        # The constant eigenfunction is untouched by the kernel: its ratio
        # pair is (1, 0) for every theta.
        from deltoid_lab.models import z_of_theta
        from deltoid_lab.spectral import eigen_PQ_lambda

        p_hat, q_hat = eigen_PQ_lambda(LAM, 0, 0)
        for theta in (ThetaPair(0.0, 0.0), ThetaPair(1.3, 2.7)):
            z = z_of_theta(theta.t1, theta.t2)
            denom = p_hat.poly.evaluate_exact({"Z": 1, "Zb": 1}).rational_value()
            alpha = complex(p_hat.poly.evaluate({"Z": z, "Zb": np.conj(z)})).real / float(denom)
            assert alpha == pytest.approx(1.0)
            assert q_hat.poly.is_zero()

    def test_parity(self, ctx):
        plus = markov_pair_exact(ctx, 2, 1, ThetaPair(1.0, 2.0))
        minus = markov_pair_exact(ctx, 2, 1, ThetaPair(-1.0, -2.0))
        assert plus[0] == pytest.approx(minus[0])   # alpha even
        assert plus[1] == pytest.approx(-minus[1])  # gamma odd

    def test_rotation_scaling_at_cusp_image(self, ctx):
        # Z(2 pi/3, 2 pi/3) = j: the pair scales by j**(n-k).
        theta = ThetaPair(2 * math.pi / 3, 2 * math.pi / 3)
        for n, k in ((1, 0), (2, 0)):
            alpha, gamma = markov_pair_exact(ctx, n, k, theta)
            expected = np.exp(2j * math.pi * (n - k) / 3)
            assert complex(alpha, gamma) == pytest.approx(expected)

    def test_rotation_delta(self, ctx):
        theta = ThetaPair(0.8, 1.7)
        assert rotation_delta_exact(ctx, 3, 0, theta) is None  # class 0
        alpha, _ = markov_pair_exact(ctx, 2, 1, theta)
        assert rotation_delta_exact(ctx, 2, 1, theta) == pytest.approx(alpha)

    def test_remark_value_disagrees_with_delta_at_zero(self, ctx, batch):
        # The printed cot-prefactor form cannot be right: at theta = 0 the
        # kernel is the identity, so delta = 1, while the form gives
        # cot(2 pi (n-k)/3) ~ +-0.577.
        rep = delta_report(ctx, 1, 0, ThetaPair(0.0, 0.0), batch)
        assert rep["rotation_derived"] == pytest.approx(1.0)
        assert rep["cot_closed_form"] == pytest.approx(-1.0 / math.sqrt(3.0))
        assert abs(rep["cot_closed_form"] - 1.0) > 0.4


def old_verify_worst_z(ctx, thetas, batch):
    """The hand-written comparison verify used before MarkovMatrix.z_scores."""
    worst_z = 0.0
    for theta in thetas:
        for n, k in ctx.pairs:
            est = estimate_markov_matrix(ctx, n, k, theta, batch)
            alpha, gamma_val = markov_pair_exact(ctx, n, k, theta)
            worst_z = max(worst_z, abs(est.alpha - alpha) / est.provenance["alpha"][1])
            if n != k:
                worst_z = max(
                    worst_z,
                    abs(est.gamma - gamma_val) / est.provenance["gamma"][1],
                    abs(est.beta - (-gamma_val)) / est.provenance["beta"][1],
                )
                d_rot = rotation_delta_exact(ctx, n, k, theta)
                if d_rot is not None:
                    worst_z = max(worst_z, abs(est.delta - d_rot) / est.provenance["delta"][1])
    return worst_z


class TestZScores:
    THETA = ThetaPair(1.0, 2.0)

    def blocks(self, ctx, batch, n, k):
        return (estimate_markov_matrix(ctx, n, k, self.THETA, batch),
                exact_markov_matrix(ctx, n, k, self.THETA))

    @pytest.mark.parametrize("index,compared", [
        ((1, 1), {"alpha"}),
        ((3, 0), {"alpha", "beta", "gamma"}),
        ((2, 1), {"alpha", "beta", "gamma", "delta"}),
    ], ids=["n-equals-k", "n-congruent-k", "generic"])
    def test_compared_entries(self, ctx, batch, index, compared):
        est, exact = self.blocks(ctx, batch, *index)
        assert set(est.z_scores(exact)) == compared

    def test_n_equals_k_entries_are_exact_zeros(self, ctx, batch):
        est, _ = self.blocks(ctx, batch, 1, 1)
        for name in ("beta", "gamma", "delta"):
            assert getattr(est, name) == 0.0 and est.provenance[name] == ("exact", 0.0)

    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "delta"])
    def test_corrupted_exact_entry_is_flagged(self, ctx, batch, name):
        est, exact = self.blocks(ctx, batch, 2, 1)
        clean = est.z_scores(exact)
        corrupted = est.z_scores(dataclasses.replace(exact, **{name: getattr(exact, name) + 0.5}))
        assert clean[name] < 4 < corrupted[name]
        assert {key: z for key, z in corrupted.items() if key != name} == {
            key: z for key, z in clean.items() if key != name}

    def test_zero_standard_error_raises(self, ctx, batch):
        est, exact = self.blocks(ctx, batch, 2, 1)
        provenance = dict(est.provenance, gamma=("estimated", 0.0))
        with pytest.raises(ZeroDivisionError):
            dataclasses.replace(est, provenance=provenance).z_scores(exact)

    def test_worst_z_bit_equal_to_hand_written_loop(self, ctx, batch):
        thetas = theta_grid(2)
        new = max(z for theta in thetas for n, k in ctx.pairs for z in estimate_markov_matrix(
            ctx, n, k, theta, batch).z_scores(exact_markov_matrix(ctx, n, k, theta)).values())
        assert new == old_verify_worst_z(ctx, thetas, batch)


class TestEstimation:
    def test_matches_exact_within_four_sigma(self, ctx, batch):
        for theta in (ThetaPair(1.0, 2.0), ThetaPair(2.5, 0.7)):
            for n, k in ctx.pairs:
                est = estimate_markov_matrix(ctx, n, k, theta, batch)
                assert max(est.z_scores(exact_markov_matrix(ctx, n, k, theta)).values()) < 4

    def test_delta_report_sides_with_rotation(self, ctx, batch):
        theta = ThetaPair(1.0, 2.0)
        rep = delta_report(ctx, 2, 1, theta, batch)
        mc, se = rep["monte_carlo"], rep["monte_carlo_se"]
        assert abs(mc - rep["rotation_derived"]) < 4 * se
        assert abs(mc - rep["cot_closed_form"]) > 4 * se

    def test_block_cross_correlations_vanish(self, ctx, batch):
        crosses = block_cross_correlations(ctx, ThetaPair(1.3, 2.9), batch)
        assert crosses
        for c in crosses:
            assert abs(c["correlation"]) < 4.5 * c["standard_error"]
        # The rotated side of each pair is the function of the smaller index (n, k).
        assert all(first[1:] < second[1:] for first, second in (c["pair"] for c in crosses))

    def test_requires_omega1_batch(self, ctx):
        from deltoid_lab.sampling import sample_torus

        theta = ThetaPair(1.0, 2.0)
        with pytest.raises(ValueError, match="lifted-domain"):
            estimate_markov_matrix(ctx, 1, 0, theta, sample_torus(10, 1))
        with pytest.raises(ValueError, match="lifted-domain"):
            block_cross_correlations(ctx, theta, sample_torus(10, 1))
        # An MCMC chain is a correlated series; the probe's errors are those of
        # independent points, so both entry points refuse it.
        chain = sample_omega1(4, 200, 20260821, method="mcmc")
        assert chain.correlated
        with pytest.raises(ValueError, match="rejection"):
            estimate_markov_matrix(ctx, 1, 0, theta, chain)
        with pytest.raises(ValueError, match="rejection"):
            block_cross_correlations(ctx, theta, chain)

    def test_cross_list_bit_equal_to_pq_polys_list(self, ctx, batch):
        # The list as it was built from spectral.pq_polys and eigenvalue_deltoid;
        # each block of EVAL_CHUNK points gives its sums of the unit-norm pair
        # products and of their squares as matrix products, and streamed_mean_se
        # combines the blocks' (size, mean, M2).
        theta = ThetaPair(1.3, 2.9)
        base = ctx.batch_values(batch)
        rotated = ctx.basis.real_values(phi_theta(batch.points, theta).mean(axis=1))
        functions = []
        for e in sorted(pq_polys(ctx.lam, ctx.degree_max), key=lambda e: (e.n, e.k)):
            flavor, n, k = e.flavor, e.n, e.k
            row = "PQ".index(flavor)
            scale = math.sqrt(ctx.norms2[(n, k)][row])
            functions.append(((flavor, n, k), eigenvalue_deltoid(ctx.lam, n, k),
                              ctx.split(rotated, n, k)[row] / scale,
                              ctx.split(base, n, k)[row] / scale))
        labels, first, second = [], [], []
        for i, (label1, mu1, _, _) in enumerate(functions):
            for j, (label2, mu2, _, _) in enumerate(functions[i + 1:], i + 1):
                if mu1 != mu2:
                    labels.append((label1, label2))
                    first.append(i)
                    second.append(j)
        rot_rows = np.array([f[2] for f in functions])
        base_rows = np.array([f[3] for f in functions])

        def moments():
            for start in range(0, len(batch), EVAL_CHUNK):
                u = rot_rows[:, start:start + EVAL_CHUNK].copy()
                v = base_rows[:, start:start + EVAL_CHUNK].copy()
                s1 = (u @ v.T)[first, second]
                s2 = (np.square(u) @ np.square(v).T)[first, second]
                mean = s1 / u.shape[1]
                yield u.shape[1], mean, s2 - u.shape[1] * (mean * mean)

        mean, se = streamed_mean_se(moments())
        expected = [{"pair": pair, "correlation": m, "standard_error": e}
                    for pair, m, e in zip(labels, mean.tolist(), se.tolist())]
        assert block_cross_correlations(ctx, theta, batch) == expected


def former_estimate(ctx, n, k, theta, batch):
    """estimate_markov_matrix as it was: one MomentEstimate.of per entry, on the
    basis values at phi_theta(points, theta).mean(axis=1) and at the batch."""
    p_base, q_base = ctx.split(ctx.basis.real_values(batch.points.mean(axis=1)), n, k)
    p_rot, q_rot = ctx.split(ctx.basis.real_values(phi_theta(batch.points, theta).mean(axis=1)),
                             n, k)
    p_norm2, q_norm2 = ctx.norms2[(n, k)]
    terms = [("alpha", p_rot, p_base, p_norm2)]
    if n != k:
        terms += [("beta", p_rot, q_base, q_norm2), ("gamma", q_rot, p_base, p_norm2),
                  ("delta", q_rot, q_base, q_norm2)]
    entries = {}
    for name, u_vals, v_vals, v_norm2 in terms:
        est = MomentEstimate.of(u_vals * v_vals, batch.correlated)
        entries[name] = (est.mean / v_norm2, est.standard_error / v_norm2)
    return entries


class TestBlockedPass:
    """ProbeContext.correlations: one streamed pass per batch and theta."""

    @staticmethod
    def close(got, expected):
        return abs(got - expected) <= 1e-12 * abs(expected)

    @pytest.fixture(scope="class")
    def large_batch(self):
        return sample_omega1(LAM, 100_000, 408, method="rejection")

    def test_entries_match_moment_estimates(self, large_batch):
        # Block sums from matrix products against the two-pass MomentEstimate.of,
        # every entry at every theta of theta_grid(5), at verify's probe degree.
        ctx = ProbeContext.build(LAM, 4, grid_n=64)
        batch = large_batch
        assert len(batch) % EVAL_CHUNK and len(batch) > 3 * EVAL_CHUNK
        base = ctx.basis.real_values(batch.points.mean(axis=1))
        thetas = theta_grid(5)
        assert len(thetas) == 25
        for theta in thetas:
            rotated = ctx.basis.real_values(phi_theta(batch.points, theta).mean(axis=1))
            mean, se = ctx.correlations(batch, theta)
            assert mean.shape == se.shape == (len(ctx.pairs), 2, 2)
            for i, (n, k) in enumerate(ctx.pairs):
                for a, u_vals in enumerate(ctx.split(rotated, n, k)):
                    for b, v_vals in enumerate(ctx.split(base, n, k)):
                        est = MomentEstimate.of(u_vals * v_vals)
                        assert self.close(mean[i, a, b], est.mean), (theta, n, k, a, b)
                        assert self.close(se[i, a, b], est.standard_error), (theta, n, k, a, b)
        for theta in thetas[:3]:
            for n, k in ctx.pairs:
                got = estimate_markov_matrix(ctx, n, k, theta, batch)
                for name, (value, error) in former_estimate(ctx, n, k, theta, batch).items():
                    assert self.close(getattr(got, name), value)
                    assert self.close(got.provenance[name][1], error)

    def test_one_point_last_block(self, ctx, batch):
        # S2 - mean^2 of a single value rounds to either sign; its M2 is 0.
        short = dataclasses.replace(batch, points=batch.points[:EVAL_CHUNK + 1])
        theta = ThetaPair(1.0, 2.0)
        mean, se = ctx.correlations(short, theta)
        rotated = ctx.basis.real_values(phi_theta(short.points, theta).mean(axis=1))
        base = ctx.basis.real_values(short.points.mean(axis=1))
        for i, (n, k) in enumerate(ctx.pairs):
            u_vals, v_vals = ctx.split(rotated, n, k)[0], ctx.split(base, n, k)[0]
            est = MomentEstimate.of(u_vals * v_vals)
            assert self.close(mean[i, 0, 0], est.mean) and self.close(se[i, 0, 0], est.standard_error)
        assert block_cross_correlations(ctx, theta, short)

    def test_memo_follows_theta_and_batch(self, batch):
        ctx = ProbeContext.build(LAM, 3, grid_n=64)
        fresh = ProbeContext.build(LAM, 3, grid_n=64)
        first, second = ThetaPair(1.0, 2.0), ThetaPair(2.5, 0.7)
        result = ctx.correlations(batch, first)
        assert ctx.correlations(batch, first) is result
        other_theta = ctx.correlations(batch, second)
        assert other_theta is not result
        assert all(np.array_equal(x, y) for x, y in zip(other_theta,
                                                        fresh.correlations(batch, second)))
        # An equal batch in a new object is a new batch to the memo.
        copy = dataclasses.replace(batch, points=batch.points.copy())
        again = ctx.correlations(copy, second)
        assert again is not other_theta
        assert all(np.array_equal(x, y) for x, y in zip(again, other_theta))


class TestBatchMemo:
    """The per-batch memo must give what a fresh context computes."""

    @staticmethod
    def fresh(theta, batch):
        other = ProbeContext.build(LAM, 3, grid_n=64)
        return {(n, k): estimate_markov_matrix(other, n, k, theta, batch) for n, k in other.pairs}

    def test_one_batch_two_thetas_and_two_batches_one_theta(self, batch):
        ctx = ProbeContext.build(LAM, 3, grid_n=64)
        second = sample_omega1(LAM, 5_000, 405, method="rejection")
        first_theta, second_theta = ThetaPair(1.0, 2.0), ThetaPair(2.5, 0.7)
        for theta, sample in ((first_theta, batch), (second_theta, batch),
                              (second_theta, second), (second_theta, batch)):
            expected = self.fresh(theta, sample)
            for n, k in ctx.pairs:
                assert estimate_markov_matrix(ctx, n, k, theta, sample) == expected[(n, k)]

    def test_cross_correlations_follow_the_batch(self, batch):
        ctx = ProbeContext.build(LAM, 3, grid_n=64)
        second = sample_omega1(LAM, 5_000, 406, method="rejection")
        theta = ThetaPair(1.3, 2.9)
        block_cross_correlations(ctx, theta, batch)
        fresh = ProbeContext.build(LAM, 3, grid_n=64)
        assert (block_cross_correlations(ctx, theta, second)
                == block_cross_correlations(fresh, theta, second))

    def test_memo_values_are_read_only(self, ctx, batch):
        p_base, _ = ctx.split(ctx.batch_values(batch), 1, 0)
        with pytest.raises(ValueError):
            p_base[0] = 0.0

    def test_eval_pair_matches_polynomials(self, ctx):
        z = np.array([0.3 + 0.1j, -0.2 - 0.4j, 0.9 + 0.0j])
        for (n, k), (p_hat, q_hat) in ctx.pairs.items():
            p_vals, q_vals = ctx.eval_pair(n, k, z)
            point = {"Z": z, "Zb": np.conj(z)}
            assert np.allclose(p_vals, np.real(p_hat.poly.evaluate(point)), rtol=1e-12, atol=1e-14)
            assert np.allclose(q_vals, np.real(q_hat.poly.evaluate(point)), rtol=1e-12, atol=1e-14)


def test_warm_build_makes_no_polynomial_products(monkeypatch):
    # The probe reads the deltoid operator's cache entry by lambda, so a warm
    # build neither rebuilds deltoid_model(lambda) nor multiplies polynomials.
    ProbeContext.build(Fraction(11, 2), 4)
    products = []
    mul = MPoly.__mul__
    monkeypatch.setattr(MPoly, "__mul__", lambda f, g: products.append((f, g)) or mul(f, g))
    monkeypatch.setattr(MPoly, "__rmul__", MPoly.__mul__)
    ProbeContext.build(Fraction(11, 2), 4)
    assert len(products) == 0


def test_basis_compiles_pq_polys():
    # One P-hat/Q-hat list: the basis is pq_polys compiled, without the zero
    # Q-hat(n, n), and split reads that Q-hat as zeros.
    polys = pq_polys(LAM, 4)
    ctx = ProbeContext.build(LAM, 4)
    assert len(ctx.basis) == len(polys) == 14
    assert not any(e.poly.is_zero() for e in polys)
    rng = np.random.default_rng(25)
    z = z_of_theta(rng.uniform(0.0, 2.0 * np.pi, 500), rng.uniform(0.0, 2.0 * np.pi, 500))
    values = ctx.basis.real_values(z)
    expected = CompiledPolys([e.poly for e in polys]).real_values(z)
    assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))
    point = {"Z": z, "Zb": np.conj(z)}
    for e in polys:
        row = ctx.split(values, e.n, e.k)[e.flavor == "Q"]
        assert np.allclose(row, np.real(e.poly.evaluate(point)), rtol=1e-12, atol=1e-14)
    for n in (1, 2):
        p_vals, q_vals = ctx.split(values, n, n)
        assert q_vals.shape == p_vals.shape and not q_vals.view(np.uint64).any()
        assert ctx.norms2[(n, n)][1] == 0.0 < ctx.norms2[(n, n)][0]


class TestPositivityAndCoverage:
    def test_scan_contracts(self, ctx):
        scan = positivity_scan(ctx, theta_grid(4))
        assert scan["worst_block_bound"] <= CONTRACTION_BOUND
        assert scan["max_abs_alpha"] <= 1.0 + 1e-9

    def test_theta_zero_is_isometry(self, ctx):
        alpha, gamma = markov_pair_exact(ctx, 1, 0, ThetaPair(0.0, 0.0))
        assert math.hypot(alpha, gamma) == pytest.approx(1.0)

    def test_interior_theta_strict_contraction(self, ctx):
        for n, k in ctx.pairs:
            alpha, gamma = markov_pair_exact(ctx, n, k, ThetaPair(1.0, 2.0))
            assert math.hypot(alpha, gamma) < 1.0

    def test_theta_grid_avoids_degeneracy(self):
        for pair in theta_grid(6):
            assert pair.is_interior(1e-3)

    def test_scan_matches_one_theta_at_a_time(self):
        # The former scan, one markov_pair_exact call per theta and index
        # with its own norm-ratio branch, is the oracle.
        ctx4 = ProbeContext.build(LAM, 4, grid_n=64)
        thetas = theta_grid(5)
        worst = alpha_bound = 0.0
        calls = 0
        for theta in thetas:
            for n, k in ctx4.pairs:
                alpha, gamma = markov_pair_exact(ctx4, n, k, theta)
                calls += 1
                alpha_bound = max(alpha_bound, abs(alpha))
                p_norm2, q_norm2 = ctx4.norms2[(n, k)]
                if n == k:
                    value = abs(alpha)
                elif (n - k) % 3 != 0:
                    value = math.sqrt(alpha * alpha + gamma * gamma)
                else:
                    value = math.sqrt(alpha * alpha + gamma * gamma * p_norm2 / q_norm2)
                worst = max(worst, value)
        assert calls == 200
        scan = positivity_scan(ctx4, thetas)
        assert abs(scan["worst_block_bound"] - worst) <= 1e-15
        assert abs(scan["max_abs_alpha"] - alpha_bound) <= 1e-15

    def test_scan_equals_former_formula(self):
        # The former scan: per index, sqrt(alpha^2 + gamma^2 ||P||^2/||Q||^2)
        # from the leading-coefficient ratios, gamma dropped when n = k.
        ctx4 = ProbeContext.build(LAM, 4, grid_n=64)
        thetas = theta_grid(5)
        values = ctx4.basis.real_values(z_of_theta([t.t1 for t in thetas], [t.t2 for t in thetas]))
        scan = positivity_scan(ctx4, thetas)
        for n, k in ctx4.pairs:
            denom = float(ctx4.p_at_one[(n, k)])
            p_vals, q_vals = ctx4.split(values, n, k)
            alpha, gamma = p_vals / denom, q_vals / denom
            p_norm2, q_norm2 = ctx4.norms2[(n, k)]
            ratio2 = 0.0 if n == k else p_norm2 / q_norm2
            bound = float(np.max(np.sqrt(alpha * alpha + gamma * gamma * ratio2)))
            assert abs(scan["block_bounds"][(n, k)] - bound) <= 1e-15
            assert scan["max_abs_alphas"][(n, k)] == float(np.max(np.abs(alpha)))
        assert scan["worst_block_bound"] == max(scan["block_bounds"].values())
        assert scan["max_abs_alpha"] == max(scan["max_abs_alphas"].values())

    @staticmethod
    def former_scan(ctx, thetas):
        """positivity_scan as it was: representation_check on the measures np.eye(T)."""
        z = z_of_theta([theta.t1 for theta in thetas], [theta.t2 for theta in thetas])
        rep = representation_check(ctx, z, np.eye(len(z)))
        bounds = {index: math.sqrt(float(np.max(norm_sq, initial=0.0)))
                  for index, norm_sq in rep["row_norm_sq"].items()}
        alphas = {index: float(np.max(np.abs(a), initial=0.0))
                  for index, (a, _) in rep["coefficients"].items()}
        return {"block_bounds": bounds, "max_abs_alphas": alphas,
                "worst_block_bound": max(bounds.values()), "max_abs_alpha": max(alphas.values())}

    @pytest.mark.parametrize("per_axis", [5, 20])
    def test_scan_equals_identity_measures(self, per_axis):
        ctx4 = ProbeContext.build(LAM, 4, grid_n=64)
        thetas = theta_grid(per_axis)
        assert positivity_scan(ctx4, thetas) == self.former_scan(ctx4, thetas)

    def test_scan_memory_is_bounded(self):
        # The identity measures alone took T^2 doubles: about 100 MiB here.
        ctx4 = ProbeContext.build(LAM, 4, grid_n=64)
        thetas = theta_grid(60)
        positivity_scan(ctx4, theta_grid(2))
        tracemalloc.start()
        try:
            positivity_scan(ctx4, thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @staticmethod
    def former_coverage(theta_per_axis, omega_per_axis):
        """coverage_check as it was: the whole theta meshgrid at once."""
        two_pi = 2.0 * math.pi
        ts = np.arange(theta_per_axis) * two_pi / theta_per_axis
        t1, t2 = np.meshgrid(ts, ts, indexing="ij")
        z = z_of_theta(t1, t2).ravel()
        x_lo, x_hi = -0.5, 1.0
        y_hi = math.sqrt(3.0) / 2.0
        top = omega_per_axis - 1
        xs = np.clip(((z.real - x_lo) / (x_hi - x_lo) * omega_per_axis).astype(int), 0, top)
        ys = np.clip(((z.imag + y_hi) / (2.0 * y_hi) * omega_per_axis).astype(int), 0, top)
        hit = np.zeros((omega_per_axis, omega_per_axis), dtype=bool)
        hit[xs, ys] = True
        centers_x = x_lo + (np.arange(omega_per_axis) + 0.5) * (x_hi - x_lo) / omega_per_axis
        centers_y = -y_hi + (np.arange(omega_per_axis) + 0.5) * (2.0 * y_hi) / omega_per_axis
        cx, cy = np.meshgrid(centers_x, centers_y, indexing="ij")
        interior = np.asarray(deltoid_boundary_values(cx + 1j * cy)) > 0.0
        return {"interior_cells": int(interior.sum()),
                "missed_cells": int(np.count_nonzero(interior & ~hit))}

    @pytest.mark.parametrize("theta_n,omega_n", [(600, 100), (300, 2), (300, 50)]
                             + [(60, size) for size in range(1, 8)])
    def test_blocked_coverage_equals_meshgrid(self, theta_n, omega_n):
        assert coverage_check(theta_n, omega_n) == self.former_coverage(theta_n, omega_n)

    def test_coverage(self):
        cov = coverage_check(300, 50)
        assert cov["interior_cells"] > 0 and cov["missed_cells"] == 0

    def test_coverage_box_reaches_the_cusps(self):
        # Count the interior cell centres of the cusp box [-1/2, 1] x
        # [-sqrt(3)/2, sqrt(3)/2] one cell at a time.
        per_axis = 40
        height = math.sqrt(3.0)
        count = 0
        for i in range(per_axis):
            for j in range(per_axis):
                x = -0.5 + (i + 0.5) * 1.5 / per_axis
                y = -height / 2 + (j + 0.5) * height / per_axis
                count += deltoid_boundary_values(complex(x, y)) > 0.0
        assert coverage_check(300, per_axis)["interior_cells"] == count

    def test_coverage_without_interior_cells_fails(self, monkeypatch):
        # With every cell centre outside the domain the interior_cells > 0
        # gate is what fails; no omega grid of the cusp box is that coarse.
        import deltoid_lab.hypergroup as hypergroup
        from deltoid_lab.report import Gate

        assert all(coverage_check(60, size)["interior_cells"] > 0 for size in range(1, 8))
        monkeypatch.setattr(hypergroup, "deltoid_boundary_values", lambda z: -np.ones(np.shape(z)))
        cov = coverage_check(300, 2)
        assert cov == {"interior_cells": 0, "missed_cells": 0}
        assert not Gate(cov["interior_cells"], 0, ">").holds()


class TestRepresentation:
    def test_invariant_measure_gives_zero(self, ctx):
        grid = TorusGrid.build(LAM, 64)
        rep = representation_check(ctx, grid.z.ravel(), grid.weight.ravel())
        assert rep["contraction_ok"]
        for a, b in rep["coefficients"].values():
            assert abs(a) < 1e-6 and abs(b) < 1e-6

    def test_point_mass_at_cusp(self, ctx):
        grid = TorusGrid.build(LAM, 64)
        nodes = grid.z.ravel()
        weights = np.zeros(len(nodes))
        weights[int(np.argmin(np.abs(nodes - 1.0)))] = 1.0
        rep = representation_check(ctx, nodes, weights)
        assert rep["contraction_ok"]
        a, b = rep["coefficients"][(1, 0)]
        assert a == pytest.approx(1.0, abs=5e-3)
        assert b == pytest.approx(0.0, abs=5e-3)

    def test_stacked_measures_equal_one_call_per_measure(self, ctx):
        grid = TorusGrid.build(LAM, 64)
        nodes = grid.z.ravel()
        rng = np.random.default_rng(7)
        point_mass = np.zeros(len(nodes))
        point_mass[int(np.argmin(np.abs(nodes - 1.0)))] = 1.0
        measures = np.stack([grid.weight.ravel(), point_mass,
                             rng.random(len(nodes)), rng.random(len(nodes))]).reshape(2, 2, -1)
        stacked = representation_check(ctx, nodes, measures)
        for i in range(2):
            for j in range(2):
                single = representation_check(ctx, nodes, measures[i, j])
                for index, (a, b) in single["coefficients"].items():
                    assert stacked["coefficients"][index][0][i, j] == a
                    assert stacked["coefficients"][index][1][i, j] == b
                assert stacked["worst_row_norm_sq"][i, j] == single["worst_row_norm_sq"]
                assert stacked["contraction_ok"][i, j] == single["contraction_ok"]

    def test_conditional_law_matches_exact_pair(self, ctx, batch):
        # nu = empirical law of pi(Phi_theta xi) conditioned near the cusp
        # is approximated by the exact (alpha, -beta) = (alpha, gamma) pair.
        theta = ThetaPair(1.1, 2.3)
        from deltoid_lab.models import phi_theta, z_of_theta

        z_theta = z_of_theta(theta.t1, theta.t2)
        rep = representation_check(ctx, np.array([z_theta]), np.array([1.0]))
        alpha, gamma = markov_pair_exact(ctx, 1, 0, theta)
        a, b = rep["coefficients"][(1, 0)]
        p_norm2, q_norm2 = ctx.norms2[(1, 0)]
        assert a == pytest.approx(alpha)
        assert b == pytest.approx(gamma * math.sqrt(p_norm2 / q_norm2))


def test_exact_matrix_structure(ctx):
    theta = ThetaPair(0.9, 2.2)
    m = exact_markov_matrix(ctx, 2, 1, theta)
    assert m.beta == -m.gamma
    assert m.delta == m.alpha  # rotation-derived, class (2-1) % 3 != 0
    m0 = exact_markov_matrix(ctx, 3, 0, theta)
    assert math.isnan(m0.delta)
    assert m0.provenance["delta"][0] == "unavailable"
