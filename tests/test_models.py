import math
import re
from fractions import Fraction

import numpy as np
import pytest

from deltoid_lab import models
from deltoid_lab.diffusion import (
    DiffusionModel,
    NotClosedError,
    boundary_ideal_check,
    gamma_apply,
    pushforward,
)
from deltoid_lab.models import (
    DELTOID_VARS,
    G2_RANGES,
    G2_VARS,
    LAMBDA_RANGES,
    MODEL_REGISTRY,
    PSI1_IMAGES,
    PSI_IMAGES,
    SIXDIM_VARS,
    IntegrabilityError,
    ParameterRange,
    ThetaPair,
    constrained_torus_points,
    deltoid_boundary_poly,
    deltoid_boundary_values,
    deltoid_density_exponent,
    deltoid_model,
    flat_torus_model,
    flat_torus_sign_report,
    g2_from_lambda,
    g2_gamma_table,
    g2_model,
    lifted_density_exponent,
    membership_deltoid,
    omega1_boundary_values,
    omega1_membership,
    p1_p2,
    p1_polar_decomposition_residual,
    phi_theta,
    psi1_intertwining_factor,
    q1_q2,
    real_cometric_at,
    sixdim_model,
    su3_gamma_pointwise,
    z_of_theta,
)
from deltoid_lab.poly import CompiledPolys, MPoly, divide_exact, try_divide
from deltoid_lab.report import VerificationReport
from deltoid_lab.scalars import FieldScalar

J = complex(-0.5, math.sqrt(3) / 2)


class TestDeltoidModel:
    def test_table(self):
        m = deltoid_model(4)
        g = MPoly.variables_ring(DELTOID_VARS)
        Z, Zb = g["Z"], g["Zb"]
        assert m.gamma_entry("Z", "Z") == Zb - Z * Z
        assert m.gamma_entry("Zb", "Zb") == Z - Zb * Zb
        assert m.gamma_entry("Z", "Zb") == (1 - Z * Zb) * Fraction(1, 2)
        assert m.drift["Z"] == Z * (-4)

    def test_lambda_positive_required(self):
        needed = LAMBDA_RANGES["model"]
        for lam in (0, Fraction(-1, 2)):
            with pytest.raises(ValueError, match=re.escape(f"{needed.user} needs lambda {needed}")):
                deltoid_model(lam)

    def test_boundary_is_metric_discriminant(self):
        m = deltoid_model(1)
        p = deltoid_boundary_poly()
        assert p == m.gamma_entry("Z", "Zb") ** 2 - m.gamma_entry("Z", "Z") * m.gamma_entry("Zb", "Zb")
        # Orientation: positive inside.
        assert p.constant_term().rational_value() == Fraction(1, 4)

    def test_float_boundary_values_match_the_boundary_poly(self):
        # The float formula drives the quadrature weights, the cusp mask and
        # membership; it must be the polynomial P, which the exact suite proves.
        x, y = np.meshgrid(np.linspace(-1.2, 1.2, 61), np.linspace(-1.2, 1.2, 61))
        z = x + 1j * y
        exact = deltoid_boundary_poly().evaluate({"Z": z, "Zb": np.conj(z)})
        assert np.max(np.abs(deltoid_boundary_values(z) - exact)) < 1e-13
        for cusp in (1.0, J, np.conj(J)):
            assert deltoid_boundary_values(cusp) == 0.0


class TestSixdimModel:
    def test_table_entries(self):
        m = sixdim_model(2)
        g = MPoly.variables_ring(SIXDIM_VARS)
        assert m.gamma_entry("z1", "z2") == g["zb3"] * Fraction(3, 2) - g["z1"] * g["z2"]
        assert m.gamma_entry("z1", "zb1") == (g["z1"] * g["zb1"]) * Fraction(-1, 2) + Fraction(3, 2)
        assert m.gamma_entry("z2", "zb3") == (g["z2"] * g["zb3"]) * Fraction(-1, 2)
        assert m.gamma_entry("z1", "z1") == -(g["z1"] * g["z1"])

    def test_p1_p2_values(self):
        p1, p2 = p1_p2()
        origin = {v: Fraction(0) for v in SIXDIM_VARS}
        assert p1.evaluate_exact(origin).rational_value() == 1
        assert p2.evaluate_exact(origin).rational_value() == -3
        ones = {v: Fraction(1) for v in SIXDIM_VARS}
        assert not p1.evaluate_exact(ones)  # (1,1,1) lies on the boundary

    def test_projection_to_deltoid(self):
        from deltoid_lab.models import PI_IMAGES

        assert pushforward(sixdim_model(3), PI_IMAGES, {"lambda": Fraction(3)}) == deltoid_model(3)

    def test_boundary_cofactors(self):
        m = sixdim_model(2)
        p1, _ = p1_p2()
        cof = boundary_ideal_check(m, p1)
        for v in SIXDIM_VARS:
            assert cof[v] == MPoly.var(SIXDIM_VARS, v) * (-3)

class TestG2Model:
    def test_gamma_table(self):
        m = g2_model(Fraction(-1, 2), Fraction(1, 2))
        g = MPoly.variables_ring(G2_VARS)
        s, p = g["s"], g["p"]
        assert m.gamma_entry("p", "p") == s ** 3 - p * p * 3 - s * p * 3 + p

    def test_drift_family(self):
        lam = Fraction(3)
        m = g2_from_lambda(lam)
        g = MPoly.variables_ring(G2_VARS)
        assert m.drift["s"] == g["s"] * (-lam)
        assert m.drift["p"] == g["p"] * (-(2 * lam + 1)) + 1

    def test_lebesgue_case(self):
        from deltoid_lab.diffusion import divergence_sums

        m = g2_model(0, 0)
        assert dict(m.drift) == divergence_sums(m)

    def test_integrability_conditions(self):
        # The refusal names each violated entry of G2_RANGES, and only those.
        for a1, a2, violated in [
            (Fraction(-1), 0, {"alpha1"}),
            (0, Fraction(-5, 6), {"alpha2"}),
            (Fraction(-3, 4), Fraction(-3, 4), {"alpha1+alpha2"}),
            (Fraction(-1), Fraction(-1), set(G2_RANGES)),
        ]:
            with pytest.raises(IntegrabilityError) as info:
                g2_model(a1, a2)
            named = {key for key, entry in G2_RANGES.items() if f"{key} {entry}" in str(info.value)}
            assert named == violated, str(info.value)

    def test_q1_q2(self):
        q1, q2 = q1_q2()
        g = MPoly.variables_ring(G2_VARS)
        s, p = g["s"], g["p"]
        assert q1 == s * s - p * 4
        # q2 is pinned by exact division of the determinant, and matches the
        # printed variant with the p^2 head, not the s^2 one.
        assert q2 == p * p * 3 + s * p * 12 + p * 6 - s ** 3 * 4 - 1
        assert q2 != s * s * 3 + s * p * 12 + p * 6 - s ** 3 * 4 - 1
        gamma = g2_model(0, 0).gamma
        det = gamma[("s", "s")] * gamma[("p", "p")] - gamma[("s", "p")] ** 2
        assert divide_exact(det * 4, q1) == q2

    def test_q_pullbacks_to_deltoid(self):
        q1, q2 = q1_q2()
        sub = {"s": PSI_IMAGES["s"], "p": PSI_IMAGES["p"]}
        g = MPoly.variables_ring(DELTOID_VARS)
        assert q1.subs(sub) == (g["Z"] - g["Zb"]) ** 2
        assert q2.subs(sub) == deltoid_boundary_poly() * (-4)

    def test_q1_vanishes_on_real_image(self):
        q1, _ = q1_q2()
        for x in (Fraction(1, 3), Fraction(-2, 5)):
            val = q1.evaluate_exact({"s": 2 * x, "p": x * x})
            assert not val


def _g2_admits(a1: Fraction, a2: Fraction) -> bool:
    values = {"alpha1": a1, "alpha2": a2, "alpha1+alpha2": a1 + a2}
    return all(entry.admits(values[key]) for key, entry in G2_RANGES.items())


class TestParameterDomains:
    # Each lambda range is a condition on a density exponent, computed here
    # with the exponents the model, the quadrature and the samplers run.
    CONDITIONS = {
        "model": lambda lam: _g2_admits(Fraction(-1, 2), deltoid_density_exponent(lam)),
        "quadrature": lambda lam: deltoid_density_exponent(lam) + Fraction(1, 2) >= 0,
        "lifted_sampler": lambda lam: lifted_density_exponent(lam) > -1,
        "rejection_sampler": lambda lam: lifted_density_exponent(lam) >= 0,
    }

    @pytest.mark.parametrize("layer", sorted(LAMBDA_RANGES))
    def test_lambda_bound_is_its_exponent_condition(self, layer):
        assert set(self.CONDITIONS) == set(LAMBDA_RANGES)
        entry = LAMBDA_RANGES[layer]
        for lam in (entry.bound - Fraction(1, 1000), entry.bound, entry.bound + Fraction(1, 1000)):
            assert entry.admits(lam) == self.CONDITIONS[layer](lam), (layer, lam)

    def test_registry_reads_the_tables(self):
        deltoid = MODEL_REGISTRY["deltoid"]
        assert deltoid["params"] == {"lambda": str(LAMBDA_RANGES["model"])}
        assert deltoid["numeric_ranges"] == {
            layer: {"lambda": str(entry)} for layer, entry in LAMBDA_RANGES.items()
            if layer != "model"
        }
        assert MODEL_REGISTRY["sixdim"]["params"] == {"lambda": str(LAMBDA_RANGES["model"])}
        assert MODEL_REGISTRY["g2"]["params"] == {key: str(entry) for key, entry in G2_RANGES.items()}

    @pytest.mark.parametrize("constructor", [deltoid_model, sixdim_model])
    def test_models_refuse_through_the_model_range(self, constructor, monkeypatch):
        narrowed = ParameterRange(Fraction(1), False, LAMBDA_RANGES["model"].user)
        monkeypatch.setitem(LAMBDA_RANGES, "model", narrowed)
        with pytest.raises(ValueError, match=re.escape(f"{narrowed.user} needs lambda > 1")):
            constructor(Fraction(1, 2))
        constructor(2)


class TestPsi1:
    def test_fixed_bitangent_point(self):
        point = {"s": 2, "p": 1}
        assert PSI1_IMAGES["s"].evaluate_exact(point) == FieldScalar(2)
        assert PSI1_IMAGES["p"].evaluate_exact(point) == FieldScalar(1)

    def test_boundary_factor_exchange_exact(self):
        q1, q2 = q1_q2()
        big = MPoly.variables_ring(("S", "P"))
        sub = {"S": PSI1_IMAGES["s"], "P": PSI1_IMAGES["p"]}
        assert (big["S"] ** 2 - big["P"] * 4).subs(sub) == q2 * 3
        pull_q2 = (big["P"] ** 2 * 3 + big["S"] * big["P"] * 12 + big["P"] * 6
                   - big["S"] ** 3 * 4 - 1).subs(sub)
        assert try_divide(pull_q2, q1) is not None

    @pytest.mark.parametrize("a2", [Fraction(0), Fraction(1, 2), Fraction(3, 2)])
    def test_intertwining_factor_three(self, a2):
        # The self-map triples the operator: image of the (-1/2, a2) model is
        # exactly 3 x the (a2, -1/2) model, i.e. one third of the image is
        # the parameter-swapped operator.
        assert psi1_intertwining_factor(a2) == 3

    def test_not_closed_off_half_integer(self):
        with pytest.raises(NotClosedError):
            pushforward(g2_model(0, Fraction(1, 2)), PSI1_IMAGES)

    def test_composition_matches_the_map_in_its_own_image_variables(self):
        # The map as it was written before it was keyed by G2_VARS: images of
        # separate coordinates (S, P), composed after renaming s, p to S, P.
        s, p = (MPoly.var(G2_VARS, v) for v in G2_VARS)
        old_map = {"S": p * 3 - 1, "P": (s ** 3 - s * p * 3) * 3 - p * 6 + 1}
        rename = {"s": MPoly.var(("S", "P"), "S"), "p": MPoly.var(("S", "P"), "P")}
        q1, q2 = q1_q2()
        for f in (q1, q2, *g2_gamma_table().values()):
            got = f.subs(PSI1_IMAGES)
            expected = f.subs(rename).subs(old_map)
            assert list(got.terms.items()) == list(expected.terms.items())

    def test_intertwining_fails_against_a_shifted_target(self, monkeypatch):
        # Negative control: the target (a2, -1/2) built at (a2 + 1/6, -1/2)
        # shares the Gamma table, so only the drift comparison can refuse it.
        from deltoid_lab import models, verify

        real_g2_model = models.g2_model

        def shifted(a1, a2):
            return real_g2_model(a1 + Fraction(1, 6) if a2 == Fraction(-1, 2) else a1, a2)

        monkeypatch.setattr(models, "g2_model", shifted)
        with pytest.raises(ValueError, match="not an exact rational multiple"):
            psi1_intertwining_factor(Fraction(1, 2))
        report = VerificationReport(config={}, anchors=dict(verify.IDENTITY_MANIFEST))
        verify._suite_symbolic(report, verify.VerifyConfig())
        entries = {e.name: e for e in report.entries}
        failed = entries["g2.psi1_intertwining"]
        assert failed.status == "exact-fail"
        assert failed.details.startswith("ValueError: image is not an exact rational multiple")
        assert entries["g2.psi1_boundary_exchange"].status == "proven-exact"


class TestFlatTorus:
    def test_gradient_table(self):
        m = flat_torus_model()
        g = MPoly.variables_ring(SIXDIM_VARS)
        assert m.gamma_entry("z1", "z1") == -(g["z1"] * g["z1"])
        assert m.gamma_entry("z1", "zb1") == g["z1"] * g["zb1"]
        assert m.gamma_entry("z1", "zb2") == (g["z1"] * g["zb2"]) * Fraction(-1, 2)
        assert m.drift["z2"] == -g["z2"]

    def test_constraint_set_matches_lifted_table(self):
        report = flat_torus_sign_report(400, seed=9)
        assert report["matching_sign"] == "-1/2"
        assert report["deviation_minus_variant"] < 1e-10
        assert report["deviation_plus_variant"] > 0.4

    def test_sign_report_matches_per_entry_loop(self):
        # The former per-entry loop, one evaluate call per Gamma entry and
        # model, is the oracle; the compiled sets must agree bit for bit.
        n, seed = 300, 12
        pts = constrained_torus_points(n, seed)
        point = {name: pts[:, i % 3] if i < 3 else np.conj(pts[:, i % 3])
                 for i, name in enumerate(SIXDIM_VARS)}
        lifted, flat = sixdim_model(1), flat_torus_model()
        dev_minus = dev_plus = 0.0
        for i, u in enumerate(SIXDIM_VARS):
            for v in SIXDIM_VARS[i:]:
                lifted_vals = lifted.gamma_entry(u, v).evaluate(point)
                flat_vals = flat.gamma_entry(u, v).evaluate(point)
                dev_minus = max(dev_minus, float(np.max(np.abs(lifted_vals - flat_vals))))
                cross = u.startswith("z") and not u.startswith("zb") and v.startswith("zb") \
                    and u[1:] != v[2:]
                flipped = -flat_vals if cross else flat_vals
                dev_plus = max(dev_plus, float(np.max(np.abs(lifted_vals - flipped))))
        report = flat_torus_sign_report(n, seed)
        assert report["deviation_minus_variant"] == dev_minus
        assert report["deviation_plus_variant"] == dev_plus

    def test_gamma_zz_on_constraints(self):
        pts = constrained_torus_points(300, 4)
        m = flat_torus_model()
        zimg = sum(
            (MPoly.var(SIXDIM_VARS, f"z{i}") for i in (2, 3)),
            MPoly.var(SIXDIM_VARS, "z1"),
        ) * Fraction(1, 3)
        gzz = gamma_apply(m, zimg, zimg)
        point = {
            name: pts[:, i % 3] if i < 3 else np.conj(pts[:, i % 3])
            for i, name in enumerate(SIXDIM_VARS)
        }
        zvals = pts.mean(axis=1)
        assert np.max(np.abs(gzz.evaluate(point) - (np.conj(zvals) - zvals ** 2))) < 1e-12


class TestSU3:
    def test_identity_matrix(self):
        res = su3_gamma_pointwise(np.eye(3))
        assert res["Z"] == 1.0
        assert res["residual_gamma_zzb"] < 1e-14
        assert abs(res["gamma_zzb"]) < 1e-14  # (1 - Z Zb)/2 = 0 at Z = 1

    def test_haar_samples_match_lambda_four_table(self):
        from deltoid_lab.sampling import sample_su3_haar

        res = su3_gamma_pointwise(sample_su3_haar(300, 5).points)
        for name in ("gamma_zz", "gamma_zzb", "l_z", "trace_identity"):
            assert res[f"residual_{name}"].shape == (300,)
            assert np.all(res[f"residual_{name}"] < 1e-12)

    def test_stack_matches_one_matrix_at_a_time(self):
        from deltoid_lab.sampling import sample_su3_haar

        gs = sample_su3_haar(50, 8).points
        stacked = su3_gamma_pointwise(gs.reshape(5, 10, 3, 3))
        for i, g in enumerate(gs):
            single = su3_gamma_pointwise(g)
            for key, value in single.items():
                assert np.shape(value) == ()
                assert stacked[key].shape == (5, 10)
                assert abs(stacked[key][divmod(i, 10)] - value) <= 1e-14, key

    def test_residuals_read_the_running_deltoid_table(self, monkeypatch):
        from deltoid_lab.sampling import sample_su3_haar

        original = models.deltoid_model

        def shifted(lam):
            m = original(lam)
            gamma = {("Z", "Z"): m.gamma_entry("Z", "Z"), ("Zb", "Zb"): m.gamma_entry("Zb", "Zb"),
                     ("Z", "Zb"): m.gamma_entry("Z", "Zb") + Fraction(1, 10)}
            return DiffusionModel(m.variables, gamma, dict(m.drift), dict(m.params))

        monkeypatch.setattr(models, "deltoid_model", shifted)
        res = su3_gamma_pointwise(sample_su3_haar(50, 5).points)
        assert res["residual_gamma_zzb"].min() > 1e-8
        assert res["residual_gamma_zz"].max() < 1e-12 and res["residual_l_z"].max() < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            su3_gamma_pointwise(np.eye(3) * 1.5)

    def test_rejects_stack_with_one_non_unitary_matrix(self):
        from deltoid_lab.sampling import sample_su3_haar

        gs = sample_su3_haar(20, 6).points.copy()
        gs[13] *= 1.001
        with pytest.raises(ValueError, match=r"stack index \(13,\)"):
            su3_gamma_pointwise(gs)
        gs[13] = np.diag([1.0, 1.0, -1.0])  # unitary, determinant -1
        with pytest.raises(ValueError, match=r"\|det - 1\| = 2\.000e\+00"):
            su3_gamma_pointwise(gs)


class TestMembership:
    def test_reference_points(self):
        assert membership_deltoid(0) == "interior"
        assert membership_deltoid(1) == "boundary"  # cusp
        assert membership_deltoid(J) == "boundary"  # cusp
        assert membership_deltoid(2) == "exterior"
        # A scalar gets a plain str, not a 0-d array.
        assert all(type(membership_deltoid(z)) is str for z in (0, 1, J, np.complex128(2)))

    def test_cross_check_with_boundary_sign(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-1.2, 1.2, size=(2000, 2))
        z = pts[:, 0] + 1j * pts[:, 1]
        pvals = np.asarray(deltoid_boundary_values(z))
        keep = np.abs(pvals) > 1e-6
        for zz, pv in zip(z[keep], pvals[keep]):
            assert (membership_deltoid(complex(zz)) == "interior") == (pv > 0)

    @staticmethod
    def _np_roots_oracle(z: complex) -> str:
        """The per-point classifier the batched one replaced: np.roots per point."""
        roots = np.roots([1.0, -3.0 * z, 3.0 * np.conj(z), -1.0])
        moduli_dev = float(np.max(np.abs(np.abs(roots) - 1.0)))
        min_gap = min(abs(roots[i] - roots[j]) for i in range(3) for j in range(i + 1, 3))
        if min_gap <= 1e-4 and abs(deltoid_boundary_values(z)) < 1e-8:
            return "boundary"
        if moduli_dev < 1e-9 and min_gap > 1e-4:
            return "interior"
        return "exterior"

    def test_array_form_matches_per_point_np_roots(self):
        # verify's deltoid.membership_consistency box at the default seed.
        box = np.random.default_rng(20260808 + 4).uniform(-1.2, 1.2, size=(10_000, 2))
        zbox = box[:, 0] + 1j * box[:, 1]
        reference = np.array([0, 1, J, J * J, 2], dtype=complex)
        # Points in the band |P| < 1e-6: bisect P along rays from the origin
        # (P(0) = 1/4), then step to either side of the boundary crossing.
        rays = np.exp(1j * np.random.default_rng(9).uniform(0, 2 * math.pi, 300))
        lo, hi = np.zeros(300), np.full(300, 1.2)
        for _ in range(60):
            mid = (lo + hi) / 2
            inside = np.asarray(deltoid_boundary_values(mid * rays)) > 0
            lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
        band = np.concatenate([t * rays for t in (lo - 1e-7, lo, hi, hi + 1e-7)])
        band_p = np.asarray(deltoid_boundary_values(band))
        assert np.all(np.abs(band_p) < 1e-6) and np.any(band_p > 0) and np.any(band_p < 0)
        for points in (zbox, reference, band):
            labels = membership_deltoid(points)
            assert labels.shape == points.shape
            assert labels.tolist() == [self._np_roots_oracle(complex(z)) for z in points]
        assert membership_deltoid(reference).tolist() == [
            "interior", "boundary", "boundary", "boundary", "exterior"]
        assert membership_deltoid(band.reshape(20, 60)).shape == (20, 60)


def _segment_audit(points: np.ndarray) -> bool:
    """True when every segment from a point to the origin, sampled at 64
    steps, stays in the membership set: the domain is the connected component
    of the origin."""
    ts = np.linspace(0.0, 1.0, 65)[1:]
    return all(bool(np.all(omega1_membership(points * t))) for t in ts)


class TestOmega1:
    def test_membership_and_audit(self):
        rng = np.random.default_rng(8)
        pts = np.sqrt(rng.uniform(size=(5000, 3))) * np.exp(
            1j * rng.uniform(0, 2 * math.pi, size=(5000, 3))
        )
        mask = omega1_membership(pts)
        inside = pts[mask]
        assert 0.01 < mask.mean() < 0.2
        p1, p2 = omega1_boundary_values(inside)
        assert np.all(p1 > 0) and np.all(p2 < 0)
        # Segment audit: rays to the origin stay inside.
        assert _segment_audit(inside[:50])

    def test_boundary_values_match_former_formula_and_p1_p2(self):
        def former(pts):
            # The array formula before the shared omega1_modulus_parts.
            moduli2 = (pts * pts.conjugate()).real
            s1 = moduli2.sum(axis=-1)
            s2 = (moduli2**2).sum(axis=-1)
            prod = pts[..., 0] * pts[..., 1] * pts[..., 2]
            p1 = 2.0 - (s1 + 1.0) ** 2 + 2.0 * s2 + 8.0 * prod.real
            p2 = 2.0 * (s2 - 1.0) - (s1 - 1.0) ** 2
            return p1, p2

        rng = np.random.default_rng(25)
        size = (10**6, 3)
        pts = np.sqrt(rng.uniform(size=size)) * np.exp(1j * rng.uniform(0, 2 * math.pi, size=size))
        got = omega1_boundary_values(pts)
        for value, expected in zip(got, former(pts)):
            assert np.array_equal(value.view(np.uint64), expected.view(np.uint64))
        exact = CompiledPolys(p1_p2()).values(dict(zip(SIXDIM_VARS, [*pts.T, *np.conj(pts.T)])))
        assert np.max(np.abs(exact - np.stack(got))) < 1e-13

    def test_polar_decomposition(self):
        rng = np.random.default_rng(9)
        pts = np.sqrt(rng.uniform(size=(500, 3))) * np.exp(
            1j * rng.uniform(0, 2 * math.pi, size=(500, 3))
        )
        assert p1_polar_decomposition_residual(pts) < 1e-12

    def test_cometric_stack_matches_per_point_matrices(self):
        from deltoid_lab.sampling import sample_omega1

        def cometric_at_one_point(model, point):
            # The former per-point evaluator: one evaluate call per entry.
            names = model.variables
            n = len(names)
            gamma_num = np.zeros((n, n), dtype=complex)
            for i, u in enumerate(names):
                for j, v in enumerate(names):
                    gamma_num[i, j] = model.gamma_entry(u, v).evaluate(point)
            jac = np.zeros((n, n), dtype=complex)
            for k in range(n // 2):
                jac[2 * k, [k, n // 2 + k]] = 0.5
                jac[2 * k + 1, [k, n // 2 + k]] = [-0.5j, 0.5j]
            return (jac @ gamma_num @ jac.T).real

        pts = sample_omega1(Fraction(11, 2), 60, 7, method="rejection").points.reshape(6, 10, 3)
        m = sixdim_model(3)
        point = {f"z{i+1}": pts[..., i] for i in range(3)}
        point |= {f"zb{i+1}": np.conj(pts[..., i]) for i in range(3)}
        stacked = real_cometric_at(m, point)
        assert stacked.shape == (6, 10, 6, 6)
        for index in np.ndindex(6, 10):
            one = cometric_at_one_point(m, {name: value[index] for name, value in point.items()})
            assert np.max(np.abs(stacked[index] - one)) <= 1e-14

    def test_ellipticity_at_samples(self):
        from deltoid_lab.sampling import sample_omega1

        pts = sample_omega1(Fraction(11, 2), 100, 3, method="rejection").points
        m = sixdim_model(3)
        for z in pts:
            point = {f"z{i+1}": z[i] for i in range(3)}
            point |= {f"zb{i+1}": np.conj(z[i]) for i in range(3)}
            assert np.linalg.eigvalsh(real_cometric_at(m, point)).min() > 0


def _z_one_shot(t1, t2):
    """z_of_theta as one expression over the whole input."""
    t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
    return (np.exp(1j * t1) + np.exp(1j * t2) + np.exp(-1j * (t1 + t2))) / 3.0


class TestThetaMap:
    @pytest.mark.parametrize("shape", ["scalar", "0-d", "broadcast", "above-chunk"])
    def test_blocks_bit_equal_to_one_shot(self, shape):
        from deltoid_lab.poly import EVAL_CHUNK

        t = np.random.default_rng(71).uniform(0.0, 2.0 * math.pi, size=(2, 2 * EVAL_CHUNK + 37))
        t1, t2 = {"scalar": (0.7, -1.9), "0-d": (np.asarray(t[0, 0]), np.asarray(t[1, 0])),
                  "broadcast": (t[0, :300, None], t[1, None, :200]),
                  "above-chunk": (t[0], t[1])}[shape]
        got, expected = z_of_theta(t1, t2), _z_one_shot(t1, t2)
        assert isinstance(got, complex) == (expected.shape == ())
        got = np.asarray(got).reshape(-1)
        assert got.size == expected.size
        assert np.array_equal(got.view(np.uint64), expected.reshape(-1).view(np.uint64))

    def test_values(self):
        assert z_of_theta(0.0, 0.0) == pytest.approx(1.0)
        assert z_of_theta(2 * math.pi / 3, 2 * math.pi / 3) == pytest.approx(J)

    def test_conjugation_parity(self):
        z = z_of_theta(1.0, 2.0)
        assert z_of_theta(-1.0, -2.0) == pytest.approx(np.conj(z))

    def test_group_law(self):
        pts = constrained_torus_points(10, 12)
        a, b = ThetaPair(0.3, 1.1), ThetaPair(0.7, 0.2)
        combined = ThetaPair(1.0, 1.3)
        assert np.allclose(
            phi_theta(phi_theta(pts, a), b), phi_theta(pts, combined)
        )

    def test_interior_predicate(self):
        assert ThetaPair(1.0, 2.0).is_interior()
        assert not ThetaPair(1.0, 1.0).is_interior()
        assert not ThetaPair(1.0, -2.0).is_interior()  # 2 t1 + t2 = 0
