"""Constructors for every concrete diffusion model in the laboratory.

The zoo covers

* the deltoid-domain operator family (variables Z, Zb) with its quartic
  boundary polynomial,
* the 6-dimensional lifted operator on three complex coordinates whose
  projection under the average map reproduces the deltoid family,
* the flat-torus gradient model (the lambda = 1 geometric picture),
* the Casimir table on SU(3) evaluated pointwise (the lambda = 4 picture),
* the G2-symmetric projection in the variables s = Z + Zb, p = Z*Zb with its
  two boundary factors and the two-parameter measure family,
* the torus parametrization theta -> Z(theta) and the cubic-root membership
  classifier for the deltoid domain.

Conventions fixed here: the deltoid boundary polynomial is
P = Gamma(Z,Zb)^2 - Gamma(Z,Z)*Gamma(Zb,Zb) (positive inside the domain),
and the quintic G2 boundary factor q2 is *defined* by exact division of the
metric determinant by q1/4 rather than transcribed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
import numpy as np

from .diffusion import DiffusionModel, drift_from_measure, pushforward
from .poly import CompiledPolys, MPoly, blocks, divide_exact
from .scalars import RationalLike

DELTOID_VARS = ("Z", "Zb")
SIXDIM_VARS = ("z1", "z2", "z3", "zb1", "zb2", "zb3")
G2_VARS = ("s", "p")

DELTOID_CONJ_PAIRS = (("Z", "Zb"),)
SIXDIM_CONJ_PAIRS = tuple(zip(SIXDIM_VARS[:3], SIXDIM_VARS[3:]))

# j-rotation weights: Z -> j Z, Zb -> jbar Zb.
DELTOID_J_WEIGHTS = {"Z": 1, "Zb": -1}


class IntegrabilityError(ValueError):
    """Measure parameters violate a finiteness condition."""


def _other_index(i: int, j: int) -> int:
    """The index in {0,1,2} distinct from both arguments."""
    return 3 - i - j


# ---------------------------------------------------------------------------
# Deltoid model
# ---------------------------------------------------------------------------


def deltoid_model(lam: RationalLike) -> DiffusionModel:
    """Deltoid-domain operator: Gamma table plus drift (-lam*Z, -lam*Zb)."""
    lam = Fraction(lam)
    LAMBDA_RANGES["model"].require(lam)
    g = MPoly.variables_ring(DELTOID_VARS)
    Z, Zb = g["Z"], g["Zb"]
    gamma = {
        ("Z", "Z"): Zb - Z * Z,
        ("Zb", "Zb"): Z - Zb * Zb,
        ("Z", "Zb"): (1 - Z * Zb) * Fraction(1, 2),
    }
    drift = {"Z": Z * (-lam), "Zb": Zb * (-lam)}
    return DiffusionModel(DELTOID_VARS, gamma, drift, {"lambda": lam})


def deltoid_density_exponent(lam: RationalLike) -> Fraction:
    """alpha = (2 lam - 5)/6: the deltoid model at lam is reversible for P**alpha."""
    lam = Fraction(lam)
    return (2 * lam - 5) / 6


def deltoid_boundary_poly() -> MPoly:
    """P = Gamma(Z,Zb)^2 - Gamma(Z,Z)*Gamma(Zb,Zb); P > 0 inside the domain."""
    m = deltoid_model(1)
    gzz = m.gamma_entry("Z", "Z")
    gzbzb = m.gamma_entry("Zb", "Zb")
    gzzb = m.gamma_entry("Z", "Zb")
    return gzzb * gzzb - gzz * gzbzb


def deltoid_boundary_values(z: np.ndarray | complex) -> np.ndarray | float:
    """Numeric P(Z, conj(Z)); real-valued, positive inside the domain."""
    z = np.asarray(z, dtype=complex)
    zz = (z * z.conjugate()).real
    value = 0.25 - 1.5 * zz - 0.75 * zz * zz + 2.0 * (z**3).real
    return value if value.shape else float(value)


# ---------------------------------------------------------------------------
# 6-dimensional lifted model
# ---------------------------------------------------------------------------


def sixdim_model(lam: RationalLike) -> DiffusionModel:
    """Lifted operator on (z1, z2, z3) and conjugates projecting to the deltoid."""
    lam = Fraction(lam)
    LAMBDA_RANGES["model"].require(lam)
    g = MPoly.variables_ring(SIXDIM_VARS)
    z = [g[f"z{i+1}"] for i in range(3)]
    zb = [g[f"zb{i+1}"] for i in range(3)]
    gamma: dict[tuple[str, str], MPoly] = {}
    for i in range(3):
        gamma[(f"z{i+1}", f"z{i+1}")] = -(z[i] * z[i])
        gamma[(f"zb{i+1}", f"zb{i+1}")] = -(zb[i] * zb[i])
        for j in range(i + 1, 3):
            c = _other_index(i, j)
            gamma[(f"z{i+1}", f"z{j+1}")] = zb[c] * Fraction(3, 2) - z[i] * z[j]
            gamma[(f"zb{i+1}", f"zb{j+1}")] = z[c] * Fraction(3, 2) - zb[i] * zb[j]
    for i in range(3):
        for j in range(3):
            entry = -(z[i] * zb[j]) * Fraction(1, 2)
            if i == j:
                entry = entry + Fraction(3, 2)
            gamma[(f"z{i+1}", f"zb{j+1}")] = entry
    drift = {f"z{i+1}": z[i] * (-lam) for i in range(3)}
    drift.update({f"zb{i+1}": zb[i] * (-lam) for i in range(3)})
    return DiffusionModel(SIXDIM_VARS, gamma, drift, {"lambda": lam})


def lifted_density_exponent(lam: RationalLike) -> Fraction:
    """beta = (2 lam - 11)/6: the lifted model at lam is reversible for P1**beta."""
    lam = Fraction(lam)
    return (2 * lam - 11) / 6


def p1_p2() -> tuple[MPoly, MPoly]:
    """The two boundary factors of the lifted model, as honest polynomials.

    With S1 = sum z_i zb_i and S2 = sum (z_i zb_i)^2, and the polar product
    term 8*sigma realized as 4*(z1 z2 z3 + zb1 zb2 zb3):

        P1 = 2 - (S1 + 1)^2 + 2*S2 + 4*(z1 z2 z3 + zb1 zb2 zb3)
        P2 = 2*(S2 - 1) - (S1 - 1)^2
    """
    g = MPoly.variables_ring(SIXDIM_VARS)
    z = [g[f"z{i+1}"] for i in range(3)]
    zb = [g[f"zb{i+1}"] for i in range(3)]
    moduli = [z[i] * zb[i] for i in range(3)]
    s1 = moduli[0] + moduli[1] + moduli[2]
    s2 = moduli[0] ** 2 + moduli[1] ** 2 + moduli[2] ** 2
    prod_term = (z[0] * z[1] * z[2] + zb[0] * zb[1] * zb[2]) * 4
    p1 = 2 - (s1 + 1) ** 2 + s2 * 2 + prod_term
    p2 = (s2 - 1) * 2 - (s1 - 1) ** 2
    return p1, p2


PI_IMAGES = {
    "Z": (MPoly.var(SIXDIM_VARS, "z1") + MPoly.var(SIXDIM_VARS, "z2") + MPoly.var(SIXDIM_VARS, "z3"))
    * Fraction(1, 3),
    "Zb": (MPoly.var(SIXDIM_VARS, "zb1") + MPoly.var(SIXDIM_VARS, "zb2") + MPoly.var(SIXDIM_VARS, "zb3"))
    * Fraction(1, 3),
}


# ---------------------------------------------------------------------------
# Numeric membership and geometry helpers
# ---------------------------------------------------------------------------


def membership_deltoid(z: complex | np.ndarray) -> str | np.ndarray:
    """Classify points against the deltoid domain via cube-root moduli.

    The three roots of X^3 - 3 Z X^2 + 3 conj(Z) X - 1 all lie on the unit
    circle and are pairwise distinct exactly for interior points; a root
    collision signals the boundary.  Root collisions cannot be resolved to
    machine precision (a double/triple root perturbs the computed roots by
    eps**(1/2) / eps**(1/3)), so the collision band 1e-4 is wider than the
    modulus tolerance 1e-9 and is confirmed by the boundary polynomial
    vanishing, which is exactly the discriminant condition for a collision.

    z is one complex number, which gets its label as a str, or an array of
    them, which gets an array of labels of the same shape.  The roots come
    from one np.linalg.eigvals call on the stacked companion matrices, built
    as np.roots builds one, so each point's roots are those of np.roots.
    """
    zs = np.asarray(z, dtype=complex)
    flat = zs.reshape(-1)
    one = np.ones_like(flat)
    coeffs = np.stack([one, -3.0 * flat, 3.0 * np.conj(flat), -one], axis=-1)
    companion = np.zeros((len(flat), 3, 3), dtype=complex)
    companion[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    roots = np.linalg.eigvals(companion)
    moduli_dev = np.max(np.abs(np.abs(roots) - 1.0), axis=-1)
    min_gap = np.abs(roots[:, [0, 0, 1]] - roots[:, [1, 2, 2]]).min(axis=-1)
    collided = min_gap <= 1e-4
    labels = np.where(
        collided & (np.abs(deltoid_boundary_values(flat)) < 1e-8), "boundary",
        np.where((moduli_dev < 1e-9) & ~collided, "interior", "exterior"),
    ).reshape(zs.shape)
    return str(labels) if labels.ndim == 0 else labels


def omega1_membership(points: np.ndarray, with_p1: bool = False):
    """Vectorized membership for the lifted domain.

    points: (..., 3) complex.  The practical predicate is P1 > 0, P2 < 0 and
    max |z_i| < 1; P1 <= OMEGA1_P1_FLOOR counts as outside (a zero-measure
    set; keeps log densities finite).  with_p1 returns (mask, P1), for a
    caller that also weighs the points by P1.
    """
    pts = np.asarray(points, dtype=complex)
    p1, p2 = omega1_boundary_values(pts)
    radii_ok = np.max(np.abs(pts), axis=-1) < 1.0
    mask = (p1 > OMEGA1_P1_FLOOR) & (p2 < 0.0) & radii_ok
    return (mask, p1) if with_p1 else mask


def omega1_modulus_parts(m0, m1, m2):
    """(P1 - 8 Re(z0 z1 z2), P2) of p1_p2 from the squared moduli m_i = |z_i|^2, floats
    or arrays; the array judge, the rejection screen and the MCMC loop share it."""
    s1 = m0 + m1 + m2
    s2 = m0 * m0 + m1 * m1 + m2 * m2
    t = s1 + 1.0
    base = 2.0 - t * t + 2.0 * s2
    t = s1 - 1.0
    return base, 2.0 * (s2 - 1.0) - t * t


def omega1_boundary_values(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numeric (P1, P2) on arrays of shape (..., 3)."""
    pts = np.asarray(points, dtype=complex)
    moduli2 = (pts * pts.conjugate()).real
    base, p2 = omega1_modulus_parts(moduli2[..., 0], moduli2[..., 1], moduli2[..., 2])
    return base + 8.0 * (pts[..., 0] * pts[..., 1] * pts[..., 2]).real, p2


def p1_polar_decomposition_residual(points: np.ndarray) -> float:
    """Residual of the polar product form of P1.

    With sigma_0 = r1 + r2 + r3 and sigma_i flipping the sign of r_i, and
    theta the total phase, P1 equals

        S cos^2(theta/2) + D sin^2(theta/2),
        S = (1 + s0)(1 - s1)(1 - s2)(1 - s3),
        D = (1 - s0)(1 + s1)(1 + s2)(1 + s3).

    Returns the max absolute deviation over the points.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    r = np.abs(pts)
    theta = np.angle(pts).sum(axis=-1)
    s0 = r.sum(axis=-1)
    s1 = -r[..., 0] + r[..., 1] + r[..., 2]
    s2 = r[..., 0] - r[..., 1] + r[..., 2]
    s3 = r[..., 0] + r[..., 1] - r[..., 2]
    big_s = (1 + s0) * (1 - s1) * (1 - s2) * (1 - s3)
    big_d = (1 - s0) * (1 + s1) * (1 + s2) * (1 + s3)
    alt = big_s * np.cos(theta / 2.0) ** 2 + big_d * np.sin(theta / 2.0) ** 2
    p1, _ = omega1_boundary_values(pts)
    return float(np.max(np.abs(alt - p1)))


def real_cometric_at(model: DiffusionModel, point: dict[str, "complex | np.ndarray"]) -> np.ndarray:
    """Real-coordinate cometric matrices at a point set, shape (*point shape, n, n).

    The Gamma table is compiled once and evaluated on every point.  Variables
    are assumed paired as (w, wb) conjugates; the real coordinates are
    x = (w + wb)/2 and y = (w - wb)/(2i) per pair.  Positive definiteness of
    a returned matrix is ellipticity at its point.
    """
    names = model.variables
    n, half = len(names), len(names) // 2
    values = CompiledPolys([model.gamma_entry(u, v) for u in names for v in names]).values(point)
    gamma_num = np.moveaxis(values, 0, -1).reshape(*values.shape[1:], n, n)
    # Rows of d(real coordinate)/d(complex coordinate).
    jac = np.zeros((n, n), dtype=complex)
    for k in range(half):
        jac[2 * k, [k, half + k]] = 0.5
        jac[2 * k + 1, [k, half + k]] = -0.5j, 0.5j
    return (jac @ gamma_num @ jac.T).real


# ---------------------------------------------------------------------------
# Flat torus model (lambda = 1 picture)
# ---------------------------------------------------------------------------


def flat_torus_model() -> DiffusionModel:
    """Gradient-derived Gamma table for z_k = exp(i Re(z conj(e_k))).

    The three directions e_k are the cube roots of unity, so e_i . e_j is 1
    on the diagonal and -1/2 off it; Gamma(u, v) = grad u . grad v gives

        Gamma(z_i, z_j)   = -(e_i . e_j) z_i z_j
        Gamma(z_i, zb_j)  =  (e_i . e_j) z_i zb_j

    as unconstrained polynomials, and the Laplacian drift is -z_i.
    """
    g = MPoly.variables_ring(SIXDIM_VARS)
    z = [g[f"z{i+1}"] for i in range(3)]
    zb = [g[f"zb{i+1}"] for i in range(3)]
    gamma: dict[tuple[str, str], MPoly] = {}
    for i in range(3):
        gamma[(f"z{i+1}", f"z{i+1}")] = -(z[i] * z[i])
        gamma[(f"zb{i+1}", f"zb{i+1}")] = -(zb[i] * zb[i])
        for j in range(i + 1, 3):
            gamma[(f"z{i+1}", f"z{j+1}")] = z[i] * z[j] * Fraction(1, 2)
            gamma[(f"zb{i+1}", f"zb{j+1}")] = zb[i] * zb[j] * Fraction(1, 2)
    for i in range(3):
        for j in range(3):
            if i == j:
                gamma[(f"z{i+1}", f"zb{i+1}")] = z[i] * zb[i]
            else:
                gamma[(f"z{i+1}", f"zb{j+1}")] = -(z[i] * zb[j]) * Fraction(1, 2)
    drift = {f"z{i+1}": -z[i] for i in range(3)}
    drift.update({f"zb{i+1}": -zb[i] for i in range(3)})
    return DiffusionModel(SIXDIM_VARS, gamma, drift, {"lambda": Fraction(1)})


def constrained_torus_points(n: int, seed: int) -> np.ndarray:
    """Random points with |z_i| = 1 and z1 z2 z3 = 1, as (n, 3) arrays."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 2.0 * math.pi, size=(n, 2))
    return np.stack(theta_phases(t[:, 0], t[:, 1]), axis=1)


def flat_torus_sign_report(n: int = 1000, seed: int = 7) -> dict:
    """Adjudicate the sign of the flat cross term Gamma(z_i, zb_j), i != j.

    On the constraint set the lifted table gives -(1/2) z_i zb_j there; the
    candidate +(1/2) z_i zb_j variant is evaluated alongside.  Returns the
    max absolute deviation of each variant from the lifted entries over all
    Gamma entries at n constrained random points, compiled once per model.
    """
    pts = constrained_torus_points(n, seed)
    point = dict(zip(SIXDIM_VARS, [*pts.T, *np.conj(pts.T)]))
    keys = [(u, v) for i, u in enumerate(SIXDIM_VARS) for v in SIXDIM_VARS[i:]]
    # The rows the +1/2 variant flips: the cross pairs (z_i, zb_j) with i != j.
    cross = np.array([u in SIXDIM_VARS[:3] and v in SIXDIM_VARS[3:] and u[1:] != v[2:]
                      for u, v in keys])
    lifted_vals, flat_vals = (
        CompiledPolys([model.gamma_entry(u, v) for u, v in keys]).values(point)
        for model in (sixdim_model(1), flat_torus_model())
    )
    flipped = np.where(cross[:, None], -flat_vals, flat_vals)
    dev_minus = float(np.max(np.abs(lifted_vals - flat_vals)))
    dev_plus = float(np.max(np.abs(lifted_vals - flipped)))
    return {
        "deviation_minus_variant": dev_minus,
        "deviation_plus_variant": dev_plus,
        "matching_sign": "-1/2" if dev_minus < dev_plus else "+1/2",
        "points": int(n),
    }


# ---------------------------------------------------------------------------
# SU(3) Casimir picture (lambda = 4)
# ---------------------------------------------------------------------------

# The Casimir table below is normalized so that L(g_ij) = -(d^2-1) g_ij on
# SU(d); matching the deltoid table at lambda = 4 then requires the overall
# scale 1/2 for d = 3 (the scale making L(Z) = -4 Z).
SU3_CASIMIR_SCALE = 0.5


def su3_gamma_pointwise(g: np.ndarray) -> dict:
    """Evaluate the scaled Casimir Gamma/L on the normalized trace at g.

    g is one matrix or a stack, shape (..., 3, 3), and every value has the
    stack shape.  Returns the three values Gamma(Z,Z), Gamma(Z,Zb), L(Z)
    computed from the SU(3) entry table, their residuals against those of
    deltoid_model(4) and the residual of the trace reduction
    tr(g^2) = 9 Z^2 - 6 Zb.  A matrix that is not special unitary raises.
    """
    g = np.asarray(g, dtype=complex)
    if g.shape[-2:] != (3, 3):
        raise ValueError("expected a 3x3 matrix or a stack of them")
    unitary_residual = np.linalg.norm(np.conj(np.swapaxes(g, -1, -2)) @ g - np.eye(3), axis=(-2, -1))
    det_residual = np.abs(np.linalg.det(g) - 1.0)
    residual = np.maximum(unitary_residual, det_residual)
    if not np.all(residual <= 1e-10):
        worst = np.unravel_index(np.argmax(residual), np.shape(residual))
        where = f" at stack index {tuple(int(i) for i in worst)}" if worst else ""
        raise ValueError(
            f"matrix{where} is not special unitary: |g*g - I| = {unitary_residual[worst]:.3e}, "
            f"|det - 1| = {det_residual[worst]:.3e}"
        )
    z = np.trace(g, axis1=-2, axis2=-1) / 3.0
    zb = np.conj(z)
    tr_g2 = np.trace(g @ g, axis1=-2, axis2=-1)
    # Entry-table sums: Gamma(Z,Z) = (1/9) [ (tr g)^2 - 3 tr(g^2) ],
    # Gamma(Z,Zb) = (1/9) [ 9 - |tr g|^2 ], L(Z) = -8 Z.
    gamma_zz = SU3_CASIMIR_SCALE * ((3.0 * z) ** 2 - 3.0 * tr_g2) / 9.0
    gamma_zzb = SU3_CASIMIR_SCALE * (9.0 - (3.0 * z) * (3.0 * zb)) / 9.0
    l_z = SU3_CASIMIR_SCALE * (-8.0) * z
    deltoid = deltoid_model(4)
    refs = CompiledPolys([deltoid.gamma["Z", "Z"], deltoid.gamma["Z", "Zb"], deltoid.drift["Z"]])
    ref_zz, ref_zzb, ref_l_z = refs.values({"Z": z, "Zb": zb})
    return {
        "Z": z,
        "gamma_zz": gamma_zz,
        "gamma_zzb": gamma_zzb,
        "l_z": l_z,
        "residual_gamma_zz": abs(gamma_zz - ref_zz),
        "residual_gamma_zzb": abs(gamma_zzb - ref_zzb),
        "residual_l_z": abs(l_z - ref_l_z),
        "residual_trace_identity": abs(tr_g2 - (9.0 * z * z - 6.0 * zb)),
        "unitary_residual": unitary_residual,
    }


# ---------------------------------------------------------------------------
# Torus parametrization and the theta action
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThetaPair:
    """Angle pair driving the coordinate rotations of the lifted model."""

    t1: float
    t2: float

    def is_interior(self, margin: float = 0.0) -> bool:
        """Z(theta) interior iff t1 != t2 and 2 t1 != -t2 (mod 2 pi)."""
        two_pi = 2.0 * math.pi
        d1 = (self.t1 - self.t2) % two_pi
        d2 = (2.0 * self.t1 + self.t2) % two_pi
        d3 = (self.t1 + 2.0 * self.t2) % two_pi
        gaps = [min(d, two_pi - d) for d in (d1, d2, d3)]
        return all(gap > margin for gap in gaps)


def theta_phases(t1, t2):
    """The phases (exp(i t1), exp(i t2), exp(-i (t1 + t2))) of the torus point t."""
    return np.exp(1j * t1), np.exp(1j * t2), np.exp(-1j * (t1 + t2))


def z_of_theta(t1, t2):
    """Z(theta) = (exp(i t1) + exp(i t2) + exp(-i (t1 + t2))) / 3.

    Arrays broadcast and fill the result in poly.blocks, so the temporaries
    stay block-sized (elementwise, so the bits are those of the one-shot
    expression); scalars give a complex.
    """
    t1, t2 = np.broadcast_arrays(np.asarray(t1, dtype=float), np.asarray(t2, dtype=float))
    out = np.empty(t1.shape, dtype=complex)
    a, b, z = t1.reshape(-1), t2.reshape(-1), out.reshape(-1)
    for block in blocks(z.size):
        e1, e2, e3 = theta_phases(a[block], b[block])
        z[block] = (e1 + e2 + e3) / 3.0
    return out if out.shape else complex(out)


def phi_theta(points: np.ndarray, theta: ThetaPair | tuple[float, float]) -> np.ndarray:
    """Coordinate-wise rotation (z1, z2, z3) -> (e^{i t1} z1, e^{i t2} z2, e^{-i(t1+t2)} z3)."""
    t1, t2 = (theta.t1, theta.t2) if isinstance(theta, ThetaPair) else theta
    return np.asarray(points, dtype=complex) * np.array(theta_phases(t1, t2), dtype=complex)


# ---------------------------------------------------------------------------
# G2 projection
# ---------------------------------------------------------------------------


@functools.cache
def _g2_gamma_entries() -> tuple[tuple[tuple[str, str], MPoly], ...]:
    g = MPoly.variables_ring(G2_VARS)
    s, p = g["s"], g["p"]
    return (
        (("s", "s"), p - s * s + s + 1),
        (("s", "p"), s * s - p * 2 - s * p * Fraction(3, 2) + s * Fraction(1, 2)),
        (("p", "p"), s**3 - p * p * 3 - s * p * 3 + p),
    )


def g2_gamma_table() -> dict[tuple[str, str], MPoly]:
    """A fresh dict of the G2 cometric's upper entries, built once per process."""
    return dict(_g2_gamma_entries())


@functools.cache
def q1_q2() -> tuple[MPoly, MPoly]:
    """The parabola factor q1 = s^2 - 4p and the quintic's cubic factor q2.

    q2 is pinned by the exact identity det(Gamma) = (1/4) q1 q2: it is
    computed by exact division, not transcribed, once per process.
    """
    gamma = g2_gamma_table()
    det = gamma[("s", "s")] * gamma[("p", "p")] - gamma[("s", "p")] * gamma[("s", "p")]
    g = MPoly.variables_ring(G2_VARS)
    s, p = g["s"], g["p"]
    q1 = s * s - p * 4
    q2 = divide_exact(det * 4, q1)
    return q1, q2


def g2_model(a1: RationalLike, a2: RationalLike) -> DiffusionModel:
    """G2-symmetric operator for the measure density q1**a1 * q2**a2.

    Finiteness requires every entry of G2_RANGES; the drift is derived from
    the measure, never transcribed.  The table, q1, q2 and their cofactors
    are built once per process; a model only combines them.
    """
    a1, a2 = Fraction(a1), Fraction(a2)
    values = {"alpha1": a1, "alpha2": a2, "alpha1+alpha2": a1 + a2}
    violated = [f"{key} {entry}" for key, entry in G2_RANGES.items()
                if not entry.admits(values[key])]
    if violated:
        raise IntegrabilityError(f"measure parameters ({a1}, {a2}) violate {', '.join(violated)}")
    gamma = g2_gamma_table()
    q1, q2 = q1_q2()
    drift = drift_from_measure(G2_VARS, gamma, [(q1, a1), (q2, a2)])
    return DiffusionModel(G2_VARS, gamma, drift, {"alpha1": a1, "alpha2": a2})


def g2_from_lambda(lam: RationalLike) -> DiffusionModel:
    """G2 model matching the deltoid parameter: (a1, a2) = (-1/2, (2 lam - 5)/6)."""
    return g2_model(Fraction(-1, 2), deltoid_density_exponent(lam))


PSI_IMAGES = {
    "s": MPoly.var(DELTOID_VARS, "Z") + MPoly.var(DELTOID_VARS, "Zb"),
    "p": MPoly.var(DELTOID_VARS, "Z") * MPoly.var(DELTOID_VARS, "Zb"),
}


# The self-map psi1 of the G2 domain exchanging the two boundary components,
# keyed by the domain's own variables: f.subs(PSI1_IMAGES) is f o psi1, and
# pushforward(model, PSI1_IMAGES) lands in the variables of g2_model.  The
# second coordinate carries the factor 3 on the cubic part; this is the
# normalization under which the bitangent point (2, 1) is fixed and the
# parabola factor pulls back to exactly three times the cubic factor.
PSI1_IMAGES = {
    "s": MPoly.var(G2_VARS, "p") * 3 - 1,
    "p": (MPoly.var(G2_VARS, "s") ** 3 - MPoly.var(G2_VARS, "s") * MPoly.var(G2_VARS, "p") * 3) * 3
    - MPoly.var(G2_VARS, "p") * 6
    + 1,
}


def psi1_intertwining_factor(a2: RationalLike) -> Fraction:
    """Exact scalar c with pushforward(g2(-1/2, a2), PSI1_IMAGES) = c * g2(a2, -1/2).

    c is read off Gamma(s, s), which no measure parameter changes; the whole
    image table and drift must then be c times the target's.  Raises
    NotClosedError when the pushforward is not closed and ValueError when the
    image is not an exact rational multiple of the target.  The computed
    factor is 3: the map triples the operator (equivalently, one third of the
    image operator is the parameter-swapped model).
    """
    a2 = Fraction(a2)
    image = pushforward(g2_model(Fraction(-1, 2), a2), PSI1_IMAGES)
    target = g2_model(a2, Fraction(-1, 2))
    exps, coeff = target.gamma[("s", "s")].leading()
    c = image.gamma[("s", "s")].coefficient(exps) / coeff
    if (not c.is_rational()
            or image.gamma != {key: entry * c for key, entry in target.gamma.items()}
            or image.drift != {v: entry * c for v, entry in target.drift.items()}):
        raise ValueError(f"image is not an exact rational multiple of the target "
                         f"(Gamma(s, s) ratio {c})")
    return c.rational_value()


# ---------------------------------------------------------------------------
# Parameter domains and registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParameterRange:
    """value > bound, or value >= bound when inclusive; user names who needs it."""

    bound: Fraction
    inclusive: bool
    user: str

    def admits(self, value: Fraction) -> bool:
        return value >= self.bound if self.inclusive else value > self.bound

    def __str__(self) -> str:
        return f"{'>=' if self.inclusive else '>'} {self.bound}"

    def require(self, lam: Fraction, error: type[Exception] = ValueError, hint: str = "") -> None:
        """Raise error, naming the user and the range, when lam is outside it."""
        if not self.admits(lam):
            raise error(f"{self.user} needs lambda {self}; got {lam}{hint}")


# The deltoid parameter each layer accepts, a condition on a density exponent
# (a test ties each bound to it): a finite G2 measure for g2_from_lambda, a
# bounded torus weight P**(alpha + 1/2), an integrable lifted density P1**beta,
# and for rejection sampling the envelope P1**beta <= 1, i.e. beta >= 0.
LAMBDA_RANGES = {
    "model": ParameterRange(Fraction(0), False, "the deltoid model"),
    "quadrature": ParameterRange(Fraction(1), True, "torus quadrature"),
    "lifted_sampler": ParameterRange(Fraction(5, 2), False, "sampling of the lifted domain"),
    "rejection_sampler": ParameterRange(
        Fraction(11, 2), True, "rejection sampling of the lifted domain"),
}

# Finiteness of the G2 measure q1**alpha1 * q2**alpha2, one entry per condition.
G2_RANGES = {
    "alpha1": ParameterRange(Fraction(-1), False, "the G2 measure"),
    "alpha2": ParameterRange(Fraction(-5, 6), False, "the G2 measure"),
    "alpha1+alpha2": ParameterRange(Fraction(-4, 3), False, "the G2 measure"),
}

# omega1_membership and the MCMC loop count P1 <= OMEGA1_P1_FLOOR as outside.
OMEGA1_P1_FLOOR = 1e-14


MODEL_REGISTRY = {
    "deltoid": {
        "constructor": "deltoid_model",
        "params": {"lambda": str(LAMBDA_RANGES["model"])},
        "numeric_ranges": {
            layer: {"lambda": str(bound)}
            for layer, bound in LAMBDA_RANGES.items() if layer != "model"
        },
    },
    "sixdim": {"constructor": "sixdim_model", "params": {"lambda": str(LAMBDA_RANGES["model"])}},
    "flat_torus": {"constructor": "flat_torus_model", "params": {}},
    "g2": {
        "constructor": "g2_model",
        "params": {key: str(entry) for key, entry in G2_RANGES.items()},
    },
}
