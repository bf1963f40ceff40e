"""The benchmark's three workloads.

Each workload has a ``run(seed, workdir)`` part, which is timed and returns
what it produced, and a ``check(state)`` part, which runs after timing and
returns an ``Outcome``.  An operation fails when it raises, when ``verify``
exits with a code other than 0, or when its output fails the check.  A
statistical gate that trips counts as a failed operation but not as a wrong
output; every other failed check makes the output wrong.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from deltoid_lab import cli
from deltoid_lab.diffusion import l_apply, pushforward
from deltoid_lab.hypergroup import (
    ProbeContext,
    block_cross_correlations,
    estimate_markov_matrix,
    markov_pair_exact,
    representation_check,
    rotation_delta_exact,
    theta_grid,
)
from deltoid_lab.models import (
    DELTOID_VARS,
    PI_IMAGES,
    PSI_IMAGES,
    deltoid_model,
    g2_from_lambda,
    omega1_membership,
    sixdim_model,
)
from deltoid_lab.poly import MPoly
from deltoid_lab.quadrature import TorusGrid, gram
from deltoid_lab.sampling import (
    estimate_moments,
    pushforward_deltoid,
    sample_omega1,
    sample_torus,
    su3_trace_samples,
)
from deltoid_lab.scalars import ONE, FieldScalar
from deltoid_lab.spectral import (
    eigen_g2,
    eigen_PQ_lambda,
    eigenvalue_deltoid,
    pq_indices,
    verify_rotation,
)

GATE = 4.0  # the standard-error gate that verify applies to every z-score
DEFAULT_VERIFY_SEED = 20260808
GOLDEN = os.path.join("tests", "golden", "eigen_degree4_lambda_7_3.json")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)  # wrong outputs: fail the run
    trips: list[str] = field(default_factory=list)  # statistical gates that tripped
    digest: str = ""  # outputs that must repeat for one commit and seed

    def op(self, ok: bool, what: str, statistical: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            (self.trips if statistical else self.errors).append(what)


def _attempt(errors: dict, key, fn, *args, **kwargs):
    """Call fn; on an exception record its traceback under key and return None."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # noqa: BLE001 - a failed operation is data, not a crash
        errors[key] = traceback.format_exc(limit=3)
        return None


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# verify_default
# ---------------------------------------------------------------------------


def verify_run(seed: int, workdir: str) -> dict:
    out = os.path.join(workdir, "report.json")
    errors: dict = {}
    code = _attempt(errors, "verify", cli.main, ["verify", "--seed", str(seed), "--out", out])
    return {"seed": seed, "out": out, "code": code, "errors": errors}


def verify_check(state: dict) -> Outcome:
    from deltoid_lab.verify import IDENTITY_MANIFEST

    result = Outcome()
    if state["errors"] or not os.path.exists(state["out"]):
        result.op(False, f"verify raised or wrote no report: {state['errors']}")
        return result
    result.digest = _sha256_file(state["out"])
    with open(state["out"], encoding="utf-8") as fh:
        report = json.load(fh)
    entries = report.get("entries", [])
    names = sorted(e["name"] for e in entries)
    numeric_fail = [e["name"] for e in entries if e["status"] == "numeric-fail"]
    problems = []
    if names != sorted(name for name, _ in IDENTITY_MANIFEST) or len(entries) != 54:
        problems.append(f"{len(entries)} entries do not match the identity manifest")
    if state["code"] not in (0, 1) or (state["code"] == 1) != bool(numeric_fail):
        problems.append(f"exit code {state['code']} with numeric failures {numeric_fail}")
    if problems:
        result.op(False, "; ".join(problems))
    elif numeric_fail:
        # At the default seed every gate passes; elsewhere a gate may trip.
        result.op(False, f"numeric-fail at seed {state['seed']}: {numeric_fail}",
                  statistical=state["seed"] != DEFAULT_VERIFY_SEED)
    else:
        result.op(True, "verify")
    return result


# ---------------------------------------------------------------------------
# exact_sweep
# ---------------------------------------------------------------------------


def lambda_pool() -> list[Fraction]:
    """{p/q : q <= 6, 1 <= p/q <= 8}: 85 distinct parameters."""
    return sorted({Fraction(p, q) for q in range(1, 7) for p in range(q, 8 * q + 1)})


def draw_lambdas(seed: int) -> list[Fraction]:
    """One parameter per reduced denominator 1..6, drawn with the seed.

    Drawing across the denominators keeps the amount of exact work per seed
    close to constant while every seed still runs six parameters that
    verify never uses.
    """
    rng = random.Random(seed)
    pool = lambda_pool()
    return [rng.choice([lam for lam in pool if lam.denominator == q]) for q in range(1, 7)]


EIGEN_DEGREE = 8
ROTATION_DEGREE = 6
G2_DEGREES = range(6)


def exact_one(lam: Fraction, workdir: str) -> dict:
    """Every exact operation of the sweep for one parameter."""
    errors: dict = {}
    out = os.path.join(workdir, f"eigen_{lam.numerator}_{lam.denominator}.json")
    code = _attempt(errors, "eigen", cli.main, [
        "eigen", "--lambda", str(lam), "--degree-max", str(EIGEN_DEGREE), "--out", out])
    model = deltoid_model(lam)
    rotations = {
        (n, k): _attempt(errors, ("rotation", n, k), verify_rotation, model, n, k)
        for n, k in pq_indices(ROTATION_DEGREE, include_constant=True)
    }
    g2 = g2_from_lambda(lam)
    g2_slices = {d: _attempt(errors, ("g2", d), eigen_g2, g2, d) for d in G2_DEGREES}
    lifted = _attempt(errors, "lifted", pushforward, sixdim_model(lam), PI_IMAGES)
    symmetric = _attempt(errors, "symmetric", pushforward, model, PSI_IMAGES)
    return {"lam": lam, "out": out, "code": code, "rotations": rotations, "g2": g2_slices,
            "lifted": lifted, "symmetric": symmetric, "errors": errors}


def exact_run(seed: int, workdir: str) -> dict:
    golden_out = os.path.join(workdir, "eigen_golden.json")
    errors: dict = {}
    code = _attempt(errors, "golden", cli.main, [
        "eigen", "--lambda", "7/3", "--degree-max", "4", "--out", golden_out])
    return {
        "golden": {"out": golden_out, "code": code, "errors": errors},
        "lambdas": [exact_one(lam, workdir) for lam in draw_lambdas(seed)],
    }


_TERM_SPLIT = re.compile(r" ([+-]) ")
_COMPONENT_SPLIT = re.compile(r"(?<=.)(?=[+-])")
_UNITS = {"i": FieldScalar(Fraction(0), Fraction(1)),
          "r3": FieldScalar(Fraction(0), Fraction(0), Fraction(1))}


def _parse_factors(tokens: list[str]) -> FieldScalar:
    value = ONE
    for token in tokens:
        value = value * (_UNITS[token] if token in _UNITS else Fraction(token))
    return value


def parse_poly(text: str, variables: tuple[str, ...]) -> MPoly:
    """Read the canonical polynomial text of docs/schemas.md back into an MPoly.

    Raises ValueError unless printing the result gives back the same text.
    """
    if text == "0":
        return MPoly.zero(variables)
    pieces = _TERM_SPLIT.split(text)
    signed = [("+", pieces[0])] + list(zip(pieces[1::2], pieces[2::2]))
    terms: dict = {}
    for sign, body in signed:
        if body.startswith("-"):
            sign, body = ("-" if sign == "+" else "+"), body[1:]
        if body.startswith("("):
            inner, _, rest = body[1:].partition(")")
            coeff = FieldScalar()
            for comp in _COMPONENT_SPLIT.split(inner):
                negative = comp.startswith("-")
                value = _parse_factors(comp.lstrip("+-").split("*"))
                coeff = coeff + (-value if negative else value)
            tokens = rest.lstrip("*").split("*") if rest else []
        else:
            tokens = body.split("*")
            factors = [t for t in tokens if t.split("^")[0] not in variables]
            tokens = [t for t in tokens if t.split("^")[0] in variables]
            coeff = _parse_factors(factors)
        exps = [0] * len(variables)
        for token in tokens:
            name, _, power = token.partition("^")
            exps[variables.index(name)] = int(power or 1)
        terms[tuple(exps)] = -coeff if sign == "-" else coeff
    poly = MPoly(variables, terms)
    if str(poly) != text:
        raise ValueError(f"canonical text does not round-trip: {text!r}")
    return poly


def _same_operator(a, b) -> bool:
    return a.variables == b.variables and a.gamma == b.gamma and a.drift == b.drift


def _check_eigen_file(item: dict) -> list[str]:
    lam = item["lam"]
    with open(item["out"], encoding="utf-8") as fh:
        payload = json.load(fh)
    model = deltoid_model(lam)
    problems = []
    if payload["lambda"] != str(lam) or payload["degree_max"] != EIGEN_DEGREE:
        problems.append("header")
    found = set()
    for entry in payload["entries"]:
        if entry["flavor"] != "R":
            continue
        n, k = entry["n"], entry["k"]
        found.add((n, k))
        expected = eigenvalue_deltoid(lam, n, k)
        r = parse_poly(entry["poly"], DELTOID_VARS)
        if (entry["eigenvalue"] != str(expected) or r.coefficient((n, k)) != ONE
                or l_apply(model, r) != r * (-expected)):
            problems.append(f"R({n},{k})")
    wanted = {(d - k, k) for d in range(EIGEN_DEGREE + 1) for k in range(d + 1)}
    if found != wanted:
        problems.append(f"R entries {sorted(wanted - found)} missing")
    return problems


def exact_check(state: dict) -> Outcome:
    result = Outcome()
    digest = hashlib.sha256()
    golden = state["golden"]
    ok = not golden["errors"] and golden["code"] == 0
    if ok:
        with open(golden["out"], "rb") as fh, open(GOLDEN, "rb") as ref:
            ok = fh.read() == ref.read()
    result.op(ok, f"eigen 7/3 output differs from {GOLDEN}: {golden['errors']}")
    for item in state["lambdas"]:
        lam, errors = item["lam"], item["errors"]
        where = f"lambda={lam}"
        if "eigen" in errors or item["code"] != 0:
            result.op(False, f"{where}: eigen failed: {errors.get('eigen')}")
        else:
            digest.update(_sha256_file(item["out"]).encode())
            problems = _check_eigen_file(item)
            result.op(not problems, f"{where}: eigen relation fails for {problems}")
        for (n, k), rep in item["rotations"].items():
            result.op(rep is not None and rep.ok,
                      f"{where}: rotation ({n},{k}) {errors.get(('rotation', n, k), 'not ok')}")
        g2 = g2_from_lambda(lam)
        for d, polys in item["g2"].items():
            ok = polys is not None and len(polys) == d // 2 + 1 and all(
                l_apply(g2, e.poly) == e.poly * (-e.eigenvalue) for e in polys)
            digest.update(repr([str(e.poly) for e in polys or ()]).encode())
            result.op(ok, f"{where}: G2 slice {d} {errors.get(('g2', d), 'wrong')}")
        lifted = item["lifted"]
        result.op(lifted is not None and _same_operator(lifted, deltoid_model(lam)),
                  f"{where}: lifted pushforward {errors.get('lifted', 'differs')}")
        symmetric = item["symmetric"]
        result.op(symmetric is not None and _same_operator(symmetric, g2),
                  f"{where}: symmetric pushforward {errors.get('symmetric', 'differs')}")
    result.digest = digest.hexdigest()
    return result


# ---------------------------------------------------------------------------
# numeric_sweep
# ---------------------------------------------------------------------------

TORUS_SAMPLES = 1_000_000
SU3_SAMPLES = 1_000_000
OMEGA1_SAMPLES = 100_000
MCMC_SAMPLES = 4000
MCMC_STEP = 0.25
LAM_LIFTED = Fraction(11, 2)
PROBE_DEGREE = 4
GRID_N = 96
THETA_PER_AXIS = 5
REPRESENTATION_GRID = 64
GRAM_DEGREE = 5
MOMENT_DEGREE = 4


def sampler_seeds(seed: int) -> dict[str, int]:
    names = ("torus", "su3", "rejection", "mcmc")
    state = np.random.SeedSequence(seed).generate_state(len(names))
    return {name: int(s) for name, s in zip(names, state)}


def _moment_z(z: np.ndarray, lam: Fraction) -> float:
    """Worst |mean| / standard error of the eigenfunctions with 1 <= n+k <= 4."""
    worst = 0.0
    point = {"Z": z, "Zb": np.conj(z)}
    for n, k in pq_indices(MOMENT_DEGREE):
        for e in eigen_PQ_lambda(lam, n, k):
            if e.poly.is_zero():
                continue
            vals = np.real(e.poly.evaluate(point))
            se = float(vals.std(ddof=1) / math.sqrt(len(vals)))
            worst = max(worst, abs(float(vals.mean())) / se)
    return worst


def numeric_run(seed: int, workdir: str) -> dict:
    seeds = sampler_seeds(seed)
    errors: dict = {}
    out: dict = {"errors": errors}

    def step(key, fn, *args, **kwargs):
        out[key] = _attempt(errors, key, fn, *args, **kwargs)
        return out[key]

    def torus_moments():
        return _moment_z(pushforward_deltoid(sample_torus(TORUS_SAMPLES, seeds["torus"])),
                         Fraction(1))

    def su3_moments():
        return _moment_z(su3_trace_samples(SU3_SAMPLES, seeds["su3"]), Fraction(4))

    step("torus_moments", torus_moments)
    step("su3_moments", su3_moments)
    batch = step("rejection", sample_omega1, LAM_LIFTED, OMEGA1_SAMPLES, seeds["rejection"],
                 method="rejection")
    step("mcmc", sample_omega1, LAM_LIFTED, MCMC_SAMPLES, seeds["mcmc"], method="mcmc",
         step=MCMC_STEP)
    ctx = step("probe", ProbeContext.build, LAM_LIFTED, PROBE_DEGREE, GRID_N)
    thetas = theta_grid(THETA_PER_AXIS)
    out["markov"] = {}
    if ctx is not None and batch is not None:
        for i, theta in enumerate(thetas):
            for n, k in ctx.pairs:
                def one(theta=theta, n=n, k=k):
                    est = estimate_markov_matrix(ctx, n, k, theta, batch)
                    exact = markov_pair_exact(ctx, n, k, theta)
                    return est, exact, rotation_delta_exact(ctx, n, k, theta)

                out["markov"][(i, n, k)] = _attempt(errors, ("markov", i, n, k), one)
        step("cross", block_cross_correlations, ctx, thetas[len(thetas) // 2], batch)

        def representation():
            grid = TorusGrid.build(LAM_LIFTED, REPRESENTATION_GRID)
            return representation_check(ctx, grid.z.ravel(), grid.weight.ravel())

        step("representation", representation)

    def gram_at(lam):
        grid = TorusGrid.build(lam, GRID_N)
        polys = []
        for n, k in pq_indices(GRAM_DEGREE):
            p_hat, q_hat = eigen_PQ_lambda(lam, n, k)
            polys.append(p_hat.poly)
            if n != k:
                polys.append(q_hat.poly)
        return gram(polys, grid)

    for lam in (Fraction(1), Fraction(4)):
        step(("gram", lam), gram_at, lam)
    return out


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=complex))) for v in values)


def numeric_check(state: dict) -> Outcome:
    result = Outcome()
    errors = state["errors"]
    digest = hashlib.sha256()

    def z_gate(key, z):
        if z is None:
            result.op(False, f"{key}: {errors.get(key)}")
            return
        digest.update(repr((key, z)).encode())
        if not _finite(z):
            result.op(False, f"{key}: non-finite z-score")
        else:
            result.op(z < GATE, f"{key}: z = {z:.2f} >= {GATE}", statistical=True)

    z_gate("torus_moments", state["torus_moments"])
    z_gate("su3_moments", state["su3_moments"])

    rejection, mcmc = state["rejection"], state["mcmc"]
    result.op(rejection is not None and _finite(rejection.points)
              and bool(np.all(omega1_membership(rejection.points))),
              f"rejection: points outside the lifted domain {errors.get('rejection', '')}")
    result.op(mcmc is not None and _finite(mcmc.points, mcmc.stats["ess"]),
              f"mcmc: {errors.get('mcmc', 'non-finite output')}")
    if rejection is not None and mcmc is not None:
        funcs = {"S1": lambda pts: (pts * pts.conjugate()).real.sum(axis=1)}
        m_rej = estimate_moments(rejection, funcs)["S1"]
        m_mc = estimate_moments(mcmc, funcs)["S1"]
        z_gate("two_sampler", abs(m_rej.mean - m_mc.mean)
               / math.hypot(m_rej.standard_error, m_mc.standard_error))

    ctx = state["probe"]
    result.op(ctx is not None and all(_finite(v) for v in ctx.norms2.values()),
              f"probe: {errors.get('probe', 'non-finite norms')}")
    for key, value in state["markov"].items():
        if value is None:
            result.op(False, f"markov {key}: {errors.get(('markov',) + key)}")
            continue
        est, (alpha, gamma), d_rot = value
        _, n, k = key
        entries = (est.alpha, est.beta, est.gamma, est.delta, alpha, gamma)
        if not _finite(*entries, *(se for _, se in est.provenance.values())):
            result.op(False, f"markov {key}: non-finite entries")
            continue
        zs = [abs(est.alpha - alpha) / est.provenance["alpha"][1]]
        if n != k:
            zs += [abs(est.gamma - gamma) / est.provenance["gamma"][1],
                   abs(est.beta + gamma) / est.provenance["beta"][1]]
            if d_rot is not None:
                zs.append(abs(est.delta - d_rot) / est.provenance["delta"][1])
        z_gate(f"markov {key}", max(zs))

    cross = state.get("cross")
    if cross is None:
        result.op(False, f"cross: {errors.get('cross')}")
    else:
        z_gate("cross", max(abs(c["correlation"]) / c["standard_error"] for c in cross))

    rep = state.get("representation")
    if rep is None:
        result.op(False, f"representation: {errors.get('representation')}")
    else:
        coeffs = rep["coefficients"]
        mu_zero = max(abs(a) + abs(b) for a, b in coeffs.values())
        digest.update(repr(sorted(coeffs.items())).encode())
        result.op(_finite(*coeffs.values()) and rep["contraction_ok"] and mu_zero < 1e-6,
                  f"representation: contraction {rep['contraction_ok']}, max {mu_zero:.2e}")

    for lam in (Fraction(1), Fraction(4)):
        matrix = state[("gram", lam)]
        if matrix is None:
            result.op(False, f"gram {lam}: {errors.get(('gram', lam))}")
            continue
        off = float(np.max(np.abs(matrix - np.diag(np.diag(matrix)))))
        digest.update(matrix.tobytes())
        result.op(_finite(matrix) and off < 1e-8, f"gram {lam}: off-diagonal {off:.2e}")
    result.digest = digest.hexdigest()
    return result


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    run: object
    check: object


WORKLOADS = {
    "verify_default": Workload(verify_run, verify_check),
    "exact_sweep": Workload(exact_run, exact_check),
    "numeric_sweep": Workload(numeric_run, numeric_check),
}
