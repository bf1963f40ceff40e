"""Layer tracing for the traced benchmark run.

The tracer wraps the public functions of each ``deltoid_lab`` layer from
outside the package.  A wrapped name is rebound wherever it is bound: on the
defining module, on every ``deltoid_lab`` module that imported it with
``from ... import``, and on every class attribute that aliases it (such as
``__rmul__ = __mul__``).  Nothing inside ``src/`` is edited.

Three kinds of wrapper exist:

* a *span* records (id, name, start, end, parent, run id) in memory;
* a *timed counter* accumulates calls and self time without a record, for
  the hot operations ``MPoly.__mul__`` and ``MPoly.evaluate``;
* a *counter* only counts, for ``FieldScalar.__mul__`` and
  ``FieldScalar.inverse``, which run hundreds of thousands of times.

Spans and timed counters share one frame stack, so a span's self time is its
duration minus the time covered by every timed wrapper nested inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from collections import defaultdict
from fractions import Fraction

# Identity name -> verify suite.  Suite time is the gap between consecutive
# ``VerificationReport.add`` calls, charged to the suite of the later entry.
SUITE_OF_IDENTITY = {
    **{n: "algebra" for n in (
        "algebra.field_axioms", "algebra.conjugation_involution", "algebra.rotation_period",
        "algebra.determinant_cross_check", "algebra.exact_division_roundtrip")},
    **{n: "symbolic" for n in (
        "deltoid.metric_determinant", "deltoid.boundary_cofactors", "deltoid.measure_drift",
        "deltoid.divergence_sum", "sixdim.metric_determinant", "sixdim.boundary_cofactors",
        "sixdim.divergence_sum", "sixdim.measure_drift", "sixdim.projection_to_deltoid",
        "deltoid.projection_to_g2", "g2.metric_determinant", "g2.boundary_cofactors",
        "g2.measure_drift", "g2.psi1_intertwining", "g2.psi1_not_closed",
        "g2.psi1_boundary_exchange", "g2.boundary_pullback_to_deltoid")},
    **{n: "models_numeric" for n in (
        "flat_torus.constraint_match", "discrepancy.flat_torus_cross_term_sign",
        "sixdim.p1_polar_form", "discrepancy.g2_boundary_cubic_printings",
        "su3.casimir_pointwise", "sixdim.ellipticity", "deltoid.membership_consistency")},
    "discrepancy.markov_delta_closed_form": "hypergroup",
}
SUITES = ("algebra", "symbolic", "models_numeric", "spectral", "quadrature", "sampling",
          "hypergroup")

# (metric, unit, better) for every per-layer metric, in report order.
METRICS = (
    ("scalars.mul.calls", "count", "lower"),
    ("scalars.mul.rational_share", "ratio", "higher"),
    ("scalars.inverse.calls", "count", "lower"),
    ("poly.mul.calls", "count", "lower"),
    ("poly.mul.term_pairs", "count", "lower"),
    ("poly.mul.self_s", "s", "lower"),
    ("poly.exact_ops.self_s", "s", "lower"),
    ("poly.evaluate.calls", "count", "lower"),
    ("poly.evaluate.term_points", "count", "lower"),
    ("poly.evaluate.self_s", "s", "lower"),
    ("diffusion.l_apply.calls", "count", "lower"),
    ("diffusion.l_apply.self_s", "s", "lower"),
    ("diffusion.pushforward.s", "s", "lower"),
    ("spectral.solve.calls", "count", "lower"),
    ("spectral.solve.distinct_share", "ratio", "higher"),
    ("spectral.solve.self_s", "s", "lower"),
    ("spectral.pq_cache.hit_share", "ratio", "higher"),
    ("quadrature.grid.builds", "count", "lower"),
    ("quadrature.grid.distinct_share", "ratio", "higher"),
    ("quadrature.gram.s", "s", "lower"),
    ("models.omega1_membership.calls", "count", "lower"),
    ("models.omega1_membership.points", "count", "lower"),
    ("sampling.torus.s", "s", "lower"),
    ("sampling.su3.s", "s", "lower"),
    ("sampling.rejection.s", "s", "lower"),
    ("sampling.mcmc.s", "s", "lower"),
    ("sampling.rejection.acceptance", "ratio", "higher"),
    ("sampling.mcmc.move_acceptance", "ratio", "higher"),
    ("sampling.mcmc.ess_per_s", "1/s", "higher"),
    ("hypergroup.estimate.calls", "count", "lower"),
    ("hypergroup.estimate.s", "s", "lower"),
    ("hypergroup.eval.points", "count", "lower"),
    ("hypergroup.eval.distinct_share", "ratio", "higher"),
    *((f"verify.suite.{s}.s", "s", "lower") for s in SUITES),
    ("report.emit.s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)

# Metrics made only of counts: they must repeat exactly across traced runs.
COUNT_METRICS = tuple(
    name for name, unit, _ in METRICS
    if unit == "count" or (unit == "ratio" and name != "trace.overhead_share")
)

# Layer -> the count that shows it ran.  A workload declares which layers it
# must reach and which it must not; the traced run fails otherwise.
LAYER_PROBES = {
    "scalars": "scalars.mul.calls",
    "scalars.inverse": "scalars.inverse.calls",
    "poly.mul": "poly.mul.calls",
    "poly.exact_ops": "poly.exact_ops.calls",
    "poly.evaluate": "poly.evaluate.calls",
    "diffusion.l_apply": "diffusion.l_apply.calls",
    "diffusion.pushforward": "diffusion.pushforward.calls",
    "spectral.solve": "spectral.solve.calls",
    "spectral.pq_cache": "spectral.pq_cache.calls",
    "quadrature.grid": "quadrature.grid.calls",
    "quadrature.gram": "quadrature.gram.calls",
    "models.omega1_membership": "models.omega1_membership.calls",
    "sampling.torus": "sampling.torus.calls",
    "sampling.su3": "sampling.su3.calls",
    "sampling.rejection": "sampling.rejection.calls",
    "sampling.mcmc": "sampling.mcmc.calls",
    "hypergroup.estimate": "hypergroup.estimate.calls",
    "hypergroup.eval": "hypergroup.eval.calls",
    "verify": "verify.run.calls",
    "report.emit": "report.emit.calls",
}


# Per workload: the layers a traced run must see called, and those it must not.
DECLARED_LAYERS = {
    "verify_default": (tuple(LAYER_PROBES), ()),
    "exact_sweep": (
        ("scalars", "scalars.inverse", "poly.mul", "poly.exact_ops", "diffusion.l_apply",
         "diffusion.pushforward", "spectral.solve", "report.emit"),
        ("poly.evaluate", "quadrature.grid", "quadrature.gram", "models.omega1_membership",
         "sampling.torus", "sampling.su3", "sampling.rejection", "sampling.mcmc",
         "hypergroup.estimate", "hypergroup.eval", "verify"),
    ),
    "numeric_sweep": (
        ("scalars", "poly.mul", "poly.evaluate", "diffusion.l_apply", "spectral.solve",
         "spectral.pq_cache", "quadrature.grid", "quadrature.gram",
         "models.omega1_membership", "sampling.torus", "sampling.su3", "sampling.rejection",
         "sampling.mcmc", "hypergroup.estimate", "hypergroup.eval"),
        ("verify", "report.emit", "diffusion.pushforward"),
    ),
}


class CoverageError(RuntimeError):
    """A layer declared for a workload recorded no calls, or one declared absent did."""


def check_coverage(counts: dict, present: tuple[str, ...], absent: tuple[str, ...]) -> None:
    missing = [layer for layer in present if not counts.get(LAYER_PROBES[layer])]
    stray = [layer for layer in absent if counts.get(LAYER_PROBES[layer])]
    problems = []
    if missing:
        problems.append(f"declared layers recorded zero calls: {missing}")
    if stray:
        problems.append(f"layers declared absent recorded calls: {stray}")
    if problems:
        raise CoverageError("; ".join(problems))


def _model_key(model) -> str:
    return json.dumps(model.to_jsonable(), sort_keys=True)


def _points_key(z) -> tuple:
    """Cheap, deterministic fingerprint of a point array."""
    flat = z.reshape(-1)
    stride = max(1, flat.size // 64)
    return (flat.size, flat[::stride].tobytes(), complex(flat.sum()))


class Tracer:
    """Installs the wrappers, collects spans and counts, and removes them again."""

    def __init__(self, run_id: str, callers: tuple = ()):
        self.run_id = run_id
        self.callers = callers  # modules outside the package that import layer names
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.add_times: list[tuple[float, str]] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._seen: dict[str, set] = defaultdict(set)
        self._model_keys: dict[int, tuple[object, str]] = {}

    # -- wrapper factories -----------------------------------------------

    def _timed(self, name: str, fn, record: bool, on_call=None):
        """Span (record=True) or timed counter (record=False) around fn."""
        stack = self._stack
        counts = self.counts
        calls_key, self_key = f"{name}.calls", f"{name}.self_s"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            frame = [0.0, self._next_id, stack[-1][1] if stack else None]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                counts[calls_key] += 1
                counts[self_key] += duration - frame[0]
                if record:
                    self.spans.append((frame[1], name, start, end, frame[2], frame[0]))

        return wrapper

    # -- installation ----------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Replace original everywhere a deltoid_lab module or class binds it."""
        for module in (*_package_modules(), *self.callers):
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)
                elif inspect.isclass(value) and value.__module__.startswith("deltoid_lab"):
                    for cattr, cvalue in list(vars(value).items()):
                        raw = cvalue.__func__ if isinstance(cvalue, staticmethod) else cvalue
                        if raw is original:
                            wrapped = (staticmethod(replacement)
                                       if isinstance(cvalue, staticmethod) else replacement)
                            self._patch(value, cattr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        if any(o is owner and a == attr for o, a, _ in self._patches):
            return
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        from deltoid_lab import (diffusion, hypergroup, models, poly, quadrature, report,
                                 sampling, scalars, spectral, verify)

        counts = self.counts
        seen = self._seen

        # scalars: counters only.
        mul = scalars.FieldScalar.__mul__

        def scalar_mul(a, b):
            counts["scalars.mul.calls"] += 1
            if not (a.b or a.c or a.d) and (
                not isinstance(b, scalars.FieldScalar) or not (b.b or b.c or b.d)
            ):
                counts["scalars.mul.rational_calls"] += 1
            return mul(a, b)

        self._rebind(mul, functools.wraps(mul)(scalar_mul))
        inverse = scalars.FieldScalar.inverse

        def scalar_inverse(a):
            counts["scalars.inverse.calls"] += 1
            return inverse(a)

        self._rebind(inverse, functools.wraps(inverse)(scalar_inverse))

        # poly: timed counters for the hot operations, spans for exact ops.
        def on_poly_mul(args, kwargs):
            f, g = args
            counts["poly.mul.term_pairs"] += len(f.terms) * (
                len(g.terms) if isinstance(g, poly.MPoly) else 1)

        self._rebind(poly.MPoly.__mul__,
                     self._timed("poly.mul", poly.MPoly.__mul__, False, on_poly_mul))

        def on_evaluate(args, kwargs):
            f, point = args
            size = max((getattr(v, "size", 1) for v in point.values()), default=1)
            counts["poly.evaluate.term_points"] += len(f.terms) * size

        self._rebind(poly.MPoly.evaluate,
                     self._timed("poly.evaluate", poly.MPoly.evaluate, False, on_evaluate))
        for fn in (poly.det_fraction_free, poly.divide_exact, poly.MPoly.subs,
                   poly.solve_field_linear):
            self._rebind(fn, self._timed("poly.exact_ops", fn, True))

        # diffusion and spectral.
        self._rebind(diffusion.l_apply, self._timed("diffusion.l_apply", diffusion.l_apply, True))
        self._rebind(diffusion.pushforward,
                     self._timed("diffusion.pushforward", diffusion.pushforward, True))

        def on_solve(args, kwargs):
            model, lead = _arguments(spectral.graded_triangular_solve, args, kwargs,
                                     "model", "lead")
            entry = self._model_keys.get(id(model))
            if entry is None or entry[0] is not model:
                entry = (model, _model_key(model))
                self._model_keys[id(model)] = entry
            seen["spectral.solve"].add((entry[1], tuple(lead)))

        self._rebind(spectral.graded_triangular_solve,
                     self._timed("spectral.solve", spectral.graded_triangular_solve, True,
                                 on_solve))

        def on_pq(args, kwargs):
            lam, n, k = _arguments(spectral.eigen_PQ_lambda, args, kwargs, "lam", "n", "k")
            key = (Fraction(lam), n, k)
            if key in seen["spectral.pq_cache"]:
                counts["spectral.pq_cache.hits"] += 1
            seen["spectral.pq_cache"].add(key)

        self._rebind(spectral.eigen_PQ_lambda,
                     self._timed("spectral.pq_cache", spectral.eigen_PQ_lambda, True, on_pq))

        # quadrature.
        build = vars(quadrature.TorusGrid)["build"].__func__

        def on_grid(args, kwargs):
            lam, n = _arguments(build, args, kwargs, "lam", "n")
            seen["quadrature.grid"].add((Fraction(lam), n))

        self._rebind(build, self._timed("quadrature.grid", build, True, on_grid))
        self._rebind(quadrature.gram, self._timed("quadrature.gram", quadrature.gram, True))

        # models: membership counter.
        membership = models.omega1_membership

        def on_membership(args, kwargs):
            points = args[0] if args else kwargs["points"]
            counts["models.omega1_membership.points"] += getattr(points, "size", 3) // 3

        self._rebind(membership, self._timed("models.omega1_membership", membership, False,
                                             on_membership))

        # sampling.
        self._rebind(sampling.sample_torus,
                     self._timed("sampling.torus", sampling.sample_torus, True))
        for fn in (sampling.su3_trace_samples, sampling.sample_su3_haar):
            self._rebind(fn, self._timed("sampling.su3", fn, True))
        self._rebind(sampling.sample_omega1, self._omega1_wrapper(sampling.sample_omega1))

        # hypergroup.
        self._rebind(hypergroup.estimate_markov_matrix,
                     self._timed("hypergroup.estimate", hypergroup.estimate_markov_matrix, True))
        eval_pair = hypergroup.ProbeContext.eval_pair

        def on_eval(args, kwargs):
            z = args[3] if len(args) > 3 else kwargs["z"]
            counts["hypergroup.eval.points"] += z.size
            seen["hypergroup.eval"].add(_points_key(z))

        self._rebind(eval_pair, self._timed("hypergroup.eval", eval_pair, False, on_eval))

        # orchestration.
        self._rebind(verify.run_verify, self._timed("verify.run", verify.run_verify, True))
        add = report.VerificationReport.add

        def report_add(rep, name, *args, **kwargs):
            self.add_times.append((time.perf_counter(), name))
            return add(rep, name, *args, **kwargs)

        self._rebind(add, functools.wraps(add)(report_add))
        for fn in (report.emit_report, report.emit_json, report.emit_csv, report.emit_svg):
            self._rebind(fn, self._timed("report.emit", fn, True))

    def _omega1_wrapper(self, fn):
        signature = inspect.signature(fn)
        wrapped = {
            method: self._timed(f"sampling.{method}", fn, True)
            for method in ("rejection", "mcmc")
        }
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            method = bound.arguments["method"]
            batch = wrapped[method](*args, **kwargs)
            stats = batch.stats
            if method == "rejection":
                counts["sampling.rejection.proposed"] += stats["proposed"]
                counts["sampling.rejection.accepted"] += stats["acceptance_rate"] * stats["proposed"]
            else:
                steps = stats["burn_in"] + len(batch) * stats["thinning"]
                counts["sampling.mcmc.steps"] += steps
                counts["sampling.mcmc.moves"] += stats["move_acceptance"] * steps
                counts["sampling.mcmc.ess"] += stats["ess"]
            return batch

        return wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def _span_seconds(self, name: str) -> float:
        """Wall time covered by the outermost spans of one name."""
        names = {span[0]: span[1] for span in self.spans}
        parents = {span[0]: span[4] for span in self.spans}

        def nested(parent):
            while parent is not None:
                if names.get(parent) == name:
                    return True
                parent = parents.get(parent)
            return False

        return sum(s[3] - s[2] for s in self.spans if s[1] == name and not nested(s[4]))

    def _suite_seconds(self) -> dict[str, float]:
        out = {suite: 0.0 for suite in SUITES}
        runs = [s for s in self.spans if s[1] == "verify.run"]
        if not runs:
            return out
        start, end = runs[0][2], runs[0][3]
        previous = start
        suite = SUITES[0]
        for stamp, name in self.add_times:
            guess = SUITE_OF_IDENTITY.get(name, name.split(".", 1)[0])
            suite = guess if guess in out else suite
            out[suite] += stamp - previous
            previous = stamp
        out[suite] += end - previous
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric but ``trace.overhead_share``, which needs an untraced pass."""
        c = self.counts
        seen = self._seen

        def share(num: float, den: float) -> float:
            return num / den if den else 0.0

        values = {
            "scalars.mul.calls": c["scalars.mul.calls"],
            "scalars.mul.rational_share": share(c["scalars.mul.rational_calls"],
                                                c["scalars.mul.calls"]),
            "scalars.inverse.calls": c["scalars.inverse.calls"],
            "poly.mul.calls": c["poly.mul.calls"],
            "poly.mul.term_pairs": c["poly.mul.term_pairs"],
            "poly.mul.self_s": c["poly.mul.self_s"],
            "poly.exact_ops.self_s": c["poly.exact_ops.self_s"],
            "poly.evaluate.calls": c["poly.evaluate.calls"],
            "poly.evaluate.term_points": c["poly.evaluate.term_points"],
            "poly.evaluate.self_s": c["poly.evaluate.self_s"],
            "diffusion.l_apply.calls": c["diffusion.l_apply.calls"],
            "diffusion.l_apply.self_s": c["diffusion.l_apply.self_s"],
            "diffusion.pushforward.s": self._span_seconds("diffusion.pushforward"),
            "spectral.solve.calls": c["spectral.solve.calls"],
            "spectral.solve.distinct_share": share(len(seen["spectral.solve"]),
                                                   c["spectral.solve.calls"]),
            "spectral.solve.self_s": c["spectral.solve.self_s"],
            "spectral.pq_cache.hit_share": share(c["spectral.pq_cache.hits"],
                                                 c["spectral.pq_cache.calls"]),
            "quadrature.grid.builds": c["quadrature.grid.calls"],
            "quadrature.grid.distinct_share": share(len(seen["quadrature.grid"]),
                                                    c["quadrature.grid.calls"]),
            "quadrature.gram.s": self._span_seconds("quadrature.gram"),
            "models.omega1_membership.calls": c["models.omega1_membership.calls"],
            "models.omega1_membership.points": c["models.omega1_membership.points"],
            "sampling.torus.s": self._span_seconds("sampling.torus"),
            "sampling.su3.s": self._span_seconds("sampling.su3"),
            "sampling.rejection.s": self._span_seconds("sampling.rejection"),
            "sampling.mcmc.s": self._span_seconds("sampling.mcmc"),
            "sampling.rejection.acceptance": share(c["sampling.rejection.accepted"],
                                                   c["sampling.rejection.proposed"]),
            "sampling.mcmc.move_acceptance": share(c["sampling.mcmc.moves"],
                                                   c["sampling.mcmc.steps"]),
            "hypergroup.estimate.calls": c["hypergroup.estimate.calls"],
            "hypergroup.estimate.s": self._span_seconds("hypergroup.estimate"),
            "hypergroup.eval.points": c["hypergroup.eval.points"],
            "hypergroup.eval.distinct_share": share(len(seen["hypergroup.eval"]),
                                                    c["hypergroup.eval.calls"]),
            "report.emit.s": self._span_seconds("report.emit"),
        }
        mcmc_s = values["sampling.mcmc.s"]
        values["sampling.mcmc.ess_per_s"] = share(c["sampling.mcmc.ess"], mcmc_s)
        for suite, seconds in self._suite_seconds().items():
            values[f"verify.suite.{suite}.s"] = seconds
        return {name: int(values[name]) if unit == "count" else values[name]
                for name, unit, _ in METRICS if name in values}

    def absent(self) -> dict[str, str]:
        """Metrics whose layer made no calls in this run, with the reason."""
        out = {}
        for name, _, _ in METRICS:
            if name == "trace.overhead_share":
                continue
            layer = "verify.run" if name.startswith("verify.suite.") else ".".join(
                name.split(".")[:2])
            if not self.counts[f"{layer}.calls"]:
                out[name] = f"no calls to {layer}; reported as 0"
        return out

    def layer_counts(self) -> dict[str, float]:
        """Raw call counts per layer, for the coverage check."""
        return {probe: self.counts[probe] for probe in LAYER_PROBES.values()}

    def dump_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, child_s in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "self_s": end - start - child_s, "run": self.run_id,
                }) + "\n")


def _arguments(fn, args, kwargs, *names):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    return tuple(bound.arguments[name] for name in names)


def _package_modules():
    import deltoid_lab

    for info in pkgutil.iter_modules(deltoid_lab.__path__, "deltoid_lab."):
        yield importlib.import_module(info.name)
    yield sys.modules["deltoid_lab"]
