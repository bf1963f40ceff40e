"""deltoid-lab benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Workloads (see ``workloads.py``):

* ``verify_default``: ``deltoid-lab verify`` at the default configuration,
  with the benchmark seed;
* ``exact_sweep``: the exact stack on six parameters verify never uses;
* ``numeric_sweep``: the samplers, quadrature and kernel probe at verify's
  default sizes.

Every pass of a workload is a fresh interpreter (``child.py``), and only one
runs at a time.  With ``--trace 0`` the run first launches a few interpreters
that only import the package, then repeats passes while another one fits in
``--seconds``, and reports medians of the end-to-end metrics, with times
scaled to a reference host speed by ``speedprobe``.  With ``--trace 1`` it
runs one untraced and one traced pass and reports the per-layer metrics.  The last
line of standard output is the JSON result; the lines before it record the
environment and the report digests.  Scratch files go to ``.perfbench/`` in
the checkout; the spans of a traced run stay there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import speedprobe  # noqa: E402

WORKLOAD_NAMES = ("verify_default", "exact_sweep", "numeric_sweep")
SETUP_PROBES = 15  # import-only launches per run, besides one per pass
SETUP_KERNELS = 25  # speed kernels timed just before each launch
DEADLINE_S = 170.0  # a run must end within 180 s
PACKAGE = os.path.join("src", "deltoid_lab", "__init__.py")
# Self times of the exact layers (scalars run inside them), for the share of
# the traced pass they take; numeric_sweep keeps it under a tenth.  Model
# pushforwards are exact too, but numeric_sweep declares them absent, so the
# coverage check holds them at zero there.
EXACT_SELF_TIMES = ("poly.mul.self_s", "diffusion.l_apply.self_s", "spectral.solve.self_s")


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.abspath("src"),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def launch(args: list[str], workdir: str, deadline: float, spans: str | None = None) -> dict:
    """One pass in a fresh interpreter; returns its result with ``setup_s`` added,
    and ``setup_kernel_s``, the host's speed just before the launch."""
    result_path = os.path.join(workdir, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--result", result_path,
           "--workdir", workdir, *args]
    if spans:
        cmd += ["--trace-spans", spans]
    setup_kernel_s = speedprobe.sample(SETUP_KERNELS)
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass exceeded the {DEADLINE_S:.0f} s budget: {args}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchError(f"child exited with {code}: {args}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if not os.path.abspath(result["package"]).startswith(os.path.abspath("src") + os.sep):
        raise BenchError(f"imported {result['package']}, not the checkout's src/")
    result.update(setup_s=result["ready"] - spawned, setup_kernel_s=setup_kernel_s)
    return result


def l3_bytes() -> int | None:
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="ascii") as fh:
            text = fh.read().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def source_digest() -> str:
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                digest.update(path.encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def commit() -> str | None:
    if not os.path.isdir(".git"):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload_threads": 1,
        "l3_bytes": l3_bytes(),
        "commit": commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def baseline() -> dict:
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: int, workdir: str, deadline: float) -> dict:
    pass_args = ["--workload", workload, "--seed", str(seed)]
    start = time.monotonic()
    probes = [launch([*pass_args, "--setup-only"], workdir, deadline)
              for _ in range(SETUP_PROBES)]
    probed = time.monotonic()
    passes = []
    while True:
        passes.append(launch(pass_args, workdir, deadline))
        now = time.monotonic()
        per_pass = (now - probed) / len(passes)
        if now + per_pass > start + seconds or now + 2 * per_pass > deadline:
            break
    return {
        "passes": passes,
        "metrics": {
            "wall_s": (statistics.median(speedprobe.scaled(p["wall"], p["kernel_s"])
                                         for p in passes), "s"),
            "setup_s": (statistics.median(speedprobe.scaled(p["setup_s"], p["setup_kernel_s"])
                                          for p in probes + passes), "s"),
            "peak_rss_mib": (statistics.median(p["rss_mib"] for p in passes), "MiB"),
        },
    }


def traced(workload: str, seed: int, workdir: str, deadline: float) -> dict:
    pass_args = ["--workload", workload, "--seed", str(seed)]
    spans = os.path.abspath(os.path.join(".perfbench", f"spans-{workload}-seed{seed}.jsonl"))
    plain = launch(pass_args, workdir, deadline)
    run = launch(pass_args, workdir, deadline, spans)
    layertrace.check_coverage(run["layer_counts"], *layertrace.DECLARED_LAYERS[workload])
    values = dict(run["layer_metrics"])
    values["trace.overhead_share"] = (run["wall"] - plain["wall"]) / plain["wall"]
    exact_s = sum(values[name] for name in EXACT_SELF_TIMES)
    units = {name: unit for name, unit, _ in layertrace.METRICS}
    return {
        "passes": [plain, run],
        "metrics": {name: (values[name], units[name]) for name, _, _ in layertrace.METRICS},
        "absent": run["absent"],
        "exact_layer_share": exact_s / run["wall"],
        "spans": spans,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run unwinds through launch(), which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(PACKAGE):
        print(f"perfbench: no {PACKAGE} here; run from the root of a deltoid-lab checkout",
              file=sys.stderr)
        return 2
    workdir = os.path.join(".perfbench", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            run = traced(args.workload, args.seed, workdir, deadline)
        else:
            run = measure(args.workload, args.seed, args.seconds, workdir, deadline)
    except (BenchError, layertrace.CoverageError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Every pass of a run repeats the same inputs, so the operations are
    # counted once per run: the counts depend on the seed, not on how many
    # passes fitted in the time.
    passes = run["passes"]
    digests = sorted({p["digest"] for p in passes})
    errors = list(passes[0]["errors"])
    if len({(p["digest"], p["attempted"], p["failed"]) for p in passes}) != 1:
        errors.append(f"outcomes differ between passes of one seed: {digests}")
    detail = {
        "env": environment(args.seed),
        "workload": args.workload,
        "passes": [{k: p.get(k) for k in ("wall", "kernel_s", "kernels", "setup_s",
                                          "setup_kernel_s", "rss_mib", "attempted", "failed")}
                   for p in passes],
        "output_sha256": digests,
        "errors": errors,
        "statistical_trips": passes[0]["trips"],
    }
    if args.workload == "verify_default":
        recorded = baseline()["verify_report_sha256"].get(str(args.seed))
        detail["report_sha256_baseline"] = recorded
        detail["report_sha256_changed"] = None if recorded is None else digests != [recorded]
    if args.trace:
        detail["absent"] = run["absent"]
        detail["exact_layer_share"] = run["exact_layer_share"]
        detail["spans"] = run["spans"]
    print("perfbench-detail " + json.dumps(detail, sort_keys=True))
    for line in errors:
        print(f"perfbench: wrong output: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": passes[0]["attempted"],
        "failed": passes[0]["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
