"""One fresh interpreter running one workload once.

    python3 perfbench/child.py --workload NAME --seed N --result PATH
        [--workdir DIR] [--trace-spans PATH] [--setup-only]

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  The child imports numpy and every ``deltoid_lab`` module, stamps
the moment it is ready (``time.monotonic``, shared with the parent), runs
the workload, then checks its outputs and writes one JSON result.  An
untraced pass also times ``speedprobe``'s kernel throughout and reports
its wall time without the kernels' share.  Every run
starts a fresh interpreter because ``spectral`` keeps a process-wide
``lru_cache``: a second run in one process would time a different program.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import pkgutil
import resource
import time

import numpy  # noqa: F401 - part of set-up

import deltoid_lab

for _info in pkgutil.iter_modules(deltoid_lab.__path__, "deltoid_lab."):
    importlib.import_module(_info.name)

import layertrace  # noqa: E402
import speedprobe  # noqa: E402
import workloads  # noqa: E402

READY = time.monotonic()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--workdir")
    parser.add_argument("--trace-spans", help="trace the layers and write spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    result: dict = {"ready": READY, "package": deltoid_lab.__file__}
    if not args.setup_only:
        workload = workloads.WORKLOADS[args.workload]
        tracer = sampler = None
        if args.trace_spans:
            tracer = layertrace.Tracer(f"{args.workload}-{args.seed}", callers=(workloads,))
            tracer.install()
        else:  # a traced pass is not sampled: the kernels would land in its spans
            sampler = speedprobe.Sampler()
        start = time.perf_counter()
        try:
            with sampler or contextlib.nullcontext():
                state = workload.run(args.seed, args.workdir)
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if sampler is not None:
            wall -= sampler.spent
            result.update(kernel_s=sampler.kernel_s, kernels=len(sampler.times))
        result.update(wall=wall, rss_mib=rss_mib)
        outcome = workload.check(state)
        result.update(attempted=outcome.attempted, failed=outcome.failed,
                      errors=outcome.errors, trips=outcome.trips, digest=outcome.digest)
        if tracer is not None:
            tracer.dump_spans(args.trace_spans)
            result.update(layer_counts=tracer.layer_counts(), absent=tracer.absent(),
                          layer_metrics=tracer.metrics())
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
