"""Self-tests of the benchmark.  They are slow (about ten minutes in all).

    python3 -m pytest perfbench -q

Run from the root of a checkout.  They check that every parameter of the
exact sweep's pool is admissible, that the traced run reaches each layer
through every importer, that per-layer counts and output digests repeat
exactly across two traced runs of one commit and seed, that the exact layers
take under a tenth of a traced ``numeric_sweep`` pass, that the speed probe
samples a whole pass, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layertrace  # noqa: E402
import speedprobe  # noqa: E402
import workloads  # noqa: E402


def run_bench(workload: str, seed: int, trace: int, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(line.split(" ", 1)[1]) for line in lines
                  if line.startswith("perfbench-detail "))
    return detail, json.loads(lines[-1])


def test_pool_has_85_parameters_and_draws_are_distinct():
    pool = workloads.lambda_pool()
    assert len(pool) == 85
    assert all(Fraction(1) <= lam <= 8 and lam.denominator <= 6 for lam in pool)
    for seed in range(20):
        drawn = workloads.draw_lambdas(seed)
        assert len(set(drawn)) == 6 and set(drawn) <= set(pool)
    assert workloads.draw_lambdas(3) == workloads.draw_lambdas(3)


def test_every_pool_parameter_is_admissible(tmp_path):
    """All 85 parameters run the whole per-parameter sweep and pass its checks."""
    golden = {"out": workloads.GOLDEN, "code": 0, "errors": {}}
    for lam in workloads.lambda_pool():
        item = workloads.exact_one(lam, str(tmp_path))
        outcome = workloads.exact_check({"golden": golden, "lambdas": [item]})
        assert outcome.failed == 0, (lam, outcome.errors)


def test_canonical_text_round_trips():
    with open(os.path.join(ROOT, workloads.GOLDEN), encoding="utf-8") as fh:
        entries = json.load(fh)["entries"]
    for entry in entries:
        poly = workloads.parse_poly(entry["poly"], ("Z", "Zb"))
        assert str(poly) == entry["poly"]
    with pytest.raises(ValueError):
        workloads.parse_poly("Z^2 + 0*Zb", ("Z", "Zb"))


def test_tracer_rebinds_importers_and_restores_them():
    from deltoid_lab import diffusion, hypergroup, quadrature, spectral, verify
    from deltoid_lab.poly import MPoly

    originals = (diffusion.l_apply, spectral.eigen_PQ_lambda, MPoly.__mul__)
    tracer = layertrace.Tracer("test", callers=(workloads,))
    tracer.install()
    try:
        assert verify.l_apply is diffusion.l_apply is quadrature.l_apply
        assert diffusion.l_apply is not originals[0]
        assert hypergroup.eigen_PQ_lambda is spectral.eigen_PQ_lambda is not originals[1]
        assert workloads.eigen_PQ_lambda is spectral.eigen_PQ_lambda
        assert MPoly.__rmul__ is MPoly.__mul__ is not originals[2]
    finally:
        tracer.uninstall()
    assert (diffusion.l_apply, spectral.eigen_PQ_lambda, MPoly.__mul__) == originals
    assert verify.l_apply is originals[0] and MPoly.__rmul__ is originals[2]


def test_speed_probe_samples_the_whole_block_and_scales():
    with speedprobe.Sampler() as sampler:
        end = time.perf_counter() + 0.55
        while time.perf_counter() < end:
            pass
    assert 4 <= len(sampler.times) <= 6
    assert sampler.spent > sum(sampler.times) > 0
    assert speedprobe.scaled(3.0, 2 * speedprobe.REFERENCE_S) == 1.5


def test_coverage_check_fails_on_a_silent_or_stray_layer():
    counts = {probe: 1 for probe in layertrace.LAYER_PROBES.values()}
    layertrace.check_coverage(counts, ("spectral.solve",), ())
    counts["spectral.solve.calls"] = 0
    with pytest.raises(layertrace.CoverageError):
        layertrace.check_coverage(counts, ("spectral.solve",), ())
    with pytest.raises(layertrace.CoverageError):
        layertrace.check_coverage(counts, (), ("hypergroup.eval",))


@pytest.mark.parametrize("workload", ["exact_sweep", "numeric_sweep", "verify_default"])
def test_traced_counts_and_digests_repeat(workload):
    seed = workloads.DEFAULT_VERIFY_SEED
    first, second = (parse(run_bench(workload, seed, 1)) for _ in range(2))
    for (detail, result) in (first, second):
        assert result["correct"], detail["errors"]
        assert set(result["metrics"]) == {name for name, _, _ in layertrace.METRICS}
    assert first[0]["output_sha256"] == second[0]["output_sha256"]
    assert len(first[0]["output_sha256"]) == 1
    for name in layertrace.COUNT_METRICS:
        assert first[1]["metrics"][name] == second[1]["metrics"][name], name
    if workload == "numeric_sweep":
        assert first[0]["exact_layer_share"] < 0.1
        assert second[0]["exact_layer_share"] < 0.1


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    bare.mkdir()
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("exact_sweep", 1, 0, cwd=str(bare))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
