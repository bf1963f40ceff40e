#!/usr/bin/env python3
"""Run the full-size verification suite and emit the report plus figures.

Equivalent to `deltoid-lab verify --out verify_report.json` followed by the
three standard plots; kept as a script so the default experiment is one
command from a checkout.  A --seed below verify's minimum (0), or an
--outdir that cannot be made a directory, ends the script before any work
with a one-line usage error and exit 3.
"""

import argparse
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from deltoid_lab.cli import UsageError, check_sizes
from deltoid_lab.report import deltoid_svg, emit_report, emit_svg, theta_coverage_svg
from deltoid_lab.verify import VerifyConfig, run_verify


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--outdir", default="verify_output")
    parser.add_argument("--fast", action="store_true",
                        help="reduced sample sizes for a quick pass")
    args = parser.parse_args()
    outdir = Path(args.outdir)
    try:
        check_sizes("verify", vars(args))
        outdir.mkdir(parents=True, exist_ok=True)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"usage error: --outdir {outdir}: {exc.strerror}", file=sys.stderr)
        return 3

    if args.fast:
        config = VerifyConfig(seed=args.seed, torus_samples=100_000,
                              su3_samples=100_000, omega1_samples=20_000,
                              eigen_degree_max=5, coverage_theta_n=300,
                              cusp_grid_n=200)
    else:
        config = VerifyConfig(seed=args.seed)

    start = time.time()
    report, code = run_verify(config)
    elapsed = time.time() - start
    emit_report(report, str(outdir / "verify_report.json"))
    emit_svg(deltoid_svg(), str(outdir / "deltoid.svg"))
    emit_svg(theta_coverage_svg(), str(outdir / "theta_coverage.svg"))

    for entry in report.entries:
        print(f"{entry.status:26s} {entry.name}")
    print()
    for suite, seconds in report.suite_seconds.items():
        print(f"{seconds:8.2f}s  {suite}")
    # ru_maxrss is in KiB on Linux.
    print(f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:8.1f} MiB peak RSS")
    print(f"\n{len(report.entries)} identities in {elapsed:.1f}s; exit code {code}")
    print(f"report: {outdir / 'verify_report.json'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
