#!/usr/bin/env python3
"""Scan the exact kernel blocks over a theta grid and print a summary table.

For each eigenspace index the scan reports max |alpha| and the orthonormal
block bound (the norm of the block's exact first column in the unit-norm
basis), then the worst bound, and (for comparison) the three candidate
values of the second diagonal entry at one interior theta: Monte-Carlo, the
rotation-derived value, and the printed cot-prefactor form.

The Monte-Carlo column samples by rejection, so --lambda must admit it
(lambda >= 11/2).  The sizes take the `markov` command's minimums
(cli.SIZE_MINIMUMS): --degree-max and --theta-grid at least 1, --samples
at least 2 and --seed at least 0.  Any other value, or a --lambda that is
not a rational number, ends the script before any output with a one-line
usage error and exit 3.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from deltoid_lab.cli import UsageError, check_sizes, parse_lambda
from deltoid_lab.hypergroup import (
    CONTRACTION_BOUND,
    ProbeContext,
    delta_report,
    positivity_scan,
    theta_grid,
)
from deltoid_lab.sampling import sample_omega1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lambda", dest="lam", default="11/2")
    parser.add_argument("--degree-max", type=int, default=4)
    parser.add_argument("--theta-grid", type=int, default=5)
    parser.add_argument("--samples", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=20260808)
    args = parser.parse_args()

    try:
        lam = parse_lambda(args.lam, "rejection_sampler")
        check_sizes("markov", vars(args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    ctx = ProbeContext.build(lam, args.degree_max)
    thetas = theta_grid(args.theta_grid)
    print(f"parameter {lam}, {len(thetas)} theta points, indices n+k <= {args.degree_max}\n")

    scan = positivity_scan(ctx, thetas)
    print(f"{'index':>8s} {'max |alpha|':>12s} {'orthonormal bound':>18s}")
    for n, k in sorted(ctx.pairs):
        print(f"  ({n},{k})  {scan['max_abs_alphas'][(n, k)]:12.6f} "
              f"{scan['block_bounds'][(n, k)]:18.6f}")

    print(f"\nworst orthonormalized block bound: {scan['worst_block_bound']:.6f} "
          f"(contraction: {scan['worst_block_bound'] <= CONTRACTION_BOUND})")

    batch = sample_omega1(lam, args.samples, args.seed, method="rejection")
    theta = thetas[len(thetas) // 2]
    print(f"\nsecond diagonal entry at theta = ({theta.t1:.3f}, {theta.t2:.3f}):")
    print(f"{'index':>8s} {'monte carlo':>14s} {'rotation':>10s} {'cot form':>10s}")
    for n, k in sorted(ctx.pairs):
        if n == k:
            continue
        rep = delta_report(ctx, n, k, theta, batch)
        rot = rep["rotation_derived"]
        cot = rep["cot_closed_form"]
        print(f"  ({n},{k})  {rep['monte_carlo']:9.4f} +- {rep['monte_carlo_se']:.4f} "
              f"{rot if rot is not None else float('nan'):10.4f} "
              f"{cot if cot is not None else float('nan'):10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
