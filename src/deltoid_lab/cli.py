"""Command-line interface.

Subcommands:

    verify   run the full verification suite, emit the JSON report
    eigen    emit exact eigenpolynomial coefficient tables as JSON
    gram     emit a quadrature Gram matrix as JSON
    markov   emit kernel-block matrices (CSV) plus a JSON verdict summary
    sample   emit sample batches as CSV or NPZ
    plot     emit SVG figures (domain boundary, eigen level sets, coverage)

Configuration for `verify` is a flat key = value file; command-line flags
win over file values.  Exit codes: 0 all pass, 1 numeric failure (for
`sample`, a sampler that refuses its batch), 2 exact identity failure, 3
usage error: a bad option or config value, an unreadable config file, a
config key set twice, or an output path that cannot be written.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from fractions import Fraction

import numpy as np

from .quadrature import TorusGrid


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


def parse_lambda(text: str, layer: str) -> Fraction:
    """Parse --lambda and reject, before any work, a value the layer cannot run."""
    from .models import LAMBDA_RANGES

    lam = _fraction(text)
    needed = LAMBDA_RANGES[layer]
    if not needed.admits(lam):
        raise UsageError(f"--lambda {lam} is out of range: {needed.user} needs lambda {needed}")
    return lam


def load_config_file(path: str) -> dict:
    """Flat key = value file; '#' starts a comment; booleans are true/false."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise UsageError(f"config file {path!r} is not UTF-8 text") from None
    out: dict = {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"bad config line: {raw.rstrip()}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise UsageError(f"config key {key!r} is set twice")
        out[key] = value
    return out


def _build_verify_config(args) -> "VerifyConfig":
    from .verify import VerifyConfig

    # Each field's type, "int" or "bool" (verify's annotations are strings).
    kinds = {f.name: f.type for f in dataclasses.fields(VerifyConfig)}
    values: dict = {}
    if args.config:
        for key, text in load_config_file(args.config).items():
            if key not in kinds:
                raise UsageError(f"unknown config key {key!r}")
            if kinds[key] == "bool":
                if text.lower() not in ("1", "true", "yes", "0", "false", "no"):
                    raise UsageError(f"config key {key!r} needs 1/true/yes/0/false/no, got {text!r}")
                values[key] = text.lower() in ("1", "true", "yes")
                continue
            try:
                values[key] = int(text)
            except ValueError:
                raise UsageError(
                    f"config key {key!r} needs an integer, got {text!r}") from None
        check_sizes("verify", values, lambda name: f"config key {name!r}")
    # An omitted flag reads None, or False for a boolean switch, and leaves the file's value.
    for name, kind in kinds.items():
        flag = getattr(args, name, None)
        if flag is not None and (kind != "bool" or flag):
            values[name] = flag
    return VerifyConfig(**values)


def cmd_verify(args) -> int:
    from .report import emit_report
    from .verify import run_verify

    config = _build_verify_config(args)
    report, code = run_verify(config)
    if args.out:
        emit_report(report, args.out)
    for entry in report.entries:
        if entry.status == "exact-fail":
            print(f"EXACT IDENTITY FAILURE: {entry.name}: {entry.details}")
    for entry in report.entries:
        print(f"{entry.status:26s} {entry.name}")
    print(f"total {len(report.entries)} identities; exit code {code}")
    return code


def _emit_json(payload: dict, path: str | None) -> None:
    """Write payload to path, or print it to stdout when no path is given."""
    from .report import emit_json

    if path:
        emit_json(payload, path)
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()


def cmd_eigen(args) -> int:
    from .models import deltoid_model
    from .spectral import eigen_PQ, eigenbasis, pq_indices

    lam = parse_lambda(args.lam, "model")
    model = deltoid_model(lam)
    basis = eigenbasis(model, args.degree_max)
    polys = [basis[(d - k, k)] for d in range(args.degree_max + 1) for k in range(d + 1)]
    for n, k in pq_indices(args.degree_max, include_constant=True):
        polys.extend(eigen_PQ(model, n, k))
    entries = [{"flavor": e.flavor, "n": e.n, "k": e.k,
                "eigenvalue": str(e.eigenvalue), "poly": str(e.poly)} for e in polys]
    _emit_json({"lambda": str(lam), "degree_max": args.degree_max, "entries": entries}, args.out)
    return 0


def cmd_gram(args) -> int:
    from .quadrature import TorusGrid, gram
    from .spectral import pq_polys

    lam = parse_lambda(args.lam, "quadrature")
    grid = TorusGrid.build(lam, args.grid)
    entries = pq_polys(lam, args.degree_max)
    labels = [f"{flavor}{n}{k}" for flavor, n, k, _ in entries]
    matrix = gram([poly for *_, poly in entries], grid)
    _emit_json({
        "lambda": str(lam),
        "grid": args.grid,
        "degree_max": args.degree_max,
        "labels": labels,
        "matrix": [[f"{matrix[i, j].real:.15g}" for j in range(len(labels))] for i in range(len(labels))],
        "max_offdiagonal": f"{float(np.max(np.abs(matrix - np.diag(np.diag(matrix))))):.3e}",
    }, args.out)
    return 0


def cmd_markov(args) -> int:
    from .hypergroup import (
        ProbeContext,
        estimate_markov_matrix,
        exact_markov_matrix,
        theta_grid,
    )
    from .report import emit_csv, markov_matrices_to_csv
    from .sampling import sample_omega1
    from .verify import Z_GATE

    lam = parse_lambda(args.lam, "rejection_sampler")
    if args.n is not None:
        if args.degree_max is not None:
            raise UsageError("--degree-max and --n exclude each other")
        k = args.k if args.k is not None else 0
        if k > args.n:
            raise UsageError("--k must not exceed --n")
        degree_max = max(args.n + k, 1)
        indices = [(args.n, k)]
    elif args.k is not None:
        raise UsageError("--k needs --n")
    else:
        degree_max = 3 if args.degree_max is None else args.degree_max
        indices = None
    ctx = ProbeContext.build(lam, degree_max)
    if indices is None:
        indices = sorted(ctx.pairs)
    thetas = theta_grid(args.theta_grid)
    batch = sample_omega1(lam, args.samples, args.seed, method="rejection")
    matrices = []
    worst_z = 0.0
    for theta in thetas:
        for n, k in indices:
            est = estimate_markov_matrix(ctx, n, k, theta, batch)
            exact = exact_markov_matrix(ctx, n, k, theta)
            worst_z = max(worst_z, est.z_scores(exact)["alpha"])
            matrices += [est, exact]
    csv_text = markov_matrices_to_csv(matrices)
    if args.out:
        emit_csv(csv_text, args.out)
    verdict = {
        "lambda": str(lam),
        "theta_grid": args.theta_grid,
        "samples": args.samples,
        "seed": args.seed,
        "indices": [list(ix) for ix in indices],
        "worst_alpha_z_score": f"{worst_z:.3f}",
        "pass": bool(worst_z < Z_GATE),
    }
    _emit_json(verdict, args.verdict)
    return 0 if verdict["pass"] else 1


def cmd_sample(args) -> int:
    from .sampling import SamplingError, sample_omega1, sample_su3_haar, sample_torus

    if args.kind == "torus":
        batch = sample_torus(args.n, args.seed)
        columns = {"t1": batch.points[:, 0], "t2": batch.points[:, 1]}
    elif args.kind == "su3":
        batch = sample_su3_haar(args.n, args.seed)
        flat = batch.points.reshape(len(batch), 9)
        columns = {}
        for idx in range(9):
            columns[f"re{idx}"] = flat[:, idx].real
            columns[f"im{idx}"] = flat[:, idx].imag
    elif args.kind == "omega1":
        sampler = "rejection_sampler" if args.method == "rejection" else "lifted_sampler"
        lam = parse_lambda(args.lam, sampler)
        try:
            batch = sample_omega1(lam, args.n, args.seed, method=args.method)
        except SamplingError as exc:
            print(f"sampling refused: {exc}", file=sys.stderr)
            return 1
        columns = {}
        for idx in range(3):
            columns[f"re{idx + 1}"] = batch.points[:, idx].real
            columns[f"im{idx + 1}"] = batch.points[:, idx].imag
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown sample kind {args.kind}")
    if args.format == "npz":
        with open(args.out, "wb") as fh:  # a path would gain a ".npz" suffix
            np.savez(fh, **columns)
    else:
        names = list(columns)
        rows = np.column_stack([columns[c] for c in names])
        header = ",".join(names)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    print(f"wrote {len(batch)} {args.kind} samples to {args.out}")
    return 0


def cmd_plot(args) -> int:
    from .report import deltoid_svg, eigen_levels_svg, emit_svg, theta_coverage_svg

    if args.what == "deltoid":
        text = deltoid_svg(samples=args.samples)
    elif args.what == "coverage":
        text = theta_coverage_svg(theta_per_axis=args.theta_grid)
    elif args.what == "eigen":
        from .spectral import eigen_PQ_lambda

        lam = parse_lambda(args.lam, "model")
        p_hat, _ = eigen_PQ_lambda(lam, args.n, args.k)
        text = eigen_levels_svg(p_hat.poly)
    else:  # pragma: no cover
        raise UsageError(f"unknown plot {args.what}")
    emit_svg(text, args.out)
    print(f"wrote {args.out}")
    return 0


# The smallest value of each integer option, per command; verify's also bind --config.
# A seed is at least 0 because numpy's generators reject a negative one.
SIZE_MINIMUMS = {
    "eigen": {"degree_max": 0},
    "gram": {"degree_max": 1, "grid": TorusGrid.MIN_N},
    "markov": {"n": 1, "k": 0, "degree_max": 1, "theta_grid": 1, "samples": 2, "seed": 0},
    "sample": {"n": 1, "seed": 0},
    # Three samples are the three cusps, the fewest that close the curve.
    "plot": {"n": 0, "k": 0, "samples": 3, "theta_grid": 1},
    # probe_degree_max 2 gives block_diagonality two eigenvalues to correlate;
    # selfadjoint_pairs 2 gives one pair per parameter; cusp_grid_n 5 is the
    # smallest grid whose closed domain has a point more than 1.5 cells from
    # Z = 1, so max_at_cusp can see a stray maximum.  The 4-standard-error
    # gates need a standard error worth the name: from 1000 samples its
    # relative error is about 2 %, from 2 samples it is meaningless.
    "verify": {"seed": 0, "grid_n": TorusGrid.MIN_N, "theta_per_axis": 1, "eigen_degree_max": 1,
               "torus_samples": 1000, "su3_samples": 1000, "omega1_samples": 1000,
               "gram_degree_max": 1, "probe_degree_max": 2, "selfadjoint_pairs": 2,
               "coverage_theta_n": 1, "coverage_omega_n": 1, "cusp_grid_n": 5},
}


def check_sizes(command: str, values: dict,
                label=lambda name: "--" + name.replace("_", "-")) -> None:
    """Raise UsageError for the first value below its command's minimum; label
    names a value in the message (by default as its command-line option)."""
    for name, minimum in SIZE_MINIMUMS[command].items():
        value = values.get(name)
        if value is not None and value < minimum:
            raise UsageError(f"{label(name)} must be at least {minimum}, got {value}")


def _check_outputs(args) -> None:
    """Reject, before any work, an --out or --verdict path that cannot be written."""
    for name in ("out", "verdict"):
        path = getattr(args, name, None)
        if path is None:
            continue
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder) or not os.access(folder, os.W_OK):
            raise UsageError(f"--{name} {path}: {folder} is not a writable directory")
        if os.path.isdir(path):
            raise UsageError(f"--{name} {path} is a directory")


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="deltoid-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--config", help="flat key = value config file")
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--grid-n", dest="grid_n", type=int)
    p_verify.add_argument("--torus-samples", dest="torus_samples", type=int)
    p_verify.add_argument("--su3-samples", dest="su3_samples", type=int)
    p_verify.add_argument("--omega1-samples", dest="omega1_samples", type=int)
    p_verify.add_argument("--theta-per-axis", dest="theta_per_axis", type=int)
    p_verify.add_argument("--eigen-degree-max", dest="eigen_degree_max", type=int)
    p_verify.add_argument("--negative-control", action="store_true",
                          help="test fixture: corrupt one metric entry")
    p_verify.add_argument("--out", help="write the JSON report here")
    p_verify.set_defaults(func=cmd_verify)

    p_eigen = sub.add_parser("eigen", help="emit eigenpolynomial tables")
    p_eigen.add_argument("--lambda", dest="lam", required=True, help="rational p/q")
    p_eigen.add_argument("--degree-max", dest="degree_max", type=int, default=4)
    p_eigen.add_argument("--out")
    p_eigen.set_defaults(func=cmd_eigen)

    p_gram = sub.add_parser("gram", help="emit a quadrature Gram matrix")
    p_gram.add_argument("--lambda", dest="lam", required=True)
    p_gram.add_argument("--degree-max", dest="degree_max", type=int, default=4)
    p_gram.add_argument("--grid", type=int, default=96)
    p_gram.add_argument("--out")
    p_gram.set_defaults(func=cmd_gram)

    p_markov = sub.add_parser("markov", help="emit kernel-block matrices")
    p_markov.add_argument("--lambda", dest="lam", required=True)
    p_markov.add_argument("--n", type=int)
    p_markov.add_argument("--k", type=int)
    p_markov.add_argument("--degree-max", dest="degree_max", type=int,
                          help="all indices with n + k up to this (default 3); not with --n")
    p_markov.add_argument("--theta-grid", dest="theta_grid", type=int, default=3)
    p_markov.add_argument("--samples", type=int, default=50_000)
    p_markov.add_argument("--seed", type=int, default=20260808)
    p_markov.add_argument("--out", help="CSV output path")
    p_markov.add_argument("--verdict", help="JSON verdict path")
    p_markov.set_defaults(func=cmd_markov)

    p_sample = sub.add_parser("sample", help="emit sample batches")
    p_sample.add_argument("kind", choices=("torus", "su3", "omega1"))
    p_sample.add_argument("--lambda", dest="lam", default="11/2")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=20260808)
    p_sample.add_argument("--method", choices=("rejection", "mcmc"), default="rejection")
    p_sample.add_argument("--format", choices=("csv", "npz"), default="csv")
    p_sample.add_argument("--out", required=True)
    p_sample.set_defaults(func=cmd_sample)

    p_plot = sub.add_parser("plot", help="emit SVG figures")
    p_plot.add_argument("what", choices=("deltoid", "eigen", "coverage"))
    p_plot.add_argument("--lambda", dest="lam", default="4")
    p_plot.add_argument("--n", type=int, default=2)
    p_plot.add_argument("--k", type=int, default=0)
    p_plot.add_argument("--samples", type=int, default=720)
    p_plot.add_argument("--theta-grid", dest="theta_grid", type=int, default=120)
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        check_sizes(args.command, vars(args))
        _check_outputs(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
