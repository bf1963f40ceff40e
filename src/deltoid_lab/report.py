"""Verification report structure and deterministic emitters (JSON/CSV/SVG).

Every identity the laboratory certifies is registered as one entry with a
stable name, a machine-readable anchor naming the mathematical fact, a
status and free-form details.  A report is built with the registry's
name -> anchor map; ``add`` looks the anchor up and rejects a name that is
not registered.  Statuses:

    proven-exact             symbolic identity, zero tolerance
    proven-by-interpolation  exact at enough parameter values to pin the
                             polynomial identity for every parameter
    exact-fail               an exact identity failed; details hold the
                             first witness
    numeric-pass             numeric check within its stated tolerance
    numeric-fail             numeric check outside tolerance
    discrepancy-noted        a printed formula disagrees with the computed
                             resolution; both values attached

Exit codes, by precedence: 2 if any entry is exact-fail, else 1 if any is
numeric-fail, else 0.

A numeric entry also keeps its gates (measured value, bound, comparison)
and the report each suite's wall seconds; neither is emitted, so the report
bytes depend on the statuses and details alone.

Emitters are deterministic: identical inputs give byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .models import deltoid_boundary_values, z_of_theta

STATUSES = (
    "proven-exact",
    "proven-by-interpolation",
    "exact-fail",
    "numeric-pass",
    "numeric-fail",
    "discrepancy-noted",
)

COMPARISONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, "==": operator.eq}


@dataclass(frozen=True)
class Gate:
    """One measured value of a numeric identity, its bound and how they must compare."""

    measured: float
    bound: float
    comparison: str = "<"

    def holds(self) -> bool:
        return COMPARISONS[self.comparison](self.measured, self.bound)


@dataclass(frozen=True)
class IdentityEntry:
    name: str
    anchor: str
    status: str
    details: str = ""
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")


@dataclass
class VerificationReport:
    config: dict
    anchors: dict[str, str]  # registered name -> anchor
    entries: list[IdentityEntry] = field(default_factory=list)
    models: dict = field(default_factory=dict)  # name -> DiffusionModel JSON
    suite_seconds: dict[str, float] = field(default_factory=dict)  # suite -> wall seconds

    def add(self, name: str, status: str, details: str = "",
            gates: tuple[Gate, ...] = ()) -> IdentityEntry:
        if name not in self.anchors:
            raise ValueError(f"identity {name!r} is not registered")
        if any(e.name == name for e in self.entries):
            raise ValueError(f"identity {name!r} registered twice")
        entry = IdentityEntry(name, self.anchors[name], status, details, gates)
        self.entries.append(entry)
        return entry

    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    def exit_code(self) -> int:
        statuses = {e.status for e in self.entries}
        if "exact-fail" in statuses:
            return 2
        return 1 if "numeric-fail" in statuses else 0

    def to_jsonable(self) -> dict:
        counts = Counter(e.status for e in self.entries)
        summary = {
            "total": len(self.entries),
            "discrepancy-noted": counts["discrepancy-noted"],
            "numeric-fail": counts["numeric-fail"],
        }
        if counts["exact-fail"]:
            summary["exact-fail"] = counts["exact-fail"]
        return {
            "config": {k: str(v) for k, v in sorted(self.config.items())},
            "models": self.models,
            "entries": [
                {
                    "name": e.name,
                    "anchor": e.anchor,
                    "status": e.status,
                    "details": e.details,
                }
                for e in self.entries
            ],
            "summary": summary,
        }


def emit_json(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_report(report: VerificationReport, path: str) -> None:
    emit_json(report.to_jsonable(), path)


MARKOV_CSV_FIELDS = (
    "n", "k", "theta1", "theta2",
    "alpha", "beta", "gamma", "delta",
    "alpha_se", "beta_se", "gamma_se", "delta_se",
    "provenance",
)


def markov_matrices_to_csv(matrices) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=MARKOV_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for m in matrices:
        row = {"n": m.n, "k": m.k, "theta1": f"{m.theta.t1:.12g}", "theta2": f"{m.theta.t2:.12g}",
               "provenance": "exact" if m.provenance["alpha"][0] == "exact" else "estimated"}
        for name in ("alpha", "beta", "gamma", "delta"):
            row[name] = f"{getattr(m, name):.12g}"
            row[f"{name}_se"] = f"{m.provenance[name][1]:.6g}"
        writer.writerow(row)
    return buf.getvalue()


def emit_csv(text: str, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# SVG plots
# ---------------------------------------------------------------------------


# Plots are SVG_SIZE pixels square and frame PLOT_BOX on both axes.
SVG_SIZE = 480
PLOT_BOX = (-1.15, 1.15)


def _svg_header() -> list[str]:
    size = SVG_SIZE
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]


def _to_pixel(x: float, y: float) -> tuple[float, float]:
    lo, hi = PLOT_BOX
    px = (x - lo) / (hi - lo) * SVG_SIZE
    py = (1.0 - (y - lo) / (hi - lo)) * SVG_SIZE
    return px, py


def deltoid_svg(samples: int = 720) -> str:
    """Boundary curve Z(t, t) with the three cusps 1, j, jbar marked."""
    lines = _svg_header()
    t = 2.0 * math.pi * np.arange(samples) / samples
    pixels = [_to_pixel(z.real, z.imag) for z in z_of_theta(t, t)]
    path = " ".join(f"{'M' if i == 0 else 'L'}{px:.3f},{py:.3f}"
                    for i, (px, py) in enumerate(pixels))
    lines.append(f'<path d="{path} Z" fill="none" stroke="black" stroke-width="1.5"/>')
    for cx, cy in ((1.0, 0.0), (-0.5, math.sqrt(3.0) / 2.0), (-0.5, -math.sqrt(3.0) / 2.0)):
        px, py = _to_pixel(cx, cy)
        lines.append(f'<circle cx="{px:.3f}" cy="{py:.3f}" r="4" fill="red"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def eigen_levels_svg(poly) -> str:
    """Level-set bands of |poly| over the domain, as colored cells."""
    grid_n, bands = 120, 12
    lines = _svg_header()
    xs = np.linspace(*PLOT_BOX, grid_n)
    ys = np.linspace(*PLOT_BOX, grid_n)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    z = gx + 1j * gy
    inside = np.asarray(deltoid_boundary_values(z)) > 0.0
    vals = np.abs(poly.evaluate({"Z": z, "Zb": np.conj(z)}))
    vmax = float(vals[inside].max()) if inside.any() else 1.0
    cell = SVG_SIZE / grid_n
    for i in range(grid_n):
        for j in range(grid_n):
            if not inside[i, j]:
                continue
            level = min(bands - 1, int(vals[i, j] / vmax * bands))
            shade = 255 - int(level * 255 / max(bands - 1, 1))
            px, py = _to_pixel(xs[i], ys[j])
            lines.append(
                f'<rect x="{px - cell / 2:.2f}" y="{py - cell / 2:.2f}" '
                f'width="{cell:.2f}" height="{cell:.2f}" '
                f'fill="rgb({shade},{shade},255)"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def theta_coverage_svg(theta_per_axis: int = 120) -> str:
    """Image points Z(theta) of a uniform theta grid."""
    lines = _svg_header()
    ts = np.arange(theta_per_axis) * 2.0 * math.pi / theta_per_axis
    t1, t2 = np.meshgrid(ts, ts, indexing="ij")
    z = np.asarray(z_of_theta(t1, t2)).ravel()
    for zz in z:
        px, py = _to_pixel(zz.real, zz.imag)
        lines.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="0.8" fill="navy"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def emit_svg(text: str, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
