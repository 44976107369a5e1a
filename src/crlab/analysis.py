"""Bjontegaard delta-rate between quality curves, plus CSV plumbing.

The BD fit is the classic cubic-polynomial variant: log10(rate) is
fitted as a cubic in quality (dB) per curve (an interpolating cubic on
exactly 4 points, least squares beyond), the difference is integrated
exactly via the antiderivative over the shared quality span, and the
mean log offset maps back to a percent rate delta. Output metadata
records `fit=cubic-poly` so downstream tables carry the variant choice.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .rd_solver import RDCurve

__all__ = [
    "BD_FIT_METADATA",
    "CURVE_HEADER",
    "QualityCurve",
    "bd_rate",
    "bd_rate_matrix",
    "curve_rows",
    "mse_to_psnr",
    "quality_curve_from_rd",
    "read_csv",
    "render_cell",
    "write_csv",
]

BD_FIT_METADATA = "fit=cubic-poly"


def mse_to_psnr(mse: float, peak: float) -> float:
    """10*log10(peak^2/mse) dB; mse=0 maps to inf (excluded from fits)."""
    if not (peak > 0):
        raise InputError(f"peak must be positive, got {peak!r}")
    if mse < 0:
        raise InputError(f"mse must be nonnegative, got {mse!r}")
    if mse == 0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


@dataclass(frozen=True)
class QualityCurve:
    """(rate, quality-dB) samples of one coder, for BD comparison.

    Points are sorted by quality on construction; after sorting, both
    coordinates must be finite and strictly increasing, and at least 4
    points are required (the cubic fit needs them).
    """

    label: str
    points: tuple

    def __post_init__(self):
        pts = tuple(
            (float(r), float(q)) for r, q in
            sorted(self.points, key=lambda p: (p[1], p[0]))
        )
        if len(pts) < 4:
            raise InputError(
                f"curve {self.label!r} needs >= 4 points, got {len(pts)}"
            )
        for (r0, q0), (r1, q1) in zip(pts, pts[1:]):
            if not (math.isfinite(r1) and math.isfinite(q1)
                    and math.isfinite(r0) and math.isfinite(q0)):
                raise InputError(f"curve {self.label!r} has non-finite points")
            if not (r1 > r0 and q1 > q0):
                raise InputError(
                    f"curve {self.label!r} must be strictly increasing in "
                    f"rate and quality; offending pair {(r0, q0)} -> {(r1, q1)}"
                )
        if pts[0][0] <= 0:
            raise InputError(f"curve {self.label!r} has nonpositive rate")
        object.__setattr__(self, "points", pts)

    @property
    def rates(self) -> np.ndarray:
        return np.array([r for r, _ in self.points])

    @property
    def qualities(self) -> np.ndarray:
        return np.array([q for _, q in self.points])


def _fit(curve: QualityCurve) -> np.ndarray:
    return np.polyfit(curve.qualities, np.log10(curve.rates), 3)


def bd_rate(reference: QualityCurve, test: QualityCurve) -> float:
    """Average percent rate delta of test vs reference; negative saves rate."""
    lo = max(reference.qualities[0], test.qualities[0])
    hi = min(reference.qualities[-1], test.qualities[-1])
    if not hi > lo:
        raise InputError(
            f"quality ranges do not overlap: {reference.label!r} "
            f"[{reference.qualities[0]}, {reference.qualities[-1]}] vs "
            f"{test.label!r} [{test.qualities[0]}, {test.qualities[-1]}]"
        )
    diff = np.polysub(_fit(test), _fit(reference))
    anti = np.polyint(diff)
    mean = (np.polyval(anti, hi) - np.polyval(anti, lo)) / (hi - lo)
    return float(100.0 * (10.0 ** mean - 1.0))


RATE_FLOOR = 1e-6
_N_ANCHORS = 8
_BAND = (0.01, 0.99)


def quality_curve_from_rd(curve: RDCurve, peak: float) -> QualityCurve:
    """Sample an RD envelope into a BD-comparable (rate, PSNR) curve.

    The cubic BD fit expects a handful of points from a coder's working
    band, not a full envelope: the saturated top (distortion -> 0, PSNR
    unbounded) and the near-free tail (rate -> 0, log10 unbounded) both
    wreck a global polynomial fit. So the envelope is restricted to the
    band where rate is within _BAND's fractions of its maximum (and
    above RATE_FLOOR bits), then interpolated at _N_ANCHORS evenly
    spaced quality values. Raises InputError when no usable band is
    left (e.g. an all-zero-rate curve), which bd_rate_matrix surfaces
    as an undefined entry.
    """
    pts = sorted(
        (mse_to_psnr(p.distortion, peak), p.rate)
        for p in curve.points
        if p.rate > RATE_FLOOR and p.distortion > 0
    )
    if len(pts) < 2:
        raise InputError(f"curve {curve.label!r} has no usable band")
    rmax = max(r for _, r in pts)
    lo_r = max(_BAND[0] * rmax, RATE_FLOOR)
    hi_r = _BAND[1] * rmax
    pts = [(q, r) for q, r in pts if lo_r <= r <= hi_r]
    if len(pts) < 2:
        raise InputError(f"curve {curve.label!r} has no usable band")
    q_arr = np.array([q for q, _ in pts])
    r_arr = np.array([r for _, r in pts])
    anchors = np.linspace(q_arr[0], q_arr[-1], _N_ANCHORS)
    rates = np.interp(anchors, q_arr, r_arr)
    return QualityCurve(curve.label, tuple(zip(rates, anchors)))


def bd_rate_matrix(curves, peak: float) -> dict[tuple[str, str], float | None]:
    """All ordered pairs; None marks pairs without a fittable comparison."""
    if isinstance(curves, Mapping):
        curves = list(curves.values())
    qcs = {}
    for c in curves:
        try:
            qcs[c.label] = quality_curve_from_rd(c, peak)
        except InputError:
            qcs[c.label] = None
    out: dict[tuple[str, str], float | None] = {}
    for ref in curves:
        for tst in curves:
            a, b = qcs[ref.label], qcs[tst.label]
            if ref.label == tst.label:
                out[(ref.label, tst.label)] = 0.0 if a is not None else None
                continue
            try:
                val = bd_rate(a, b) if a is not None and b is not None else None
            except InputError:
                val = None
            out[(ref.label, tst.label)] = val
    return out


def render_cell(v) -> str:
    """A table cell: floats with 9 significant digits, anything else via str()."""
    return f"{v:.9g}" if isinstance(v, float) else str(v)


def write_csv(path, header, rows, provenance: str) -> None:
    """Write one table under a provenance comment line, cells by
    render_cell. Comment lines start with '#' and are skipped by read_csv.
    """
    try:
        with open(path, "w", newline="") as fh:
            fh.write(f"# {provenance}\n")
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            for row in rows:
                w.writerow([render_cell(v) for v in row])
    except OSError as e:
        raise InputError(f"cannot write {path}: {e}") from e


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """(header, rows) of a write_csv file; '#' comment lines are skipped."""
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(
                line for line in fh if not line.startswith("#")
            ) if r]
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    if not rows:
        raise InputError(f"{path} has no header row")
    return rows[0], rows[1:]


def curve_rows(curves) -> list[tuple]:
    """Rows for the RD CSV: label, slope, rate_bits, distortion_mse."""
    rows = []
    for c in curves:
        for p in c.points:
            rows.append((c.label, p.slope, p.rate, p.distortion))
    return rows


CURVE_HEADER = ("label", "slope", "rate_bits", "distortion_mse")
