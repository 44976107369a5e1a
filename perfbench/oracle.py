"""Independent oracle for the pixel model's entropy report.

Every support point of the model's (x, xp) joint carries one of two
masses: `diag` where x == xp and `off` elsewhere. The mass of any group
of points is therefore off * n + (diag - off) * n_diag, with n the
group's size and n_diag its diagonal points. Groups sharing (n, n_diag)
share their mass, so each grouping collapses to a handful of distinct
(n, n_diag, multiplicity) classes, found once per (M, Q), and the nine
report fields cost microseconds per p. None of this goes through crlab.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

REPORT_FIELDS = (
    "Q", "p", "H_R", "H_X_given_Xp", "H_X_given_Xphat", "H_R_given_Xphat",
    "H_R_given_Xp", "I_X_Xp", "I_X_Xphat", "I_R_Xp", "I_R_Xphat",
)

# the bitstream bound each codec paradigm is measured against
PARADIGM_BOUND = {
    "residual": "H_R",
    "conditional": "H_X_given_Xphat",
    "conditional-residual": "H_R_given_Xphat",
}


def _exact(value) -> Fraction:
    """A CLI number read the way crlab reads it: floats by their repr."""
    return Fraction(repr(value)) if isinstance(value, float) else Fraction(value)


class PixelOracle:
    """Entropy report of the (M, Q) pixel model for any occlusion p."""

    def __init__(self, M: int, Q):
        step = _exact(Q)
        x, xp = np.indices((M, M)).reshape(2, -1)
        xq = (xp * step.denominator) // step.numerator  # floor(xp / Q)
        r = x - xp + (M - 1)
        on_diag = (x == xp).astype(np.int64)
        keys = {
            "x": x, "xp": xp, "xq": xq, "r": r,
            "x,xp": x * M + xp, "x,xq": x * M + xq,
            "r,xp": r * M + xp, "r,xq": r * M + xq,
        }
        self.M = M
        self.Q = float(step)
        self.classes = {}
        for name, key in keys.items():
            n = np.bincount(key)
            n_diag = np.bincount(key, weights=on_diag).astype(np.int64)
            used = n > 0
            pairs, mult = np.unique(np.stack([n[used], n_diag[used]], axis=1),
                                    axis=0, return_counts=True)
            self.classes[name] = (pairs[:, 0], pairs[:, 1], mult)

    def report(self, p) -> dict[str, float]:
        p = _exact(p)
        M = self.M
        off = float(p / M**2)
        diag = float(p / M**2 + (1 - p) * Fraction(1, M))
        h = {}
        for name, (n, n_diag, mult) in self.classes.items():
            w = off * n + (diag - off) * n_diag
            keep = w > 0.0
            h[name] = -math.fsum(mult[keep] * w[keep] * np.log2(w[keep]))
        return {
            "Q": self.Q,
            "p": float(p),
            "H_R": h["r"],
            "H_X_given_Xp": h["x,xp"] - h["xp"],
            "H_X_given_Xphat": h["x,xq"] - h["xq"],
            "H_R_given_Xphat": h["r,xq"] - h["xq"],
            "H_R_given_Xp": h["r,xp"] - h["xp"],
            "I_X_Xp": h["x"] + h["xp"] - h["x,xp"],
            "I_X_Xphat": h["x"] + h["xq"] - h["x,xq"],
            "I_R_Xp": h["r"] + h["xp"] - h["r,xp"],
            "I_R_Xphat": h["r"] + h["xq"] - h["r,xq"],
        }


def digit9_tolerance(value: float) -> float:
    """One unit in the ninth significant digit (the CSV's precision), plus
    a 1e-12 floor for quantities that cancel to zero."""
    if value == 0.0:
        return 1e-12
    return 10.0 ** (math.floor(math.log10(abs(value))) - 8) + 1e-12
