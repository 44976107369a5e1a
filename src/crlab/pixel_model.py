"""Single-pixel temporal prediction with an occluded predictor.

The current pixel X is uniform on 0..M-1. Its temporal prediction X_p
equals X unless an occlusion happened (probability p), in which case X_p
is an independent uniform draw:

    Pr(x_p | x) = p/M + (1 - p) * [x_p == x]

The decoder never sees X_p itself, only a quantized version X^_p with
step Q (the bottleneck). R = X - X_p is the plain signed residual. All
joint masses are formed in exact rational arithmetic and rounded to
float64 once, so the entropy reports are exact to float precision.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InputError, InternalConsistencyError
from .info_measures import EntropyMemo
from .prob_core import (
    JointPMF,
    adjoin_difference,
    adjoin_map,
    as_exact,
    integer_alphabet,
    quantizer_map,
)

__all__ = [
    "EntropyReport",
    "PARADIGMS",
    "Paradigm",
    "PixelModelParams",
    "REPORT_FIELDS",
    "build_joint",
    "codec_paradigm",
    "entropy_report",
    "sweep_p",
]

IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class PixelModelParams:
    """Model parameters: alphabet size M, occlusion probability p, step Q.

    p and Q are coerced to exact rationals (floats are read by their
    shortest decimal repr, so Q=1.4 means exactly 7/5).
    """

    p: Fraction
    Q: Fraction
    M: int = 256

    def __post_init__(self):
        object.__setattr__(self, "p", as_exact(self.p))
        object.__setattr__(self, "Q", as_exact(self.Q))
        object.__setattr__(self, "M", int(self.M))
        if self.M < 2:
            raise InputError(f"alphabet size must be >= 2, got {self.M}")
        if not 0 <= self.p <= 1:
            raise InputError(f"occlusion probability must be in [0, 1], got {self.p}")
        if self.Q < 1:
            raise InputError(f"quantizer step must be >= 1, got {self.Q}")


def _point_probs(params: PixelModelParams, on_diag: np.ndarray) -> np.ndarray:
    """Weight of each support point: the x == xp mass where on_diag holds,
    the off-diagonal mass elsewhere."""
    M, p = params.M, params.p
    diag = p / M**2 + (1 - p) * Fraction(1, M)
    off = p / M**2
    probs = np.full(on_diag.shape, float(off))
    probs[on_diag] = float(diag)
    return probs


def build_joint(params: PixelModelParams) -> JointPMF:
    """Exact joint over (x, xp, xq, r) for the given parameters."""
    M = params.M
    ax = integer_alphabet("x", 0, M - 1)
    axp = integer_alphabet("xp", 0, M - 1)

    if params.p == 0:
        # every off-diagonal pair has mass 0: the support is x == xp
        idx = np.repeat(np.arange(M, dtype=np.intp)[:, None], 2, axis=1)
    else:
        idx = np.indices((M, M), dtype=np.intp).reshape(2, -1).T
    probs = _point_probs(params, idx[:, 0] == idx[:, 1])

    pmf = JointPMF((ax, axp), idx, probs, _trusted=True)
    pmf = adjoin_map(pmf, "xp", quantizer_map(axp, params.Q, "xq"), "xq")
    return adjoin_difference(pmf, "x", "xp", "r")


@dataclass(frozen=True)
class EntropyReport:
    """All Fig.-style rate quantities for one (Q, p) grid point, in bits.

    Field names double as the sweep CSV header; Xphat denotes the
    quantized predictor.
    """

    Q: float
    p: float
    H_R: float
    H_X_given_Xp: float
    H_X_given_Xphat: float
    H_R_given_Xphat: float
    H_R_given_Xp: float
    I_X_Xp: float
    I_X_Xphat: float
    I_R_Xp: float
    I_R_Xphat: float

    def row(self) -> tuple[float, ...]:
        return tuple(getattr(self, f) for f in REPORT_FIELDS)


REPORT_FIELDS = tuple(f.name for f in fields(EntropyReport))


def entropy_report(params: PixelModelParams, pmf: JointPMF | None = None) -> EntropyReport:
    """Evaluate the nine entropy/information measures on the exact joint.

    The conditioning ladder H(R|Xp) <= H(R|Xphat) <= H(R) and the
    residual/conditional equivalence H(X|Xp) = H(R|Xp) are checked here;
    a violation beyond 1e-9 means the joint was built wrong.
    """
    if pmf is None:
        pmf = build_joint(params)

    h = EntropyMemo(pmf)
    measures = dict(
        H_R=h("r"),
        H_X_given_Xp=h.cond("x", "xp"),
        H_X_given_Xphat=h.cond("x", "xq"),
        H_R_given_Xphat=h.cond("r", "xq"),
        H_R_given_Xp=h.cond("r", "xp"),
        I_X_Xp=h.mi("x", "xp"),
        I_X_Xphat=h.mi("x", "xq"),
        I_R_Xp=h.mi("r", "xp"),
        I_R_Xphat=h.mi("r", "xq"),
    )
    rep = EntropyReport(Q=float(params.Q), p=float(params.p),
                        **{f: float(v[0]) for f, v in measures.items()})
    if not (rep.H_R_given_Xp <= rep.H_R_given_Xphat + IDENTITY_TOL
            and rep.H_R_given_Xphat <= rep.H_R + IDENTITY_TOL):
        raise InternalConsistencyError(
            f"conditioning ladder violated at {params}: "
            f"{rep.H_R_given_Xp}, {rep.H_R_given_Xphat}, {rep.H_R}"
        )
    if abs(rep.H_X_given_Xp - rep.H_R_given_Xp) > IDENTITY_TOL:
        raise InternalConsistencyError(
            f"H(X|Xp) != H(R|Xp) at {params}: "
            f"{rep.H_X_given_Xp} vs {rep.H_R_given_Xp}"
        )
    return rep


def sweep_p(p_grid: Sequence, Q_list: Sequence, M: int = 256) -> list[EntropyReport]:
    """One EntropyReport per (p, Q) pair, rows ordered by (Q, p)."""
    ps = [as_exact(v) for v in p_grid]
    qs = [as_exact(v) for v in Q_list]
    if not ps or not qs:
        raise InputError("p grid and Q list must be nonempty")
    out = []
    for q in sorted(set(qs)):
        # every 0 < p has the same support at this Q; only the weights change
        full = None
        for p in sorted(set(ps)):
            params = PixelModelParams(p=p, Q=q, M=M)
            if p == 0 or full is None:
                pmf = build_joint(params)
                if p > 0:
                    full, on_diag = pmf, pmf.idx[:, 0] == pmf.idx[:, 1]  # x, xp
            else:
                pmf = JointPMF(full.variables, full.idx, _point_probs(params, on_diag),
                               _trusted=True)
            out.append(entropy_report(params, pmf))
    return out


@dataclass(frozen=True)
class Paradigm:
    """One coder of the study.

    label   : its name in RD curves and CSVs
    name    : its name in the codec and on the command line
    coded   : the joint variable it codes (x, or the residual r)
    context : the joint variable it conditions on, or None
    bound   : the EntropyReport field that bounds its lossless rate
    byte    : its bitstream header byte, or None if the codec lacks it
    """

    label: str
    name: str
    coded: str
    context: str | None
    bound: str
    byte: int | None


# cond_ideal sees the raw prediction, which the decoder never has: it is
# the RD study's reference, not a codec
PARADIGMS = (
    Paradigm("res", "residual", "r", None, "H_R", 0),
    Paradigm("cond_ideal", "conditional", "x", "xp", "H_X_given_Xp", None),
    Paradigm("cond", "conditional", "x", "xq", "H_X_given_Xphat", 1),
    Paradigm("condres", "conditional-residual", "r", "xq", "H_R_given_Xphat", 2),
)


def codec_paradigm(spelling: str) -> Paradigm:
    """The codec row whose name or label is spelling."""
    for row in PARADIGMS:
        if row.byte is not None and spelling in (row.name, row.label):
            return row
    raise InputError(f"unknown codec paradigm {spelling!r}")
