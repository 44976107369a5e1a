"""Single-pixel temporal prediction with an occluded predictor.

The current pixel X is uniform on 0..M-1. Its temporal prediction X_p
equals X unless an occlusion happened (probability p), in which case X_p
is an independent uniform draw:

    Pr(x_p | x) = p/M + (1 - p) * [x_p == x]

The decoder never sees X_p itself, only a quantized version X^_p with
step Q (the bottleneck), coded by its cell floor(X_p/Q): every rate
depends on which cell X_p falls in, never on the cell's value. R = X - X_p
is the plain signed residual. All
joint masses are formed in exact rational arithmetic and rounded to
float64 once, so the entropy reports are exact to float precision.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InputError, InternalConsistencyError
from .info_measures import EntropyMemo, TwoMassEntropies
from .prob_core import (
    JointPMF,
    adjoin_difference,
    adjoin_map,
    as_exact,
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


def _masses(params: PixelModelParams) -> tuple[float, float]:
    """(off, diag): the mass of each support point with x != xp, and of
    each with x == xp."""
    M, p = params.M, params.p
    off = p / M**2
    return float(off), float(off + (1 - p) * Fraction(1, M))


def build_joint(params: PixelModelParams) -> JointPMF:
    """Exact joint over (x, xp, xq, r) for the given parameters; xq is
    the cell index of xp."""
    M = params.M
    if params.p == 0:
        # every off-diagonal pair has mass 0: the support is x == xp
        idx = np.repeat(np.arange(M, dtype=np.intp)[:, None], 2, axis=1)
    else:
        idx = np.indices((M, M), dtype=np.intp).reshape(2, -1).T
    off, diag = _masses(params)
    probs = np.where(idx[:, 0] == idx[:, 1], diag, off)

    pmf = JointPMF((("x", range(M)), ("xp", range(M))), idx, probs, _trusted=True)
    cells = quantizer_map(range(M), params.Q)
    pmf = adjoin_map(pmf, "xp", cells, range(int(cells[-1]) + 1), "xq")
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


def entropy_report(params: PixelModelParams) -> EntropyReport:
    """Evaluate the nine entropy/information measures on the exact joint."""
    return _reports(EntropyMemo(build_joint(params)), [params])[0]


def _reports(h: EntropyMemo, grid: Sequence[PixelModelParams]) -> list[EntropyReport]:
    """One EntropyReport per grid point, from entry t of every entropy of h
    for grid[t].

    The conditioning ladder H(R|Xp) <= H(R|Xphat) <= H(R) and the
    residual/conditional equivalence H(X|Xp) = H(R|Xp) are checked here;
    a violation beyond 1e-9 means the joint was built wrong.
    """
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
    columns = {f: v.tolist() for f, v in measures.items()}
    out = []
    for t, params in enumerate(grid):
        rep = EntropyReport(Q=float(params.Q), p=float(params.p),
                            **{f: v[t] for f, v in columns.items()})
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
        out.append(rep)
    return out


def sweep_p(p_grid: Sequence, Q_list: Sequence, M: int = 256) -> list[EntropyReport]:
    """One EntropyReport per distinct (p, Q) pair, rows ordered by (Q, p).

    Every joint of one Q weighs the same full support with two masses,
    one on x == xp and one elsewhere, so each grouping is counted once per
    Q and every p is evaluated from its count signature.
    """
    ps = [as_exact(v) for v in p_grid]
    qs = [as_exact(v) for v in Q_list]
    if not ps or not qs:
        raise InputError("p grid and Q list must be nonempty")
    out = []
    for q in sorted(set(qs)):
        support = build_joint(PixelModelParams(p=1, Q=q, M=M))
        on_diag = support.idx[:, 0] == support.idx[:, 1]  # x, xp
        grid = [PixelModelParams(p=p, Q=q, M=M) for p in sorted(set(ps))]
        out += _reports(TwoMassEntropies(support, on_diag, [_masses(g) for g in grid]), grid)
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
