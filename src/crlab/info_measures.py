"""Shannon measures over exact joint PMFs.

Entropy and conditional entropy of one joint, and the memoized entropies
of every joint of a stack with the mutual informations formed from them,
all in bits, all evaluated from one shared log-sum kernel so that
identities formed by subtracting measures cancel rounding consistently.
0*log(0) is 0 throughout. Entropies and conditional entropies are clamped
at -1e-12: anything more negative indicates a defect and raises instead
of clamping.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import InputError, InternalConsistencyError
from .prob_core import JointPMF, JointStack

__all__ = [
    "NEG_TOL",
    "EntropyMemo",
    "TwoMassEntropies",
    "conditional_entropy",
    "entropy",
]

NEG_TOL = 1e-12
# how far float summation may push the weight of a group that holds all the
# mass above 1: 65,536 terms of one pixel-model cell reach 1 + 7.6e-13
_MASS_TOL = 1e-9
_CHUNK = 4096


def _clamp_bits(value: float, what: str) -> float:
    if value < -NEG_TOL:
        raise InternalConsistencyError(f"{what} = {value!r} is negative beyond {NEG_TOL}")
    return 0.0 if value < 0.0 else float(value)


def _plogp_sum(weights: np.ndarray, bounds=None, mult=None) -> np.ndarray:
    """-sum(m * w * log2 w) of each segment weights[bounds[t]:bounds[t + 1]]
    (the whole array when bounds is None), where mult[i] groups weigh
    weights[i] (one when mult is None): pairwise partials over chunks of
    _CHUNK positive weights of the segment, folded by fsum.

    Every segment holds a positive weight. Its value depends only on its
    own weights, never on its neighbours or on the zeros among them.
    """
    keep = weights > 0.0
    w = weights[keep]
    if bounds is None or len(bounds) == 2:  # one segment: no counts to take
        counts = [w.size]
    else:
        counts = np.add.reduceat(keep, bounds[:-1], dtype=np.intp).tolist()
    top = float(w.max())
    if top > 1.0 + _MASS_TOL:
        raise InternalConsistencyError(f"group weight {top!r} exceeds 1 beyond {_MASS_TOL}")
    if top > 1.0:
        w = np.minimum(w, 1.0)
    # a lone group is the whole distribution, whichever side of 1 its
    # float sum lands on: its weight is 1 and it adds 0
    starts = list(accumulate(counts[:-1], initial=0))
    if mult is not None:
        mult = mult[keep]
    if 1 in counts:
        w[[s for s, n in zip(starts, counts)
           if n == 1 and (mult is None or mult[s] == 1)]] = 1.0
    terms = w * np.log2(w)
    if mult is not None:
        terms *= mult
    if max(counts) <= _CHUNK:
        # one partial per segment, and the fsum of one partial is itself:
        # no term is -0.0, so no partial is
        return -np.add.reduceat(terms, starts)
    sums = np.empty(len(counts))
    for t, (start, n) in enumerate(zip(starts, counts)):
        partials = np.add.reduceat(terms[start:start + n], np.arange(0, n, _CHUNK))
        sums[t] = -math.fsum(partials.tolist())
    return sums


def _names(vars_) -> tuple[str, ...]:
    if isinstance(vars_, str):
        return (vars_,)
    out = tuple(vars_)
    if not out:
        raise InputError("need at least one variable name")
    if len(set(out)) != len(out):
        raise InputError(f"repeated variable names in {out}")
    return out


def _disjoint(*groups: Sequence[str]):
    seen: set[str] = set()
    for g in groups:
        for n in g:
            if n in seen:
                raise InputError(f"variable {n!r} appears in more than one argument")
            seen.add(n)


def _checked_bits(h: np.ndarray, caps: np.ndarray, names: tuple[str, ...]) -> np.ndarray:
    """The entropies h of names, one per joint, each checked against its
    joint's log2 alphabet bound in caps and clamped at 0."""
    what = f"H{names}"
    over = np.flatnonzero(h > caps + 1e-9)
    if over.size:
        t = over[0]
        raise InternalConsistencyError(
            f"{what} = {float(h[t])} above log2 alphabet bound {float(caps[t])}")
    negative = np.flatnonzero(h < -NEG_TOL)
    if negative.size:
        _clamp_bits(float(h[negative[0]]), what)  # raises
    # as _clamp_bits: a value below 0.0 becomes 0.0, and -0.0 stays
    return np.where(h < 0.0, 0.0, h)


def _entropies(stack: JointStack, names: tuple[str, ...]) -> np.ndarray:
    """H(names) in bits of each joint of stack, each bit for bit what that
    joint alone gives."""
    h = _plogp_sum(*stack.group_probs(names))
    cols = [stack.var_pos(n) for n in names]
    return _checked_bits(h, np.log2(stack.sizes[:, cols]).sum(axis=1), names)


def entropy(pmf: JointPMF, vars_) -> float:
    """Joint entropy H(vars) in bits of one joint. The entropies of every
    joint of a JointStack come from EntropyMemo."""
    if len(pmf) != 1:
        raise InputError(f"entropy takes one joint, got a stack of {len(pmf)}")
    return float(_entropies(pmf, _names(vars_))[0])


def conditional_entropy(pmf: JointPMF, target, given=()) -> float:
    """H(target | given) = H(target, given) - H(given)."""
    t = _names(target)
    g = _names(given) if given else ()
    _disjoint(t, g)
    if not g:
        return entropy(pmf, t)
    return _clamp_bits(entropy(pmf, t + g) - entropy(pmf, g), f"H({t}|{g})")


class EntropyMemo:
    """Memoized joint entropies of every joint of a JointStack, one array
    entry per joint (one entry for a JointPMF), keyed by the sorted name
    tuple. cond, mi and cmi are unclamped differences of these entropies,
    joint by joint."""

    def __init__(self, pmf: JointStack):
        self.pmf = pmf
        self.memo: dict[tuple[str, ...], np.ndarray] = {}

    def __call__(self, *names: str) -> np.ndarray:
        key = tuple(sorted(names))
        if key not in self.memo:
            self.memo[key] = self._evaluate(key)
        return self.memo[key]

    def _evaluate(self, names: tuple[str, ...]) -> np.ndarray:
        return _entropies(self.pmf, names)

    def cond(self, a: str, b: str) -> np.ndarray:
        """H(a | b) = H(a, b) - H(b), unclamped."""
        return self(a, b) - self(b)

    def mi(self, a: str, b: str) -> np.ndarray:
        """I(a; b) = H(a) + H(b) - H(a, b), unclamped."""
        return self(a) + self(b) - self(a, b)

    def cmi(self, a: str, b: str, *given: str) -> np.ndarray:
        """I(a; b | given) by the four-entropy expansion, unclamped."""
        return (self(a, *given) + self(b, *given)
                - self(a, b, *given) - self(*given))


class TwoMassEntropies(EntropyMemo):
    """EntropyMemo of the joints that weigh each support row of pmf with
    one of two masses: joint t gives masses[t][1] to the rows where on
    holds and masses[t][0] to the others. pmf's own weights are not used.

    A group of a rows where on is False and b where it holds weighs
    a·masses[t][0] + b·masses[t][1] in joint t, so each grouping is counted
    once (JointPMF.count_signature), and each joint then costs one term per
    distinct (a, b) pair, not one per support row.
    """

    def __init__(self, pmf: JointPMF, on: np.ndarray, masses):
        super().__init__(pmf)
        self.on = on
        self.masses = np.asarray(masses, dtype=np.float64)

    def _evaluate(self, names: tuple[str, ...]) -> np.ndarray:
        a, b, m = self.pmf.count_signature(names, self.on)
        n = len(self.masses)
        w = np.multiply.outer(self.masses[:, 0], a) + np.multiply.outer(self.masses[:, 1], b)
        h = _plogp_sum(w.ravel(), np.arange(n + 1) * a.size, np.tile(m, n))
        sizes = self.pmf.sizes[0]
        cap = sum(math.log2(sizes[self.pmf.var_pos(x)]) for x in names)
        return _checked_bits(h, np.full(n, cap), names)
