"""Shannon measures over exact joint PMFs.

Entropy, conditional entropy, mutual information, and conditional mutual
information, all in bits, all evaluated from one shared log-sum kernel so
that identities formed by subtracting measures cancel rounding
consistently. 0*log(0) is 0 throughout. Results are clamped at -1e-12:
anything more negative indicates a defect and raises instead of clamping.
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
    "conditional_entropy",
    "conditional_mutual_information",
    "entropy",
    "mutual_information",
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


def _plogp_sum(weights: np.ndarray, bounds=None) -> np.ndarray:
    """-sum(w * log2 w) of each segment weights[bounds[t]:bounds[t + 1]]
    (the whole array when bounds is None): pairwise partials over chunks of
    _CHUNK positive weights of the segment, folded by fsum.

    Every segment holds a positive weight. Its value depends only on its
    own weights, never on its neighbours or on the zeros among them.
    """
    if bounds is None or len(bounds) == 2:  # one segment: no counts to take
        w = weights[weights > 0.0]
        counts = [w.size]
    else:
        keep = weights > 0.0
        w = weights[keep]
        counts = np.add.reduceat(keep, bounds[:-1], dtype=np.intp).tolist()
    top = float(w.max())
    if top > 1.0:
        if top > 1.0 + _MASS_TOL:
            raise InternalConsistencyError(f"group weight {top!r} exceeds 1 beyond {_MASS_TOL}")
        # such a group is the whole distribution: its weight is 1 and it adds 0
        w = np.minimum(w, 1.0)
    terms = w * np.log2(w)
    if max(counts) <= _CHUNK:
        # one partial per segment, and the fsum of one partial is itself:
        # no term is -0.0, so no partial is
        return -np.add.reduceat(terms, list(accumulate(counts[:-1], initial=0)))
    sums = np.empty(len(counts))
    start = 0
    for t, n in enumerate(counts):
        partials = np.add.reduceat(terms[start:start + n], np.arange(0, n, _CHUNK))
        sums[t] = -math.fsum(partials.tolist())
        start += n
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


def _entropies(stack: JointStack, names: tuple[str, ...]) -> np.ndarray:
    """H(names) in bits of each joint of stack, each bit for bit what that
    joint alone gives."""
    h = _plogp_sum(*stack.group_probs(names)).tolist()
    cols = [stack.var_pos(n) for n in names]
    for value, sizes in zip(h, stack.sizes.tolist()):
        cap = sum(math.log2(sizes[c]) for c in cols)
        if value > cap + 1e-9:
            raise InternalConsistencyError(f"H{names} = {value} above log2 alphabet bound {cap}")
    return np.array([_clamp_bits(value, f"H{names}") for value in h])


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


def mutual_information(pmf: JointPMF, a, b) -> float:
    """I(a; b) = H(a) + H(b) - H(a, b)."""
    na, nb = _names(a), _names(b)
    _disjoint(na, nb)
    value = entropy(pmf, na) + entropy(pmf, nb) - entropy(pmf, na + nb)
    return _clamp_bits(value, f"I({na};{nb})")


def conditional_mutual_information(pmf: JointPMF, a, b, given=()) -> float:
    """I(a; b | given) via the four-entropy expansion."""
    na, nb = _names(a), _names(b)
    g = _names(given) if given else ()
    _disjoint(na, nb, g)
    if not g:
        return mutual_information(pmf, na, nb)
    value = (
        entropy(pmf, na + g)
        + entropy(pmf, nb + g)
        - entropy(pmf, na + nb + g)
        - entropy(pmf, g)
    )
    return _clamp_bits(value, f"I({na};{nb}|{g})")


class EntropyMemo:
    """Memoized joint entropies of every joint of a JointStack, one array
    entry per joint (one entry for a JointPMF), keyed by the sorted name
    tuple. The measures below are the same expressions, joint by joint."""

    def __init__(self, pmf: JointStack):
        self.pmf = pmf
        self.memo: dict[tuple[str, ...], np.ndarray] = {}

    def __call__(self, *names: str) -> np.ndarray:
        key = tuple(sorted(names))
        if key not in self.memo:
            self.memo[key] = _entropies(self.pmf, key)
        return self.memo[key]

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
