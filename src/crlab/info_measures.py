"""Shannon measures over exact joint PMFs.

Entropy, conditional entropy, mutual information, and conditional mutual
information, all in bits, all evaluated from one shared log-sum kernel so
that identities formed by subtracting measures cancel rounding
consistently. 0*log(0) is 0 throughout. Results are clamped at -1e-12:
anything more negative indicates a defect and raises instead of clamping.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import InputError, InternalConsistencyError
from .prob_core import JointPMF, group_probs

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


def _plogp_sum(weights: np.ndarray) -> float:
    """-sum(w * log2 w) with chunked pairwise partials folded by fsum."""
    w = weights[weights > 0.0]
    if w.size == 0:
        return 0.0
    top = float(w.max())
    if top > 1.0:
        if top > 1.0 + _MASS_TOL:
            raise InternalConsistencyError(f"group weight {top!r} exceeds 1 beyond {_MASS_TOL}")
        # such a group is the whole distribution: its weight is 1 and it adds 0
        w = np.minimum(w, 1.0)
    terms = w * np.log2(w)
    partials = np.add.reduceat(terms, np.arange(0, terms.size, _CHUNK))
    return -math.fsum(partials.tolist())


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


def entropy(pmf: JointPMF, vars_) -> float:
    """Joint entropy H(vars) in bits."""
    names = _names(vars_)
    h = _plogp_sum(group_probs(pmf, names))
    cap = sum(math.log2(len(pmf.alphabet(n))) for n in names)
    if h > cap + 1e-9:
        raise InternalConsistencyError(f"H{names} = {h} above log2 alphabet bound {cap}")
    return _clamp_bits(h, f"H{names}")


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
    """Memoized joint entropies of one pmf, keyed by the sorted name tuple."""

    def __init__(self, pmf: JointPMF):
        self.pmf = pmf
        self.memo: dict[tuple[str, ...], float] = {}

    def __call__(self, *names: str) -> float:
        key = tuple(sorted(names))
        if key not in self.memo:
            self.memo[key] = entropy(self.pmf, key)
        return self.memo[key]

    def cond(self, a: str, b: str) -> float:
        """H(a | b) = H(a, b) - H(b), unclamped."""
        return self(a, b) - self(b)

    def mi(self, a: str, b: str) -> float:
        """I(a; b) = H(a) + H(b) - H(a, b), unclamped."""
        return self(a) + self(b) - self(a, b)

    def cmi(self, a: str, b: str, *given: str) -> float:
        """I(a; b | given) by the four-entropy expansion, unclamped."""
        return (self(a, *given) + self(b, *given)
                - self(a, b, *given) - self(*given))
