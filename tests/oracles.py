"""Reference joint operations that the tests compare against or build
fixtures with. Nothing in crlab calls them; tests/test_prob_core.py
checks them, and tests/test_info_measures.py checks SegmentedStack.

group_weights groups a joint's rows the way JointStack.group_probs does,
and also returns the rows. SegmentedStack stacks the rows of several
joints and groups them by a key built from those rows alone: the
reference for the stacks that the theorem suite groups. adjoin_map,
adjoin_channel and adjoin_sum extend a joint by a deterministic map, a
test channel and a sum: the quantizer column of pixel_model.build_joint
and the lossy trials of the theorem suite. random_pmf draws a
flat-Dirichlet joint over a full grid.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from crlab.errors import InputError
from crlab.prob_core import (
    JointPMF,
    JointStack,
    _as_seed,
    _check_new_name,
    _columns,
    _group_rows,
    _ravel_rows,
    _require_alphabet,
    require_stochastic,
    sum_alphabet,
)


def group_weights(pmf: JointPMF, names: Sequence[str]):
    """Unique sub-rows over the named variables and their total weights.

    Returns (rows, weights) with rows sorted by mixed-radix key.
    """
    cols, radix = _columns(pmf, names)
    weights, groups = _group_rows(_ravel_rows(pmf.idx, cols, radix), pmf.probs,
                                  math.prod(radix))
    if groups is None:
        groups = np.flatnonzero(weights)
        weights = weights[groups]
    return np.column_stack(np.unravel_index(groups, radix)), weights


class SegmentedStack(JointStack):
    """Joints over the same variables with their rows stacked, one segment
    per joint: idx and probs hold joint 0's rows, then joint 1's, and so
    on, and seg[i] is the joint of row i. Its grouping key is that of the
    rows with the joint as one more digit on top."""

    def __init__(self, variables, idx: np.ndarray, probs: np.ndarray, seg, sizes):
        super().__init__(variables, probs, sizes)
        self.idx = idx
        self.seg = np.asarray(seg)

    @classmethod
    def of(cls, joints: Sequence[JointPMF]) -> "SegmentedStack":
        """The stack of joints that share their variables and alphabets."""
        return cls(joints[0].variables, np.concatenate([j.idx for j in joints]),
                   np.concatenate([j.probs for j in joints]),
                   np.repeat(np.arange(len(joints)), [j.n_points for j in joints]),
                   [[len(a) for _, a in joints[0].variables]] * len(joints))

    @property
    def n_points(self) -> int:
        return self.idx.shape[0]

    def _group_key(self, cols, radix):
        rows = np.column_stack([self.seg, self.idx])
        return _ravel_rows(rows, [0, *(c + 1 for c in cols)], [len(self), *radix])


def adjoin_map(pmf: JointPMF, source_var: str, images, alphabet: range,
               new_var: str) -> JointPMF:
    """Add new_var = f(source_var) as a derived column: images lists, for
    each symbol of source_var in alphabet order, the index of its image
    in alphabet."""
    _check_new_name(pmf, new_var)
    _require_alphabet(new_var, alphabet)
    c = pmf.var_pos(source_var)
    images = np.asarray(images)
    if images.shape != (len(pmf.variables[c][1]),) or images.dtype.kind not in "iu":
        raise InputError(f"map must list one integer image per symbol of {source_var!r}")
    if images.min() < 0 or images.max() >= len(alphabet):
        raise InputError(f"map images fall outside the alphabet of {new_var!r}")
    idx = np.column_stack([pmf.idx, images.astype(np.intp)[pmf.idx[:, c]]])
    variables = list(pmf.variables) + [(new_var, alphabet)]
    return JointPMF(variables, idx, pmf.probs, _trusted=True)


def adjoin_sum(pmf: JointPMF, a: str, b: str, new_var: str) -> JointPMF:
    """Add new_var = a + b; alphabet is the full cross set, so every
    index is found."""
    codomain = sum_alphabet(pmf.alphabet(a), pmf.alphabet(b))
    _check_new_name(pmf, new_var)
    offset = pmf.alphabet(a)[0] + pmf.alphabet(b)[0] - codomain[0]
    col = pmf.idx[:, pmf.var_pos(a)] + pmf.idx[:, pmf.var_pos(b)] + offset
    idx = np.column_stack([pmf.idx, col])
    variables = list(pmf.variables) + [(new_var, codomain)]
    return JointPMF(variables, idx, pmf.probs, _trusted=True)


def adjoin_channel(pmf: JointPMF, given: str, kernel: np.ndarray,
                   alphabet: range, new_var: str) -> JointPMF:
    """Extend by a conditional distribution: new_var ~ kernel[given, :].

    kernel rows must be indexed by the alphabet of `given` and sum to 1. The
    new variable is conditionally independent of everything else given
    `given`, which is exactly the memoryless test channel construction.
    """
    _check_new_name(pmf, new_var)
    _require_alphabet(new_var, alphabet)
    c = pmf.var_pos(given)
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.shape != (len(pmf.alphabet(given)), len(alphabet)):
        raise InputError(
            f"kernel shape {kernel.shape} does not match |{given}| x |{new_var}|"
        )
    require_stochastic(kernel)
    m = len(alphabet)
    n = pmf.n_points
    idx = np.repeat(pmf.idx, m, axis=0)
    new_col = np.tile(np.arange(m, dtype=np.intp), n)
    probs = (pmf.probs[:, None] * kernel[pmf.idx[:, c], :]).ravel()
    keep = probs > 0
    idx = np.column_stack([idx[keep], new_col[keep]])
    variables = list(pmf.variables) + [(new_var, alphabet)]
    return JointPMF(variables, idx, probs[keep], _trusted=True)


def random_pmf(shape: Sequence[int], *, seed,
               names: Sequence[str] | None = None) -> JointPMF:
    """Flat-Dirichlet joint over a full integer grid of the given shape;
    seed is an integer or a numpy Generator."""
    shape = [int(s) for s in shape]
    if not shape or any(s < 1 for s in shape):
        raise InputError(f"all alphabet sizes must be >= 1, got {shape}")
    if names is None:
        names = [f"v{i}" for i in range(len(shape))]
    if len(names) != len(shape):
        raise InputError("need one name per alphabet size")
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(_as_seed(seed))
    cells = int(np.prod(shape))
    probs = rng.dirichlet(np.ones(cells))
    idx = np.indices(shape).reshape(len(shape), -1).T
    variables = [(n, range(s)) for n, s in zip(names, shape)]
    return JointPMF(variables, idx, probs)
