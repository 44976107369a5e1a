"""Exact finite joint probability distributions.

A :class:`JointPMF` carries named finite variables and a strictly positive
probability weight for every support point. The support is stored as one
row of alphabet indices per point (a coordinate list), so adjoining a
deterministic function of an existing variable adds a derived column
instead of a new dense axis. The largest in-scope object, a four-variable
pixel-model joint at M=256, therefore stays at 256*256 support points.

A variable is a name and a range of consecutive integers, its alphabet;
a row stores each symbol as its offset from the first. A quantized
variable is coded by its cell, so its alphabet is range(K), the cell
indices. An alphabet given from outside that is not a nonempty range
with step 1 raises InputError where it enters. Steps and other
parameters are exact numbers (int or Fraction); a float is read through
its shortest decimal representation, so a step of 1.4 means exactly 7/5
and cell boundaries never depend on binary rounding.

All values are immutable after construction and all operations are pure.
Sampling takes an explicit seed per call; there is no hidden global state.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError

__all__ = [
    "JointPMF",
    "JointStack",
    "adjoin_difference",
    "adjoin_channel",
    "adjoin_map",
    "adjoin_sum",
    "as_exact",
    "combined_index",
    "conditional_table",
    "difference_alphabet",
    "marginalize",
    "quantizer_map",
    "random_pmf",
    "require_stochastic",
    "require_unit_sums",
    "sample_columns",
    "splitmix64",
    "sum_alphabet",
]

SUM_TOL = 1e-12


def require_unit_sums(totals):
    """Raise InputError unless every total is 1 within SUM_TOL."""
    totals = np.atleast_1d(totals)
    bad = ~(np.abs(totals - 1.0) <= SUM_TOL)
    if bad.any():
        total = float(totals[bad][0])
        raise InputError(f"probabilities sum to {total!r}, not 1 within {SUM_TOL}")


def require_stochastic(kernel: np.ndarray):
    """Raise InputError unless every row (last axis) of kernel is
    nonnegative and sums to 1 within SUM_TOL."""
    if np.any(kernel < 0) or np.any(np.abs(kernel.sum(axis=-1) - 1.0) > SUM_TOL):
        raise InputError("kernel rows must be nonnegative and sum to 1")


def as_exact(value) -> int | Fraction:
    """Coerce a number, such as p or a quantizer step, to an exact int or
    Fraction.

    Floats go through repr, so 1.4 becomes Fraction(7, 5), not the binary
    float it is stored as.
    """
    if isinstance(value, bool):
        raise InputError("booleans are not valid numbers")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InputError(f"non-finite number: {value!r}")
        return as_exact(Fraction(repr(value)))
    if isinstance(value, str):
        try:
            return as_exact(Fraction(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse {value!r} as an exact number") from exc
    raise InputError(f"unsupported number type: {type(value).__name__}")


def _require_alphabet(name: str, alphabet):
    """Raise InputError unless alphabet, the symbols of variable name, is
    a nonempty range of consecutive ascending integers."""
    if not isinstance(alphabet, range) or alphabet.step != 1 or not alphabet:
        raise InputError(f"alphabet of {name!r} must be a nonempty range with step 1, "
                         f"got {alphabet!r}")


def difference_alphabet(a: range, b: range) -> range:
    """All values u - v for u in a, v in b (full cross set, support free)."""
    return range(a[0] - b[-1], a[-1] - b[0] + 1)


def sum_alphabet(a: range, b: range) -> range:
    """All values u + v for u in a, v in b."""
    return range(a[0] + b[0], a[-1] + b[-1] + 1)


def quantizer_map(domain: range, step) -> np.ndarray:
    """Cell of each symbol of domain under the lattice quantizer
    v -> floor(v/step), counted from the cell of the first symbol.

    The floor is taken in exact integer arithmetic, (v*den)//num for
    step = num/den. Truncation (not round-half-up) is the convention here:
    on 0..M-1 with a step dividing M every cell has exactly step members,
    so the entropy lost by the bottleneck is exactly log2(step) bits. A
    step of at least 1 leaves no cell empty between the first and the
    last, so the cells are 0..K-1.
    """
    q = Fraction(as_exact(step))
    if q < 1:
        raise InputError(f"quantizer step must be >= 1, got {step!r}")
    num, den = q.numerator, q.denominator
    cells = np.array([v * den // num for v in domain], dtype=np.intp)
    return cells - cells[0]


class JointStack:
    """Joints over the same named variables with their support rows
    stacked, one segment per joint, so that one key groups all of them at
    once. A JointPMF is the stack of one joint.

    variables: ordered (name, alphabet) pairs shared by the joints, each
    alphabet a range of consecutive integers. Joint t uses the first
    sizes[t][v] symbols of the alphabet of variable v, so an index names
    the same symbol in every joint.
    idx, probs: the support rows of joint 0, then those of joint 1, and so
    on, each in its joint's support order; the weights of each joint sum
    to 1. seg[i] is the joint of row i, and is None for a single joint.
    """

    def __init__(self, variables, idx: np.ndarray, probs: np.ndarray, seg, sizes):
        self.variables = tuple(variables)
        self.idx = idx
        self.probs = probs
        self.seg = seg
        self.sizes = np.asarray(sizes, dtype=np.intp)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.variables)

    @property
    def n_points(self) -> int:
        return self.idx.shape[0]

    def var_pos(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown variable {name!r}; have {self.names}") from None

    def alphabet(self, name: str) -> range:
        return self.variables[self.var_pos(name)][1]

    def __len__(self) -> int:
        return self.sizes.shape[0]

    def group_probs(self, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """(weights, bounds): the group weights of every joint over the
        named variables, joint t's in weights[bounds[t]:bounds[t + 1]].

        The joint is the most significant digit of one grouping key. Each
        slice holds, bit for bit and in key order, the nonzero weights of
        group_weights on that joint alone, and may hold zeros for keys that
        no support row takes. Entropy needs only these, so this kernel
        builds no rows.
        """
        cols, radix = _columns(self, names)
        n = len(self)
        if n == 1:
            weights, _ = _group_rows(self.idx, self.probs, cols, radix)
            return weights, np.array([0, weights.size])
        weights, groups = _group_rows(self.idx, self.probs, cols, radix, (self.seg, n))
        bounds = np.arange(n + 1) * math.prod(radix)
        return weights, bounds if groups is None else np.searchsorted(groups, bounds)


class JointPMF(JointStack):
    """Joint distribution over named finite variables, support-point form:
    the JointStack of one joint, with seg None and sizes the alphabet sizes.

    variables: ordered (name, alphabet) pairs, each alphabet a nonempty
    range with step 1; index i of a variable is symbol alphabet[i].
    idx: (n_points, n_vars) alphabet indices, one row per support point.
    probs: (n_points,) strictly positive weights summing to 1 within 1e-12.
    """

    def __init__(self, variables, idx, probs, *, _trusted: bool = False):
        variables = tuple((str(n), a) for n, a in variables)
        idx = np.ascontiguousarray(idx, dtype=np.intp)
        probs = np.ascontiguousarray(probs, dtype=np.float64)
        if not _trusted:
            variables, idx, probs = _validate_pmf(variables, idx, probs)
        idx.flags.writeable = False
        probs.flags.writeable = False
        super().__init__(variables, idx, probs, None, [[len(a) for _, a in variables]])

    def count_signature(self, names: Sequence[str], on: np.ndarray):
        """(a, b, m) of the grouping over the named variables: the distinct
        pairs of a group's support rows where on is False (a) and where it
        is True (b), in ascending (a, b) order, and m, how many groups share
        each pair. When every row where on holds weighs one mass and every
        other row another, a group weighs a·off + b·on, so these pairs give
        every entropy over names at any such two masses.

        Counted by bincounts over the grouping key and over the ranks of
        the a and b values, without sorting.
        """
        cols, radix = _columns(self, names)
        key = _ravel_rows(self.idx, cols, radix)
        on_key = key[on]
        a = np.bincount(key)  # rows per key, less those where on holds below
        del key  # free the row keys before the second count over the key range
        b = np.bincount(on_key, minlength=a.size)
        held = a > 0
        a -= b
        a = a[held]
        b = b[held]
        # one int key per pair: the rank of its a times the number of
        # distinct b values, plus the rank of its b
        seen = [np.bincount(v) > 0 for v in (a, b)]
        rank = [np.cumsum(s) - 1 for s in seen]
        values = [np.flatnonzero(s) for s in seen]
        n_b = values[1].size
        pair = rank[0][a]
        pair *= n_b
        pair += rank[1][b]
        m = np.bincount(pair)
        pairs = np.flatnonzero(m)
        return values[0][pairs // n_b], values[1][pairs % n_b], m[pairs]

    def __repr__(self) -> str:
        vs = ", ".join(f"{n}[{len(a)}]" for n, a in self.variables)
        return f"JointPMF({vs}; {self.n_points} support points)"


def _validate_pmf(variables, idx, probs):
    names = [n for n, _ in variables]
    if len(set(names)) != len(names):
        raise InputError(f"duplicate variable names in {names}")
    if idx.ndim != 2 or idx.shape[1] != len(variables):
        raise InputError("index matrix must be (n_points, n_vars)")
    if probs.shape != (idx.shape[0],):
        raise InputError("probability vector length must match support size")
    if not np.all(np.isfinite(probs)) or np.any(probs < 0):
        raise InputError("probabilities must be finite and nonnegative")
    for c, (name, alph) in enumerate(variables):
        _require_alphabet(name, alph)
        col = idx[:, c]
        if col.size and (col.min() < 0 or col.max() >= len(alph)):
            raise InputError(f"index out of range for variable {name!r}")
    keep = probs > 0
    idx, probs = idx[keep], probs[keep]
    if idx.shape[0] == 0:
        raise InputError("distribution has empty support")
    require_unit_sums(probs.sum())
    # rows in lexicographic order, column 0 first (lexsort needs a column)
    order = np.lexsort(idx.T[::-1]) if idx.shape[1] else np.arange(idx.shape[0])
    idx, probs = idx[order], probs[order]
    if np.any(np.all(idx[1:] == idx[:-1], axis=1)):
        raise InputError("duplicate support points")
    return tuple(variables), idx, probs


def _ravel_rows(idx: np.ndarray, cols: Sequence[int], sizes: Sequence[int],
                lead=None):
    """Mixed-radix int64 key of each row over the given columns. lead,
    when given, is (digits, radix): one more digit per row, placed above
    all the others. Raises InputError if the radix product passes 2**62."""
    columns = [idx[:, c] for c in cols]
    if lead is not None:
        columns.insert(0, lead[0])
        sizes = [lead[1], *sizes]
    if math.prod(sizes) > 2**62:
        raise InputError(f"alphabet sizes {list(sizes)} multiply past 2**62; "
                         "no integer key groups them")
    key = np.zeros(idx.shape[0], dtype=np.int64)
    for column, s in zip(columns, sizes):
        key *= s
        key += column
    return key


def _columns(joint: JointStack, names: Iterable[str]) -> tuple[list[int], list[int]]:
    """(columns, radix) of the named variables: their positions in joint
    and their alphabet sizes."""
    names = list(names)
    if len(set(names)) != len(names):
        raise InputError(f"repeated variable names in {names}")
    if not names:
        raise InputError("need at least one variable to group by")
    cols = [joint.var_pos(n) for n in names]
    return cols, [len(joint.variables[c][1]) for c in cols]


# group with one np.bincount over the whole key range, instead of sorting
# the keys, while that range is at most this many times the support size
_DENSE_SPAN = 8


def _group_rows(idx: np.ndarray, probs: np.ndarray, cols: Sequence[int],
                sizes: Sequence[int], lead=None):
    """(weights, groups) of the grouping of weighted rows over the given
    columns, with lead as in _ravel_rows.

    Dense path: groups is None and weights has one bin per mixed-radix key,
    0 where no row falls. Otherwise weights lists the occupied groups only,
    and groups gives their keys. Either way the groups come in key order
    and each weight sums its rows in row order, so both paths give the same
    weights.
    """
    span = math.prod(sizes) * (1 if lead is None else lead[1])
    key = _ravel_rows(idx, cols, sizes, lead)
    if span <= _DENSE_SPAN * idx.shape[0]:
        return np.bincount(key, weights=probs, minlength=span), None
    groups, inverse = np.unique(key, return_inverse=True)
    return np.bincount(inverse, weights=probs, minlength=groups.size), groups


def group_weights(pmf: JointPMF, names: Sequence[str]):
    """Unique sub-rows over the named variables and their total weights.

    Returns (rows, weights) with rows sorted by mixed-radix key. This is the
    grouping kernel behind marginalization.
    """
    cols, radix = _columns(pmf, names)
    weights, groups = _group_rows(pmf.idx, pmf.probs, cols, radix)
    if groups is None:
        groups = np.flatnonzero(weights)
        weights = weights[groups]
    return np.column_stack(np.unravel_index(groups, radix)), weights


def marginalize(pmf: JointPMF, keep: Sequence[str]) -> JointPMF:
    """Sum out every variable not named in keep; result follows keep order."""
    if isinstance(keep, str):
        keep = [keep]
    rows, weights = group_weights(pmf, keep)
    variables = [(n, pmf.alphabet(n)) for n in keep]
    # weights of grouped positive rows stay positive and keys are unique
    return JointPMF(variables, rows, weights, _trusted=True)


def conditional_table(pmf: JointPMF, target: str, given: str | None = None):
    """Dense p(target | given) over the whole alphabet of target.

    Returns (w, P): the mass of each given symbol that the support
    reaches, in ascending order, and its row-normalized conditional.
    With given=None the marginal of target is one row, as summed and not
    renormalized, with weight exactly 1.0.
    """
    cols, radix = _columns(pmf, [target] if given is None else [given, target])
    # one bin per (given, target) cell, each summing its rows in row order
    P = np.bincount(_ravel_rows(pmf.idx, cols, radix), weights=pmf.probs,
                    minlength=math.prod(radix)).reshape(-1, radix[-1])
    if given is None:
        return np.ones(1), P
    w = P.sum(axis=1)
    keep = w > 0.0
    return w[keep], P[keep] / w[keep, None]


def _check_new_name(pmf: JointPMF, new_var: str):
    if new_var in pmf.names:
        raise InputError(f"variable name {new_var!r} already in use")


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


def combined_index(pmf: JointPMF, a: str, b: str, sign: int,
                   alphabet: range) -> np.ndarray:
    """Index in alphabet of a + sign*b (sign is +1 or -1) at every support
    point, or -1 where that value is not in alphabet."""
    offset = pmf.alphabet(a)[0] + sign * pmf.alphabet(b)[0] - alphabet[0]
    col = pmf.idx[:, pmf.var_pos(a)] + sign * pmf.idx[:, pmf.var_pos(b)] + offset
    return np.where((col >= 0) & (col < len(alphabet)), col, -1)


def _adjoin_combined(pmf: JointPMF, a: str, b: str, new_var: str, sign: int,
                     codomain: range) -> JointPMF:
    """codomain is the full cross set, so every index is found."""
    _check_new_name(pmf, new_var)
    idx = np.column_stack([pmf.idx, combined_index(pmf, a, b, sign, codomain)])
    variables = list(pmf.variables) + [(new_var, codomain)]
    return JointPMF(variables, idx, pmf.probs, _trusted=True)


def adjoin_difference(pmf: JointPMF, minuend: str, subtrahend: str,
                      new_var: str) -> JointPMF:
    """Add new_var = minuend - subtrahend; alphabet is the full cross set."""
    codomain = difference_alphabet(pmf.alphabet(minuend), pmf.alphabet(subtrahend))
    return _adjoin_combined(pmf, minuend, subtrahend, new_var, -1, codomain)


def adjoin_sum(pmf: JointPMF, a: str, b: str, new_var: str) -> JointPMF:
    """Add new_var = a + b; alphabet is the full cross set."""
    codomain = sum_alphabet(pmf.alphabet(a), pmf.alphabet(b))
    return _adjoin_combined(pmf, a, b, new_var, +1, codomain)


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


MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> int:
    """One splitmix64 output for the given 64-bit state."""
    z = (state + _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def _as_seed(seed) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InputError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= seed <= MASK64:
        raise InputError("seed must fit in 64 bits")
    return seed


def sample_columns(pmf: JointPMF, n: int, seed) -> tuple[np.ndarray, ...]:
    """Symbol values of n draws, one int64 array per variable in pmf
    order, reproducibly for a fixed seed."""
    if not isinstance(n, int) or n < 0:
        raise InputError(f"sample count must be a nonnegative integer, got {n!r}")
    if n == 0:
        rows = pmf.idx[:0]
    else:
        rng = seed if isinstance(seed, np.random.Generator) \
            else np.random.default_rng(_as_seed(seed))
        rows = pmf.idx[rng.choice(pmf.n_points, size=n, p=pmf.probs / pmf.probs.sum())]
    return tuple(rows[:, c] + np.int64(alphabet[0])
                 for c, (_, alphabet) in enumerate(pmf.variables))


def random_pmf(shape: Sequence[int], *, seed,
               names: Sequence[str] | None = None) -> JointPMF:
    """Flat-Dirichlet joint over a full integer grid of the given shape."""
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
