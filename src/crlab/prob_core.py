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
import operator
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError

__all__ = [
    "JointPMF",
    "JointStack",
    "adjoin_difference",
    "as_exact",
    "conditional_table",
    "difference_alphabet",
    "quantizer_map",
    "require_stochastic",
    "require_unit_sums",
    "sample_symbols",
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


def _as_int(value, what: str) -> int:
    """value as an int, or InputError naming it as what unless it is an
    integer; numpy integers pass, bools do not."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InputError(f"{what} must be an integer, got {type(value).__name__}")


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
    """Joints over the same named variables, grouped at once by one key
    with the joint as its most significant digit. A subclass gives that
    key (_group_key). A JointPMF is the stack of one joint, and the only
    kind that stores support rows.

    variables: ordered (name, alphabet) pairs shared by the joints, each
    alphabet a range of consecutive integers. Joint t uses the first
    sizes[t][v] symbols of the alphabet of variable v, so an index names
    the same symbol in every joint.
    probs: the weights of the rows of joint 0, then those of joint 1, and
    so on; the weights of each joint sum to 1. A stack may also hold rows
    of weight 0: each adds +0.0 to its group, so no group weight changes.
    """

    def __init__(self, variables, probs: np.ndarray, sizes):
        self.variables = tuple(variables)
        self.probs = probs
        self.sizes = np.asarray(sizes, dtype=np.intp)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.variables)

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
        slice holds, bit for bit and in key order, the nonzero group
        weights of that joint alone, and may hold zeros for keys that no
        row of positive weight takes. Entropy needs only these, so this
        kernel builds no rows.
        """
        cols, radix = _columns(self, names)
        n, span = len(self), math.prod(radix)
        weights, groups = _group_rows(self._group_key(cols, radix), self.probs, n * span)
        bounds = np.arange(n + 1) * span
        return weights, bounds if groups is None else np.searchsorted(groups, bounds)

    def _group_key(self, cols: list[int], radix: list[int]) -> np.ndarray:
        """The int64 grouping key of each row: the joint, when the stack
        holds more than one, above the mixed-radix digits of the given
        columns."""
        raise NotImplementedError


class JointPMF(JointStack):
    """Joint distribution over named finite variables, support-point form:
    the JointStack of one joint, with sizes the alphabet sizes.

    variables: ordered (name, alphabet) pairs, each alphabet a nonempty
    range with step 1; index i of a variable is symbol alphabet[i].
    idx: (n_points, n_vars) alphabet indices, one row per support point.
    probs: (n_points,) strictly positive weights summing to 1 within 1e-12.
    """

    def __init__(self, variables, idx, probs, *, _trusted: bool = False):
        if not _trusted:
            variables = tuple(variables)
            _require_pairs(variables)
        variables = tuple((str(n), a) for n, a in variables)
        idx = np.ascontiguousarray(idx, dtype=np.intp)
        probs = np.ascontiguousarray(probs, dtype=np.float64)
        if not _trusted:
            variables, idx, probs = _validate_pmf(variables, idx, probs)
        idx.flags.writeable = False
        probs.flags.writeable = False
        super().__init__(variables, probs, [[len(a) for _, a in variables]])
        self.idx = idx

    @property
    def n_points(self) -> int:
        return self.idx.shape[0]

    def _group_key(self, cols: list[int], radix: list[int]) -> np.ndarray:
        return _ravel_rows(self.idx, cols, radix)

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
        key = self._group_key(*_columns(self, names))
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


def _require_pairs(variables):
    """Raise InputError unless every variable is a (name, alphabet) pair."""
    for i, v in enumerate(variables):
        if not isinstance(v, (tuple, list)) or len(v) != 2:
            raise InputError(f"variable {i} must be a (name, alphabet) pair, got {v!r}")


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


def _ravel_rows(idx: np.ndarray, cols: Sequence[int], sizes: Sequence[int]):
    """Mixed-radix int64 key of each row over the given columns. Raises
    InputError if the radix product passes 2**62."""
    if math.prod(sizes) > 2**62:
        raise InputError(f"alphabet sizes {list(sizes)} multiply past 2**62; "
                         "no integer key groups them")
    key = np.zeros(idx.shape[0], dtype=np.int64)
    for c, s in zip(cols, sizes):
        key *= s
        key += idx[:, c]
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


def _group_rows(key: np.ndarray, probs: np.ndarray, span: int):
    """(weights, groups) of the grouping of weighted rows by their int64
    key, each in 0..span-1.

    Dense path: groups is None and weights has one bin per key value, 0
    where no row falls. Otherwise weights lists the occupied groups only,
    and groups gives their keys. Either way the groups come in key order
    and each weight sums its rows in row order, so both paths give the same
    weights.
    """
    if span <= _DENSE_SPAN * key.size:
        return np.bincount(key, weights=probs, minlength=span), None
    groups, inverse = np.unique(key, return_inverse=True)
    return np.bincount(inverse, weights=probs, minlength=groups.size), groups


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


def _difference_index(pmf: JointPMF, a: str, b: str, alphabet: range) -> np.ndarray:
    """Index in alphabet of a - b at every support point; a value outside
    alphabet gets an index outside 0..len(alphabet)-1."""
    offset = pmf.alphabet(a)[0] - pmf.alphabet(b)[0] - alphabet[0]
    return pmf.idx[:, pmf.var_pos(a)] - pmf.idx[:, pmf.var_pos(b)] + offset


def adjoin_difference(pmf: JointPMF, minuend: str, subtrahend: str,
                      new_var: str) -> JointPMF:
    """Add new_var = minuend - subtrahend; alphabet is the full cross set,
    so every index is found."""
    codomain = difference_alphabet(pmf.alphabet(minuend), pmf.alphabet(subtrahend))
    _check_new_name(pmf, new_var)
    idx = np.column_stack([pmf.idx, _difference_index(pmf, minuend, subtrahend, codomain)])
    variables = list(pmf.variables) + [(new_var, codomain)]
    return JointPMF(variables, idx, pmf.probs, _trusted=True)


MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> int:
    """One splitmix64 output for the given 64-bit state."""
    z = (state + _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def _as_seed(seed) -> int:
    seed = _as_int(seed, "seed")
    if not 0 <= seed <= MASK64:
        raise InputError("seed must fit in 64 bits")
    return seed


def sample_symbols(pmf: JointPMF, names: Sequence[str], n: int,
                   seed: int) -> tuple[np.ndarray, ...]:
    """Symbol values of the named variables in n draws of support rows,
    one int64 array per name, reproducibly for a fixed seed. The rows
    drawn depend on n and seed only, not on which names are gathered."""
    n = _as_int(n, "sample count")
    if n < 0:
        raise InputError(f"sample count must be a nonnegative integer, got {n!r}")
    cols = [pmf.var_pos(name) for name in names]
    rng = np.random.default_rng(_as_seed(seed))
    rows = rng.choice(pmf.n_points, size=n, p=pmf.probs / pmf.probs.sum())
    return tuple(pmf.idx[rows, c] + np.int64(pmf.variables[c][1][0]) for c in cols)
