"""Lossless codecs for the three coding paradigms over (x, x_p) sequences.

The paradigms are the rows of pixel_model.PARADIGMS that carry a header
byte; each row names the coded variable, its context and its byte.

Models are static frequency tables derived from the exact pixel-model
PMF, quantized to a fixed total T = 2^16 so that encoder and decoder
agree bit-exactly without adaptation.

Bitstream layout (big-endian), fixed so independent implementations
interoperate:

    offset  size  field
    0       4     magic "CRLB"
    4       1     format version (1)
    5       1     paradigm byte (0, 1, 2)
    6       2     alphabet size M
    8       8     symbol count n
    16      -     payload: range-coded bytes (absent when n = 0)

The payload is one call of range_encode, a 32-bit range coder with
byte-wise renormalization: it starts with a 0x00 byte, writes the top
byte of its 32-bit low at each renormalization and the four bytes of
low at the end. A carry out of low adds into the bytes already written,
turning their trailing run of 0xFF bytes into 0x00s. Each symbol narrows
the range by (start, size) out of T, taken from the model's cumulative
table; the function takes the whole arrays of them. range_decode mirrors
the arithmetic exactly in one call per stream, consuming 5 priming
bytes and then one byte per encoder renormalization, so an intact
stream is consumed in full; a truncated stream, or one with bytes left
after its last symbol, raises IntegrityError. No symbols code to an
empty payload.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    FormatError,
    InputError,
    IntegrityError,
    ModelCoverageError,
)
from .pixel_model import PARADIGMS, PixelModelParams, build_joint, codec_paradigm
from .prob_core import (
    JointPMF,
    _as_int,
    conditional_table,
    quantizer_map,
    sample_symbols,
)

__all__ = [
    "Bitstream",
    "MAGIC",
    "MAX_M",
    "ProbabilityModel",
    "TOTAL",
    "VERSION",
    "build_model",
    "decode",
    "encode",
    "expected_rate",
    "measure_rate",
    "quantize_freq",
    "range_decode",
    "range_encode",
    "require_encodable",
    "sample_pairs",
]

MAGIC = b"CRLB"
VERSION = 1
TOTAL = 1 << 16
# largest alphabet the 16-bit header field can carry
MAX_M = 0xFFFF

_BY_BYTE = {row.byte: row for row in PARADIGMS if row.byte is not None}

_TOP = 1 << 24
_MASK32 = 0xFFFFFFFF
_HEADER = struct.Struct(">4sBBHQ")


def range_encode(starts, sizes) -> bytes:
    """The payload that narrows by the cumulative span [start, start+size)
    of each symbol in turn, out of TOTAL; empty for no symbols."""
    if not len(starts):
        return b""
    low, rng = 0, _MASK32
    # the leading 0x00 absorbs the carry into the first written byte
    out = bytearray(1)
    for start, size in zip(starts, sizes):
        r = rng // TOTAL
        low += start * r
        rng = size * r
        if low > _MASK32:
            # carry into the bytes already written: a trailing run
            # of 0xFF turns to 0x00 and the byte before it steps up
            low &= _MASK32
            i = len(out) - 1
            while out[i] == 0xFF:
                out[i] = 0
                i -= 1
            out[i] += 1
        while rng < _TOP:
            rng <<= 8
            out.append(low >> 24)
            low = (low << 8) & _MASK32
    return bytes(out + low.to_bytes(4, "big"))


def range_decode(payload: bytes, cum_rows, contexts) -> list[int]:
    """Symbol index of each position, read with the cumulative counts
    cum_rows[c] of its context c (ascending from 0 to TOTAL).

    The symbols must consume the payload exactly: a truncated payload,
    or bytes left after the last symbol, is an IntegrityError.
    """
    if not len(contexts):
        if payload:
            raise IntegrityError(f"empty stream carries {len(payload)} payload bytes")
        return []
    data = iter(payload)
    nxt = data.__next__
    rng, code = _MASK32, 0
    out = []
    append = out.append
    try:
        for _ in range(5):
            code = ((code << 8) | nxt()) & _MASK32
        for ci in contexts:
            cum = cum_rows[ci]
            r = rng // TOTAL
            v = code // r
            si = bisect_right(cum, v if v < TOTAL else TOTAL - 1) - 1
            lo = cum[si]
            code -= lo * r
            rng = (cum[si + 1] - lo) * r
            while rng < _TOP:
                rng <<= 8
                code = ((code << 8) | nxt()) & _MASK32
            append(si)
    except StopIteration:
        raise IntegrityError("bitstream truncated mid-symbol") from None
    left = sum(1 for _ in data)
    if left:
        raise IntegrityError(f"{left} byte(s) left after the last symbol")
    return out


def quantize_freq(p: np.ndarray) -> np.ndarray:
    """Round a PMF, or each row of a stack of them, to integer counts
    summing exactly to TOTAL.

    Floor then largest-remainder (ties to the lower index), then raise
    every positive-probability symbol to count >= 1, paying one unit at
    a time from the largest count (ties to the lower index). Zero-
    probability symbols keep count 0.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim not in (1, 2) or p.size == 0:
        raise InputError("pmf must be a nonempty vector or a stack of them")
    rows = p.reshape(-1, p.shape[-1])
    if np.any(rows < 0) or not np.isfinite(rows).all():
        raise InputError("pmf entries must be finite and nonnegative")
    support = rows > 0.0
    n_sup = support.sum(axis=1)
    if np.any(n_sup == 0):
        raise InputError("pmf has empty support")
    if np.any(n_sup > TOTAL):
        raise InputError(
            f"support size {n_sup[n_sup > TOTAL][0]} exceeds frequency total {TOTAL}")
    scaled = rows * TOTAL
    f = np.floor(scaled).astype(np.int64)
    rem = TOTAL - f.sum(axis=1)
    # the largest remainders take the leftover units, ties to the lower index
    order = np.argsort(f - scaled, axis=1, kind="stable")
    f[np.arange(len(f))[:, None], order] += np.arange(f.shape[1]) < rem[:, None]
    f = _take_from_largest(f, np.maximum(-rem, 0))
    need = support & (f == 0)
    f = _take_from_largest(f, need.sum(axis=1))
    f[need] = 1
    bad = (f.max(axis=1) < 1) | (f.sum(axis=1) != TOTAL) | (support & (f < 1)).any(axis=1)
    if bad.any():
        raise InputError(
            f"cannot allocate {TOTAL} counts over {n_sup[bad][0]} support symbols"
        )
    return f.reshape(p.shape)


def _take_from_largest(f: np.ndarray, k: np.ndarray) -> np.ndarray:
    """f with k[i] units taken from row i one at a time, each from the
    largest count, the lowest index among equals. That brings every
    count above some level down to it, and the units left over come off
    the lowest-indexed counts at the level."""
    if not k.any():
        return f
    top = -np.sort(-f, axis=1)
    cum = np.cumsum(top, axis=1)
    t = np.arange(1, f.shape[1] + 1)
    # capping the t largest counts at the next one frees cum - t*next
    # units; the first t that frees more than k holds the level
    frees = cum[:, :-1] - t[:-1] * top[:, 1:] > k[:, None]
    first = np.concatenate([frees, np.ones((len(f), 1), dtype=bool)], axis=1).argmax(axis=1)
    level = -((k - cum[np.arange(len(f)), first]) // t[first])
    out = np.minimum(f, level[:, None])
    at = f >= level[:, None]
    out -= at & (np.cumsum(at, axis=1) <= (k - (f - out).sum(axis=1))[:, None])
    return out


@dataclass(frozen=True)
class ProbabilityModel:
    """Static per-context frequency tables for one paradigm.

    paradigm is a codec name or label of pixel_model.PARADIGMS and is
    stored as the name; it, M and Q fix the shape of freq. Its columns
    are the values first..M-1 of the coded variable, where first is 1-M
    for a residual and 0 for x. Its rows are the contexts: the cells
    0..K-1 of the step-Q quantizer on x_p 0..M-1, or one row for a
    contextless paradigm. freq rows sum exactly to TOTAL and every symbol
    that the exact model can emit has count >= 1.
    """

    paradigm: str
    M: int
    Q: Fraction
    freq: np.ndarray

    def __post_init__(self):
        row = codec_paradigm(self.paradigm)
        require_encodable(self.M)
        object.__setattr__(self, "paradigm", row.name)
        object.__setattr__(self, "_row", row)
        object.__setattr__(self, "first", 1 - self.M if row.coded == "r" else 0)
        if row.context is None:
            ctx_of = np.zeros(self.M, dtype=np.int64)
        else:
            ctx_of = quantizer_map(range(self.M), self.Q)
        object.__setattr__(self, "_ctx_of_xp", ctx_of)
        freq = np.ascontiguousarray(self.freq, dtype=np.int64)
        shape = (int(ctx_of[-1]) + 1, self.M - self.first)
        if freq.shape != shape:
            raise InputError(
                f"freq shape {freq.shape} is not the {shape[0]} contexts x "
                f"{shape[1]} symbols of {row.name} at M={self.M}, Q={self.Q}"
            )
        if np.any(freq < 0):
            raise InputError("negative frequency count")
        sums = freq.sum(axis=1)
        if np.any(sums != TOTAL):
            raise InputError(f"context rows must sum to {TOTAL}, got {sums}")
        freq.flags.writeable = False
        object.__setattr__(self, "freq", freq)
        cum = np.zeros((freq.shape[0], freq.shape[1] + 1), dtype=np.int64)
        np.cumsum(freq, axis=1, out=cum[:, 1:])
        object.__setattr__(self, "_cum", cum)
        # the decoder bisects plain lists, which beat ndarray scalar indexing
        object.__setattr__(self, "_cum_rows", cum.tolist())


@dataclass(frozen=True)
class Bitstream:
    paradigm: int
    M: int
    n: int
    payload: bytes

    def __post_init__(self):
        if _as_int(self.paradigm, "paradigm byte") not in _BY_BYTE:
            raise InputError(f"unknown paradigm byte {self.paradigm!r}")
        require_encodable(self.M)
        if _as_int(self.n, "symbol count") < 0:
            raise InputError(f"negative symbol count {self.n}")

    def to_bytes(self) -> bytes:
        return _HEADER.pack(MAGIC, VERSION, self.paradigm, self.M, self.n) \
            + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bitstream":
        """Parse a stream; any bad header field is a FormatError."""
        if len(data) < _HEADER.size:
            raise FormatError(
                f"stream too short for header: {len(data)} < {_HEADER.size}"
            )
        magic, version, paradigm, m, n = _HEADER.unpack_from(data)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}")
        if version != VERSION:
            raise FormatError(f"unsupported format version {version}")
        try:
            return cls(paradigm, m, n, bytes(data[_HEADER.size:]))
        except InputError as e:
            raise FormatError(f"bad header field: {e}") from None


def require_encodable(M: int) -> None:
    """InputError unless the 16-bit header field can carry alphabet size M."""
    if not 2 <= _as_int(M, "alphabet size") <= MAX_M:
        raise InputError(f"alphabet size {M} not encodable in 16 bits")


def build_model(params: PixelModelParams, paradigm: str,
                pmf: JointPMF | None = None) -> ProbabilityModel:
    """Static tables for one paradigm from the exact pixel-model PMF.

    pmf, when given, must be build_joint(params); it is used instead of
    building it again; perfbench's codec check passes params alone.
    """
    row = codec_paradigm(paradigm)
    require_encodable(params.M)
    joint = pmf if pmf is not None else build_joint(params)
    _, p = conditional_table(joint, row.coded, row.context)
    return ProbabilityModel(row.name, params.M, params.Q, quantize_freq(p))


def expected_rate(model: ProbabilityModel, joint: JointPMF) -> float:
    """Model cross-entropy in bits/symbol: what the coder pays on average.

    Exceeds the matching conditional entropy only by the frequency
    quantization loss (zero when the exact PMF hits the count grid).
    """
    row = model._row
    w, p = conditional_table(joint, row.coded, row.context)
    if p.shape != model.freq.shape:
        raise InputError("model tables do not match this joint")
    mask = p > 0.0
    if np.any(model.freq[mask] == 0):
        raise ModelCoverageError("model assigns zero count inside the support")
    bits = np.where(
        mask, -p * np.log2(np.where(mask, model.freq, 1) / TOTAL), 0.0
    )
    return float(w @ bits.sum(axis=1))


def _symbols(values, M: int, pairs: bool) -> np.ndarray:
    """values as int64, shape (n, 2) for (x, x_p) pairs or (n,) for
    predictions, every entry in 0..M-1; anything else is an InputError."""
    shape = (-1, 2) if pairs else (-1,)
    if isinstance(values, np.ndarray):
        a = values
    else:
        try:
            a = np.asarray(list(values))
        except (TypeError, ValueError):  # not iterable, or ragged
            a = None
    if a is not None and a.shape == (0,):
        a = a.reshape(shape).astype(np.int64)
    if (a is None or a.dtype.kind not in "iu" or a.ndim != len(shape)
            or a.shape[1:] != shape[1:]):
        raise InputError("symbols must be a sequence of "
                         + ("(x, x_p) integer pairs" if pairs else "integers"))
    out = (a < 0) | (a >= M)
    if out.any():
        raise InputError(f"symbol {a[out][0]} outside alphabet 0..{M - 1}")
    return a.astype(np.int64, copy=False)


def encode(seq, paradigm: str, model: ProbabilityModel) -> Bitstream:
    """Encode (x, x_p) pairs; the quantized context is recomputed here."""
    if codec_paradigm(paradigm) is not model._row:
        raise InputError(
            f"model is for {model.paradigm!r}, requested {paradigm!r}"
        )
    pairs = _symbols(seq, model.M, pairs=True)
    x, xp = pairs[:, 0], pairs[:, 1]
    sym = x - xp if model._row.coded == "r" else x
    si = sym - model.first
    ci = model._ctx_of_xp[xp]
    starts = model._cum[ci, si]
    sizes = model.freq[ci, si]
    # the first zero count decides the error, as a symbol-by-symbol
    # coder would meet it
    bad = sizes == 0
    if bad.any():
        i = int(np.argmax(bad))
        where = "" if model._row.context is None else \
            f" in context cell {int(ci[i])} (Q={model.Q})"
        raise ModelCoverageError(f"symbol {int(sym[i])!r} has zero count{where}")
    return Bitstream(model._row.byte, model.M, len(pairs),
                     range_encode(starts.tolist(), sizes.tolist()))


def decode(bs: Bitstream, x_p_seq, model: ProbabilityModel, *,
           as_array: bool = False) -> list[int] | np.ndarray:
    """Recover the x sequence from a stream plus the shared predictions,
    as a list, or as an int64 array when as_array is set."""
    if bs.paradigm != model._row.byte:
        raise FormatError(
            f"stream paradigm {_BY_BYTE[bs.paradigm].name!r} does not match "
            f"model {model.paradigm!r}"
        )
    if bs.M != model.M:
        raise FormatError(f"stream M={bs.M} does not match model M={model.M}")
    preds = _symbols(x_p_seq, model.M, pairs=False)
    if len(preds) != bs.n:
        raise FormatError(
            f"stream carries {bs.n} symbols but {len(preds)} predictions given"
        )
    si = range_decode(bs.payload, model._cum_rows, model._ctx_of_xp[preds].tolist())
    x = np.array(si, dtype=np.int64) + model.first
    x = x + preds if model._row.coded == "r" else x
    return x if as_array else x.tolist()


def measure_rate(bs: Bitstream) -> float:
    """Payload bits per symbol of the stream."""
    if bs.n == 0:
        raise InputError("a stream of 0 symbols has no rate per symbol")
    return 8.0 * len(bs.payload) / bs.n


def sample_pairs(params: PixelModelParams, n: int, seed) -> list[tuple[int, int]]:
    """n iid draws of the pixel joint's rows, which are its distinct
    (x, x_p) pairs, as pairs of Python ints, reproducibly by seed; it
    takes params, not a joint, for perfbench's codec check."""
    x, xp = sample_symbols(build_joint(params), ("x", "xp"), n, seed)
    return list(zip(x.tolist(), xp.tolist()))
