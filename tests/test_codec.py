"""Range coder and static models: exact round trips or loud failures."""

import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crlab import codec
from crlab.codec import (
    TOTAL,
    Bitstream,
    build_model,
    decode,
    encode,
    expected_rate,
    measure_rate,
    quantize_freq,
    range_decode,
    range_encode,
    sample_pairs,
)
from crlab.errors import (
    FormatError,
    InputError,
    IntegrityError,
    ModelCoverageError,
)
from crlab.pixel_model import (
    PARADIGMS,
    PixelModelParams,
    build_joint,
    codec_paradigm,
    entropy_report,
)
from crlab.prob_core import JointPMF, conditional_table, sample_symbols

CODEC_NAMES = sorted(row.name for row in PARADIGMS if row.byte is not None)


def small_params(p=0.5, Q=2, M=16):
    return PixelModelParams(p=p, Q=Q, M=M)


def reference_quantize(p):
    """The one-row quantizer the array version replaced, kept as the
    oracle: floor, largest remainders (ties to the lower index), then
    one unit at a time from the largest count (ties to the lower index)
    while it exceeds TOTAL, and again for each support symbol raised
    from 0 to 1. Returns the counts, or None where it raises."""
    support = p > 0.0
    f = np.floor(p * TOTAL).astype(np.int64)
    rem = int(TOTAL - f.sum())
    if rem < 0:
        for _ in range(-rem):
            f[int(np.argmax(f))] -= 1
    elif rem > 0:
        frac = p * TOTAL - f
        order = np.lexsort((np.arange(p.size), -frac))
        f[order[:rem]] += 1
    need = support & (f == 0)
    for _ in range(int(need.sum())):
        f[int(np.argmax(f))] -= 1
    f[need] = 1
    if f[np.argmax(f)] < 1 or int(f.sum()) != TOTAL or np.any(f[support] < 1):
        return None
    return f


@st.composite
def pmf_stacks(draw):
    """Rows of small integer weights, so remainders tie, with masses
    below 1/TOTAL that must be raised to one count, and some rows scaled
    past 1 so that their floors overshoot TOTAL."""
    k = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        w = np.array(draw(st.lists(st.integers(0, 6), min_size=k, max_size=k)), dtype=float)
        w[draw(st.integers(0, k - 1))] += 1.0
        p = w / w.sum()
        tiny = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
        p[tiny & (p == 0.0)] = draw(st.sampled_from([1e-9, 0.4 / TOTAL]))
        rows.append(p * draw(st.sampled_from([1.0, 1.0 + 3 / TOTAL, 1.0 + 2 ** -40])))
    return np.array(rows)


class TestQuantizeFreq:
    def test_sums_to_total_and_keeps_support(self):
        p = np.array([0.5, 0.25, 0.125, 0.125])
        f = quantize_freq(p)
        assert f.sum() == TOTAL
        assert f.tolist() == [TOTAL // 2, TOTAL // 4, TOTAL // 8, TOTAL // 8]

    def test_tiny_mass_gets_at_least_one(self):
        p = np.array([1.0 - 1e-9, 1e-9])
        f = quantize_freq(p)
        assert f.sum() == TOTAL
        assert f[1] >= 1

    def test_zero_mass_stays_zero(self):
        p = np.array([1.0, 0.0])
        f = quantize_freq(p)
        assert f.tolist() == [TOTAL, 0]

    @given(st.integers(min_value=0, max_value=2 ** 32), st.integers(2, 40))
    @settings(max_examples=60, deadline=None)
    def test_random_distributions(self, seed, n):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.full(n, 0.3))
        f = quantize_freq(p)
        assert f.sum() == TOTAL
        assert np.all(f[p > 0] >= 1)
        assert np.all(f[p == 0] == 0)

    @given(pmf_stacks())
    @settings(max_examples=200, deadline=None)
    def test_stack_matches_one_row_at_a_time(self, p):
        want = [reference_quantize(row) for row in p]
        if any(f is None for f in want):
            with pytest.raises(InputError):
                quantize_freq(p)
            return
        assert np.array_equal(quantize_freq(p), np.array(want))
        for row, f in zip(p, want):
            assert np.array_equal(quantize_freq(row), f)

    @pytest.mark.parametrize("p", [
        [1 / 3] * 3,                                 # tied remainders
        [1.0 - 3e-9, 1e-9, 1e-9, 1e-9],              # three raised to one count
        [0.5 + 3 / TOTAL, 0.5 + 2 / TOTAL],          # floors overshoot TOTAL
        [0.25 + 1 / TOTAL] * 4 + [1e-9],             # overshoot, tie and raise
    ])
    def test_each_path_matches_one_row_at_a_time(self, p):
        p = np.array(p)
        assert np.array_equal(quantize_freq(p), reference_quantize(p))
        assert np.array_equal(quantize_freq(np.stack([p, p[::-1]])),
                              np.stack([reference_quantize(p), reference_quantize(p[::-1])]))

    def test_largest_remainder_tie_prefers_lower_index(self):
        # three equal remainders competing for one leftover unit
        p = np.array([1 / 3] * 3)
        f = quantize_freq(p)
        assert f.tolist() == [21846, 21845, 21845]


class ReferenceEncoder:
    """The symbol-at-a-time range encoder the array coder replaced, kept
    as the oracle: a 33-bit low, a cached byte and a count of pending
    0xFF bytes that a carry turns to 0x00."""

    def __init__(self):
        self._low = 0
        self._range = 0xFFFFFFFF
        self._cache = 0
        self._cache_size = 1
        self._out = bytearray()
        self.longest_carry = 0  # most bytes one carry has rewritten

    def encode(self, start, size, total):
        r = self._range // total
        self._low += start * r
        self._range = size * r
        while self._range < 1 << 24:
            self._range = (self._range << 8) & 0xFFFFFFFF
            self._shift_low()

    def _shift_low(self):
        low = self._low
        if (low & 0xFFFFFFFF) < 0xFF000000 or low > 0xFFFFFFFF:
            carry = low >> 32
            if carry:
                self.longest_carry = max(self.longest_carry, self._cache_size)
            out = self._out
            out.append((self._cache + carry) & 0xFF)
            filler = (0xFF + carry) & 0xFF
            for _ in range(self._cache_size - 1):
                out.append(filler)
            self._cache = (low >> 24) & 0xFF
            self._cache_size = 0
        self._cache_size += 1
        self._low = (low << 8) & 0xFFFFFFFF

    def finish(self):
        for _ in range(5):
            self._shift_low()
        return bytes(self._out)


class ReferenceDecoder:
    """The symbol-at-a-time mirror of ReferenceEncoder."""

    def __init__(self, data):
        self._data = data
        self._pos = 0
        self._range = 0xFFFFFFFF
        self._code = 0
        self._r = 1
        for _ in range(5):
            self._code = ((self._code << 8) | self._next_byte()) & 0xFFFFFFFF

    def _next_byte(self):
        if self._pos >= len(self._data):
            raise IntegrityError("bitstream truncated mid-symbol")
        self._pos += 1
        return self._data[self._pos - 1]

    def decode(self, cum, total):
        self._r = self._range // total
        v = min(self._code // self._r, total - 1)
        s = bisect_right(cum, v) - 1
        self._code -= cum[s] * self._r
        self._range = (cum[s + 1] - cum[s]) * self._r
        while self._range < 1 << 24:
            self._range = (self._range << 8) & 0xFFFFFFFF
            self._code = ((self._code << 8) | self._next_byte()) & 0xFFFFFFFF
        return s


def reference_decode(payload, cum, ctx):
    """The symbols of a whole payload, which they must consume exactly."""
    ref = ReferenceDecoder(payload)
    out = [ref.decode(cum[c].tolist(), TOTAL) for c in ctx]
    left = len(payload) - ref._pos
    if left:
        raise IntegrityError(f"{left} byte(s) left after the last symbol")
    return out


def outcome(decode, *args):
    """What a decode call returns, or the IntegrityError it raises."""
    try:
        return decode(*args)
    except IntegrityError as e:
        return str(e)


def reference_payload(starts, sizes):
    enc = ReferenceEncoder()
    for start, size in zip(starts, sizes):
        enc.encode(int(start), int(size), TOTAL)
    return enc.finish(), enc.longest_carry


def random_tables(rng, contexts, k):
    """contexts rows of k counts summing to TOTAL, some of them zero,
    with cumulative rows of k + 1 entries."""
    p = rng.dirichlet(np.full(k, 0.3), size=contexts)
    p[rng.random(p.shape) < 0.2] = 0.0
    p[np.arange(contexts), rng.integers(0, k, contexts)] += 0.1
    freq = np.stack([quantize_freq(row / row.sum()) for row in p])
    cum = np.zeros((contexts, k + 1), dtype=np.int64)
    np.cumsum(freq, axis=1, out=cum[:, 1:])
    return freq, cum


def draw_symbols(rng, cum, ctx):
    """One symbol index per position, drawn from its context's counts."""
    u = rng.integers(0, TOTAL, ctx.size)
    return (cum[ctx, 1:] <= u[:, None]).sum(axis=1)


def straddling_symbols(cum, ctx):
    """One symbol index per position whose span holds the midpoint of
    the coder's first range: the range then straddles a byte boundary
    for the whole run, and every byte the encoder shifts out stays
    pending as 0xFF until the next symbol above the midpoint carries."""
    low, rng, scale = 0, 0xFFFFFFFF, 1 << 32
    out = []
    for c in ctx:
        row = cum[c].tolist()
        r = rng // TOTAL
        # past the sliver the counts leave unused, the top symbol
        s = bisect_right(row, min(((scale >> 1) - low) // r, TOTAL - 1)) - 1
        low += row[s] * r
        rng = (row[s + 1] - row[s]) * r
        while rng < 1 << 24:
            rng, low, scale = rng << 8, low << 8, scale << 8
        out.append(s)
    return np.array(out, dtype=np.int64)


class TestRangeCoderPrimitive:
    @given(st.integers(min_value=0, max_value=2 ** 32),
           st.integers(min_value=1, max_value=2000))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_random_streams(self, seed, n):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 17))
        freq = quantize_freq(rng.dirichlet(np.full(k, 0.5)))
        support = np.flatnonzero(freq)
        cum = np.concatenate([[0], np.cumsum(freq)])
        syms = rng.choice(support, size=n, p=freq[support] / TOTAL)

        payload = range_encode(cum[syms].tolist(), freq[syms].tolist())
        out = range_decode(payload, [cum.tolist()], [0] * n)
        assert out == syms.tolist()

    def test_truncated_payload_detected(self):
        payload = range_encode([0] * 100, [TOTAL // 2] * 100)
        # priming alone needs 5 bytes
        with pytest.raises(IntegrityError, match="truncated"):
            range_decode(payload[:3], [[0, TOTAL // 2, TOTAL]], [0] * 100)

    @given(st.integers(min_value=0, max_value=2 ** 32),
           st.integers(min_value=1, max_value=2000),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=2, max_value=40),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_array_coder_matches_reference(self, seed, n, contexts, k, carry_runs):
        rng = np.random.default_rng(seed)
        freq, cum = random_tables(rng, contexts, k)
        ctx = rng.integers(0, contexts, n)
        si = draw_symbols(rng, cum, ctx)
        if carry_runs:
            si[:-5] = straddling_symbols(cum, ctx[:-5])
        starts, sizes = cum[ctx, si], freq[ctx, si]

        payload = range_encode(starts.tolist(), sizes.tolist())
        assert payload == reference_payload(starts, sizes)[0]
        assert range_decode(payload, cum.tolist(), ctx.tolist()) == si.tolist()

        # on a flipped bit both decoders read the same wrong symbols, or
        # both run out of bytes, or both leave the same bytes unread
        flipped = bytearray(payload)
        flipped[int(rng.integers(len(flipped)))] ^= 1 << int(rng.integers(8))
        assert outcome(reference_decode, bytes(flipped), cum, ctx) == outcome(
            range_decode, bytes(flipped), cum.tolist(), ctx.tolist())

        for clipped in (payload[:-1], payload[: len(payload) // 2]):
            with pytest.raises(IntegrityError, match="truncated"):
                range_decode(clipped, cum.tolist(), ctx.tolist())
        for extra in (b"\x00", b"\xff" * 3):
            with pytest.raises(IntegrityError, match=f"{len(extra)} byte"):
                range_decode(payload + extra, cum.tolist(), ctx.tolist())

    def test_no_symbols_code_to_empty_payload(self):
        rows = [[0, TOTAL // 2, TOTAL]]
        assert range_encode([], []) == b""
        assert range_decode(b"", rows, []) == []
        with pytest.raises(IntegrityError, match="empty stream carries 1 payload"):
            range_decode(b"\x00", rows, [])

    def test_carry_over_a_long_ff_run(self):
        cum = np.array([[0, 20000, 40000, 50000, TOTAL]])
        ctx = np.zeros(2003, dtype=np.int64)
        si = np.concatenate([straddling_symbols(cum, ctx[:2000]), [3, 3, 3]])
        starts, sizes = cum[ctx, si], np.diff(cum)[ctx, si]
        want, longest = reference_payload(starts, sizes)
        assert longest > 400
        assert range_encode(starts.tolist(), sizes.tolist()) == want
        assert range_decode(want, cum.tolist(), ctx.tolist()) == si.tolist()


def hand_model(rng, paradigm, M, Q):
    """A ProbabilityModel over every value the coded variable can take,
    one row per context, whose rows hold some zero counts."""
    row = codec_paradigm(paradigm)
    values = 2 * M - 1 if row.coded == "r" else M
    cells = 1 if row.context is None else math.floor((M - 1) / Q) + 1
    freq, _ = random_tables(rng, cells, values)
    return codec.ProbabilityModel(paradigm, M, Q, freq)


def reference_encode(pairs, model):
    """The symbol-at-a-time encode loop the array path replaced, with the
    context cell floor(x_p/Q) taken in Fractions: the payload, or the
    zero-count error of the first position it cannot code."""
    row = codec_paradigm(model.paradigm)
    freq = model.freq.tolist()
    cum = [[0, *np.cumsum(r).tolist()] for r in freq]
    enc = ReferenceEncoder()
    for x, xp in pairs:
        sym = x - xp if row.coded == "r" else x
        ci = 0 if row.context is None else math.floor(Fraction(xp) / model.Q)
        # the residual's columns start at 1 - M
        si = sym + model.M - 1 if row.coded == "r" else sym
        if freq[ci][si] == 0:
            where = "" if row.context is None else f" in context cell {ci} (Q={model.Q})"
            raise ModelCoverageError(f"symbol {sym!r} has zero count{where}")
        enc.encode(cum[ci][si], freq[ci][si], TOTAL)
    return enc.finish() if pairs else b""


class TestEncodeMatchesReference:
    @given(st.integers(min_value=0, max_value=2 ** 32),
           st.sampled_from(CODEC_NAMES),
           st.integers(min_value=2, max_value=12),
           st.fractions(min_value=1, max_value=12, max_denominator=5),
           st.integers(min_value=0, max_value=300),
           st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_same_bytes_or_same_first_error(self, seed, paradigm, M, Q, n, codable):
        rng = np.random.default_rng(seed)
        model = hand_model(rng, paradigm, M, Q)
        pairs = [tuple(p) for p in rng.integers(0, M, (n, 2)).tolist()]
        if codable:
            pairs = [p for p in pairs if self.codes(p, model)]
        try:
            want = reference_encode(pairs, model)
        except ModelCoverageError as e:
            with pytest.raises(ModelCoverageError) as got:
                encode(pairs, paradigm, model)
            assert str(got.value) == str(e)
            return
        stream = encode(pairs, paradigm, model)
        assert stream.payload == want
        assert decode(stream, [xp for _, xp in pairs], model) == [x for x, _ in pairs]

    @staticmethod
    def codes(pair, model):
        try:
            reference_encode([pair], model)
        except ModelCoverageError:
            return False
        return True

    def test_earliest_bad_position_decides(self):
        # columns r = -7..7; only r = 0 and r = 1 have counts
        freq = np.zeros((1, 15), dtype=np.int64)
        freq[0, [7, 8]] = TOTAL // 2
        model = codec.ProbabilityModel("residual", 8, Fraction(1), freq)
        # x = 8 is outside 0..7, which the input check rejects before coding
        with pytest.raises(InputError, match="symbol 8 outside alphabet 0..7"):
            encode([(0, 0), (8, 0), (2, 0)], "residual", model)
        with pytest.raises(ModelCoverageError, match="symbol 2 has zero count"):
            encode([(0, 0), (2, 0), (5, 0)], "residual", model)
        with pytest.raises(ModelCoverageError, match="symbol -1 has zero count"):
            encode([(1, 0), (0, 1), (7, 0)], "residual", model)


class TestModel:
    def test_paradigm_table(self):
        assert {row.name: row.byte for row in PARADIGMS if row.byte is not None} \
            == {"residual": 0, "conditional": 1, "conditional-residual": 2}

    def test_bad_paradigm_rejected(self):
        with pytest.raises(InputError):
            build_model(small_params(), "wavelet")

    def test_expected_rate_close_to_entropy(self):
        # 16-bit frequency quantization costs a hair of cross-entropy, and
        # nothing where every count is its probability times TOTAL: then
        # rate and bound are one number, summed in two orders. Every count
        # is exact at the first cell and none of the three models is at
        # the second
        for params, exact in ((small_params(p=0.5, Q=2, M=64), True),
                              (small_params(p=0.3, Q=1.4, M=64), False)):
            joint = build_joint(params)
            rep = entropy_report(params)
            for row in PARADIGMS:
                if row.byte is None:
                    continue
                model = build_model(params, row.name, joint)
                _, P = conditional_table(joint, row.coded, row.context)
                assert np.array_equal(model.freq, P * TOTAL) == exact, row.name
                h, rate = getattr(rep, row.bound), expected_rate(model, joint)
                if exact:
                    assert abs(rate - h) <= 1e-12, row.name
                else:
                    assert h < rate <= h + 1e-3, row.name

    def test_tables_must_match_the_quantizer_cells(self):
        def flat(rows, cols):
            return np.tile(quantize_freq(np.full(cols, 1 / cols)), (rows, 1))

        # a residual at M=16 has one row over r = -15..15
        assert codec.ProbabilityModel("residual", 16, 2, flat(1, 31)).first == -15
        with pytest.raises(InputError, match=r"freq shape \(1, 30\) is not the 1 contexts x 31"):
            codec.ProbabilityModel("residual", 16, 2, flat(1, 30))
        # the step-2 cells of x_p 0..15 are the 8 rows 0..7
        assert codec.ProbabilityModel("conditional", 16, 2, flat(8, 16)).first == 0
        for rows in (7, 9):
            with pytest.raises(InputError, match=r"is not the 8 contexts x 16 symbols"):
                codec.ProbabilityModel("conditional", 16, 2, flat(rows, 16))
        # the shape derives from M, so an M the header cannot carry is refused
        with pytest.raises(InputError, match="16 bits"):
            codec.ProbabilityModel("residual", 0x10000, 1, flat(1, 1))
        # so is an M that is no integer, where it used to fail later with TypeError
        for M in (16.0, 2.5, "16", True):
            with pytest.raises(InputError, match="alphabet size must be an integer"):
                codec.ProbabilityModel("residual", M, 2, flat(1, 31))
            with pytest.raises(InputError, match="alphabet size must be an integer"):
                codec.require_encodable(M)
        codec.require_encodable(np.uint16(16))

    def test_expected_rate_rejects_another_joint(self):
        model = build_model(small_params(Q=2), "conditional")
        with pytest.raises(InputError):
            expected_rate(model, build_joint(small_params(Q=4)))


class TestEndToEnd:
    @pytest.mark.parametrize("p,Q", [(0.0, 2), (0.25, 1), (0.5, 1.4), (1.0, 64)])
    def test_draws_are_those_of_the_pair_marginal(self, p, Q):
        # the joint's rows are its distinct (x, x_p) pairs, in order, so
        # drawing rows of the joint draws the pairs
        joint = build_joint(small_params(p=p, Q=Q, M=16))
        x, xp = sample_symbols(joint, ("x", "xp"), 500, seed=4)
        # the (x, x_p) joint, which JointPMF rejects if a pair repeats
        pair_joint = JointPMF([("x", joint.alphabet("x")), ("xp", joint.alphabet("xp"))],
                              joint.idx[:, :2], joint.probs)
        want = sample_symbols(pair_joint, pair_joint.names, 500, 4)
        assert x.dtype == xp.dtype == np.int64
        assert np.array_equal(x, want[0]) and np.array_equal(xp, want[1])
        assert list(zip(x.tolist(), xp.tolist())) == \
            sample_pairs(small_params(p=p, Q=Q, M=16), 500, 4)

    @pytest.mark.parametrize("paradigm", CODEC_NAMES)
    @pytest.mark.parametrize("p,Q", [(0.25, 1), (0.5, 2), (1.0, 64), (0.0, 2)])
    def test_roundtrip_exact(self, paradigm, p, Q):
        params = small_params(p=p, Q=Q, M=16)
        model = build_model(params, paradigm)
        pairs = sample_pairs(params, 400, seed=11)
        stream = encode(pairs, paradigm, model)
        decoded = decode(stream, [xp for _, xp in pairs], model)
        assert decoded == [x for x, _ in pairs]
        array = decode(stream, [xp for _, xp in pairs], model, as_array=True)
        assert array.dtype == np.int64 and array.tolist() == decoded

    def test_rate_near_entropy(self):
        params = small_params(p=0.5, Q=2, M=16)
        rep = entropy_report(params)
        model = build_model(params, "conditional-residual")
        pairs = sample_pairs(params, 20000, seed=5)
        stream = encode(pairs, "conditional-residual", model)
        rate = measure_rate(stream)
        assert abs(rate - rep.H_R_given_Xphat) < 0.02 * rep.H_R_given_Xphat + 64 / 20000

    def test_empty_sequence(self):
        params = small_params()
        model = build_model(params, "residual")
        stream = encode([], "residual", model)
        assert stream.n == 0 and stream.payload == b""
        assert decode(stream, [], model) == []

    def test_deterministic_bitstream(self):
        params = small_params()
        model = build_model(params, "conditional")
        pairs = sample_pairs(params, 300, seed=2)
        s1 = encode(pairs, "conditional", model)
        s2 = encode(pairs, "conditional", model)
        assert s1.payload == s2.payload


class TestBitstreamFormat:
    def roundtrip_stream(self):
        params = small_params()
        model = build_model(params, "residual")
        pairs = sample_pairs(params, 50, seed=7)
        return encode(pairs, "residual", model), model, pairs

    def test_header_layout(self):
        stream, _, _ = self.roundtrip_stream()
        blob = stream.to_bytes()
        assert blob[:4] == b"CRLB"
        assert blob[4] == 1  # version
        assert blob[5] == codec_paradigm("residual").byte
        parsed = Bitstream.from_bytes(blob)
        assert parsed == stream

    def test_bad_magic_and_version(self):
        stream, _, _ = self.roundtrip_stream()
        blob = bytearray(stream.to_bytes())
        blob[0] = ord("X")
        with pytest.raises(FormatError):
            Bitstream.from_bytes(bytes(blob))
        blob = bytearray(stream.to_bytes())
        blob[4] = 9
        with pytest.raises(FormatError):
            Bitstream.from_bytes(bytes(blob))
        with pytest.raises(FormatError):
            Bitstream.from_bytes(stream.to_bytes()[:10])

    def test_decode_model_mismatch(self):
        stream, _, pairs = self.roundtrip_stream()
        other = build_model(small_params(), "conditional")
        with pytest.raises(FormatError):
            decode(stream, [xp for _, xp in pairs], other)

    def test_decode_side_info_length_mismatch(self):
        stream, model, pairs = self.roundtrip_stream()
        with pytest.raises(FormatError):
            decode(stream, [xp for _, xp in pairs][:-1], model)

    def test_truncated_payload_raises_integrity(self):
        stream, model, pairs = self.roundtrip_stream()
        clipped = Bitstream(stream.paradigm, stream.M, stream.n,
                            stream.payload[: len(stream.payload) // 2])
        with pytest.raises(IntegrityError):
            decode(clipped, [xp for _, xp in pairs], model)

    @pytest.mark.parametrize("paradigm", CODEC_NAMES)
    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_trailing_bytes_raise_integrity(self, paradigm, n):
        params = small_params()
        model = build_model(params, paradigm)
        pairs = sample_pairs(params, n, seed=n)
        xp = [p for _, p in pairs]
        stream = encode(pairs, paradigm, model)
        assert decode(stream, xp, model) == [x for x, _ in pairs]
        for extra in (b"\x00", bytes(50)):
            padded = Bitstream(stream.paradigm, stream.M, stream.n,
                               stream.payload + extra)
            with pytest.raises(IntegrityError):
                decode(padded, xp, model)

    def test_empty_stream_with_payload_raises_integrity(self):
        model = build_model(small_params(), "residual")
        with pytest.raises(IntegrityError):
            decode(Bitstream(0, 16, 0, b"\x00"), [], model)

    @pytest.mark.parametrize("M", [0, 1])
    def test_bad_alphabet_size_in_header_is_format_error(self, M):
        stream, _, _ = self.roundtrip_stream()
        blob = bytearray(stream.to_bytes())
        blob[6:8] = M.to_bytes(2, "big")
        with pytest.raises(FormatError):
            Bitstream.from_bytes(bytes(blob))


class TestInputGuards:
    def test_out_of_range_symbols_rejected(self):
        params = small_params(M=16)
        model = build_model(params, "residual")
        with pytest.raises(InputError):
            encode([(16, 0)], "residual", model)
        with pytest.raises(InputError):
            encode([(0, -1)], "residual", model)

    @pytest.mark.parametrize("seq", [[(1, 2, 3)], [5], 5, [(1,)], [(1, 2), (3,)],
                                     [(1.0, 2)], [("1", 2)], [(None, 2)]])
    def test_malformed_pairs_rejected(self, seq):
        model = build_model(small_params(M=16), "residual")
        with pytest.raises(InputError):
            encode(seq, "residual", model)

    @pytest.mark.parametrize("preds", [[1.5], ["3"], [None], [0, 16], [-1], [[1]]])
    def test_malformed_predictions_rejected(self, preds):
        model = build_model(small_params(M=16), "residual")
        stream = encode([(3, 3)] * len(preds), "residual", model)
        with pytest.raises(InputError):
            decode(stream, preds, model)

    def test_numpy_symbols_accepted(self):
        model = build_model(small_params(M=16), "residual")
        pairs = np.array([(3, 5), (0, 15), (15, 0)], dtype=np.uint8)
        stream = encode(pairs, "residual", model)
        assert stream.to_bytes() == encode(pairs.tolist(), "residual", model).to_bytes()
        assert decode(stream, pairs[:, 1], model) == [3, 0, 15]
        assert decode(stream, iter([5, 15, 0]), model) == [3, 0, 15]

    def test_alphabet_beyond_header_rejected_before_joint(self, monkeypatch):
        def no_joint(*args, **kwargs):
            raise AssertionError("built the joint for an unencodable M")

        monkeypatch.setattr(codec, "build_joint", no_joint)
        with pytest.raises(InputError):
            build_model(PixelModelParams(p=0.5, Q=1, M=0x10000), "residual")

    def test_uncovered_symbol_is_coverage_error(self):
        # p=0 leaves only r=0 in the model; any other residual cannot code.
        # The error names the context by its cell, floor(3/1.4) = 2
        params = small_params(p=0.0, Q=1.4, M=16)
        model = build_model(params, "conditional-residual")
        with pytest.raises(ModelCoverageError,
                           match=r"^symbol 2 has zero count in context cell 2 \(Q=7/5\)$"):
            encode([(5, 3)], "conditional-residual", model)

    def test_measure_rate_validates_n(self):
        stream = Bitstream(codec_paradigm("residual").byte, 16, 4, b"abcd")
        assert measure_rate(stream) == 8.0
        with pytest.raises(InputError):
            measure_rate(Bitstream(codec_paradigm("residual").byte, 16, 0, b""))
        # no header field takes a float, which the header would fail to pack
        byte = codec_paradigm("residual").byte
        for fields in ((byte, 16, 2.5), (byte, 2.5, 4), (float(byte), 16, 4), (byte, 16, True)):
            with pytest.raises(InputError, match="must be an integer"):
                Bitstream(*fields, b"abcd")
        assert Bitstream(np.uint8(byte), np.int64(16), np.int64(4), b"abcd").to_bytes() \
            == stream.to_bytes()

    def test_paradigm_model_mismatch(self):
        params = small_params()
        model = build_model(params, "residual")
        with pytest.raises(InputError):
            encode([(0, 0)], "conditional", model)
