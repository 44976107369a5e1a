"""Range coder and static models: exact round trips or loud failures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crlab import codec
from crlab.codec import (
    TOTAL,
    Bitstream,
    RangeDecoder,
    RangeEncoder,
    build_model,
    decode,
    encode,
    expected_rate,
    measure_rate,
    quantize_freq,
    sample_pairs,
)
from crlab.errors import (
    FormatError,
    InputError,
    IntegrityError,
    ModelCoverageError,
)
from crlab.pixel_model import PARADIGMS, PixelModelParams, codec_paradigm, entropy_report

CODEC_NAMES = sorted(row.name for row in PARADIGMS if row.byte is not None)


def small_params(p=0.5, Q=2, M=16):
    return PixelModelParams(p=p, Q=Q, M=M)


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

    def test_largest_remainder_tie_prefers_lower_index(self):
        # three equal remainders competing for one leftover unit
        p = np.array([1 / 3] * 3)
        f = quantize_freq(p)
        assert f.tolist() == [21846, 21845, 21845]


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

        enc = RangeEncoder()
        for s in syms:
            enc.encode(int(cum[s]), int(freq[s]), TOTAL)
        payload = enc.finish()

        dec = RangeDecoder(payload)
        out = []
        for _ in range(n):
            v = dec.decode_target(TOTAL)
            s = int(np.searchsorted(cum, v, side="right") - 1)
            dec.consume(int(cum[s]), int(freq[s]))
            out.append(s)
        assert out == syms.tolist()

    def test_truncated_payload_detected(self):
        enc = RangeEncoder()
        for _ in range(100):
            enc.encode(0, TOTAL // 2, TOTAL)
        payload = enc.finish()
        # priming alone needs 5 bytes, so construction may already trip
        with pytest.raises(IntegrityError):
            dec = RangeDecoder(payload[:3])
            for _ in range(100):
                dec.decode_target(TOTAL)
                dec.consume(0, TOTAL // 2)


class TestModel:
    def test_paradigm_table(self):
        assert {row.name: row.byte for row in PARADIGMS if row.byte is not None} \
            == {"residual": 0, "conditional": 1, "conditional-residual": 2}

    def test_bad_paradigm_rejected(self):
        with pytest.raises(InputError):
            build_model(small_params(), "wavelet")

    def test_expected_rate_close_to_entropy(self):
        params = small_params(p=0.5, Q=2, M=64)
        rep = entropy_report(params)
        pairs = [("residual", rep.H_R),
                 ("conditional", rep.H_X_given_Xphat),
                 ("conditional-residual", rep.H_R_given_Xphat)]
        for paradigm, h in pairs:
            model = build_model(params, paradigm)
            # 16-bit frequency quantization costs a hair of cross-entropy
            assert h <= expected_rate(model, params) <= h + 1e-3


class TestEndToEnd:
    @pytest.mark.parametrize("paradigm", CODEC_NAMES)
    @pytest.mark.parametrize("p,Q", [(0.25, 1), (0.5, 2), (1.0, 64), (0.0, 2)])
    def test_roundtrip_exact(self, paradigm, p, Q):
        params = small_params(p=p, Q=Q, M=16)
        model = build_model(params, paradigm)
        pairs = sample_pairs(params, 400, seed=11)
        stream = encode(pairs, paradigm, model)
        decoded = decode(stream, [xp for _, xp in pairs], model)
        assert decoded == [x for x, _ in pairs]

    def test_rate_near_entropy(self):
        params = small_params(p=0.5, Q=2, M=16)
        rep = entropy_report(params)
        model = build_model(params, "conditional-residual")
        pairs = sample_pairs(params, 20000, seed=5)
        stream = encode(pairs, "conditional-residual", model)
        rate = measure_rate(stream, len(pairs))
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
        # p=0 leaves only r=0 in the model; any other residual cannot code
        params = small_params(p=0.0, Q=1, M=16)
        model = build_model(params, "conditional-residual")
        with pytest.raises(ModelCoverageError):
            encode([(5, 0)], "conditional-residual", model)

    def test_measure_rate_validates_n(self):
        stream = Bitstream(codec_paradigm("residual").byte, 16, 4, b"abcd")
        assert measure_rate(stream, 4) == 8.0
        with pytest.raises(InputError):
            measure_rate(stream, 0)

    def test_paradigm_model_mismatch(self):
        params = small_params()
        model = build_model(params, "residual")
        with pytest.raises(InputError):
            encode([(0, 0)], "conditional", model)
