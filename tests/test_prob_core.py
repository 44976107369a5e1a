"""Exact-PMF core: alphabets, joint construction, adjoin ops, sampling."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crlab import prob_core
from crlab.errors import InputError
from crlab.info_measures import entropy
from crlab.pixel_model import PARADIGMS, PixelModelParams, build_joint
from crlab.prob_core import (
    JointPMF,
    adjoin_channel,
    adjoin_difference,
    adjoin_map,
    adjoin_sum,
    as_exact,
    combined_index,
    conditional_table,
    difference_alphabet,
    group_weights,
    marginalize,
    quantizer_map,
    random_pmf,
    sample_columns,
    splitmix64,
    sum_alphabet,
)
from crlab.rd_solver import DistortionMatrix


def _table_by_rows(pmf, target, given):
    """conditional_table as group_weights rows scattered into a dense
    matrix."""
    n = len(pmf.alphabet(target))
    if given is None:
        rows, weights = group_weights(pmf, [target])
        P = np.zeros((1, n))
        P[0, rows[:, 0]] = weights
        return np.ones(1), P
    rows, weights = group_weights(pmf, [given, target])
    P = np.zeros((len(pmf.alphabet(given)), n))
    P[rows[:, 0], rows[:, 1]] = weights
    w = P.sum(axis=1)
    keep = w > 0.0
    return w[keep], P[keep] / w[keep, None]


def values(pmf, name):
    """Symbol values of one variable, one per support point."""
    return (pmf.idx[:, pmf.var_pos(name)] + pmf.alphabet(name)[0]).tolist()


def uniform_pair(n=4):
    """Uniform joint over x in 0..n-1 with xp = x (perfect prediction)."""
    a = range(n)
    b = range(n)
    idx = np.column_stack([np.arange(n), np.arange(n)])
    return JointPMF([("x", a), ("xp", b)], idx, np.full(n, 1.0 / n))


class TestAsExact:
    def test_float_reads_shortest_repr(self):
        assert as_exact(1.4) == Fraction(7, 5)
        assert as_exact(0.25) == Fraction(1, 4)

    def test_int_passthrough(self):
        assert as_exact(7) == 7
        assert isinstance(as_exact(7), int)

    def test_whole_fraction_collapses_to_int(self):
        assert as_exact(Fraction(8, 2)) == 4
        assert isinstance(as_exact(Fraction(8, 2)), int)

    def test_string_parses(self):
        assert as_exact("7/5") == Fraction(7, 5)

    def test_rejects_bool_and_nonfinite(self):
        with pytest.raises(InputError, match="^booleans are not valid numbers$"):
            as_exact(True)
        with pytest.raises(InputError, match="^non-finite number: inf$"):
            as_exact(float("inf"))
        with pytest.raises(InputError, match="as an exact number"):
            as_exact("not a number")
        with pytest.raises(InputError, match="^unsupported number type: NoneType$"):
            as_exact(None)


def _build_with_alphabet(entry, alphabet):
    """Build one object that takes alphabet at the given entry point."""
    if entry == "JointPMF":
        return JointPMF([("x", alphabet)], [[0]], [1.0])
    pmf = uniform_pair(2)
    if entry == "adjoin_map":
        return adjoin_map(pmf, "x", np.zeros(2, dtype=np.intp), alphabet, "y")
    if entry == "adjoin_channel":
        return adjoin_channel(pmf, "x", np.ones((2, 1)), alphabet, "y")
    if entry == "DistortionMatrix.source":
        return DistortionMatrix(alphabet, range(2), np.zeros((len(alphabet), 2)))
    return DistortionMatrix(range(2), alphabet, np.zeros((2, len(alphabet))))


class TestAlphabet:
    # a gap, a descending run, no symbols, and symbols that are not a
    # range at all (integer or not) are each refused where they enter
    @pytest.mark.parametrize("alphabet", [(0, 1), [0.5, 1.5], range(0), range(0, 4, 2),
                                          range(3, 0, -1)],
                             ids=["tuple", "list", "empty", "gap", "descending"])
    @pytest.mark.parametrize("entry", ["JointPMF", "adjoin_map", "adjoin_channel",
                                       "DistortionMatrix.source", "DistortionMatrix.recon"])
    def test_rejects_non_range_alphabet(self, entry, alphabet):
        with pytest.raises(InputError, match="must be a nonempty range with step 1"):
            _build_with_alphabet(entry, alphabet)

    def test_difference_alphabet_covers_cross_set(self):
        a = range(3)
        d = difference_alphabet(a, a)
        assert d == range(-2, 3)

    @pytest.mark.parametrize("lo_a,hi_a,lo_b,hi_b", [(0, 0, 0, 0), (-3, 2, 5, 9), (4, 4, -2, 7)])
    def test_integer_cross_sets_match_enumeration(self, lo_a, hi_a, lo_b, hi_b):
        a = range(lo_a, hi_a + 1)
        b = range(lo_b, hi_b + 1)
        pairs = [(u, v) for u in a for v in b]
        assert tuple(difference_alphabet(a, b)) == tuple(sorted({u - v for u, v in pairs}))
        assert tuple(sum_alphabet(a, b)) == tuple(sorted({u + v for u, v in pairs}))


class TestQuantizerMap:
    def test_integer_step_truncates(self):
        dom = range(8)
        m = quantizer_map(dom, 2)
        assert m.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_fractional_step_is_exact(self):
        # step 7/5 on 0..6: the cell of v is floor(v/1.4) in exact arithmetic
        dom = range(7)
        assert quantizer_map(dom, 1.4).tolist() == [0, 0, 1, 2, 2, 3, 4]

    def test_step_seven_fifths_cell_sizes(self):
        # 110 one-symbol and 73 two-symbol cells: the bottleneck loses
        # 8 - (110*8 + 73*2*7)/256 = 146/256 bits of H(xp)
        cells = quantizer_map(range(256), Fraction(7, 5))
        sizes = np.bincount(cells)
        assert cells.dtype == np.intp and sizes.size == 183
        assert np.bincount(sizes).tolist() == [0, 110, 73]

    @given(st.integers(-20, 20), st.integers(1, 300),
           st.integers(1, 50), st.integers(1, 50))
    @example(0, 256, 7, 5)
    @settings(max_examples=60, deadline=None)
    def test_cells_are_the_exact_floor(self, lo, M, a, b):
        """The cells are floor(v/Q) taken with Fractions, less the first
        cell, for Q = a/b >= 1; so K, their count, is the last cell + 1."""
        if a < b:
            a, b = b, a
        q = Fraction(a, b)
        dom = range(lo, lo + M)
        exact = [math.floor(Fraction(v) / q) for v in dom]
        cells = quantizer_map(dom, q)
        assert cells.tolist() == [c - exact[0] for c in exact]
        assert np.unique(cells).size == cells[-1] + 1 == exact[-1] - exact[0] + 1

    def test_rejects_nonpositive_step(self):
        dom = range(4)
        with pytest.raises(InputError):
            quantizer_map(dom, 0)

    def test_rejects_step_below_one(self):
        # cells of a step below 1 would skip indices that no symbol takes
        with pytest.raises(InputError):
            quantizer_map(range(4), Fraction(1, 2))


class TestJointPMF:
    def test_validation_rejects_bad_probs(self):
        a = range(2)
        with pytest.raises(InputError):
            JointPMF([("x", a)], [[0], [1]], [0.7, 0.7])  # sums to 1.4
        with pytest.raises(InputError):
            JointPMF([("x", a)], [[0], [1]], [1.5, -0.5])

    def test_validation_rejects_duplicate_support_rows(self):
        a = range(2)
        with pytest.raises(InputError):
            JointPMF([("x", a)], [[0], [0]], [0.5, 0.5])

    def test_names(self):
        pmf = uniform_pair(3)
        assert pmf.names == ("x", "xp")
        with pytest.raises(InputError):
            pmf.var_pos("nope")

    def test_marginalize_sums_out(self):
        pmf = uniform_pair(4)
        m = marginalize(pmf, ["x"])
        assert m.names == ("x",)
        np.testing.assert_allclose(m.probs, 0.25)

    def test_conditional_table(self):
        a = range(3)
        b = range(3)
        idx = [[0, 0], [1, 0], [2, 2]]
        pmf = JointPMF([("x", a), ("y", b)], idx, [0.25, 0.25, 0.5])
        w, P = conditional_table(pmf, "x", "y")
        # y=1 has no mass, so its row is left out
        assert w.tolist() == [0.5, 0.5]
        assert P.tolist() == [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]
        w, P = conditional_table(pmf, "y")
        assert w.tolist() == [1.0]
        assert P.tolist() == [[0.5, 0.0, 0.5]]
        # a quantized given: every one of the 183 step-7/5 cells is reached
        pixel = build_joint(PixelModelParams(p=0.3, Q=1.4, M=256))
        assert len(conditional_table(pixel, "x", "xq")[0]) == 183

    @pytest.mark.parametrize("p", [0, 0.3, 1])
    @pytest.mark.parametrize("Q", [1, 1.4, 2, 64])
    @pytest.mark.parametrize("M", [2, 3, 16])
    def test_conditional_table_matches_grouped_rows(self, M, Q, p):
        # every PARADIGMS row: given=None for res, irregular xq cells at Q=1.4
        pmf = build_joint(PixelModelParams(p=p, Q=Q, M=M))
        for row in PARADIGMS:
            got = conditional_table(pmf, row.coded, row.context)
            want = _table_by_rows(pmf, row.coded, row.context)
            assert len(got) == len(want) == 2, row.label
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape, row.label
                assert a.tobytes() == b.tobytes(), row.label

    @pytest.mark.parametrize("p", [0, 0.3])
    @pytest.mark.parametrize("Q", [1, 1.4, 2, 64])
    @pytest.mark.parametrize("M", [2, 3, 16])
    def test_count_signature_matches_row_counts(self, M, Q, p):
        pmf = build_joint(PixelModelParams(p=p, Q=Q, M=M))
        on = pmf.idx[:, 0] == pmf.idx[:, 1]  # x, xp
        for names in (["r"], ["x"], ["xp"], ["xq"], ["x", "xp"], ["x", "xq"],
                      ["r", "xp"], ["xq", "r"]):
            cols = [pmf.var_pos(n) for n in names]
            groups = {}
            for row, o in zip(pmf.idx[:, cols].tolist(), on.tolist()):
                groups.setdefault(tuple(row), [0, 0])[o] += 1
            pairs = {}
            for a, b in groups.values():
                pairs[a, b] = pairs.get((a, b), 0) + 1
            a, b, m = pmf.count_signature(names, on)
            assert list(zip(a.tolist(), b.tolist(), m.tolist())) == \
                [(a, b, k) for (a, b), k in sorted(pairs.items())], names

    def test_wide_sparse_joint(self):
        # 7 variables of 1000 symbols: the product 1e21 passes 2**62, so no
        # integer key spans a grouping over all of them
        rng = np.random.default_rng(7)
        variables = [(f"v{i}", range(1000)) for i in range(7)]
        draws = rng.integers(0, 1000, size=(60, 7))
        draws[:, :3] %= 2  # shared leading columns, so later columns order rows too
        rows = np.unique(draws, axis=0)
        probs = rng.dirichlet(np.ones(len(rows)))
        perm = rng.permutation(len(rows))
        pmf = JointPMF(variables, rows[perm], probs[perm])
        assert np.array_equal(pmf.idx, rows)
        assert pmf.probs.tobytes() == probs.tobytes()

        with pytest.raises(InputError, match="duplicate"):
            JointPMF(variables, np.vstack([rows, rows[-1:]]),
                     np.append(probs[:-1], [probs[-1] / 2] * 2))

        m = marginalize(pmf, ["v6", "v2"])
        want = {}
        for (a, b), w in zip(rows[:, [6, 2]].tolist(), probs.tolist()):
            want[a, b] = want.get((a, b), 0.0) + w
        assert m.names == ("v6", "v2")
        assert m.idx.tolist() == sorted(map(list, want))
        assert m.probs.tolist() == [want[a, b] for a, b in m.idx.tolist()]

        with pytest.raises(InputError, match=r"2\*\*62"):
            entropy(pmf, pmf.names)


class TestAdjoin:
    def test_adjoin_difference_matches_by_hand(self):
        pmf = uniform_pair(4)
        ext = adjoin_difference(pmf, "x", "xp", "r")
        assert values(ext, "r") == [0, 0, 0, 0]  # xp == x here

    def test_adjoin_sum_then_difference_roundtrip(self):
        pmf = uniform_pair(3)
        ext = adjoin_sum(pmf, "x", "xp", "s")
        back = adjoin_difference(ext, "s", "xp", "x2")
        assert values(back, "x2") == values(back, "x")

    def test_adjoin_map_quantizer_column(self):
        a = range(8)
        pmf = JointPMF([("x", a)], [[i] for i in range(8)], np.full(8, 0.125))
        ext = adjoin_map(pmf, "x", quantizer_map(a, 4), range(2), "xq")
        assert values(ext, "xq") == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_adjoin_map_rejects_images_outside_the_alphabet(self):
        a = range(4)
        pmf = JointPMF([("x", a)], [[i] for i in range(4)], np.full(4, 0.25))
        y = range(2)
        for images in ([0, 1, 2, 3], [0, -1, 0, 1], [0, 1, 0], [0.0, 1.0, 0.0, 1.0]):
            with pytest.raises(InputError):
                adjoin_map(pmf, "x", np.array(images), y, "y")  # 2, 3 and -1 escape

    @pytest.mark.parametrize("lo", [1, -2])
    def test_combined_index_marks_values_outside_the_alphabet(self, lo):
        # x in {lo, lo+1, lo+2}, xp = lo or lo+1, out = {0, 1} in index
        # terms: every alphabet starts at lo, so each symbol's offset shifts
        x = range(lo, lo + 3)
        xp = range(lo, lo + 2)
        pmf = JointPMF([("x", x), ("xp", xp)], [[0, 0], [0, 1], [1, 1], [2, 0]],
                       np.full(4, 0.25))
        diff = range(2)  # lacks -1 and 2
        assert combined_index(pmf, "x", "xp", -1, diff).tolist() == [0, -1, 0, -1]
        total = range(2 * lo, 2 * lo + 2)  # lacks 2*lo + 2, + 3
        assert combined_index(pmf, "x", "xp", +1, total).tolist() == [0, 1, -1, -1]

    def test_adjoin_rejects_name_collision(self):
        pmf = uniform_pair(3)
        with pytest.raises(InputError):
            adjoin_difference(pmf, "x", "xp", "x")

    def test_adjoin_channel_builds_conditional_independence(self):
        from crlab.info_measures import conditional_mutual_information

        pmf = uniform_pair(3)
        kernel = np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]])
        out = range(2)
        ext = adjoin_channel(pmf, "x", kernel, out, "z")
        # z depends on xp only through x
        assert conditional_mutual_information(ext, "z", "xp", "x") < 1e-12

    def test_adjoin_channel_validates_kernel(self):
        pmf = uniform_pair(3)
        out = range(2)
        with pytest.raises(InputError):
            adjoin_channel(pmf, "x", np.array([[0.5, 0.5]]), out, "z")
        with pytest.raises(InputError):
            adjoin_channel(pmf, "x", np.full((3, 2), 0.7), out, "z")


class TestRandomness:
    def test_splitmix64_reference_output(self):
        # first output of the reference sequence seeded with 0
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    @settings(max_examples=50)
    def test_splitmix64_stays_in_64_bits(self, s):
        assert 0 <= splitmix64(s) < 1 << 64

    @staticmethod
    def sample(pmf, n, seed):
        """Draws as one tuple of symbol values each, from sample_columns."""
        return list(zip(*(c.tolist() for c in sample_columns(pmf, n, seed))))

    def test_sample_deterministic_and_weighted(self):
        a = range(2)
        pmf = JointPMF([("x", a)], [[0], [1]], [0.9, 0.1])
        s1 = self.sample(pmf, 1000, seed=42)
        s2 = self.sample(pmf, 1000, seed=42)
        assert s1 == s2
        ones = sum(v for (v,) in s1)
        assert 40 <= ones <= 180  # ~100 expected
        assert self.sample(pmf, 0, seed=1) == []
        with pytest.raises(InputError):
            self.sample(pmf, -1, seed=1)
        with pytest.raises(InputError):
            self.sample(pmf, 5, seed=-3)

    @staticmethod
    def per_draw_sample(pmf, n, seed):
        """The one-tuple-per-draw sampler that sample_columns replaced."""
        if n == 0:
            return []
        rng = np.random.default_rng(seed)
        picks = rng.choice(pmf.n_points, size=n, p=pmf.probs / pmf.probs.sum())
        columns = [[pmf.alphabet(name)[i] for i in pmf.idx[:, c]]
                   for c, name in enumerate(pmf.names)]
        return [tuple(col[i] for col in columns) for i in picks]

    @pytest.mark.parametrize("pmf", [
        random_pmf((3, 4), seed=7),
        marginalize(build_joint(PixelModelParams(p=0.3, Q=2, M=16)), ["x", "xp"]),
        # the 7/5 step gives cells of one and two symbols
        build_joint(PixelModelParams(p=0.3, Q=Fraction(7, 5), M=16)),
    ], ids=["random", "pixel-int", "pixel-7/5"])
    @pytest.mark.parametrize("n,seed", [(0, 1), (1, 0), (500, 3), (2000, 2 ** 64 - 1)])
    def test_sample_matches_per_draw_tuples(self, pmf, n, seed):
        got = self.sample(pmf, n, seed)
        want = self.per_draw_sample(pmf, n, seed)
        assert got == want
        assert [tuple(map(type, t)) for t in got] == [tuple(map(type, t)) for t in want]

    def test_sample_columns_are_the_same_draw(self):
        pmf = build_joint(PixelModelParams(p=0.3, Q=Fraction(7, 5), M=16))
        cols = sample_columns(pmf, 300, 5)
        assert list(zip(*(c.tolist() for c in cols))) == self.sample(pmf, 300, 5)
        assert [c.dtype for c in cols] == [np.int64] * 4
        assert set(cols[pmf.var_pos("xq")].tolist()) <= set(range(11))  # 15*5//7 = 10

    def test_random_pmf_shape_and_determinism(self):
        pmf = random_pmf((3, 4), seed=7)
        assert pmf.names == ("v0", "v1")
        assert math.isclose(float(pmf.probs.sum()), 1.0, abs_tol=1e-12)
        pmf2 = random_pmf((3, 4), seed=7)
        np.testing.assert_array_equal(pmf.probs, pmf2.probs)
        with pytest.raises(InputError):
            random_pmf((0, 2), seed=1)


@st.composite
def grouping_cases(draw):
    """A joint and a nonempty ordered subset of its variable names."""
    kind = draw(st.sampled_from(["random", "quantized", "holes", "diagonal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if kind == "random":
        shape = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
        pmf = random_pmf(shape, seed=rng)
    elif kind == "quantized":
        n = draw(st.integers(2, 12))
        pmf = random_pmf((n, n), seed=rng, names=("x", "xp"))
        cells = quantizer_map(pmf.alphabet("xp"), 1.4)
        pmf = adjoin_map(pmf, "xp", cells, range(int(cells[-1]) + 1), "xq")
    elif kind == "holes":
        n = draw(st.integers(2, 6))
        pmf = adjoin_difference(random_pmf((n, n), seed=rng, names=("x", "xp")),
                                "x", "xp", "r")
        nr = len(pmf.alphabet("r"))
        kernel = rng.random((nr, nr)) * (rng.random((nr, nr)) < 0.4) + 0.1 * np.eye(nr)
        kernel /= kernel.sum(axis=1, keepdims=True)
        pmf = adjoin_channel(pmf, "r", kernel, pmf.alphabet("r"), "rt")
    else:
        pmf = build_joint(PixelModelParams(p=0, Q=draw(st.sampled_from([1, 1.4, 2])),
                                           M=draw(st.integers(2, 16))))
    names = draw(st.permutations(pmf.names))
    return pmf, names[:draw(st.integers(1, len(names)))]


def _grouped(pmf, names, dense_span):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prob_core, "_DENSE_SPAN", dense_span)
        return group_weights(pmf, names), pmf.group_probs(names)[0]


@given(grouping_cases())
@settings(max_examples=80, deadline=None)
def test_dense_grouping_matches_sorting(case):
    """The bincount path and the np.unique path group identically, bit for bit."""
    pmf, names = case
    (rows_s, w_s), probs_s = _grouped(pmf, names, 0)          # always sort
    (rows_d, w_d), probs_d = _grouped(pmf, names, math.inf)   # always dense
    assert rows_d.dtype == rows_s.dtype and rows_d.shape == rows_s.shape
    assert np.array_equal(rows_d, rows_s)
    assert w_d.tobytes() == w_s.tobytes()
    assert probs_s.tobytes() == w_s.tobytes()
    assert probs_d[probs_d > 0].tobytes() == w_s.tobytes()
    assert probs_d.size == math.prod(len(pmf.alphabet(n)) for n in names)
