"""Entropy and mutual information against brute-force log-sum references."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crlab.errors import InputError, InternalConsistencyError
from crlab.info_measures import (
    EntropyMemo,
    TwoMassEntropies,
    _checked_bits,
    _entropies,
    _plogp_sum,
    conditional_entropy,
    entropy,
)
from crlab.prob_core import JointPMF
from oracles import SegmentedStack, random_pmf


def dense_probs(pmf, shape):
    """Full dense array of the joint, zeros where there is no support."""
    out = np.zeros(shape)
    for row, p in zip(pmf.idx, pmf.probs):
        out[tuple(row)] = p
    return out


def h_of(weights):
    w = weights[weights > 0]
    return float(-(w * np.log2(w)).sum())


def test_fair_coin_is_one_bit():
    a = range(2)
    pmf = JointPMF([("x", a)], [[0], [1]], [0.5, 0.5])
    assert math.isclose(entropy(pmf, "x"), 1.0, abs_tol=1e-15)


def test_uniform_eight_is_three_bits():
    a = range(8)
    pmf = JointPMF([("x", a)], [[i] for i in range(8)], np.full(8, 0.125))
    assert math.isclose(entropy(pmf, "x"), 3.0, abs_tol=1e-12)


def test_deterministic_variable_has_zero_entropy():
    a = range(4)
    pmf = JointPMF([("x", a)], [[2]], [1.0])
    assert entropy(pmf, "x") == 0.0


@given(st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=25, deadline=None)
def test_cmi_matches_brute_force_triple_sum(seed):
    shape = (3, 4, 2)
    pmf = random_pmf(shape, seed=seed, names=["a", "b", "c"])
    got = EntropyMemo(pmf).cmi("a", "b", "c")[0]

    # I(a;b|c) = H(a,c) + H(b,c) - H(a,b,c) - H(c), each term from the
    # dense array directly
    p = dense_probs(pmf, shape)
    ref = (h_of(p.sum(axis=1).ravel()) + h_of(p.sum(axis=0).ravel())
           - h_of(p.ravel()) - h_of(p.sum(axis=(0, 1)).ravel()))
    assert abs(got - ref) < 1e-10


@given(st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=25, deadline=None)
def test_chain_rule(seed):
    pmf = random_pmf((4, 5), seed=seed, names=["a", "b"])
    lhs = entropy(pmf, ["a", "b"])
    rhs = entropy(pmf, "a") + conditional_entropy(pmf, "b", "a")
    assert abs(lhs - rhs) < 1e-10


@given(st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=25, deadline=None)
def test_information_nonnegative_and_symmetric(seed):
    pmf = random_pmf((3, 3, 2), seed=seed, names=["a", "b", "c"])
    h = EntropyMemo(pmf)
    iab = h.mi("a", "b")[0]
    iba = h.mi("b", "a")[0]
    assert iab >= 0.0
    assert abs(iab - iba) < 1e-12
    assert h.cmi("a", "b", "c")[0] >= 0.0


def test_conditioning_reduces_entropy():
    pmf = random_pmf((4, 4), seed=99, names=["a", "b"])
    assert conditional_entropy(pmf, "a", "b") <= entropy(pmf, "a") + 1e-12


def test_independent_variables_have_zero_information():
    a = range(2)
    b = range(2)
    idx = [[i, j] for i in range(2) for j in range(2)]
    pmf = JointPMF([("a", a), ("b", b)], idx, np.full(4, 0.25))
    assert EntropyMemo(pmf).mi("a", "b")[0] == 0.0


def test_copy_variable_information_equals_entropy():
    a = range(4)
    b = range(4)
    idx = [[i, i] for i in range(4)]
    pmf = JointPMF([("a", a), ("b", b)], idx, np.full(4, 0.25))
    assert math.isclose(EntropyMemo(pmf).mi("a", "b")[0], 2.0, abs_tol=1e-12)
    assert conditional_entropy(pmf, "a", "b") == 0.0


def test_group_arguments_accept_string_or_sequence():
    pmf = random_pmf((3, 3), seed=5, names=["a", "b"])
    assert entropy(pmf, "a") == entropy(pmf, ["a"])


def test_overlapping_argument_groups_rejected():
    pmf = random_pmf((3, 3, 2), seed=5, names=["a", "b", "c"])
    with pytest.raises(InputError):
        conditional_entropy(pmf, "a", ["b", "a"])
    with pytest.raises(InputError):
        conditional_entropy(pmf, ["a", "a"], "b")


def test_unknown_variable_rejected():
    pmf = random_pmf((3, 3), seed=5, names=["a", "b"])
    with pytest.raises(InputError):
        entropy(pmf, "zz")


def test_whole_mass_group_rounded_above_one_adds_nothing():
    # one bin summed from 65,536 pixel-model points reaches 1 + 7.6e-13
    assert _plogp_sum(np.array([1.0 + 7.6e-13])) == 0.0
    assert _plogp_sum(np.array([0.0, 1.0 + 1e-9, 0.0])) == 0.0
    with pytest.raises(InternalConsistencyError):
        _plogp_sum(np.array([1.0 + 2e-9]))


def test_lone_group_adds_nothing_from_either_side_of_one():
    # 65,536 pixel-model weights of one Xq cell at p=0.7 sum to 1 - 1.2e-12
    for w in (1.0 - 1.2e-12, 1.0, 1.0 + 7.6e-13):
        assert _plogp_sum(np.array([0.0, w])).tolist() == [-0.0]
    # in a stack, only the lone segment is set to 1
    got = _plogp_sum(np.array([1.0 - 1e-12, 0.5, 0.5, 0.0]), np.array([0, 1, 4]))
    assert got.tolist() == [-0.0, 1.0]
    # one weight shared by several groups is not lone
    assert _plogp_sum(np.array([0.25]), mult=np.array([4])).tolist() == [2.0]
    with pytest.raises(InternalConsistencyError):
        _plogp_sum(np.array([1.0 + 2e-9]), mult=np.array([1]))


def test_checked_bits_bounds_and_clamps_each_joint():
    caps = np.array([1.0, 1.0, 1.0, 2.0])
    h = _checked_bits(np.array([0.5, -1e-13, -0.0, 2.0]), caps, ("a", "b"))
    assert [v.hex() for v in h.tolist()] == [v.hex() for v in (0.5, 0.0, -0.0, 2.0)]
    with pytest.raises(InternalConsistencyError,
                       match=r"^H\('a',\) = 1.5 above log2 alphabet bound 1.0$"):
        _checked_bits(np.array([1.5, 3.0]), np.array([1.0, 2.0]), ("a",))
    with pytest.raises(InternalConsistencyError,
                       match=r"^H\('a',\) = -2e-12 is negative beyond 1e-12$"):
        _checked_bits(np.array([0.5, -1e-13, -2e-12, -3e-12]), caps, ("a",))


@pytest.mark.parametrize("seed", range(4))
def test_two_mass_entropies_match_each_weighted_joint(seed):
    """Count signatures against the per-row sums of the joints they stand
    for: a random support and mask, weighed by three pairs of masses."""
    rng = np.random.default_rng(seed)
    support = random_pmf((3, 4, 2), seed=seed, names=["a", "b", "c"])
    on = rng.random(support.n_points) < 0.4
    on[0], on[-1] = True, False
    n_on = int(on.sum())
    shares = [0.0, 0.5, 1.0 - 1e-9]  # of the mass on the rows where on holds
    masses = [((1 - s) / (on.size - n_on), s / n_on) for s in shares]
    h = TwoMassEntropies(support, on, masses)
    for t, (off, mass_on) in enumerate(masses):
        keep = on | (off > 0)
        joint = JointPMF(support.variables, support.idx[keep],
                         np.where(on, mass_on, off)[keep])
        memo = EntropyMemo(joint)
        for names in (["a"], ["c", "b"], ["a", "b", "c"]):
            assert abs(h(*names)[t] - memo(*names)[0]) <= 1e-13, (t, names)
        assert abs(h.mi("a", "c")[t] - memo.mi("a", "c")[0]) <= 1e-13
    with pytest.raises(InputError):
        h("a", "zz")


def test_memo_matches_plain_measures_and_sorts_keys():
    pmf = random_pmf((3, 4, 2), seed=11, names=["a", "b", "c"])
    h = EntropyMemo(pmf)
    assert h("b", "a") == h("a", "b") == entropy(pmf, ["a", "b"])
    assert h.cond("a", "b") == conditional_entropy(pmf, "a", "b")
    assert h.mi("a", "b") == entropy(pmf, "a") + entropy(pmf, "b") - entropy(pmf, ["a", "b"])
    assert h.cmi("a", "b", "c") == (entropy(pmf, ["a", "c"]) + entropy(pmf, ["b", "c"])
                                    - entropy(pmf, ["a", "b", "c"]) - entropy(pmf, "c"))
    assert set(h.memo) == {("a",), ("b",), ("c",), ("a", "b"), ("a", "c"), ("b", "c"),
                           ("a", "b", "c")}


def test_segments_sum_as_if_alone():
    """Each segment of a stacked weight array sums bit for bit as that
    segment alone: pairwise partials over chunks of 4096 positive weights,
    folded by fsum, with the zeros among them dropped."""
    rng = np.random.default_rng(3)
    segments = []
    for n in (1, 3000, 4096, 4097, 200_000):
        w = rng.dirichlet(np.ones(n))
        w[rng.random(n) < 0.2] = 0.0  # empty bins of a dense grouping
        segments.append(w if w.any() else np.ones(1))
    bounds = np.cumsum([0] + [s.size for s in segments])
    stacked = _plogp_sum(np.concatenate(segments), bounds)
    for s, value in zip(segments, stacked):
        w = s[s > 0]
        terms = w * np.log2(w)
        partials = np.add.reduceat(terms, np.arange(0, terms.size, 4096))
        expected = -math.fsum(partials.tolist())
        assert value.hex() == expected.hex() == float(_plogp_sum(s)[0]).hex()
    # the largest segment is one whose fsum differs from a plain sum
    assert expected != -float(partials.sum())


def test_stack_entropies_match_each_joint():
    joints = [random_pmf((3, 4), seed=s, names=["a", "b"]) for s in range(3)]
    stack = SegmentedStack.of(joints)
    for names in (["a"], ["b", "a"], ["a", "b"]):
        assert [float(v).hex() for v in _entropies(stack, tuple(names))] == \
               [entropy(j, names).hex() for j in joints]


def test_float_measures_reject_a_stack_of_several_joints():
    joints = [random_pmf((3, 4, 2), seed=s, names=["a", "b", "c"]) for s in range(2)]
    stack = SegmentedStack.of(joints)
    for measure in (lambda: entropy(stack, ["a", "b"]),
                    lambda: conditional_entropy(stack, "a", "b")):
        with pytest.raises(InputError):
            measure()
    # a stack of one joint is that joint
    one = SegmentedStack.of(joints[:1])
    assert entropy(one, ["a", "b"]) == entropy(joints[0], ["a", "b"])
    assert isinstance(entropy(joints[0], "a"), float)
