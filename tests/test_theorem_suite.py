"""Identity and inequality checks on hand-built and randomized joints."""

import math
import sys
import tracemalloc
from itertools import combinations, count

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crlab import prob_core, theorem_suite
from crlab.cli import main
from crlab.errors import InputError, PreconditionError
from crlab.info_measures import _CHUNK, EntropyMemo, _entropies
from crlab.pixel_model import PixelModelParams, build_joint
from crlab.prob_core import JointPMF, adjoin_difference, quantizer_map
from crlab.theorem_suite import (
    CHECK_TOL,
    IDENTITY,
    CheckResult,
    Observation,
    TheoremReport,
    TrialFailure,
    check_lossless,
    check_lossy,
    format_report,
    replay_trial,
    report_csv_rows,
    run_randomized_suite,
    trial_seed,
)
from oracles import SegmentedStack, adjoin_channel, adjoin_map, adjoin_sum, random_pmf


def trial_pmf(t_seed, shape):
    """The joint of one suite trial, built one joint operation at a time,
    with the suite's order of draws."""
    rng = np.random.default_rng(t_seed)
    pmf = random_pmf(shape, seed=rng, names=("x", "xp"))
    k = int(rng.integers(1, shape[1] + 1))
    images = rng.integers(0, k, size=shape[1])
    pmf = adjoin_map(pmf, "xp", images, range(k), "xq")
    pmf = adjoin_difference(pmf, "x", "xp", "r")
    r_alph = pmf.alphabet("r")
    kernel = rng.dirichlet(np.ones(len(r_alph)), size=len(r_alph))
    pmf = adjoin_channel(pmf, "r", kernel, r_alph, "rt")
    return adjoin_sum(pmf, "xp", "rt", "xt")


def trial_reports(t_seed, shape):
    pmf = trial_pmf(t_seed, shape)
    return check_lossless(pmf), check_lossy(pmf)


def fold(worst, failures, reports, k, t_seed):
    """Fold one trial's checks into the running worst, one at a time."""
    for c in (c for r in reports for c in r.checks):
        prev = worst.get(c.check_id)
        if prev is None:
            worst[c.check_id] = c
        else:
            if c.kind == IDENTITY:
                value = c.value if abs(c.value) > abs(prev.value) else prev.value
            else:
                value = min(c.value, prev.value)
            worst[c.check_id] = CheckResult(
                c.check_id, c.kind, value, prev.passed and c.passed,
                prev.pass_count + c.pass_count, prev.trial_count + 1)
        if not c.passed:
            failures.append(TrialFailure(k, t_seed, c.check_id, c.value))


def reference_suite(trials, shape, seed):
    """run_randomized_suite as a trial-by-trial fold of check_lossless and
    check_lossy on joints built by trial_pmf."""
    worst, failures = {}, []
    gap_min, gap_premise, leak_max = math.inf, False, -math.inf
    for k in range(trials):
        t_seed = trial_seed(seed, k)
        reports = trial_reports(t_seed, shape)
        fold(worst, failures, reports, k, t_seed)
        obs = {o.obs_id: o for r in reports for o in r.observations}
        g = obs["conditional_condres_gap"]
        if g.premise:
            gap_premise = True
            gap_min = min(gap_min, g.value)
        leak_max = max(leak_max, obs["optimal_coder_leakage"].value)
    observations = (
        Observation("conditional_condres_gap",
                    gap_min if gap_premise else math.nan, premise=gap_premise),
        Observation("optimal_coder_leakage", leak_max),
    )
    return TheoremReport(tuple(worst.values()), observations, trial_count=trials,
                         seed=seed, failures=tuple(failures))


def reference_replay(seed, k, shape):
    t_seed = trial_seed(seed, k)
    reports = trial_reports(t_seed, shape)
    worst, failures = {}, []
    fold(worst, failures, reports, k, t_seed)
    return TheoremReport(tuple(worst.values()),
                         tuple(o for r in reports for o in r.observations),
                         trial_count=1, seed=t_seed, failures=tuple(failures))


def bits(report):
    """Every field of a report, floats by their exact bits."""
    def f(v):
        return v.hex() if isinstance(v, float) else v
    return (
        [(c.check_id, c.kind, f(c.value), c.passed, c.pass_count, c.trial_count)
         for c in report.checks],
        [(o.obs_id, f(o.value), o.premise) for o in report.observations],
        [(x.trial_index, x.trial_seed, x.check_id, f(x.value)) for x in report.failures],
        report.trial_count, report.seed,
    )


def trial_rows(shape):
    """Support rows of one suite trial of the given shape before zero
    weights are dropped: every (x, xp, rt) point."""
    return shape[0] * shape[1] * (shape[0] + shape[1] - 1)


def block_trials(shape):
    """Trials in a full block of the suite at the given shape."""
    return max(1, theorem_suite._BLOCK_ROWS // trial_rows(shape))


def spanning(shape):
    """A trial count that fills two blocks at the given shape and starts
    a third."""
    return 2 * block_trials(shape) + 1


# the smallest square shape of which one trial exceeds the block budget
OVER_BUDGET = next((s, s) for s in count(1) if trial_rows((s, s)) > theorem_suite._BLOCK_ROWS)


@pytest.fixture(scope="module")
def pixel_pmf():
    return build_joint(PixelModelParams(p=0.4, Q=2, M=16))


class TestLossless:
    def test_all_identities_hold_on_pixel_model(self, pixel_pmf):
        report = check_lossless(pixel_pmf)
        assert report.all_passed
        for c in report.checks:
            if c.kind == "identity":
                assert abs(c.value) < 1e-9, c.check_id

    def test_inequalities_have_nonnegative_margin(self, pixel_pmf):
        report = check_lossless(pixel_pmf)
        for c in report.checks:
            if c.kind == "inequality":
                assert c.value >= -1e-9, c.check_id

    def test_missing_variable_rejected(self):
        pmf = random_pmf((3, 3), seed=1, names=["x", "y"])
        with pytest.raises((InputError, PreconditionError)):
            check_lossless(pmf)


def offset_pmf(r_lo, r_values):
    """x in 1..3 and xp in 2..3 at the pairs (2, 2), (1, 2), (3, 3), xq the
    cell of xp at step 2, and the given r values on the alphabet
    r_lo..r_lo+1."""
    pairs = [(2, 2), (1, 2), (3, 3)]
    variables = [("x", range(1, 4)), ("xp", range(2, 4)),
                 ("xq", range(1)), ("r", range(r_lo, r_lo + 2))]
    idx = [[x - 1, xp - 2, 0, r - r_lo] for (x, xp), r in zip(pairs, r_values)]
    return JointPMF(variables, idx, [0.5, 0.25, 0.25])


class TestDifferencePrecondition:
    # r = x - xp is 0, -1, 0 at the three pairs

    def test_exact_residual_passes(self):
        pmf = offset_pmf(-1, (0, -1, 0))
        assert check_lossless(pmf).all_passed

    def test_wrong_residual_rejected(self):
        pmf = offset_pmf(-1, (0, -1, -1))
        with pytest.raises(PreconditionError):
            check_lossless(pmf)

    def test_residual_missing_from_alphabet_rejected(self):
        # the alphabet 0..1 has no -1, so no r index matches the second pair
        pmf = offset_pmf(0, (0, 1, 0))
        with pytest.raises(PreconditionError):
            check_lossless(pmf)

    @pytest.mark.parametrize("lo", [1, -2])
    def test_residual_off_only_outside_its_alphabet_rejected(self, lo):
        # x in lo..lo+2 and xp in lo..lo+1, so x - xp is 0, -1, 0, 2 at the
        # four rows; r's alphabet 0..1 lacks -1 and 2, and r matches x - xp
        # at every row where the alphabet holds it
        variables = [("x", range(lo, lo + 3)), ("xp", range(lo, lo + 2)), ("r", range(2))]
        pmf = JointPMF(variables, [[0, 0, 0], [0, 1, 0], [1, 1, 0], [2, 0, 1]],
                       np.full(4, 0.25))
        with pytest.raises(PreconditionError, match="on 2 support points"):
            theorem_suite._require_difference(pmf, "r", "x", "xp")


class TestLossy:
    def test_identities_on_pixel_model(self, pixel_pmf):
        # check_lossy wants a reconstruction xt; attach a noisy channel on r
        r_alph = pixel_pmf.alphabet("r")
        nr = len(r_alph)
        rng = np.random.default_rng(3)
        kernel = rng.dirichlet(np.full(nr, 0.7), size=nr)
        pmf = adjoin_channel(pixel_pmf, "r", kernel, r_alph, "rt")
        pmf = adjoin_sum(pmf, "xp", "rt", "xt")
        report = check_lossy(pmf)
        assert report.all_passed

    def test_adjoins_missing_residuals(self):
        rng = np.random.default_rng(5)
        pmf = random_pmf((4, 4), seed=rng, names=("x", "xp"))
        pmf = adjoin_map(pmf, "xp", quantizer_map(pmf.alphabet("xp"), 2),
                         range(2), "xq")
        kernel = rng.dirichlet(np.ones(4), size=4)
        pmf = adjoin_channel(pmf, "x", kernel, range(4), "xt")
        assert pmf.names == ("x", "xp", "xq", "xt")
        full = adjoin_difference(adjoin_difference(pmf, "x", "xp", "r"), "xt", "xp", "rt")
        assert repr(check_lossy(pmf)) == repr(check_lossy(full))

    def test_missing_reconstruction_rejected(self, pixel_pmf):
        with pytest.raises(PreconditionError):
            check_lossy(pixel_pmf)

    def test_broken_premise_rejected(self, monkeypatch):
        pmf = trial_pmf(trial_seed(0, 1), (4, 4))
        assert check_lossy(pmf).all_passed
        xq, rt = pmf.var_pos("xq"), pmf.var_pos("rt")
        # one row's xq moved off its xp cell's image: xq is no function of xp
        split = pmf.idx.copy()
        row = np.flatnonzero(split[:, 1] == split[0, 1])[1]
        split[row, xq] = (split[row, xq] + 1) % len(pmf.alphabet("xq"))
        # every rt moved by one symbol: rt != xt - xp
        shifted = pmf.idx.copy()
        shifted[:, rt] = (shifted[:, rt] + 1) % len(pmf.alphabet("rt"))
        # the premise fails before any memo that reads xq through xp exists
        built = []
        monkeypatch.setattr(theorem_suite, "_BottleneckMemo", built.append)
        for idx in (split, shifted):
            with pytest.raises(PreconditionError):
                check_lossy(JointPMF(pmf.variables, idx, pmf.probs))
        with pytest.raises(PreconditionError):
            check_lossless(JointPMF(pmf.variables, split, pmf.probs))
        assert built == []

    def test_identities_on_arbitrary_joint(self):
        # nothing pixel-specific: random 6x6 joint, random bottleneck
        report = replay_trial(seed=123, k=0, shape=(6, 6))
        assert report.all_passed
        for c in report.checks:
            if c.kind == "identity":
                assert abs(c.value) < 1e-9


class TestRandomizedSuite:
    def test_premises_checked_once_per_joint_or_block(self, monkeypatch):
        """Each premise check groups or scans a whole joint: check_lossless
        and check_lossy check theirs once. Every block of a run holds the
        layout's rows, so a run checks r = x - xp and rt = xt - xp once,
        on the layout, and each block checks that xq is a function of xp."""
        calls = []

        def counting(name):
            real = getattr(theorem_suite, name)

            def wrapper(pmf, *names):
                calls.append(names)
                return real(pmf, *names)
            return wrapper

        for name in ("_require_deterministic", "_require_difference"):
            monkeypatch.setattr(theorem_suite, name, counting(name))
        lossless = [("xp", "xq"), ("r", "x", "xp")]
        lossy = lossless + [("rt", "xt", "xp")]
        pmf = trial_pmf(trial_seed(0, 0), (8, 8))
        check_lossless(pmf)
        assert calls == lossless
        calls.clear()
        check_lossy(pmf)
        assert calls == lossy
        calls.clear()
        # two full blocks of 8x8 trials and a partial third
        run_randomized_suite(spanning((8, 8)), (8, 8), seed=0)
        assert calls == [("r", "x", "xp"), ("rt", "xt", "xp")] + [("xp", "xq")] * 3

    @pytest.mark.parametrize("column", ["r", "rt"])
    def test_layout_off_its_differences_stops_the_run(self, monkeypatch, column):
        """A layout row with r != x - xp or rt != xt - xp stops a run with
        PreconditionError before any block is built or grouped."""
        trial_layout = theorem_suite._trial_layout

        def broken(shape):
            layout = trial_layout(shape)
            rows = layout.rows
            idx = rows.idx.copy()
            c = rows.var_pos(column)
            idx[5, c] = (idx[5, c] + 1) % len(rows.variables[c][1])
            return layout._replace(rows=JointPMF(rows.variables, idx, rows.probs, _trusted=True))

        built = []
        monkeypatch.setattr(theorem_suite, "_trial_layout", broken)
        monkeypatch.setattr(theorem_suite, "_trial_stack", lambda *args: built.append(args))
        with pytest.raises(PreconditionError, match=f"'{column}' != "):
            run_randomized_suite(3, (4, 4), seed=0)
        assert built == []

    def test_small_fuzz_run_passes(self):
        report = run_randomized_suite(60, (6, 5), seed=11)
        assert report.all_passed
        assert report.trial_count == 60
        for c in report.checks:
            assert c.trial_count == 60
            assert c.pass_count == 60
            if c.kind == "identity":
                assert abs(c.value) < CHECK_TOL
            else:
                assert c.value >= -CHECK_TOL

    def test_deterministic_given_seed(self):
        a = run_randomized_suite(10, (4, 4), seed=5)
        b = run_randomized_suite(10, (4, 4), seed=5)
        assert [(c.check_id, c.value) for c in a.checks] == \
               [(c.check_id, c.value) for c in b.checks]

    def test_replay_reproduces_one_trial(self):
        # k = b, b + 1 and 2b - 1 sit first, inside and last in the second
        # block of b trials of the suite run
        b = block_trials((8, 8))
        suite = run_randomized_suite(3 * b, (8, 8), seed=21)
        for k in (b, b + 1, 2 * b - 1):
            single = replay_trial(seed=21, k=k, shape=(8, 8))
            assert single.seed == trial_seed(21, k)
            assert single.all_passed == suite.all_passed
            assert bits(single) == bits(reference_replay(21, k, (8, 8)))

    @pytest.mark.parametrize("trials, shape, seed", [
        (spanning((8, 8)), (8, 8), 17),
        (30, (5, 4), 3),
        (5, (1, 1), 0),
        (2, (16, 16), 8),               # 7,936 rows a trial, two to a block
        (spanning((3, 2)), (3, 2), 1),  # H(R) < H(X) on some trials
        (2, OVER_BUDGET, 8),            # one trial exceeds the block budget
    ])
    def test_blocks_match_one_joint_at_a_time(self, trials, shape, seed):
        """Stacked trials give every value, pass count, observation and
        failure bit for bit as check_lossless/check_lossy trial by trial."""
        assert bits(run_randomized_suite(trials, shape, seed)) == \
            bits(reference_suite(trials, shape, seed))

    @pytest.mark.parametrize("shape, seed", [((8, 8), 2), ((3, 2), 6)])
    def test_block_size_never_changes_a_bit(self, monkeypatch, shape, seed):
        """One trial a block, the old 4,096 rows, the budget and one block
        for the whole run give the same report bit for bit."""
        trials = spanning(shape)
        budgets = (1, 4096, theorem_suite._BLOCK_ROWS, sys.maxsize)
        reports = []
        for rows in budgets:
            monkeypatch.setattr(theorem_suite, "_BLOCK_ROWS", rows)
            reports.append(bits(run_randomized_suite(trials, shape, seed)))
        assert all(r == reports[0] for r in reports[1:])

    def test_wide_alphabet_matches_one_joint_at_a_time(self):
        # xt of a (130, 2) trial has 132 symbols
        assert bits(run_randomized_suite(2, (130, 2), 6)) == \
            bits(reference_suite(2, (130, 2), 6))

    def test_block_memory_stays_small(self):
        # all 250 trials in one block would take about 14 MB; a first
        # small run leaves out what the first call allocates once (about
        # 0.8 MB)
        run_randomized_suite(2, (8, 8), seed=0)
        tracemalloc.start()
        try:
            run_randomized_suite(250, (8, 8), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6, f"peak {peak / 1e6:.2f} MB"

    @given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1e-16, -1e-16, 2.0]),
                              st.sampled_from([0.0, -0.0, 1e-16, -1e-16, 2.0])),
                    min_size=1, max_size=6))
    def test_fold_keeps_what_folding_trial_by_trial_keeps(self, rows):
        # ties between 0.0 and -0.0 decide the sign the report prints
        values = np.array(rows).T
        kinds = ("identity", "inequality")
        worst = {}
        for t in range(values.shape[1]):
            fold(worst, [], [TheoremReport(tuple(
                CheckResult(kind, kind, float(values[c, t]), True, 1)
                for c, kind in enumerate(kinds)))], t, 0)
        folded = theorem_suite._fold(np.array([True, False]), values)
        assert [v.hex() for v in folded.tolist()] == \
               [worst[kind].value.hex() for kind in kinds]

    def test_large_trial_sums_more_than_one_chunk(self):
        # the (16, 16) case above reaches the chunked partials folded by fsum
        pmf = trial_pmf(trial_seed(8, 0), (16, 16))
        groups = np.count_nonzero(pmf.group_probs(("x", "xp", "xq", "xt"))[0])
        assert groups == 7936 > _CHUNK

    def test_failures_come_in_trial_then_check_order(self, monkeypatch):
        # a tolerance below the rounding residue of the identities makes
        # some of them fail on some trials
        monkeypatch.setattr(theorem_suite, "CHECK_TOL", 1e-15)
        trials = spanning((8, 8))
        report = run_randomized_suite(trials, (8, 8), seed=4)
        order = {c.check_id: i for i, c in enumerate(report.checks)}
        keys = [(f.trial_index, order[f.check_id]) for f in report.failures]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert 0 < len({f.trial_index for f in report.failures}) < trials
        # and they span more than one block
        assert len({f.trial_index // block_trials((8, 8)) for f in report.failures}) > 1
        assert bits(report) == bits(reference_suite(trials, (8, 8), 4))

    def test_cli_prints_replay_keys_and_fails(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(theorem_suite, "CHECK_TOL", 1e-15)
        code = main(["verify", "--trials", "9", "--shape", "8x8", "--seed", "4",
                     "--out", str(tmp_path)])
        out = capsys.readouterr()
        assert code == 1
        assert "verification FAILED" in out.err
        failures = run_randomized_suite(9, (8, 8), seed=4).failures
        assert f"{len(failures)} failing trial(s); first replay keys:" in out.out
        for f in failures[:5]:
            assert (f"trial {f.trial_index} seed {f.trial_seed}: "
                    f"{f.check_id} value {f.value:.3e}") in out.out

    def test_vacuous_single_symbol_trial(self):
        # 1x1 alphabets: every entropy is zero, identities hold trivially
        report = run_randomized_suite(1, (1, 1), seed=0)
        assert report.all_passed

    def test_trial_count_validated(self):
        with pytest.raises(InputError):
            run_randomized_suite(0, (4, 4))
        with pytest.raises(InputError):
            run_randomized_suite(5, (4, 4, 4))
        # counts, sizes, seeds and trial indices are integers, never
        # truncated, parsed or read modulo 2**64
        for trials, shape, seed, what in [
                (2.7, (4, 4), 0, "trial count must be an integer"),
                ("5", (4, 4), 0, "trial count must be an integer"),
                (True, (4, 4), 0, "trial count must be an integer"),
                (2, (2.5, 3), 0, "alphabet size must be an integer"),
                (2, ("a", 2), 0, "alphabet size must be an integer"),
                (3, 8, 0, "the two alphabet sizes"),
                (2, (4, 4), 1.5, "seed must be an integer"),
                (2, (4, 4), -1, "seed must fit in 64 bits"),
                (2, (4, 4), 2**64, "seed must fit in 64 bits")]:
            with pytest.raises(InputError, match=what):
                run_randomized_suite(trials, shape, seed)
        for seed, k, shape, what in [(0, -1, (4, 4), "trial index must be >= 0"),
                                     (0, 1.0, (4, 4), "trial index must be an integer"),
                                     (2**64, 0, (4, 4), "seed must fit in 64 bits"),
                                     (0, 0, 8, "the two alphabet sizes")]:
            with pytest.raises(InputError, match=what):
                replay_trial(seed, k, shape)
        assert repr(run_randomized_suite(np.int64(3), (np.int8(4), 4), np.uint64(5))) == \
            repr(run_randomized_suite(3, (4, 4), 5))

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0)])
    def test_empty_alphabet_rejected(self, shape):
        with pytest.raises(InputError):
            run_randomized_suite(3, shape)

    def test_observations_present(self):
        report = run_randomized_suite(5, (4, 4), seed=9)
        ids = {o.obs_id for o in report.observations}
        # the condres-vs-conditional gap is observed, not asserted: it has
        # certified counterexamples in both directions
        assert "conditional_condres_gap" in ids
        assert "optimal_coder_leakage" in ids


# every name tuple that holds xp and xq, in sorted order
XP_XQ_TUPLES = [tuple(sorted(("xp", "xq") + rest))
                for k in range(5) for rest in combinations(("r", "rt", "x", "xt"), k)]


def first_block(seed, trials, shape):
    """The block of the first trials of the run seeded by seed."""
    layout = theorem_suite._trial_layout(shape)
    return theorem_suite._trial_stack([trial_seed(seed, k) for k in range(trials)],
                                      shape, layout)


def own_keys(block):
    """block as a SegmentedStack: every trial's rows in full, grouped by
    keys built from those rows."""
    n, rows = len(block), block.layout.rows
    idx = np.tile(rows.idx, (n, 1))
    idx[:, rows.var_pos("xq")] = block.xq
    return SegmentedStack(rows.variables, idx, block.probs,
                          np.repeat(np.arange(n), rows.n_points), block.sizes)


def hexes(values):
    return [v.hex() for v in np.asarray(values).tolist()]


class TestLayoutGrouping:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 2**32 - 1),
           st.integers(1, 3))
    @example(16, 16, 8, 2)
    def test_xq_read_through_xp_is_bit_exact(self, nx, nxp, seed, trials):
        """Once xq is known to be a function of xp, the suite's memo gives
        every entropy over xp and xq bit for bit as grouping by both."""
        shape = (nx, nxp)
        block, pmf = first_block(seed, trials, shape), trial_pmf(trial_seed(seed, 0), shape)
        theorem_suite._require_deterministic(block, "xp", "xq")
        theorem_suite._require_lossy(pmf)
        for pmf in (block, pmf):
            h = theorem_suite._BottleneckMemo(pmf)
            for names in XP_XQ_TUPLES:
                assert hexes(h(*names)) == hexes(_entropies(pmf, names)), names

    @pytest.mark.parametrize("shape", [(8, 8), (3, 2), (1, 1), (16, 16)])
    def test_zero_weight_rows_change_no_entropy(self, shape):
        """Rows of weight 0 among a stack's rows, and keys built from the
        run's layout, leave every entropy the checks use bit for bit."""
        block = first_block(7, 3, shape)
        memo = EntropyMemo(block)
        theorem_suite._lossless(block, memo)
        theorem_suite._lossy(block, memo)
        assert len(memo.memo) == 21
        # a zero-weight row of random symbols before every third row, in
        # the joint of that row
        rng = np.random.default_rng(0)
        own = own_keys(block)
        at = np.arange(0, own.n_points, 3)
        rows = np.column_stack([rng.integers(0, len(a), at.size) for _, a in own.variables])
        zeros = SegmentedStack(own.variables, np.insert(own.idx, at, rows, axis=0),
                               np.insert(own.probs, at, 0.0),
                               np.insert(own.seg, at, own.seg[at]), own.sizes)
        for names in memo.memo:
            want = hexes(_entropies(own, names))
            assert hexes(_entropies(block, names)) == want, names
            assert hexes(_entropies(zeros, names)) == want, names

    def test_trial_with_a_zero_weight_matches_one_joint_at_a_time(self, monkeypatch):
        """A trial whose p(x, xp) weighs one cell exactly 0 keeps that
        cell's rows in its block; the report stays bit for bit."""
        seed, trials = 3, spanning((8, 8))
        zeroed = trial_seed(seed, block_trials((8, 8)) + 1)  # in the second block
        default_rng = np.random.default_rng

        class OneZeroCell(np.random.Generator):
            def dirichlet(self, alpha, size=None):
                out = super().dirichlet(alpha, size)
                if size is None:  # p(x, xp): the first cell's mass moves to the second
                    out[1] += out[0]
                    out[0] = 0.0
                return out

        def rng(s=None):
            return OneZeroCell(np.random.PCG64(s)) if s == zeroed else default_rng(s)

        monkeypatch.setattr(np.random, "default_rng", rng)
        assert trial_pmf(zeroed, (8, 8)).n_points < trial_rows((8, 8))
        # the suite keeps the zero cell's 15 rows, one per rt symbol
        alone = theorem_suite._trial_stack([zeroed], (8, 8), theorem_suite._trial_layout((8, 8)))
        assert np.count_nonzero(alone.probs == 0.0) == 15
        assert bits(run_randomized_suite(trials, (8, 8), seed)) == \
            bits(reference_suite(trials, (8, 8), seed))

    def test_spanning_run_groups_densely_on_keys_built_once(self, monkeypatch):
        """At 8x8 no grouping of a run sorts its keys, and each layout key
        is built once for the run, not once per block."""
        dense, built = [], []
        group_rows, ravel_rows = prob_core._group_rows, prob_core._ravel_rows

        def grouping(key, probs, span):
            weights, groups = group_rows(key, probs, span)
            dense.append(groups is None)
            return weights, groups

        def ravel(idx, cols, sizes):
            built.append(tuple(cols))
            return ravel_rows(idx, cols, sizes)

        monkeypatch.setattr(prob_core, "_group_rows", grouping)
        monkeypatch.setattr(prob_core, "_ravel_rows", ravel)
        run_randomized_suite(spanning((8, 8)), (8, 8), seed=0)
        assert dense and all(dense)
        # three blocks, each grouping by at least every key built
        assert len(set(built)) == len(built) and 3 * len(built) <= len(dense)


class TestReporting:
    def test_format_report_mentions_every_check(self):
        report = run_randomized_suite(3, (4, 4), seed=2)
        text = format_report(report)
        for c in report.checks:
            assert c.check_id in text
        assert "3 trial(s)" in text

    def test_csv_rows_header_and_width(self):
        report = run_randomized_suite(3, (4, 4), seed=2)
        rows = report_csv_rows(report)
        assert rows[0] == ("check_id", "kind", "worst", "pass_count", "trial_count")
        assert all(len(r) == 5 for r in rows)
        assert len(rows) == 1 + len(report.checks) + len(report.observations)

    def test_lookup_by_check_id(self):
        report = run_randomized_suite(2, (4, 4), seed=2)
        c = report.check(report.checks[0].check_id)
        assert c is report.checks[0]
        with pytest.raises(InputError):
            report.check("no_such_check")
