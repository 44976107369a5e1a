"""Identity and inequality checks on hand-built and randomized joints."""

import math
from fractions import Fraction

import pytest

from crlab.errors import InputError, PreconditionError
from crlab.pixel_model import PixelModelParams, build_joint
from crlab.prob_core import Alphabet, JointPMF
from crlab.theorem_suite import (
    CHECK_TOL,
    check_lossless,
    check_lossy,
    format_report,
    replay_trial,
    report_csv_rows,
    run_randomized_suite,
    trial_seed,
)


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
        from crlab.prob_core import random_pmf

        pmf = random_pmf((3, 3), seed=1, names=["x", "y"])
        with pytest.raises((InputError, PreconditionError)):
            check_lossless(pmf)


def half_step_pmf(r_symbols, r_values):
    """x, xp on half-integer alphabets, xq = xp, and the given r column."""
    h = Fraction(1, 2)
    pairs = [(h, 0), (0, h), (1, h)]
    alphs = [Alphabet("x", (0, h, 1)), Alphabet("xp", (0, h)),
             Alphabet("xq", (0, h)), Alphabet("r", r_symbols)]
    idx = [[alphs[0].index[x], alphs[1].index[xp], alphs[2].index[xp],
            alphs[3].index[r]] for (x, xp), r in zip(pairs, r_values)]
    return JointPMF(alphs, idx, [0.5, 0.25, 0.25])


class TestDifferencePrecondition:
    h = Fraction(1, 2)

    def test_exact_residual_passes(self):
        pmf = half_step_pmf((-self.h, self.h), (self.h, -self.h, self.h))
        assert check_lossless(pmf).all_passed

    def test_wrong_residual_rejected(self):
        pmf = half_step_pmf((-self.h, self.h), (self.h, -self.h, -self.h))
        with pytest.raises(PreconditionError):
            check_lossless(pmf)

    def test_residual_missing_from_alphabet_rejected(self):
        q = Fraction(1, 4)
        pmf = half_step_pmf((-self.h, q), (q, -self.h, q))
        with pytest.raises(PreconditionError):
            check_lossless(pmf)


class TestLossy:
    def test_identities_on_pixel_model(self, pixel_pmf):
        # check_lossy wants a reconstruction xt; attach a noisy channel on r
        import numpy as np
        from crlab.prob_core import Alphabet, adjoin_channel, adjoin_sum

        r_alph = pixel_pmf.alphabet("r")
        nr = len(r_alph)
        rng = np.random.default_rng(3)
        kernel = rng.dirichlet(np.full(nr, 0.7), size=nr)
        rt_alph = Alphabet("rt_vals", r_alph.symbols)
        pmf = adjoin_channel(pixel_pmf, "r", kernel, rt_alph, "rt")
        pmf = adjoin_sum(pmf, "xp", "rt", "xt")
        report = check_lossy(pmf)
        assert report.all_passed

    def test_missing_reconstruction_rejected(self, pixel_pmf):
        with pytest.raises(PreconditionError):
            check_lossy(pixel_pmf)

    def test_identities_on_arbitrary_joint(self):
        # nothing pixel-specific: random 6x6 joint, random bottleneck
        report = replay_trial(seed=123, k=0, shape=(6, 6))
        assert report.all_passed
        for c in report.checks:
            if c.kind == "identity":
                assert abs(c.value) < 1e-9


class TestRandomizedSuite:
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
        suite = run_randomized_suite(8, (5, 4), seed=21)
        single = replay_trial(seed=21, k=3, shape=(5, 4))
        assert single.seed == trial_seed(21, 3)
        assert single.all_passed == suite.all_passed

    def test_vacuous_single_symbol_trial(self):
        # 1x1 alphabets: every entropy is zero, identities hold trivially
        report = run_randomized_suite(1, (1, 1), seed=0)
        assert report.all_passed

    def test_trial_count_validated(self):
        with pytest.raises(InputError):
            run_randomized_suite(0, (4, 4))
        with pytest.raises(InputError):
            run_randomized_suite(5, (4, 4, 4))

    def test_observations_present(self):
        report = run_randomized_suite(5, (4, 4), seed=9)
        ids = {o.obs_id for o in report.observations}
        # the condres-vs-conditional gap is observed, not asserted: it has
        # certified counterexamples in both directions
        assert "conditional_condres_gap" in ids
        assert "optimal_coder_leakage" in ids


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
