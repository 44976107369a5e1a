"""Occlusion-mixture pixel model: frozen entropy oracles and sweep shape.

The frozen constants below were computed with an independent script that
builds the joint from scratch (dense mixture kernel, direct -sum p log p),
not through this package's adjoin pipeline.
"""

import math

import numpy as np
import pytest

from crlab import info_measures, pixel_model, prob_core
from crlab.analysis import render_cell
from crlab.errors import InputError, InternalConsistencyError
from crlab.info_measures import conditional_entropy, entropy
from crlab.pixel_model import (
    PARADIGMS,
    REPORT_FIELDS,
    PixelModelParams,
    build_joint,
    entropy_report,
    sweep_p,
)

# independent-oracle values, M=256
H_X_GIVEN_XP_P05 = 4.981551739955
I_X_XP_P05 = 3.018448260045
H_R_P100 = 8.721316223339
H_R_P050 = 5.342209851625
H_R_P025 = 2.980837066633
# bottleneck losses H(xp) - H(xq); floor cells make these exact dyadics
LOSS_Q2 = 1.0
LOSS_Q14 = 0.5703125
LOSS_Q64 = 6.0


class TestParams:
    def test_fractional_q_is_exact(self):
        from fractions import Fraction

        params = PixelModelParams(p=0.3, Q=1.4, M=16)
        assert params.Q == Fraction(7, 5)
        assert params.p == Fraction(3, 10)

    def test_validation(self):
        with pytest.raises(InputError):
            PixelModelParams(p=-0.1, Q=1)
        with pytest.raises(InputError):
            PixelModelParams(p=1.5, Q=1)
        with pytest.raises(InputError):
            PixelModelParams(p=0.5, Q=0.5)
        with pytest.raises(InputError):
            PixelModelParams(p=0.5, Q=1, M=1)


class TestJointStructure:
    def test_variables_present(self):
        pmf = build_joint(PixelModelParams(p=0.5, Q=2, M=8))
        assert set(pmf.names) >= {"x", "xp", "xq", "r"}

    @staticmethod
    def values(pmf, name):
        return pmf.idx[:, pmf.var_pos(name)] + pmf.alphabet(name)[0]

    def test_residual_is_difference(self):
        pmf = build_joint(PixelModelParams(p=0.5, Q=2, M=8))
        x, xp, r = (self.values(pmf, n) for n in ("x", "xp", "r"))
        assert np.array_equal(r, x - xp)

    def test_p_zero_copies_prediction(self):
        pmf = build_joint(PixelModelParams(p=0.0, Q=1, M=8))
        assert not self.values(pmf, "r").any()

    def test_xq_is_the_cell_of_xp(self):
        pmf = build_joint(PixelModelParams(p=0.5, Q=1.4, M=8))
        xp, xq = self.values(pmf, "xp"), self.values(pmf, "xq")
        assert np.array_equal(xq, xp * 5 // 7)
        assert pmf.alphabet("xq") == range(6)  # 7 * 5 // 7 = 5

    def test_x_marginal_uniform(self):
        pmf = build_joint(PixelModelParams(p=0.7, Q=2, M=32))
        assert math.isclose(entropy(pmf, "x"), 5.0, abs_tol=1e-12)


class TestFrozenOracles:
    def test_h_x_given_xp_at_half(self):
        rep = entropy_report(PixelModelParams(p=0.5, Q=1, M=256))
        assert abs(rep.H_X_given_Xp - H_X_GIVEN_XP_P05) < 1e-9
        assert abs(rep.I_X_Xp - I_X_XP_P05) < 1e-9

    @pytest.mark.parametrize("p,expected", [
        (1.0, H_R_P100), (0.5, H_R_P050), (0.25, H_R_P025),
    ])
    def test_residual_entropy(self, p, expected):
        rep = entropy_report(PixelModelParams(p=p, Q=1, M=256))
        assert abs(rep.H_R - expected) < 1e-9

    @pytest.mark.parametrize("Q,loss", [(2, LOSS_Q2), (1.4, LOSS_Q14), (64, LOSS_Q64)])
    def test_bottleneck_loss(self, Q, loss):
        pmf = build_joint(PixelModelParams(p=0.5, Q=Q, M=256))
        got = entropy(pmf, "xp") - entropy(pmf, "xq")
        assert abs(got - loss) < 1e-12

    def test_conditional_table_spot_checks(self):
        # (p, Q) -> (H(X|Xq), H(R|Xq)) from the independent table
        table = {
            (0.25, 2): (3.541689190, 2.801484573),
            (0.5, 64): (7.548794941, 5.071667758),
            (1.0, 2): (8.000000000, 8.003906250),
        }
        for (p, Q), (h_x, h_r) in table.items():
            rep = entropy_report(PixelModelParams(p=p, Q=Q, M=256))
            assert abs(rep.H_X_given_Xphat - h_x) < 1e-8
            assert abs(rep.H_R_given_Xphat - h_r) < 1e-8


class TestReportInvariants:
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("Q", [1, 2, 64])
    def test_conditioning_never_hurts_residual(self, p, Q):
        rep = entropy_report(PixelModelParams(p=p, Q=Q, M=64))
        assert rep.H_R_given_Xphat <= rep.H_R + 1e-9
        assert rep.H_R_given_Xp <= rep.H_R_given_Xphat + 1e-9

    def test_q1_collapses_xq_to_xp(self):
        rep = entropy_report(PixelModelParams(p=0.4, Q=1, M=64))
        assert abs(rep.H_X_given_Xphat - rep.H_X_given_Xp) < 1e-12
        assert abs(rep.H_R_given_Xphat - rep.H_R_given_Xp) < 1e-12

    def test_p_zero_residual_free(self):
        rep = entropy_report(PixelModelParams(p=0.0, Q=64, M=256))
        assert rep.H_R == 0.0
        assert rep.H_R_given_Xphat == 0.0

    def test_single_cell_bottleneck_carries_no_information(self):
        # Q >= M collapses xq to one cell, whose 65,536 weights sum to just
        # above 1 (p=0.05) or just below it (1 - 1.2e-12 at p=0.7) in
        # float64. Either way it is the whole distribution: 0 bits, on both
        # the per-row and the signature path, and no crash
        for p in (0.05, 0.3, 0.7):
            for Q in (256, 300, 1000):
                for rep in (entropy_report(PixelModelParams(p=p, Q=Q, M=256)),
                            sweep_p([p], [Q], M=256)[0]):
                    assert rep.I_X_Xphat == 0.0 and rep.I_R_Xphat == 0.0
                    assert rep.H_R_given_Xphat == rep.H_R
                    assert abs(rep.H_X_given_Xphat - 8.0) <= 1e-13

    def test_row_matches_fields(self):
        rep = entropy_report(PixelModelParams(p=0.3, Q=2, M=16))
        row = rep.row()
        assert len(row) == len(REPORT_FIELDS)
        assert row[REPORT_FIELDS.index("H_R")] == rep.H_R

    @pytest.mark.parametrize("row", PARADIGMS, ids=lambda row: row.label)
    def test_paradigm_bound_is_entropy_of_its_variables(self, row):
        params = PixelModelParams(p=0.3, Q=2, M=16)
        joint = build_joint(params)
        want = conditional_entropy(joint, row.coded, row.context or ())
        got = getattr(entropy_report(params), row.bound)
        assert got == pytest.approx(want, abs=1e-12)


class TestSweep:
    def test_row_count_and_membership(self):
        reports = sweep_p([0.2, 0.4], [1, 2], M=16)
        assert len(reports) == 4
        assert {(r.p, r.Q) for r in reports} == {
            (0.2, 1.0), (0.2, 2.0), (0.4, 1.0), (0.4, 2.0)}

    def test_conditional_worse_region_filter(self):
        reports = sweep_p([0.05, 0.3, 0.9], [2], M=64)
        # where the bottlenecked conditional coder loses to the residual coder
        worse = [r for r in reports if r.H_X_given_Xphat > r.H_R]
        # at tiny p the bottleneck says strictly worse; at p=0.9 it cannot be
        assert any(r.p == 0.05 for r in worse)
        assert all(r.p != 0.9 for r in worse)

    def test_report_checks_guard_both_paths(self, monkeypatch):
        # a negative tolerance fails every ladder and identity check, so
        # each path must raise if it runs them
        monkeypatch.setattr(pixel_model, "IDENTITY_TOL", -1.0)
        with pytest.raises(InternalConsistencyError, match="ladder"):
            entropy_report(PixelModelParams(p=0.3, Q=2, M=16))
        with pytest.raises(InternalConsistencyError, match="ladder"):
            sweep_p([0.3], [2], M=16)

    @pytest.mark.parametrize("Q", [1, 1.4, 2, 64, "M", 1000])
    def test_shared_support_matches_per_point_reports(self, Q):
        # the sweep sums over count classes and the report over support
        # rows: the two orders of summation agree to 1e-12 bits
        ps = [0, 1e-300, 1e-12, 0.01, 0.3, 0.5, 0.7, 0.99, 1]
        for M in (2, 3, 16, 256):
            q = M if Q == "M" else Q
            swept = sweep_p(ps, [q], M=M)
            assert [(r.Q, r.p) for r in swept] == [(float(q), float(p)) for p in ps]
            for p, got in zip(ps, swept):
                want = entropy_report(PixelModelParams(p=p, Q=q, M=M))
                for field in REPORT_FIELDS:
                    assert abs(getattr(got, field) - getattr(want, field)) <= 1e-12, \
                        (M, q, p, field)


@pytest.fixture
def mp():
    """mpmath at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        yield mpmath


def _reference_masses(mp, p, M):
    """(off, diag) of the pixel joint at p, a decimal string."""
    off = mp.mpf(p) / M**2
    return off, off + (1 - mp.mpf(p)) / M


def _minus_plogp(mp, w):
    return -w * mp.log(w, 2)


class TestHighPrecisionReference:
    """The sweep against closed forms at 50 digits. The masses are rounded
    to float64 once and about 500 terms are summed, so the sweep stays
    within 3e-15 bits here; the per-row sums of entropy_report drift by
    4e-15 to 6e-14 bits on these cells."""

    TOL = 3e-15

    @pytest.mark.parametrize("p", ["0.01", "0.3", "0.7", "0.99"])
    def test_residual_entropy(self, mp, p):
        M = 256
        off, diag = _reference_masses(mp, p, M)
        # r = 0 holds every diagonal point; r = ±k holds M - k off-diagonal ones
        want = _minus_plogp(mp, M * diag) + 2 * mp.fsum(
            _minus_plogp(mp, (M - k) * off) for k in range(1, M))
        assert abs(sweep_p([float(p)], [1], M=M)[0].H_R - want) <= self.TOL
        # Q >= M leaves one Xq cell, so H(R|Xphat) is H(R)
        assert abs(sweep_p([float(p)], [M], M=M)[0].H_R_given_Xphat - want) <= self.TOL

    def test_mutual_information_through_two_cells(self, mp):
        # Q=2, p=0.99: each (x, cell) pair holds d + o where the cell holds
        # x and 2o elsewhere; this cell's ninth printed digit moved when the
        # sweep left the per-row sums
        M = 256
        off, diag = _reference_masses(mp, "0.99", M)
        h_x_xq = (M * _minus_plogp(mp, diag + off)
                  + M * (M // 2 - 1) * _minus_plogp(mp, 2 * off))
        want = 8 + 7 - h_x_xq
        got = sweep_p([0.99], [2], M=M)[0].I_X_Xphat
        assert abs(got - want) <= self.TOL
        assert render_cell(got) == mp.nstr(want, 9) == "0.00673187982"


class _SortForbidden:
    """numpy as seen by a module, with np.unique failing loudly."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def unique(*args, **kwargs):
        raise AssertionError("sorted keys where a bincount fits")


def test_full_support_groups_without_sorting_and_builds_once_per_q(monkeypatch):
    """Guards the sweep's cost model without timing: at M=256 every grouping
    of an entropy report and every count signature is a bincount, and a
    sweep builds one support per Q for every p, 0 included."""
    for module in (prob_core, info_measures, pixel_model):
        monkeypatch.setattr(module, "np", _SortForbidden())
    builds = []
    real_build = pixel_model.build_joint

    def counting_build(params):
        builds.append(params)
        return real_build(params)

    monkeypatch.setattr(pixel_model, "build_joint", counting_build)
    entropy_report(PixelModelParams(p=0.3, Q=1.4, M=256))
    builds.clear()
    sweep_p([0, 0.05, 0.5, 1], [1, 64], M=256)
    assert builds == [PixelModelParams(p=1, Q=Q, M=256) for Q in (1, 64)]
