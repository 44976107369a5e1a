"""Rate-distortion solver against closed forms and structural oracles.

The binary-symmetric closed form R(D) = 1 - h2(D) is the gold standard
here; everything else leans on structure (point masses, independent or
copied side information, certificates, convexity of the envelope).
"""

import math

import numpy as np
import pytest

from crlab.errors import DomainError, InputError, InternalConsistencyError
from crlab.pixel_model import PARADIGMS, PixelModelParams, build_joint
from crlab.prob_core import JointPMF, integer_alphabet, marginalize
from crlab.rd_solver import (
    CONVEXITY_TOL,
    BAConfig,
    DistortionMatrix,
    RDCurve,
    RDPoint,
    compare_paradigms,
    conditional_rd_curve,
    default_slope_grid,
    rd_curve,
    squared_error,
)


def h2(x: float) -> float:
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def binary_uniform():
    a = integer_alphabet("u", 0, 1)
    src = JointPMF([("u", a)], [[0], [1]], [0.5, 0.5])
    hamming = DistortionMatrix(a, a, np.array([[0.0, 1.0], [1.0, 0.0]]))
    return a, src, hamming


class TestConfigAndMatrices:
    def test_config_validation(self):
        with pytest.raises(InputError):
            BAConfig(max_iters=0)
        with pytest.raises(InputError):
            BAConfig(tol=0.0)

    def test_distortion_matrix_validation(self):
        a = integer_alphabet("u", 0, 1)
        with pytest.raises(InputError):
            DistortionMatrix(a, a, np.zeros((2, 3)))
        with pytest.raises(InputError):
            DistortionMatrix(a, a, np.array([[0.0, -1.0], [1.0, 0.0]]))
        with pytest.raises(InputError):
            DistortionMatrix(a, a, np.array([[0.0, np.inf], [1.0, 0.0]]))

    def test_squared_error_values(self):
        a = integer_alphabet("u", 0, 2)
        d = squared_error(a, a).d
        assert d[0, 2] == 4.0 and d[1, 1] == 0.0 and d[2, 0] == 4.0


class TestCurveContainer:
    def test_assemble_prunes_dominated_points(self):
        pts = [RDPoint(1.0, 1.0, 1.0), RDPoint(0.9, 1.0, 1.1),
               RDPoint(0.5, 2.0, 0.5), RDPoint(0.6, 3.0, 0.1)]
        curve = RDCurve.assemble("c", pts)
        assert [(p.rate, p.distortion) for p in curve.points] == \
               [(0.9, 1.0), (0.5, 2.0)]

    def test_rate_at_interpolates_and_guards_span(self):
        curve = RDCurve("c", (RDPoint(1.0, 1.0, 1.0), RDPoint(0.0, 3.0, 0.1)))
        assert math.isclose(curve.rate_at(2.0), 0.5)
        with pytest.raises(DomainError):
            curve.rate_at(0.5)

    def test_convexity_guard(self):
        # middle point above the chord: not a lower convex envelope
        with pytest.raises(InternalConsistencyError):
            RDCurve("bad", (RDPoint(1.0, 1.0, 1.0), RDPoint(0.99, 2.0, 0.5),
                            RDPoint(0.0, 3.0, 0.1)))

    def test_convexity_tolerance_follows_solver_gap(self):
        pts = (RDPoint(1.0, 1.0, 1.0), RDPoint(0.5 + 1e-5, 2.0, 0.5), RDPoint(0.0, 3.0, 0.1))
        with pytest.raises(InternalConsistencyError):
            RDCurve("c", pts)
        assert RDCurve.assemble("c", pts, BAConfig(tol=1e-4).convexity_tol).points == pts
        assert BAConfig().convexity_tol == CONVEXITY_TOL
        assert BAConfig(tol=1e-2).convexity_tol == pytest.approx(1e-2 * math.log2(math.e))


class TestBinaryOracle:
    def test_matches_closed_form(self):
        a, src, hamming = binary_uniform()
        curve = rd_curve(src, a, hamming, np.arange(0.25, 4.5, 0.02))
        assert all(p.converged for p in curve.points)
        for D in np.linspace(0.08, 0.42, 12):
            assert abs(curve.rate_at(D) - (1 - h2(D))) < 1e-4

    def test_single_point_certificate(self):
        a, src, hamming = binary_uniform()
        pt = rd_curve(src, a, hamming, [1.0]).points[0]
        assert pt.converged
        # slope 1: optimal D solves log2((1-D)/D) = 1, i.e. D = 1/3
        assert abs(pt.distortion - 1 / 3) < 1e-6
        assert abs(pt.rate - (1 - h2(1 / 3))) < 1e-6


class TestDegenerateSources:
    def test_point_mass_has_zero_rate(self):
        a = integer_alphabet("u", 0, 3)
        src = JointPMF([("u", a)], [[2]], [1.0])
        curve = rd_curve(src, a, squared_error(a, a), np.geomspace(0.01, 100, 9))
        assert all(p.rate == 0.0 for p in curve.points)
        assert all(p.distortion == 0.0 for p in curve.points)

    def test_steep_slope_reaches_entropy(self):
        a, src, hamming = binary_uniform()
        pt = rd_curve(src, a, hamming, [60.0]).points[0]
        assert pt.distortion < 1e-12
        assert abs(pt.rate - 1.0) < 1e-6

    def test_shallow_slope_reaches_zero_rate(self):
        a, src, hamming = binary_uniform()
        pt = rd_curve(src, a, hamming, [1e-4]).points[0]
        assert pt.rate < 1e-6


class TestConditionalSolver:
    def test_independent_side_info_matches_unconditional(self):
        a = integer_alphabet("u", 0, 1)
        s = integer_alphabet("s", 0, 2)
        idx = [[i, j] for i in range(2) for j in range(3)]
        w = np.outer([0.5, 0.5], [0.2, 0.3, 0.5]).ravel()
        joint = JointPMF([("u", a), ("s", s)], idx, w)
        hamming = DistortionMatrix(a, a, np.array([[0.0, 1.0], [1.0, 0.0]]))
        grid = np.geomspace(0.3, 30, 12)
        cond = conditional_rd_curve(joint, "u", "s", a, hamming, grid)
        flat = rd_curve(marginalize(joint, ["u"]), a, hamming, grid)
        for pc, pf in zip(cond.points, flat.points):
            assert abs(pc.rate - pf.rate) < 1e-9
            assert abs(pc.distortion - pf.distortion) < 1e-9

    def test_copied_side_info_kills_rate(self):
        a = integer_alphabet("u", 0, 3)
        s = integer_alphabet("s", 0, 3)
        idx = [[i, i] for i in range(4)]
        joint = JointPMF([("u", a), ("s", s)], idx, np.full(4, 0.25))
        curve = conditional_rd_curve(joint, "u", "s", a, squared_error(a, a),
                                     np.geomspace(0.1, 10, 6))
        assert all(p.rate == 0.0 for p in curve.points)

    def test_deterministic_across_calls(self):
        pmf = build_joint(PixelModelParams(p=0.3, Q=2, M=8))
        r_alph = pmf.alphabet("r")
        d = squared_error(r_alph, r_alph)
        grid = np.geomspace(0.01, 100, 10)
        c1 = conditional_rd_curve(pmf, "r", "xq", r_alph, d, grid)
        c2 = conditional_rd_curve(pmf, "r", "xq", r_alph, d, grid)
        assert [(p.rate, p.distortion) for p in c1.points] == \
               [(p.rate, p.distortion) for p in c2.points]


class TestParadigmComparison:
    def test_labels_and_guard(self):
        curves = compare_paradigms(PixelModelParams(p=0.3, Q=2, M=8),
                                   np.geomspace(0.05, 50, 12))
        assert list(curves) == [row.label for row in PARADIGMS]
        assert list(curves) == ["res", "cond_ideal", "cond", "condres"]
        assert [c.label for c in curves.values()] == list(curves)
        with pytest.raises(InputError):
            compare_paradigms(PixelModelParams(p=0.3, Q=2, M=128))

    def test_condres_never_above_res(self):
        # conditioning on xq cannot hurt the residual coder: rt is drawn
        # from r alone, so the side information integrates out cleanly
        curves = compare_paradigms(PixelModelParams(p=0.3, Q=4, M=8),
                                   np.geomspace(0.05, 50, 16))
        res, condres = curves["res"], curves["condres"]
        lo = max(res.distortions[0], condres.distortions[0])
        hi = min(res.distortions[-1], condres.distortions[-1])
        for p in condres.points:
            if lo <= p.distortion <= hi:
                assert p.rate <= res.rate_at(p.distortion) + 1e-6

    @pytest.mark.parametrize("tol", [1e-4, 1e-2])
    def test_loose_solver_tolerance_still_assembles(self, tol):
        # a point certified to tol nats may sit tol*log2(e) bits above the
        # chord of its neighbours; the convexity check must allow that
        curves = compare_paradigms(PixelModelParams(p=0.1, Q=1, M=16),
                                   config=BAConfig(tol=tol))
        assert set(curves) == {"res", "cond_ideal", "cond", "condres"}
        assert all(c.convexity_tol == tol * math.log2(math.e) for c in curves.values())

    def test_all_points_certified(self):
        curves = compare_paradigms(PixelModelParams(p=0.7, Q=2, M=8),
                                   np.geomspace(0.05, 50, 12))
        for curve in curves.values():
            assert all(p.converged for p in curve.points), curve.label


class TestInputGuards:
    def test_multivariable_source_rejected(self):
        pmf = build_joint(PixelModelParams(p=0.3, Q=2, M=8))
        a = pmf.alphabet("x")
        with pytest.raises(InputError):
            rd_curve(pmf, a, squared_error(a, a), [1.0])

    def test_alphabet_mismatch_rejected(self):
        a, src, hamming = binary_uniform()
        other = integer_alphabet("v", 0, 2)
        with pytest.raises(InputError):
            rd_curve(src, other, hamming, [1.0])

    def test_default_grid_shape(self):
        g = default_slope_grid()
        assert len(g) == 64
        assert g[0] == pytest.approx(1e-3) and g[-1] == pytest.approx(1e3)
