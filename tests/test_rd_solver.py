"""Rate-distortion solver against closed forms and structural oracles.

The binary-symmetric closed form R(D) = 1 - h2(D) is the gold standard
here; everything else leans on structure (point masses, independent or
copied side information, certificates, convexity of the envelope).
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crlab import rd_solver
from crlab.errors import DomainError, InputError, InternalConsistencyError
from crlab.pixel_model import PARADIGMS, PixelModelParams, build_joint
from crlab.prob_core import JointPMF, integer_alphabet, marginalize
from crlab.rd_solver import (
    CONVEXITY_TOL,
    MAX_ITERS,
    TOL,
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
        assert TOL * math.log2(math.e) < CONVEXITY_TOL


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

    @pytest.mark.parametrize("grid", [[], [1.0, 0.0], [1.0, -2.0], [1.0, math.nan],
                                      [1.0, math.inf], [[1.0, 2.0]]])
    def test_bad_slope_grid_rejected_before_any_solve(self, grid, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the grid was checked")

        monkeypatch.setattr(rd_solver, "_ba_stack", no_solve)
        a, src, hamming = binary_uniform()
        with pytest.raises(InputError):
            rd_curve(src, a, hamming, grid)
        with pytest.raises(InputError):
            compare_paradigms(PixelModelParams(p=0.3, Q=2, M=8), grid)


class TestCertificates:
    def test_points_carry_their_certificate(self):
        curves = compare_paradigms(PixelModelParams(p=0.3, Q=2, M=16))
        for curve in curves.values():
            for pt in curve.points:
                assert pt.converged, (curve.label, pt)
                assert 0.0 <= pt.gap_bits <= TOL * math.log2(math.e)
                assert 1 <= pt.iters <= MAX_ITERS

    def test_gap_bounds_an_uncertified_point(self, monkeypatch):
        # binary source p(1) = 0.2 under Hamming distortion: at slope s > 2
        # the optimum is D* = 1/(1 + 2^s), R* = h2(0.2) - h2(D*); after one
        # update, R + s*D exceeds the optimum by no more than gap_bits
        a = integer_alphabet("u", 0, 1)
        src = JointPMF([("u", a)], [[0], [1]], [0.8, 0.2])
        hamming = DistortionMatrix(a, a, np.array([[0.0, 1.0], [1.0, 0.0]]))
        slope = 4.0
        monkeypatch.setattr(rd_solver, "MAX_ITERS", 1)
        pt = rd_curve(src, a, hamming, [slope]).points[0]
        assert not pt.converged and pt.iters == 1
        d_opt = 1 / (1 + 2 ** slope)
        excess = pt.rate + slope * pt.distortion - (h2(0.2) - h2(d_opt) + slope * d_opt)
        assert 1e-6 < excess <= pt.gap_bits + 1e-12


    def test_polish_step_length_overflow_is_silent(self, monkeypatch):
        # a denormal negative Newton component puts q / delta past the
        # float range; the step along it is then unbounded, which the
        # inf it becomes already says
        real_solve = np.linalg.solve
        calls = []

        def denormal_step(A, g):
            delta = real_solve(A, g)
            delta[0] = -5e-324
            calls.append(delta)
            return delta

        monkeypatch.setattr(np.linalg, "solve", denormal_step)
        K = np.exp(-np.array([[0.0, 1.0], [1.0, 0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rd_solver._newton_polish(np.array([0.7, 0.3]), np.array([True, True]),
                                     K, np.array([0.5, 0.5]))
        assert calls


@st.composite
def conditional_problems(draw):
    n = draw(st.integers(2, 8))
    m = draw(st.integers(2, 8))
    cells = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(0, 9), min_size=n * cells, max_size=n * cells)
                   .filter(any))
    u, s = integer_alphabet("u", 0, n - 1), integer_alphabet("s", 0, cells - 1)
    w = np.array(weights, dtype=np.float64)
    joint = JointPMF([("u", u), ("s", s)],
                     [[i, j] for i in range(n) for j in range(cells)], w / w.sum())
    costs = draw(st.lists(st.integers(0, 4), min_size=n * m, max_size=n * m))
    dist = DistortionMatrix(u, integer_alphabet("v", 0, m - 1),
                            np.array(costs, dtype=np.float64).reshape(n, m))
    grid = sorted(draw(st.sets(st.floats(-2.0, 1.5), min_size=1, max_size=6)))
    return joint, dist, [10.0 ** e for e in grid]


def _same_point(a, b, tol=1e-12):
    return (a.slope == b.slope and a.converged == b.converged
            and abs(a.rate - b.rate) <= tol and abs(a.distortion - b.distortion) <= tol)


class TestSlopeStacking:
    @given(conditional_problems())
    @settings(max_examples=25, deadline=None)
    def test_stacked_grid_matches_one_call_per_slope(self, problem):
        joint, dist, grid = problem
        stacked = conditional_rd_curve(joint, "u", "s", dist.recon, dist, grid)
        for pt in stacked.points:
            alone = conditional_rd_curve(joint, "u", "s", dist.recon, dist, [pt.slope])
            assert _same_point(pt, alone.points[0]), (pt, alone.points[0])
            assert pt.iters == alone.points[0].iters

    @pytest.mark.parametrize("p,Q", [(0.1, 2), (0.7, 4)])
    def test_compare_paradigms_matches_one_curve_per_label(self, p, Q):
        grid = np.geomspace(0.05, 50, 12)
        joint = build_joint(PixelModelParams(p=p, Q=Q, M=8))
        curves = compare_paradigms(PixelModelParams(p=p, Q=Q, M=8), grid)
        for row in PARADIGMS:
            alph = joint.alphabet(row.coded)
            alone = conditional_rd_curve(joint, row.coded, row.context, alph,
                                         squared_error(alph, alph), grid)
            got = curves[row.label].points
            assert len(got) == len(alone.points), row.label
            assert all(_same_point(a, b) for a, b in zip(got, alone.points)), row.label

    @pytest.mark.parametrize("slopes", [4, 16])
    def test_one_stack_per_distortion_matrix(self, slopes, monkeypatch):
        built = []
        real_stack = rd_solver._ba_stack

        def counting_stack(P, d, grid):
            built.append(d.shape)
            return real_stack(P, d, grid)

        monkeypatch.setattr(rd_solver, "_ba_stack", counting_stack)
        compare_paradigms(PixelModelParams(p=0.3, Q=2, M=8), np.geomspace(0.05, 50, slopes))
        assert built == [(15, 15), (8, 8)]  # r for res and condres, x for the others

    def test_kernel_is_never_copied_per_row(self):
        # a copy of its slope's (n, m) kernel for each row of the r stack
        # would take 64 slopes x 17 cells x 63 x 63 x 8 bytes = 34.5 MB
        tracemalloc.start()
        try:
            compare_paradigms(PixelModelParams(p=0.3, Q=2, M=32))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 17e6, f"peak {peak / 1e6:.1f} MB"
