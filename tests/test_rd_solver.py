"""Rate-distortion solver against closed forms and structural oracles.

The binary-symmetric closed form R(D) = 1 - h2(D) is the gold standard
here; everything else leans on structure (point masses, independent or
copied side information, certificates, convexity of the envelope).
"""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crlab import rd_solver
from crlab.errors import DomainError, InputError, InternalConsistencyError
from crlab.pixel_model import PARADIGMS, PixelModelParams, build_joint
from crlab.prob_core import JointPMF, marginalize
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
    squared_error,
)


def h2(x: float) -> float:
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def binary_uniform():
    a = range(2)
    src = JointPMF([("u", a)], [[0], [1]], [0.5, 0.5])
    hamming = DistortionMatrix(a, a, np.array([[0.0, 1.0], [1.0, 0.0]]))
    return a, src, hamming


class TestConfigAndMatrices:
    def test_distortion_matrix_validation(self):
        a = range(2)
        with pytest.raises(InputError):
            DistortionMatrix(a, a, np.zeros((2, 3)))
        with pytest.raises(InputError):
            DistortionMatrix(a, a, np.array([[0.0, -1.0], [1.0, 0.0]]))
        with pytest.raises(InputError):
            DistortionMatrix(a, a, np.array([[0.0, np.inf], [1.0, 0.0]]))

    def test_squared_error_values(self):
        a = range(3)
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
        _, src, hamming = binary_uniform()
        curve = conditional_rd_curve(src, src.names[0], None,
                                     hamming, np.arange(0.25, 4.5, 0.02))
        assert all(p.converged for p in curve.points)
        for D in np.linspace(0.08, 0.42, 12):
            assert abs(curve.rate_at(D) - (1 - h2(D))) < 1e-4

    def test_single_point_certificate(self):
        _, src, hamming = binary_uniform()
        pt = conditional_rd_curve(src, src.names[0], None, hamming, [1.0]).points[0]
        assert pt.converged
        # slope 1: optimal D solves log2((1-D)/D) = 1, i.e. D = 1/3
        assert abs(pt.distortion - 1 / 3) < 1e-6
        assert abs(pt.rate - (1 - h2(1 / 3))) < 1e-6


class TestDegenerateSources:
    def test_point_mass_has_zero_rate(self):
        a = range(4)
        src = JointPMF([("u", a)], [[2]], [1.0])
        curve = conditional_rd_curve(src, src.names[0], None,
                                     squared_error(a, a), np.geomspace(0.01, 100, 9))
        assert all(p.rate == 0.0 for p in curve.points)
        assert all(p.distortion == 0.0 for p in curve.points)

    def test_steep_slope_reaches_entropy(self):
        _, src, hamming = binary_uniform()
        pt = conditional_rd_curve(src, src.names[0], None, hamming, [60.0]).points[0]
        assert pt.distortion < 1e-12
        assert abs(pt.rate - 1.0) < 1e-6

    def test_shallow_slope_reaches_zero_rate(self):
        _, src, hamming = binary_uniform()
        pt = conditional_rd_curve(src, src.names[0], None, hamming, [1e-4]).points[0]
        assert pt.rate < 1e-6


class TestConditionalSolver:
    def test_independent_side_info_matches_unconditional(self):
        a = range(2)
        s = range(3)
        idx = [[i, j] for i in range(2) for j in range(3)]
        w = np.outer([0.5, 0.5], [0.2, 0.3, 0.5]).ravel()
        joint = JointPMF([("u", a), ("s", s)], idx, w)
        hamming = DistortionMatrix(a, a, np.array([[0.0, 1.0], [1.0, 0.0]]))
        grid = np.geomspace(0.3, 30, 12)
        cond = conditional_rd_curve(joint, "u", "s", hamming, grid)
        flat = conditional_rd_curve(marginalize(joint, ["u"]), "u", None, hamming, grid)
        for pc, pf in zip(cond.points, flat.points):
            assert abs(pc.rate - pf.rate) < 1e-9
            assert abs(pc.distortion - pf.distortion) < 1e-9

    def test_copied_side_info_kills_rate(self):
        a = range(4)
        s = range(4)
        idx = [[i, i] for i in range(4)]
        joint = JointPMF([("u", a), ("s", s)], idx, np.full(4, 0.25))
        curve = conditional_rd_curve(joint, "u", "s", squared_error(a, a),
                                     np.geomspace(0.1, 10, 6))
        assert all(p.rate == 0.0 for p in curve.points)

    def test_deterministic_across_calls(self):
        pmf = build_joint(PixelModelParams(p=0.3, Q=2, M=8))
        r_alph = pmf.alphabet("r")
        d = squared_error(r_alph, r_alph)
        grid = np.geomspace(0.01, 100, 10)
        c1 = conditional_rd_curve(pmf, "r", "xq", d, grid)
        c2 = conditional_rd_curve(pmf, "r", "xq", d, grid)
        assert [(p.rate, p.distortion) for p in c1.points] == \
               [(p.rate, p.distortion) for p in c2.points]


class TestParadigmComparison:
    def test_labels_and_guard(self):
        curves = compare_paradigms(PixelModelParams(p=0.3, Q=2, M=8),
                                   np.geomspace(0.05, 50, 12))
        assert list(curves) == [row.label for row in PARADIGMS]
        assert list(curves) == ["res", "cond_ideal", "cond", "condres"]
        assert [c.label for c in curves.values()] == list(curves)

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
    def test_alphabet_mismatch_rejected(self):
        # the distortion matrix must be over the coded variable's alphabet
        _, src, _ = binary_uniform()
        other = range(3)
        with pytest.raises(InputError):
            conditional_rd_curve(src, src.names[0], None, squared_error(other, other), [1.0])

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
        _, src, hamming = binary_uniform()
        with pytest.raises(InputError):
            conditional_rd_curve(src, src.names[0], None, hamming, grid)
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

    @pytest.mark.parametrize("p,Q,M,slopes", [(0.3, 2, 32, 64), (0.71, 1, 16, 16),
                                              (0.71, 2, 16, 16), (0.71, 4, 16, 16),
                                              (0.72, 1, 16, 16)])
    def test_stalled_rows_are_certified(self, p, Q, M, slopes):
        # rows here stall just above 1e-5 nats, or with their largest
        # multiplier on a column the extrapolation starved to ~1e-22
        curves = compare_paradigms(PixelModelParams(p=p, Q=Q, M=M), default_slope_grid(slopes))
        for curve in curves.values():
            for pt in curve.points:
                assert pt.converged, (curve.label, pt)
                assert pt.gap_bits <= TOL * math.log2(math.e), (curve.label, pt)

    def test_gap_bounds_an_uncertified_point(self, monkeypatch):
        # binary source p(1) = 0.2 under Hamming distortion: at slope s > 2
        # the optimum is D* = 1/(1 + 2^s), R* = h2(0.2) - h2(D*); after one
        # update, R + s*D exceeds the optimum by no more than gap_bits
        a = range(2)
        src = JointPMF([("u", a)], [[0], [1]], [0.8, 0.2])
        hamming = DistortionMatrix(a, a, np.array([[0.0, 1.0], [1.0, 0.0]]))
        slope = 4.0
        monkeypatch.setattr(rd_solver, "MAX_ITERS", 1)
        pt = conditional_rd_curve(src, src.names[0], None, hamming, [slope]).points[0]
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
            delta[:, 0] = -5e-324
            calls.append(delta)
            return delta

        monkeypatch.setattr(np.linalg, "solve", denormal_step)
        K = np.exp(-np.array([[[0.0, 1.0], [1.0, 0.0]]]))
        P, q0 = np.array([[0.7, 0.3]]), np.array([[0.5, 0.5]])
        c0 = rd_solver._BAProblem(K, P, np.array([0])).step(q0)[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rd_solver._newton_polish(K, np.array([0]), P, q0, c0)
        assert calls


@st.composite
def conditional_problems(draw):
    n = draw(st.integers(2, 8))
    m = draw(st.integers(2, 8))
    cells = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(0, 9), min_size=n * cells, max_size=n * cells)
                   .filter(any))
    u, s = range(n), range(cells)
    w = np.array(weights, dtype=np.float64)
    joint = JointPMF([("u", u), ("s", s)],
                     [[i, j] for i in range(n) for j in range(cells)], w / w.sum())
    costs = draw(st.lists(st.integers(0, 4), min_size=n * m, max_size=n * m))
    dist = DistortionMatrix(u, range(m),
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
        stacked = conditional_rd_curve(joint, "u", "s", dist, grid)
        for pt in stacked.points:
            alone = conditional_rd_curve(joint, "u", "s", dist, [pt.slope])
            assert _same_point(pt, alone.points[0]), (pt, alone.points[0])
            assert pt.iters == alone.points[0].iters

    @pytest.mark.parametrize("p,Q", [(0.1, 2), (0.7, 4)])
    def test_compare_paradigms_matches_one_curve_per_label(self, p, Q):
        grid = np.geomspace(0.05, 50, 12)
        joint = build_joint(PixelModelParams(p=p, Q=Q, M=8))
        curves = compare_paradigms(PixelModelParams(p=p, Q=Q, M=8), grid)
        for row in PARADIGMS:
            alph = joint.alphabet(row.coded)
            alone = conditional_rd_curve(joint, row.coded, row.context,
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


def reference_polish(P_row, src_row, K, q0):
    """The one-row active-set Newton polish the batched kernel replaced,
    kept as the oracle: Newton steps on the working set, cut short at
    the first column driven to zero, which leaves it; once the gradient
    on the set vanishes, certify or enter the worst violator. Returns
    the certified q or None."""
    P = P_row[src_row]
    Kp = K[src_row]
    m = K.shape[1]
    c0 = (P / (Kp @ q0)) @ Kp
    S = c0 >= 1.0 - 1e-3
    if not S.any():
        return None
    q = np.where(S, q0, 0.0)
    total = q.sum()
    if not (total > 0.0):
        return None
    q /= total
    budget = 80 + 4 * m
    while budget > 0:
        budget -= 1
        idx = np.flatnonzero(S)
        qs = q[idx]
        Ks = Kp[:, idx]
        Z = Ks @ qs
        if not np.all(Z > 1e-300):
            return None
        ratio = P / Z
        g = ratio @ Ks - 1.0
        if np.abs(g).max() < 1e-13:
            c_full = ratio @ Kp
            if c_full.max() - 1.0 < TOL:
                out = np.zeros(m)
                out[idx] = qs / qs.sum()
                return out
            j = int(np.argmax(c_full))
            if S[j]:
                return None
            S[j] = True
            q[j] = 1e-6
            q /= q.sum()
            continue
        w = ratio / Z
        A = (Ks * w[:, None]).T @ Ks
        try:
            delta = np.linalg.solve(A, g)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(A, g, rcond=None)[0]
        if not np.all(np.isfinite(delta)):
            return None
        with np.errstate(divide="ignore", over="ignore"):
            steps = np.where(delta < 0.0, -qs / delta, np.inf)
        tmax = float(steps.min())
        if tmax <= 1.0:
            qs = np.maximum(qs + tmax * delta, 0.0)
            dead = qs <= 1e-14
            if dead.all():
                return None
            qs[dead] = 0.0
            S[idx[dead]] = False
        else:
            qs = qs + delta
        q = np.zeros(m)
        q[idx] = qs
    return None


@st.composite
def polish_stacks(draw):
    """Rows of the reduced problem as _ba_stack polishes them: a kernel
    per slope and starting points some multiplicative updates from
    uniform. Costs are continuous and every cell keeps at least m
    source symbols, so the kernel has full column rank and the optimal
    q is unique. Where it is not, rounding alone can lead two correct
    implementations to different optima or to a give-up."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 7))
    m = draw(st.integers(2, n))
    slopes = 10.0 ** rng.uniform(-1.0, 1.5, draw(st.integers(1, 3)))
    rows = draw(st.integers(1, 8))
    d = rng.uniform(0.0, 4.0, (n, m))
    K = np.exp(-(slopes * math.log(2.0))[:, None, None] * (d - d.min(axis=1, keepdims=True)))
    sid = rng.integers(0, slopes.size, rows)
    P = rng.dirichlet(np.full(n, 0.7), rows)
    P[:, m:][rng.random((rows, n - m)) < 0.3] = 0.0
    P /= P.sum(axis=1, keepdims=True)
    prob = rd_solver._BAProblem(K, P, sid)
    q = np.full((rows, m), 1.0 / m)
    for _ in range(draw(st.integers(0, 40))):
        q = prob.step(q)[0]
    return K, sid, P, q, prob.step(q)[1], draw(st.randoms())


class TestBatchedPolish:
    @given(polish_stacks(), st.sampled_from([1, rd_solver._POLISH_BYTES]))
    @settings(max_examples=60, deadline=None)
    def test_each_row_gets_its_outcome_alone(self, stack, budget):
        # a row's outcome does not depend on the rows polished with it:
        # in any subset and order, and in chunks of any size, it matches
        # the one-row reference
        K, sid, P, q0, c0, rnd = stack
        rows = list(range(len(sid)))
        rnd.shuffle(rows)
        rows = np.array(rows[:rnd.randint(1, len(rows))])
        with mock.patch.object(rd_solver, "_POLISH_BYTES", budget):
            q, ok = rd_solver._newton_polish(K, sid[rows], P[rows], q0[rows], c0[rows])
        for j, i in enumerate(rows):
            alone = reference_polish(P[i], P[i] > 0.0, K[sid[i]], q0[i])
            assert ok[j] == (alone is not None), (i, ok[j])
            if ok[j]:
                assert np.abs(q[j] - alone).max() <= 1e-12, np.abs(q[j] - alone).max()

    @pytest.mark.parametrize("order", [[0, 1], [1, 0]])
    def test_a_row_that_gives_up_leaves_the_others(self, order):
        # row 0 starts on the column its second source symbol cannot
        # reach, so its partition function is zero there and it gives up;
        # row 1 certifies as it would alone
        K = np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.5], [0.5, 1.0]]])
        sid = np.array([0, 1])
        P = np.array([[0.5, 0.5], [0.7, 0.3]])
        q0 = np.array([[1.0 - 1e-12, 1e-12], [0.5, 0.5]])
        c0 = np.stack([(P[i] / (K[i] @ q0[i])) @ K[i] for i in sid])
        q, ok = rd_solver._newton_polish(K, sid[order], P[order], q0[order], c0[order])
        assert reference_polish(P[0], P[0] > 0.0, K[0], q0[0]) is None
        assert ok.tolist() == [i == 1 for i in order]
        alone = reference_polish(P[1], P[1] > 0.0, K[1], q0[1])
        assert np.abs(q[order.index(1)] - alone).max() <= 1e-12


# criterion 6's bound on ordering violations, in bits
ORDERING_TOL = 1e-6


def certified_excess(lower: RDCurve, upper: RDCurve) -> float:
    """Worst certified excess of lower's envelope over upper's.

    Envelopes are ordered at every distortion exactly when their
    Lagrangians R + s*D are ordered at every slope s. A point of lower at
    slope s bounds its Lagrangian from below, to within its gap_bits; any
    point of upper bounds upper's from above, being achievable. Chords
    of the two point sets are no such bounds: they are sampled at
    different distortions, and one can cross the other by 1e-4 bits
    between points.
    """
    return max(pt.rate + pt.slope * pt.distortion - pt.gap_bits
               - (upper.rates + pt.slope * upper.distortions).min()
               for pt in lower.points)


class TestParadigmOrdering:
    @given(st.floats(0.0, 1.0), st.sampled_from([1, 1.4, 2, 4]), st.integers(2, 12))
    @example(1e-300, 1, 5)  # masses near 1e-302: partition functions underflowed
    @example(1.1125369292536007e-308, 1, 2)  # subnormal masses: W / q_m overflowed
    @settings(max_examples=20, deadline=None)
    def test_theorem_ladder(self, p, Q, M):
        # criterion 6's clause 1 beyond its nine cells: cond_ideal <=
        # condres <= res
        curves = compare_paradigms(PixelModelParams(p=p, Q=Q, M=M))
        for lower, upper in (("cond_ideal", "condres"), ("condres", "res"),
                             ("cond_ideal", "res")):
            excess = certified_excess(curves[lower], curves[upper])
            assert excess <= ORDERING_TOL, (lower, upper, excess)
