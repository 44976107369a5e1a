"""Acceptance gate: one test per shipping criterion, tolerances pinned.

Two criteria are stated as what the mathematics and the code promise,
not as first drafted:

* criterion 2, Q=1.4 clause: the step is exactly 7/5, which does not
  divide M=256, so the loss is not log2(7/5). A lattice of step 7/5 over
  0..255 has at most 184 cells, each holding one or two symbols, so no
  offset gets below 144/256 = 0.5625 bits, and a 0.50 +/- 0.05 window
  cannot be met. The floor quantizer gives 110 singleton and 73
  doubleton cells. The test counts the cells of floor(5v/7) itself, in
  integer arithmetic, and asserts the loss sum_c (|c|/M) log2|c| =
  146/256 = 0.5703125 bits to 1e-9.
* criterion 6: conditional-residual coding is not claimed to beat
  bottlenecked conditional coding at every rate, and at p=0.7 it cannot.
  The exact zero-rate distortion of condres is above that of cond there
  (M=16: 19.55 against 19.45 at Q=2, 20.05 against 19.50 at Q=4), so
  the true envelopes must cross, although the lossless end favours
  condres (H(R|Xq) 3.536 against H(X|Xq) 3.683 at Q=2). The
  test asserts the theorem cond_ideal <= condres <= res on all nine
  instances; that condres and cond meet cond_ideal at Q=1, where there
  is no bottleneck; that condres <= cond wherever cond rises above res
  (the bottleneck problem); and that a crossing forced by the zero-rate
  distortions is certified: the tangent lower bound of condres, which
  each Blahut-Arimoto point's slope and certificate give, lies above the
  chord of cond, which time sharing between achievable points gives.

Orderings compare chord with chord to ORDERING_TOL; only the crossing is
called certified, because only it compares a lower bound with an upper
bound.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from crlab.analysis import QualityCurve, bd_rate
from crlab.codec import build_model, decode, encode, measure_rate, sample_pairs
from crlab.info_measures import entropy
from crlab.pixel_model import PixelModelParams, build_joint, entropy_report, sweep_p
from crlab.prob_core import JointPMF, marginalize
from crlab.rd_solver import (
    TOL,
    DistortionMatrix,
    compare_paradigms,
    conditional_rd_curve,
)
from crlab.theorem_suite import run_randomized_suite

IDENTITY_TOL = 1e-9
MARGIN_TOL = -1e-9
RD_ORACLE_TOL = 1e-6
RD_MATCH_TOL = 1e-9
ORDERING_TOL = 1e-6
BD_TOL = 1e-6


def test_criterion_1_uncorrelated_residual_entropy():
    t0 = time.perf_counter()
    rep = entropy_report(PixelModelParams(p=1.0, Q=1, M=256))
    elapsed = time.perf_counter() - t0
    assert abs(rep.H_R - 8.72) <= 0.01, f"H(R) = {rep.H_R}"
    assert abs(rep.H_X_given_Xp - 8.00) <= IDENTITY_TOL
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_bottleneck_loss():
    def loss(Q):
        pmf = build_joint(PixelModelParams(p=0.5, Q=Q, M=256))
        return entropy(pmf, "xp") - entropy(pmf, "xq")

    loss2 = loss(2)
    assert abs(loss2 - 1.000) <= IDENTITY_TOL, f"Q=2 loss = {loss2}"

    # Q=1.4 is exactly 7/5: v lands in cell floor(5v/7); the cells hold
    # one or two symbols (110 and 73 of them), so the loss is 146/256 bits
    M = 256
    cells = Counter(5 * v // 7 for v in range(M))
    expected = sum(k * math.log2(k) for k in cells.values()) / M
    loss14 = loss(1.4)
    assert abs(loss14 - expected) <= IDENTITY_TOL, (
        f"Q=1.4 loss = {loss14}, but the {len(cells)} cells of floor(5v/7) "
        f"on 0..{M - 1} fix it at {expected}"
    )


def test_criterion_3_sweep_qualitative_shape():
    t0 = time.perf_counter()
    p_grid = [round(k * 0.01, 2) for k in range(1, 101)]
    reports = sweep_p(p_grid, [1, 1.4, 2, 64], M=256)
    elapsed = time.perf_counter() - t0
    assert len(reports) == 400

    at_q2 = [r for r in reports if r.Q == 2.0]
    # (a) small-p regime where the bottlenecked conditional coder loses
    assert any(r.p < 0.2 and r.H_X_given_Xphat > r.H_R for r in at_q2)
    # (b) conditioning the residual never hurts, any Q
    worst_b = max(r.H_R_given_Xphat - r.H_R for r in reports)
    assert worst_b <= IDENTITY_TOL, f"H(R|Xphat) - H(R) up to {worst_b}"
    # (c) at Q=2 the conditional-residual rate hugs the unquantized bound
    worst_c = max(abs(r.H_R_given_Xphat - r.H_X_given_Xp) for r in at_q2)
    assert worst_c <= 0.02, f"max |H(R|Xphat) - H(X|Xp)| = {worst_c}"
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_4_theorem_suite():
    t0 = time.perf_counter()
    report = run_randomized_suite(1000, (8, 8), seed=0)
    elapsed = time.perf_counter() - t0
    for c in report.checks:
        if c.kind == "identity":
            assert abs(c.value) < IDENTITY_TOL, f"{c.check_id}: {c.value}"
        else:
            assert c.value >= MARGIN_TOL, f"{c.check_id}: margin {c.value}"
        assert c.pass_count == c.trial_count == 1000
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_5_rd_solver_oracle():
    def h2(x):
        return -x * math.log2(x) - (1 - x) * math.log2(1 - x)

    a = range(2)
    src = JointPMF([("u", a)], [[0], [1]], [0.5, 0.5])
    hamming = DistortionMatrix(a, a, np.array([[0.0, 1.0], [1.0, 0.0]]))
    curve = conditional_rd_curve(src, src.names[0], None, hamming, np.arange(0.25, 4.5, 0.002))
    worst = max(abs(curve.rate_at(D) - (1 - h2(D)))
                for D in np.linspace(0.05, 0.45, 20))
    assert worst < RD_ORACLE_TOL, f"binary oracle worst gap {worst}"

    # independent side information must change nothing
    s = range(3)
    idx = [[i, j] for i in range(2) for j in range(3)]
    w = np.outer([0.5, 0.5], [0.2, 0.3, 0.5]).ravel()
    joint = JointPMF([("u", a), ("s", s)], idx, w)
    grid = np.geomspace(0.3, 30, 16)
    cond = conditional_rd_curve(joint, "u", "s", hamming, grid)
    flat = conditional_rd_curve(marginalize(joint, ["u"]), "u", None, hamming, grid)
    worst = max(max(abs(pc.rate - pf.rate), abs(pc.distortion - pf.distortion))
                for pc, pf in zip(cond.points, flat.points))
    assert worst < RD_MATCH_TOL, f"independent side info gap {worst}"


def _envelope_excess(lower, upper):
    """Worst rate excess of `lower` above `upper` at matched distortions."""
    lo = max(lower.distortions[0], upper.distortions[0])
    hi = min(lower.distortions[-1], upper.distortions[-1])
    if lo > hi:
        return 0.0, None
    ds = np.unique(np.clip(
        np.concatenate([lower.distortions, upper.distortions]), lo, hi))
    worst, at = 0.0, None
    for d in ds:
        gap = lower.rate_at(d) - upper.rate_at(d)
        if gap > worst:
            worst, at = gap, float(d)
    return worst, at


def _tangent_lower_bound(curve, distortion, slack):
    """Lower bound on the true R(D) of `curve`'s problem at `distortion`.

    Each converged point at slope s minimizes R + s*D to within `slack`
    bits, so R(D) >= R_s - s*(D - D_s) - slack for every D.
    """
    return max(pt.rate - pt.slope * (distortion - pt.distortion)
               for pt in curve.points) - slack


def _certified_excess(lower, upper, slack):
    """Worst excess of `lower`'s tangent lower bound above `upper`'s chord.

    The chord joins achievable points, so it bounds `upper`'s true R(D)
    from above; a positive excess is a certified crossing. The lower
    bound is convex, so its excess over a chord segment peaks at an end:
    the chord's own points are the only places to look.
    """
    return max((_tangent_lower_bound(lower, pt.distortion, slack) - pt.rate,
                pt.distortion) for pt in upper.points)


def _zero_rate_distortion(joint, source_var, cond_var):
    """Least expected squared error at rate zero: one reconstruction per
    condition cell, taken from the source alphabet as compare_paradigms
    does."""
    names = joint.names
    s = np.array([float(v) for v in joint.alphabet(source_var)])
    mass = np.zeros((len(joint.alphabet(cond_var)), s.size))
    np.add.at(mass, (joint.idx[:, names.index(cond_var)],
                     joint.idx[:, names.index(source_var)]), joint.probs)
    return float((mass @ (s[:, None] - s[None, :]) ** 2).min(axis=1).sum())


def _check_below(violations, where, lower, upper, clause):
    gap, at = _envelope_excess(lower, upper)
    if gap > ORDERING_TOL:
        violations.append(
            f"{where}: R_{lower.label} exceeds R_{upper.label} by {gap:.4e} "
            f"bits at D={at:.4g} ({clause})")


def test_criterion_6_lossy_paradigm_ordering():
    slack = TOL * math.log2(math.e)
    t0 = time.perf_counter()
    violations, bottlenecked, forced = [], [], []
    for p in (0.1, 0.3, 0.7):
        for Q in (1, 2, 4):
            params = PixelModelParams(p=p, Q=Q, M=16)
            curves = compare_paradigms(params)
            for c in curves.values():
                assert all(pt.converged for pt in c.points), (p, Q, c.label)
            condres, cond = curves["condres"], curves["cond"]
            res, ideal = curves["res"], curves["cond_ideal"]
            where = f"p={p} Q={Q}"
            for lower, upper in ((ideal, condres), (condres, res), (ideal, res)):
                _check_below(violations, where, lower, upper, "theorem")
            if Q == 1:
                for c in (condres, cond):
                    _check_below(violations, where, c, ideal, "no bottleneck")
                    _check_below(violations, where, ideal, c, "no bottleneck")
            if _envelope_excess(cond, res)[0] > ORDERING_TOL:
                bottlenecked.append(where)
                _check_below(violations, where, condres, cond, "bottleneck")
            joint = build_joint(params)
            d0_cond = _zero_rate_distortion(joint, "x", "xq")
            d0_condres = _zero_rate_distortion(joint, "r", "xq")
            if d0_condres > d0_cond + IDENTITY_TOL:
                forced.append(where)
                gap, at = _certified_excess(condres, cond, slack)
                if not gap > 0.0:
                    violations.append(
                        f"{where}: zero-rate distortion {d0_condres:.6g} of "
                        f"condres above {d0_cond:.6g} of cond forces a "
                        f"crossing, but condres's lower bound stays "
                        f"{-gap:.4e} bits under cond's chord (at D={at:.4g})")
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.2f}s"
    assert not violations, "\n  ".join(["envelope orderings broken:"] + violations)
    assert bottlenecked, "no instance has cond above res; the bottleneck clause checked nothing"
    assert forced, "no instance forces a crossing; the crossing clause checked nothing"


def test_criterion_7_codec_realization():
    t0 = time.perf_counter()
    n = 10 ** 5
    measured = {}
    for p in (0.25, 0.5, 1.0):
        for Q in (1, 2, 64):
            params = PixelModelParams(p=p, Q=Q, M=256)
            rep = entropy_report(params)
            bounds = {
                "residual": rep.H_R,
                "conditional": rep.H_X_given_Xphat,
                "conditional-residual": rep.H_R_given_Xphat,
            }
            pairs = sample_pairs(params, n, seed=1000 + int(100 * p) + Q)
            x_seq = [x for x, _ in pairs]
            xp_seq = [xp for _, xp in pairs]
            for paradigm, h in bounds.items():
                model = build_model(params, paradigm)
                stream = encode(pairs, paradigm, model)
                assert decode(stream, xp_seq, model) == x_seq, \
                    f"round trip broke at p={p} Q={Q} {paradigm}"
                rate = measure_rate(stream, n)
                measured[(p, Q, paradigm)] = rate
                assert abs(rate - h) <= 0.02 * h + 64 / n, \
                    f"p={p} Q={Q} {paradigm}: rate {rate} vs bound {h}"
    # the bottleneck effect must survive the whole coding chain
    assert measured[(0.25, 2, "conditional")] > measured[(0.25, 2, "residual")]
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.2f}s"


def test_criterion_8_bd_rate_oracles():
    base = ((0.5, 30.0), (1.0, 34.0), (2.0, 38.0), (4.0, 42.0))
    ref = QualityCurve("ref", base)
    assert bd_rate(ref, ref) == 0.0
    doubled = QualityCurve("dbl", tuple((2 * r, q) for r, q in base))
    assert abs(bd_rate(ref, doubled) - 100.0) < BD_TOL
