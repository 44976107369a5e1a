"""Rate-distortion curves for the four coding paradigms.

Slope-parametric Blahut-Arimoto on finite alphabets: for a fixed
Lagrangian slope (bits per unit distortion) the alternating updates

    W(xt|x)  ~  q(xt) * 2^(-slope * d(x, xt))      (row-normalized)
    q(xt)   <-  sum_x p(x) W(xt|x)

converge to a point on the lower convex envelope of R(D). The
conditional problem decomposes per condition value at a shared slope, so
conditional curves are weighted sums of per-cell solutions. Every
(slope, cell) pair of the curves that share a distortion matrix is one
row of a single stacked solve. All solves are deterministic: uniform q
init, fixed iteration order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, InternalConsistencyError
from .pixel_model import PARADIGMS, PixelModelParams, build_joint
from .prob_core import JointPMF, _as_int, _require_alphabet, conditional_table

__all__ = [
    "CONVEXITY_TOL",
    "DistortionMatrix",
    "MAX_ITERS",
    "RDCurve",
    "RDPoint",
    "TOL",
    "compare_paradigms",
    "conditional_rd_curve",
    "default_slope_grid",
    "squared_error",
]

# TOL is the certified suboptimality bound in nats: a returned point sits
# at most TOL*log2(e) bits above the true envelope. MAX_ITERS counts basic
# updates per row.
TOL = 1e-9
MAX_ITERS = 5000
# Bits a point may sit above the chord of its neighbours. A certified
# point's Lagrangian is within TOL*log2(e) bits of the optimum at its
# slope, and time-sharing achieves the chord, so this must exceed that.
CONVEXITY_TOL = 1e-6
_LOG2E = math.log2(math.e)


@dataclass(frozen=True)
class DistortionMatrix:
    """d[i, j] = cost of reconstructing source[i] as recon[j]; source and
    recon are alphabets, nonempty ranges with step 1."""

    source: range
    recon: range
    d: np.ndarray

    def __post_init__(self):
        _require_alphabet("source", self.source)
        _require_alphabet("recon", self.recon)
        d = np.ascontiguousarray(self.d, dtype=np.float64)
        if d.shape != (len(self.source), len(self.recon)):
            raise InputError(
                f"distortion matrix shape {d.shape} does not match alphabets "
                f"({len(self.source)}, {len(self.recon)})"
            )
        if not np.all(np.isfinite(d)) or np.any(d < 0):
            raise InputError("distortion entries must be finite and nonnegative")
        d.flags.writeable = False
        object.__setattr__(self, "d", d)


def squared_error(source: range, recon: range) -> DistortionMatrix:
    sv = np.array(source, dtype=np.float64)
    rv = np.array(recon, dtype=np.float64)
    return DistortionMatrix(source, recon, (sv[:, None] - rv[None, :]) ** 2)


@dataclass(frozen=True)
class RDPoint:
    """One envelope point. gap_bits is the solver's certificate, a bound
    in bits on how far rate + slope*distortion sits above the optimum at
    its slope; iters is the basic updates its slowest cell took (0 for a
    point the solver did not make)."""

    rate: float
    distortion: float
    slope: float
    converged: bool = True
    gap_bits: float = 0.0
    iters: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.rate) and math.isfinite(self.distortion)
                and self.rate >= 0 and self.distortion >= 0):
            raise InputError(f"rate and distortion must be finite and >= 0: {self}")


@dataclass(frozen=True)
class RDCurve:
    """Points on a lower convex envelope, distortion ascending; a point
    may sit up to CONVEXITY_TOL bits above the chord of its neighbours."""

    label: str
    points: tuple[RDPoint, ...]

    def __post_init__(self):
        pts = self.points
        for a, b in zip(pts, pts[1:]):
            if not (a.distortion < b.distortion and a.rate > b.rate):
                raise InputError(
                    f"curve {self.label!r}: points must be strictly ordered "
                    f"(distortion up, rate down); got {a} then {b}"
                )
        for a, m, b in zip(pts, pts[1:], pts[2:]):
            t = (m.distortion - a.distortion) / (b.distortion - a.distortion)
            chord = a.rate + t * (b.rate - a.rate)
            if m.rate > chord + CONVEXITY_TOL:
                raise InternalConsistencyError(
                    f"curve {self.label!r} not convex at D={m.distortion}: "
                    f"rate {m.rate} above chord {chord}"
                )

    @classmethod
    def assemble(cls, label: str, points) -> "RDCurve":
        """Sort, drop duplicates (lower rate wins at equal distortion), and
        prune points dominated in both coordinates."""
        pts = sorted(points, key=lambda p: (p.distortion, p.rate))
        frontier: list[RDPoint] = []
        for p in pts:
            if frontier and p.rate >= frontier[-1].rate - 1e-15:
                continue
            frontier.append(p)
        return cls(label, tuple(frontier))

    @property
    def distortions(self) -> np.ndarray:
        return np.array([p.distortion for p in self.points])

    @property
    def rates(self) -> np.ndarray:
        return np.array([p.rate for p in self.points])

    def rate_at(self, distortion: float) -> float:
        """Linear interpolation on the envelope; defined on its span only."""
        d = self.distortions
        if not (d[0] - 1e-12 <= distortion <= d[-1] + 1e-12):
            raise DomainError(
                f"distortion {distortion} outside curve {self.label!r} "
                f"span [{d[0]}, {d[-1]}]"
            )
        return float(np.interp(distortion, d, self.rates))


def default_slope_grid(count: int = 64) -> np.ndarray:
    """count slopes, log-spaced over 1e-3 .. 1e3 bits per unit distortion."""
    count = _as_int(count, "slope count")
    if count < 1:
        raise InputError(f"need at least one slope, got {count}")
    return np.geomspace(1e-3, 1e3, count)


def _segments(sid: np.ndarray) -> list[tuple[int, int, int]]:
    """(s, a, b) for each run sid[a:b] of one slope index s."""
    edges = [0, *(np.flatnonzero(np.diff(sid)) + 1).tolist(), sid.size]
    return [(int(sid[a]), a, b) for a, b in zip(edges, edges[1:])]


def _per_slope(x: np.ndarray, kernels: np.ndarray, segments) -> np.ndarray:
    """x[a:b] @ kernels[s] for each slope segment, one matmul each."""
    out = np.empty((x.shape[0], kernels.shape[2]))
    for s, a, b in segments:
        np.matmul(x[a:b], kernels[s], out=out[a:b])
    return out


class _BAProblem:
    """Stacked rows of the reduced problem over the output marginal q.

    Row i is one cell P[i] at slope index sid[i]; rows of one slope are
    contiguous, and all rows share the (S, n, m) kernel K. For each cell
    the parametric solve reduces to minimizing the convex
    F(q) = -sum_n P_n ln Z_n with Z = q @ K_s^T, K_s = exp(-s*d), over the
    simplex. One multiplicative update is q <- q*c with
    c = (P/Z) @ K_s, and convexity gives a certificate: the gap to the
    cell's optimum is at most max_j c_j - 1 nats, so convergence is
    declared on that bound, not on iterate movement (which stalls near
    flat valleys and on zero-rate sources).
    """

    def __init__(self, K: np.ndarray, P: np.ndarray, sid: np.ndarray):
        self.K = K
        self.P = P
        self.sid = sid
        self.src_mask = P > 0.0
        self.segments = _segments(sid)

    def step(self, q: np.ndarray, strict: bool = True):
        """Returns (q*c, c, F(q) per row, bad mask); F in nats up to a
        constant. Rows whose partition function degenerates are flagged
        bad (F=inf) when strict is off, raised when on."""
        K = self.K
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            Z = _per_slope(q, K.transpose(0, 2, 1), self.segments)
            # Z may sit far below 1 where P does too; only P/Z must be finite
            ratio = np.where(self.src_mask, self.P / Z, 0.0)
            bad = ~np.isfinite(ratio).all(axis=1)
            if strict and bad.any():
                raise InternalConsistencyError("partition function underflowed to zero")
            ratio[bad] = 0.0
            c = _per_slope(ratio, K, self.segments)
            F = -np.einsum("cn,cn->c", self.P, np.where(self.src_mask, np.log(Z), 0.0))
        bad |= ~np.isfinite(c).all(axis=1)
        if bad.any():
            F = np.where(bad, np.inf, F)
            c = np.where(bad[:, None], 2.0, c)
        return q * c, c, F, bad

    def restrict(self, keep: np.ndarray) -> "_BAProblem":
        """Copy with a row subset; K is shared."""
        return _BAProblem(self.K, self.P[keep], self.sid[keep])


def _extrapolate(q0, c0, c1, q2, cap):
    """Log-domain two-step extrapolation of the multiplicative iteration
    with a per-cell step length (SQUAREM style). Returns (q, alpha)."""
    mask = (q0 > 0.0) & (q2 > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(mask, np.log(np.where(mask, c0, 1.0)), 0.0)
        v = np.where(mask, np.log(np.where(mask, c1, 1.0)), 0.0) - u
    nu = np.sqrt((u * u).sum(axis=1))
    nv = np.sqrt((v * v).sum(axis=1))
    alpha = np.where(nv > 0.0, nu / np.where(nv > 0.0, nv, 1.0), 1.0)
    alpha = np.minimum(np.maximum(alpha, 1.0), cap)
    a = alpha[:, None]
    with np.errstate(divide="ignore"):
        lq = np.where(mask, np.log(np.where(mask, q0, 1.0)), -np.inf)
    lq = lq + 2.0 * a * u + a * a * v
    lq -= lq.max(axis=1, keepdims=True)
    q = np.exp(lq)
    return q / q.sum(axis=1, keepdims=True), alpha


# When _ba_stack polishes: on every _POLISH_EVERY-th checkpoint, each row
# whose certificate is below _POLISH_GATE nats, has not halved over the
# last _STALL_WINDOW checkpoints, or has its largest multiplier on a
# column holding less than _STARVED mass, which the multiplicative update
# revives only geometrically. A row gives up polishing after 3 failures.
# The kernel columns gathered for one chunk of polished rows take at most
# _POLISH_BYTES.
_POLISH_EVERY = 8
_POLISH_GATE = 1e-3
_STALL_WINDOW = 8
_STARVED = 1e-12
_POLISH_BYTES = 1 << 20


def _newton_polish(K: np.ndarray, sid: np.ndarray, P: np.ndarray,
                   q0: np.ndarray, c0: np.ndarray):
    """Active-set Newton refinement of a batch of rows of the reduced problem.

    The multiplicative update identifies the optimal support slowly
    (mass enters or leaves only geometrically), which stalls it on
    near-flat objectives. Near the optimum it is cheaper to solve the
    stationarity system c_S(q) = 1 on the current support directly:
    Newton steps on the positive orthant, dropping columns driven to
    zero and entering the worst violator until the full certificate
    max_j c_j - 1 clears TOL.

    Row i is cell P[i] under kernel K[sid[i]], at q0[i] with multipliers
    c0[i]. The rows move in lock-step, one Newton round at a time, and
    leave as they certify or give up; each follows the path it would
    follow alone. Returns (q, ok): q[i] is certified where ok[i]. A row
    that is not ok is simply left to the iterative path, so this routine
    may be conservative.
    """
    B, m = q0.shape
    # a column belongs to the working set when its multiplier is near 1;
    # selecting by mass instead would trap dying columns (c < 1, q -> 0)
    # whose stationarity system has no positive root
    S = c0 >= 1.0 - 1e-3
    q = np.where(S, q0, 0.0)
    total = q.sum(axis=1)
    live = np.flatnonzero(S.any(axis=1) & (total > 0.0))
    q[live] /= total[live, None]
    ok = np.zeros(B, dtype=bool)
    # non-finite values are caught below: a row whose partition function
    # underflows or whose Newton direction is not finite gives up, and a
    # denormal negative direction puts no bound on the step length
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(80 + 4 * m):
            if not live.size:
                break
            # q, g and delta are zero off each row's working set S
            ratio, g, delta, leave = _newton_steps(K, sid[live], P[live], q[live], S[live])
            conv = ~leave & (np.abs(g).max(axis=1) < 1e-13)
            walk = ~leave & ~conv

            if conv.any():
                # converged on the working set: certify, or enter the worst
                # violator
                rows = live[conv]
                c = _per_slope(ratio[conv], K, _segments(sid[rows]))
                cert = c.max(axis=1) - 1.0 < TOL
                j = c.argmax(axis=1)
                stuck = ~cert & S[rows, j]
                ok[rows[cert]] = True
                enter = ~cert & ~stuck
                S[rows[enter], j[enter]] = True
                q[rows[enter], j[enter]] = 1e-6
                rows = rows[cert | enter]
                q[rows] /= q[rows].sum(axis=1, keepdims=True)
                leave[conv] = cert | stuck

            if walk.any():
                # Newton step, cut short at the first column it drives to
                # zero: walk onto that face and pivot the blockers out
                rows = live[walk]
                qs, delta = q[rows], delta[walk]
                tmax = np.where(delta < 0.0, -qs / delta, np.inf).min(axis=1)
                qs += np.minimum(tmax, 1.0)[:, None] * delta
                hit = tmax <= 1.0
                qs[hit] = np.maximum(qs[hit], 0.0)
                dead = hit[:, None] & (qs <= 1e-14) & S[rows]
                qs[dead] = 0.0
                q[rows] = qs
                S[rows] &= ~dead
                leave[walk] = ~S[rows].any(axis=1)
            live = live[~leave]
    return q, ok


def _newton_steps(K, sid, P, q, S):
    """Gradient and Newton direction of each row on its working set S.

    Returns (ratio, g, delta, bad), each row zero off S: ratio is P/Z
    over every source symbol, g = c - 1, and delta the Newton direction,
    none for a row whose gradient already vanishes. bad marks rows whose
    partition function underflows or whose direction is not finite.

    Only the working-set columns are gathered from K. Rows are taken in
    order of working-set size, in chunks whose gathered columns take at
    most _POLISH_BYTES; each chunk pads its working sets to its widest,
    with identity on the padded coordinates, and makes one batched solve.
    """
    (L, n), m = P.shape, q.shape[1]
    src = P > 0.0
    ratio, g = np.zeros((L, n)), np.zeros(q.shape)
    delta, bad = np.zeros(q.shape), np.zeros(L, dtype=bool)
    k = S.sum(axis=1)
    order = np.argsort(k, kind="stable")
    a, fit = 0, _POLISH_BYTES // (16 * n)
    while a < L:
        # the rows that fit when padded to the widest of them
        span = np.count_nonzero(np.arange(1, L - a + 1) * k[order[a:]] <= fit)
        rows = order[a:a + max(1, span)]
        a += rows.size
        width = int(k[rows[-1]])
        idx = np.argsort(~S[rows], axis=1, kind="stable")[:, :width]
        pad = np.arange(width) >= k[rows, None]
        Ks = K.reshape(-1).take((sid[rows, None, None] * n + np.arange(n)[:, None]) * m
                                + idx[:, None, :])
        Z = np.matmul(Ks, q[rows[:, None], idx][:, :, None])[:, :, 0]
        pos = Z > 1e-300
        bad[rows] = (src[rows] & ~pos).any(axis=1)
        safe_Z = np.where(pos, Z, 1.0)
        r = np.where(src[rows], P[rows] / safe_Z, 0.0)
        gs = np.matmul(r[:, None, :], Ks)[:, 0, :] - 1.0
        gs[pad] = 0.0
        ratio[rows] = r
        g[rows[:, None], idx] = gs
        walk = ~bad[rows] & (np.abs(gs).max(axis=1) >= 1e-13)
        if walk.any():
            # Hessian Ks^T diag(P/Z^2) Ks, as Bw^T Bw with Bw = diag(sqrt(P)/Z) Ks
            Bw = Ks[walk] * (np.sqrt(np.where(src[rows[walk]], P[rows[walk]], 0.0))
                             / safe_Z[walk])[:, :, None]
            A = np.matmul(Bw.transpose(0, 2, 1), Bw)
            if pad.any():
                keep = ~pad[walk]
                A *= keep[:, :, None] & keep[:, None, :]
                A.reshape(len(A), -1)[:, ::width + 1][~keep] = 1.0
            delta[rows[walk, None], idx[walk]] = np.where(pad[walk], 0.0,
                                                          _solve(A, gs[walk]))
    bad |= ~np.isfinite(delta).all(axis=1)
    return ratio, g, delta, bad


def _solve(A: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solve each system A[i] x = g[i], in one batched call unless one is
    singular: that one gets its least-squares solution, or nan if it is
    not finite."""
    try:
        return np.linalg.solve(A, g[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full(g.shape, np.nan)
        for i in range(len(A)):
            try:
                out[i] = np.linalg.solve(A[i], g[i])
            except np.linalg.LinAlgError:
                if np.isfinite(A[i]).all():
                    out[i] = np.linalg.lstsq(A[i], g[i], rcond=None)[0]
        return out


def _ba_stack(P: np.ndarray, d: np.ndarray, slopes: np.ndarray):
    """Run BA on C sources sharing one distortion matrix, at S slopes.

    P: (C, n) rows summing to 1. Every (slope, cell) pair is one row of
    a single stack; all rows start from uniform q at iteration 0 and move
    in lock-step, leaving the stack as they certify, so each follows the
    path it would follow alone. Returns (rates, distortions, gaps,
    iters, certified), each of shape (S, C): gaps are max_j c_j - 1 in
    nats at the returned q, iters the basic updates the row took.
    TOL bounds each row's gap to its true envelope point (in nats);
    MAX_ITERS counts basic updates per row.
    """
    S, C, m = slopes.size, P.shape[0], d.shape[1]
    R = S * C
    # one (S, n, m) kernel for every row: rows index it by slope, never
    # gather a per-row copy
    K = np.multiply(-(slopes * math.log(2.0))[:, None, None],
                    d - d.min(axis=1, keepdims=True))
    np.exp(K, out=K)
    # no entry underflows to zero, so every partition function stays
    # positive however little mass a source symbol or column holds
    np.maximum(K, np.finfo(np.float64).tiny, out=K)
    stack = prob = _BAProblem(K, np.tile(P, (S, 1)), np.repeat(np.arange(S), C))
    qout = np.full((R, m), 1.0 / m)
    done = np.zeros(R, dtype=bool)
    row_iters = np.zeros(R, dtype=np.int64)
    act = np.arange(R)
    q = np.full((R, m), 1.0 / m)
    cap = np.full(R, 64.0)
    tries = np.zeros(R, dtype=np.int64)
    # each row's certificate at its last halving, and checkpoints since
    ref = np.full(R, np.inf)
    since = np.zeros(R, dtype=np.int64)
    iters = 0
    while iters < MAX_ITERS and act.size:
        q1, c0, _, _ = prob.step(q)
        iters += 1
        # certificate checkpoint: freeze rows once individually certified,
        # so later extrapolation noise cannot un-converge them
        g0 = c0.max(axis=1) - 1.0
        fin = g0 < TOL
        halved = g0 <= 0.5 * ref
        ref = np.where(halved, g0, ref)
        since = np.where(halved, 0, since + 1)
        # checkpoints fall on iterations 1, 4, 7, ...; polishing on every
        # _POLISH_EVERY-th of them gathers more rows into one batch
        if (iters // 3) % _POLISH_EVERY == 0:
            starved = q[np.arange(act.size), c0.argmax(axis=1)] < _STARVED
            polish = np.flatnonzero(~fin & (tries < 3) & (
                (g0 < _POLISH_GATE) | (since >= _STALL_WINDOW) | starved))
            qp, ok = _newton_polish(K, prob.sid[polish], prob.P[polish],
                                    q[polish], c0[polish])
            q[polish[ok]] = qp[ok]
            fin[polish[ok]] = True
            tries[polish[~ok]] += 1
            since[polish[~ok]] = 0
        if fin.any():
            qout[act[fin]] = q[fin]
            done[act[fin]] = True
            row_iters[act[fin]] = iters
            keep = ~fin
            act, q, q1, c0 = act[keep], q[keep], q1[keep], c0[keep]
            cap, tries, ref, since = cap[keep], tries[keep], ref[keep], since[keep]
            if act.size == 0:
                break
            prob = prob.restrict(keep)
        if iters + 2 > MAX_ITERS:
            q = q1
            break
        q2, c1, F1, _ = prob.step(q1)
        qx, alpha = _extrapolate(q, c0, c1, q2, cap)
        q3, _, Fx, bad = prob.step(qx, strict=False)
        iters += 2
        # keep extrapolated rows only where the objective did not worsen;
        # grow the step cap on rows that used it fully, shrink on misses
        accept = ~bad & (Fx <= F1 + 1e-13)
        q = np.where(accept[:, None], q3, q2)
        hit = accept & (alpha >= cap - 1e-9)
        cap = np.where(hit, cap * 4.0, cap)
        cap = np.where(~accept, np.maximum(cap / 4.0, 1.0), cap)

    if act.size:
        qout[act] = q
        row_iters[act] = iters

    # every point from the two products that certify it, over all rows as
    # step takes them: Z = q K_s^T and c = (P/Z) K_s. The channel
    # W = q K_s / Z has output marginal q*c, so its distortion is
    # q . [(P/Z)(K_s*d)] and its rate, sum P W log2(W / (q*c)), is
    # q . [(P/Z)(K_s*log2 K_s)] - P . log2 Z - (q*c) . log2 c
    Z = _per_slope(qout, K.transpose(0, 2, 1), stack.segments)
    if not np.all(Z > 0.0):
        raise InternalConsistencyError("partition function underflowed to zero")
    ratio = stack.P / Z
    c = _per_slope(ratio, K, stack.segments)
    rates = -(np.einsum("rn,rn->r", stack.P, np.log2(Z))
              + np.einsum("rm,rm->r", qout * c, np.log2(c)))
    dists = np.empty(R)
    for s, a, b in stack.segments:
        dists[a:b] = np.einsum("rm,rm->r", qout[a:b], ratio[a:b] @ (K[s] * d))
        rates[a:b] += np.einsum("rm,rm->r", qout[a:b], ratio[a:b] @ (K[s] * np.log2(K[s])))
    gaps = np.maximum(c.max(axis=1) - 1.0, 0.0)
    return tuple(a.reshape(S, C) for a in (np.maximum(rates, 0.0), dists, gaps,
                                            row_iters, done))


def _stack_curves(tables, d: np.ndarray, grid: np.ndarray) -> dict[str, RDCurve]:
    """Envelopes of conditional tables that share distortion matrix d,
    solved as one stack. tables holds (label, w, P) per curve; per slope,
    each cell is solved on its own and rate and distortion are weighted
    by the cell mass. A point is converged when all its cells are."""
    rates, dists, gaps, iters, done = _ba_stack(
        np.vstack([P for _, _, P in tables]), d, grid)
    curves, a = {}, 0
    for label, w, _ in tables:
        cols = slice(a, a + len(w))
        a = cols.stop
        pts = [RDPoint(float(w @ rates[s, cols]), float(w @ dists[s, cols]),
                       float(slope), bool(done[s, cols].all()),
                       float(w @ gaps[s, cols]) * _LOG2E,
                       int(iters[s, cols].max()))
               for s, slope in enumerate(grid)]
        curves[label] = RDCurve.assemble(label, pts)
    return curves


def _slope_grid(slope_grid) -> np.ndarray:
    """The grid as a float array, default_slope_grid() for None; rejected
    before any solve unless it is nonempty, 1-D, finite and positive."""
    grid = default_slope_grid() if slope_grid is None else np.asarray(
        slope_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise InputError(f"slope grid must be a nonempty 1-D sequence, got {slope_grid!r}")
    if not np.all(np.isfinite(grid) & (grid > 0.0)):
        raise InputError(f"slopes must be finite and positive, got {slope_grid!r}")
    return grid


def conditional_rd_curve(joint: JointPMF, source_var: str, cond_var: str | None,
                         dist: DistortionMatrix, slope_grid=None) -> RDCurve:
    """Envelope of the conditional problem: per slope, solve each condition
    cell independently and weight rate and distortion by the cell mass.
    cond_var=None codes source_var unconditionally, as one cell."""
    if dist.source != joint.alphabet(source_var):
        raise InputError("distortion matrix source alphabet mismatch")
    grid = _slope_grid(slope_grid)
    label = f"{source_var}|{cond_var}"
    w, P = conditional_table(joint, source_var, cond_var)
    return _stack_curves([(label, w, P)], dist.d, grid)[label]


def compare_paradigms(params: PixelModelParams, slope_grid=None) -> dict[str, RDCurve]:
    """One envelope per row of pixel_model.PARADIGMS, keyed by its label.

    Residual-side distortion (r vs its reconstruction) equals the symbol
    distortion under squared error because the decoder adds xp back, so
    the curves share one distortion axis.
    """
    grid = _slope_grid(slope_grid)
    joint = build_joint(params)
    # one stack per distortion matrix: rows coding the same variable share it
    by_coded: dict[str, list] = {}
    for row in PARADIGMS:
        by_coded.setdefault(row.coded, []).append(row)
    curves = {}
    for coded, rows in by_coded.items():
        alph = joint.alphabet(coded)
        tables = [(row.label, *conditional_table(joint, coded, row.context))
                  for row in rows]
        curves.update(_stack_curves(tables, squared_error(alph, alph).d, grid))
    return {row.label: curves[row.label] for row in PARADIGMS}
