"""Numerical verification of the residual/conditional rate identities.

Checks operate on a JointPMF carrying the fixed variable names

    x   current symbol
    xp  prediction available at the encoder
    xq  bottlenecked prediction available at the decoder, xq = f(xp)
    r   residual x - xp
    xt  lossy reconstruction (lossy checks only)
    rt  lossy residual reconstruction xt - xp

Identity checks report a signed residual (lhs - rhs) and pass when its
magnitude stays below 1e-9. Inequality checks report a margin and pass
when it is >= -1e-9.

Two inequality checks (residual_side_info_drop, conditioning_gain_bound)
are theorems only when rt is produced by a channel acting on r alone,
i.e. rt is conditionally independent of (x, xp) given r. The randomized
suite constructs its lossy joints that way. On arbitrary joints those two
margins can go negative; the identity checks hold regardless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InputError, PreconditionError
from .prob_core import (
    MASK64,
    JointPMF,
    JointStack,
    adjoin_difference,
    combined_index,
    difference_alphabet,
    require_stochastic,
    require_unit_sums,
    splitmix64,
    sum_alphabet,
)
from .info_measures import EntropyMemo

__all__ = [
    "CHECK_TOL",
    "CheckResult",
    "Observation",
    "TheoremReport",
    "TrialFailure",
    "check_lossless",
    "check_lossy",
    "format_report",
    "replay_trial",
    "report_csv_rows",
    "run_randomized_suite",
    "trial_seed",
]

CHECK_TOL = 1e-9

IDENTITY = "identity"
INEQUALITY = "inequality"


@dataclass(frozen=True)
class CheckResult:
    """One verified relation: worst signed residual or smallest margin."""

    check_id: str
    kind: str
    value: float
    passed: bool
    pass_count: int = 0
    trial_count: int = 1

    def __post_init__(self):
        if self.kind not in (IDENTITY, INEQUALITY):
            raise InputError(f"unknown check kind {self.kind!r}")


@dataclass(frozen=True)
class Observation:
    """Measured quantity that is recorded, never asserted."""

    obs_id: str
    value: float
    premise: bool = True


@dataclass(frozen=True)
class TrialFailure:
    trial_index: int
    trial_seed: int
    check_id: str
    value: float


@dataclass(frozen=True)
class TheoremReport:
    checks: tuple[CheckResult, ...]
    observations: tuple[Observation, ...] = ()
    trial_count: int = 1
    seed: int = 0
    failures: tuple[TrialFailure, ...] = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, check_id: str) -> CheckResult:
        for c in self.checks:
            if c.check_id == check_id:
                return c
        raise InputError(f"no check named {check_id!r}")


def _identity(cid: str, lhs, rhs):
    return cid, IDENTITY, lhs - rhs


def _inequality(cid: str, margin):
    return cid, INEQUALITY, margin


def _require_vars(pmf: JointStack, names: Sequence[str]):
    missing = [n for n in names if n not in pmf.names]
    if missing:
        raise PreconditionError(f"pmf lacks required variables {missing}; has {pmf.names}")


def _require_deterministic(pmf: JointStack, src: str, out: str):
    """out must be a function of src everywhere on the support: no src
    group splits into two (src, out) groups."""
    pairs = np.count_nonzero(pmf.group_probs((src, out))[0])
    if pairs != np.count_nonzero(pmf.group_probs((src,))[0]):
        raise PreconditionError(
            f"{out!r} is not a deterministic function of {src!r} (H({out}|{src}) > 0)"
        )


def _require_difference(pmf: JointStack, out: str, a: str, b: str):
    """out must equal a - b exactly on every support point."""
    diff = combined_index(pmf, a, b, -1, pmf.alphabet(out))
    bad = int(np.count_nonzero(diff != pmf.idx[:, pmf.var_pos(out)]))
    if bad:
        raise PreconditionError(f"{out!r} != {a!r} - {b!r} on {bad} support points")


def _require_lossless(pmf: JointStack):
    """The premises of _lossless: xq is a function of xp and r = x - xp."""
    _require_vars(pmf, ("x", "xp", "xq", "r"))
    _require_deterministic(pmf, "xp", "xq")
    _require_difference(pmf, "r", "x", "xp")


def _require_lossy(pmf: JointStack):
    """The premises of _lossless and _lossy: those above and rt = xt - xp."""
    _require_lossless(pmf)
    _require_difference(pmf, "rt", "xt", "xp")


def _lossless(pmf: JointStack, h: EntropyMemo):
    """Checks as (id, kind, value per joint) and observations as (id, value
    per joint, premise per joint) of the lossless relations on every joint
    of pmf, which must pass _require_lossless."""
    checks = (
        _identity("residual_rate_split",
                  h("r"), h.cond("x", "xp") + h.mi("xp", "r")),
        _identity("bottleneck_rate_gap",
                  h.cond("x", "xp"), h.cond("x", "xq") - h.cmi("x", "xp", "xq")),
        _identity("residual_rate_via_bottleneck",
                  h("r"),
                  h.cond("x", "xq") - h.cmi("x", "xp", "xq") + h.mi("xp", "r")),
        _inequality("conditioning_ladder_outer", h("r") - h.cond("r", "xq")),
        _inequality("conditioning_ladder_inner", h.cond("r", "xq") - h.cond("r", "xp")),
        _identity("residual_equals_conditional", h.cond("r", "xp"), h.cond("x", "xp")),
        _identity("gap_balance",
                  h.cond("x", "xq") - h.cond("r", "xq"),
                  (h.mi("x", "xp") - h.mi("r", "xp"))
                  - (h.mi("x", "xq") - h.mi("r", "xq"))),
        _inequality("prediction_info_loss", h.mi("x", "xp") - h.mi("x", "xq")),
        _inequality("conditional_rate_penalty", h.cond("x", "xq") - h.cond("x", "xp")),
    )
    observations = (
        ("conditional_condres_gap",
         h.cond("x", "xq") - h.cond("r", "xq"), h("r") < h("x")),
    )
    return checks, observations


def _lossy(pmf: JointStack, h: EntropyMemo):
    """The lossy relations, as _lossless gives its own; pmf must pass _require_lossy."""
    checks = (
        _identity("lossy_residual_rate_split",
                  h.mi("r", "rt"),
                  h.cmi("x", "xt", "xp") + h.mi("xp", "r") - h.cmi("xp", "r", "rt")),
        _identity("lossy_conditional_equivalence",
                  h.cmi("r", "rt", "xp"), h.cmi("x", "xt", "xp")),
        _identity("reconstruction_entropy_swap",
                  h.mi("xt", "xp") - h.mi("rt", "xp"), h("xt") - h("rt")),
        _inequality("residual_side_info_drop",
                    h.mi("xp", "r") - h.cmi("xp", "r", "rt")),
        _inequality("conditioning_gain_bound",
                    h.mi("r", "rt") - h.cmi("r", "rt", "xq")),
    )
    observations = (
        ("optimal_coder_leakage", h.cmi("xt", "xp", "x", "xq"), np.ones(len(pmf), bool)),
    )
    return checks, observations


def _table(checks):
    """(is identity, values, passed) of the checks, one row per check and
    one column per joint."""
    identity = np.array([kind == IDENTITY for _, kind, _ in checks])
    values = np.stack([v for _, _, v in checks])
    passed = np.where(identity[:, None], np.abs(values) < CHECK_TOL, values >= -CHECK_TOL)
    return identity, values, passed


def _fold(identity: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The value of each row that folding its columns in order keeps: the
    first of the largest residuals (a later one must be strictly larger),
    the last of the smallest margins (min(new, old) takes the new on a tie).
    Ties differ only in the sign of a zero, which the report prints."""
    first_max = np.argmax(np.abs(values), axis=1)
    last_min = values.shape[1] - 1 - np.argmin(values[:, ::-1], axis=1)
    return values[np.arange(len(values)), np.where(identity, first_max, last_min)]


def _results(checks, worst, passes, trials: int) -> tuple[CheckResult, ...]:
    return tuple(CheckResult(cid, kind, float(w), bool(n == trials), int(n), trials)
                 for (cid, kind, _), w, n in zip(checks, worst, passes))


def _failures(checks, passed, seed: int, first: int) -> list[TrialFailure]:
    """Every failing (trial, check), trial by trial and checks in order;
    column t is trial first + t of the run seeded by seed."""
    return [TrialFailure(first + t, trial_seed(seed, first + t), checks[c][0],
                         float(checks[c][2][t]))
            for t, c in np.argwhere(~passed.T).tolist()]


def _one_joint(checks, observations) -> TheoremReport:
    _, values, passed = _table(checks)
    return TheoremReport(
        _results(checks, values[:, 0], passed[:, 0], 1),
        tuple(Observation(oid, float(v[0]), premise=bool(p[0]))
              for oid, v, p in observations))


def check_lossless(pmf: JointPMF) -> TheoremReport:
    """Verify the lossless rate identities and inequalities on one joint.

    Requires variables x, xp, xq, r with xq deterministic in xp and
    r = x - xp.
    """
    _require_lossless(pmf)
    return _one_joint(*_lossless(pmf, EntropyMemo(pmf)))


def check_lossy(pmf: JointPMF) -> TheoremReport:
    """Verify the lossy-coding identities and inequalities on one joint.

    Requires x, xp, xq, xt; the residuals r and rt are adjoined here when
    absent. The two inequality checks assume rt depends on (x, xp) only
    through r; see the module docstring.
    """
    _require_vars(pmf, ("x", "xp", "xq", "xt"))
    if "r" not in pmf.names:
        pmf = adjoin_difference(pmf, "x", "xp", "r")
    if "rt" not in pmf.names:
        pmf = adjoin_difference(pmf, "xt", "xp", "rt")
    _require_lossy(pmf)
    return _one_joint(*_lossy(pmf, EntropyMemo(pmf)))


def trial_seed(seed: int, k: int) -> int:
    """Derived seed for trial k, stable across trial execution order."""
    return splitmix64((seed + k * 0x9E3779B97F4A7C15) & MASK64)


# support rows per block of stacked trials: 4 trials at 8x8, 960 rows each.
# The trials of a block are grouped by one key; larger blocks cost memory
# and gain little.
_BLOCK_ROWS = 4096


def _trial_layout(shape: tuple[int, int]):
    """(variables, columns, r_of_cell) of a trial of the given shape.

    columns holds, one row per variable, the support points of a trial
    before zero weights are dropped: every (x, xp) cell in grid order, each
    followed by every rt symbol, with xq left 0. r_of_cell is the r index
    of each cell. Only the weights and xq differ between trials. The xq
    alphabet is the widest a bottleneck can reach; a trial with k symbols
    uses its first k.
    """
    x_alph, xp_alph = range(shape[0]), range(shape[1])
    r_alph = difference_alphabet(x_alph, xp_alph)
    xt_alph = sum_alphabet(xp_alph, r_alph)
    variables = (("x", x_alph), ("xp", xp_alph), ("xq", xp_alph),
                 ("r", r_alph), ("rt", r_alph), ("xt", xt_alph))
    nr = len(r_alph)
    x, xp = np.indices(shape).reshape(2, -1)
    r_of_cell = x - xp - r_alph[0]
    x, xp, r = (np.repeat(c, nr) for c in (x, xp, r_of_cell))
    rt = np.tile(np.arange(nr), shape[0] * shape[1])
    xt = xp + rt + r_alph[0] - xt_alph[0]
    columns = np.stack([x, xp, np.zeros_like(x), r, rt, xt]).astype(np.intp)
    # one layout serves every block of a run
    columns.flags.writeable = r_of_cell.flags.writeable = False
    return variables, columns, r_of_cell


def _trial_stack(t_seeds: Sequence[int], shape: tuple[int, int], layout) -> JointStack:
    """The trials seeded by t_seeds, stacked in order; layout is
    _trial_layout(shape).

    Trial t draws from default_rng(t_seeds[t]), in this order: p(x, xp)
    from a flat Dirichlet, the bottleneck size k uniform in 1..|xp|, the
    image of each xp uniform in 0..k-1, and one flat-Dirichlet row of the
    residual channel p(rt | r) per r. Its support is (x, xp, rt) in that
    order, without the points of weight 0, and xt = xp + rt.
    """
    variables, columns, r_of_cell = layout
    n, nr = len(t_seeds), len(variables[3][1])
    flat_cells, flat_r = np.ones(r_of_cell.size), np.ones(nr)
    p = np.empty((n, r_of_cell.size))
    k = np.empty(n, dtype=np.intp)
    images = np.empty((n, shape[1]), dtype=np.intp)
    kernel = np.empty((n, nr, nr))
    for t, s in enumerate(t_seeds):
        rng = np.random.default_rng(s)
        p[t] = rng.dirichlet(flat_cells)
        k[t] = int(rng.integers(1, shape[1] + 1))
        images[t] = rng.integers(0, int(k[t]), size=shape[1])
        kernel[t] = rng.dirichlet(flat_r, size=nr)
    require_unit_sums(p.sum(axis=1))
    require_stochastic(kernel)

    probs = (p[:, :, None] * kernel[:, r_of_cell, :]).ravel()
    stacked = np.tile(columns, n)
    stacked[2] = images[:, columns[1]].ravel()
    seg = np.repeat(np.arange(n), columns.shape[1])
    keep = probs > 0.0
    if not keep.all():
        stacked, probs, seg = stacked[:, keep], probs[keep], seg[keep]
    sizes = np.tile([len(a) for _, a in variables], (n, 1))
    sizes[:, 2] = k
    # column-major rows: each key digit is read from contiguous memory
    return JointStack(variables, stacked.T, probs, seg, sizes)


def _shape(shape: Sequence[int]) -> tuple[int, int]:
    shape = tuple(int(s) for s in shape)
    if len(shape) != 2:
        raise InputError(f"shape must give the two alphabet sizes (x, xp), got {shape}")
    if any(s < 1 for s in shape):
        raise InputError(f"all alphabet sizes must be >= 1, got {list(shape)}")
    return shape


def _blocks(seed: int, trials: range, shape: tuple[int, int]):
    """(first, checks, observations) of the given trials of the run seeded
    by seed, a block of up to _BLOCK_ROWS stacked support rows at a time:
    trials first, first + 1, ..., with checks and observations as _lossless
    gives them, lossless then lossy.

    Every value is bit for bit what check_lossless and check_lossy give on
    the trial's joint alone.
    """
    layout = _trial_layout(shape)
    per_block = max(1, _BLOCK_ROWS // layout[1].shape[1])
    for first in range(trials.start, trials.stop, per_block):
        t_seeds = [trial_seed(seed, k) for k in range(first, min(first + per_block, trials.stop))]
        stack = _trial_stack(t_seeds, shape, layout)
        _require_lossy(stack)
        h = EntropyMemo(stack)
        (ll, ll_obs), (ly, ly_obs) = _lossless(stack, h), _lossy(stack, h)
        yield first, ll + ly, ll_obs + ly_obs


def run_randomized_suite(trials: int, shape: Sequence[int] = (8, 8),
                         seed: int = 0) -> TheoremReport:
    """Fuzz the full check set on random joints with random bottlenecks.

    Each trial draws p(x, xp) from a flat Dirichlet over the given
    alphabet sizes, a uniformly random deterministic bottleneck f, and a
    random full-support reconstruction channel on the residual (see
    _trial_stack). Lossless and lossy checks both run on every trial.
    Failures carry (trial index, trial seed) so a trial can be replayed
    exactly via replay_trial.

    Trials run stacked in blocks of up to _BLOCK_ROWS support rows, each
    block folded into the report in trial order; every value is bit for bit
    that of check_lossless and check_lossy run trial by trial.
    """
    trials = int(trials)
    if trials < 1:
        raise InputError(f"need at least one trial, got {trials}")
    shape = _shape(shape)
    worst, passes, failures = None, 0, []
    # the first of the smallest gaps and the first of the largest leakages
    gap, gap_premise, leak = math.inf, False, -math.inf
    for first, checks, ((_, gaps, premise), (_, leaks, _)) in _blocks(seed, range(trials), shape):
        identity, values, passed = _table(checks)
        if worst is not None:
            values = np.column_stack((worst, values))
        worst = _fold(identity, values)
        passes += passed.sum(axis=1)
        failures += _failures(checks, passed, seed, first)
        gaps = np.concatenate(([gap], gaps[premise]))
        gap, gap_premise = gaps[np.argmin(gaps)], gap_premise or bool(premise.any())
        leaks = np.concatenate(([leak], leaks))
        leak = leaks[np.argmax(leaks)]

    observations = (
        Observation("conditional_condres_gap",
                    float(gap) if gap_premise else math.nan, premise=gap_premise),
        Observation("optimal_coder_leakage", float(leak)),
    )
    return TheoremReport(_results(checks, worst, passes, trials), observations,
                         trial_count=trials, seed=seed, failures=tuple(failures))


def replay_trial(seed: int, k: int, shape: Sequence[int] = (8, 8)) -> TheoremReport:
    """Re-run trial k of a suite run bit-for-bit; see run_randomized_suite."""
    t_seed = trial_seed(seed, k)
    [(_, checks, observations)] = _blocks(seed, range(k, k + 1), _shape(shape))
    return replace(_one_joint(checks, observations), seed=t_seed,
                   failures=tuple(_failures(checks, _table(checks)[2], seed, k)))


def format_report(report: TheoremReport) -> str:
    """One line per check: id, kind, worst residual/margin, pass count."""
    lines = [f"theorem checks: {report.trial_count} trial(s), seed {report.seed}"]
    for c in report.checks:
        label = "worst residual" if c.kind == IDENTITY else "min margin"
        status = "pass" if c.passed else "FAIL"
        lines.append(
            f"  {c.check_id:<32} {c.kind:<10} {label} {c.value: .3e}"
            f"  {status} {c.pass_count}/{c.trial_count}"
        )
    for o in report.observations:
        note = "" if o.premise else "  (premise never held)"
        lines.append(f"  {o.obs_id:<32} observed   value {o.value: .3e}{note}")
    if report.failures:
        lines.append(f"  {len(report.failures)} failing trial(s); first replay keys:")
        for f in report.failures[:5]:
            lines.append(
                f"    trial {f.trial_index} seed {f.trial_seed}: "
                f"{f.check_id} value {f.value:.3e}"
            )
    return "\n".join(lines)


def report_csv_rows(report: TheoremReport) -> list[tuple]:
    """Header plus one row per check, mirroring format_report."""
    rows: list[tuple] = [("check_id", "kind", "worst", "pass_count", "trial_count")]
    for c in report.checks:
        rows.append((c.check_id, c.kind, c.value, c.pass_count, c.trial_count))
    for o in report.observations:
        rows.append((o.obs_id, "observed", o.value,
                     int(o.premise), report.trial_count))
    return rows
