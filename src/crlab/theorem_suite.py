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
    Alphabet,
    DeterministicMap,
    JointPMF,
    adjoin_channel,
    adjoin_difference,
    adjoin_map,
    adjoin_sum,
    combined_index,
    group_weights,
    random_pmf,
    splitmix64,
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


def _identity(cid: str, lhs: float, rhs: float) -> CheckResult:
    res = lhs - rhs
    ok = abs(res) < CHECK_TOL
    return CheckResult(cid, IDENTITY, res, ok, pass_count=int(ok))


def _inequality(cid: str, margin: float) -> CheckResult:
    ok = margin >= -CHECK_TOL
    return CheckResult(cid, INEQUALITY, margin, ok, pass_count=int(ok))


def _require_vars(pmf: JointPMF, names: Sequence[str]):
    missing = [n for n in names if n not in pmf.names]
    if missing:
        raise PreconditionError(f"pmf lacks required variables {missing}; has {pmf.names}")


def _require_deterministic(pmf: JointPMF, src: str, out: str):
    """out must be a function of src everywhere on the support."""
    rows, _ = group_weights(pmf, (src, out))
    if np.unique(rows[:, 0]).size != rows.shape[0]:
        raise PreconditionError(
            f"{out!r} is not a deterministic function of {src!r} (H({out}|{src}) > 0)"
        )


def _require_difference(pmf: JointPMF, out: str, a: str, b: str):
    """out must equal a - b exactly on every support point."""
    diff = combined_index(pmf, a, b, -1, pmf.alphabet(out))
    bad = int(np.count_nonzero(diff != pmf.idx[:, pmf.var_pos(out)]))
    if bad:
        raise PreconditionError(f"{out!r} != {a!r} - {b!r} on {bad} support points")


def check_lossless(pmf: JointPMF, seed: int = 0) -> TheoremReport:
    """Verify the lossless rate identities and inequalities on one joint.

    Requires variables x, xp, xq, r with xq deterministic in xp and
    r = x - xp.
    """
    _require_vars(pmf, ("x", "xp", "xq", "r"))
    _require_deterministic(pmf, "xp", "xq")
    _require_difference(pmf, "r", "x", "xp")
    h = EntropyMemo(pmf)

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
        Observation(
            "conditional_condres_gap",
            h.cond("x", "xq") - h.cond("r", "xq"),
            premise=h("r") < h("x"),
        ),
    )
    return TheoremReport(checks, observations, trial_count=1, seed=seed)


def check_lossy(pmf: JointPMF, seed: int = 0) -> TheoremReport:
    """Verify the lossy-coding identities and inequalities on one joint.

    Requires x, xp, xq, xt; the residuals r and rt are adjoined here when
    absent. The two inequality checks assume rt depends on (x, xp) only
    through r; see the module docstring.
    """
    _require_vars(pmf, ("x", "xp", "xq", "xt"))
    _require_deterministic(pmf, "xp", "xq")
    if "r" not in pmf.names:
        pmf = adjoin_difference(pmf, "x", "xp", "r")
    if "rt" not in pmf.names:
        pmf = adjoin_difference(pmf, "xt", "xp", "rt")
    _require_difference(pmf, "r", "x", "xp")
    _require_difference(pmf, "rt", "xt", "xp")
    h = EntropyMemo(pmf)

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
        Observation("optimal_coder_leakage", h.cmi("xt", "xp", "x", "xq")),
    )
    return TheoremReport(checks, observations, trial_count=1, seed=seed)


def trial_seed(seed: int, k: int) -> int:
    """Derived seed for trial k, stable across trial execution order."""
    return splitmix64((seed + k * 0x9E3779B97F4A7C15) & MASK64)


def _random_bottleneck(rng: np.random.Generator, domain: Alphabet) -> DeterministicMap:
    k = int(rng.integers(1, len(domain) + 1))
    codomain = Alphabet("xq_values", tuple(range(k)))
    images = tuple(int(v) for v in rng.integers(0, k, size=len(domain)))
    return DeterministicMap(domain, codomain, images)


def _lossy_trial_pmf(rng: np.random.Generator, shape: Sequence[int]) -> JointPMF:
    """Random joint on (x, xp), random bottleneck, and a random memoryless
    reconstruction channel applied to the residual."""
    base = random_pmf(shape, seed=rng, names=("x", "xp"))
    base = adjoin_map(base, "xp", _random_bottleneck(rng, base.alphabet("xp")), "xq")
    base = adjoin_difference(base, "x", "xp", "r")
    r_alph = base.alphabet("r")
    nr = len(r_alph)
    kernel = rng.dirichlet(np.ones(nr), size=nr)
    rt_alph = Alphabet("rt_values", r_alph.symbols)
    base = adjoin_channel(base, "r", kernel, rt_alph, "rt")
    return adjoin_sum(base, "xp", "rt", "xt")


def _merge(worst: dict, result: TheoremReport, k: int, t_seed: int,
           failures: list):
    for c in result.checks:
        prev = worst.get(c.check_id)
        if prev is None:
            worst[c.check_id] = c
        else:
            if c.kind == IDENTITY:
                value = c.value if abs(c.value) > abs(prev.value) else prev.value
            else:
                value = min(c.value, prev.value)
            worst[c.check_id] = replace(
                prev,
                value=value,
                passed=prev.passed and c.passed,
                pass_count=prev.pass_count + c.pass_count,
                trial_count=prev.trial_count + 1,
            )
        if not c.passed:
            failures.append(TrialFailure(k, t_seed, c.check_id, c.value))


def run_randomized_suite(trials: int, shape: Sequence[int] = (8, 8),
                         seed: int = 0) -> TheoremReport:
    """Fuzz the full check set on random joints with random bottlenecks.

    Each trial draws p(x, xp) from a flat Dirichlet over the given
    alphabet sizes, a uniformly random deterministic bottleneck f, and a
    random full-support reconstruction channel on the residual. Lossless and
    lossy checks both run on every trial. Failures carry (trial index,
    trial seed) so a trial can be replayed exactly via replay_trial.
    """
    trials = int(trials)
    if trials < 1:
        raise InputError(f"need at least one trial, got {trials}")
    shape = tuple(int(s) for s in shape)
    if len(shape) != 2:
        raise InputError(f"shape must give the two alphabet sizes (x, xp), got {shape}")

    worst: dict[str, CheckResult] = {}
    failures: list[TrialFailure] = []
    gap_min = math.inf
    gap_premise = False
    leak_max = -math.inf
    for k in range(trials):
        t_seed = trial_seed(seed, k)
        res_ll, res_ly = _run_trial(t_seed, shape)
        _merge(worst, res_ll, k, t_seed, failures)
        _merge(worst, res_ly, k, t_seed, failures)
        obs = {o.obs_id: o for o in res_ll.observations + res_ly.observations}
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
    return TheoremReport(tuple(worst.values()), observations,
                         trial_count=trials, seed=seed,
                         failures=tuple(failures))


def _run_trial(t_seed: int, shape: Sequence[int]):
    rng = np.random.default_rng(t_seed)
    pmf = _lossy_trial_pmf(rng, shape)
    return check_lossless(pmf, seed=t_seed), check_lossy(pmf, seed=t_seed)


def replay_trial(seed: int, k: int, shape: Sequence[int] = (8, 8)) -> TheoremReport:
    """Re-run trial k of a suite run bit-for-bit; see run_randomized_suite."""
    t_seed = trial_seed(seed, k)
    res_ll, res_ly = _run_trial(t_seed, shape)
    worst: dict[str, CheckResult] = {}
    failures: list[TrialFailure] = []
    _merge(worst, res_ll, k, t_seed, failures)
    _merge(worst, res_ly, k, t_seed, failures)
    return TheoremReport(tuple(worst.values()),
                         res_ll.observations + res_ly.observations,
                         trial_count=1, seed=t_seed, failures=tuple(failures))


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
