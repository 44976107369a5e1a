"""What the benchmark's metrics mean, beyond their names and units.

BENCHMARK.json declares every metric's name, unit and direction;
`declared()` reads them from there. Its schema has no room for the
per-layer map below, so the map lives here: for each per-layer metric,
the end-to-end metric and workloads it should move, and the workloads
where it should stay flat.
"""

import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

SWEEP, VERIFY, RD, CODEC = "sweep-m256", "verify-8x8", "rd-m16", "codec-m256"
ALL = (SWEEP, VERIFY, RD, CODEC)


def declared(trace: bool) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for a run:
    the per-layer ones with tracing on, the end-to-end ones without."""
    bench = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


# printed beside the end-to-end metrics but not in the result line: plain
# seconds drift with the machine's speed; fail_ratio is 0 at the seed
# commit (the result line carries it as its attempted/failed counts); the
# last two exist on one workload only
EXTRA_END_TO_END = {
    "setup_plain_s": "s",
    "work_per_s": "1/s",
    "op_s_p50": "s",
    "cal_s_p50": "s",
    "fail_ratio": "share",
    "codec_overhead_bits": "bits/sym",
    "rd_uncertified_points": "count",
}


def _map(moves, flat=()):
    return {"moves": moves, "flat": tuple(flat)}


MAP = {
    "prob_core.group_weights.calls": _map({"work_per_ref_s": (SWEEP, VERIFY)}, (RD, CODEC)),
    "prob_core.group_weights.self_s": _map({"work_per_ref_s": (SWEEP, VERIFY)}, (RD, CODEC)),
    "prob_core.group_weights.rows": _map({"work_per_ref_s": (SWEEP, VERIFY)}, (RD, CODEC)),
    "prob_core.adjoin.self_s": _map({"work_per_ref_s": (SWEEP, VERIFY)}, (RD, CODEC)),
    "prob_core.marginalize.self_s": _map({"op_ref_s_p50": (CODEC, RD)}, (SWEEP, VERIFY)),
    "prob_core.sample.self_s": _map({"work_per_ref_s": (CODEC,)}, (SWEEP, VERIFY, RD)),
    "prob_core.sample.draws": _map({"work_per_ref_s": (CODEC,)}, (SWEEP, VERIFY, RD)),
    "prob_core.random_pmf.self_s": _map({"work_per_ref_s": (VERIFY,)}, (SWEEP, RD, CODEC)),
    "info_measures.entropy.calls": _map({"work_per_ref_s": (SWEEP, VERIFY)}, (RD,)),
    "info_measures.entropy.self_s": _map({"work_per_ref_s": (SWEEP, VERIFY)}, (RD,)),
    "pixel_model.build_joint.calls": _map({"work_per_ref_s": (SWEEP, CODEC, RD)}, (VERIFY,)),
    "pixel_model.build_joint.self_s": _map({"work_per_ref_s": (SWEEP, CODEC, RD)}, (VERIFY,)),
    "pixel_model.entropy_report.calls": _map({"work_per_ref_s": (SWEEP, CODEC)}, (VERIFY, RD)),
    "pixel_model.entropy_report.self_s": _map({"work_per_ref_s": (SWEEP, CODEC)}, (VERIFY, RD)),
    "theorem_suite.check_lossless.self_s": _map({"work_per_ref_s": (VERIFY,)}, (SWEEP, RD, CODEC)),
    "theorem_suite.check_lossy.self_s": _map({"work_per_ref_s": (VERIFY,)}, (SWEEP, RD, CODEC)),
    "theorem_suite.run_randomized_suite.self_s": _map({"work_per_ref_s": (VERIFY,)}, (SWEEP, RD, CODEC)),
    "rd_solver.rd_curve.self_s": _map({"work_per_ref_s": (RD,), "op_ref_s_p50": (RD,)}, (SWEEP, VERIFY, CODEC)),
    "rd_solver.conditional_rd_curve.calls": _map({"work_per_ref_s": (RD,), "op_ref_s_p50": (RD,)}, (SWEEP, VERIFY, CODEC)),
    "rd_solver.conditional_rd_curve.self_s": _map({"work_per_ref_s": (RD,), "op_ref_s_p50": (RD,)}, (SWEEP, VERIFY, CODEC)),
    "rd_solver.curve_s.res": _map({"op_ref_s_p50": (RD,)}, (SWEEP, VERIFY, CODEC)),
    "rd_solver.curve_s.cond_ideal": _map({"op_ref_s_p50": (RD,)}, (SWEEP, VERIFY, CODEC)),
    "rd_solver.curve_s.cond": _map({"op_ref_s_p50": (RD,)}, (SWEEP, VERIFY, CODEC)),
    "rd_solver.curve_s.condres": _map({"op_ref_s_p50": (RD,)}, (SWEEP, VERIFY, CODEC)),
    "rd_solver.points": _map({}, (SWEEP, VERIFY, CODEC)),
    "rd_solver.uncertified": _map({"rd_uncertified_points": (RD,)}, (SWEEP, VERIFY, CODEC)),
    "codec.build_model.self_s": _map({"op_ref_s_p50": (CODEC,)}, (SWEEP, VERIFY, RD)),
    "codec.sample_pairs.self_s": _map({"work_per_ref_s": (CODEC,)}, (SWEEP, VERIFY, RD)),
    **{f"codec.{d}.us_per_sym.{p}": _map({"work_per_ref_s": (CODEC,)}, (SWEEP, VERIFY, RD))
       for d in ("encode", "decode")
       for p in ("residual", "conditional", "conditional-residual")},
    "codec.payload_bytes": _map({"codec_overhead_bits": (CODEC,)}, (SWEEP, VERIFY, RD)),
    "analysis.write_csv.self_s": _map({"op_ref_s_p50": (SWEEP, RD)}, (CODEC,)),
    "analysis.write_csv.bytes": _map({"op_ref_s_p50": (SWEEP, RD)}, (CODEC,)),
    "analysis.bd_rate_matrix.self_s": _map({"op_ref_s_p50": (RD,)}, (SWEEP, VERIFY, CODEC)),
    "cli.cmd_sweep.self_s": _map({"op_ref_s_p50": (SWEEP,)}, (VERIFY, RD, CODEC)),
    "cli.cmd_verify.self_s": _map({"op_ref_s_p50": (VERIFY,)}, (SWEEP, RD, CODEC)),
    "cli.cmd_rd.self_s": _map({"op_ref_s_p50": (RD,)}, (SWEEP, VERIFY, CODEC)),
    "cli.cmd_codec.self_s": _map({"op_ref_s_p50": (CODEC,)}, (SWEEP, VERIFY, RD)),
    # the per-module breakdown: self time of every traced function of a module
    **{f"layer.{m}.self_s": _map({"op_ref_s_p50": ALL})
       for m in ("prob_core", "info_measures", "pixel_model", "theorem_suite",
                 "rd_solver", "codec", "analysis", "cli")},
    "trace.ops": _map({}),
    "trace.overhead_share": _map({}),
    "trace.unattributed_share": _map({}),
}
