"""Run one crlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-m256 --seed 0 --seconds 20 --trace 0

Run from anywhere; it works in the checkout that holds it and builds
nothing. With `--trace 0` it prints the end-to-end metrics of
BENCHMARK.json, with `--trace 1` the per-layer ones. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}; the names and units come from BENCHMARK.json. Before it
come a human-readable table and one `detail` line of JSON with the
provenance, the work unit, every op's plain time and the figures that
are not in the result line (metrics.EXTRA_END_TO_END). It exits 2
without a result line when crlab cannot be imported from the
checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402
from perfbench.metrics import EXTRA_END_TO_END, declared  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def result_line(result: dict, trace: bool) -> dict:
    units = declared(trace)
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in result["metrics"].items()},
    }


def table(result: dict, trace: bool) -> list[str]:
    p = result["provenance"]
    lines = [f"perfbench {p['workload']} seed={p['seed']} seconds={p['seconds']} "
             f"trace={p['trace']}",
             f"{result['attempted']} ops, {result['units']} {result['work_unit']} "
             f"in {result['op_seconds']:.3f} s of op time"]
    units = declared(trace)
    rows = [(n, v, units[n]) for n, v in result["metrics"].items()]
    rows += [(n, v, EXTRA_END_TO_END[n]) for n, v in result["extra"].items()]
    lines += [f"  {n:<44} {v:>14.6g} {u}" for n, v, u in rows]
    lines += [f"  FAILED {argv[:120]}: {why[:400]}" for argv, why in result["failures"]]
    if result.get("probe_errors"):
        lines.append(f"  {result['probe_errors']} trace probe(s) could not read their counts")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        harness.import_cli()
    except ImportError as e:
        print(f"perfbench: cannot import crlab from {harness.SRC}: {e}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    result = harness.run(WORKLOADS[args.workload](), args.seed, args.seconds, trace)
    print("\n".join(table(result, trace)))
    detail = {k: result[k] for k in ("provenance", "work_unit", "units", "op_seconds", "op_times",
                                        "extra")}
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result_line(result, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
