"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 1-10 --seconds 20
    python3 perfbench/collect.py --seeds 0 --trace --write perfbench/trajectory/BENCH_x.json

One command for all four workloads: each run is a fresh `run.py`
process; seeds are the outer loop so that drift on the machine hits
every workload alike. For each end-to-end metric it prints the median,
the quartiles (statistics.quantiles, n=4) and their distance as a share
of the median, beside the metric's bound in BENCHMARK.json. With
--trace it also makes one traced run per workload (first seed) and
prints the per-layer breakdown. --write saves everything as JSON, the
form of a trajectory entry.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
    return dict(json.loads(lines[-1]), detail=detail, table=lines[:-2])


def spread(values: list[float]) -> dict:
    # statistics.quantiles needs two values; one run has no spread
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 0,3,5")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    ap.add_argument("--write", type=Path, help="save the summary as JSON here")
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            r = run_once(w, seed, args.seconds, False)
            runs[w].append(r)
            print(f"{w} seed {seed}: attempted {r['attempted']} failed {r['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                  flush=True)

    summary = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for w in workloads:
        rs = runs[w]
        entry = {
            "attempted": sum(r["attempted"] for r in rs),
            "failed": sum(r["failed"] for r in rs),
            "work_unit": rs[0]["detail"]["work_unit"],
            "end_to_end": {m: dict(spread([r["metrics"][m]["value"] for r in rs]),
                                   unit=rs[0]["metrics"][m]["unit"], bound=bounds[m])
                           for m in rs[0]["metrics"]},
            "extra": {k: spread([r["detail"]["extra"][k] for r in rs])
                      for k in rs[0]["detail"]["extra"]},
            "provenance": [r["detail"]["provenance"] for r in rs],
        }
        print(f"\n{w}: {entry['failed']} of {entry['attempted']} ops failed; "
              f"work unit: {entry['work_unit']}")
        for m, s in entry["end_to_end"].items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- above bound/3"
            print(f"  {m:<22} median {s['median']:<12.6g} [{s['q1']:.6g}, {s['q3']:.6g}] "
                  f"{s['unit']:<5} spread {s['spread']:.4f} bound {s['bound']}{flag}")
        for k, s in entry["extra"].items():
            print(f"  {k:<22} median {s['median']:<12.6g} [{s['q1']:.6g}, {s['q3']:.6g}]")
        if args.trace:
            t = run_once(w, seeds[0], args.seconds, True)
            entry["per_layer"] = {"seed": seeds[0], "attempted": t["attempted"],
                                  "failed": t["failed"],
                                  **{k: v["value"] for k, v in t["metrics"].items()}}
            print("\n".join(t["table"]))
        summary["workloads"][w] = entry

    if args.write:
        args.write.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
