"""Self-check of the benchmark itself: a tiny-size run of every workload.

    python3 perfbench/selfcheck.py

It asserts that
- BENCHMARK.json names the workloads that workloads.py defines, and
  metrics.MAP covers exactly its per-layer metrics;
- a tiny untraced run and a tiny traced run of every workload pass their
  output checks and emit exactly the metric names and units that
  BENCHMARK.json declares, and the
  traced run's outputs equal the untraced run's (run.py compares them op
  by op and counts a difference as a failure);
- a deliberately corrupted output of every workload is counted as a
  failure: one sweep CSV value, one verify pass count, one rd envelope
  rate, one byte of a codec stream;
- run.py exits non-zero, without a result line, in a directory that holds
  only BENCHMARK.json and perfbench/.
It stops at the first failed assertion with exit code 1.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402
from perfbench.metrics import MAP  # noqa: E402
from perfbench.run import result_line  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS, CodecM256, RdM16, SweepM256, Verify8x8, _csv_rows)

ROOT = harness.ROOT
TINY = {
    "sweep-m256": lambda: SweepM256(Qs=(1.4, 64), n_p=8),
    "verify-8x8": lambda: Verify8x8(trials=20),
    "rd-m16": lambda: RdM16(cells=((0, 2),)),
    "codec-m256": lambda: CodecM256(blocks=1),
}


class CheckFailed(Exception):
    pass


def expect(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def _csv_bytes(rows) -> bytes:
    return ("\n".join(",".join(r) for r in rows) + "\n").encode()


def _bump_sweep(files):
    rows = _csv_rows(files["sweep.csv"])
    rows[1][2] = f"{float(rows[1][2]) * (1 + 1e-7):.9g}"   # H_R of the first row
    return {**files, "sweep.csv": _csv_bytes(rows)}


def _drop_verify_pass(files):
    rows = _csv_rows(files["verify.csv"])
    rows[1][3] = str(int(rows[1][3]) - 1)
    return {**files, "verify.csv": _csv_bytes(rows)}


def _raise_rd_rate(files):
    rows = _csv_rows(files["rd_curves.csv"])
    rows[2][2] = repr(float(rows[2][2]) + 1e-3)
    return {**files, "rd_curves.csv": _csv_bytes(rows)}


def _flip_codec_byte(files):
    name = next(n for n in files if n.endswith(".crlb"))
    data = bytearray(files[name])
    data[len(data) // 2] ^= 0x10
    return {**files, name: bytes(data)}


CORRUPT = {
    "sweep-m256": _bump_sweep,
    "verify-8x8": _drop_verify_pass,
    "rd-m16": _raise_rd_rate,
    "codec-m256": _flip_codec_byte,
}


def check_declaration(bench):
    expect([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads != workloads.WORKLOADS")
    expect([m["name"] for m in bench["per_layer"]] == list(MAP),
           "BENCHMARK.json per_layer != the metrics of metrics.MAP")


def check_runs(bench, name):
    for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
        result = harness.run(TINY[name](), 1, 0, trace)
        line = result_line(result, trace)
        expect(line["failed"] == 0 and line["correct"],
               f"{name} trace={int(trace)}: failures {result['failures']}")
        expect({n: m["unit"] for n, m in line["metrics"].items()}
               == {m["name"]: m["unit"] for m in declared},
               f"{name} trace={int(trace)}: emitted metrics differ from BENCHMARK.json")
        expect(all(math.isfinite(m["value"]) for m in line["metrics"].values()),
               f"{name} trace={int(trace)}: a metric is not finite")
        json.dumps(line, allow_nan=False)


def check_corruption(cli, name):
    workload = TINY[name]()
    op = next(workload.ops(1))
    res = harness.execute(cli.main, op.argv)
    error, _ = workload.check(op, res)
    expect(error is None, f"{name}: intact output rejected: {error}")
    res.files = CORRUPT[name](res.files)
    try:
        error, _ = workload.check(op, res)
    except Exception as e:  # harness.run counts a raising check as a failure too
        error = f"{type(e).__name__}: {e}"
    expect(error is not None, f"{name}: corrupted output accepted")
    print(f"  {name}: corrupted output rejected ({error[:90]})")


def check_bare_directory():
    bare = ROOT / ".perfbench_bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "rd-m16", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and '"correct"' not in done.stdout,
           f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    cli = harness.import_cli()
    try:
        check_declaration(bench)
        for name in WORKLOADS:
            check_runs(bench, name)
            print(f"{name}: tiny untraced and traced runs pass, metric names match")
        os.chdir(ROOT)
        for name in WORKLOADS:
            check_corruption(cli, name)
        shutil.rmtree(ROOT / harness.OUT, ignore_errors=True)
        check_bare_directory()
        print("bare directory: run.py exits non-zero without a result")
    except CheckFailed as e:
        print(f"selfcheck FAILED: {e}", file=sys.stderr)
        return 1
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
