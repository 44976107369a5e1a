"""Record the output references the workload checks compare against.

    python3 perfbench/record_reference.py

Run it at the commit whose outputs are the reference (the files in
reference/ were recorded at the commit that added this benchmark). It
writes reference/verify_checks.json, the check ids `crlab verify`
reports, and reference/rd_m16.json, the rd-m16 envelopes of every (p, Q)
input the workload can draw, as the rows of their rd_curves.csv.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402
from perfbench.workloads import REFERENCE, RdM16, _csv_rows, _fmt, rd_key  # noqa: E402


def main() -> int:
    cli = harness.import_cli()
    os.chdir(harness.ROOT)
    res = harness.execute(cli.main, ("verify", "--trials", "10", "--shape", "8x8"))
    ids = [r[0] for r in _csv_rows(res.files["verify.csv"])[1:]
           if r[1] in ("identity", "inequality")]
    (REFERENCE / "verify_checks.json").write_text(json.dumps(ids, indent=1) + "\n")

    envelopes = {}
    for p in sum(RdM16.p_values(), []):
        for Q in RdM16.QS:
            key = rd_key(p, Q)
            res = harness.execute(cli.main, ("rd", "--M", "16", "--p", _fmt(p), "--Q", _fmt(Q),
                                             "--slopes", str(RdM16.SLOPES)))
            if res.rc != 0 or "WARNING" in res.stderr:
                raise SystemExit(f"{key}: exit {res.rc}\n{res.stderr}")
            curves = {}
            for label, *point in _csv_rows(res.files["rd_curves.csv"])[1:]:
                curves.setdefault(label, []).append([float(v) for v in point])
            envelopes[key] = curves
            print(f"{key}: {res.seconds:.2f} s", flush=True)
    shutil.rmtree(harness.OUT, ignore_errors=True)
    (REFERENCE / "rd_m16.json").write_text(json.dumps(envelopes, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
