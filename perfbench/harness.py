"""Closed-loop load generator: one client, the next op only after the last ends.

Each op is one in-process call to `crlab.cli.main(argv)` with `--out`
set to a throwaway directory inside the checkout, exactly what a user
types. Its wall time is measured around that call alone; the output
check runs after the clock stops. The loop stops starting ops once the
measured op time reaches the run length and the workload's current
block of ops is complete.

The machine's speed drifts, so the gated time metrics are in reference
seconds (see calibration.py). Before and after every op the loop times
the calibration task, and the op's time is scaled by the mean of the
two. Each set-up interpreter times the task itself, right after the
import it measures. Plain seconds are reported beside them.

With tracing on, every op runs twice, once plain and once traced (the
order alternates from op to op). The two outputs must be identical, and
the two times give the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from .calibration import CAL_REF_S, calibrate
from .tracing import Tracer
from .workloads import OpResult

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ".perfbench_out"  # relative, so the provenance line of every output is fixed
SETUP_RUNS = 11

SETUP_CODE = """\
import contextlib, io, sys, time
t = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    import crlab.cli
    try:
        crlab.cli.main(["--version"])
    except SystemExit:
        pass
t = time.perf_counter() - t
sys.path.insert(0, ".")
from perfbench.calibration import calibrate
calibrate()  # the first call pays for numpy's first-use paths
print(t, calibrate())
"""


def import_cli():
    """crlab.cli from this checkout's src/, or ImportError."""
    sys.path.insert(0, str(SRC))
    import crlab.cli
    if SRC.resolve() not in Path(crlab.cli.__file__).resolve().parents:
        raise ImportError(f"crlab imported from {crlab.cli.__file__}, not {SRC}")
    return crlab.cli


def _child_env():
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def measure_setup() -> tuple[float, float]:
    """Medians, over fresh interpreters, of `import crlab.cli` plus the
    parser build (`crlab --version`), which every CLI run pays: in
    reference seconds and in plain seconds. A first untimed interpreter
    writes the bytecode cache."""
    ref, plain = [], []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True,
                              timeout=120, check=True)
        if i:
            seconds, cal = map(float, done.stdout.split()[-2:])
            ref.append(seconds * CAL_REF_S / cal)
            plain.append(seconds)
    return statistics.median(ref), statistics.median(plain)


def execute(main, argv) -> OpResult:
    shutil.rmtree(OUT, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    crash = None
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main([*argv, "--out", OUT])
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception:  # the loop must go on; the op counts as failed
            rc, crash = None, traceback.format_exc(limit=-3)
        seconds = time.perf_counter() - t0
    out_dir = Path(OUT)
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} if out_dir.is_dir() else {}
    return OpResult(rc, seconds, out.getvalue(), err.getvalue(), files, crash)


def _openblas():
    """(version, thread count) of the OpenBLAS numpy loaded, or Nones."""
    import ctypes
    version = threads = None
    try:
        version = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        pass
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        try:
            getter = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        threads = getter()
    return version, threads


def _git_rev():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "crlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    blas_version, blas_threads = _openblas()
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "git_rev": _git_rev(), "src_sha256": _src_sha256(),
        "python": platform.python_version(), "numpy": np.__version__,
        "openblas": blas_version, "blas_threads": blas_threads,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "loadavg_start": os.getloadavg(),
        "utc_start": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns everything run.py prints."""
    os.chdir(ROOT)
    cli = import_cli()
    prov = provenance(workload.name, seed, seconds, trace)
    setup_s, setup_plain_s = measure_setup() if not trace else (None, None)
    execute(cli.main, workload.warmup().argv)

    tracer = Tracer() if trace else None
    op_times, ref_times, units, figures, failures = [], [], 0, [], []
    plain_s = traced_s = 0.0
    spent = 0.0
    cal_before = calibrate()
    for k, op in enumerate(workload.ops(seed)):
        if k and k % workload.block == 0 and spent >= seconds:
            break
        if tracer is None:
            res = execute(cli.main, op.argv)
            spent += res.seconds
        else:
            pair = {}
            for traced_turn in ((False, True) if k % 2 == 0 else (True, False)):
                with tracer if traced_turn else contextlib.nullcontext():
                    pair[traced_turn] = execute(cli.main, op.argv)
            res, traced = pair[False], pair[True]
            tracer.absorb(traced.seconds)
            plain_s += res.seconds
            traced_s += traced.seconds
            spent += res.seconds + traced.seconds
        cal_after = calibrate()
        op_times.append(res.seconds)
        ref_times.append(res.seconds * 2 * CAL_REF_S / (cal_before + cal_after))
        cal_before = cal_after
        if res.crash is not None:
            error, fig = f"crashed: {res.crash}", {}
        else:
            try:
                error, fig = workload.check(op, res)
            except Exception as e:  # a malformed output must count, not stop the run
                error, fig = f"check raised {type(e).__name__}: {e}", {}
        if error is None and tracer is not None and traced.outputs() != res.outputs():
            error = "traced run's outputs differ from the untraced run's"
        figures.append(fig)
        units += op.units
        if error is not None:
            failures.append((" ".join(op.argv), error))
    shutil.rmtree(OUT, ignore_errors=True)

    result = {
        "provenance": dict(prov, loadavg_end=os.getloadavg()),
        "attempted": len(op_times),
        "failed": len(failures),
        "failures": failures[:5],
        "work_unit": workload.unit,
        "units": units,
        "op_seconds": sum(op_times),
        "op_times": op_times,
        "extra": {
            **({} if trace else {"setup_plain_s": setup_plain_s}),
            "work_per_s": units / sum(op_times),
            "op_s_p50": statistics.median(op_times),
            "cal_s_p50": statistics.median(op * CAL_REF_S / ref
                                           for op, ref in zip(op_times, ref_times)),
            "fail_ratio": len(failures) / len(op_times),
            **workload.summary(figures),
        },
    }
    if tracer is None:
        result["metrics"] = {
            "setup_s": setup_s,
            "work_per_ref_s": units / sum(ref_times),
            "op_ref_s_p50": statistics.median(ref_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        result["metrics"] = tracer.metrics(1.0 - plain_s / traced_s)
        result["probe_errors"] = tracer.probe_errors
    return result
