"""Per-layer tracing from outside the program.

A Tracer wraps every public function of the crlab modules and puts the
wrappers on the module attributes their callers look up: the defining
module's own global (for calls inside it) and every other crlab module
that imported the function by name (`from .prob_core import
group_weights`), for the duration of a `with tracer:` block. Nothing
under src/ changes.

Each call records a span (name, parent span, start, end) in memory;
spans of one op share one list. After the op, self times (duration minus
the time covered by child spans) and call counts are folded into totals
and the list is cleared. Probes read work counts (rows grouped, symbols
coded, points certified) from arguments and return values at the same
boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

from .metrics import declared

MODULES = ("prob_core", "info_measures", "pixel_model", "theorem_suite",
           "rd_solver", "codec", "analysis", "cli")

# called once per symbol while alphabets are built, hundreds of thousands
# of times per op, and cheaper than the wrapper itself: its time is left
# in its callers' self time
UNTRACED = {"prob_core.as_exact"}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _group_weights(c, args, kwargs, out, dt):
    c["prob_core.group_weights.rows"] += _arg(args, kwargs, 0, "pmf").n_points


def _sample(c, args, kwargs, out, dt):
    c["prob_core.sample.draws"] += _arg(args, kwargs, 1, "n")


def _curve(c, args, kwargs, out, dt):
    c[f"rd_solver.curve_s.{out.label}"] += dt


def _compare(c, args, kwargs, out, dt):
    for curve in out.values():
        c["rd_solver.points"] += len(curve.points)
        c["rd_solver.uncertified"] += sum(not p.converged for p in curve.points)


def _encode(c, args, kwargs, out, dt):
    paradigm = _arg(args, kwargs, 1, "paradigm")
    c[f"encode_s.{paradigm}"] += dt
    c[f"encode_n.{paradigm}"] += out.n
    c["codec.payload_bytes"] += len(out.payload)


def _decode(c, args, kwargs, out, dt):
    paradigm = _arg(args, kwargs, 2, "model").paradigm
    c[f"decode_s.{paradigm}"] += dt
    c[f"decode_n.{paradigm}"] += len(out)


def _write_csv(c, args, kwargs, out, dt):
    c["analysis.write_csv.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


PROBES = {
    "prob_core.group_weights": _group_weights,
    "prob_core.sample": _sample,
    "rd_solver.rd_curve": _curve,
    "rd_solver.conditional_rd_curve": _curve,
    "rd_solver.compare_paradigms": _compare,
    "codec.encode": _encode,
    "codec.decode": _decode,
    "analysis.write_csv": _write_csv,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.ops = 0
        self.op_s = 0.0
        self.unattributed_s = 0.0
        self.probe_errors = 0
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"crlab.{short}")
            for attr, fn in vars(mod).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in UNTRACED or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(name, fn, PROBES.get(name)))
        # every attribute of a crlab module bound to a traced function
        self._patches = [
            (mod, attr, value, wrappers[id(value)][1])
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "crlab" or mod_name.startswith("crlab.")
            for attr, value in vars(mod).items()
            if id(value) in wrappers and wrappers[id(value)][0] is value
        ]

    def _wrap(self, name, fn, probe):
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[i] = (name, parent, t0, t1)
            if probe is not None:
                try:
                    probe(self.counts, args, kwargs, out, t1 - t0)
                except Exception:  # a probe must never change what the op does
                    self.probe_errors += 1
            return out
        return traced

    def __enter__(self):
        """Put the wrappers in place; leaving the block restores the originals."""
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def absorb(self, op_seconds: float):
        """Fold one op's spans into the totals and clear them."""
        child = [0.0] * len(self.spans)
        roots = 0.0
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
            else:
                roots += t1 - t0
        for i, (name, parent, t0, t1) in enumerate(self.spans):
            self.calls[name] += 1
            self.self_s[name] += (t1 - t0) - child[i]
        self.spans.clear()
        self._stack.clear()
        self.ops += 1
        self.op_s += op_seconds
        self.unattributed_s += op_seconds - roots

    def metrics(self, overhead_share: float) -> dict[str, float]:
        """Every per-layer metric BENCHMARK.json declares, as per-op means."""
        ops = max(self.ops, 1)
        out = {}
        for name in declared(True):
            head, _, tail = name.rpartition(".")
            if tail == "self_s" and head.startswith("layer."):
                module = head[len("layer."):]
                value = sum(s for f, s in self.self_s.items()
                            if f.startswith(module + ".")) / ops
            elif name == "prob_core.adjoin.self_s":
                value = sum(s for f, s in self.self_s.items()
                            if f.startswith("prob_core.adjoin_")) / ops
            elif tail == "self_s":
                value = self.self_s[head] / ops
            elif tail == "calls":
                value = self.calls[head] / ops
            elif ".us_per_sym." in name:
                _, direction, _, paradigm = name.split(".")
                n = self.counts[f"{direction}_n.{paradigm}"]
                value = 1e6 * self.counts[f"{direction}_s.{paradigm}"] / n if n else 0.0
            elif name == "trace.ops":
                value = float(self.ops)
            elif name == "trace.overhead_share":
                value = overhead_share
            elif name == "trace.unattributed_share":
                value = self.unattributed_s / self.op_s if self.op_s else 0.0
            else:
                value = self.counts[name] / ops
            out[name] = value
        return out
