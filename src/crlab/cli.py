"""Command-line front end: entropy sweeps, theorem verification, RD
envelope comparison, and a working codec demo.

Every command is deterministic given its flags plus `--seed`, and every
output file starts with a provenance comment line (version, the exact
command line, the seed) so a table can always be regenerated. Output
goes to `--out`, defaulting to the CRLAB_OUT environment variable or
the current directory; `--plain` prints tables to stdout instead of
writing files.

Exit codes: 0 success, 1 verification failure, 2 codec integrity
failure, 64 usage error or a run too large for memory.
"""

from __future__ import annotations

import argparse
import itertools
import os
import shlex
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    BD_FIT_METADATA,
    CURVE_HEADER,
    bd_rate_matrix,
    curve_rows,
    render_cell,
    write_csv,
)
from .codec import (
    build_model,
    decode,
    encode,
    expected_rate,
    measure_rate,
    require_encodable,
)
from .errors import (
    CrLabError,
    FormatError,
    InputError,
    IntegrityError,
    ModelCoverageError,
    UsageError,
)
from .info_measures import conditional_entropy
from .pixel_model import (
    PARADIGMS,
    REPORT_FIELDS,
    PixelModelParams,
    build_joint,
    codec_paradigm,
    sweep_p,
)
from .prob_core import sample_symbols
from .rd_solver import compare_paradigms, default_slope_grid
from .theorem_suite import format_report, report_csv_rows, run_randomized_suite

__all__ = ["main", "entrypoint"]

_DEFAULT_P_GRID = [round(k * 0.01, 2) for k in range(1, 101)]
_DEFAULT_Q_LIST = [1.0, 1.4, 2.0, 64.0]

# a codec paradigm is named by its codec name or its RD label
_PARADIGM_SPELLINGS = sorted({s for row in PARADIGMS if row.byte is not None
                              for s in (row.name, row.label)})


class _Parser(argparse.ArgumentParser):
    """argparse maps CLI errors to exit 2; this package reserves 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot use --out {args.out!r}: {exc}") from exc
    return out


def _emit_table(args, filename: str, header, rows, provenance: str) -> None:
    """Write one CSV to the out dir, or print it under --plain."""
    if args.plain:
        print(f"# {provenance}")
        print(",".join(header))
        for row in rows:
            print(",".join(render_cell(v) for v in row))
        return
    path = _out_dir(args) / filename
    write_csv(path, header, rows, provenance)
    print(f"wrote {path} ({len(rows)} rows)")


def cmd_sweep(args) -> int:
    reports = sweep_p(args.p, args.Q, M=args.M)
    _emit_table(args, "sweep.csv", REPORT_FIELDS, [r.row() for r in reports],
                args.provenance)

    # Crossovers of H(X|Xphat) - H(R): where the bottlenecked conditional
    # coder starts losing to plain residual coding. The rows come ordered
    # by (Q, p).
    for q, group in itertools.groupby(reports, key=lambda r: r.Q):
        group = list(group)
        prev_d = prev_p = None
        for r in group:
            d = r.H_X_given_Xphat - r.H_R
            if d == 0.0 and len(group) > 1:
                print(f"crossover: Q={q:g} H(X|Xphat)-H(R) = 0 at p={r.p:g}")
            elif prev_d is not None and prev_d * d < 0:
                print(f"crossover: Q={q:g} H(X|Xphat)-H(R) changes sign "
                      f"between p={prev_p:g} and p={r.p:g}")
            prev_d, prev_p = d, r.p
    return 0


def cmd_verify(args) -> int:
    report = run_randomized_suite(args.trials, args.shape, seed=args.seed)
    print(format_report(report))
    rows = report_csv_rows(report)
    _emit_table(args, "verify.csv", rows[0], rows[1:], args.provenance)
    if not report.all_passed:
        print("verification FAILED; replay keys above reproduce the "
              "failing trials", file=sys.stderr)
        return 1
    return 0


def cmd_rd(args) -> int:
    if args.M > 64 and not args.force:
        raise UsageError(
            f"M={args.M} makes the solve expensive; pass --force to override")
    params = PixelModelParams(p=args.p, Q=args.Q, M=args.M)
    curves = compare_paradigms(params, default_slope_grid(args.slopes))

    for label, curve in curves.items():
        stuck = [pt.slope for pt in curve.points if not pt.converged]
        if stuck:
            print(f"WARNING: {label}: {len(stuck)} point(s) not certified "
                  f"at slopes {[f'{s:.3g}' for s in stuck]}", file=sys.stderr)

    _emit_table(args, "rd_curves.csv", CURVE_HEADER,
                curve_rows(curves.values()), args.provenance)

    peak = float(args.M - 1)
    matrix = bd_rate_matrix(curves, peak)
    bd_rows = [(ref, tst, float("nan") if v is None else v)
               for (ref, tst), v in matrix.items()]
    _emit_table(args, "bd_matrix.csv", ("reference", "test", "bd_percent"),
                bd_rows, f"{args.provenance} | {BD_FIT_METADATA}")

    print(f"BD-rate matrix (peak={peak:g}, {BD_FIT_METADATA}):")
    for (ref, tst), v in matrix.items():
        if ref == tst:
            continue
        text = "undefined" if v is None else f"{v:+.4f}%"
        print(f"  BD({ref} -> {tst}) = {text}")
    return 0


def cmd_codec(args) -> int:
    row = codec_paradigm(args.paradigm)
    if args.n < 1:
        raise UsageError(f"need at least one symbol, got n={args.n}")
    params = PixelModelParams(p=args.p, Q=args.Q, M=args.M)

    # the one joint of the op: model, draws and bound all read it
    require_encodable(params.M)
    joint = build_joint(params)
    model = build_model(params, row.name, joint)
    x, xp = sample_symbols(joint, ("x", "xp"), args.n, args.seed)

    stream = encode(np.column_stack((x, xp)), row.name, model)
    wrong = np.flatnonzero(decode(stream, xp, model, as_array=True) != x)
    if wrong.size:
        print(f"round-trip FAILED: first mismatch at symbol {wrong[0]}",
              file=sys.stderr)
        return 2

    rate = measure_rate(stream)
    bound = conditional_entropy(joint, row.coded, row.context or ())
    expected = expected_rate(model, joint)

    print(f"round trip exact over {args.n} symbols ({row.name})")
    print(f"measured rate   {_fmt(rate)} bits/symbol "
          f"({len(stream.payload)} payload bytes)")
    print(f"entropy bound   {_fmt(bound)} bits/symbol")
    print(f"overhead        {_fmt(rate - bound)} bits/symbol")
    print(f"quantization loss {_fmt(expected - bound)} bits/symbol")
    print(f"finite-n cost     {_fmt(rate - expected)} bits/symbol")

    if not args.plain:
        name = f"codec_{row.name}_p{args.p:g}_Q{args.Q:g}.crlb"
        path = _out_dir(args) / name
        path.write_bytes(stream.to_bytes())
        print(f"wrote {path} ({len(stream.payload)} payload bytes)")
    return 0


def _parse_shape(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"shape must look like 8x8, got {text!r}")
    try:
        a, b = (int(s) for s in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shape must be two integers, got {text!r}") from None
    if a < 1 or b < 1:
        raise argparse.ArgumentTypeError(f"alphabet sizes must be >= 1: {text!r}")
    return a, b


def _nonneg_seed(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer: {text!r}") from None
    if not 0 <= v < 2 ** 64:
        raise argparse.ArgumentTypeError(f"seed must fit in 64 bits: {text!r}")
    return v


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=_nonneg_seed, default=0,
                        help="64-bit seed for randomized commands (default 0)")
    common.add_argument("--out", default=os.environ.get("CRLAB_OUT", "."),
                        help="output directory (default: $CRLAB_OUT or .)")
    common.add_argument("--plain", action="store_true",
                        help="print tables to stdout instead of writing CSV")

    parser = _Parser(prog="crlab",
                     description="conditional residual coding laboratory")
    parser.add_argument("--version", action="version",
                        version=f"crlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="entropy sweep over (p, Q) grid")
    p_sweep.add_argument("--p", type=float, nargs="+", default=_DEFAULT_P_GRID,
                         help="occlusion probabilities (default 0.01..1.00)")
    p_sweep.add_argument("--Q", type=float, nargs="+", default=_DEFAULT_Q_LIST,
                         help="quantizer steps (default 1 1.4 2 64)")
    p_sweep.add_argument("--M", type=int, default=256,
                         help="alphabet size (default 256)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="randomized theorem verification")
    p_verify.add_argument("--trials", type=int, default=1000,
                          help="number of random joints (default 1000)")
    p_verify.add_argument("--shape", type=_parse_shape, default=(8, 8),
                          help="alphabet sizes as AxB (default 8x8)")
    p_verify.set_defaults(func=cmd_verify)

    p_rd = sub.add_parser("rd", parents=[common],
                          help="RD envelopes and BD-rate matrix")
    p_rd.add_argument("--M", type=int, default=16,
                      help="alphabet size (default 16)")
    p_rd.add_argument("--p", type=float, default=0.3,
                      help="occlusion probability (default 0.3)")
    p_rd.add_argument("--Q", type=float, default=4.0,
                      help="quantizer step (default 4)")
    p_rd.add_argument("--slopes", type=int, default=64,
                      help="log-spaced slope count over 1e-3..1e3 (default 64)")
    p_rd.add_argument("--force", action="store_true",
                      help="allow M > 64 despite the cost")
    p_rd.set_defaults(func=cmd_rd)

    p_codec = sub.add_parser("codec", parents=[common],
                             help="encode/decode a sampled stream")
    p_codec.add_argument("--p", type=float, required=True,
                         help="occlusion probability")
    p_codec.add_argument("--Q", type=float, default=1.0,
                         help="quantizer step (default 1)")
    p_codec.add_argument("--M", type=int, default=256,
                         help="alphabet size (default 256)")
    p_codec.add_argument("--n", type=int, default=100000,
                         help="stream length in symbols (default 100000)")
    p_codec.add_argument("--paradigm", required=True,
                         choices=_PARADIGM_SPELLINGS,
                         help="which conditional structure to code with")
    p_codec.set_defaults(func=cmd_codec)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.provenance = (f"crlab {__version__} | "
                           f"{shlex.join(['crlab', *argv])} | seed={args.seed}")
        return args.func(args)
    except (UsageError, InputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 64
    except MemoryError as e:
        print(f"error: out of memory: {str(e) or 'allocation failed'}", file=sys.stderr)
        return 64
    except (IntegrityError, FormatError, ModelCoverageError) as e:
        print(f"codec integrity failure: {e}", file=sys.stderr)
        return 2
    except CrLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
