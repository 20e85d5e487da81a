"""Command line interface.

Subcommands: ``generate`` (run the construction and write point/trace
files), ``verify`` (re-check invariants of a point file, optionally with
its trace), ``analyze`` (largest collinear subset vs largest visible
clique), ``render`` (deterministic SVG).

Exit codes: 0 success (and, for verify, all checks passed); 1 at least
one verification check failed; 2 malformed input or bad usage; 3 I/O
failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .construction import DEFAULT_SEED, generate
from .errors import FormatError, InputError
from .fileformat import (
    PointFile,
    parse_point_file,
    parse_trace_file,
    serialize_point_file,
    serialize_reports,
    serialize_trace_file,
    serialize_verdict,
)
from .rational import format_rational
from .svgrender import EDGE_MODES, _document
from .verifier import CHECKS, verify_points
from .visibility import PointSet, check_blbc_instance


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blbc",
        description="Exact-arithmetic point set construction, verification, "
        "and big-line-big-clique analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="run the construction, write point/trace files")
    gen.add_argument("--count", type=int, required=True, help="total points (>= 3)")
    gen.add_argument("--out", required=True, help="output point file path")
    gen.add_argument("--seed-file", help="point file with exactly 3 seed points")
    gen.add_argument("--trace-out", help="also write the insertion trace here")
    gen.set_defaults(func=_cmd_generate)

    ver = sub.add_parser("verify", help="re-check invariants of a point file")
    ver.add_argument("--points", required=True, help="point file to verify")
    ver.add_argument("--trace", help="matching trace file (enables trace checks)")
    opt_in = " and ".join(name for name, check in CHECKS.items() if not check.default)
    ver.add_argument(
        "--checks",
        help="comma-separated subset of: " + ", ".join(CHECKS)
        + f" (default: all applicable except {opt_in})",
    )
    ver.set_defaults(func=_cmd_verify)

    ana = sub.add_parser("analyze", help="largest collinear subset vs visible clique")
    ana.add_argument("--points", required=True, help="point file to analyze")
    ana.add_argument("--k", type=int, required=True,
                     help="pairwise-visible clique threshold (>= 2)")
    ana.add_argument("--l", type=int, required=True,
                     help="collinear-points threshold (>= 2)")
    ana.set_defaults(func=_cmd_analyze)

    ren = sub.add_parser("render", help="deterministic SVG of a point file")
    ren.add_argument("--points", required=True, help="point file to render")
    ren.add_argument("--out", required=True, help="output SVG path")
    ren.add_argument("--edges", default="none", choices=EDGE_MODES,
                     help="which edges to draw (default: none)")
    ren.set_defaults(func=_cmd_render)
    return parser


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(path, f"not UTF-8: {exc.reason} at byte {exc.start}") from exc


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.seed_file is not None:
        seed_points = parse_point_file(_read(args.seed_file)).points
    else:
        seed_points = list(DEFAULT_SEED)
    state = generate(seed_points, args.count)
    metadata = {
        "generator": "blbc",
        "count": args.count,
        "seed": [
            {"x": format_rational(p.x), "y": format_rational(p.y)}
            for p in state.points[:3]
        ],
    }
    Path(args.out).write_text(
        serialize_point_file(PointFile(points=state.points, metadata=metadata)),
        encoding="utf-8",
    )
    if args.trace_out is not None:
        Path(args.trace_out).write_text(
            serialize_trace_file(state.trace), encoding="utf-8"
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    ps = PointSet(parse_point_file(_read(args.points)).points)
    records = parse_trace_file(_read(args.trace)) if args.trace else None
    checks = None if args.checks is None else [c.strip() for c in args.checks.split(",")]
    reports = verify_points(ps, records, checks)
    sys.stdout.write(serialize_reports(reports))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    ps = PointSet(parse_point_file(_read(args.points)).points)
    verdict = check_blbc_instance(ps, args.k, args.l)
    sys.stdout.write(serialize_verdict(verdict))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    ps = PointSet(parse_point_file(_read(args.points)).points)
    lines = _document(ps, args.edges)
    head = next(lines)  # the input is checked before --out is opened
    with open(args.out, "w", encoding="utf-8") as out:
        out.write(head)
        out.writelines(lines)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())
