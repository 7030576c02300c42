"""The observability CLI: ``python -m repro.observability COMMAND``::

    report TRACE [--root PREFIX] [--format text|json] [--self-times N]
    dashboard TRACE [--width N]
    profile PROFILE [--top N] [--collapsed]  |  profile --diff OLD NEW [--top N]
    bench compare OLD NEW [--tolerance FRAC] [--only PATTERN]...  |  bench show PATH

Exit status: 0 on success, 1 when ``bench compare`` finds a regression,
2 on an input, option or usage error, which prints one ``error: ...``
line.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing

from repro.observability import bench, profile
from repro.observability.analysis import Trace
from repro.observability.dashboard import render_dashboard
from repro.observability.export import read_jsonl
from repro.observability.profiling import load_profile
from repro.observability.report import render_report, report_dict


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors reach :func:`main`'s one
    handler (argparse's own prints its usage block and exits)."""

    def error(self, message: str) -> typing.NoReturn:
        raise ValueError(message)


def _at_least(flag: str, value: int, lowest: int) -> None:
    if value < lowest:
        raise ValueError(f"{flag} must be >= {lowest}")


def _load_trace(path: str) -> Trace:
    records = read_jsonl(path)
    if not records:
        raise ValueError(f"{path}: empty trace (no records)")
    return Trace(records)


def _report(args: argparse.Namespace) -> int:
    _at_least("--self-times", args.self_times, 0)
    trace = _load_trace(args.trace)
    if args.format == "json":
        print(json.dumps(report_dict(trace, args.root), indent=2, sort_keys=True))
    else:
        print(render_report(trace, args.root, self_times_top=args.self_times))
    return 0


def _dashboard(args: argparse.Namespace) -> int:
    _at_least("--width", args.width, 1)
    print(render_dashboard(_load_trace(args.trace), width=args.width))
    return 0


def _profile(args: argparse.Namespace) -> int:
    _at_least("--top", args.top, 1)
    if (args.profile is None) == (args.diff is None):
        raise ValueError("give exactly one of PROFILE or --diff OLD NEW")
    if args.diff is None:
        doc = load_profile(args.profile)
        if args.collapsed:
            out = profile.render_collapsed(doc)
            if out:
                print(out)
        else:
            print(profile.render_hotspots(doc, top=args.top))
        return 0
    if args.collapsed:
        raise ValueError("--collapsed does not combine with --diff")
    old, new = (load_profile(p) for p in args.diff)
    if not ({r["name"] for r in old["handlers"]}
            & {r["name"] for r in new["handlers"]}):
        # disjoint handler sets: nothing to match by name, so a rendered
        # diff would be an empty (misleading) table
        raise ValueError("profiles share no handler names "
                         "(are these the same workload?)")
    print(profile.render_diff(old, new, top=args.top))
    return 0


def _bench_compare(args: argparse.Namespace) -> int:
    old = bench.filter_results(bench.load_results(args.old), args.only)
    new = bench.filter_results(bench.load_results(args.new), args.only)
    # a typo'd gate must fail loudly, not pass by matching nothing: every
    # pattern must hit something, and at least one metric must exist on
    # BOTH sides (added/removed are never gated)
    for pattern in args.only:
        if not (bench.filter_results(old, [pattern])
                or bench.filter_results(new, [pattern])):
            raise ValueError(f"--only {pattern!r} matched no metric in either file")
    if args.only and not set(old) & set(new):
        raise ValueError(f"--only {args.only} matched no metric present in both "
                         "files; nothing would be gated")
    report = bench.compare(old, new, tolerance=args.tolerance)
    print(bench.render_compare(report))
    return 0 if report.ok else 1


def _bench_show(args: argparse.Namespace) -> int:
    print(bench.render_show(bench.load_results(args.path)))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="python -m repro.observability",
        description="Analyze a run's exports: traces, wall-clock profiles "
                    "and benchmark result files.")
    commands = parser.add_subparsers(required=True, metavar="COMMAND")

    cmd = commands.add_parser(
        "report", help="critical path, latency rollup and event counts of a trace")
    cmd.add_argument("trace", help="path to a trace exported as JSONL")
    cmd.add_argument("--root", metavar="PREFIX",
                     help="analyze the longest root span whose name starts "
                          "with PREFIX (default: the longest root)")
    cmd.add_argument("--format", choices=("text", "json"), default="text",
                     help="output format (json: the report_dict document)")
    cmd.add_argument("--self-times", type=int, default=0, metavar="N",
                     help="also show the top N span names by self time under "
                          "the selected root (text format; the json document "
                          "always carries the full self_times key)")
    cmd.set_defaults(run=_report)

    cmd = commands.add_parser(
        "dashboard", help="activity sparklines, SLO status and alert timeline of a trace")
    cmd.add_argument("trace", help="path to a trace exported as JSONL")
    cmd.add_argument("--width", type=int, default=48,
                     help="sparkline width in characters (default 48)")
    cmd.set_defaults(run=_dashboard)

    cmd = commands.add_parser(
        "profile", help="wall-clock hotspots, collapsed stacks or a before/after diff")
    cmd.add_argument("profile", nargs="?",
                     help="profile export (JSON) written by HookProfiler.write")
    cmd.add_argument("--top", type=int, default=15, metavar="N",
                     help="show the top N handlers (default 15)")
    cmd.add_argument("--collapsed", action="store_true",
                     help="dump flamegraph collapsed-stack lines instead")
    cmd.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                     help="compare two exports of the same workload")
    cmd.set_defaults(run=_profile)

    bench_commands = commands.add_parser(
        "bench", help="diff or show benchmark result files (BENCH_results.json)",
    ).add_subparsers(required=True)
    cmd = bench_commands.add_parser(
        "compare", help="diff two result files; exit 1 on regressions beyond tolerance")
    cmd.add_argument("old", help="baseline results file")
    cmd.add_argument("new", help="candidate results file")
    cmd.add_argument("--tolerance", type=float, default=0.05, metavar="FRAC",
                     help="relative drift allowed per metric (default 0.05 = 5%%)")
    cmd.add_argument("--only", action="append", default=[], metavar="PATTERN",
                     help="restrict the gate to experiment/metric names matching "
                          "this glob (repeatable); errors if nothing matches")
    cmd.set_defaults(run=_bench_compare)
    cmd = bench_commands.add_parser("show", help="print one result file as a table")
    cmd.add_argument("path")
    cmd.set_defaults(run=_bench_show)
    return parser


def main(argv: typing.Sequence[str] | None = None) -> int:
    """Run one command; returns the process exit status."""
    try:
        args = _parser().parse_args(argv)
        return args.run(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
