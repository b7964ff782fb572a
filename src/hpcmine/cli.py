"""Command-line front-end: observe, correlate, discover, stats, simulate.

Each subcommand covers one pipeline stage and communicates through CSV
files, so stages can be run and inspected independently; ``pipeline``
chains observe, correlate, discover, and stats over a replay directory in
memory. Both routes run the same stage functions and write the same files.
Each command imports only the stage modules it runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .snapshots import DEFAULT_INTERVAL_SECONDS, DEFAULT_SQUEUE_COMMAND

if TYPE_CHECKING:
    from .eventlog import CaseLog
    from .observer import EventSink
    from .simulator import ScenarioSpec
    from .snapshots import Snapshot

SQUEUE_CMD_ENV = "HPCPM_SQUEUE_CMD"


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _read(read, path):
    from .eventlog import EventLogError
    try:
        return read(path)
    except UnicodeDecodeError as exc:  # its message names no file
        _err(f"{path}: {exc}")
        return None
    except (EventLogError, ValueError) as exc:
        _err(str(exc))
        return None


def _observe(args, source: Iterable[Snapshot], sink: EventSink) -> int:
    from . import observer
    try:
        summary = observer.run_observation(
            source, sink, synthetic_complete=not args.no_synthetic_complete
        )
    except observer.ObserverError as exc:
        _err(str(exc))
        return 1
    print(f"snapshots: {summary.snapshots}  events: {summary.events}")
    return 0


def _correlate(args, log: CaseLog, output) -> tuple[CaseLog, dict | None] | None:
    """Stamp ``log`` with its case ids, in place, and write it.

    Returns the log and, for the explicit strategy, the first dependencies
    it parsed, which the stats reuse.
    """
    from . import correlation, eventlog
    first_deps = None
    if args.strategy == "explicit":
        first_deps = correlation.extract_first_dependencies(log)
        graph = correlation.build_dependency_graph(log, first_deps)
        assignment = correlation.assign_cases_explicit(graph, hash_ids=args.hash_case_ids)
        # A target never observed has a case but holds no event.
        case_ids = [assignment.cases[job] for job in graph.vertices - graph.external]
        if len(set(case_ids)) == len(case_ids) > 1:
            _warn("no explicit interdependencies found: every event belongs to a different case")
    else:
        assignment = correlation.assign_cases_implicit(log)
        case_ids = list(assignment.cases.values())
        if len(set(case_ids)) == 1 and len(case_ids) > 1:
            _warn("single account-group combination: every event belongs to the same case")
    try:
        correlation.apply_cases(log, assignment)
    except correlation.UnassignedJob as exc:
        _err(str(exc))
        return None
    rows = eventlog.write_csv(log, output)
    print(f"cases: {len(set(case_ids))}  rows: {rows}")
    return log, first_deps


def _discover(args, log: CaseLog, output, stats_out) -> None:
    from . import discovery
    if args.account:
        log = log.for_account(args.account)
    milestone = discovery.MILESTONES[args.milestone]
    traces = discovery.project_case_traces(log, milestone=milestone)
    dfg = discovery.discover_dfg(
        traces, duration_mode=discovery.DurationMode(args.edge_duration)
    )
    parallel = discovery.detect_parallel(dfg)
    dot = discovery.export_dot(dfg, parallel, min_edge_freq=args.min_edge_freq)
    if output:
        Path(output).write_text(dot, encoding="utf-8")
    else:
        sys.stdout.write(dot)
    if stats_out:
        edges = discovery.export_edges_csv(dfg, min_edge_freq=args.min_edge_freq)
        Path(stats_out).write_text(edges, encoding="utf-8", newline="")


def _stats(log: CaseLog, first_deps: dict | None = None) -> None:
    from . import eventlog
    # A job's first event is its creation in the observer's order and in the
    # log's alike, so first dependencies taken from either give equal stats.
    if first_deps is None:
        first_deps = eventlog.extract_first_dependencies(log)
    print(eventlog.render_stats(eventlog.compute_stats(log, first_deps)))


def cmd_observe(args) -> int:
    from . import observer
    if args.replay is not None:
        source = observer.ReplayDirectorySource(args.replay)
    else:
        try:
            source = observer.CommandSource(command=args.squeue_cmd, interval=args.interval)
        except ValueError as exc:  # a live polling setting
            _err(str(exc))
            return 1
    with observer.CsvEventSink(args.output) as sink:
        return _observe(args, source, sink)


def cmd_correlate(args) -> int:
    from .eventlog import read_events_csv
    log = _read(read_events_csv, args.events_csv)
    if log is None:
        return 1
    return 0 if _correlate(args, log, args.output) is not None else 1


def cmd_discover(args) -> int:
    from .eventlog import read_csv
    log = _read(read_csv, args.cases_csv)
    if log is None:
        return 1
    _discover(args, log, args.output, args.stats_out)
    return 0


def cmd_stats(args) -> int:
    from .eventlog import read_csv
    log = _read(read_csv, args.cases_csv)
    if log is None:
        return 1
    _stats(log)
    return 0


def _load_scenario(name_or_path: str, seed: int | None) -> ScenarioSpec:
    from . import simulator
    path = Path(name_or_path)
    if path.is_file():
        spec = simulator.load_scenario(path)
    else:
        spec = simulator.load_bundled_scenario(name_or_path)
    if seed is not None:
        spec = spec._replace(seed=seed)
    return spec


def cmd_simulate(args) -> int:
    from . import simulator  # only this command runs the simulator
    try:
        spec = _load_scenario(args.scenario, args.seed)
    except UnicodeDecodeError as exc:  # its message names no file
        _err(f"{args.scenario}: {exc}")
        return 1
    except simulator.ScenarioError as exc:
        _err(str(exc))
        return 1
    result = simulator.simulate(spec)
    out = Path(args.output)
    simulator.write_snapshots(result.snapshots, out / "snapshots")
    simulator.write_oracle(result.oracle, out)
    print(
        f"snapshots: {len(result.snapshots)}  oracle events: {len(result.oracle.events)}"
        f"  -> {out}"
    )
    return 0


def cmd_pipeline(args) -> int:
    """Observe, correlate, discover and stats in one process, in memory.

    Writes the files the separate commands would write, but never reads
    one of them back. The observed events are held as a ``CaseLog``: once a
    poll leaves ``FOLD_BLOCK`` or more of them in a list, they are folded
    into the log, so the list never holds more than a block and a poll. The
    log is written to ``events.csv`` once observation ends, also when the
    source fails; the file is opened first, so an unwritable output fails
    before any work is done.
    """
    from . import eventlog, observer
    source = observer.ReplayDirectorySource(args.replay)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    events = eventlog.CaseLog()
    block: list[eventlog.JobEvent] = []

    def polls() -> Iterable[Snapshot]:
        for snapshot in source:
            yield snapshot
            if len(block) >= eventlog.FOLD_BLOCK:
                events.extend(block)
                block.clear()

    with observer.CsvEventSink(out / "events.csv") as sink:
        try:
            rc = _observe(args, polls(), block)
        finally:
            events.extend(block)
            block.clear()
            sink.extend(events)
    if rc != 0:
        return rc
    correlated = _correlate(args, events, out / "cases.csv")
    if correlated is None:
        return 1
    log, first_deps = correlated
    _discover(args, log, out / "dfg.dot", out / "edges.csv")
    _stats(log, first_deps)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpcmine",
        description="Extract and mine workflow event logs from a SLURM-style queue.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Stage options, shared by each stage's command and ``pipeline``.
    observe_opts = argparse.ArgumentParser(add_help=False)
    observe_opts.add_argument(
        "--no-synthetic-complete", action="store_true",
        help="do not emit completion events for jobs that leave the queue",
    )
    correlate_opts = argparse.ArgumentParser(add_help=False)
    correlate_opts.add_argument("--strategy", choices=["explicit", "implicit"], default="explicit")
    correlate_opts.add_argument("--hash-case-ids", action="store_true")
    discover_opts = argparse.ArgumentParser(add_help=False)
    # discovery.MILESTONES and DurationMode, spelled out so that the parser loads
    # no stage module; tests/test_cli.py checks that they still match.
    discover_opts.add_argument(
        "--milestone", choices=["completed", "pending", "running"], default="running"
    )
    discover_opts.add_argument(
        "--edge-duration", choices=["start-start", "completion-start"], default="start-start"
    )
    discover_opts.add_argument("--min-edge-freq", type=int, default=1)
    discover_opts.add_argument("--account", help="restrict to one account")

    p = sub.add_parser(
        "observe", parents=[observe_opts], help="extract raw job events from snapshots"
    )
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--replay", metavar="DIR", help="replay a snapshot directory")
    mode.add_argument("--live", action="store_true", help="poll the scheduler command")
    p.add_argument(
        "--interval", type=float, default=DEFAULT_INTERVAL_SECONDS,
        help="polling interval in seconds (live mode)",
    )
    p.add_argument(
        "--squeue-cmd",
        default=os.environ.get(SQUEUE_CMD_ENV) or DEFAULT_SQUEUE_COMMAND,
        help=f"live polling command (default: ${SQUEUE_CMD_ENV} if set, else squeue)",
    )
    p.add_argument("-o", "--output", default="events.csv", help="raw events CSV path")
    p.set_defaults(func=cmd_observe)

    p = sub.add_parser("correlate", parents=[correlate_opts], help="assign case ids to raw events")
    p.add_argument("events_csv", help="raw events CSV from observe")
    p.add_argument("-o", "--output", default="cases.csv", help="case log CSV path")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser(
        "discover", parents=[discover_opts],
        help="discover an annotated directly-follows model",
    )
    p.add_argument("cases_csv", help="case log CSV from correlate")
    p.add_argument("-o", "--output", help="DOT output path (default: stdout)")
    p.add_argument("--stats-out", help="also write per-edge statistics CSV")
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("stats", help="print event log statistics")
    p.add_argument("cases_csv", help="case log CSV")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("simulate", help="run a synthetic scenario")
    p.add_argument("scenario", help="bundled scenario name or scenario file path")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("-o", "--output", default="sim_out", help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "pipeline", parents=[observe_opts, correlate_opts, discover_opts],
        help="observe + correlate + discover + stats",
    )
    p.add_argument("--replay", metavar="DIR", required=True)
    p.add_argument("-o", "--output", default="pipeline_out", help="output directory")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # a file that cannot be opened, read or written
        _err(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
