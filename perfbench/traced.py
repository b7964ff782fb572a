"""Traced mirror of ``hpcmine pipeline`` and ``hpcmine simulate``.

Calls the same public functions, in the same order and with the same
arguments, as ``cli.cmd_pipeline`` (with its defaults) and
``cli.cmd_simulate``, with a span around each call. Inside
``run_observation`` it spans each snapshot read, parse, diff, vanish step and
sink append by wrapping the source and sink and the three functions the loop
looks up in ``hpcmine.observer``. It writes the same artifacts and standard
output as the CLI, so the caller can require them to be byte-identical.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span or -1. Spans stay in memory and are written, with counters
taken at the same boundaries, as one JSON file when the run ends.

Usage (with the hpcmine package importable):
  python traced.py pipeline REPLAY_DIR STRATEGY OUT_DIR SPANS_JSON
  python traced.py simulate SCENARIO_FILE OUT_DIR SPANS_JSON
"""

from __future__ import annotations

import csv
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

IMPORT_START = perf_counter()
from hpcmine import correlation, discovery, eventlog, observer, simulator  # noqa: E402

IMPORT_END = perf_counter()

from poll import StampedSource  # noqa: E402


class Tracer:
    def __init__(self) -> None:
        # The CLI pays for the same imports, so they are a span of their own.
        self.spans: list[list] = [["python.import", IMPORT_START, IMPORT_END, -1]]
        self.counters: Counter = Counter()
        self._open: list[int] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent])

    def end(self) -> None:
        self.spans[self._open.pop()][2] = perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced


class TracedSource(StampedSource):
    """A stamped source that also spans each snapshot read."""

    def __init__(self, tracer: Tracer, inner) -> None:
        super().__init__(inner)
        self.tracer = tracer

    def read(self):
        iterator = iter(self.inner)
        while True:
            self.tracer.begin("observer.read")
            try:
                snapshot = next(iterator)
            except StopIteration:
                return
            finally:
                self.tracer.end()
            yield snapshot


class TracedSink:
    def __init__(self, tracer: Tracer, inner) -> None:
        self.tracer = tracer
        self.inner = inner

    def append(self, event) -> None:
        self.tracer.call("observer.sink", self.inner.append, event)


def _observe(tracer: Tracer, replay: str, events_path: Path) -> list[float]:
    counters = tracer.counters
    parse_snapshot = observer.parse_snapshot

    def parse_counted(text, observed_at, errors=None):
        errors = [] if errors is None else errors
        before = len(errors)
        rows = parse_snapshot(text, observed_at, errors)
        counters["snapshots.rows"] += len(rows)
        counters["snapshots.malformed"] += len(errors) - before
        return rows

    hooks = {
        "parse_snapshot": tracer.wrap("snapshots.parse", parse_counted),
        "diff_snapshot": tracer.wrap("observer.diff", observer.diff_snapshot),
        "finalize_vanished": tracer.wrap("observer.vanish", observer.finalize_vanished),
    }
    saved = {name: getattr(observer, name) for name in hooks}
    for name, fn in hooks.items():
        setattr(observer, name, fn)
    try:
        tracer.begin("observer.observe")
        source = TracedSource(tracer, observer.ReplayDirectorySource(replay))
        with observer.CsvEventSink(str(events_path)) as sink:
            summary = observer.run_observation(source, TracedSink(tracer, sink))
        tracer.end()
    finally:
        for name, fn in saved.items():
            setattr(observer, name, fn)
    counters["observer.snapshots"] = summary.snapshots
    counters["observer.events"] = summary.events
    counters["observer.state_jobs"] = len(summary.state.jobs)
    print(f"snapshots: {summary.snapshots}  events: {summary.events}")
    return source.absorb


def _correlate(tracer: Tracer, strategy: str, events_path: Path, cases_path: Path) -> None:
    counters = tracer.counters
    events = tracer.call("observer.decode", observer.read_events_csv, str(events_path))
    first_deps = tracer.call(
        "correlation.first_deps", correlation.extract_first_dependencies, events
    )
    if strategy == "explicit":
        graph = tracer.call(
            "correlation.graph", correlation.build_dependency_graph, events, first_deps
        )
        counters["correlation.edges"] = len(graph.edges)
        counters["correlation.external"] = len(graph.external)
        counters["correlation.dropped_edges"] = len(graph.dropped_edges)
        assignment = tracer.call(
            "correlation.assign", correlation.assign_cases_explicit, graph, hash_ids=False
        )
    else:
        assignment = tracer.call("correlation.assign", correlation.assign_cases_implicit, events)
    log = tracer.call("correlation.apply", correlation.apply_cases, events, assignment)
    rows = tracer.call("eventlog.write", eventlog.write_csv, log, str(cases_path))
    cases = len(set(assignment.cases.values()))
    counters["correlation.cases"] = cases
    print(f"cases: {cases}  rows: {rows}")


def _read_case_log(tracer: Tracer, cases_path: Path) -> eventlog.CaseLog:
    tracer.counters["eventlog.reads"] += 1
    tracer.counters["eventlog.bytes"] += cases_path.stat().st_size
    return tracer.call("eventlog.read", eventlog.read_csv, str(cases_path))


def _discover(tracer: Tracer, cases_path: Path, out: Path) -> None:
    counters = tracer.counters
    log = _read_case_log(tracer, cases_path)
    traces = tracer.call(
        "discovery.project",
        discovery.project_case_traces,
        log,
        milestone=discovery.MILESTONES["running"],
    )
    dfg = tracer.call(
        "discovery.dfg", discovery.discover_dfg, traces, duration_mode=discovery.DurationMode.START_START
    )
    parallel = tracer.call("discovery.parallel", discovery.detect_parallel, dfg)
    dot = tracer.call("discovery.dot", discovery.export_dot, dfg, parallel, min_edge_freq=1)
    tracer.begin("cli.write")
    (out / "dfg.dot").write_text(dot)
    with open(out / "edges.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["from", "to", "frequency", "mean_seconds", "median_seconds"])
        for (a, b), stats in sorted(dfg.edges.items()):
            writer.writerow([a, b, stats.frequency, f"{stats.mean:.1f}", f"{stats.median:.1f}"])
    tracer.end()
    counters["discovery.traces"] = len(traces)
    counters["discovery.dropped_jobs"] = len(log.job_ids()) - sum(len(t.steps) for t in traces)
    counters["discovery.edges"] = len(dfg.edges)


def _stats(tracer: Tracer, cases_path: Path) -> None:
    log = _read_case_log(tracer, cases_path)
    first_deps = tracer.call("eventlog.stats", eventlog.first_dependencies_from_log, log)
    stats = tracer.call("eventlog.stats", eventlog.compute_stats, log, first_deps)
    print(tracer.call("eventlog.stats", eventlog.render_stats, stats))


def trace_pipeline(tracer: Tracer, replay: str, strategy: str, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    events_path = out / "events.csv"
    cases_path = out / "cases.csv"
    absorb = _observe(tracer, replay, events_path)
    _correlate(tracer, strategy, events_path, cases_path)
    _discover(tracer, cases_path, out)
    _stats(tracer, cases_path)
    return {"absorb": absorb}


def trace_simulate(tracer: Tracer, scenario: str, out: Path) -> dict:
    spec = tracer.call("simulator.load", simulator.load_scenario, Path(scenario))
    result = tracer.call("simulator.simulate", simulator.simulate, spec)
    tracer.begin("simulator.write")
    simulator.write_snapshots(result.snapshots, out / "snapshots")
    simulator.write_oracle(result.oracle, out)
    tracer.end()
    print(
        f"snapshots: {len(result.snapshots)}  oracle events: {len(result.oracle.events)}"
        f"  -> {out}"
    )
    return {}


def main(argv: list[str]) -> int:
    tracer = Tracer()
    if argv[:1] == ["pipeline"] and len(argv) == 5:
        _, replay, strategy, out, spans_path = argv
        extra = trace_pipeline(tracer, replay, strategy, Path(out))
    elif argv[:1] == ["simulate"] and len(argv) == 4:
        _, scenario, out, spans_path = argv
        extra = trace_simulate(tracer, scenario, Path(out))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    sys.stdout.flush()
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "counters": tracer.counters, **extra}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
