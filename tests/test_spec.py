"""The package against the executable specification in ``spec.py``: snapshot
streams run in memory, as ``hpcmine pipeline`` does, and through ``events.csv``,
as ``observe`` and the stage commands do; and, as a snapshot field never holds
CR or LF, hostile event lists go straight to the CSV codec and later stages."""

import contextlib
import io
import logging
import sys
import tempfile
from datetime import datetime, timedelta, timezone
from operator import add
from pathlib import Path
from unittest import mock
from zoneinfo import ZoneInfo

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import spec
from hpcmine import cli, correlation, discovery, observer, snapshots
from hpcmine.correlation import CaseAssignment, apply_cases
from hpcmine.eventlog import CSV_HEADER, EVENTS_CSV_HEADER, FOLD_BLOCK, WRITE_BLOCK
from hpcmine.eventlog import CaseLog, CsvEventSink
from hpcmine.eventlog import EventKind, JobEvent, compute_stats, read_csv, read_events_csv
from hpcmine.eventlog import render_stats, write_csv
from hpcmine.simulator import ORACLE_EVENTS_HEADER
from hpcmine.snapshots import COMPLETED, COMPLETING, PENDING, RUNNING, SNAPSHOT_HEADER

sys.path.insert(0, str(Path(__file__).parents[1] / "tools"))
import poll_sweep  # noqa: E402  (it finds perfbench/workloads.py itself)

MILESTONES = {"pending": PENDING, "running": RUNNING, "completed": COMPLETED}

# Ids whose concatenations collide ({1, 4} and {41} both read "JID41", and 41-2
# reads as the suffixed one), array ids, which int() would read as numbers, and
# two ids never given a line.
JOBS, UNSEEN = ["1", "4", "41", "41-2", "5", "100_1", "100_2"], ["99", "100_9"]
NOISE = [
    "ACCOUNT JOBID DEPENDENCY COMMAND ST GROUP", "ACCOUNT JOBID DEPENDENCY COMMAND STATE GROUP",
    "ACCOUNT JOBID", "ACCOUNT", "", "  \t", "broken line", "a 9 PD g", "a 5 (null) /x/\0.sh R g",
]
T0 = datetime(2024, 3, 1, 12, 0, tzinfo=timezone.utc)
# The parser keeps its books, and the observer may take its continued path, once
# the previous snapshot had this many good lines: as on a busy queue, or always.
THRESHOLDS = st.sampled_from([1, 2, snapshots._MIN_TRACKED_LINES])
# Every phase but explain, which reruns a shrunk failure's variants only to
# annotate the report: on drawn streams it took three quarters of the time
# to report a failure.
REPORT_PHASES = [phase for phase in Phase if phase is not Phase.explain]
# Poll times in one zone, rising as instants. In New York they cross the DST
# fold of 2023-11-05, where 01:30 comes twice and the wall clock goes back from
# 01:50 EDT to 01:10 EST.
TIMES = [
    [T0 + timedelta(seconds=30 * i) for i in range(6)],
    [(T0 + timedelta(seconds=30 * i)).astimezone(timezone(timedelta(hours=5, minutes=30)))
     for i in range(6)],
    [(datetime(2023, 11, 5, 4, 59, tzinfo=timezone.utc) + timedelta(minutes=m))
     .astimezone(ZoneInfo("America/New_York")) for m in (0, 31, 51, 71, 91, 131)],
]
# ACCOUNT, COMMAND, GROUP and the separator. The pairs (a-g, h) and (a, g-h)
# both read "a-g-h" as implicit case ids.
_submission = st.tuples(
    st.sampled_from(["a", "b", "ACCOUNT", "x,y", "a-g"]),
    st.sampled_from(["/x/run.sh", "/x/a,b.sh --n 2", '/y/"odd".sh', "/z/", "/", "prep.sh"]),
    st.sampled_from(["g", '"q"', "h", "g-h"]),
    st.sampled_from([" ", "\t", "  "]),
)
_states = st.lists(st.sampled_from(["PD", "R", "CG", "CD", "S", "F", "pd"]), max_size=3)


def tracked_from(threshold):
    """The parser keeps its books after a snapshot of ``threshold`` good lines, and
    starts with an empty cache, so that an example parses alike each time it runs:
    no line map, and no last result, whose text and skipped lines the next call
    would reuse. On leaving, the cache is as it was."""
    return mock.patch.multiple(
        snapshots, _MIN_TRACKED_LINES=threshold, _previous_lines={}, _previous_rows=None
    )


@st.composite
def streams(draw):
    """Snapshots from a small pool of lines, so that jobs change state, leave and
    come back, repeat and are first seen late. Each submission has a PENDING line;
    an id may be submitted twice; targets are submitted ids or ids never seen."""
    ids = draw(st.lists(st.sampled_from(JOBS), min_size=3, max_size=8))
    target = st.builds(add, st.sampled_from(ids + UNSEEN), st.sampled_from(["", "+5", "(x)"]))
    dependency = st.sampled_from(["(null)", "singleton"]) | st.lists(
        target, min_size=1, max_size=3
    ).map(lambda targets: "afterok:" + ":".join(targets))
    pool = []
    for job_id in ids:
        account, command, group, separator = draw(_submission)
        words = [account, job_id, draw(dependency), command]
        pool += [separator.join([*words, state, group]) for state in ["PD", *draw(_states)]]
    pool += draw(st.lists(st.sampled_from(NOISE), max_size=2))
    texts = draw(st.lists(st.lists(st.sampled_from(pool), max_size=8), min_size=2, max_size=7))
    times = draw(st.sampled_from(TIMES))
    ticks = draw(st.lists(st.integers(0, len(times) - 1), min_size=len(texts), max_size=len(texts)))
    return [observer.Snapshot(times[tick], "\n".join(lines))
            for tick, lines in zip(sorted(ticks), texts)]


# The options of observe, correlate and discover, as command-line arguments.
_options = st.tuples(
    st.sampled_from([[], ["--no-synthetic-complete"]]),
    st.tuples(st.sampled_from(["explicit", "implicit"]), st.sampled_from([[], ["--hash-case-ids"]]))
    .map(lambda o: ["--strategy", o[0], *o[1]]),
    st.tuples(st.sampled_from(sorted(MILESTONES)),
              st.sampled_from(["start-start", "completion-start"]),
              st.sampled_from(["1", "2"]), st.sampled_from([[], ["--account", "a"]]))
    .map(lambda o: ["--milestone", o[0], "--edge-duration", o[1], "--min-edge-freq", o[2], *o[3]]),
)
_PARSER = cli.build_parser()


def _stream(*snapshots, times=TIMES[0]):
    return [observer.Snapshot(times[i], "\n".join(lines)) for i, lines in enumerate(snapshots)]


@contextlib.contextmanager
def logged(logger_name):
    """The messages logged to ``logger_name`` and its children in the block."""
    messages = []
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    logging.getLogger(logger_name).addHandler(handler)
    try:
        yield messages
    finally:
        logging.getLogger(logger_name).removeHandler(handler)


def outputs(directory, run):
    """The files ``run()`` writes to ``directory``, and what it prints and logs."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with logged("hpcmine") as messages:
            run()
    files = {name: (directory / name).read_bytes().decode() for name in ("cases.csv", "edges.csv")}
    return {**files, "stdout": out.getvalue(), "stderr": err.getvalue(), "logged": messages}


def expected(events, args):
    """The specification's case map, log, traces and DFG for ``events``, and the
    outputs of correlate, discover and stats."""
    explicit = args.strategy == "explicit"
    cases = (spec.explicit_cases(events, args.hash_case_ids) if explicit
             else spec.implicit_cases(events))
    log = spec.case_log(events, cases)
    shown = [e for e in log if e.account == args.account] if args.account else log
    traces, dropped = spec.traces(shown, MILESTONES[args.milestone])
    dfg = spec.dfg(traces, args.edge_duration == "completion-start")
    case_ids = [cases[job_id] for job_id in {e.job_id for e in events}]
    distinct, stderr, logged = len(set(case_ids)), "", []
    if explicit and distinct == len(case_ids) > 1:
        stderr = "no explicit interdependencies found: every event belongs to a different case"
    if not explicit and distinct == 1 < len(case_ids):
        stderr = "single account-group combination: every event belongs to the same case"
    cyclic = sorted({job for edge in spec.dependency_graph(events)[3] for job in edge})
    if explicit and cyclic:
        logged.append(f"dependency cycle among {cyclic}; edges between them dropped")
    if dropped:
        logged.append(f"{dropped} job(s) never reached milestone {args.milestone}; dropped")
    return (cases, log, traces, dfg), {
        "cases.csv": spec.csv_text(log, CSV_HEADER),
        "edges.csv": spec.edges_csv(dfg[3], args.min_edge_freq),
        "stdout": f"cases: {distinct}  rows: {len(log)}\n{render_stats(spec.stats(log))}\n",
        "stderr": f"warning: {stderr}\n" if stderr else "",
        "logged": logged,
    }


def assert_dfg(dfg, want):
    durations = {edge: stats.durations for edge, stats in dfg.edges.items()}
    assert (dfg.activities, dfg.start_activities, dfg.end_activities, durations) == want


# {1, 4} and {41} both read "JID41". The polls are at 01:30 EDT, 01:50 EDT,
# 01:10 EST and 01:30 EST in New York. Jobs 1 and 4 vanish in first-seen order.
_VANISH_ORDER = _stream(
    ["a 1 (null) /x/a.sh R g", "a 4 afterok:1 /x/b.sh PD g", "a 41 (null) /x/c.sh CD g"],
    ["a 1 (null) /x/a.sh CD g", "a 4 afterok:1 /x/b.sh PD g"],
    ["a 4 afterok:1 /x/b.sh R g", "a 1 (null) /x/a.sh R g"],  # a stale row reopens job 1
    [],
    times=TIMES[2][1:],
)
# Job 5 is downstream of the cycle of 1 and 4; 100_1 has the account ACCOUNT
# and depends on 99, which is never seen.
_CYCLE = _stream([
    "ACCOUNT JOBID DEPENDENCY COMMAND ST GROUP", "a 1 afterok:4 /x/a.sh PD g",
    "a 4 afterok:1 /x/b.sh PD g", "a 5 afterok:4 /x/c.sh PD g",
    "ACCOUNT 100_1 afterok:5:99 /x/d.sh PD g", "ACCOUNT",
], ["a 1 afterok:4 /x/a.sh R g"])


@settings(max_examples=200, deadline=None, phases=REPORT_PHASES)
@given(streams(), _options)
@example(_VANISH_ORDER, ([], [], ["--edge-duration", "completion-start"]))
@example(_CYCLE, ([], [], ["--milestone", "pending"]))
def test_pipeline_matches_spec(stream, options):
    _, correlate_argv, discover_argv = options
    args = _PARSER.parse_args(["pipeline", "--replay", "-", *sum(options, [])])
    synthetic_complete = not args.no_synthetic_complete
    events, malformed = spec.observe(stream, synthetic_complete)
    observed = []
    summary = observer.run_observation(stream, observed, synthetic_complete=synthetic_complete)
    assert observed == events
    counts = (summary.snapshots, summary.events, summary.malformed)
    assert counts == (len(stream), len(events), malformed)
    events_csv = spec.csv_text(events, EVENTS_CSV_HEADER).encode()

    # Stage by stage, in memory.
    (cases, log, traces, dfg), want = expected(events, args)
    observed_log = CaseLog(observed)
    first_deps = correlation.extract_first_dependencies(observed_log)
    graph = correlation.build_dependency_graph(observed_log, first_deps)
    assert (graph.vertices, graph.edges, graph.external, graph.dropped_edges) == (
        spec.dependency_graph(events)
    )
    if args.strategy == "explicit":
        assignment = correlation.assign_cases_explicit(graph, args.hash_case_ids)
    else:
        assignment = correlation.assign_cases_implicit(observed_log)
    assert assignment.cases == cases
    stamped = apply_cases(CaseLog(observed), assignment)
    assert list(stamped) == log
    assert compute_stats(stamped, first_deps) == spec.stats(log)
    if args.account:
        stamped = CaseLog([e for e in stamped if e.account == args.account])
    projected = discovery.project_case_traces(stamped, MILESTONES[args.milestone])
    assert projected == traces
    mode = discovery.DurationMode(args.edge_duration)
    assert_dfg(discovery.discover_dfg(projected, mode), dfg)

    with tempfile.TemporaryDirectory() as memory, tempfile.TemporaryDirectory() as files:
        memory, files = Path(memory), Path(files)
        # In memory, as ``hpcmine pipeline`` runs.
        with CsvEventSink(memory / "events.csv") as sink:
            sink.extend(observed_log)
        assert (memory / "events.csv").read_bytes() == events_csv

        def pipeline():
            log, first_deps = cli._correlate(args, observed_log, memory / "cases.csv")
            cli._discover(args, log, memory / "dfg.dot", memory / "edges.csv")
            cli._stats(log, first_deps)

        assert outputs(memory, pipeline) == want

        # Through the events file, as ``hpcmine observe`` and the stage commands run.
        with CsvEventSink(files / "events.csv") as sink:
            observer.run_observation(stream, sink, synthetic_complete=synthetic_complete)
        assert (files / "events.csv").read_bytes() == events_csv
        assert list(read_events_csv(files / "events.csv")) == events

        def stages():
            cases, edges = str(files / "cases.csv"), str(files / "edges.csv")
            for argv in [
                ["correlate", str(files / "events.csv"), "-o", cases, *correlate_argv],
                ["discover", cases, "-o", str(files / "dfg.dot"), "--stats-out", edges,
                 *discover_argv],
                ["stats", cases],
            ]:
                parsed = _PARSER.parse_args(argv)
                assert parsed.func(parsed) == 0

        assert outputs(files, stages) == want


@settings(max_examples=100, deadline=None, phases=REPORT_PHASES)
@given(streams(), streams(), THRESHOLDS)
def test_two_states_parsed_alternately_match_spec(first, second, threshold):
    # Each parse continues the other stream's, so neither state may skip rows.
    runs = [(stream, observer.ObserverState(), []) for stream in (first, second)]
    with tracked_from(threshold):
        for tick in range(max(len(first), len(second))):
            for stream, state, observed in runs:
                if tick < len(stream):
                    at = stream[tick].observed_at.astimezone(timezone.utc)
                    rows = observer.parse_snapshot(stream[tick].text, at, [])
                    observed += observer.diff_snapshot(state, rows, at)
                    observed += observer.finalize_vanished(state, rows, at)
    for stream, _, observed in runs:
        assert observed == spec.observe(stream)[0]


# Job 1 leaves during the second run, without synthetic completion, so it stays
# active; the third run must complete it. In the second example that run's
# snapshot is parsed once before, so its diff takes the full path.
_LEFT_ACTIVE = _stream(["a 1 (null) /x/a.sh R g", "a 2 (null) /x/b.sh PD g"],
                       ["a 2 (null) /x/b.sh R g"],
                       ["a 2 (null) /x/b.sh R g", "a 3 (null) /x/c.sh PD g"])


@settings(max_examples=100, deadline=None, phases=REPORT_PHASES)
@given(streams(), st.lists(st.integers(1, 6), max_size=3),
       st.lists(st.booleans(), min_size=4, max_size=4),
       st.lists(st.booleans(), min_size=4, max_size=4), THRESHOLDS)
@example(_LEFT_ACTIVE, [1, 2], [True, False, True, True], [False] * 4, 1)
@example(_LEFT_ACTIVE, [1, 2], [True, False, True, True], [False, True, False, False], 1)
def test_resumed_observation_matches_spec(stream, cuts, synthetic, foreign, threshold):
    # The state goes on where a run stopped, maybe with the other synthetic
    # completion setting, and maybe after a parse of another snapshot.
    bounds = [0, *sorted({cut for cut in cuts if cut < len(stream)}), len(stream)]
    observed, state, flags = [], None, []
    runs = zip(bounds, bounds[1:], synthetic, foreign)
    with tracked_from(threshold):
        for start, stop, synthetic_complete, another in runs:
            if start and another:
                observer.parse_snapshot(stream[stop - 1].text, stream[start].observed_at)
            state = observer.run_observation(
                stream[start:stop], observed, synthetic_complete=synthetic_complete, state=state
            ).state
            flags += [synthetic_complete] * (stop - start)
    assert observed == spec.observe(stream, flags)[0]


def test_a_list_diffed_in_between_ends_the_continued_path():
    # Jobs changed by a plain list after the last finalized poll must be diffed
    # against the next poll's rows, as for a state fed only plain lists.
    at, text = T0, "\n".join(f"a {job} (null) /x.sh PD g" for job in (1, 2, 3))
    with tracked_from(1):
        running = [row._replace(state=RUNNING) for row in observer.parse_snapshot(text, at)]
        runs = []
        for copy in (list, lambda rows: rows):
            state, events = observer.ObserverState(), []
            for rows in (copy(observer.parse_snapshot(text, at)), running,
                         copy(observer.parse_snapshot(text, at))):
                events += observer.diff_snapshot(state, rows, at)
                if rows is not running:
                    events += observer.finalize_vanished(state, rows, at)
            runs.append(events)
        assert type(rows) is snapshots.SnapshotRows and rows.continues is not None
    assert runs[1] == runs[0]
    assert sum(e.state == PENDING for e in runs[0]) == 2 * 3


def assert_observes_as_spec(stream):
    """Observed at the shipped threshold, each poll parses as it does from an
    empty cache, malformed lines and their numbers included, and the events are
    the specification's. Returns each poll's malformed lines."""
    state, observed, reported = observer.ObserverState(), [], []
    with tracked_from(snapshots._MIN_TRACKED_LINES):
        for at, text in stream:
            errors, cold_errors = [], []
            rows = observer.parse_snapshot(text, at, errors)
            with tracked_from(snapshots._MIN_TRACKED_LINES):
                assert rows == observer.parse_snapshot(text, at, cold_errors)
            assert errors == cold_errors
            reported.append(errors)
            observed += observer.diff_snapshot(state, rows, at)
            observed += observer.finalize_vanished(state, rows, at)
    assert observed == spec.observe(stream)[0]
    return reported


def _timed(texts):
    return [observer.Snapshot(T0 + timedelta(seconds=30 * i), text) for i, text in enumerate(texts)]


@pytest.mark.parametrize("order", poll_sweep.ORDERS)
def test_generated_large_queue_matches_spec(order):
    # The first 80 polls of the benchmark's dag_backlog stream, hundreds of lines
    # each: as generated, shuffled on every poll, and with the new lines last.
    texts = [text for _, text in poll_sweep.workloads.generate_dag_backlog(1).snapshots[:80]]
    assert_observes_as_spec(_timed(poll_sweep.reorder(texts, order)))


def _jobs(ids, state=RUNNING):
    return [f"u{i % 3} {i} (null) /x/step{i % 4}.sh --n {i % 5} {state} g{i % 2}" for i in ids]


# Queues of 80 lines. Each stream repeats its first poll, so that from its third
# poll on the parser may reuse the head and tail it shares with the poll before.
_QUEUE = _jobs(range(100, 180))
_LARGE_STREAMS = {
    "nowhere": [_QUEUE] * 4,
    "head": [_QUEUE, _QUEUE, _jobs([100], COMPLETING) + _QUEUE[1:], _QUEUE[1:],
             _jobs([101], COMPLETING) + _QUEUE[2:]],
    "tail": [_QUEUE, _QUEUE, _QUEUE + _jobs([180], PENDING), _QUEUE + _jobs([180, 181], PENDING),
             _QUEUE[:-1] + _jobs([180]) + _jobs([181], PENDING)],
    "both ends": [_QUEUE, _QUEUE, _jobs([100], COMPLETING) + _QUEUE[1:] + _jobs([180], PENDING),
                  _QUEUE[1:] + _jobs([180]), _QUEUE[2:-1] + _jobs([180], COMPLETING)],
    "every line": [_jobs(range(100, 180), PENDING), _jobs(range(100, 180), PENDING), _QUEUE,
                   _jobs(range(100, 180), COMPLETING), _jobs(range(180, 260), PENDING)],
    "middle leaves": [_QUEUE, _QUEUE, _QUEUE[:40] + _jobs([140], COMPLETING) + _QUEUE[41:],
                      _QUEUE[:40] + _QUEUE[41:], _QUEUE[:39] + _QUEUE[41:]],
    "head line in middle": [_QUEUE, _QUEUE, _QUEUE[:40] + _QUEUE[3:4] + _QUEUE[41:],
                            _QUEUE[:40] + _QUEUE[3:4] + _QUEUE[42:], _QUEUE[:40] + _QUEUE[42:]],
    "id on two lines": [_QUEUE, _QUEUE, _QUEUE[:40] + _jobs([105], COMPLETING) + _QUEUE[40:],
                        _QUEUE[:40] + _jobs([105], COMPLETING) + _QUEUE[41:],
                        _QUEUE[:40] + _QUEUE[41:]],
    # A malformed line sits in the shared head and another in the shared tail;
    # the middle grows and shrinks, so the second has another number each time.
    "malformed": [
        queue[:2] + ["broken line"] + queue[2:-2] + ["a 9 PD g"] + queue[-2:]
        for queue in [_QUEUE, _QUEUE, _QUEUE[:40] + _jobs([180, 181], PENDING) + _QUEUE[40:],
                      _QUEUE[:39] + _QUEUE[41:], _QUEUE[:39] + _QUEUE[42:]]
    ],
}


@pytest.mark.parametrize("name", sorted(_LARGE_STREAMS))
@pytest.mark.parametrize("header", [True, False])
@pytest.mark.parametrize("end", ["\n", ""])
def test_large_queue_streams_match_spec(name, header, end):
    polls = [[SNAPSHOT_HEADER] * header + lines for lines in _LARGE_STREAMS[name]]
    reported = assert_observes_as_spec(_timed(["\n".join(lines) + end for lines in polls]))
    if name == "malformed":  # both lines are reported on every poll, by their numbers
        numbers = [[i + 1 for i, line in enumerate(lines) if line in ("broken line", "a 9 PD g")]
                   for lines in polls]
        assert [[error.line_number for error in errors] for errors in reported] == numbers
        assert len({tuple(want) for want in numbers}) > 2


_HOSTILE = ',"\n\r \tab1\x0b\x85é中\U0001f600'
_PLAIN = "ab1 \t.:()é中\U0001f600"
_ZONES = [timezone.utc, timezone(timedelta(hours=5, minutes=30)), timezone(timedelta(hours=-8))]
_LENGTHS = sorted({0, 1, 600} | {n + d for n in (WRITE_BLOCK, FOLD_BLOCK) for d in (-1, 0, 1)})


@st.composite
def hostile_lists(draw):
    """A few events, plain or hostile, repeated to a length around a block size,
    maybe with one field made to need quotes, and a case per job. Times are a few
    instants, each moved to a zone or given its wall clock, so they repeat out of order."""
    text = st.text(draw(st.sampled_from([_PLAIN, _HOSTILE])), max_size=5)
    seconds = draw(st.lists(st.integers(0, 4_000_000_000), min_size=1, max_size=4))
    instants = [datetime(1971, 1, 1, tzinfo=timezone.utc) + timedelta(seconds=n) for n in seconds]
    timestamp = st.builds(
        lambda at, zone, convert: at.astimezone(zone) if convert else at.replace(tzinfo=zone),
        st.sampled_from(instants), st.sampled_from(_ZONES), st.booleans(),
    )
    job_id = st.sampled_from(["1", "2", "10", 'x,"y']) | text
    activity = st.sampled_from(["A", "B", "C"]) | text
    state = st.sampled_from([PENDING, RUNNING, "S", COMPLETING, COMPLETED, "F"]) | text
    event = st.builds(JobEvent, job_id, text, text, activity, state, text,
                      st.sampled_from(EventKind), timestamp, text)
    pool = draw(st.lists(event, min_size=1, max_size=6))
    length = draw(st.sampled_from(_LENGTHS))
    events = [pool[i % len(pool)] for i in range(length)]
    if events and draw(st.booleans()):
        at = draw(st.integers(0, length - 1))
        field = draw(st.sampled_from(JobEvent._fields[:6] + ("case_id",)))  # the text fields
        value = draw(st.sampled_from([",", '"', "\n", "\r", "a,b", 'x"y', "\r\n", ""]))
        events[at] = events[at]._replace(**{field: value})
    job_ids = sorted({e.job_id for e in events})
    picks = draw(st.lists(st.sampled_from("abc"), min_size=len(job_ids), max_size=len(job_ids)))
    return events, dict(zip(job_ids, picks))


@settings(max_examples=150, deadline=None)
@given(hostile_lists())
@example(([JobEvent("1", "a\rb", "g", "A", RUNNING, "(null)", EventKind.CREATED, T0)], {"1": "a"}))
def test_codec_and_later_stages_match_spec(events_and_cases):
    events, cases = events_and_cases
    for header in (EVENTS_CSV_HEADER, CSV_HEADER, ORACLE_EVENTS_HEADER):
        # Compared as lists of lines: pytest explains a mismatch of two long
        # texts with a line diff, which makes each shrinking step slow.
        want = spec.csv_text(events, header).splitlines(keepends=True)
        if header == EVENTS_CSV_HEADER:  # as an observation writes, a poll at a time
            appended = io.StringIO()
            with CsvEventSink(appended, header) as sink:
                for event in events:
                    sink.append(event)
            assert appended.getvalue().splitlines(keepends=True) == want
        written = io.StringIO()
        assert write_csv(iter(events), written, header) == len(events)
        assert written.getvalue().splitlines(keepends=True) == want
        if header == CSV_HEADER:
            assert list(read_csv(io.StringIO(written.getvalue()))) == events

    stamped = apply_cases(CaseLog(events), CaseAssignment(cases))
    assert list(stamped) == spec.case_log(events, cases)

    # Projection folds over the log in any order, not only as apply_cases sorts it.
    unsorted = [e._replace(case_id=cases[e.job_id]) for e in events]
    for name, milestone in MILESTONES.items():
        with logged("hpcmine.discovery") as messages:
            traces = discovery.project_case_traces(CaseLog(unsorted), milestone)
        want, dropped = spec.traces(unsorted, milestone)
        assert traces == want
        warning = f"{dropped} job(s) never reached milestone {name}; dropped"
        assert messages == ([warning] if dropped else [])
        for mode in discovery.DurationMode:
            want_dfg = spec.dfg(want, mode is discovery.DurationMode.COMPLETION_START)
            assert_dfg(discovery.discover_dfg(traces, mode), want_dfg)
