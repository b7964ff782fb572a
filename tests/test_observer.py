import io
import os
import shlex
import sys
import tempfile
from datetime import datetime, timedelta, timezone
from zoneinfo import ZoneInfo

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spec
from conftest import replay_events
from hpcmine import observer, simulator
from hpcmine.correlation import apply_cases, assign_cases_implicit, extract_first_dependencies
from hpcmine.discovery import discover_dfg, project_case_traces
from hpcmine.eventlog import CaseLog
from hpcmine.observer import (
    CommandSource,
    CsvEventSink,
    EventKind,
    ObserverState,
    OutOfOrderSnapshot,
    ReplayDirectorySource,
    Snapshot,
    SourceFailure,
    diff_snapshot,
    finalize_vanished,
    read_events_csv,
    run_observation,
    snapshot_filename,
)
from hpcmine.snapshots import COMPLETED, COMPLETING, PENDING, RUNNING, JobRow
from hpcmine.timeutil import parse_basic
from test_spec import REPORT_PHASES, THRESHOLDS, tracked_from

T0 = datetime(2023, 5, 1, 12, 0, 0, tzinfo=timezone.utc)


def row(job_id, state, dep="(null)", account="a", group="g", cmd="/x/run.sh"):
    return JobRow(
        account=account,
        job_id=job_id,
        dependency_raw=dep,
        command_path=cmd,
        state=state,
        group=group,
    )


class TestDiffSnapshot:
    def test_new_job_registers_creation(self):
        state = ObserverState()
        events = diff_snapshot(state, [row("1", PENDING)], T0)
        assert [(e.job_id, e.kind, e.state) for e in events] == [
            ("1", EventKind.CREATED, PENDING)
        ]
        assert state.jobs["1"].state == PENDING

    def test_unchanged_state_does_nothing(self):
        state = ObserverState()
        diff_snapshot(state, [row("1", PENDING)], T0)
        events = diff_snapshot(state, [row("1", PENDING)], T0 + timedelta(seconds=30))
        assert events == []

    def test_state_change_registers_event(self):
        state = ObserverState()
        diff_snapshot(state, [row("1", PENDING)], T0)
        t1 = T0 + timedelta(seconds=30)
        events = diff_snapshot(state, [row("1", RUNNING)], t1)
        assert [(e.job_id, e.kind, e.state, e.timestamp) for e in events] == [
            ("1", EventKind.STATE_CHANGED, RUNNING, t1)
        ]

    def test_at_most_one_event_per_job_per_snapshot(self):
        rows = [row(str(i), PENDING) for i in range(5)]
        state = ObserverState()
        events = diff_snapshot(state, rows, T0)
        assert len(events) == 5
        t1 = T0 + timedelta(seconds=30)
        rows = [row(str(i), RUNNING) for i in range(5)]
        events = diff_snapshot(state, rows, t1)
        assert len(events) == 5
        assert len({e.job_id for e in events}) == 5

    def test_first_dependency_captured_once(self):
        state = ObserverState()
        events = diff_snapshot(state, [row("1", PENDING, dep="afterok:7")], T0)
        assert extract_first_dependencies(CaseLog(events))["1"] == ("7",)
        t1 = T0 + timedelta(seconds=30)
        later = diff_snapshot(state, [row("1", PENDING, dep="(null)")], t1)
        assert extract_first_dependencies(CaseLog(events + later))["1"] == ("7",)

    def test_late_first_sight_flags_dependency(self):
        events = diff_snapshot(ObserverState(), [row("1", RUNNING)], T0)
        assert events[0].dependency_raw == observer.LATE_DEPENDENCY
        assert extract_first_dependencies(CaseLog(events)) == {}


class TestFinalizeVanished:
    def test_vanished_job_gets_synthetic_completion(self):
        state = ObserverState()
        diff_snapshot(state, [row("1", COMPLETING)], T0)
        t1 = T0 + timedelta(seconds=30)
        events = finalize_vanished(state, [], t1)
        assert [(e.job_id, e.kind, e.state, e.timestamp) for e in events] == [
            ("1", EventKind.SYNTHETIC_COMPLETED, COMPLETED, t1)
        ]
        assert state.jobs["1"].state == COMPLETED

    def test_nothing_tracked(self):
        events = finalize_vanished(ObserverState(), [], T0)
        assert events == []

    def test_completed_job_not_finalized_twice(self):
        state = ObserverState()
        diff_snapshot(state, [row("1", COMPLETING)], T0)
        finalize_vanished(state, [], T0 + timedelta(seconds=30))
        events = finalize_vanished(state, [], T0 + timedelta(seconds=60))
        assert events == []

    def test_fig1_yields_one_completion_per_job(self):
        result = simulator.simulate(simulator.load_bundled_scenario("fig1_explicit"))
        events, _ = replay_events(result)
        completions = [e for e in events if e.kind == EventKind.SYNTHETIC_COMPLETED]
        assert sorted(e.job_id for e in completions) == ["1", "2", "3", "4"]
        assert events == result.oracle.events

    def test_stale_row_of_completed_job_reopens_it(self):
        t = [T0 + timedelta(seconds=30 * i) for i in range(4)]
        state = ObserverState()

        def poll(rows, at):
            events = diff_snapshot(state, rows, at)
            vanished = finalize_vanished(state, rows, at)
            return [(e.job_id, e.kind, e.state) for e in events + vanished]

        poll([row(i, PENDING) for i in "123"], t[0])
        assert poll([row(i, PENDING) for i in "23"], t[1]) == [
            ("1", EventKind.SYNTHETIC_COMPLETED, COMPLETED)
        ]
        assert "1" not in state.active
        # A stale row brings job 1 back after jobs 2 and 3 in ``active``.
        stale = [row("2", PENDING), row("1", RUNNING), row("3", PENDING)]
        assert poll(stale, t[2]) == [("1", EventKind.STATE_CHANGED, RUNNING)]
        assert list(state.active) == ["2", "3", "1"]
        assert poll([], t[3]) == [
            (i, EventKind.SYNTHETIC_COMPLETED, COMPLETED) for i in "123"
        ]
        assert state.active == {}
        assert list(state.jobs) == ["1", "2", "3"]

    def test_completed_row_leaves_active(self):
        rows = [row("1", RUNNING), row("2", RUNNING)]
        state = ObserverState()
        diff_snapshot(state, rows, T0)
        t1 = T0 + timedelta(seconds=30)
        rows = [row("1", COMPLETED), row("2", RUNNING)]
        events = diff_snapshot(state, rows, t1)
        assert [(e.job_id, e.state) for e in events] == [("1", COMPLETED)]
        assert list(state.active) == ["2"]
        vanished = finalize_vanished(state, [], t1 + timedelta(seconds=30))
        assert [e.job_id for e in vanished] == ["2"]

    def test_state_updated_in_place(self):
        state = ObserverState()
        diff_snapshot(state, [row("1", PENDING)], T0)
        assert state.jobs["1"].state == PENDING
        finalize_vanished(state, [], T0 + timedelta(seconds=30))
        assert state.jobs["1"].state == COMPLETED


# A snapshot is a list of (job id, state code, account, dependency) rows.
# Few ids and many snapshots make jobs vanish, reappear and finish by a CD row.
_snapshot_rows = st.lists(
    st.tuples(
        st.sampled_from("123456"),
        st.sampled_from(["PD", "R", "CG", "CD", "S", "F"]),
        st.sampled_from(["a", "b"]),
        st.sampled_from(["(null)", "afterok:1"]),
    ),
    max_size=8,
)

# Job 1 finishes by a CD row; 2 and 3 vanish together; 2 and 4 reappear;
# a stale row of the finished job 1 reopens it behind later-seen jobs.
_CRAFTED_STREAM = [
    [(job_id, code, "a", "(null)") for job_id, code in snapshot]
    for snapshot in [
        [("1", "R"), ("2", "PD"), ("3", "PD")],
        [("1", "CD"), ("2", "PD"), ("4", "R")],
        [("4", "R")],
        [("2", "R")],
        [("4", "CG"), ("1", "R"), ("5", "PD")],
        [],
    ]
]


class TestInPlaceMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_snapshot_rows, max_size=12), st.booleans())
    @example(_CRAFTED_STREAM, True)
    def test_same_events_in_same_order(self, stream, synthetic_complete):
        times = [T0 + timedelta(seconds=30 * i) for i in range(len(stream))]
        texts = [
            "\n".join(f"{account} {job_id} {dep} /x/run.sh {code} g"
                      for job_id, code, account, dep in snapshot)
            for snapshot in stream
        ]
        expected, _ = spec.observe(zip(times, texts), synthetic_complete)
        state = ObserverState()
        states = {}  # each job's state after the poll, in first-seen order
        for at, snapshot in zip(times, stream):
            rows = [
                row(job_id, code, dep=dep, account=account)
                for job_id, code, account, dep in snapshot
            ]
            events = diff_snapshot(state, rows, at)
            if synthetic_complete:
                events += finalize_vanished(state, rows, at)
            assert events == [e for e in expected if e.timestamp == at]
            states.update((e.job_id, e.state) for e in events)
            assert list(state.jobs) == list(states)
            assert all(state.jobs[j].state == states[j] for j in states)
            assert state.active.keys() == {
                j for j, tracked in state.jobs.items() if tracked.state != COMPLETED
            }
            assert all(state.active[j] is state.jobs[j] for j in state.active)


# Lines for jobs 1-3: each in several states, one with its dependency changed
# in place, one re-spaced (another line, the same fields); and noise lines.
_POOL = [
    f"a {job_id} {dep} /x/{job_id}.sh --n 2 {code} g"
    for job_id in "123"
    for dep, code in [
        ("(null)", "PD"), ("(null)", "R"), ("(null)", "CG"), ("(null)", "CD"),
        ("(null)", "F"), ("afterok:1", "PD"),
    ]
] + [
    "a  1 (null)\t/x/1.sh --n 2 PD g",
    "ACCOUNT JOBID DEPENDENCY COMMAND ST GROUP",
    "ACCOUNT JOBID DEPENDENCY COMMAND STATE GROUP",
    "ACCOUNT 7 (null) /x/7.sh R g",
    "ACCOUNT",
    "",
    "   ",
    "a 9 PD g",
    "broken line",
]


@st.composite
def _snapshot_streams(draw):
    """Snapshots drawn from a few pool lines, so consecutive ones overlap."""
    lines = draw(st.lists(st.sampled_from(_POOL), min_size=1, max_size=6))
    texts = draw(st.lists(st.lists(st.sampled_from(lines), max_size=8), max_size=10))
    gaps = draw(st.lists(st.sampled_from([0, 30, 45]), min_size=len(texts), max_size=len(texts)))
    at = T0
    stream = []
    for text, gap in zip(texts, gaps):
        at += timedelta(seconds=gap)
        stream.append(Snapshot(at, "\n".join(text)))
    return stream


def _crafted_observation():
    job1, job2 = "a 1 (null) /x.sh PD g", "a 2 afterok:1 /y.sh PD g"
    texts = [
        ["ACCOUNT JOBID DEPENDENCY COMMAND ST GROUP", job1, job2, "", "broken line"],
        [job1, job2],  # unchanged
        [job1.replace("PD", "R"), job2, job2],  # changed in place; a duplicate
        [job1.replace("PD", "R"), job1.replace("PD", "CG")],  # one id, two states
        [],  # both vanish
        [job2],  # a stale row reopens job 2
        [job2, "a 9 PD g"],
    ]
    return [
        Snapshot(T0 + timedelta(seconds=30 * i), "\n".join(text))
        for i, text in enumerate(texts)
    ]


class TestObservationMatchesTimedRows:
    @settings(max_examples=300, deadline=None, phases=REPORT_PHASES)
    @given(_snapshot_streams(), st.booleans(), THRESHOLDS)
    @example(_crafted_observation(), True, 1)
    def test_same_events_and_malformed_count(self, stream, synthetic_complete, threshold):
        sink = []
        with tracked_from(threshold):
            summary = run_observation(stream, sink, synthetic_complete=synthetic_complete)
        events, malformed = spec.observe(stream, synthetic_complete)
        assert sink == events
        assert summary.malformed == malformed
        assert (summary.snapshots, summary.events) == (len(stream), len(events))


class TestRunObservation:
    def snapshot_pair(self):
        text = "\n".join(f"a {i} (null) /x.sh PD g" for i in range(3))
        return [
            Snapshot(T0, text),
            Snapshot(T0 + timedelta(seconds=30), text),
        ]

    def test_identical_snapshots_create_once(self):
        sink = []
        summary = run_observation(self.snapshot_pair(), sink)
        assert summary.snapshots == 2
        assert summary.malformed == 0
        assert len(sink) == 3
        assert all(e.kind == EventKind.CREATED for e in sink)

    def test_equal_activities_are_one_string(self):
        # Each new job's command is split afresh; its activity is interned.
        snaps = [
            Snapshot(T0, "a 1 (null) /x/run.sh --n 1 PD g\na 2 (null) /y/prep.sh R g"),
            Snapshot(
                T0 + timedelta(seconds=30),
                "a 3 (null) /y/run.sh --n 2 PD g\na 4 (null) /z/prep.sh PD g",
            ),
        ]
        sink = []
        run_observation(snaps, sink)
        by_text = {}
        for event in sink:
            by_text.setdefault(event.activity, set()).add(id(event.activity))
        assert sorted(by_text) == ["prep.sh", "run.sh"]
        assert all(len(ids) == 1 for ids in by_text.values())

    def test_empty_source(self):
        sink = []
        summary = run_observation([], sink)
        assert (summary.snapshots, summary.events) == (0, 0)

    def test_out_of_order_snapshot_rejected(self):
        snaps = [Snapshot(T0, ""), Snapshot(T0 - timedelta(seconds=1), "")]
        with pytest.raises(OutOfOrderSnapshot):
            run_observation(snaps, [])

    def test_determinism(self):
        result = simulator.simulate(simulator.load_bundled_scenario("two_chains"))
        first, _ = replay_events(result)
        second, _ = replay_events(result)
        assert first == second

    def test_event_timestamps_nondecreasing(self):
        result = simulator.simulate(simulator.load_bundled_scenario("two_chains"))
        events, _ = replay_events(result)
        stamps = [e.timestamp for e in events]
        assert stamps == sorted(stamps)

    def test_synthetic_completion_can_be_disabled(self):
        result = simulator.simulate(simulator.load_bundled_scenario("fig1_explicit"))
        events, _ = replay_events(result, synthetic_complete=False)
        assert not any(e.kind == EventKind.SYNTHETIC_COMPLETED for e in events)

    def test_malformed_line_in_replay_counted_once(self, tmp_path, caplog):
        result = simulator.simulate(simulator.load_bundled_scenario("fig1_explicit"))
        paths = simulator.write_snapshots(result.snapshots, tmp_path)
        paths[1].write_text(paths[1].read_text() + "\nacc1 99 (null) PD\n")
        clean, _ = replay_events(result)
        sink = []
        with caplog.at_level("WARNING", logger="hpcmine.snapshots"):
            summary = run_observation(ReplayDirectorySource(tmp_path), sink)
        assert summary.malformed == 1
        assert len(caplog.records) == 1
        assert sink == clean

    def test_second_pass_over_a_replay_emits_the_same_events(self, tmp_path):
        # The parser keeps the previous snapshot's lines across calls; a new
        # pass must not inherit anything from the last pass but speed.
        result = simulator.simulate(simulator.load_bundled_scenario("fig8_parallel"))
        paths = simulator.write_snapshots(result.snapshots, tmp_path)
        paths[1].write_text(paths[1].read_text() + "\nacc1 99 (null) PD\n")
        passes = []
        for _ in range(2):
            sink = []
            summary = run_observation(ReplayDirectorySource(tmp_path), sink)
            passes.append((sink, summary.snapshots, summary.malformed))
        assert passes[0] == passes[1]
        assert passes[0][2] == 1

    @pytest.mark.parametrize("k", [1, 3])
    def test_changed_line_takes_its_polls_time(self, k):
        # The line is reused unchanged for k polls; its change is stamped
        # with the poll that shows it, not with the poll that first saw it.
        at = [T0 + timedelta(seconds=30 * i) for i in range(k + 1)]
        snaps = [Snapshot(t, "a 1 (null) /x.sh PD g") for t in at[:k]]
        snaps.append(Snapshot(at[k], "a 1 (null) /x.sh R g"))
        sink = []
        run_observation(snaps, sink)
        assert [(e.kind, e.timestamp) for e in sink] == [
            (EventKind.CREATED, at[0]),
            (EventKind.STATE_CHANGED, at[k]),
        ]

    def test_first_dependency_survives_mutated_replay(self):
        # Later snapshots lie about the dependency; the first view wins.
        t1 = T0 + timedelta(seconds=30)
        snaps = [
            Snapshot(T0, "a 4 afterok:2:3 /x.sh PD g"),
            Snapshot(t1, "a 4 afterok:99 /x.sh PD g"),
        ]
        sink = []
        run_observation(snaps, sink)
        assert extract_first_dependencies(CaseLog(sink))["4"] == ("2", "3")


NEW_YORK = ZoneInfo("America/New_York")


class TestObservationTimesInUtc:
    # On 2023-11-05 New York's wall clock runs 01:00-02:00 twice, EDT then EST.

    def test_clock_going_back_through_a_dst_fold_is_in_order(self):
        # 01:10 EST comes 20 minutes after 01:50 EDT.
        polls = [
            Snapshot(datetime(2023, 11, 5, 1, 50, tzinfo=NEW_YORK), "a 1 (null) /x PD g"),
            Snapshot(datetime(2023, 11, 5, 1, 10, fold=1, tzinfo=NEW_YORK), "a 1 (null) /x R g"),
        ]
        sink = []
        run_observation(polls, sink)
        assert [(e.state, e.timestamp) for e in sink] == [
            (PENDING, datetime(2023, 11, 5, 5, 50, tzinfo=timezone.utc)),
            (RUNNING, datetime(2023, 11, 5, 6, 10, tzinfo=timezone.utc)),
        ]
        assert all(e.timestamp.tzinfo is timezone.utc for e in sink)

    def test_fold_durations_agree_in_memory_and_through_the_file(self):
        # 01:30 EDT and 01:30 EST are an hour apart, though equal on the wall clock.
        polls = [
            Snapshot(datetime(2023, 11, 5, 1, 30, tzinfo=NEW_YORK), "a 1 (null) /a.sh R g"),
            Snapshot(datetime(2023, 11, 5, 1, 30, fold=1, tzinfo=NEW_YORK), "a 2 (null) /b.sh R g"),
        ]
        in_memory = []
        run_observation(polls, in_memory)
        written = io.StringIO()
        with CsvEventSink(written) as sink:
            run_observation(polls, sink)
        through_file = read_events_csv(io.StringIO(written.getvalue()))
        for log in (CaseLog(in_memory), through_file):
            apply_cases(log, assign_cases_implicit(log))
            dfg = discover_dfg(project_case_traces(log))
            assert dfg.edges[("a.sh", "b.sh")].durations == [3600.0]


class TestSources:
    def test_replay_directory_round_trip(self, tmp_path):
        result = simulator.simulate(simulator.load_bundled_scenario("fig1_explicit"))
        simulator.write_snapshots(result.snapshots, tmp_path)
        source = ReplayDirectorySource(tmp_path)
        snaps = list(source)
        assert [s.observed_at for s in snaps] == [at for at, _ in result.snapshots]
        assert [s.text for s in snaps] == [text for _, text in result.snapshots]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ReplayDirectorySource(tmp_path / "nope")

    @pytest.mark.parametrize(
        "stamp",
        [
            "yesterday",
            "",
            "20240101T000000",
            "20240101T0000000Z",
            "2024-01-01T00:00:00Z",
            "20240101t000000Z",
            "2024010１T000000Z",  # a non-ASCII digit
            "+2024010T000000Z",
            "20241301T000000Z",
            "20240230T000000Z",
            "20240101T240000Z",
        ],
    )
    def test_bad_snapshot_filename_is_source_failure(self, tmp_path, stamp):
        (tmp_path / f"snapshot_{stamp}.txt").write_text("a 1 (null) /x.sh PD g\n")
        with pytest.raises(SourceFailure, match="^bad snapshot filename snapshot_"):
            list(ReplayDirectorySource(tmp_path))

    def test_only_snapshot_files_are_read_in_name_order(self, tmp_path):
        for name in ["snapshot_20240101T000100Z.txt", "snapshot_20240101T000000Z.txt"]:
            (tmp_path / name).write_text(name)
        (tmp_path / "notes.txt").write_text("x")
        (tmp_path / "snapshot_20240101T000200Z.csv").write_text("x")
        snaps = list(ReplayDirectorySource(tmp_path))
        assert [s.text for s in snaps] == [
            "snapshot_20240101T000000Z.txt",
            "snapshot_20240101T000100Z.txt",
        ]
        assert snaps[1].observed_at == datetime(2024, 1, 1, 0, 1, tzinfo=timezone.utc)

    @settings(max_examples=300, deadline=None)
    @given(st.datetimes(min_value=datetime(1000, 1, 1), max_value=datetime(9999, 12, 31)))
    def test_snapshot_stamp_reads_as_strptime_did(self, at):
        # strptime is the parser slicing replaced.
        stamp = snapshot_filename(at.replace(microsecond=0, tzinfo=timezone.utc))
        stamp = stamp[len("snapshot_") : -len(".txt")]
        expected = datetime.strptime(stamp, "%Y%m%dT%H%M%SZ").replace(tzinfo=timezone.utc)
        assert parse_basic(stamp) == expected

    def test_command_source_uses_injected_runner(self):
        outputs = iter(
            [
                "a 1 (null) /x.sh PD g",
                "a 1 (null) /x.sh R g",
            ]
        )
        clock_times = iter([T0, T0 + timedelta(seconds=30)])
        slept = []
        source = CommandSource(
            command='squeue -o "%a %i %E %o %t %g"',
            interval=30,
            runner=lambda argv: next(outputs),
            clock=lambda: next(clock_times),
            sleep=slept.append,
            max_snapshots=2,
            monotonic=lambda: 0.0,  # the command takes no time
        )
        sink = []
        summary = run_observation(source, sink)
        assert summary.snapshots == 2
        kinds = [e.kind for e in sink]
        assert kinds == [EventKind.CREATED, EventKind.STATE_CHANGED]
        assert slept == [30]


# Characters that text-mode reading treats specially, or that are not ASCII.
_SNAPSHOT_PIECES = st.sampled_from(["\r", "\r\n", "\n", "\x0c", "\x85", "\u2028", "é", "a 1 PD"])
_SNAPSHOT_TEXTS = st.lists(
    _SNAPSHOT_PIECES | st.characters(blacklist_categories=("Cs",)), max_size=12
).map("".join)


class TestSnapshotFiles:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_SNAPSHOT_TEXTS, min_size=1, max_size=3))
    @example([""])
    @example(["a\r\nb\rc\n\r\n", "\r"])
    def test_replay_reads_what_text_mode_open_reads(self, texts):
        snaps = [Snapshot(T0 + timedelta(seconds=30 * i), t) for i, t in enumerate(texts)]
        with tempfile.TemporaryDirectory() as tmp:
            paths = simulator.write_snapshots(snaps, tmp)
            assert [p.read_bytes() for p in paths] == [t.encode("utf-8") for t in texts]
            expected = []
            for path in paths:
                with open(path, encoding="utf-8") as fh:
                    expected.append(fh.read())
            assert [s.text for s in ReplayDirectorySource(tmp)] == expected
        # A live poll of the same bytes gives the same text.
        assert [observer.decode_snapshot(t.encode("utf-8")) for t in texts] == expected

    def test_shorter_file_leaves_no_tail(self, tmp_path):
        path = tmp_path / snapshot_filename(T0)
        observer.write_snapshot_file(path, "a 1 (null) /long/path/x.sh PD g\n" * 50)
        observer.write_snapshot_file(path, "a 2 (null) /y.sh R g\n")
        assert path.read_bytes() == b"a 2 (null) /y.sh R g\n"

    @pytest.mark.parametrize(
        "texts",
        [
            # longer, shorter, longer again, empty
            ["a 1 (null) /x.sh PD g\n" * 40, "a 2 (null) /é.sh R g\n", "a 3 (null) /z CG g\n" * 90, ""],
            # the same length, other bytes
            ["a 1 (null) /x.sh PD g\n", "a 2 (null) /y.sh CG g\n", "b 2 (null) /y.sh CG h\n"],
        ],
    )
    def test_overwrite_leaves_exactly_the_new_bytes(self, tmp_path, texts):
        path = tmp_path / snapshot_filename(T0)
        for text in texts:
            observer.write_snapshot_file(path, text)
            assert path.read_bytes() == text.encode("utf-8")

    def test_failed_write_leaves_only_the_bytes_written(self, tmp_path, monkeypatch):
        path = tmp_path / snapshot_filename(T0)
        path.write_bytes(b"o" * 1000)
        real_open, real_write = os.open, os.write
        opened, sizes = [], []

        def open_and_record(*args):
            opened.append(real_open(*args))
            return opened[-1]

        def write_7_twice_then_fail(fd, data):
            sizes.append(len(data))
            if len(sizes) > 2:
                raise OSError(28, "No space left on device")
            return real_write(fd, bytes(data[:7]))

        monkeypatch.setattr(os, "open", open_and_record)
        monkeypatch.setattr(os, "write", write_7_twice_then_fail)
        with pytest.raises(OSError, match="No space left on device"):
            observer.write_snapshot_file(path, "a 1 (null) /x.sh PD g\n")
        monkeypatch.undo()
        assert sizes == [22, 15, 8]
        with pytest.raises(OSError):  # closed
            os.fstat(opened[0])
        assert path.read_bytes() == b"a 1 (null) /x.sh PD g\n"[:14]

    def test_short_writes_still_write_whole_files(self, tmp_path, monkeypatch):
        real_write = os.write
        sizes = []

        def write_at_most_7(fd, data):
            sizes.append(len(data))
            return real_write(fd, bytes(data[:7]))

        text = "a 1 (null) /home/é/x.sh PD g\n" * 20
        snaps = [Snapshot(T0, text), Snapshot(T0 + timedelta(seconds=30), "")]
        monkeypatch.setattr(os, "write", write_at_most_7)
        paths = simulator.write_snapshots(snaps, tmp_path)
        monkeypatch.undo()
        assert [p.read_bytes() for p in paths] == [text.encode("utf-8"), b""]
        assert len(sizes) == -(-len(text.encode("utf-8")) // 7)

    def test_undecodable_replay_file_is_a_source_failure_naming_it(self, tmp_path):
        good = tmp_path / snapshot_filename(T0)
        bad = tmp_path / snapshot_filename(T0 + timedelta(seconds=30))
        good.write_bytes(b"a 1 (null) /x.sh PD g\n")
        bad.write_bytes(b"a 1 (null) /home/u/caf\xe9.sh R g\n")
        sink = []
        with pytest.raises(SourceFailure) as failure:
            run_observation(ReplayDirectorySource(tmp_path), sink)
        assert str(failure.value).startswith(
            f"{bad}: 'utf-8' codec can't decode byte 0xe9 in position 22"
        )
        assert [e.kind for e in sink] == [EventKind.CREATED]

    def test_live_output_decodes_as_a_replay_file_does(self):
        data = b"a 1 (null) /caf\xc3\xa9.sh PD g\r\na 2 (null) /x.sh PD g\r"
        argv = [sys.executable, "-c", f"import sys; sys.stdout.buffer.write({data!r})"]
        text = CommandSource._run_subprocess(argv)
        assert text == "a 1 (null) /café.sh PD g\na 2 (null) /x.sh PD g\n"
        assert text == observer.decode_snapshot(data)

    def test_undecodable_live_output_is_a_source_failure(self):
        write = "import sys; sys.stdout.buffer.write(b'caf\\xe9')"
        command = shlex.join([sys.executable, "-c", write])
        source = CommandSource(command=command, max_snapshots=1, sleep=lambda s: None)
        with pytest.raises(SourceFailure, match="^'utf-8' codec can't decode byte 0xe9"):
            list(source)


class _FakeTime:
    """A monotonic clock that only the fake command and sleep advance."""

    def __init__(self, durations):
        self.now = 0.0
        self.durations = iter(durations)
        self.starts = []
        self.slept = []

    def monotonic(self):
        return self.now

    def run(self, argv):
        self.starts.append(self.now)
        self.now += next(self.durations)
        return "a 1 (null) /x.sh PD g"

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds


class TestPollSchedule:
    def poll(self, durations):
        fake = _FakeTime(durations)
        source = CommandSource(
            interval=30,
            runner=fake.run,
            clock=lambda: T0,
            sleep=fake.sleep,
            max_snapshots=len(durations),
            monotonic=fake.monotonic,
        )
        assert len(list(source)) == len(durations)
        return fake

    def test_command_latency_does_not_add_to_the_period(self):
        fake = self.poll([3, 3, 3])
        assert fake.slept == [27, 27]
        assert fake.starts == [0, 30, 60]

    def test_overrun_polls_at_once_and_restarts_the_grid(self, caplog):
        with caplog.at_level("WARNING", logger="hpcmine.observer"):
            fake = self.poll([40, 3, 3])
        assert fake.slept == [0, 27]
        assert fake.starts == [0, 40, 70]
        assert len(caplog.records) == 1

    def test_long_overruns_fire_no_catch_up_burst(self):
        fake = self.poll([100, 100, 100])
        assert fake.slept == [0, 0]
        assert fake.starts == [0, 100, 200]

    def test_poll_ending_on_its_deadline_is_not_an_overrun(self, caplog):
        with caplog.at_level("WARNING", logger="hpcmine.observer"):
            fake = self.poll([30, 3])
        assert fake.slept == [0]
        assert fake.starts == [0, 30]
        assert not caplog.records


class TestEventsCsv:
    def test_round_trip(self):
        result = simulator.simulate(simulator.load_bundled_scenario("fig1_explicit"))
        events, _ = replay_events(result)
        buffer = io.StringIO()
        with CsvEventSink(buffer) as sink:
            for event in events:
                sink.append(event)
        buffer.seek(0)
        assert list(read_events_csv(buffer)) == events
