import io
from datetime import datetime, timedelta, timezone

import pytest

from conftest import replay_events
from hpcmine import observer, simulator
from hpcmine.correlation import extract_first_dependencies
from hpcmine.observer import (
    CommandSource,
    CsvEventSink,
    EventKind,
    ListSink,
    ObserverState,
    OutOfOrderSnapshot,
    ReplayDirectorySource,
    Snapshot,
    diff_snapshot,
    finalize_vanished,
    read_events_csv,
    run_observation,
)
from hpcmine.snapshots import COMPLETED, COMPLETING, PENDING, RUNNING, JobRow, parse_snapshot

T0 = datetime(2023, 5, 1, 12, 0, 0, tzinfo=timezone.utc)


def row(job_id, state, at=T0, dep="(null)", account="a", group="g", cmd="/x/run.sh"):
    return JobRow(
        account=account,
        job_id=job_id,
        dependency_raw=dep,
        command_path=cmd,
        state=state,
        group=group,
        observed_at=at,
    )


class TestDiffSnapshot:
    def test_new_job_registers_creation(self):
        events, state = diff_snapshot(ObserverState.empty(), [row("1", PENDING)])
        assert [(e.job_id, e.kind, e.state) for e in events] == [
            ("1", EventKind.CREATED, PENDING)
        ]
        assert state.jobs["1"].state == PENDING

    def test_unchanged_state_does_nothing(self):
        _, state = diff_snapshot(ObserverState.empty(), [row("1", PENDING)])
        events, _ = diff_snapshot(state, [row("1", PENDING, at=T0 + timedelta(seconds=30))])
        assert events == []

    def test_state_change_registers_event(self):
        _, state = diff_snapshot(ObserverState.empty(), [row("1", PENDING)])
        t1 = T0 + timedelta(seconds=30)
        events, state = diff_snapshot(state, [row("1", RUNNING, at=t1)])
        assert [(e.job_id, e.kind, e.state, e.timestamp) for e in events] == [
            ("1", EventKind.STATE_CHANGED, RUNNING, t1)
        ]

    def test_at_most_one_event_per_job_per_snapshot(self):
        rows = [row(str(i), PENDING) for i in range(5)]
        events, state = diff_snapshot(ObserverState.empty(), rows)
        assert len(events) == 5
        t1 = T0 + timedelta(seconds=30)
        rows = [row(str(i), RUNNING, at=t1) for i in range(5)]
        events, _ = diff_snapshot(state, rows)
        assert len(events) == 5
        assert len({e.job_id for e in events}) == 5

    def test_first_dependency_captured_once(self):
        events, state = diff_snapshot(ObserverState.empty(), [row("1", PENDING, dep="afterok:7")])
        assert extract_first_dependencies(events)["1"].targets() == ["7"]
        t1 = T0 + timedelta(seconds=30)
        later, state = diff_snapshot(state, [row("1", PENDING, at=t1, dep="(null)")])
        assert extract_first_dependencies(events + later)["1"].targets() == ["7"]

    def test_late_first_sight_flags_dependency(self):
        events, state = diff_snapshot(ObserverState.empty(), [row("1", RUNNING)])
        assert events[0].dependency_raw == observer.LATE_DEPENDENCY
        assert extract_first_dependencies(events)["1"].is_empty


class TestFinalizeVanished:
    def test_vanished_job_gets_synthetic_completion(self):
        _, state = diff_snapshot(ObserverState.empty(), [row("1", COMPLETING)])
        t1 = T0 + timedelta(seconds=30)
        events, state = finalize_vanished(state, [], t1)
        assert [(e.job_id, e.kind, e.state, e.timestamp) for e in events] == [
            ("1", EventKind.SYNTHETIC_COMPLETED, COMPLETED, t1)
        ]
        assert state.jobs["1"].state == COMPLETED

    def test_nothing_tracked(self):
        events, _ = finalize_vanished(ObserverState.empty(), [], T0)
        assert events == []

    def test_completed_job_not_finalized_twice(self):
        _, state = diff_snapshot(ObserverState.empty(), [row("1", COMPLETING)])
        _, state = finalize_vanished(state, [], T0 + timedelta(seconds=30))
        events, _ = finalize_vanished(state, [], T0 + timedelta(seconds=60))
        assert events == []

    def test_fig1_yields_one_completion_per_job(self):
        result = simulator.simulate(simulator.load_bundled_scenario("fig1_explicit"))
        events, _ = replay_events(result)
        completions = [e for e in events if e.kind == EventKind.SYNTHETIC_COMPLETED]
        assert sorted(e.job_id for e in completions) == ["1", "2", "3", "4"]
        expected = [
            e.job_id
            for e in result.oracle.events
            if e.kind == EventKind.SYNTHETIC_COMPLETED
        ]
        assert [e.job_id for e in completions] == expected


class TestRunObservation:
    def snapshot_pair(self):
        text = "\n".join(f"a {i} (null) /x.sh PD g" for i in range(3))
        return [
            Snapshot(T0, text),
            Snapshot(T0 + timedelta(seconds=30), text),
        ]

    def test_identical_snapshots_create_once(self):
        sink = ListSink()
        summary = run_observation(self.snapshot_pair(), sink)
        assert summary.snapshots == 2
        assert len(sink.events) == 3
        assert all(e.kind == EventKind.CREATED for e in sink.events)

    def test_empty_source(self):
        sink = ListSink()
        summary = run_observation([], sink)
        assert (summary.snapshots, summary.events) == (0, 0)

    def test_out_of_order_snapshot_rejected(self):
        snaps = [Snapshot(T0, ""), Snapshot(T0 - timedelta(seconds=1), "")]
        with pytest.raises(OutOfOrderSnapshot):
            run_observation(snaps, ListSink())

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

    def test_first_dependency_survives_mutated_replay(self):
        # Later snapshots lie about the dependency; the first view wins.
        t1 = T0 + timedelta(seconds=30)
        snaps = [
            Snapshot(T0, "a 4 afterok:2:3 /x.sh PD g"),
            Snapshot(t1, "a 4 afterok:99 /x.sh PD g"),
        ]
        sink = ListSink()
        run_observation(snaps, sink)
        assert extract_first_dependencies(sink.events)["4"].targets() == ["2", "3"]


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
        )
        sink = ListSink()
        summary = run_observation(source, sink)
        assert summary.snapshots == 2
        kinds = [e.kind for e in sink.events]
        assert kinds == [EventKind.CREATED, EventKind.STATE_CHANGED]
        assert slept == [30]


class TestEventsCsv:
    def test_round_trip(self):
        result = simulator.simulate(simulator.load_bundled_scenario("fig1_explicit"))
        events, _ = replay_events(result)
        buffer = io.StringIO()
        sink = CsvEventSink(buffer)
        for event in events:
            sink.append(event)
        buffer.seek(0)
        assert read_events_csv(buffer) == events
