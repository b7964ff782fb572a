import random
import re
import statistics
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spec
from conftest import random_case_log, replay_events
from hpcmine import simulator
from hpcmine.correlation import (
    apply_cases,
    assign_cases_explicit,
    assign_cases_implicit,
    build_dependency_graph,
    extract_first_dependencies,
)
from hpcmine.discovery import (
    MILESTONES,
    Dfg,
    DurationMode,
    EdgeStats,
    Trace,
    TraceStep,
    detect_parallel,
    discover_dfg,
    export_dot,
    humanize_duration,
    project_case_traces,
)
from hpcmine.eventlog import CaseLog, EventKind, JobEvent
from hpcmine.snapshots import COMPLETED, PENDING, RUNNING
from test_spec import logged

T0 = datetime(2024, 1, 1, tzinfo=timezone.utc)


def case_event(case, job, activity, state, kind, seconds):
    return JobEvent(
        case_id=case,
        activity=activity,
        state=state,
        kind=kind,
        timestamp=T0 + timedelta(seconds=seconds),
        job_id=job,
        account="acc",
        group="g",
        dependency_raw="(null)",
    )


def job_events(case, job, activity, start, end=None):
    events = [
        case_event(case, job, activity, PENDING, EventKind.CREATED, start - 30),
        case_event(case, job, activity, RUNNING, EventKind.STATE_CHANGED, start),
    ]
    if end is not None:
        events.append(
            case_event(case, job, activity, COMPLETED, EventKind.SYNTHETIC_COMPLETED, end)
        )
    return events


def trace(*steps):
    return Trace("c", tuple(TraceStep(a, T0 + timedelta(seconds=s)) for a, s in steps))


class TestProjectCaseTraces:
    def test_orders_by_first_running_time(self):
        log = CaseLog(
            sorted(
                job_events("c", "1", "A", 0) + job_events("c", "2", "B", 60),
                key=lambda e: (e.case_id, e.timestamp, e.job_id),
            )
        )
        traces = project_case_traces(log)
        assert [s.activity for s in traces[0].steps] == ["A", "B"]

    def test_ties_break_by_job_id(self):
        log = CaseLog(
            sorted(
                job_events("c", "2", "B", 0) + job_events("c", "10", "A", 0),
                key=lambda e: (e.case_id, e.timestamp, e.job_id),
            )
        )
        traces = project_case_traces(log)
        assert [s.activity for s in traces[0].steps] == ["A", "B"]

    def test_job_below_milestone_dropped(self):
        events = [case_event("c", "1", "A", PENDING, EventKind.CREATED, 0)]
        events += job_events("c", "2", "B", 30)
        traces = project_case_traces(CaseLog(events))
        assert [s.activity for s in traces[0].steps] == ["B"]

    def test_pending_milestone_keeps_all(self):
        events = [case_event("c", "1", "A", PENDING, EventKind.CREATED, 0)]
        events += job_events("c", "2", "B", 30)
        traces = project_case_traces(CaseLog(events), milestone=PENDING)
        assert len(traces[0].steps) == 2

    @pytest.mark.parametrize(
        "name,meeting",
        [
            ("pending", {"PD", "R", "S", "CG", "CD"}),
            ("running", {"R", "S", "CG", "CD"}),
            ("completed", {"CD"}),
        ],
    )
    def test_codes_that_meet_each_milestone(self, name, meeting):
        # One job per code, named after it; F, CA, TO and pd meet no milestone.
        codes = ["PD", "R", "S", "CG", "CD", "F", "CA", "TO", "pd"]
        events = [
            case_event("c", str(i), code, code, EventKind.STATE_CHANGED, i)
            for i, code in enumerate(codes)
        ]
        traces = project_case_traces(CaseLog(events), milestone=MILESTONES[name])
        assert {s.activity for s in traces[0].steps} == meeting

    def test_never_reached_warning_names_the_milestone(self, caplog):
        events = [case_event("c", "1", "A", PENDING, EventKind.CREATED, 0)]
        events += job_events("c", "2", "B", 30)
        with caplog.at_level("WARNING", logger="hpcmine.discovery"):
            project_case_traces(CaseLog(events))
        assert [r.getMessage() for r in caplog.records] == [
            "1 job(s) never reached milestone running; dropped"
        ]

    def test_fig1_trace_shape(self):
        result = simulator.simulate(simulator.load_bundled_scenario("fig1_explicit"))
        events = CaseLog(replay_events(result)[0])
        graph = build_dependency_graph(events, extract_first_dependencies(events))
        log = apply_cases(events, assign_cases_explicit(graph))
        traces = project_case_traces(log)
        activities = [s.activity for s in traces[0].steps]
        assert activities[0] == "pre-processing.sh"
        assert activities[-1] == "merge.sh"
        assert sorted(activities[1:3]) == ["parallel-job1.sh", "parallel-job2.sh"]


# Events of a few jobs in a few cases, in any order, on a coarse clock so
# that times tie; each event names its own activity, so the test sees which
# of two tied events anchors a job.
_unsorted_events = st.lists(
    st.builds(
        case_event,
        st.sampled_from(["c1", "c2", "c3"]),
        st.sampled_from(["1", "2", "10", "x"]),
        st.sampled_from(["A", "B", "C"]),
        st.sampled_from(["PD", "R", "S", "CG", "CD", "F", "pd"]),
        st.sampled_from(list(EventKind)),
        st.integers(min_value=0, max_value=4).map(lambda i: 30 * i),
    ),
    max_size=40,
)


class TestOnePassProjection:
    @settings(max_examples=300, deadline=None)
    @given(_unsorted_events, st.sampled_from(sorted(MILESTONES)))
    def test_matches_grouped_and_sorted_reference(self, events, name):
        milestone = MILESTONES[name]
        expected, dropped = spec.traces(events, milestone)
        with logged("hpcmine.discovery") as messages:
            traces = project_case_traces(CaseLog(events), milestone=milestone)
        assert traces == expected
        warning = f"{dropped} job(s) never reached milestone {name}; dropped"
        assert messages == ([warning] if dropped else [])


class TestDiscoverDfg:
    def test_two_identical_traces(self):
        dfg = discover_dfg([trace(("A", 0), ("B", 60)), trace(("A", 120), ("B", 300))])
        assert dfg.edges[("A", "B")].frequency == 2
        assert dfg.start_activities == {"A": 2}
        assert dfg.end_activities == {"B": 2}
        assert dfg.edges[("A", "B")].durations == [60.0, 180.0]

    def test_chain_has_k_minus_1_edges(self):
        steps = [(f"cmd{i}", i * 30) for i in range(6)]
        dfg = discover_dfg([trace(*steps)])
        assert len(dfg.edges) == 5
        assert all(stats.frequency == 1 for stats in dfg.edges.values())

    def test_conservation(self):
        rng = random.Random(11)
        for _ in range(25):
            log = random_case_log(rng)
            traces = project_case_traces(log)
            dfg = discover_dfg(traces)
            nonempty = [t for t in traces if t.steps]
            assert sum(s.frequency for s in dfg.edges.values()) == sum(
                len(t.steps) - 1 for t in nonempty
            )
            assert sum(dfg.start_activities.values()) == len(nonempty)
            assert sum(dfg.end_activities.values()) == len(nonempty)

    def test_durations_nonnegative(self):
        log = random_case_log(random.Random(13))
        dfg = discover_dfg(project_case_traces(log))
        assert all(d >= 0 for s in dfg.edges.values() for d in s.durations)

    def test_completion_start_durations(self):
        steps = (
            TraceStep("A", T0, completed_at=T0 + timedelta(seconds=90)),
            TraceStep("B", T0 + timedelta(seconds=120)),
        )
        dfg = discover_dfg([Trace("c", steps)], duration_mode=DurationMode.COMPLETION_START)
        assert dfg.edges[("A", "B")].durations == [30.0]


class TestEdgeStats:
    # Finite floats whose sums stay finite: near the float limit both sides
    # raise OverflowError alike.
    @given(st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=1))
    def test_mean_and_median_equal_the_statistics_module(self, durations):
        stats = EdgeStats()
        stats.durations += durations
        assert stats.mean == statistics.fmean(durations)
        assert stats.median == statistics.median(durations)
        assert stats.durations == durations


class TestDetectParallel:
    def test_both_directions(self):
        dfg = discover_dfg([trace(("A", 0), ("B", 30)), trace(("B", 100), ("A", 130))])
        assert detect_parallel(dfg) == {("A", "B")}

    def test_strict_chain_empty(self):
        dfg = discover_dfg([trace(("A", 0), ("B", 30), ("C", 60))])
        assert detect_parallel(dfg) == frozenset()

    def test_symmetry(self):
        dfg = discover_dfg([trace(("A", 0), ("B", 30)), trace(("B", 100), ("A", 130))])
        pairs = detect_parallel(dfg)
        assert all(a < b for a, b in pairs)


class TestDegeneracies:
    def test_explicit_without_dependencies_gives_edgeless_model(self):
        jobs = tuple(
            simulator.SimJob(str(i), "acc", "g", f"/u/s{i}.sh", 30) for i in range(1, 5)
        )
        result = simulator.simulate(simulator.ScenarioSpec(jobs=jobs))
        events = CaseLog(replay_events(result)[0])
        graph = build_dependency_graph(events, extract_first_dependencies(events))
        assignment = assign_cases_explicit(graph)
        assert len(set(assignment.cases.values())) == 4
        log = apply_cases(events, assignment)
        dfg = discover_dfg(project_case_traces(log))
        assert dfg.edges == {}

    def test_implicit_single_account_group_gives_one_case(self):
        result = simulator.simulate(simulator.load_bundled_scenario("fig1_manual"))
        events = CaseLog(replay_events(result)[0])
        assignment = assign_cases_implicit(events)
        assert set(assignment.cases.values()) == {"acc1-proj9"}
        log = apply_cases(events, assignment)
        traces = project_case_traces(log)
        assert len(traces) == 1
        assert len(traces[0].steps) == 4


class TestExportDot:
    def test_empty_model_skeleton(self):
        dot = export_dot(Dfg())
        assert dot == "digraph dfg {\n}\n"

    def test_single_edge_label(self):
        dfg = discover_dfg([trace(("A", 0), ("B", 300)), trace(("A", 400), ("B", 700))])
        dot = export_dot(dfg)
        assert 'label="2 / 5m0s / 5m0s"' in dot

    def test_deterministic_output(self):
        log = random_case_log(random.Random(23))
        dfg = discover_dfg(project_case_traces(log))
        assert export_dot(dfg) == export_dot(dfg)

    def test_min_edge_freq_filters(self):
        dfg = discover_dfg(
            [trace(("A", 0), ("B", 30)), trace(("A", 60), ("B", 90)), trace(("A", 120), ("C", 150))]
        )
        dot = export_dot(dfg, min_edge_freq=2)
        assert '"A" -> "B"' in dot
        assert '"A" -> "C"' not in dot

    def test_longest_mean_edge_has_max_penwidth(self):
        dfg = discover_dfg([trace(("A", 0), ("B", 600), ("C", 630))])
        dot = export_dot(dfg)
        a_b = next(line for line in dot.splitlines() if '"A" -> "B"' in line)
        b_c = next(line for line in dot.splitlines() if '"B" -> "C"' in line)
        assert "penwidth=5.00" in a_b
        assert "penwidth=5.00" not in b_c

    def test_longest_mean_edge_under_a_second_has_max_penwidth(self):
        # A→B gaps of 0 s and 1 s: the longest mean edge is 0.5 s long.
        dfg = discover_dfg([trace(("A", 0), ("B", 0)), trace(("A", 10), ("B", 11))])
        assert '  "A" -> "B" [label="2 / 0s / 0s", penwidth=5.00];' in export_dot(dfg)

    def test_parallel_pairs_dashed(self):
        dfg = discover_dfg([trace(("A", 0), ("B", 30)), trace(("B", 100), ("A", 130))])
        dot = export_dot(dfg, detect_parallel(dfg))
        assert "style=dashed" in dot

    def test_hostile_names_are_escaped(self):
        dfg = discover_dfg([trace(('a"b', 0), ("c\\", 30))])
        dot = export_dot(dfg)
        assert '  "a\\"b" [label="a\\"b (1)"];' in dot
        assert '  "a\\"b" -> "c\\\\" [' in dot
        outside_strings = re.sub(r'"(?:[^"\\]|\\.)*"', "", dot)
        assert '"' not in outside_strings and "\\" not in outside_strings

    def test_node_labels_carry_frequency(self):
        dfg = discover_dfg([trace(("A", 0), ("B", 30)), trace(("A", 60), ("B", 90))])
        assert '"A" [label="A (2)"]' in export_dot(dfg)


class TestHumanizeDuration:
    @pytest.mark.parametrize(
        "seconds,expected",
        [(0, "0s"), (45, "45s"), (300, "5m0s"), (3725, "1h2m5s"), (59.6, "1m0s")],
    )
    def test_examples(self, seconds, expected):
        assert humanize_duration(seconds) == expected
