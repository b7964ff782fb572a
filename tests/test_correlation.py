import random
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest

from conftest import random_case_log, replay_events
from hpcmine import simulator
from hpcmine.correlation import (
    CaseAssignment,
    DependencyGraph,
    Strategy,
    UnassignedJob,
    apply_cases,
    assign_cases_explicit,
    assign_cases_implicit,
    build_dependency_graph,
    extract_first_dependencies,
)
from hpcmine.observer import EventKind, JobEvent
from hpcmine.snapshots import PENDING

T0 = datetime(2023, 5, 1, tzinfo=timezone.utc)


def event(job_id, account="a", group="g", dep="(null)", kind=EventKind.CREATED, offset=0):
    return JobEvent(
        job_id=job_id,
        account=account,
        group=group,
        activity="run.sh",
        state=PENDING,
        dependency_raw=dep,
        kind=kind,
        timestamp=T0 + timedelta(seconds=offset),
    )


def fig7_inputs():
    events = [
        event("1"),
        event("2", dep="afterok:1"),
        event("3", dep="afterok:1"),
        event("4", dep="afterok:2:3"),
    ]
    first_deps = extract_first_dependencies(events)
    return events, first_deps


class TestBuildDependencyGraph:
    def test_diamond_edges(self):
        events, first_deps = fig7_inputs()
        graph = build_dependency_graph(events, first_deps)
        assert graph.vertices == {"1", "2", "3", "4"}
        assert graph.edges == {("1", "2"), ("1", "3"), ("2", "4"), ("3", "4")}

    def test_no_dependencies_yields_isolated_vertices(self):
        events = [event(str(i)) for i in range(1, 5)]
        graph = build_dependency_graph(events, extract_first_dependencies(events))
        assert len(graph.vertices) == 4
        assert graph.edges == set()

    def test_unobserved_target_becomes_external_placeholder(self):
        events = [event("2", dep="afterok:99")]
        graph = build_dependency_graph(events, extract_first_dependencies(events))
        assert graph.vertices == {"2", "99"}
        assert graph.external == {"99"}
        assert graph.edges == set()

    def test_cycle_edge_dropped(self):
        events = [event("1", dep="afterok:2"), event("2", dep="afterok:1")]
        graph = build_dependency_graph(events, extract_first_dependencies(events))
        assert len(graph.edges) == 1
        assert len(graph.dropped_edges) == 1

    def test_three_edge_cycle_drops_only_closing_edge(self):
        graph = DependencyGraph()
        assert graph.add_edge("1", "2")
        assert graph.add_edge("2", "3")
        assert not graph.add_edge("3", "1")
        assert graph.edges == {("1", "2"), ("2", "3")}
        assert graph.dropped_edges == [("3", "1")]
        assert graph.successors == {"1": ["2"], "2": ["3"]}

    def test_repeated_edge_kept_once(self):
        graph = DependencyGraph()
        assert graph.add_edge("1", "2")
        assert graph.add_edge("1", "2")
        assert graph.edges == {("1", "2")}
        assert graph.successors == {"1": ["2"]}
        assert graph.dropped_edges == []

    def test_two_disjoint_chains(self):
        result = simulator.simulate(simulator.load_bundled_scenario("two_chains"))
        events, _ = replay_events(result)
        graph = build_dependency_graph(events, extract_first_dependencies(events))
        assignment = assign_cases_explicit(graph)
        components = {}
        for job, case in assignment.cases.items():
            components.setdefault(case, set()).add(job)
        assert sorted(len(c) for c in components.values()) == [4, 4]


class TestAssignCasesExplicit:
    def test_diamond_concatenates_descending(self):
        _, first_deps = fig7_inputs()
        graph = build_dependency_graph(fig7_inputs()[0], first_deps)
        assignment = assign_cases_explicit(graph)
        assert set(assignment.cases.values()) == {"JID4321"}

    def test_double_digit_ids_sort_numerically(self):
        graph = DependencyGraph()
        for a, b in [("8", "9"), ("8", "10"), ("9", "11"), ("10", "11")]:
            graph.add_edge(a, b)
        assignment = assign_cases_explicit(graph)
        assert set(assignment.cases.values()) == {"JID111098"}

    def test_singleton_component(self):
        graph = DependencyGraph(vertices={"42"})
        assignment = assign_cases_explicit(graph)
        assert assignment.cases == {"42": "JID42"}

    def test_hashed_ids_are_stable_and_short(self):
        graph = DependencyGraph()
        for i in range(1, 40):
            graph.add_edge(str(i), str(i + 1))
        a = assign_cases_explicit(graph, hash_ids=True)
        b = assign_cases_explicit(graph, hash_ids=True)
        case = next(iter(a.cases.values()))
        assert case.startswith("JID") and len(case) == 19
        assert a.cases == b.cases

    def test_recomputation_is_stable(self):
        events, first_deps = fig7_inputs()
        first = assign_cases_explicit(build_dependency_graph(events, first_deps))
        second = assign_cases_explicit(build_dependency_graph(events, first_deps))
        assert first.cases == second.cases

    def test_partition_matches_union_find_oracle(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 30)
            vertices = [str(i) for i in range(n)]
            edges = set()
            graph = DependencyGraph(vertices=set(vertices))
            parent = {v: v for v in vertices}

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for _ in range(rng.randint(0, 2 * n)):
                a, b = rng.sample(vertices, 2) if n > 1 else (vertices[0], vertices[0])
                if a == b:
                    continue
                if graph.add_edge(a, b):
                    parent[find(a)] = find(b)
                    edges.add((a, b))
            assignment = assign_cases_explicit(graph)
            for a in vertices:
                for b in vertices:
                    assert (assignment.cases[a] == assignment.cases[b]) == (
                        find(a) == find(b)
                    )


class TestAssignCasesImplicit:
    def test_account_group_key(self):
        assignment = assign_cases_implicit([event("1", account="thes1331", group="p0")])
        assert assignment.cases == {"1": "thes1331-p0"}
        assert assignment.strategy == Strategy.IMPLICIT

    def test_distinct_groups_distinct_cases(self):
        events = [event("1", group="g1"), event("2", group="g2")]
        assignment = assign_cases_implicit(events)
        assert assignment.cases["1"] != assignment.cases["2"]

    def test_empty_group_reads_default(self):
        assignment = assign_cases_implicit([event("1", account="acc", group="")])
        assert assignment.cases["1"] == "acc-default"

    def test_invariant_under_event_order(self):
        events = [event(str(i), group=f"g{i % 2}") for i in range(6)]
        shuffled = list(reversed(events))
        assert assign_cases_implicit(events).cases == assign_cases_implicit(shuffled).cases


class TestApplyCases:
    def test_fig7_events_share_case(self):
        events, first_deps = fig7_inputs()
        assignment = assign_cases_explicit(build_dependency_graph(events, first_deps))
        log = apply_cases(events, assignment)
        assert {e.case_id for e in log.events} == {"JID4321"}
        assert len(log.events) == 4

    def test_empty(self):
        log = apply_cases([], assign_cases_implicit([]))
        assert log.events == []

    def test_sorted_by_case_then_time_then_job(self):
        events = [event("2", offset=10), event("1", offset=10), event("3", offset=5)]
        log = apply_cases(events, assign_cases_implicit(events))
        keys = [(e.case_id, e.timestamp, e.job_id) for e in log.events]
        assert keys == sorted(keys)

    def test_unassigned_job_raises(self):
        with pytest.raises(UnassignedJob):
            apply_cases([event("1")], assign_cases_implicit([]))

    def test_simulator_chain_case_counts(self):
        result = simulator.simulate(simulator.load_bundled_scenario("two_chains"))
        events, _ = replay_events(result)
        graph = build_dependency_graph(events, extract_first_dependencies(events))
        log = apply_cases(events, assign_cases_explicit(graph))
        per_case = {}
        for e in log.events:
            per_case[e.case_id] = per_case.get(e.case_id, 0) + 1
        # 4 jobs each emitting created, running, completing, completed.
        assert sorted(per_case.values()) == [16, 16]

    @pytest.mark.parametrize("seed", range(5))
    def test_each_event_equals_replace_with_case_id(self, seed):
        # apply_cases copies events field by field (eventlog.with_case); a
        # field added to JobEvent later must not be dropped by that copy.
        rng = random.Random(seed)
        events = [replace(e, case_id="") for e in random_case_log(rng, n_cases=6)]
        rng.shuffle(events)
        cases = {e.job_id: f"c{rng.randint(0, 3)}" for e in events}
        log = apply_cases(events, CaseAssignment(Strategy.EXPLICIT, cases))
        expected = sorted(
            (replace(e, case_id=cases[e.job_id]) for e in events),
            key=lambda e: (e.case_id, e.timestamp, e.job_id),
        )
        assert log.events == expected


class TestExtractFirstDependencies:
    def test_late_marker_maps_to_empty(self):
        events = [event("1", dep="(late)")]
        assert extract_first_dependencies(events)["1"].is_empty

    def test_same_on_events_and_case_log(self):
        result = simulator.simulate(simulator.load_bundled_scenario("fig1_explicit"))
        events, _ = replay_events(result)
        derived = extract_first_dependencies(events)
        log = apply_cases(events, assign_cases_implicit(events))
        assert extract_first_dependencies(log) == derived
        assert derived["4"].targets() == ["2", "3"]
