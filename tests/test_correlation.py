import hashlib
import logging
import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spec
from conftest import random_case_log, replay_events
from hpcmine import correlation, simulator
from hpcmine.correlation import (
    _component_case_id,
    MAX_CASE_ID_LENGTH,
    CaseAssignment,
    DependencyGraph,
    UnassignedJob,
    apply_cases,
    assign_cases_explicit,
    assign_cases_implicit,
    build_dependency_graph,
    cyclic_jobs,
    extract_first_dependencies,
)
from hpcmine.eventlog import FOLD_BLOCK, CaseLog, write_csv
from hpcmine.observer import EventKind, JobEvent
from hpcmine.snapshots import PENDING
from test_simulator import _assert_true_cases, _specs

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
    events = CaseLog([
        event("1"),
        event("2", dep="afterok:1"),
        event("3", dep="afterok:1"),
        event("4", dep="afterok:2:3"),
    ])
    first_deps = extract_first_dependencies(events)
    return events, first_deps


class TestBuildDependencyGraph:
    def test_diamond_edges(self):
        events, first_deps = fig7_inputs()
        graph = build_dependency_graph(events, first_deps)
        assert graph.vertices == {"1", "2", "3", "4"}
        assert graph.edges == {("1", "2"), ("1", "3"), ("2", "4"), ("3", "4")}

    def test_no_dependencies_yields_isolated_vertices(self):
        events = CaseLog(event(str(i)) for i in range(1, 5))
        graph = build_dependency_graph(events, extract_first_dependencies(events))
        assert len(graph.vertices) == 4
        assert graph.edges == set()

    def test_unobserved_target_becomes_external_placeholder(self):
        events = CaseLog([event("2", dep="afterok:99")])
        graph = build_dependency_graph(events, extract_first_dependencies(events))
        assert graph.vertices == {"2", "99"}
        assert graph.external == {"99"}
        assert graph.edges == set()

    def test_cycle_edge_dropped(self, caplog):
        # Both edges of a 2-cycle are dropped, but they still join one case.
        events = CaseLog([event("1", dep="afterok:2"), event("2", dep="afterok:1")])
        with caplog.at_level(logging.WARNING, logger="hpcmine.correlation"):
            graph = build_dependency_graph(events, extract_first_dependencies(events))
        assert graph.edges == set()
        assert graph.dropped_edges == [("1", "2"), ("2", "1")]
        assert [r.getMessage() for r in caplog.records] == [
            "dependency cycle among ['1', '2']; edges between them dropped"
        ]
        assert set(assign_cases_explicit(graph).cases.values()) == {"JID21"}

    def test_three_edge_cycle_drops_only_closing_edge(self, caplog):
        # 0 -> 1 -> 2 -> 3 -> 1 and 3 -> 4: every edge of the cycle is
        # dropped, whichever edge closed it; the edges into and out of the
        # cycle are kept.
        events = CaseLog([
            event("0"),
            event("1", dep="afterok:0:3"),
            event("2", dep="afterok:1"),
            event("3", dep="afterok:2"),
            event("4", dep="afterok:3"),
        ])
        with caplog.at_level(logging.WARNING, logger="hpcmine.correlation"):
            graph = build_dependency_graph(events, extract_first_dependencies(events))
        assert graph.edges == {("0", "1"), ("3", "4")}
        assert graph.dropped_edges == [("1", "2"), ("2", "3"), ("3", "1")]
        assert [r.getMessage() for r in caplog.records] == [
            "dependency cycle among ['1', '2', '3']; edges between them dropped"
        ]
        assert set(assign_cases_explicit(graph).cases.values()) == {"JID43210"}

    def test_job_between_cycles_reported_downstream_job_not(self, caplog):
        # 1 <-> 2 -> 3 -> 4 <-> 5 -> 6: job 3 sits between the two cycles and
        # is reported; job 6 is only downstream of them and keeps its edge.
        events = CaseLog([
            event("1", dep="afterok:2"),
            event("2", dep="afterok:1"),
            event("3", dep="afterok:2"),
            event("4", dep="afterok:3:5"),
            event("5", dep="afterok:4"),
            event("6", dep="afterok:5"),
        ])
        with caplog.at_level(logging.WARNING, logger="hpcmine.correlation"):
            graph = build_dependency_graph(events, extract_first_dependencies(events))
        assert graph.edges == {("5", "6")}
        assert graph.dropped_edges == [
            ("1", "2"), ("2", "1"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "4"),
        ]
        assert [r.getMessage() for r in caplog.records] == [
            "dependency cycle among ['1', '2', '3', '4', '5']; edges between them dropped"
        ]
        assert set(assign_cases_explicit(graph).cases.values()) == {"JID654321"}

    def test_repeated_edge_kept_once(self, caplog):
        graph = DependencyGraph()
        graph.add_edge("1", "2")
        graph.add_edge("1", "2")
        assert graph.edges == {("1", "2")}
        assert graph.dropped_edges == []
        events = CaseLog([event("1"), event("2", dep="afterok:1:1")])
        with caplog.at_level(logging.WARNING, logger="hpcmine.correlation"):
            graph = build_dependency_graph(events, extract_first_dependencies(events))
        assert graph.edges == {("1", "2")}
        assert graph.dropped_edges == []
        assert caplog.records == []

    def test_two_disjoint_chains(self):
        result = simulator.simulate(simulator.load_bundled_scenario("two_chains"))
        events = CaseLog(replay_events(result)[0])
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
        graph = DependencyGraph()
        graph.vertices.add("42")
        assignment = assign_cases_explicit(graph)
        assert assignment.cases == {"42": "JID42"}

    def test_a_suffixed_id_is_never_taken_twice(self):
        # {1, 4} and {41} both read "JID41", so {41} takes "JID41-2", which is
        # also what {41-2} reads: it takes the next free suffix.
        graph = DependencyGraph()
        graph.add_edge("1", "4")
        graph.vertices |= {"41", "41-2"}
        assert assign_cases_explicit(graph).cases == {
            "1": "JID41", "4": "JID41", "41": "JID41-2", "41-2": "JID41-2-2"
        }

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
            graph = DependencyGraph()
            graph.vertices |= set(vertices)
            for _ in range(rng.randint(0, 2 * n)):
                if n > 1:
                    a, b = rng.sample(vertices, 2)
                    graph.add_edge(a, b)
                    edges.add((a, b))
            cases = assign_cases_explicit(graph).cases
            for a in vertices:
                assert {b for b in vertices if cases[b] == cases[a]} == spec.component(a, edges)

    def test_tied_numeric_ids_order_as_strings(self):
        # "001", "01" and "1" read as one number; members then keep string order.
        for edges in ([("1", "01"), ("01", "001")], [("001", "01"), ("1", "01")]):
            graph = DependencyGraph()
            for a, b in edges:
                graph.add_edge(a, b)
            assert set(assign_cases_explicit(graph).cases.values()) == {"JID001011"}

    def test_only_ascii_digit_ids_are_numeric(self):
        # int() reads "100_1" as 1001; array task ids keep string order
        # after the plain numeric ids instead.
        assert _component_case_id({"100_1", "100_2", "1000", "101"}, False) == (
            "JID1000101100_1100_2"
        )
        # Signs, spaces and non-ASCII digits are not numeric either.
        assert _component_case_id({"+7", " 8", "\u0663", "5"}, False) == (
            "JID5 8+7\u0663"
        )

    def test_id_over_cap_is_hashed(self):
        ordered = ["2" * 31, "1" * 31]
        assert len("JID" + "".join(ordered)) == MAX_CASE_ID_LENGTH + 1
        digest = hashlib.sha256(",".join(ordered).encode()).hexdigest()[:16]
        assert _component_case_id(set(ordered), False) == f"JID{digest}"
        assert _component_case_id(set(ordered), True) == f"JID{digest}"

    def test_id_at_cap_is_kept(self):
        ordered = ["2" * 31, "1" * 30]
        assert _component_case_id(set(ordered), False) == "JID" + "".join(ordered)
        assert len(_component_case_id(set(ordered), False)) == MAX_CASE_ID_LENGTH

    def test_long_chain_cases_csv_stays_small(self, tmp_path):
        n = 4000
        events = CaseLog([event("1")])
        events.extend(event(str(i), dep=f"afterok:{i - 1}", offset=i) for i in range(2, n + 1))
        graph = build_dependency_graph(events, extract_first_dependencies(events))
        assignment = assign_cases_explicit(graph)
        assert len(set(assignment.cases.values())) == 1
        path = tmp_path / "cases.csv"
        assert write_csv(apply_cases(events, assignment), path) == n
        assert path.stat().st_size < 1_000_000


class TestReverseOrderChain:
    # Dependents listed before their targets, as when squeue sorts a whole
    # workflow its own way within one poll. Each build runs the shared cycle
    # routine once, whatever the order.

    @staticmethod
    def _build_counted(monkeypatch, events):
        calls = []

        def counted(edges):
            calls.append(None)
            return cyclic_jobs(edges)

        monkeypatch.setattr(correlation, "cyclic_jobs", counted)
        log = CaseLog(events)
        graph = build_dependency_graph(log, extract_first_dependencies(log))
        assert len(calls) == 1
        return graph

    def test_builds_without_reachability_search(self, monkeypatch):
        n = 4000
        events = [event(str(i), dep=f"afterok:{i - 1}") for i in range(n, 1, -1)]
        events.append(event("1"))
        graph = self._build_counted(monkeypatch, events)
        assert len(graph.edges) == n - 1
        assert len(set(assign_cases_explicit(graph).cases.values())) == 1

    def test_fan_in_dag(self, monkeypatch):
        # Each job depends on its two predecessors: every edge after the
        # first few lies inside one weak component.
        n = 4000
        events = [event(str(i), dep=f"afterok:{i - 1}:{i - 2}") for i in range(n, 2, -1)]
        events += [event("2", dep="afterok:1"), event("1")]
        graph = self._build_counted(monkeypatch, events)
        assert len(graph.edges) == 2 * n - 3
        assert graph.dropped_edges == []
        assert len(set(assign_cases_explicit(graph).cases.values())) == 1


# Numeric ids whose concatenations collide ({1, 4} and {41} both read
# "JID41", and "41-2" reads as the second's suffixed id), beside non-numeric ones.
_IDS = ["1", "4", "41", "41-2", "14", "11", "114", "141", "411", "a", "b", "1a", "7_*"]


@st.composite
def _edge_sequences(draw):
    """Edge lists built from short walks over distinct ids, some closed into
    a self-loop, a 2-cycle or a 3-cycle, then shuffled; edges may repeat."""
    edges = []
    for _ in range(draw(st.integers(0, 6))):
        walk = draw(st.lists(st.sampled_from(_IDS), min_size=1, max_size=3, unique=True))
        if draw(st.integers(0, 2)) == 0:
            walk.append(walk[0])
        edges.extend(zip(walk, walk[1:]))
    return draw(st.permutations(edges))


def _events_for(vertices, edges):
    """One creation event per vertex, declaring each vertex's sources in the
    order their edges come; edge (a, b) means b depends on a."""
    sources: dict[str, list[str]] = {}
    for source, target in edges:
        sources.setdefault(target, []).append(source)
    return [
        event(v, dep="afterok:" + ":".join(sources[v]) if v in sources else "(null)")
        for v in vertices
    ]


class TestUnionFindMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(st.sets(st.sampled_from(_IDS)), _edge_sequences())
    @example({"41"}, [("1", "4")])
    @example({"114"}, [("4", "11"), ("41", "1"), ("14", "1"), ("1", "41")])
    def test_graph_and_explicit_cases(self, isolated, edges):
        vertices = sorted(set(isolated).union(*edges))
        events = _events_for(vertices, edges)
        log = CaseLog(events)
        graph = build_dependency_graph(log, extract_first_dependencies(log))
        assert (graph.vertices, graph.edges, graph.external, graph.dropped_edges) == (
            spec.dependency_graph(events)
        )
        assert cyclic_jobs(graph.edges) == set()
        for hash_ids in (False, True):
            assert assign_cases_explicit(graph, hash_ids).cases == (
                spec.explicit_cases(events, hash_ids)
            )

    @settings(max_examples=300, deadline=None)
    @given(_specs())
    def test_true_cases(self, scenario):
        _assert_true_cases(scenario, scenario.true_cases())


class TestOrderInvariance:
    @settings(max_examples=300, deadline=None)
    @given(st.sets(st.sampled_from(_IDS)), _edge_sequences(), st.randoms(use_true_random=False))
    @example(set(), [("1", "4"), ("4", "41"), ("41", "1"), ("41", "a")], random.Random(0))
    def test_shuffled_inputs_give_same_graph_and_cases(self, isolated, edges, rng):
        # Which edge closed a cycle depends on arrival order; which jobs sit
        # on or behind one does not.
        vertices = sorted(set(isolated).union(*edges))
        events = CaseLog(_events_for(vertices, edges))
        graph = build_dependency_graph(events, extract_first_dependencies(events))
        shuffled_events = CaseLog(_events_for(
            rng.sample(vertices, len(vertices)), rng.sample(edges, len(edges))
        ))
        first_deps = list(extract_first_dependencies(shuffled_events).items())
        rng.shuffle(first_deps)
        shuffled = build_dependency_graph(shuffled_events, dict(first_deps))
        assert shuffled.edges == graph.edges
        assert shuffled.dropped_edges == graph.dropped_edges
        for hash_ids in (False, True):
            assert assign_cases_explicit(shuffled, hash_ids).cases == (
                assign_cases_explicit(graph, hash_ids).cases
            )


class TestAssignCasesImplicit:
    def test_account_group_key(self):
        assignment = assign_cases_implicit(CaseLog([event("1", account="thes1331", group="p0")]))
        assert assignment.cases == {"1": "thes1331-p0"}

    def test_distinct_groups_distinct_cases(self):
        events = CaseLog([event("1", group="g1"), event("2", group="g2")])
        assignment = assign_cases_implicit(events)
        assert assignment.cases["1"] != assignment.cases["2"]

    def test_hyphenated_names_never_collide(self):
        # ("p", "a-b") and ("p-a", "b") both read "p-a-b"; the pair that sorts
        # first keeps it, and an empty group is the same case as "default".
        events = [event("1", account="p-a", group="b"), event("2", account="p", group="a-b"),
                  event("3", account="p-a", group=""), event("4", account="p-a", group="default")]
        assert assign_cases_implicit(CaseLog(events)).cases == {
            "1": "p-a-b-2", "2": "p-a-b", "3": "p-a-default", "4": "p-a-default"
        }

    def test_empty_group_reads_default(self):
        assignment = assign_cases_implicit(CaseLog([event("1", account="acc", group="")]))
        assert assignment.cases["1"] == "acc-default"

    def test_invariant_under_event_order(self):
        events = [event(str(i), group=f"g{i % 2}") for i in range(6)]
        shuffled = list(reversed(events))
        assert (
            assign_cases_implicit(CaseLog(events)).cases
            == assign_cases_implicit(CaseLog(shuffled)).cases
        )


class TestApplyCases:
    def test_fig7_events_share_case(self):
        events, first_deps = fig7_inputs()
        assignment = assign_cases_explicit(build_dependency_graph(events, first_deps))
        log = apply_cases(events, assignment)
        assert {e.case_id for e in log} == {"JID4321"}
        assert len(log) == 4

    def test_empty(self):
        log = apply_cases(CaseLog(), assign_cases_implicit(CaseLog()))
        assert list(log) == []

    def test_sorted_by_case_then_time_then_job(self):
        events = CaseLog([event("2", offset=10), event("1", offset=10), event("3", offset=5)])
        log = apply_cases(events, assign_cases_implicit(events))
        keys = [(e.case_id, e.timestamp, e.job_id) for e in log]
        assert keys == sorted(keys)

    def test_unassigned_job_raises(self):
        with pytest.raises(UnassignedJob):
            apply_cases(CaseLog([event("1")]), assign_cases_implicit(CaseLog()))

    def test_unassigned_job_leaves_the_list_unchanged(self):
        events = [event("2"), event("1"), event("3")]
        log = CaseLog(events)
        with pytest.raises(UnassignedJob) as raised:
            apply_cases(log, CaseAssignment({"2": "a", "3": "a"}))
        assert raised.value.job_id == "1"
        assert list(log) == events

    def test_unassigned_job_is_the_first_in_the_given_order(self):
        # Job "x" is first seen past the first block; job "0x", whose id sorts
        # first, before it. Sorted by case, "x" comes first and "0x" last,
        # though the log's job table still holds "0x" first.
        events = [event(str(i % 7)) for i in range(2 * FOLD_BLOCK + 10)]
        events[2] = event("0x")
        events[FOLD_BLOCK + 7] = event("x")
        cases = {str(i): f"c{i}" for i in range(7)}
        log = apply_cases(CaseLog(events), CaseAssignment(cases | {"x": "a", "0x": "z"}))
        given = list(log)
        assert (given[0].job_id, given[-1].job_id) == ("x", "0x")
        with pytest.raises(UnassignedJob) as raised:
            apply_cases(log, CaseAssignment(cases))
        assert raised.value.job_id == "x"
        assert list(log) == given

    def test_a_log_given_is_stamped_and_sorted_in_place(self):
        events = [event("2", offset=10), event("1", offset=10), event("3", offset=5)]
        log = CaseLog(events)
        assert apply_cases(log, CaseAssignment({"1": "b", "2": "a", "3": "b"})) is log
        assert [(e.case_id, e.job_id) for e in log] == [("a", "2"), ("b", "3"), ("b", "1")]
        assert [e.case_id for e in events] == ["", "", ""]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_per_event_stamp_and_key_sort(self, data):
        # Logs across slice boundaries with tied timestamps, events tied on
        # every sort key but their state, and repeated events.
        pool = data.draw(
            st.lists(
                st.builds(
                    lambda job, offset, state: event(job, offset=offset)._replace(state=state),
                    st.sampled_from("12345"),
                    st.sampled_from([0, 0, 30, 60]),
                    st.sampled_from(["PD", "R", "CG", "CD"]),
                ),
                min_size=1,
                max_size=12,
            )
        )
        length = data.draw(st.sampled_from([0, 1, FOLD_BLOCK, FOLD_BLOCK + 1, 600]))
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        events = [rng.choice(pool) for _ in range(length)]
        cases = {job: data.draw(st.sampled_from(["a", "b", "c"])) for job in "12345"}
        expected = spec.case_log(events, cases)
        stamped = list(apply_cases(CaseLog(events), CaseAssignment(cases)))
        assert stamped == expected
        assert {type(e) for e in stamped} <= {JobEvent}

    def test_simulator_chain_case_counts(self):
        result = simulator.simulate(simulator.load_bundled_scenario("two_chains"))
        events = CaseLog(replay_events(result)[0])
        graph = build_dependency_graph(events, extract_first_dependencies(events))
        log = apply_cases(events, assign_cases_explicit(graph))
        per_case = {}
        for e in log:
            per_case[e.case_id] = per_case.get(e.case_id, 0) + 1
        # 4 jobs each emitting created, running, completing, completed.
        assert sorted(per_case.values()) == [16, 16]

    @pytest.mark.parametrize("seed", range(5))
    def test_each_event_equals_replace_with_case_id(self, seed):
        # A field added to JobEvent later must survive the log's columns and stamping.
        rng = random.Random(seed)
        events = [e._replace(case_id="") for e in random_case_log(rng, n_cases=6)]
        rng.shuffle(events)
        cases = {e.job_id: f"c{rng.randint(0, 3)}" for e in events}
        expected = sorted(
            (e._replace(case_id=cases[e.job_id]) for e in events),
            key=lambda e: (e.case_id, e.timestamp, e.job_id),
        )
        log = apply_cases(CaseLog(events), CaseAssignment(cases))
        assert list(log) == expected


class TestExtractFirstDependencies:
    def test_late_marker_maps_to_empty(self):
        assert extract_first_dependencies(CaseLog([event("1", dep="(late)")])) == {}

    def test_same_on_events_and_case_log(self):
        result = simulator.simulate(simulator.load_bundled_scenario("fig1_explicit"))
        events = CaseLog(replay_events(result)[0])
        derived = extract_first_dependencies(events)
        log = apply_cases(events, assign_cases_implicit(events))
        assert extract_first_dependencies(log) == derived
        assert derived["4"] == ("2", "3")
