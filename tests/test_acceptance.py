"""End-to-end acceptance checks. Each test prints one PASS line on success."""

import io
import random
import time

from conftest import bundled_scenario_names, random_case_log, random_scenario, replay_events
from hpcmine import simulator
from hpcmine.cli import main
from hpcmine.correlation import (
    DependencyGraph,
    apply_cases,
    assign_cases_explicit,
    assign_cases_implicit,
    build_dependency_graph,
    extract_first_dependencies,
)
from hpcmine.discovery import (
    detect_parallel,
    discover_dfg,
    export_dot,
    project_case_traces,
)
from hpcmine.eventlog import read_csv, write_csv
from hpcmine.snapshots import PENDING, parse_snapshot


def _ok(n, text):
    print(f"PASS criterion {n}: {text}")


def fig1_case_log():
    result = simulator.simulate(simulator.load_bundled_scenario("fig1_explicit"))
    events, _ = replay_events(result)
    graph = build_dependency_graph(events, extract_first_dependencies(events))
    return apply_cases(events, assign_cases_explicit(graph)), result


def test_criterion_1_explicit_case_id_fidelity():
    start = time.monotonic()
    log, _ = fig1_case_log()
    case_ids = {e.case_id for e in log.events}
    assert case_ids == {"JID4321"}
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _ok(1, f'four-job chain correlates to single case "JID4321" in {elapsed:.2f}s')


def test_criterion_2_dependency_visibility_decay():
    result = simulator.simulate(simulator.load_bundled_scenario("fig1_explicit"))
    sizes = []
    for at, text in result.snapshots:
        rows = parse_snapshot(text, at)
        present = {r.job_id for r in rows}
        merge = next((r for r in rows if r.job_id == "4"), None)
        if merge is None:
            continue
        if merge.state != PENDING:
            assert merge.dependency_raw == "(null)"
            continue
        if merge.dependency_raw == "(null)":
            listed = []
        else:
            assert merge.dependency_raw.startswith("afterok:")
            listed = merge.dependency_raw.split(":")[1:]
        # Only declared, still-uncompleted predecessors may be listed.
        assert set(listed) <= {"2", "3"}
        for dep in listed:
            assert dep in present
        sizes.append(len(listed))
    assert sizes[0] == 2
    assert sizes == sorted(sizes, reverse=True)
    _ok(2, "merge job's dependency column shrinks monotonically while pending")


def test_criterion_3_observer_oracle_equivalence():
    start = time.monotonic()
    specs = [simulator.load_bundled_scenario(n) for n in bundled_scenario_names()]
    specs += [random_scenario(seed, max_jobs=20) for seed in range(100)]
    for spec in specs:
        result = simulator.simulate(spec)
        events, _ = replay_events(result)
        assert events == result.oracle.events
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _ok(3, f"{len(specs)} scenarios reproduce their oracle event streams in {elapsed:.1f}s")


def test_criterion_4_explicit_partition_equals_union_find():
    start = time.monotonic()
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(1, 50)
        vertices = [str(i) for i in range(n)]
        graph = DependencyGraph()
        graph.vertices |= set(vertices)
        parent = {v: v for v in vertices}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for _ in range(rng.randint(0, n)):
            if n < 2:
                break
            a, b = rng.sample(vertices, 2)
            graph.add_edge(a, b)
            root_a, root_b = find(a), find(b)
            if root_a != root_b:
                parent[root_a] = root_b
        assignment = assign_cases_explicit(graph)
        roots = {v: find(v) for v in vertices}
        partition_by_case = {}
        for v in vertices:
            partition_by_case.setdefault(assignment.cases[v], set()).add(v)
        partition_by_root = {}
        for v in vertices:
            partition_by_root.setdefault(roots[v], set()).add(v)
        assert sorted(map(sorted, partition_by_case.values())) == sorted(
            map(sorted, partition_by_root.values())
        )
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _ok(4, f"1000 random graphs match the union-find partition in {elapsed:.1f}s")


def test_criterion_5_parallel_pair_detection():
    result = simulator.simulate(simulator.load_bundled_scenario("fig8_parallel"))
    events, _ = replay_events(result)
    log = apply_cases(events, assign_cases_implicit(events))
    dfg = discover_dfg(project_case_traces(log))
    parallel = detect_parallel(dfg)
    assert parallel == {("Parallel-job1", "Parallel-job2")}
    _ok(5, "implicit correlation discovers exactly the one parallel activity pair")


def test_criterion_6_degeneracies():
    # Explicit strategy without declared dependencies: one case per job,
    # hence singleton traces and an edgeless model.
    result = simulator.simulate(simulator.load_bundled_scenario("fig1_manual"))
    events, _ = replay_events(result)
    graph = build_dependency_graph(events, extract_first_dependencies(events))
    explicit = assign_cases_explicit(graph)
    assert len(set(explicit.cases.values())) == len(explicit.cases) == 4
    log = apply_cases(events, explicit)
    dfg = discover_dfg(project_case_traces(log))
    assert dfg.edges == {}
    # Implicit strategy over a single account-group: exactly one case.
    implicit = assign_cases_implicit(events)
    assert len(set(implicit.cases.values())) == 1
    _ok(6, "explicit/implicit strategies degenerate to per-job and single-case logs")


def test_criterion_7_dfg_conservation():
    rng = random.Random(7)
    for _ in range(500):
        log = random_case_log(rng)
        traces = project_case_traces(log)
        dfg = discover_dfg(traces)
        nonempty = [t for t in traces if t.steps]
        assert sum(s.frequency for s in dfg.edges.values()) == sum(
            len(t.steps) - 1 for t in nonempty
        )
        assert sum(dfg.start_activities.values()) == len(nonempty)
        assert sum(dfg.end_activities.values()) == len(nonempty)
    _ok(7, "edge/start/end conservation holds on 500 random logs")


def test_criterion_8_bottleneck_annotation():
    start = time.monotonic()
    base = simulator.load_bundled_scenario("fig1_explicit")
    jobs = tuple(
        job._replace(duration=600 if job.job_id == "1" else 60) for job in base.jobs
    )
    result = simulator.simulate(base._replace(jobs=jobs))
    events, _ = replay_events(result)
    graph = build_dependency_graph(events, extract_first_dependencies(events))
    log = apply_cases(events, assign_cases_explicit(graph))
    dfg = discover_dfg(project_case_traces(log))
    bottleneck = max(dfg.edges.items(), key=lambda item: item[1].mean)[0]
    assert "pre-processing.sh" in bottleneck
    dot = export_dot(dfg)
    edge_lines = [l for l in dot.splitlines() if "->" in l]
    widest = max(edge_lines, key=lambda l: float(l.split("penwidth=")[1].split("]")[0]))
    assert "pre-processing.sh" in widest
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _ok(8, f"10x pre-processing stage dominates the annotated model in {elapsed:.2f}s")


def test_criterion_9_csv_round_trip():
    rng = random.Random(99)
    for _ in range(500):
        log = random_case_log(rng)
        buffer = io.StringIO()
        write_csv(log, buffer)
        buffer.seek(0)
        assert read_csv(buffer).events == log.events
    _ok(9, "read(write(log)) identity holds on 500 random logs with quoting")


def test_criterion_10_stats_block_exact(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert main(["simulate", "fig1_explicit", "-o", str(sim)]) == 0
    events = tmp_path / "events.csv"
    cases = tmp_path / "cases.csv"
    assert main(["observe", "--replay", str(sim / "snapshots"), "-o", str(events)]) == 0
    assert main(["correlate", str(events), "--strategy", "explicit", "-o", str(cases)]) == 0
    capsys.readouterr()
    assert main(["stats", str(cases)]) == 0
    out = capsys.readouterr().out
    label_width = len(
        "Percentage of accounts who submitted jobs with explicit interdependencies"
    )
    expected_rows = [
        ("Number of events", "16"),
        ("Number of unique submitted jobs", "4"),
        ("Number of accounts", "1"),
        ("Percentage of accounts who submitted jobs with explicit interdependencies", "100.00%"),
        ("Percentage of jobs defined with explicit interdependencies", "75.00%"),
        ("Observation window", "2024-01-01T00:00:00Z .. 2024-01-01T00:10:30Z"),
    ]
    expected = "\n".join(f"{label.ljust(label_width)}  {value}" for label, value in expected_rows)
    assert out == expected + "\n"
    _ok(10, "stats block matches the hand-derived four-job oracle exactly")
