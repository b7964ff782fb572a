"""Output checks for the hpcmine benchmark.

Each check returns a list of problems; an empty list means the output is
correct. Outputs are read by column name, so a column reorder is not a
failure but a changed value is.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from datetime import datetime
from pathlib import Path

from workloads import TICK_SECONDS, Truth

SIM_LIFECYCLE = [
    ("created", "PD"),
    ("state_changed", "R"),
    ("state_changed", "CG"),
    ("synthetic_completed", "CD"),
]


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _partition(labels: dict[str, str]) -> set[frozenset[str]]:
    groups: dict[str, set[str]] = defaultdict(set)
    for job_id, label in labels.items():
        groups[label].add(job_id)
    return {frozenset(members) for members in groups.values()}


def read_oracle(sim_dir: Path) -> list[tuple[str, str, str, str]]:
    return [
        (r["job_id"], r["event_kind"], r["state"], r["timestamp"])
        for r in _rows(sim_dir / "oracle_events.csv")
    ]


def check_events(path: Path, expected: list[tuple[str, str, str, str]]) -> list[str]:
    """The (job, kind, state, time) projection of an events CSV must match."""
    events = [
        (r["job_id"], r["event_kind"], r["state"], r["timestamp"]) for r in _rows(path)
    ]
    if events == expected:
        return []
    first = next(
        (i for i, pair in enumerate(zip(events, expected)) if pair[0] != pair[1]),
        min(len(events), len(expected)),
    )
    return [
        f"{path.name} differs from the expected stream at row {first + 1}"
        f" ({len(events)} rows, {len(expected)} expected)"
    ]


def check_pipeline(out: Path, truth: Truth) -> list[str]:
    problems = check_events(out / "events.csv", truth.events)
    case_of: dict[str, str] = {}
    for row in _rows(out / "cases.csv"):
        if case_of.setdefault(row["job_id"], row["case_id"]) != row["case_id"]:
            problems.append(f"job {row['job_id']} has more than one case id")
            break
    if truth.exact_case_ids:
        if case_of != truth.cases:
            problems.append("case ids differ from the account-group pairs")
    elif _partition(case_of) != _partition(truth.cases):
        problems.append("explicit cases differ from the declared workflows")

    frequency = sum(int(r["frequency"]) for r in _rows(out / "edges.csv"))
    if frequency != truth.dfg_transitions:
        problems.append(
            f"DFG edge frequencies sum to {frequency}, traces give {truth.dfg_transitions}"
        )
    return problems


def check_counts(counters: dict[str, int], truth: Truth) -> list[str]:
    """Counts a traced run takes that the workload fixes and no change may alter."""
    cases = len(set(truth.cases.values()))
    explicit = truth.strategy == "explicit"
    expected = {
        "snapshots.rows": truth.counts["rows"],
        "snapshots.malformed": 0,
        "observer.events": len(truth.events),
        "correlation.edges": truth.counts["edges"] if explicit else 0,
        "correlation.external": 0,
        "correlation.dropped_edges": 0,
        "correlation.cases": cases,
        "discovery.traces": cases,
        "discovery.dropped_jobs": 0,
    }
    return [
        f"{name} is {counters.get(name, 0)}, expected {value}"
        for name, value in expected.items()
        if counters.get(name, 0) != value
    ]


def check_simulation(sim_dir: Path, truth: Truth) -> list[str]:
    """The simulator's ground truth must describe the scenario it was given."""
    problems = []
    true_cases = {r["job_id"]: r["case_label"] for r in _rows(sim_dir / "true_cases.csv")}
    if _partition(true_cases) != _partition(truth.scenario_cases):
        problems.append("simulator true cases differ from the scenario's workflows")
    oracle = read_oracle(sim_dir)
    lifecycles: dict[str, list[tuple[str, str]]] = defaultdict(list)
    for job_id, kind, state, _ in oracle:
        lifecycles[job_id].append((kind, state))
    if set(lifecycles) != set(truth.scenario_cases):
        problems.append("oracle jobs differ from the scenario's jobs")
    bad = [job_id for job_id, steps in lifecycles.items() if steps != SIM_LIFECYCLE]
    if bad:
        problems.append(f"{len(bad)} job(s) with an unexpected oracle lifecycle, e.g. {bad[0]}")
    times = [_parse_iso(event[3]) for event in oracle]
    if times != sorted(times):
        problems.append("oracle events are not in time order")
    elif times:
        # One snapshot per tick, from the first submission to the last exit.
        ticks = int((times[-1] - times[0]).total_seconds()) // TICK_SECONDS + 1
        snapshots = len(list((sim_dir / "snapshots").glob("snapshot_*.txt")))
        if snapshots != ticks:
            problems.append(f"{snapshots} snapshot files for {ticks} ticks")
    return problems


def _parse_iso(value: str) -> datetime:
    return datetime.strptime(value, "%Y-%m-%dT%H:%M:%SZ")


def same_tree(a: Path, b: Path) -> list[str]:
    """Both directories must hold the same files with the same bytes."""
    names = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    if names != sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file()):
        return [f"{b.name} holds other files than {a.name}"]
    return [f"{name} differs" for name in names if (a / name).read_bytes() != (b / name).read_bytes()]
