"""The benchmark's scripts still run against the library.

``perfbench/traced.py`` mirrors ``hpcmine pipeline`` and ``hpcmine simulate``
through the library's public functions, and ``perfbench/poll.py`` replays a
snapshot directory through ``observer.run_observation``. Each bundled
scenario goes through both, and what they write must equal the committed
goldens under ``tests/golden/`` byte for byte, so a change to the library
that breaks the benchmark fails here. The traced mirror must also count every
good snapshot row and span each snapshot's parse, diff and vanish step once.
"""

import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import hpcmine
from hpcmine.snapshots import SNAPSHOT_HEADER
from test_golden import (
    ARTIFACTS,
    GOLDEN,
    SCENARIOS,
    STRATEGIES,
    assert_golden,
    simulated,
    simulation_files,
)

PERFBENCH = Path(__file__).parents[1] / "perfbench"
SCENARIO_FILES = Path(hpcmine.__file__).parent / "scenarios"


def perfbench_script(script: str, *args) -> subprocess.CompletedProcess:
    """Run a perfbench script in a fresh interpreter; it must exit 0."""
    paths = [str(Path(hpcmine.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / script), *map(str, args)],
        capture_output=True,
        env=env,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done


def good_data_lines(text: str) -> int:
    """Lines with at least six columns that are not the header."""
    return sum(
        1
        for line in text.splitlines()
        if len(tokens := line.split()) >= 6 and tokens[:2] != SNAPSHOT_HEADER.split()[:2]
    )


@pytest.fixture(scope="module", params=SCENARIOS)
def replay(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param)
    simulated(request.param, out)
    return request.param, out / "snapshots"


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_traced_pipeline(replay, strategy, tmp_path):
    name, snapshots = replay
    out = tmp_path / "out"
    done = perfbench_script(
        "traced.py", "pipeline", snapshots, strategy, out, tmp_path / "spans.json"
    )
    files = {artifact: (out / artifact).read_bytes() for artifact in ARTIFACTS}
    assert_golden(GOLDEN / name / strategy, {**files, "stdout.txt": done.stdout})
    trace = json.loads((tmp_path / "spans.json").read_text())
    # The mirror counts rows and spans the per-snapshot steps by wrapping the
    # functions ``run_observation`` looks up in ``hpcmine.observer``; a loop
    # that bypasses those lookups leaves these short.
    texts = [path.read_text() for path in snapshots.iterdir()]
    assert trace["counters"]["snapshots.rows"] == sum(map(good_data_lines, texts))
    spans = Counter(span[0] for span in trace["spans"])
    for step in ("snapshots.parse", "observer.diff", "observer.vanish"):
        assert spans[step] == len(texts), step


def test_traced_simulate(replay, tmp_path):
    name, _ = replay
    scenario = SCENARIO_FILES / f"{name}.scenario"
    out = tmp_path / "out"
    perfbench_script("traced.py", "simulate", scenario, out, tmp_path / "spans.json")
    assert_golden(GOLDEN / name, simulation_files(out))


def test_poll_replay(tmp_path):
    name = "fig1_explicit"
    simulated(name, tmp_path / "sim")
    snapshots = tmp_path / "sim" / "snapshots"
    events, stamps = tmp_path / "events.csv", tmp_path / "poll.json"
    perfbench_script("poll.py", snapshots, events, stamps)
    assert events.read_bytes() == (GOLDEN / name / "explicit" / "events.csv").read_bytes()
    timings = json.loads(stamps.read_text())
    count = len(list(snapshots.iterdir()))
    assert len(timings["absorb"]) == len(timings["probes"]) == count


def test_poll_sweep_pools_its_runs(tmp_path, monkeypatch):
    # The events check itself runs in CI (``tools/poll_sweep.py --quick``); here
    # a 12-poll window checks the record's shape and that invocations pool.
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "tools"))
    import poll_sweep

    monkeypatch.setattr(poll_sweep, "POLLS", 12)
    out = tmp_path / "sweep.json"
    for _ in range(2):
        assert poll_sweep.main(["--quick", "--label", "here", "--out", str(out)]) == 0
    stored = json.loads(out.read_text())
    assert stored["settings"] == {"seed": 1, "polls": 12}
    record = stored["results"]["here"]
    assert sorted(record) == ["dag_backlog x1", "manual_history x1"]
    for orders in record.values():
        assert sorted(orders) == sorted(poll_sweep.ORDERS)
        for entry in orders.values():
            assert entry["polls"] == 12 and len(entry["runs_p50_ms"]) == 2
            assert entry["absorb_p50_ms"] == round(statistics.median(entry["runs_p50_ms"]), 4)
