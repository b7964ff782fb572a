"""Golden artifacts of the bundled scenarios.

Each bundled scenario is simulated, then mined under both correlation
strategies along two routes: ``hpcmine pipeline``, and the separate
``observe``, ``correlate``, ``discover --stats-out`` and ``stats``
commands. Every file both routes write, and their standard output and
standard error, must equal the committed files under ``tests/golden/``
byte for byte. The simulator's snapshot stream and oracle are pinned the
same way.

Regenerate the goldens, only for an intended output change, with:
  PYTHONPATH=src python tests/test_golden.py
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import hpcmine
from hpcmine import eventlog
from hpcmine.cli import main

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = ["fig1_explicit", "fig1_manual", "two_chains", "fig8_parallel"]
STRATEGIES = ["explicit", "implicit"]
ARTIFACTS = ["events.csv", "cases.csv", "dfg.dot", "edges.csv"]


def hpcmine_cli(*args) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, so its logging reaches stderr."""
    paths = [str(Path(hpcmine.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, "-m", "hpcmine.cli", *map(str, args)],
        capture_output=True,
        env=env,
        check=True,
    )


def simulated(scenario: str, out: Path) -> dict[str, bytes]:
    assert main(["simulate", scenario, "-o", str(out)]) == 0
    return simulation_files(out)


def simulation_files(out: Path) -> dict[str, bytes]:
    """The snapshot stream and oracle a simulate run wrote into ``out``."""
    snapshots = b"".join(
        f"# {path.name}\n".encode() + path.read_bytes()
        for path in sorted((out / "snapshots").iterdir())
    )
    return {
        "snapshots.txt": snapshots,
        "oracle_events.csv": (out / "oracle_events.csv").read_bytes(),
        "true_cases.csv": (out / "true_cases.csv").read_bytes(),
    }


def outputs(out: Path, stdout: bytes, stderr: bytes) -> dict[str, bytes]:
    files = {name: (out / name).read_bytes() for name in ARTIFACTS}
    return {**files, "stdout.txt": stdout, "stderr.txt": stderr}


def pipeline_route(replay: Path, strategy: str, out: Path) -> dict[str, bytes]:
    done = hpcmine_cli("pipeline", "--replay", replay, "--strategy", strategy, "-o", out)
    return outputs(out, done.stdout, done.stderr)


def stage_route(replay: Path, strategy: str, out: Path) -> dict[str, bytes]:
    out.mkdir(parents=True)
    events, cases = out / "events.csv", out / "cases.csv"
    runs = [
        hpcmine_cli("observe", "--replay", replay, "-o", events),
        hpcmine_cli("correlate", events, "--strategy", strategy, "-o", cases),
        hpcmine_cli("discover", cases, "-o", out / "dfg.dot", "--stats-out", out / "edges.csv"),
        hpcmine_cli("stats", cases),
    ]
    return outputs(
        out, b"".join(run.stdout for run in runs), b"".join(run.stderr for run in runs)
    )


def assert_golden(directory: Path, files: dict[str, bytes]) -> None:
    differing = [name for name, data in files.items() if (directory / name).read_bytes() != data]
    assert not differing, f"{directory.relative_to(GOLDEN)}: {differing} differ"


@pytest.fixture(scope="module", params=SCENARIOS)
def scenario(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param)
    return request.param, out / "snapshots", simulated(request.param, out)


def test_simulate(scenario):
    name, _, files = scenario
    assert_golden(GOLDEN / name, files)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("route", [pipeline_route, stage_route], ids=["pipeline", "stages"])
def test_route(scenario, strategy, route, tmp_path):
    name, replay, _ = scenario
    assert_golden(GOLDEN / name / strategy, route(replay, strategy, tmp_path / "out"))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_pipeline_reads_nothing_back(scenario, strategy, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("pipeline read back a file it wrote")

    monkeypatch.setattr(eventlog, "read_csv", refuse)
    name, replay, _ = scenario
    out = tmp_path / "out"
    assert main(["pipeline", "--replay", str(replay), "--strategy", strategy, "-o", str(out)]) == 0
    files = outputs(out, capsys.readouterr().out.encode(), b"")
    del files["stderr.txt"]  # logging reaches stderr only in a fresh interpreter
    assert_golden(GOLDEN / name / strategy, files)


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name in SCENARIOS:
            sim = Path(tmp) / name
            goldens = {GOLDEN / name: simulated(name, sim)}
            for strategy in STRATEGIES:
                files = pipeline_route(sim / "snapshots", strategy, sim / strategy)
                goldens[GOLDEN / name / strategy] = files
            for directory, files in goldens.items():
                directory.mkdir(parents=True, exist_ok=True)
                for file_name, data in files.items():
                    (directory / file_name).write_bytes(data)


if __name__ == "__main__":
    regenerate()
