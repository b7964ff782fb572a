"""Peak memory of ``hpcmine pipeline`` on scaled benchmark inputs.

Generates, with seed ``SEED``, the ``manual_history`` input of
``perfbench/workloads.py`` with ``MANUAL_CHAINS`` scaled x1, x4 and x16, and
the ``dag_backlog`` input with ``DAG_WAVES`` scaled x1 and x4, one size at a
time, and runs ``hpcmine pipeline`` on each with the workload's strategy.
Every run is a fresh process started by ``perfbench/launcher.py``, a small
parent started before any input is generated, so that its ``ru_maxrss``,
read with ``os.wait4``, is its own (see there). Each size is run twice: once
as is, for its peak RSS, and once with ``tracemalloc`` on from the start,
for the peak of the Python heap it allocates, which does not move with
allocation layout as RSS does. Tracing takes memory of its own, so the two
figures come from two runs of the same input. Every run's output files are
checked with ``perfbench/check.py``'s ``check_pipeline`` against the
generator's ground truth, and the script exits with status 1 on a mismatch.

For each size one invocation records the jobs and events, one run's peak
RSS and traced heap peak in MB, and the bytes per event that an event log
of the run's events holds beyond their field values, which it shares with
the events it was made from. With ``--out`` the record is stored under
``--label`` in that JSON file, next to the records of other labels (say, of
the parent commit); the runs stored under the label before are kept and
pooled with the new one, with their medians and the heap peak per event,
so that the runs of two commits can alternate, one invocation at a time.
``--quick`` runs manual x4 and dag x4 only: a check, not a measurement.

Usage, from the repository root (standard library only):
  python3 tools/memory_sweep.py [--quick] [--label NAME] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from check import check_pipeline  # noqa: E402

SEED = 1
SIZES = [
    ("manual_history", 1),
    ("manual_history", 4),
    ("manual_history", 16),
    ("dag_backlog", 1),
    ("dag_backlog", 4),
]
QUICK = [("manual_history", 4), ("dag_backlog", 4)]
# Runs the pipeline with the Python heap traced from the start, then reads
# its events.csv back as a log and makes a second log of fresh copies of
# those events; the last line it prints is the pipeline's traced peak and
# what the log holds beyond the events' field values, in bytes.
TRACED = (
    "import sys, tracemalloc; from itertools import repeat; tracemalloc.start(); "
    "from hpcmine import cli, eventlog; "
    "rc = cli.main(sys.argv[1:]); peak = tracemalloc.get_traced_memory()[1]; "
    "events = eventlog.read_events_csv(sys.argv[-1] + '/events.csv'); "
    "before = tracemalloc.get_traced_memory()[0]; "
    "log = eventlog.CaseLog(list(map(tuple.__new__, repeat(eventlog.JobEvent), events))); "
    "print(peak, tracemalloc.get_traced_memory()[0] - before); sys.exit(rc)"
)


def generated(workload: str, factor: int) -> workloads.Generated:
    saved = workloads.MANUAL_CHAINS, workloads.DAG_WAVES
    workloads.MANUAL_CHAINS *= factor
    workloads.DAG_WAVES *= factor
    try:
        return workloads.GENERATORS[workload](SEED)
    finally:
        workloads.MANUAL_CHAINS, workloads.DAG_WAVES = saved


class Launcher:
    """``perfbench/launcher.py``, fed one request per run."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )

    def run(self, argv: list[str], stdout: Path, stderr: Path) -> dict:
        request = {"argv": [sys.executable, *argv], "stdout": str(stdout), "stderr": str(stderr)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        return json.loads(self._proc.stdout.readline())

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()


def measure(launcher: Launcher, workload: str, factor: int, work: Path) -> tuple[dict, list[str]]:
    """One size's record, and the problems found in its outputs."""
    inputs = workloads.write_inputs(generated(workload, factor), work / "inputs")
    truth = inputs.truth
    args = ["pipeline", "--replay", str(inputs.replay), "--strategy", truth.strategy, "-o"]
    runs, problems = {}, []
    for name, argv in [("plain", ["-m", "hpcmine.cli"]), ("traced", ["-c", TRACED])]:
        out = work / name
        reply = launcher.run([*argv, *args, str(out)], work / f"{name}.out", work / f"{name}.err")
        if reply["returncode"] != 0:
            problems.append(f"{name} run exited with {reply['returncode']}")
            continue
        problems += [f"{name} run: {problem}" for problem in check_pipeline(out, truth)]
        runs[name] = reply
    record = {"jobs": truth.counts["jobs"], "events": len(truth.events)}
    if len(runs) == 2:
        peak, log = map(int, (work / "traced.out").read_text().split()[-2:])
        record["runs_peak_rss_mb"] = [round(runs["plain"]["maxrss_kb"] / 1024, 2)]
        record["runs_heap_peak_mb"] = [round(peak / 2**20, 3)]
        record["runs_log_bytes_per_event"] = [round(log / len(truth.events), 1)]
    return record, problems


def merged(stored: dict, record: dict) -> dict:
    """``record`` with the runs of ``stored`` (an earlier record of the same
    label) put first, and the medians over all runs."""
    for name, entry in record.items():
        before = stored.get(name, {})
        for key in ("runs_peak_rss_mb", "runs_heap_peak_mb", "runs_log_bytes_per_event"):
            entry[key] = before.get(key, []) + entry.get(key, [])
            if entry[key]:
                entry[key.replace("runs_", "")] = round(statistics.median(entry[key]), 3)
        if entry.get("heap_peak_mb"):
            entry["heap_bytes_per_event"] = round(entry["heap_peak_mb"] * 2**20 / entry["events"], 1)
    return record


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--label", default="change")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    launcher = Launcher()  # before any input is generated: see its docstring
    record, failed = {}, []
    try:
        for workload, factor in QUICK if args.quick else SIZES:
            name = f"{workload} x{factor}"
            work = Path(tempfile.mkdtemp(prefix="memory_sweep_"))
            try:
                record[name], problems = measure(launcher, workload, factor, work)
            finally:
                shutil.rmtree(work)
            failed += [f"{name}: {problem}" for problem in problems]
            print(name, record[name], file=sys.stderr)
    finally:
        launcher.close()
    for problem in failed:
        print(problem, file=sys.stderr)
    if args.out:
        path = Path(args.out)
        stored = json.loads(path.read_text()) if path.exists() else {}
        stored.update(
            what=__doc__.split("\n\n")[0],
            settings={"seed": SEED},
            machine={
                "python": platform.python_version(),
                "cpus": os.cpu_count(),
                "system": platform.platform(),
            },
        )
        results = stored.setdefault("results", {})
        results[args.label] = merged(results.get(args.label, {}), record)
        path.write_text(json.dumps(stored, indent=2) + "\n")
    else:
        print(json.dumps(merged({}, record), indent=2))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
