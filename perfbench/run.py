"""hpcmine benchmark: end-to-end and per-layer metrics on two workloads.

Usage, from the repository root:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs are generated in memory from the seed (``setup_s``:
CPU seconds at the reference speed, median of at least nine generations
spanning at least two seconds) and written once, untimed, into a scratch
directory under ``.perfbench_work/``. Repetitions then run while the
next one fits in ``--seconds``.
Every program run is a fresh process of the source tree's ``hpcmine``
(``PYTHONPATH=src``), started by ``launcher.py`` so that its ``ru_maxrss``
is its own, and its outputs are checked against the generator's ground
truth on every repetition.

Before the first repetition, an untimed ``hpcmine simulate`` on the
workload's scenario file creates the output files that every later simulate
run of the run overwrites, and observing its snapshots must yield the
simulator's oracle.
``--trace 0`` repetition: ``hpcmine pipeline`` (wall time, peak RSS), three
``hpcmine simulate`` runs, each program run between two runs of
``reference.py`` that scale it to the reference speed, and an observation
replay with per-snapshot stamps and probes (``poll.py``).
``--trace 1`` repetition: the untraced ``pipeline`` and ``simulate`` again,
then their traced mirrors (``traced.py``), whose artifacts must be
byte-identical to the untraced ones and whose counts of rows, events, edges,
cases and traces must be the ones the workload fixes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run's settings. Progress and failures go to standard error.
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
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

from check import (
    check_counts,
    check_events,
    check_pipeline,
    check_simulation,
    read_oracle,
    same_tree,
)
from reference import work as reference_work
from workloads import GENERATORS, WORKLOADS, Generated, Inputs, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

# Set-up is repeated at least SETUP_REPEATS times and for at least
# SETUP_CPU_SECONDS, so that even a small workload's median has many samples.
SETUP_REPEATS = 9
SETUP_CPU_SECONDS = 2.0
# Each generation is paired with this much of reference.py's work, run just
# before it in this process; SETUP_REFERENCE_S is the CPU time of that work
# on the machine baseline.json was measured on.
SETUP_REFERENCE_ROWS = 20_000
SETUP_REFERENCE_S = 0.06
# The time, on that machine, of the probe poll.py runs after each snapshot.
PROBE_REFERENCE_MS = 0.4
# Program wall times and span times are reported at the reference speed:
# each run is scaled by REFERENCE_S over the mean wall time of the runs of
# reference.py right before and right after it (Runner.speed_scale). The
# machine's speed drifts by 10-25% from minute to minute, and the reference
# drifts with it (see README.md). REFERENCE_S is the reference's median wall
# time on that machine.
REFERENCE_S = 0.28


@dataclass
class ChildRun:
    wall_s: float
    peak_rss_mb: float
    ok: bool
    stdout: bytes


class Runner:
    """Runs program processes through ``launcher.py`` (see there for why)."""

    def __init__(self) -> None:
        self._launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            cwd=ROOT,
        )
        self.references: list[float] = []

    def run(self, args: list[str], log_dir: Path, label: str) -> ChildRun:
        out_path = log_dir / f"{label}.out"
        err_path = log_dir / f"{label}.err"
        request = {"argv": [sys.executable, *args], "stdout": str(out_path), "stderr": str(err_path)}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = json.loads(self._launcher.stdout.readline())
        ok = reply["returncode"] == 0
        if not ok:
            detail = err_path.read_text(errors="replace").strip().splitlines()[-5:]
            log(f"{label}: exit code {reply['returncode']}", *detail)
        return ChildRun(reply["wall_s"], reply["maxrss_kb"] / 1024, ok, out_path.read_bytes())

    def gauge(self, log_dir: Path) -> None:
        """Time one run of reference.py, which gauges the machine's speed."""
        run = self.run([str(HERE / "reference.py")], log_dir, "reference")
        if not run.ok:
            raise SystemExit("reference.py failed")
        self.references.append(run.wall_s)

    def speed_scale(self, log_dir: Path) -> float:
        """The factor that takes a program run made since the last gauge to
        the reference speed: ``REFERENCE_S`` over the mean wall time of
        reference.py run right before it and, now, right after it."""
        self.gauge(log_dir)
        return REFERENCE_S / statistics.fmean(self.references[-2:])

    def close(self) -> None:
        self._launcher.stdin.close()
        self._launcher.stdout.close()
        self._launcher.wait()


def log(*lines: str) -> None:
    for line in lines:
        print(line, file=sys.stderr)


class Tally:
    """Counts program runs and the ones that failed (exit code or checks)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, run: ChildRun, problems: list[str]) -> bool:
        self.attempted += 1
        if run.ok and not problems:
            return True
        self.failed += 1
        log(*(f"{label}: {p}" for p in problems))
        return False


def checked_run(
    runner: Runner, tally: Tally, args: list[str], rep_dir: Path, label: str, check
) -> ChildRun | None:
    """Run a program, check its outputs with ``check()`` and tally the run.

    Returns the run if it exited 0 and passed the check, else None. A missing
    or unreadable output is a failed check too.
    """
    run = runner.run(args, rep_dir, label)
    problems = []
    if run.ok:
        try:
            problems = check()
        except (OSError, KeyError, ValueError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    return run if tally.record(f"{rep_dir.name} {label}", run, problems) else None


def pipeline_args(inputs: Inputs, out: Path) -> list[str]:
    return [
        "-m", "hpcmine.cli", "pipeline", "--replay", str(inputs.replay),
        "--strategy", inputs.truth.strategy, "-o", str(out),
    ]


def simulate_args(scenario: Path, out: Path) -> list[str]:
    return ["-m", "hpcmine.cli", "simulate", str(scenario), "-o", str(out)]


def clear_oracle(sim_dir: Path) -> None:
    for name in ("oracle_events.csv", "true_cases.csv"):
        (sim_dir / name).unlink(missing_ok=True)


def run_simulate(
    runner: Runner, tally: Tally, inputs: Inputs, sim_out: Path, log_dir: Path, label: str
) -> ChildRun | None:
    """Run and check ``hpcmine simulate`` into ``sim_out``.

    Every simulate run of a benchmark run writes into the same directory,
    overwriting the same snapshot files: creating hundreds of new files
    costs several times the system time of rewriting them, and that cost
    swings with the disk's state rather than with the program. The oracle
    files the check reads are removed first, so a run that failed to write
    them cannot pass on an earlier run's output.
    """
    clear_oracle(sim_out)
    return checked_run(runner, tally, simulate_args(inputs.scenario, sim_out), log_dir, label,
                       lambda: check_simulation(sim_out, inputs.truth))


def warm_simulate(runner: Runner, tally: Tally, inputs: Inputs, work: Path) -> Path:
    """The untimed first ``simulate`` of a run, which creates the files the
    timed runs overwrite. Observing its snapshots must yield its oracle."""
    sim_out = work / "sim"
    if run_simulate(runner, tally, inputs, sim_out, work, "simulate_warm"):
        sim_events = work / "sim_events.csv"
        args = ["-m", "hpcmine.cli", "observe", "--replay", str(sim_out / "snapshots"),
                "-o", str(sim_events)]
        checked_run(runner, tally, args, work, "observe_sim",
                    lambda: check_events(sim_events, read_oracle(sim_out)))
    return sim_out


def timed_setups(
    workload: str, seed: int, repeats: int, cpu_seconds: float, samples: dict[str, list[float]]
) -> Generated:
    """Generate the inputs ``repeats`` times and for ``cpu_seconds``, at least.

    ``setup_s`` is CPU seconds of the generation in memory, at the reference
    speed: each generation is divided by the CPU time of the reference work
    run just before it and multiplied by ``SETUP_REFERENCE_S``. The machine's
    speed drifts from minute to minute, and this pairing cancels the drift.
    Writing the hundreds to thousands of snapshot files is not timed: on a
    shared disk its time swings several-fold from run to run, and it would
    hide the work ``setup_s`` is meant to show.
    """
    while len(samples["setup_cpu_s"]) < repeats or sum(samples["setup_cpu_s"]) < cpu_seconds:
        start = process_time()
        reference_work(SETUP_REFERENCE_ROWS)
        middle = process_time()
        generated = GENERATORS[workload](seed)
        end = process_time()
        samples["setup_cpu_s"].append(end - middle)
        samples["setup_s"].append((end - middle) / (middle - start) * SETUP_REFERENCE_S)
    return generated


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (exclusive method), or the only value."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def repetitions(seconds: float):
    """Count repetitions while the next one, at the mean length so far, fits."""
    start = perf_counter()
    rep = 0
    while True:
        yield rep
        rep += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / rep > seconds:
            return


def measure(
    runner: Runner,
    inputs: Inputs,
    seconds: float,
    work: Path,
    tally: Tally,
    samples: dict[str, list[float]],
) -> None:
    truth = inputs.truth
    sim_out = warm_simulate(runner, tally, inputs, work)
    for rep in repetitions(seconds):
        rep_dir = work / f"rep{rep}"
        rep_dir.mkdir()
        out = rep_dir / "pipeline"
        runner.gauge(rep_dir)
        run = checked_run(runner, tally, pipeline_args(inputs, out), rep_dir, "pipeline",
                          lambda: check_pipeline(out, truth))
        scale = runner.speed_scale(rep_dir)
        if run:
            samples["pipeline_raw_s"].append(run.wall_s)
            samples["pipeline_s"].append(run.wall_s * scale)
            samples["peak_rss_mb"].append(run.peak_rss_mb)

        # simulate_s is the shortest run and the noisiest, so it gets three.
        for _ in range(3):
            run = run_simulate(runner, tally, inputs, sim_out, rep_dir, "simulate")
            scale = runner.speed_scale(rep_dir)
            if run:
                samples["simulate_raw_s"].append(run.wall_s)
                samples["simulate_s"].append(run.wall_s * scale)

        stamps = rep_dir / "absorb.json"
        events = rep_dir / "observe.csv"
        args = [str(HERE / "poll.py"), str(inputs.replay), str(events), str(stamps)]
        if checked_run(runner, tally, args, rep_dir, "observe",
                       lambda: check_events(events, truth.events)):
            stamped = json.loads(stamps.read_text())
            absorb_ms = [s * 1000 for s in stamped["absorb"]]
            samples["poll_raw_p50_ms"].append(statistics.median(absorb_ms))
            # Each absorb time at the probe's speed: over the probe timed
            # right after it, in the same process, times PROBE_REFERENCE_MS.
            paced = [a / (p * 1000) * PROBE_REFERENCE_MS
                     for a, p in zip(absorb_ms, stamped["probes"])]
            samples["poll_p50_ms"].append(statistics.median(paced))
            samples["poll_p95_ms"].append(quantile(paced, 95))
    samples["reps"].append(rep + 1)


def span_totals(spans: list[list], scale: float) -> tuple[dict[str, float], float]:
    """Seconds per span name, and the seconds covered by top-level spans,
    times ``scale``."""
    totals: dict[str, float] = defaultdict(float)
    top = 0.0
    for name, start, end, parent in spans:
        totals[name] += (end - start) * scale
        if parent == -1:
            top += (end - start) * scale
    return totals, top


def pipeline_layers(
    trace: dict, wall: float, untraced_wall: float, scale: float
) -> dict[str, float]:
    """Per-layer metrics of one traced run, its times at the reference speed
    (``scale`` is the run's, ``untraced_wall`` is already scaled).

    Counts that the workload fixes (rows, events, edges, cases, traces) are
    not metrics: ``check_counts`` requires their exact values instead.
    """
    t, top = span_totals(trace["spans"], scale)
    wall *= scale
    c = trace["counters"]
    absorb = trace["absorb"]
    tenth = max(1, len(absorb) // 10)
    edges = c.get("correlation.edges", 0)
    return {
        "snapshots.parse_s": t["snapshots.parse"],
        "observer.read_s": t["observer.read"],
        "observer.diff_s": t["observer.diff"],
        "observer.vanish_s": t["observer.vanish"],
        "observer.state_jobs": c["observer.state_jobs"],
        "observer.late_early_ratio": sum(absorb[-tenth:]) / sum(absorb[:tenth]),
        "observer.sink_s": t["observer.sink"],
        "observer.decode_s": t["observer.decode"],
        "correlation.graph_s": t["correlation.graph"],
        "correlation.graph_us_per_edge": t["correlation.graph"] * 1e6 / edges if edges else 0.0,
        "correlation.first_deps_s": t["correlation.first_deps"],
        "correlation.assign_s": t["correlation.assign"],
        "correlation.apply_s": t["correlation.apply"],
        "eventlog.write_s": t["eventlog.write"],
        "eventlog.read_s": t["eventlog.read"],
        "eventlog.reads": c.get("eventlog.reads", 0),
        "eventlog.bytes": c.get("eventlog.bytes", 0),
        "eventlog.stats_s": t["eventlog.stats"],
        "discovery.project_s": t["discovery.project"],
        "discovery.dfg_s": t["discovery.dfg"],
        "discovery.parallel_s": t["discovery.parallel"],
        "discovery.dot_s": t["discovery.dot"],
        "trace.overhead_ratio": wall / untraced_wall,
        "trace.unattributed_s": wall - top,
        "trace.span_share": top / wall,
    }


def simulate_layers(trace: dict, scale: float) -> dict[str, float]:
    t, _ = span_totals(trace["spans"], scale)
    return {
        "simulator.simulate_s": t["simulator.simulate"],
        "simulator.write_s": t["simulator.write"],
    }


def measure_traced(
    runner: Runner,
    inputs: Inputs,
    seconds: float,
    work: Path,
    tally: Tally,
    samples: dict[str, list[float]],
) -> None:
    """Each repetition runs ``pipeline`` and ``simulate``, then their traced
    mirrors, whose outputs must equal the untraced ones byte for byte. The
    traced runs are skipped in a repetition whose untraced run failed."""
    truth = inputs.truth
    traced = str(HERE / "traced.py")
    sim_out = warm_simulate(runner, tally, inputs, work)
    traced_sim = work / "traced_sim"
    for rep in repetitions(seconds):
        rep_dir = work / f"rep{rep}"
        rep_dir.mkdir()
        out = rep_dir / "pipeline"
        runner.gauge(rep_dir)
        plain = checked_run(runner, tally, pipeline_args(inputs, out), rep_dir, "pipeline",
                            lambda: check_pipeline(out, truth))
        plain_scale = runner.speed_scale(rep_dir)
        if plain:
            traced_out = rep_dir / "traced"
            spans = rep_dir / "spans.json"

            def check_traced() -> list[str]:
                problems = same_tree(out, traced_out)
                if (rep_dir / "traced_pipeline.out").read_bytes() != plain.stdout:
                    problems.append("traced standard output differs")
                return problems + check_counts(json.loads(spans.read_text())["counters"], truth)

            args = [traced, "pipeline", str(inputs.replay), truth.strategy, str(traced_out),
                    str(spans)]
            run = checked_run(runner, tally, args, rep_dir, "traced_pipeline", check_traced)
            scale = runner.speed_scale(rep_dir)
            if run:
                trace = json.loads(spans.read_text())
                layers = pipeline_layers(trace, run.wall_s, plain.wall_s * plain_scale, scale)
                for name, value in layers.items():
                    samples[name].append(value)

        if run_simulate(runner, tally, inputs, sim_out, rep_dir, "simulate"):
            clear_oracle(traced_sim)
            sim_spans = rep_dir / "sim_spans.json"
            args = [traced, "simulate", str(inputs.scenario), str(traced_sim), str(sim_spans)]
            runner.gauge(rep_dir)
            run = checked_run(runner, tally, args, rep_dir, "traced_simulate",
                              lambda: same_tree(sim_out, traced_sim))
            scale = runner.speed_scale(rep_dir)
            if run:
                trace = json.loads(sim_spans.read_text())
                for name, value in simulate_layers(trace, scale).items():
                    samples[name].append(value)
    samples["reps"].append(rep + 1)


END_TO_END_UNITS = {
    "pipeline_s": "s",
    "poll_p50_ms": "ms",
    "poll_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "simulate_s": "s",
    "setup_s": "s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us_per_edge"):
        return "us"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hpcmine" / "cli.py").is_file():
        log(f"error: no hpcmine sources under {SRC}; run from a full checkout")
        return 2

    # Started first, while this process is still small.
    runner = Runner()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    tally = Tally()
    samples: dict[str, list[float]] = defaultdict(list)
    try:
        if args.trace:
            generated = timed_setups(args.workload, args.seed, 1, 0.0, samples)
        else:
            generated = timed_setups(
                args.workload, args.seed, SETUP_REPEATS, SETUP_CPU_SECONDS, samples
            )
        inputs = write_inputs(generated, work / "input")
        if args.trace:
            measure_traced(runner, inputs, args.seconds, work, tally, samples)
            bookkeeping = {"reps", "setup_s", "setup_cpu_s"}
            units = {name: per_layer_unit(name) for name in samples if name not in bookkeeping}
        else:
            measure(runner, inputs, args.seconds, work, tally, samples)
            units = END_TO_END_UNITS
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    missing = [name for name in units if not samples.get(name)]
    if args.trace:
        # Per-layer names come from the traced runs that succeeded, so
        # require one of each kind.
        missing += [name for name in ("trace.span_share", "simulator.simulate_s")
                    if name not in samples]
    if missing or not units:
        log(f"error: no successful run measured {', '.join(missing)}")
        return 1

    def median(name: str) -> float | None:
        return statistics.median(samples[name]) if samples[name] else None

    metrics = {name: {"value": median(name), "unit": unit} for name, unit in units.items()}
    settings = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "reps": samples["reps"][0],
        "samples": {name: len(samples[name]) for name in units},
        "inputs": inputs.truth.counts,
        "reference_s": statistics.median(runner.references),
        # Unscaled medians: wall times, absorb times and CPU seconds.
        "raw": {
            "pipeline_s": median("pipeline_raw_s"),
            "simulate_s": median("simulate_raw_s"),
            "poll_p50_ms": median("poll_raw_p50_ms"),
            "setup_s": median("setup_cpu_s"),
        },
    }
    for name in units:
        values = samples[name]
        log(f"{name:32s} median {median(name):12.5g}  min {min(values):12.5g}"
            f"  max {max(values):12.5g}  n={len(values)}")
    print("# " + json.dumps(settings, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0

if __name__ == "__main__":
    sys.exit(main())
