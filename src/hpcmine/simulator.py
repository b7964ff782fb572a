"""Deterministic synthetic scheduler used as a test oracle.

Executes declarative workflow scenarios on a tick clock (one tick per
snapshot interval), emits squeue-format snapshot text for every tick, and
records the ground-truth event stream an observer should reproduce.

Per-job lifecycle in ticks: at least one pending tick, a running phase of
ceil(duration / interval) ticks, one completing tick, then the job leaves
the queue. Batch jobs are all submitted at tick 0 and are gated by their
declared dependencies, which are rendered (only while pending, and only
the not-yet-completed ones) into the DEPENDENCY column. Manual jobs are
submitted one snapshot after their logical predecessors complete and
never render a dependency, mimicking a user driving a chain by hand.

When several jobs become startable on the same tick, the seed shuffles
them and only the first starts; the rest retry next tick. This staggers
parallel branches deterministically, so different seeds realize different
branch orders.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from importlib import resources
from pathlib import Path

from .eventlog import EventKind
from .observer import snapshot_filename
from .snapshots import COMPLETED, COMPLETING, PENDING, RUNNING, JobState
from .timeutil import format_iso

SIM_EPOCH = datetime(2024, 1, 1, 0, 0, 0, tzinfo=timezone.utc)

SNAPSHOT_HEADER = "ACCOUNT JOBID DEPENDENCY COMMAND ST GROUP"

_MAX_TICKS = 1_000_000


class ScenarioError(Exception):
    pass


class InvalidScenario(ScenarioError):
    pass


class ParseError(ScenarioError):
    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class ValidationError(ScenarioError):
    def __init__(self, job_id: str, message: str) -> None:
        super().__init__(f"job {job_id}: {message}")
        self.job_id = job_id


class SubmitMode(enum.Enum):
    BATCH = "batch"
    MANUAL = "manual"


@dataclass(frozen=True)
class SimJob:
    job_id: str
    account: str
    group: str
    command_path: str
    duration: int
    dependencies: tuple[str, ...] = ()
    mode: SubmitMode = SubmitMode.BATCH


@dataclass(frozen=True)
class ScenarioSpec:
    jobs: tuple[SimJob, ...]
    seed: int = 0
    snapshot_interval: int = 30
    max_running: int | None = None

    def validate(self) -> None:
        ids = [job.job_id for job in self.jobs]
        if len(set(ids)) != len(ids):
            raise InvalidScenario("duplicate job ids")
        known = set(ids)
        for job in self.jobs:
            if not job.job_id:
                raise ValidationError(job.job_id, "empty job id")
            if job.duration < 0:
                raise ValidationError(job.job_id, "negative duration")
            for dep in job.dependencies:
                if dep not in known:
                    raise ValidationError(job.job_id, f"unknown dependency target {dep}")
        if self.snapshot_interval <= 0:
            raise InvalidScenario("snapshot interval must be positive")
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        deps = {job.job_id: set(job.dependencies) for job in self.jobs}
        resolved: set[str] = set()
        while deps:
            ready = [j for j, d in deps.items() if d <= resolved]
            if not ready:
                raise InvalidScenario(f"dependency cycle among {sorted(deps)}")
            for j in ready:
                resolved.add(j)
                del deps[j]

    def true_cases(self) -> dict[str, str]:
        """Partition jobs by weak connectivity of the logical dependency graph."""
        parent = {job.job_id: job.job_id for job in self.jobs}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for job in self.jobs:
            for dep in job.dependencies:
                parent[find(job.job_id)] = find(dep)
        labels: dict[str, str] = {}
        for job in self.jobs:
            root = find(job.job_id)
            labels[job.job_id] = f"case-{root}"
        return labels


@dataclass(frozen=True)
class OracleEvent:
    job_id: str
    kind: EventKind
    state: JobState
    at: datetime


@dataclass
class Oracle:
    events: list[OracleEvent]
    true_cases: dict[str, str]
    stage_durations: dict[str, int]

    def transitions(self) -> list[tuple[str, JobState | None, JobState, datetime]]:
        previous: dict[str, JobState] = {}
        out = []
        for event in self.events:
            out.append((event.job_id, previous.get(event.job_id), event.state, event.at))
            previous[event.job_id] = event.state
        return out


@dataclass
class SimulationResult:
    snapshots: list[tuple[datetime, str]]
    oracle: Oracle


class _JobRun:
    __slots__ = (
        "job",
        "index",
        "status",
        "submit_tick",
        "start_tick",
        "cg_tick",
        "running_ticks",
    )

    def __init__(self, job: SimJob, index: int) -> None:
        self.job = job
        self.index = index
        self.status = "unsubmitted"
        self.submit_tick: int | None = None
        self.start_tick: int | None = None
        self.cg_tick: int | None = None
        self.running_ticks = 0

    def completed_by(self, tick: int) -> bool:
        # A job counts as complete from the tick after its completing tick.
        return self.cg_tick is not None and self.cg_tick < tick


def simulate(spec: ScenarioSpec) -> SimulationResult:
    """Run a scenario; returns the snapshot stream and the ground truth."""
    spec.validate()
    rng = random.Random(spec.seed)
    interval = spec.snapshot_interval
    runs = [_JobRun(job, i) for i, job in enumerate(spec.jobs)]
    by_id = {run.job.job_id: run for run in runs}
    for run in runs:
        run.running_ticks = math.ceil(run.job.duration / interval)

    def time_of(tick: int) -> datetime:
        return SIM_EPOCH + timedelta(seconds=tick * interval)

    snapshots: list[tuple[datetime, str]] = []
    oracle_events: list[OracleEvent] = []
    submit_order: dict[str, int] = {}

    tick = 0
    while tick < _MAX_TICKS:
        row_events: list[tuple[int, OracleEvent]] = []
        vanish_events: list[tuple[int, OracleEvent]] = []

        # 1. Jobs past their completing tick leave the queue.
        for run in runs:
            if run.status == "completing" and run.completed_by(tick):
                run.status = "gone"
                vanish_events.append(
                    (
                        submit_order[run.job.job_id],
                        OracleEvent(
                            run.job.job_id,
                            EventKind.SYNTHETIC_COMPLETED,
                            COMPLETED,
                            time_of(tick),
                        ),
                    )
                )

        # 2. Running jobs that used up their duration enter completing.
        for run in runs:
            if (
                run.status == "running"
                and run.start_tick is not None
                and tick - run.start_tick >= run.running_ticks
            ):
                run.status = "completing"
                run.cg_tick = tick
                row_events.append(
                    (
                        run.index,
                        OracleEvent(
                            run.job.job_id, EventKind.STATE_CHANGED, COMPLETING, time_of(tick)
                        ),
                    )
                )

        # 3. Submission: batch at tick 0; manual one snapshot after all
        #    logical predecessors completed.
        for run in runs:
            if run.status != "unsubmitted":
                continue
            if run.job.mode == SubmitMode.BATCH:
                ready = tick == 0
            else:
                preds = [by_id[d] for d in run.job.dependencies]
                ready = all(p.cg_tick is not None for p in preds) and tick >= (
                    max((p.cg_tick for p in preds), default=-1) + 1
                )
            if ready:
                run.status = "pending"
                run.submit_tick = tick
                submit_order[run.job.job_id] = len(submit_order)
                row_events.append(
                    (
                        run.index,
                        OracleEvent(run.job.job_id, EventKind.CREATED, PENDING, time_of(tick)),
                    )
                )

        # 4. Start at most one eligible pending job (seeded shuffle breaks
        #    ties, staggering parallel branches).
        running_count = sum(1 for run in runs if run.status == "running")
        eligible = []
        for run in runs:
            if run.status != "pending" or run.submit_tick is None or tick <= run.submit_tick:
                continue
            if run.job.mode == SubmitMode.BATCH and not all(
                by_id[d].completed_by(tick) for d in run.job.dependencies
            ):
                continue
            if spec.max_running is not None and running_count >= spec.max_running:
                continue
            eligible.append(run)
        if eligible:
            chosen = eligible[0] if len(eligible) == 1 else rng.sample(eligible, len(eligible))[0]
            chosen.start_tick = tick
            if chosen.running_ticks == 0:
                chosen.status = "completing"
                chosen.cg_tick = tick
                row_events.append(
                    (
                        chosen.index,
                        OracleEvent(
                            chosen.job.job_id, EventKind.STATE_CHANGED, COMPLETING, time_of(tick)
                        ),
                    )
                )
            else:
                chosen.status = "running"
                row_events.append(
                    (
                        chosen.index,
                        OracleEvent(
                            chosen.job.job_id, EventKind.STATE_CHANGED, RUNNING, time_of(tick)
                        ),
                    )
                )

        # Oracle ordering mirrors the observer: per snapshot, row-order diff
        # events first, then synthetic completions in first-seen order.
        oracle_events.extend(event for _, event in sorted(row_events, key=lambda x: x[0]))
        oracle_events.extend(event for _, event in sorted(vanish_events, key=lambda x: x[0]))

        snapshots.append((time_of(tick), _render_snapshot(runs, by_id, tick)))

        if all(run.status == "gone" for run in runs):
            break
        tick += 1
    else:
        raise InvalidScenario("simulation did not terminate")

    oracle = Oracle(
        events=oracle_events,
        true_cases=spec.true_cases(),
        stage_durations={job.job_id: job.duration for job in spec.jobs},
    )
    return SimulationResult(snapshots=snapshots, oracle=oracle)


def _render_snapshot(runs: list[_JobRun], by_id: dict[str, _JobRun], tick: int) -> str:
    lines = [SNAPSHOT_HEADER]
    for run in runs:
        if run.status == "pending":
            code = PENDING.code
        elif run.status == "running":
            code = RUNNING.code
        elif run.status == "completing":
            code = COMPLETING.code
        else:
            continue
        dependency = "(null)"
        if run.status == "pending" and run.job.mode == SubmitMode.BATCH:
            remaining = [d for d in run.job.dependencies if not by_id[d].completed_by(tick)]
            if remaining:
                dependency = "afterok:" + ":".join(remaining)
        job = run.job
        lines.append(
            f"{job.account} {job.job_id} {dependency} {job.command_path} {code} {job.group}"
        )
    return "\n".join(lines) + "\n"


def write_snapshots(snapshots: list[tuple[datetime, str]], directory) -> list[Path]:
    """Write one snapshot_<timestamp>.txt file per snapshot; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for observed_at, text in snapshots:
        path = directory / snapshot_filename(observed_at)
        path.write_text(text)
        paths.append(path)
    return paths


def write_oracle(oracle: Oracle, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "oracle_events.csv", "w", newline="") as fh:
        fh.write("job_id,event_kind,state,timestamp\n")
        for event in oracle.events:
            fh.write(
                f"{event.job_id},{event.kind.value},{event.state.code},{format_iso(event.at)}\n"
            )
    with open(directory / "true_cases.csv", "w", newline="") as fh:
        fh.write("job_id,case_label\n")
        for job_id, label in sorted(oracle.true_cases.items()):
            fh.write(f"{job_id},{label}\n")


# --- scenario file format -------------------------------------------------
#
#   seed=<n>
#   interval=<secs>
#   max_running=<n>          (optional)
#   job <id> account=<a> group=<g> cmd=<path> dur=<secs> deps=<id,id|-> mode=<batch|manual>
#
# Blank lines and lines starting with '#' are ignored.


def load_scenario(source) -> ScenarioSpec:
    if isinstance(source, Path):
        text = source.read_text()
    elif isinstance(source, str):
        text = Path(source).read_text() if "\n" not in source and Path(source).exists() else source
    else:
        text = source.read()
    seed = 0
    interval = 30
    max_running: int | None = None
    jobs: list[SimJob] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("job "):
            tokens = line.split()
            if len(tokens) < 2:
                raise ParseError(line_number, "job line missing id")
            job_id = tokens[1]
            fields = {}
            for token in tokens[2:]:
                if "=" not in token:
                    raise ParseError(line_number, f"expected key=value, got {token!r}")
                key, value = token.split("=", 1)
                fields[key] = value
            missing = {"account", "group", "cmd", "dur"} - fields.keys()
            if missing:
                raise ParseError(line_number, f"missing fields {sorted(missing)}")
            try:
                duration = int(fields["dur"])
            except ValueError:
                raise ParseError(line_number, f"bad duration {fields['dur']!r}") from None
            deps_value = fields.get("deps", "-")
            deps = () if deps_value == "-" else tuple(
                d for d in deps_value.split(",") if d
            )
            mode_value = fields.get("mode", "batch")
            try:
                mode = SubmitMode(mode_value)
            except ValueError:
                raise ParseError(line_number, f"bad mode {mode_value!r}") from None
            jobs.append(
                SimJob(
                    job_id=job_id,
                    account=fields["account"],
                    group=fields["group"],
                    command_path=fields["cmd"],
                    duration=duration,
                    dependencies=deps,
                    mode=mode,
                )
            )
        elif "=" in line:
            key, value = line.split("=", 1)
            key = key.strip()
            try:
                number = int(value.strip())
            except ValueError:
                raise ParseError(line_number, f"bad value for {key}: {value!r}") from None
            if key == "seed":
                seed = number
            elif key == "interval":
                interval = number
            elif key == "max_running":
                max_running = number
            else:
                raise ParseError(line_number, f"unknown setting {key!r}")
        else:
            raise ParseError(line_number, f"unrecognized line: {line!r}")
    spec = ScenarioSpec(
        jobs=tuple(jobs), seed=seed, snapshot_interval=interval, max_running=max_running
    )
    spec.validate()
    return spec


def serialize_scenario(spec: ScenarioSpec) -> str:
    lines = [f"seed={spec.seed}", f"interval={spec.snapshot_interval}"]
    if spec.max_running is not None:
        lines.append(f"max_running={spec.max_running}")
    for job in spec.jobs:
        deps = ",".join(job.dependencies) if job.dependencies else "-"
        lines.append(
            f"job {job.job_id} account={job.account} group={job.group}"
            f" cmd={job.command_path} dur={job.duration} deps={deps} mode={job.mode.value}"
        )
    return "\n".join(lines) + "\n"


def bundled_scenario_names() -> list[str]:
    root = resources.files(__package__) / "scenarios"
    return sorted(p.name[: -len(".scenario")] for p in root.iterdir() if p.name.endswith(".scenario"))


def load_bundled_scenario(name: str) -> ScenarioSpec:
    root = resources.files(__package__) / "scenarios"
    path = root / f"{name}.scenario"
    if not path.is_file():
        raise InvalidScenario(f"unknown bundled scenario {name!r}")
    return load_scenario(path.read_text())
