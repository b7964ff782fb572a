"""Deterministic synthetic scheduler used as a test oracle.

Executes declarative workflow scenarios on a tick clock (one tick per
snapshot interval), emits squeue-format snapshot text for every tick, and
records the ground-truth event stream an observer should reproduce: the
snapshots are ``snapshots.Snapshot``s, written in the snapshot file format
without loading the observer, and the oracle is the observer's exact
``JobEvent`` output, every field included.

Per-job lifecycle in ticks: at least one pending tick, a running phase of
ceil(duration / interval) ticks, one completing tick, then the job leaves
the queue. Batch jobs are all submitted at tick 0 and are gated by their
declared dependencies, which are rendered (only while pending, and only
the not-yet-completed ones) into the DEPENDENCY column. Manual jobs are
submitted one snapshot after their logical predecessors complete and
never render a dependency, mimicking a user driving a chain by hand.

At most one job starts per tick. When several are startable, one seeded
draw picks it from them, listed in scenario order; the rest retry next
tick. This staggers parallel branches deterministically, so different
seeds realize different branch orders.

The simulation is event-driven: jobs wait in tick-keyed buckets for their
submission, entry into completing and departure, and each job's
snapshot row is cached until it changes. A tick's work is in the jobs that
change state on it, plus at most one seeded draw (for the start) and one
cached row per queued job; an eventless tick reuses the previous snapshot.
No per-tick loop visits every job of the scenario.
"""

from __future__ import annotations

import enum
import math
import os
import random
from bisect import bisect_left, insort
from datetime import datetime, timedelta, timezone
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import NamedTuple

from .correlation import cyclic_jobs, find_root
from .eventlog import EventKind, JobEvent, csv_line, write_csv
from .snapshots import COMPLETED, COMPLETING, PENDING, RUNNING, SNAPSHOT_HEADER, normalize_command
from .snapshots import Snapshot, is_snapshot_filename, snapshot_filename, write_snapshot_file

SIM_EPOCH = datetime(2024, 1, 1, 0, 0, 0, tzinfo=timezone.utc)

ORACLE_EVENTS_HEADER = ["job_id", "event_kind", "state", "timestamp"]

_MAX_TICKS = 1_000_000

# The DEPENDENCY column reads "tag:id:id,tag:id?tag:id", and a target may
# carry "+minutes" and "(state)" suffixes, so a job id must hold none of these.
_DEPENDENCY_MARKS = ":,?+()"


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


class SimJob(NamedTuple):
    job_id: str
    account: str
    group: str
    command_path: str
    duration: int
    dependencies: tuple[str, ...] = ()
    mode: SubmitMode = SubmitMode.BATCH


class ScenarioSpec(NamedTuple):
    jobs: tuple[SimJob, ...]
    seed: int = 0
    snapshot_interval: int = 30
    max_running: int | None = None

    def validate(self) -> None:
        ids = [job.job_id for job in self.jobs]
        if len(set(ids)) != len(ids):
            raise InvalidScenario("duplicate job ids")
        known = set(ids)
        header_start = SNAPSHOT_HEADER.split()[:2]
        for job in self.jobs:
            # Each is one squeue column without a NUL, or the observer skips
            # the row as malformed.
            for name in ("job_id", "account", "group", "command_path"):
                value = getattr(job, name)
                if value.split() != [value]:
                    raise ValidationError(job.job_id, f"{name} {value!r} is not one column")
                if "\0" in value:
                    raise ValidationError(job.job_id, f"{name} {value!r} holds a NUL")
            # The observer skips a line whose first two columns are the header's.
            if [job.account, job.job_id] == header_start:
                raise ValidationError(
                    job.job_id, f"account {job.account} and job_id {job.job_id} start the header"
                )
            if any(mark in job.job_id for mark in _DEPENDENCY_MARKS):
                raise ValidationError(
                    job.job_id, f"job_id holds one of {_DEPENDENCY_MARKS!r}"
                )
            if job.duration < 0:
                raise ValidationError(job.job_id, "negative duration")
            for dep in job.dependencies:
                if dep not in known:
                    raise ValidationError(job.job_id, f"unknown dependency target {dep}")
        if self.snapshot_interval <= 0:
            raise InvalidScenario("snapshot interval must be positive")
        if self.max_running is not None and self.max_running < 1:
            raise InvalidScenario("max_running must be at least 1")
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        cyclic = cyclic_jobs((dep, job.job_id) for job in self.jobs for dep in job.dependencies)
        if cyclic:
            raise InvalidScenario(f"dependency cycle among {sorted(cyclic)}")

    def true_cases(self) -> dict[str, str]:
        """Partition jobs by weak connectivity of the logical dependency graph."""
        parent: dict[str, str] = {}
        for job in self.jobs:
            for dep in job.dependencies:
                parent[find_root(parent, job.job_id)] = find_root(parent, dep)
        return {job.job_id: f"case-{find_root(parent, job.job_id)}" for job in self.jobs}


class Oracle(NamedTuple):
    events: list[JobEvent]  # exactly what observing the snapshots emits
    true_cases: dict[str, str]


class SimulationResult(NamedTuple):
    snapshots: list[Snapshot]
    oracle: Oracle


class _JobRun:
    __slots__ = (
        "job",
        "index",
        "head",
        "gone",
        "running_ticks",
        "unmet",
        "dependents",
        "submit_order",
        "line",
    )

    def __init__(self, job: SimJob, index: int, interval: int) -> None:
        self.job = job
        self.index = index
        # (job_id, account, group, activity): the leading fields of its events
        self.head = (job.job_id, job.account, job.group, normalize_command(job.command_path))
        self.gone = False  # has left the queue
        self.running_ticks = math.ceil(job.duration / interval)
        # Distinct dependencies not yet met: a manual job's predecessor meets
        # it by entering CG, a batch job's by leaving the queue.
        self.unmet = len(set(job.dependencies))
        self.dependents: list[_JobRun] = []
        self.submit_order = -1
        self.line = ""  # this job's snapshot row, rebuilt when it changes


def simulate(spec: ScenarioSpec) -> SimulationResult:
    """Run a scenario; returns the snapshot stream and the ground truth."""
    spec.validate()
    rng = random.Random(spec.seed)
    interval = spec.snapshot_interval
    max_running = spec.max_running
    runs = [_JobRun(job, i, interval) for i, job in enumerate(spec.jobs)]
    by_id = {run.job.job_id: run for run in runs}
    for run in runs:
        for dep in dict.fromkeys(run.job.dependencies):
            by_id[dep].dependents.append(run)

    # Tick-keyed buckets of the jobs that change state on that tick.
    submit_at: dict[int, list[_JobRun]] = {
        0: [run for run in runs if run.job.mode == SubmitMode.BATCH or run.unmet == 0]
    }
    cg_at: dict[int, list[_JobRun]] = {}
    vanish_at: dict[int, list[_JobRun]] = {}
    queue: list[int] = []  # indices of the jobs in the queue, ascending
    eligible: list[int] = []  # indices of the pending jobs free to start, ascending
    running = gone_count = submitted = 0

    def enter_cg(run: _JobRun, tick: int, changes: list) -> None:
        run.line = _render_line(run.job, COMPLETING)
        changes.append((run.index, EventKind.STATE_CHANGED, COMPLETING, "(null)"))
        vanish_at.setdefault(tick + 1, []).append(run)
        for waiter in run.dependents:
            if waiter.job.mode == SubmitMode.MANUAL:
                waiter.unmet -= 1
                if waiter.unmet == 0:
                    submit_at.setdefault(tick + 1, []).append(waiter)

    snapshots: list[Snapshot] = []
    oracle_events: list[JobEvent] = []
    text = SNAPSHOT_HEADER + "\n"
    tick = 0
    while tick < _MAX_TICKS:
        at = SIM_EPOCH + timedelta(seconds=tick * interval)
        # (index, kind, state, DEPENDENCY column) of each job that changes
        changes: list[tuple[int, EventKind, str, str]] = []

        # 1. Jobs past their completing tick leave the queue, in submission
        #    order; batch jobs waiting on them drop them from DEPENDENCY.
        leaving = sorted(vanish_at.pop(tick, ()), key=attrgetter("submit_order"))
        for run in leaving:
            run.gone = True
            del queue[bisect_left(queue, run.index)]
            for waiter in run.dependents:
                if waiter.job.mode == SubmitMode.BATCH:
                    waiter.unmet -= 1
                    waiter.line = _render_line(waiter.job, PENDING, _dependency(waiter, by_id))
                    if waiter.unmet == 0:
                        insort(eligible, waiter.index)
        gone_count += len(leaving)

        # 2. Running jobs that used up their duration enter completing.
        for run in cg_at.pop(tick, ()):
            running -= 1
            enter_cg(run, tick, changes)

        # 3. Start at most one eligible pending job (a seeded draw breaks
        #    ties, staggering parallel branches). It runs before submission,
        #    so a job submitted on this tick competes from the next one.
        if eligible and (max_running is None or running < max_running):
            index = eligible[0] if len(eligible) == 1 else eligible[rng.randrange(len(eligible))]
            del eligible[bisect_left(eligible, index)]
            chosen = runs[index]
            if chosen.running_ticks == 0:
                enter_cg(chosen, tick, changes)
            else:
                running += 1
                chosen.line = _render_line(chosen.job, RUNNING)
                cg_at.setdefault(tick + chosen.running_ticks, []).append(chosen)
                changes.append((index, EventKind.STATE_CHANGED, RUNNING, "(null)"))

        # 4. Submission: batch at tick 0; manual one snapshot after all
        #    logical predecessors entered completing.
        for run in sorted(submit_at.pop(tick, ()), key=attrgetter("index")):
            run.submit_order = submitted
            submitted += 1
            dependency = _dependency(run, by_id)
            run.line = _render_line(run.job, PENDING, dependency)
            insort(queue, run.index)
            changes.append((run.index, EventKind.CREATED, PENDING, dependency))
            if run.unmet == 0:
                insort(eligible, run.index)

        # Oracle ordering mirrors the observer: per snapshot, row-order diff
        # events first, then synthetic completions in first-seen order.
        changes.sort(key=itemgetter(0))
        changes += [
            (run.index, EventKind.SYNTHETIC_COMPLETED, COMPLETED, "(null)") for run in leaving
        ]
        oracle_events += [
            JobEvent(*runs[i].head, state, dependency, kind, at)
            for i, kind, state, dependency in changes
        ]

        # Every change emits an oracle event, so an eventless tick repeats
        # the previous snapshot.
        if changes:
            text = "\n".join([SNAPSHOT_HEADER, *(runs[i].line for i in queue)]) + "\n"
        snapshots.append(Snapshot(at, text))

        if gone_count == len(runs):
            break
        tick += 1
    else:
        raise InvalidScenario("simulation did not terminate")

    oracle = Oracle(events=oracle_events, true_cases=spec.true_cases())
    return SimulationResult(snapshots=snapshots, oracle=oracle)


def _dependency(run: _JobRun, by_id: dict[str, _JobRun]) -> str:
    """A pending job's DEPENDENCY column; a job in any other state shows ``(null)``."""
    job = run.job
    if job.mode == SubmitMode.BATCH:
        remaining = [d for d in job.dependencies if not by_id[d].gone]
        if remaining:
            return "afterok:" + ":".join(remaining)
    return "(null)"


def _render_line(job: SimJob, state: str, dependency: str = "(null)") -> str:
    return f"{job.account} {job.job_id} {dependency} {job.command_path} {state} {job.group}"


def write_snapshots(snapshots: list[Snapshot], directory) -> list[Path]:
    """Write one snapshot_<timestamp>.txt file per snapshot; returns the paths.

    Each file holds the UTF-8 bytes of its snapshot's text, whatever the
    locale (``snapshots.write_snapshot_file``). A file of an earlier run with
    the same name is overwritten in place and cut to length, not truncated
    to zero first (which frees its blocks) nor replaced atomically.

    Snapshot files of an earlier run that this run did not write are
    removed, so a replay of the directory reads this run alone.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stale = set(filter(is_snapshot_filename, os.listdir(directory)))
    paths = []
    for observed_at, text in snapshots:
        name = snapshot_filename(observed_at)
        stale.discard(name)
        path = directory / name
        write_snapshot_file(path, text)
        paths.append(path)
    for name in stale:
        os.remove(directory / name)
    return paths


def write_oracle(oracle: Oracle, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_csv(oracle.events, directory / "oracle_events.csv", ORACLE_EVENTS_HEADER)
    with open(directory / "true_cases.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_line(["job_id", "case_label"]))
        fh.writelines(map(csv_line, sorted(oracle.true_cases.items())))


# --- scenario file format -------------------------------------------------
#
#   seed=<n>
#   interval=<secs>
#   max_running=<n>          (optional; at least 1)
#   job <id> account=<a> group=<g> cmd=<path> dur=<secs> deps=<id,id|-> mode=<batch|manual>
#
# Lines end at LF only. Blank lines and lines starting with '#' are ignored. A job
# line names each of its fields at most once and no other; deps and mode may be
# left out. account, group and cmd are not empty. A job id holds none of the
# DEPENDENCY column's marks: colon, comma, ?, +, ( and ).

_JOB_FIELDS = frozenset({"account", "group", "cmd", "dur", "deps", "mode"})


def load_scenario(source: Path | str) -> ScenarioSpec:
    """Parse a scenario file (a ``Path``) or scenario text (a ``str``)."""
    text = source.read_text(encoding="utf-8") if isinstance(source, Path) else source
    seed = 0
    interval = 30
    max_running: int | None = None
    jobs: list[SimJob] = []
    for line_number, raw_line in enumerate(text.split("\n"), start=1):
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
                if key not in _JOB_FIELDS:
                    raise ParseError(line_number, f"unknown field {key!r}")
                if key in fields:
                    raise ParseError(line_number, f"repeated field {key!r}")
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


def _bundled_scenarios():
    from importlib import resources  # only bundled scenarios are package data

    return resources.files(__package__) / "scenarios"


def load_bundled_scenario(name: str) -> ScenarioSpec:
    path = _bundled_scenarios() / f"{name}.scenario"
    if not path.is_file():
        raise InvalidScenario(f"unknown bundled scenario {name!r}")
    return load_scenario(path.read_text(encoding="utf-8"))
