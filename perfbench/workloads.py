"""Deterministic workload generators for the hpcmine benchmark.

Each generator turns a seed into the program's inputs, in memory, and the
ground truth the outputs are checked against: an ``squeue``-format snapshot
stream and a scenario file for ``hpcmine simulate`` holding the workload's
first workflows. ``write_inputs`` then writes them as
``snapshots/snapshot_<ts>.txt`` and ``scenario.txt``.

Job model used by the renderer: a job is submitted at tick ``submit``, stays
pending until ``start`` (at least one tick, so its dependency column is seen),
runs until ``cg``, shows ``CG`` on tick ``cg`` and is gone from tick
``cg + 1`` on. Ids grow with submission time, so row order, first-seen
order and id order agree. A batch job lists its not yet completed declared
dependencies while pending, as the bundled simulator does.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

TICK_SECONDS = 30
EPOCH = datetime(2024, 3, 1, tzinfo=timezone.utc)
HEADER = "ACCOUNT JOBID DEPENDENCY COMMAND ST GROUP"
FIRST_JOB_ID = 700000

WORKLOADS = ("dag_backlog", "manual_history")

# dag_backlog: waves of batch workflows far larger than the cluster, so the
# queue holds hundreds of pending rows per snapshot and the dependency
# graph has about one edge per job.
DAG_WAVES = 3
DAG_WAVE_GAP = 90
DAG_DIAMONDS_PER_WAVE = 60
DAG_CHAINS_PER_WAVE = 30
DAG_CHAIN_LENGTH = 8
DAG_SLOTS = 12

# manual_history: one hand-driven chain starts per poll and a chain's next
# job is submitted when its predecessor has left the queue, so the queue
# stays at tens of jobs while the number of jobs ever seen keeps growing.
MANUAL_CHAINS = 1200
MANUAL_PAIRS = 48
MANUAL_STEPS = ("prep", "solve", "post", "plot")

# Jobs taken from the start of a workload into its scenario file, sized so
# that ``hpcmine simulate`` computes for about half a second on the seed code
# (batch jobs cost the simulator more per tick than hand-driven ones). The
# simulator writes one snapshot file per tick, and file creation time is
# the noisiest part of a run, so the manual slice is large enough for
# computing to dominate writing.
DAG_SCENARIO_JOBS = 240
MANUAL_SCENARIO_JOBS = 720


@dataclass
class Job:
    job_id: int
    workflow: int
    account: str
    group: str
    command: str
    deps: tuple[int, ...] = ()
    logical_deps: tuple[int, ...] = ()
    batch: bool = True
    duration: int = 1
    submit: int = 0
    start: int = -1
    cg: int = -1


@dataclass
class Truth:
    """What a correct run of the program must produce for a workload."""

    strategy: str
    # Expected (job_id, event_kind, state, timestamp) rows of events.csv.
    events: list[tuple[str, str, str, str]]
    # job id -> label; jobs share a case exactly when they share a label.
    # With exact_case_ids the label is the case id itself.
    cases: dict[str, str]
    exact_case_ids: bool
    # Sum over traces of (trace length - 1): the DFG's total edge frequency.
    dfg_transitions: int
    # job id -> workflow label for the jobs of the scenario file.
    scenario_cases: dict[str, str]
    # Input sizes: jobs, snapshots, rows (job rows over all snapshots) and
    # declared dependency edges.
    counts: dict[str, int] = field(default_factory=dict)


@dataclass
class Generated:
    truth: Truth
    # (file name, text) of every snapshot, in time order.
    snapshots: list[tuple[str, str]]
    scenario: str


@dataclass
class Inputs:
    truth: Truth
    replay: Path
    scenario: Path


def write_inputs(generated: Generated, directory: Path) -> Inputs:
    replay = directory / "snapshots"
    replay.mkdir(parents=True)
    for name, text in generated.snapshots:
        (replay / name).write_text(text)
    scenario = directory / "scenario.txt"
    scenario.write_text(generated.scenario)
    return Inputs(generated.truth, replay, scenario)


def tick_time(tick: int) -> datetime:
    return EPOCH + timedelta(seconds=tick * TICK_SECONDS)


def iso(tick: int) -> str:
    return tick_time(tick).strftime("%Y-%m-%dT%H:%M:%SZ")


def snapshot_name(tick: int) -> str:
    return "snapshot_" + tick_time(tick).strftime("%Y%m%dT%H%M%SZ") + ".txt"


def _diamond(rng, next_id, workflow, account, group):
    pre, left, right, merge = range(next_id, next_id + 4)
    home = f"/home/{account}/dag"
    specs = [
        (pre, "pre-processing.sh", ()),
        (left, "parallel-job1.sh", (pre,)),
        (right, "parallel-job2.sh", (pre,)),
        (merge, "merge.sh", (left, right)),
    ]
    return [
        Job(
            job_id=job_id,
            workflow=workflow,
            account=account,
            group=group,
            command=f"{home}/{name}",
            deps=deps,
            logical_deps=deps,
            duration=rng.randint(1, 3),
        )
        for job_id, name, deps in specs
    ]


def _chain(rng, next_id, workflow, account, group, length):
    jobs = []
    for k in range(length):
        job_id = next_id + k
        deps = (job_id - 1,) if k else ()
        jobs.append(
            Job(
                job_id=job_id,
                workflow=workflow,
                account=account,
                group=group,
                command=f"/home/{account}/pipe/stage{k + 1}.sh --part {k + 1}",
                deps=deps,
                logical_deps=deps,
                duration=rng.randint(1, 3),
            )
        )
    return jobs


def _schedule_batch(jobs: list[Job], slots: int) -> None:
    """List-schedule batch jobs: lowest ready id first, ``slots`` at a time.

    A job may start once every declared dependency has left ``CG`` and at
    least one tick after its submission; it holds a slot from ``start``
    through ``cg``.
    """
    by_id = {job.job_id: job for job in jobs}
    waiting = {job.job_id: len(job.deps) for job in jobs}
    dependents: dict[int, list[int]] = {}
    for job in jobs:
        for dep in job.deps:
            dependents.setdefault(dep, []).append(job.job_id)
    submissions: dict[int, list[Job]] = {}
    for job in jobs:
        submissions.setdefault(job.submit, []).append(job)
    ready: list[int] = []
    finishing: dict[int, list[int]] = {}
    running = 0
    left = len(jobs)
    tick = 0
    while left:
        for job_id in finishing.pop(tick - 1, ()):
            running -= 1
            left -= 1
            for child in dependents.get(job_id, ()):
                waiting[child] -= 1
                if waiting[child] == 0:
                    heapq.heappush(ready, child)
        for job in submissions.pop(tick, ()):
            if waiting[job.job_id] == 0:
                heapq.heappush(ready, job.job_id)
        while ready and running < slots and by_id[ready[0]].submit < tick:
            job = by_id[heapq.heappop(ready)]
            job.start = tick
            job.cg = tick + job.duration
            finishing.setdefault(job.cg, []).append(job.job_id)
            running += 1
        tick += 1


def render(jobs: list[Job]) -> tuple[list[tuple[str, str]], list[tuple[str, str, str, str]]]:
    """Render one snapshot per tick; return them and the expected event stream.

    The stream follows the observer's order: per snapshot, creations and
    state changes in row order, then synthetic completions in first-seen
    order.
    """
    snapshots: list[tuple[str, str]] = []
    cg_of = {job.job_id: job.cg for job in jobs}
    submissions: dict[int, list[Job]] = {}
    for job in sorted(jobs, key=lambda j: j.job_id):
        submissions.setdefault(job.submit, []).append(job)
    last = max(job.cg for job in jobs) + 1
    events: list[tuple[str, str, str, str]] = []
    active: list[Job] = []
    for tick in range(last + 1):
        at = iso(tick)
        active.extend(submissions.get(tick, ()))
        lines = [HEADER]
        vanished = []
        kept = []
        for job in active:
            job_id = str(job.job_id)
            if job.cg < tick:
                vanished.append((job_id, "synthetic_completed", "CD", at))
                continue
            kept.append(job)
            dependency = "(null)"
            if tick < job.start:
                code = "PD"
                remaining = [str(d) for d in job.deps if cg_of[d] >= tick]
                if remaining:
                    dependency = "afterok:" + ":".join(remaining)
                if tick == job.submit:
                    events.append((job_id, "created", "PD", at))
            elif tick < job.cg:
                code = "R"
                if tick == job.start:
                    events.append((job_id, "state_changed", "R", at))
            else:
                code = "CG"
                events.append((job_id, "state_changed", "CG", at))
            lines.append(f"{job.account} {job_id} {dependency} {job.command} {code} {job.group}")
        active = kept
        events.extend(vanished)
        snapshots.append((snapshot_name(tick), "\n".join(lines) + "\n"))
    return snapshots, events


def scenario_text(jobs: list[Job], seed: int) -> str:
    """Scenario file for ``hpcmine simulate`` (format in hpcmine.simulator)."""
    lines = [f"seed={seed}", f"interval={TICK_SECONDS}"]
    for job in jobs:
        deps = ",".join(str(d) for d in job.logical_deps) or "-"
        command = job.command.split()[0]
        lines.append(
            f"job {job.job_id} account={job.account} group={job.group} cmd={command}"
            f" dur={job.duration * TICK_SECONDS} deps={deps}"
            f" mode={'batch' if job.batch else 'manual'}"
        )
    return "\n".join(lines) + "\n"


def _scenario_slice(jobs: list[Job], size: int) -> list[Job]:
    """The first whole workflows holding about ``size`` jobs."""
    taken = []
    for job in sorted(jobs, key=lambda j: j.job_id):
        if len(taken) >= size and job.workflow != taken[-1].workflow:
            break
        taken.append(job)
    return taken


def _workflow_labels(jobs: list[Job]) -> dict[str, str]:
    return {str(job.job_id): f"wf{job.workflow}" for job in jobs}


def _transitions(labels: dict[str, str]) -> int:
    return sum(size - 1 for size in Counter(labels.values()).values())


def _generated(
    jobs: list[Job],
    seed: int,
    scenario_jobs: int,
    strategy: str,
    cases: dict[str, str],
    exact_case_ids: bool,
) -> Generated:
    snapshots, events = render(jobs)
    scenario = _scenario_slice(jobs, scenario_jobs)
    truth = Truth(
        strategy=strategy,
        events=events,
        cases=cases,
        exact_case_ids=exact_case_ids,
        dfg_transitions=_transitions(cases),
        scenario_cases=_workflow_labels(scenario),
        counts={
            "jobs": len(jobs),
            "snapshots": len(snapshots),
            "rows": sum(text.count("\n") - 1 for _, text in snapshots),
            "edges": sum(len(job.deps) for job in jobs),
        },
    )
    return Generated(truth, snapshots, scenario_text(scenario, seed))


def generate_dag_backlog(seed: int) -> Generated:
    rng = random.Random(f"dag_backlog:{seed}")
    accounts = [(f"lab{i:02d}", f"proj{i % 7}") for i in range(24)]
    jobs: list[Job] = []
    workflow = 0
    for wave in range(DAG_WAVES):
        kinds = ["diamond"] * DAG_DIAMONDS_PER_WAVE + ["chain"] * DAG_CHAINS_PER_WAVE
        rng.shuffle(kinds)
        for kind in kinds:
            account, group = rng.choice(accounts)
            next_id = FIRST_JOB_ID + len(jobs)
            if kind == "diamond":
                new = _diamond(rng, next_id, workflow, account, group)
            else:
                new = _chain(rng, next_id, workflow, account, group, DAG_CHAIN_LENGTH)
            for job in new:
                job.submit = wave * DAG_WAVE_GAP
            jobs.extend(new)
            workflow += 1
    _schedule_batch(jobs, DAG_SLOTS)
    cases = _workflow_labels(jobs)
    return _generated(jobs, seed, DAG_SCENARIO_JOBS, "explicit", cases, exact_case_ids=False)


def generate_manual_history(seed: int) -> Generated:
    rng = random.Random(f"manual_history:{seed}")
    pairs = [(f"user{i:02d}", f"grp{i % 5}") for i in range(MANUAL_PAIRS)]
    planned = []
    for workflow in range(MANUAL_CHAINS):
        account, group = rng.choice(pairs)
        length = rng.randint(2, len(MANUAL_STEPS))
        submit = workflow
        for k in range(length):
            start = submit + rng.randint(1, 2)
            cg = start + rng.randint(2, 5)
            planned.append((submit, workflow, k, account, group, start, cg))
            submit = cg + 1
    planned.sort()
    jobs: list[Job] = []
    previous: dict[int, int] = {}
    for index, (submit, workflow, k, account, group, start, cg) in enumerate(planned):
        job_id = FIRST_JOB_ID + index
        step = MANUAL_STEPS[k]
        jobs.append(
            Job(
                job_id=job_id,
                workflow=workflow,
                account=account,
                group=group,
                command=f"/home/{account}/{step}.sh input{k}.dat",
                logical_deps=(previous[workflow],) if k else (),
                batch=False,
                duration=cg - start,
                submit=submit,
                start=start,
                cg=cg,
            )
        )
        previous[workflow] = job_id
    cases = {str(job.job_id): f"{job.account}-{job.group}" for job in jobs}
    return _generated(jobs, seed, MANUAL_SCENARIO_JOBS, "implicit", cases, exact_case_ids=True)


GENERATORS = {
    "dag_backlog": generate_dag_backlog,
    "manual_history": generate_manual_history,
}
