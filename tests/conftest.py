import random
from datetime import timedelta
from importlib import resources

from hpcmine import observer
from hpcmine.eventlog import CaseLog, EventKind, JobEvent
from hpcmine.simulator import SIM_EPOCH, ScenarioSpec, SimJob, SubmitMode
from hpcmine.snapshots import COMPLETED, COMPLETING, PENDING, RUNNING


def bundled_scenario_names():
    """Names of the scenarios bundled with the package, sorted."""
    root = resources.files("hpcmine") / "scenarios"
    return sorted(p.name[: -len(".scenario")] for p in root.iterdir() if p.name.endswith(".scenario"))


def serialize_scenario(spec):
    """Scenario file text that ``simulator.load_scenario`` reads back as ``spec``."""
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


def replay_events(result, synthetic_complete=True):
    """Run the observer over a simulation's snapshot stream."""
    events = []
    summary = observer.run_observation(
        result.snapshots, events, synthetic_complete=synthetic_complete
    )
    return events, summary


def random_scenario(seed, max_jobs=20):
    """A random acyclic scenario: deps only point at lower-numbered jobs."""
    rng = random.Random(seed)
    n = rng.randint(1, max_jobs)
    jobs = []
    accounts = ["acc1", "acc2", "acc3"]
    groups = ["g1", "g2", ""]
    for i in range(1, n + 1):
        deps = tuple(
            str(j) for j in range(1, i) if rng.random() < 0.25
        )
        jobs.append(
            SimJob(
                job_id=str(i),
                account=rng.choice(accounts),
                group=rng.choice(groups) or "g1",
                command_path=f"/home/u/job_{i % 5}.sh",
                duration=rng.choice([0, 30, 60, 90, 150]),
                dependencies=deps,
                mode=rng.choice([SubmitMode.BATCH, SubmitMode.MANUAL]),
            )
        )
    return ScenarioSpec(jobs=tuple(jobs), seed=seed, snapshot_interval=30)


def random_case_log(rng, n_cases=4, jobs_per_case=4):
    """A synthetic case log where every job reaches the running milestone."""
    events = []
    t = SIM_EPOCH
    job_counter = 0
    for c in range(n_cases):
        case_id = f"case{c}"
        for _ in range(rng.randint(1, jobs_per_case)):
            job_counter += 1
            job_id = str(job_counter)
            activity = rng.choice(
                ["prep.sh", "train.sh", 'odd "name".sh', "a,b.sh", "merge.sh"]
            )
            start = t + timedelta(seconds=rng.randint(0, 4000))
            for state, kind, offset in [
                (PENDING, EventKind.CREATED, 0),
                (RUNNING, EventKind.STATE_CHANGED, 30),
                (COMPLETING, EventKind.STATE_CHANGED, 90),
                (COMPLETED, EventKind.SYNTHETIC_COMPLETED, 120),
            ]:
                events.append(
                    JobEvent(
                        case_id=case_id,
                        activity=activity,
                        state=state,
                        kind=kind,
                        timestamp=start + timedelta(seconds=offset),
                        job_id=job_id,
                        account=f"acc{c % 2}",
                        group="g1",
                        dependency_raw=rng.choice(["(null)", "afterok:1:2", "a,b"]),
                    )
                )
    events.sort(key=lambda e: (e.case_id, e.timestamp, e.job_id))
    return CaseLog(events)
