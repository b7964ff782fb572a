import csv
import math
import random
from datetime import datetime, timedelta

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    bundled_scenario_names,
    random_scenario,
    replay_events,
    serialize_scenario,
)
from hpcmine import simulator
from hpcmine.eventlog import JobEvent
from hpcmine.observer import EventKind
from hpcmine.simulator import (
    SIM_EPOCH,
    InvalidScenario,
    Oracle,
    ParseError,
    ScenarioSpec,
    SimJob,
    SimulationResult,
    SubmitMode,
    ValidationError,
    load_bundled_scenario,
    load_scenario,
    simulate,
)
from hpcmine.snapshots import (
    COMPLETED,
    COMPLETING,
    PENDING,
    RUNNING,
    SNAPSHOT_HEADER,
    normalize_command,
    parse_snapshot,
)


class TestLoadScenario:
    def test_bundled_fig1(self):
        spec = load_bundled_scenario("fig1_explicit")
        assert len(spec.jobs) == 4
        merge = spec.jobs[-1]
        assert merge.dependencies == ("2", "3")
        assert merge.mode == SubmitMode.BATCH

    def test_bundled_names(self):
        names = bundled_scenario_names()
        assert {"fig1_explicit", "fig1_manual", "two_chains", "fig8_parallel"} <= set(names)

    def test_unknown_dependency_target(self):
        text = "job 1 account=a group=g cmd=/x.sh dur=30 deps=9 mode=batch\n"
        with pytest.raises(ValidationError):
            load_scenario(text)

    def test_parse_error_names_line(self):
        with pytest.raises(ParseError) as exc_info:
            load_scenario("seed=0\nwhat is this\n")
        assert exc_info.value.line_number == 2

    def test_max_running_below_one_rejected(self):
        text = "max_running=0\njob 1 account=a group=g cmd=/x.sh dur=30 deps=- mode=batch\n"
        with pytest.raises(InvalidScenario, match="^max_running must be at least 1$"):
            load_scenario(text)

    def test_bad_mode(self):
        with pytest.raises(ParseError):
            load_scenario("job 1 account=a group=g cmd=/x dur=1 mode=sideways\n")

    @pytest.mark.parametrize("field", ["account", "group", "cmd"])
    def test_empty_column_field_rejected(self, field):
        fields = {"account": "a", "group": "g", "cmd": "/x"} | {field: ""}
        text = "job 1 " + " ".join(f"{k}={v}" for k, v in fields.items()) + " dur=30\n"
        with pytest.raises(ValidationError):
            load_scenario(text)

    @pytest.mark.parametrize("field", ["job_id", "account", "group", "command_path"])
    @pytest.mark.parametrize("value", ["", "x y", "x\t"])
    def test_column_field_must_be_one_word(self, field, value):
        job = SimJob("1", "a", "g", "/x", 30)._replace(**{field: value})
        with pytest.raises(ValidationError):
            ScenarioSpec(jobs=(job,)).validate()

    @pytest.mark.parametrize("mark", [":", ",", "?", "+", "(", ")"])
    def test_job_id_with_dependency_mark_rejected(self, mark):
        # A dependent of "x:y" would render "afterok:x:y", which names x and y.
        job_id = f"x{mark}y"
        jobs = (
            SimJob(job_id, "a", "g", "/x", 30),
            SimJob("2", "a", "g", "/x", 30, dependencies=(job_id,)),
        )
        with pytest.raises(ValidationError, match="^job x.y: job_id holds one of") as exc_info:
            ScenarioSpec(jobs=jobs).validate()
        assert exc_info.value.job_id == job_id

    def test_oracle_csvs_quote_commas(self, tmp_path):
        # A scenario cannot name a job "a,b", but write_oracle takes any oracle.
        result = simulate(load_scenario("job ab account=a group=g cmd=/x dur=30\n"))
        oracle = Oracle(
            [e._replace(job_id="a,b") for e in result.oracle.events], {"a,b": "case-a,b"}
        )
        simulator.write_oracle(oracle, tmp_path)
        with open(tmp_path / "oracle_events.csv", newline="") as fh:
            events = list(csv.reader(fh))[1:]
        assert len(events) == len(oracle.events) == 4
        assert all(len(row) == 4 and row[0] == "a,b" for row in events)
        with open(tmp_path / "true_cases.csv", newline="") as fh:
            assert list(csv.reader(fh))[1:] == [["a,b", "case-a,b"]]

    def test_round_trip(self):
        spec = load_bundled_scenario("two_chains")
        assert load_scenario(serialize_scenario(spec)) == spec

    def test_random_specs_round_trip(self):
        for seed in range(10):
            spec = random_scenario(seed)
            assert load_scenario(serialize_scenario(spec)) == spec

    def test_cycle_rejected(self):
        jobs = (
            SimJob("1", "a", "g", "/x", 30, dependencies=("2",)),
            SimJob("2", "a", "g", "/x", 30, dependencies=("1",)),
        )
        with pytest.raises(InvalidScenario):
            ScenarioSpec(jobs=jobs).validate()

    def test_cycle_message_names_every_unresolved_job(self):
        jobs = (
            SimJob("1", "a", "g", "/x", 30, dependencies=("3",)),
            SimJob("2", "a", "g", "/x", 30, dependencies=("1", "1")),
            SimJob("3", "a", "g", "/x", 30, dependencies=("2", "4")),
            SimJob("4", "a", "g", "/x", 30),
            SimJob("5", "a", "g", "/x", 30, dependencies=("3",)),
            SimJob("6", "a", "g", "/x", 30, dependencies=("6",)),
        )
        with pytest.raises(InvalidScenario) as exc_info:
            ScenarioSpec(jobs=jobs).validate()
        assert str(exc_info.value) == "dependency cycle among ['1', '2', '3', '5', '6']"

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.lists(st.lists(st.integers(1, n), max_size=3), min_size=n, max_size=n)
        )
    )
    def test_acyclic_check_matches_rescan(self, targets):
        jobs = tuple(
            SimJob(str(i), "a", "g", "/x", 30, dependencies=tuple(str(d) for d in deps))
            for i, deps in enumerate(targets, start=1)
        )
        spec = ScenarioSpec(jobs=jobs)
        assert _cycle_error(ScenarioSpec._check_acyclic, spec) == _cycle_error(
            _reference_check_acyclic, spec
        )


class TestSimulate:
    def test_dependency_column_shrinks_then_clears(self):
        result = simulate(load_bundled_scenario("fig1_explicit"))
        merge_rows = []
        for at, text in result.snapshots:
            for row in parse_snapshot(text, at):
                if row.job_id == "4":
                    merge_rows.append(row)
        pending = [r for r in merge_rows if r.state == PENDING]
        assert pending[0].dependency_raw == "afterok:2:3"
        sizes = [
            0 if r.dependency_raw == "(null)" else len(r.dependency_raw.split(":")) - 1
            for r in pending
        ]
        assert sizes == sorted(sizes, reverse=True)
        for r in merge_rows:
            if r.state != PENDING:
                assert r.dependency_raw == "(null)"

    def test_manual_jobs_never_render_dependencies(self):
        result = simulate(load_bundled_scenario("fig1_manual"))
        for at, text in result.snapshots:
            for row in parse_snapshot(text, at):
                assert row.dependency_raw == "(null)"

    def test_zero_duration_job_skips_running(self):
        spec = ScenarioSpec(jobs=(SimJob("1", "a", "g", "/x.sh", 0),))
        result = simulate(spec)
        states = []
        for at, text in result.snapshots:
            rows = parse_snapshot(text, at)
            states.append(rows[0].state if rows else "-")
        assert states == ["PD", "CG", "-"]

    def test_determinism(self):
        spec = load_bundled_scenario("two_chains")
        a, b = simulate(spec), simulate(spec)
        assert a.snapshots == b.snapshots
        assert a.oracle.events == b.oracle.events

    def test_seed_sweep_shows_both_parallel_orders(self):
        spec = load_bundled_scenario("fig1_explicit")
        orders = set()
        for seed in range(10):
            result = simulate(spec._replace(seed=seed))
            starts = [
                e.job_id
                for e in result.oracle.events
                if e.kind == EventKind.STATE_CHANGED and e.state == RUNNING
            ]
            orders.add(tuple(j for j in starts if j in {"2", "3"}))
        assert orders == {("2", "3"), ("3", "2")}

    def test_seed_changes_order_not_job_set(self):
        spec = load_bundled_scenario("fig1_explicit")
        a = simulate(spec._replace(seed=0))
        b = simulate(spec._replace(seed=3))
        assert {e.job_id for e in a.oracle.events} == {e.job_id for e in b.oracle.events}

    def test_one_seeded_draw_per_start(self, monkeypatch):
        draws = []

        class CountingRandom(random.Random):
            def sample(self, *args, **kwargs):
                raise AssertionError("simulate drew a sample")

            def randrange(self, *args):
                draws.append(args)
                return super().randrange(*args)

        monkeypatch.setattr(simulator.random, "Random", CountingRandom)
        specs = [load_bundled_scenario(name) for name in bundled_scenario_names()]
        total = 0
        for spec in specs + [random_scenario(seed) for seed in range(20)]:
            draws.clear()
            simulate(spec)
            assert len(draws) <= len(spec.jobs)  # every job starts once
            total += len(draws)
        assert total > 0

    def test_max_running_limits_concurrency(self):
        jobs = tuple(SimJob(str(i), "a", "g", "/x.sh", 120) for i in range(1, 6))
        result = simulate(ScenarioSpec(jobs=jobs, max_running=1))
        for at, text in result.snapshots:
            rows = parse_snapshot(text, at)
            assert sum(1 for r in rows if r.state == RUNNING) <= 1

    def test_every_job_observed_pending_first(self):
        for seed in range(5):
            result = simulate(random_scenario(seed))
            first_state = {}
            for event in result.oracle.events:
                first_state.setdefault(event.job_id, event.state)
            assert set(first_state.values()) == {PENDING}


class TestOracle:
    def test_observer_reproduces_oracle_on_bundled_scenarios(self):
        for name in bundled_scenario_names():
            result = simulate(load_bundled_scenario(name))
            events, _ = replay_events(result)
            assert events == result.oracle.events, name

    @settings(max_examples=300, deadline=None)
    @given(st.deferred(lambda: _specs()))
    def test_observer_reproduces_oracle_on_random_specs(self, spec):
        assume(spec.max_running != 0)
        result = simulate(spec)
        events, _ = replay_events(result)
        assert events == result.oracle.events

    def test_observer_keeps_a_job_whose_account_is_ACCOUNT(self):
        spec = load_scenario("job 1 account=ACCOUNT group=g cmd=/x.sh dur=30\n")
        result = simulate(spec)
        events, summary = replay_events(result)
        assert len(result.oracle.events) == 4
        assert events == result.oracle.events
        assert summary.malformed == 0

    def test_oracle_events_are_whole_observer_records(self):
        result = simulate(load_bundled_scenario("fig1_explicit"))
        merge = [e for e in result.oracle.events if e.job_id == "4"]
        assert merge[0] == JobEvent(
            "4", "acc1", "proj9", "merge.sh", PENDING, "afterok:2:3", EventKind.CREATED, SIM_EPOCH
        )
        assert [e.dependency_raw for e in merge[1:]] == ["(null)"] * 3

    def test_true_cases_partition_by_logical_dependencies(self):
        spec = load_bundled_scenario("two_chains")
        cases = spec.true_cases()
        chains = {}
        for job, label in cases.items():
            chains.setdefault(label, set()).add(job)
        assert sorted(sorted(c) for c in chains.values()) == [
            ["1", "2", "3", "4"],
            ["10", "11", "8", "9"],
        ]

    def test_transitions_follow_lifecycle(self):
        result = simulate(load_bundled_scenario("fig1_explicit"))
        per_job = {}
        for event in result.oracle.events:
            per_job.setdefault(event.job_id, []).append(event.state)
        for states in per_job.values():
            assert states == [PENDING, RUNNING, COMPLETING, COMPLETED]


# The tick-scan simulator the event-driven loop replaced: every tick walks
# all jobs in each step. It is the reference the equivalence tests below
# compare against. Only the names differ, and it reads ``_MAX_TICKS`` from
# the module so that patching the limit applies to both.


class _ReferenceRun:
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

    def event(self, kind, state, at, dependency="(null)") -> JobEvent:
        job = self.job
        activity = normalize_command(job.command_path)
        return JobEvent(
            job.job_id, job.account, job.group, activity, state, dependency, kind, at
        )


def _reference_simulate(spec: ScenarioSpec) -> SimulationResult:
    """Run a scenario; returns the snapshot stream and the ground truth."""
    spec.validate()
    rng = random.Random(spec.seed)
    interval = spec.snapshot_interval
    runs = [_ReferenceRun(job, i) for i, job in enumerate(spec.jobs)]
    by_id = {run.job.job_id: run for run in runs}
    for run in runs:
        run.running_ticks = math.ceil(run.job.duration / interval)

    def time_of(tick: int) -> datetime:
        return SIM_EPOCH + timedelta(seconds=tick * interval)

    snapshots: list[tuple[datetime, str]] = []
    oracle_events: list[JobEvent] = []
    submit_order: dict[str, int] = {}

    tick = 0
    while tick < simulator._MAX_TICKS:
        row_events: list[tuple[int, JobEvent]] = []
        vanish_events: list[tuple[int, JobEvent]] = []

        # 1. Jobs past their completing tick leave the queue.
        for run in runs:
            if run.status == "completing" and run.completed_by(tick):
                run.status = "gone"
                vanish_events.append(
                    (
                        submit_order[run.job.job_id],
                        run.event(EventKind.SYNTHETIC_COMPLETED, COMPLETED, time_of(tick)),
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
                    (run.index, run.event(EventKind.STATE_CHANGED, COMPLETING, time_of(tick)))
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
                dependency = _reference_dependency(run, by_id, tick)
                row_events.append(
                    (run.index, run.event(EventKind.CREATED, PENDING, time_of(tick), dependency))
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
            chosen = eligible[0] if len(eligible) == 1 else eligible[rng.randrange(len(eligible))]
            chosen.start_tick = tick
            if chosen.running_ticks == 0:
                chosen.status = "completing"
                chosen.cg_tick = tick
                row_events.append(
                    (chosen.index, chosen.event(EventKind.STATE_CHANGED, COMPLETING, time_of(tick)))
                )
            else:
                chosen.status = "running"
                row_events.append(
                    (chosen.index, chosen.event(EventKind.STATE_CHANGED, RUNNING, time_of(tick)))
                )

        # Oracle ordering mirrors the observer: per snapshot, row-order diff
        # events first, then synthetic completions in first-seen order.
        oracle_events.extend(event for _, event in sorted(row_events, key=lambda x: x[0]))
        oracle_events.extend(event for _, event in sorted(vanish_events, key=lambda x: x[0]))

        snapshots.append((time_of(tick), _reference_render_snapshot(runs, by_id, tick)))

        if all(run.status == "gone" for run in runs):
            break
        tick += 1
    else:
        raise InvalidScenario("simulation did not terminate")

    oracle = Oracle(events=oracle_events, true_cases=spec.true_cases())
    return SimulationResult(snapshots=snapshots, oracle=oracle)


def _reference_render_snapshot(runs, by_id, tick: int) -> str:
    lines = [SNAPSHOT_HEADER]
    for run in runs:
        if run.status == "pending":
            code = PENDING
        elif run.status == "running":
            code = RUNNING
        elif run.status == "completing":
            code = COMPLETING
        else:
            continue
        dependency = "(null)"
        if run.status == "pending":
            dependency = _reference_dependency(run, by_id, tick)
        job = run.job
        lines.append(
            f"{job.account} {job.job_id} {dependency} {job.command_path} {code} {job.group}"
        )
    return "\n".join(lines) + "\n"


def _reference_dependency(run, by_id, tick: int) -> str:
    if run.job.mode == SubmitMode.BATCH:
        remaining = [d for d in run.job.dependencies if not by_id[d].completed_by(tick)]
        if remaining:
            return "afterok:" + ":".join(remaining)
    return "(null)"


def _reference_check_acyclic(spec: ScenarioSpec) -> None:
    # The rescan cycle check that Kahn's algorithm replaced.
    deps = {job.job_id: set(job.dependencies) for job in spec.jobs}
    resolved: set[str] = set()
    while deps:
        ready = [j for j, d in deps.items() if d <= resolved]
        if not ready:
            raise InvalidScenario(f"dependency cycle among {sorted(deps)}")
        for j in ready:
            resolved.add(j)
            del deps[j]


def _cycle_error(check, spec):
    try:
        check(spec)
    except InvalidScenario as exc:
        return str(exc)
    return None


def _outcome(run, spec):
    """A simulation's snapshots, oracle events and true cases, or its error."""
    try:
        result = run(spec)
    except InvalidScenario as exc:
        return ("raised", str(exc))
    return (result.snapshots, result.oracle.events, result.oracle.true_cases)


@st.composite
def _specs(draw):
    """Acyclic specs whose dependency order is independent of job order.

    Each job gets a rank from a random permutation and may depend only on
    jobs of lower rank, so batch and manual jobs depend on jobs listed both
    before and after them. Dependency lists may repeat a target.
    """
    n = draw(st.integers(0, 10))
    rank = draw(st.permutations(range(n)))
    ids = draw(st.permutations([str(i) for i in range(1, n + 1)]))
    jobs = []
    for i in range(n):
        earlier = [ids[j] for j in range(n) if rank[j] < rank[i]]
        deps = draw(st.lists(st.sampled_from(earlier), max_size=4)) if earlier else []
        jobs.append(
            SimJob(
                job_id=ids[i],
                account=draw(st.sampled_from(["acc1", "acc2"])),
                group="g1",
                command_path=f"/home/u/job_{i % 3}.sh",
                duration=draw(st.sampled_from([0, 1, 29, 30, 31, 60, 150])),
                dependencies=tuple(deps),
                mode=draw(st.sampled_from(SubmitMode)),
            )
        )
    return ScenarioSpec(
        jobs=tuple(jobs),
        seed=draw(st.integers(0, 2**32)),
        snapshot_interval=draw(st.sampled_from([10, 30])),
        max_running=draw(st.sampled_from([None, 0, 1, 2, 3])),
    )


class TestEventDrivenEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(_specs())
    def test_matches_tick_scan(self, spec):
        # max_running=0 fails validation in both, with the same message.
        assert _outcome(simulate, spec) == _outcome(_reference_simulate, spec)

    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_bundled_scenarios_over_seeds(self, name):
        spec = load_bundled_scenario(name)
        for seed in range(30):
            seeded = spec._replace(seed=seed)
            assert _outcome(simulate, seeded) == _outcome(_reference_simulate, seeded), seed

    def test_empty_spec(self):
        spec = ScenarioSpec(jobs=())
        assert _outcome(simulate, spec) == _outcome(_reference_simulate, spec)
        assert simulate(spec).snapshots == [(SIM_EPOCH, SNAPSHOT_HEADER + "\n")]

    def test_does_not_terminate(self, monkeypatch):
        # The job needs a pending, ten running and a completing tick.
        monkeypatch.setattr(simulator, "_MAX_TICKS", 5)
        spec = ScenarioSpec(jobs=(SimJob("1", "a", "g", "/x.sh", 300),))
        with pytest.raises(InvalidScenario, match="^simulation did not terminate$"):
            simulate(spec)
