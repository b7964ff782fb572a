import csv
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spec as referee
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

    @pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
    def test_lines_end_at_lf_only(self, brk):
        with pytest.raises(ParseError, match="^line 2: unrecognized line: 'bogus'$"):
            load_scenario(f"# a{brk}b\nbogus\n")
        # The command is what cannot be one column, not a missing duration.
        text = f"seed=0\njob 1 account=a group=g cmd=/x/a{brk}b.sh dur=30\n"
        with pytest.raises(ParseError, match="^line 2: expected key=value, got 'b.sh'$"):
            load_scenario(text)

    @pytest.mark.parametrize(
        "fields,message",
        [
            ("dur=30 mdoe=manual", "unknown field 'mdoe'"),
            ("dur=30 dur=60", "repeated field 'dur'"),
            ("dur=30 mode=batch mode=manual", "repeated field 'mode'"),
            ("dur=30 deps=- deps=-", "repeated field 'deps'"),
            ("dur=30 =x", "unknown field ''"),
        ],
    )
    def test_job_field_unknown_or_repeated(self, fields, message):
        text = f"seed=0\njob 1 account=a group=g cmd=/x.sh {fields}\n"
        with pytest.raises(ParseError, match=f"^line 2: {message}$"):
            load_scenario(text)

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

    @pytest.mark.parametrize("field", ["job_id", "account", "group", "command_path"])
    def test_column_field_with_nul_rejected(self, field):
        # The observer skips a line holding a NUL as malformed: the job would go unseen.
        value = "/x\0.sh"
        job = SimJob("1", "a", "g", "/x.sh", 30)._replace(**{field: value})
        with pytest.raises(ValidationError) as exc_info:
            ScenarioSpec(jobs=(job,)).validate()
        assert str(exc_info.value) == f"job {job.job_id}: {field} {value!r} holds a NUL"
        assert exc_info.value.job_id == job.job_id
        with pytest.raises(ValidationError, match="^job 1: command_path .* holds a NUL$"):
            load_scenario("job 1 account=a group=g cmd=/x\0.sh dur=30\n")

    def test_header_shaped_job_rejected(self):
        # The observer reads "ACCOUNT JOBID ..." as the header: the job would go unseen.
        text = "job JOBID account=ACCOUNT group=g cmd=/x.sh dur=30\n"
        message = "^job JOBID: account ACCOUNT and job_id JOBID start the header$"
        with pytest.raises(ValidationError, match=message) as exc_info:
            load_scenario(text)
        assert exc_info.value.job_id == "JOBID"

    @pytest.mark.parametrize("account,job_id", [("ACCOUNT", "1"), ("a", "JOBID")])
    def test_half_a_header_is_observed(self, account, job_id):
        result = simulate(ScenarioSpec(jobs=(SimJob(job_id, account, "g", "/x.sh", 30),)))
        events, _ = replay_events(result)
        assert events == result.oracle.events
        assert len(events) == 4

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
        cyclic = referee.cycle_jobs(_edges(spec))
        try:
            spec.validate()
        except InvalidScenario as exc:
            assert str(exc) == f"dependency cycle among {sorted(cyclic)}"
        else:
            assert not cyclic


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


def _edges(spec):
    """The declared dependencies, as (target, dependent) pairs."""
    return {(dep, job.job_id) for job in spec.jobs for dep in job.dependencies}


def _assert_true_cases(spec, labels):
    """One label per weak component of the declared dependencies, naming a member."""
    assert list(labels) == [job.job_id for job in spec.jobs]
    for job_id, label in labels.items():
        members = referee.component(job_id, _edges(spec))
        assert {j for j in labels if labels[j] == label} == members
        assert label.removeprefix("case-") in members


def _assert_matches_spec(spec):
    """The snapshots are the specification's, the oracle events are what it observes
    in them, and the true cases are its components."""
    result = simulate(spec)
    assert result.snapshots == referee.simulate(spec)
    assert result.oracle.events == referee.observe(result.snapshots)[0]
    _assert_true_cases(spec, result.oracle.true_cases)


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
        if spec.max_running == 0:
            with pytest.raises(InvalidScenario, match="^max_running must be at least 1$"):
                simulate(spec)
        else:
            _assert_matches_spec(spec)

    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_bundled_scenarios_over_seeds(self, name):
        spec = load_bundled_scenario(name)
        for seed in range(30):
            _assert_matches_spec(spec._replace(seed=seed))

    def test_empty_spec(self):
        spec = ScenarioSpec(jobs=())
        _assert_matches_spec(spec)
        assert simulate(spec).snapshots == [(SIM_EPOCH, SNAPSHOT_HEADER + "\n")]

    def test_does_not_terminate(self, monkeypatch):
        # The job needs a pending, ten running and a completing tick.
        monkeypatch.setattr(simulator, "_MAX_TICKS", 5)
        spec = ScenarioSpec(jobs=(SimJob("1", "a", "g", "/x.sh", 300),))
        with pytest.raises(InvalidScenario, match="^simulation did not terminate$"):
            simulate(spec)
