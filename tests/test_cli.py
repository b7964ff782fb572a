import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

import hpcmine
from hpcmine import observer
from hpcmine.cli import SQUEUE_CMD_ENV, build_parser, main
from hpcmine.eventlog import CSV_HEADER, EVENTS_CSV_HEADER, CsvEventSink, write_csv
from hpcmine.simulator import load_bundled_scenario, simulate
from hpcmine.snapshots import SNAPSHOT_HEADER
from test_correlation import event


def tree(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def assert_events_file(path: Path, events):
    """``path`` holds the bytes ``write_csv`` writes for ``events`` as a raw events file."""
    buffer = io.StringIO()
    write_csv(events, buffer, EVENTS_CSV_HEADER)
    assert path.read_bytes() == buffer.getvalue().encode("utf-8")


def assert_write_error(capsys, path, out=None):
    """The command reported that ``path`` cannot be written, without a traceback.

    With ``out`` given, the command printed that to standard output.
    """
    captured = capsys.readouterr()
    if out is not None:
        assert captured.out == out
    assert captured.err.startswith("error: [Errno") and str(path) in captured.err
    assert "Traceback" not in captured.err


@pytest.fixture
def fig1_replay(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "fig1_explicit", "-o", str(out)]) == 0
    return out / "snapshots"


def run_pipeline_stages(tmp_path, replay_dir, strategy="explicit"):
    events = tmp_path / "events.csv"
    cases = tmp_path / "cases.csv"
    assert main(["observe", "--replay", str(replay_dir), "-o", str(events)]) == 0
    assert main(["correlate", str(events), "--strategy", strategy, "-o", str(cases)]) == 0
    return events, cases


class TestSimulate:
    def test_writes_snapshots_and_oracle(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "fig1_explicit", "-o", str(out)]) == 0
        snapshots = sorted((out / "snapshots").glob("snapshot_*.txt"))
        assert len(snapshots) == 22
        assert (out / "oracle_events.csv").exists()
        assert (out / "true_cases.csv").exists()

    def test_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "two_chains", "-o", str(a)]) == 0
        assert main(["simulate", "two_chains", "-o", str(b)]) == 0
        files_a = sorted(p.name for p in (a / "snapshots").iterdir())
        files_b = sorted(p.name for p in (b / "snapshots").iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (a / "snapshots" / name).read_text() == (b / "snapshots" / name).read_text()

    def test_unknown_scenario(self, tmp_path, capsys):
        assert main(["simulate", "nonesuch", "-o", str(tmp_path / "x")]) == 1
        assert "nonesuch" in capsys.readouterr().err

    def test_directory_named_like_a_scenario_is_not_read(self, tmp_path, monkeypatch):
        # The first run's output directory shadows the bundled name.
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "fig1_explicit", "-o", "fig1_explicit"]) == 0
        assert main(["simulate", "fig1_explicit", "-o", "again"]) == 0
        first = sorted(os.listdir(tmp_path / "fig1_explicit" / "snapshots"))
        assert sorted(os.listdir(tmp_path / "again" / "snapshots")) == first

    def test_undecodable_scenario_file_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "bad.scenario"
        path.write_bytes(b"seed=1\njob 1 account=a group=g cmd=/caf\xff.sh dur=30\n")
        assert main(["simulate", str(path), "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "can't decode byte 0xff" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("earlier", ["fig8_parallel", "fig1_manual", "two_chains"])
    def test_rerun_into_a_used_directory_equals_a_fresh_run(self, tmp_path, earlier):
        fresh, used = tmp_path / "fresh", tmp_path / "used"
        assert main(["simulate", "fig1_explicit", "-o", str(fresh)]) == 0
        assert main(["simulate", earlier, "-o", str(used)]) == 0
        names = sorted(os.listdir(fresh / "snapshots"))
        snapshots = used / "snapshots"
        (snapshots / names[0]).write_text("x" * 10_000)  # longer than the new file
        (snapshots / names[1]).write_text("")  # shorter
        for stale in ["snapshot_20990101T000000Z.txt", "snapshot_junk.txt"]:
            (snapshots / stale).write_text(SNAPSHOT_HEADER + "\nacc 9 (null) /x.sh R g\n")
        # Files a replay does not read are left alone.
        kept = {"notes.txt": b"n", "snapshot_20240101T000000Z.csv": b"c", "my_snapshot_1.txt": b"m"}
        for name, data in kept.items():
            (snapshots / name).write_bytes(data)

        assert main(["simulate", "fig1_explicit", "-o", str(used)]) == 0
        assert tree(snapshots) == {**tree(fresh / "snapshots"), **kept}
        for name in ["oracle_events.csv", "true_cases.csv"]:
            assert (used / name).read_bytes() == (fresh / name).read_bytes()
        events = []
        observer.run_observation(observer.ReplayDirectorySource(snapshots), events)
        oracle = simulate(load_bundled_scenario("fig1_explicit")).oracle
        assert events == oracle.events

    @pytest.mark.parametrize(
        "earlier,later",
        [
            (["fig8_parallel"], ["fig1_explicit"]),
            (["fig1_explicit"], ["fig8_parallel"]),
            (["fig1_explicit", "--seed", "3"], ["fig1_explicit"]),
        ],
    )
    def test_second_run_into_a_used_directory_is_byte_identical(self, tmp_path, earlier, later):
        # Snapshot files are overwritten in place, longer or shorter than before.
        fresh, used = tmp_path / "fresh", tmp_path / "used"
        assert main(["simulate", *earlier, "-o", str(used)]) == 0
        assert main(["simulate", *later, "-o", str(used)]) == 0
        assert main(["simulate", *later, "-o", str(fresh)]) == 0

        def files(root):
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        assert files(used) == files(fresh)

    def test_unwritable_output_is_an_error(self, tmp_path, capsys):
        stale = tmp_path / "out" / "snapshots" / "snapshot_x.txt"
        stale.mkdir(parents=True)  # named like a snapshot, but cannot be removed
        assert main(["simulate", "fig1_explicit", "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(stale) in err
        assert "Traceback" not in err

    def test_unreadable_scenario_path_is_an_error(self, tmp_path, capsys):
        name = "x" * 5000  # longer than any file name: stat fails
        assert main(["simulate", name, "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: [Errno")

    def test_seed_override_keeps_job_set(self, tmp_path):
        out = tmp_path / "s3"
        assert main(["simulate", "fig1_explicit", "--seed", "3", "-o", str(out)]) == 0
        with open(out / "oracle_events.csv") as fh:
            jobs = {row["job_id"] for row in csv.DictReader(fh)}
        assert jobs == {"1", "2", "3", "4"}


class TestObserve:
    def test_replay_event_count_matches_oracle(self, tmp_path, fig1_replay):
        events = tmp_path / "events.csv"
        assert main(["observe", "--replay", str(fig1_replay), "-o", str(events)]) == 0
        with open(events) as fh:
            rows = list(csv.DictReader(fh))
        with open(fig1_replay.parent / "oracle_events.csv") as fh:
            oracle_rows = list(csv.DictReader(fh))
        assert len(rows) == len(oracle_rows) == 16

    def test_empty_replay_dir(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        events = tmp_path / "events.csv"
        assert main(["observe", "--replay", str(empty), "-o", str(events)]) == 0
        assert events.read_text().count("\n") == 1

    def test_missing_replay_dir(self, tmp_path, capsys):
        assert main(["observe", "--replay", str(tmp_path / "nope"), "-o", "x.csv"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_unwritable_output_is_an_error(self, tmp_path, capsys, fig1_replay):
        events = tmp_path / "missing" / "dir" / "e.csv"
        assert main(["observe", "--replay", str(fig1_replay), "-o", str(events)]) == 1
        assert_write_error(capsys, events)

    def test_nul_line_is_malformed_and_the_events_read_back(self, tmp_path, capsys, caplog):
        replay = tmp_path / "replay"
        replay.mkdir()
        (replay / "snapshot_20240101T000000Z.txt").write_text(
            "a 1 (null) /x\0.sh PD g\na 2 (null) /y.sh PD g\n"
        )
        events, cases = tmp_path / "events.csv", tmp_path / "cases.csv"
        assert main(["observe", "--replay", str(replay), "-o", str(events)]) == 0
        assert capsys.readouterr().out == "snapshots: 1  events: 1\n"
        assert [r.getMessage() for r in caplog.records] == [
            "skipping malformed snapshot row 1 of the snapshot at "
            "2024-01-01T00:00:00Z: 'a 1 (null) /x\\x00.sh PD g'"
        ]
        assert main(["correlate", str(events), "-o", str(cases)]) == 0
        with open(cases) as fh:
            assert [row["job_id"] for row in csv.DictReader(fh)] == ["2"]

    @pytest.mark.parametrize("command", ["observe", "pipeline"])
    def test_undecodable_snapshot_is_an_error_line(self, tmp_path, capsys, command):
        replay = tmp_path / "replay"
        replay.mkdir()
        (replay / "snapshot_20240101T000000Z.txt").write_bytes(b"a 1 (null) /x.sh PD g\n")
        bad = replay / "snapshot_20240101T000030Z.txt"
        bad.write_bytes(b"a 1 (null) /home/u/caf\xe9.sh R g\n")
        out = tmp_path / "out"
        if command == "observe":
            out.mkdir()
            argv = ["observe", "--replay", str(replay), "-o", str(out / "events.csv")]
        else:
            argv = ["pipeline", "--replay", str(replay), "-o", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: 'utf-8' codec can't decode byte 0xe9 in position 22:"
            " invalid continuation byte\n"
        )
        with open(out / "events.csv", encoding="utf-8") as fh:
            assert [(r["job_id"], r["state"]) for r in csv.DictReader(fh)] == [("1", "PD")]

    @pytest.mark.parametrize(
        "env, flag, polled",
        [
            ("echo fromenv", "echo fromflag", ["echo", "fromflag"]),
            ("echo fromenv", None, ["echo", "fromenv"]),
            ("", None, ["squeue", "-o", "%a %i %E %o %t %g"]),
            (None, None, ["squeue", "-o", "%a %i %E %o %t %g"]),
        ],
    )
    def test_squeue_cmd_flag_then_env_then_default(
        self, tmp_path, monkeypatch, env, flag, polled
    ):
        if env is None:
            monkeypatch.delenv(SQUEUE_CMD_ENV, raising=False)
        else:
            monkeypatch.setenv(SQUEUE_CMD_ENV, env)
        sources = []

        class NoPolls(observer.CommandSource):
            def __iter__(self):
                sources.append(self)
                return iter(())

        monkeypatch.setattr(observer, "CommandSource", NoPolls)
        argv = ["observe", "--live", "-o", str(tmp_path / "events.csv")]
        if flag is not None:
            argv += ["--squeue-cmd", flag]
        assert main(argv) == 0
        assert [source.argv for source in sources] == [polled]

    @pytest.mark.parametrize(
        "argv, env, message",
        [
            (["--interval", "0"], None, "polling interval must be positive and finite, not 0.0"),
            (["--interval=-5"], None, "polling interval must be positive and finite, not -5.0"),
            (["--interval", "nan"], None, "polling interval must be positive and finite, not nan"),
            (["--interval", "inf"], None, "polling interval must be positive and finite, not inf"),
            (["--squeue-cmd", 'squeue -o "%a'], None, "No closing quotation"),
            (["--squeue-cmd", ""], None, "empty polling command ''"),
            (["--squeue-cmd", " \t"], None, "empty polling command ' \\t'"),
            ([], "  ", "empty polling command '  '"),
        ],
        ids=["zero", "negative", "nan", "inf", "unbalanced-quote", "empty", "blank", "blank-env"],
    )
    def test_bad_live_setting_is_an_error_before_the_events_file(
        self, tmp_path, monkeypatch, capsys, argv, env, message
    ):
        if env is None:
            monkeypatch.delenv(SQUEUE_CMD_ENV, raising=False)
        else:
            monkeypatch.setenv(SQUEUE_CMD_ENV, env)
        events = tmp_path / "events.csv"
        assert main(["observe", "--live", "-o", str(events), *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not events.exists()

    def test_replay_ignores_the_live_settings(self, tmp_path, monkeypatch, fig1_replay):
        monkeypatch.setenv(SQUEUE_CMD_ENV, " ")
        events = tmp_path / "events.csv"
        argv = ["observe", "--replay", str(fig1_replay), "-o", str(events), "--interval", "nan"]
        assert main(argv) == 0
        assert main(argv + ["--squeue-cmd", '"']) == 0

    def test_interrupted_live_run_writes_every_row(self, tmp_path, monkeypatch, capsys):
        t0 = datetime(2024, 1, 1, tzinfo=timezone.utc)
        texts = [
            "a 1 (null) /x.sh PD g\na 2 afterok:1 /y.sh PD g",
            "a 1 (null) /x.sh R g\na 2 afterok:1 /y.sh PD g",
            "a 2 afterok:1 /y.sh R g",  # job 1 completes, job 2 starts
        ]
        polls = [observer.Snapshot(t0 + timedelta(seconds=30 * i), t) for i, t in enumerate(texts)]

        class ThreePolls(observer.CommandSource):
            def __init__(self, command, interval):
                pending = iter(texts)
                times = iter(at for at, _ in polls)

                def run(argv):
                    text = next(pending, None)
                    if text is None:
                        raise KeyboardInterrupt  # Ctrl-C during the fourth poll
                    return text

                super().__init__(
                    command, interval, runner=run, clock=lambda: next(times, None),
                    sleep=lambda seconds: None,
                )

        monkeypatch.setattr(observer, "CommandSource", ThreePolls)
        events = tmp_path / "events.csv"
        assert main(["observe", "--live", "-o", str(events)]) == 0
        expected = []
        observer.run_observation(polls, expected)
        assert capsys.readouterr().out == f"snapshots: 3  events: {len(expected)}\n"
        # The last poll's two rows are written when the sink closes.
        assert [e.timestamp for e in expected].count(polls[2].observed_at) == 2
        assert_events_file(events, expected)

    def test_undecodable_second_replay_file_keeps_the_first_polls_rows(self, tmp_path, capsys):
        replay = tmp_path / "replay"
        replay.mkdir()
        t0 = datetime(2024, 1, 1, tzinfo=timezone.utc)
        first, second = (observer.snapshot_filename(t0 + timedelta(seconds=s)) for s in (0, 30))
        (replay / first).write_bytes(b"a 1 (null) /x.sh PD g\na 2 (null) /y.sh R g\n")
        (replay / second).write_bytes(b"a 1 (null) /caf\xe9.sh R g\n")
        events = tmp_path / "events.csv"
        assert main(["observe", "--replay", str(replay), "-o", str(events)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {replay / second}: 'utf-8' codec")
        expected = []
        with pytest.raises(observer.SourceFailure):
            observer.run_observation(observer.ReplayDirectorySource(replay), expected)
        assert len(expected) == 2
        assert_events_file(events, expected)


class TestCorrelate:
    def test_explicit_fig1_single_case(self, tmp_path, fig1_replay):
        _, cases = run_pipeline_stages(tmp_path, fig1_replay)
        with open(cases) as fh:
            case_ids = {row["case_id"] for row in csv.DictReader(fh)}
        assert case_ids == {"JID4321"}

    def test_implicit_fig1_manual(self, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "fig1_manual", "-o", str(sim)]) == 0
        _, cases = run_pipeline_stages(tmp_path, sim / "snapshots", strategy="implicit")
        with open(cases) as fh:
            case_ids = {row["case_id"] for row in csv.DictReader(fh)}
        assert case_ids == {"acc1-proj9"}

    def test_explicit_on_dependency_free_log_warns(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert main(["simulate", "fig1_manual", "-o", str(sim)]) == 0
        _, cases = run_pipeline_stages(tmp_path, sim / "snapshots", strategy="explicit")
        assert "every event belongs to a different case" in capsys.readouterr().err
        with open(cases) as fh:
            case_ids = {row["case_id"] for row in csv.DictReader(fh)}
        assert len(case_ids) == 4

    def test_explicit_cycle_is_one_case_without_warning(self, tmp_path, capsys):
        # Both edges of a 2-cycle are dropped, yet its jobs form one case.
        events = tmp_path / "events.csv"
        with CsvEventSink(events) as sink:
            sink.append(event("1", dep="afterok:2"))
            sink.append(event("2", dep="afterok:1"))
        cases = tmp_path / "cases.csv"
        assert main(["correlate", str(events), "--strategy", "explicit", "-o", str(cases)]) == 0
        assert "every event belongs to a different case" not in capsys.readouterr().err
        with open(cases) as fh:
            assert {row["case_id"] for row in csv.DictReader(fh)} == {"JID21"}

    @pytest.mark.parametrize("jobs,warns", [("56", True), ("5", False)],
                             ids=["two-jobs", "one-job"])
    def test_unobserved_target_is_not_counted(self, tmp_path, capsys, jobs, warns):
        # Job 5 depends on job 99, which is never observed: 99 has a case id but no event.
        events, cases = tmp_path / "events.csv", tmp_path / "cases.csv"
        with CsvEventSink(events) as sink:
            for job_id in jobs:
                sink.append(event(job_id, dep="afterok:99" if job_id == "5" else "(null)"))
        assert main(["correlate", str(events), "-o", str(cases)]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"cases: {len(jobs)}  rows: {len(jobs)}\n"
        assert ("every event belongs to a different case" in captured.err) is warns

    def test_unwritable_output_is_an_error(self, tmp_path, capsys, fig1_replay):
        events, _ = run_pipeline_stages(tmp_path, fig1_replay)
        capsys.readouterr()
        cases = tmp_path / "missing" / "dir" / "c.csv"
        assert main(["correlate", str(events), "-o", str(cases)]) == 1
        assert_write_error(capsys, cases)


class TestDiscover:
    def test_dot_contains_workflow_edges(self, tmp_path, fig1_replay):
        _, cases = run_pipeline_stages(tmp_path, fig1_replay)
        dot = tmp_path / "dfg.dot"
        assert main(["discover", str(cases), "-o", str(dot)]) == 0
        text = dot.read_text()
        assert '"pre-processing.sh" -> ' in text
        assert ' -> "merge.sh"' in text

    def test_account_filter(self, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "two_chains", "-o", str(sim)]) == 0
        _, cases = run_pipeline_stages(tmp_path, sim / "snapshots")
        dot = tmp_path / "dfg.dot"
        assert main(["discover", str(cases), "--account", "acc2", "-o", str(dot)]) == 0
        text = dot.read_text()
        assert "(1)" in text
        assert "(2)" not in text

    def test_empty_log(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        events, cases = run_pipeline_stages(tmp_path, empty)
        capsys.readouterr()
        assert main(["discover", str(cases)]) == 0
        assert capsys.readouterr().out.strip().startswith("digraph dfg {")

    def test_stats_out(self, tmp_path, fig1_replay):
        _, cases = run_pipeline_stages(tmp_path, fig1_replay)
        edges = tmp_path / "edges.csv"
        assert main(["discover", str(cases), "-o", str(tmp_path / "d.dot"), "--stats-out", str(edges)]) == 0
        with open(edges) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) == {"from", "to", "frequency", "mean_seconds", "median_seconds"}

    @pytest.mark.parametrize("option", ["-o", "--stats-out"])
    def test_unwritable_output_is_an_error(self, tmp_path, capsys, fig1_replay, option):
        _, cases = run_pipeline_stages(tmp_path, fig1_replay)
        capsys.readouterr()
        missing = tmp_path / "missing" / "dir" / "d.out"
        argv = ["discover", str(cases), "-o", str(tmp_path / "d.dot"), option, str(missing)]
        assert main(argv) == 1
        assert_write_error(capsys, missing)


class TestStats:
    def test_fig1_block(self, tmp_path, fig1_replay, capsys):
        _, cases = run_pipeline_stages(tmp_path, fig1_replay)
        assert main(["stats", str(cases)]) == 0
        out = capsys.readouterr().out
        assert "Number of unique submitted jobs" in out
        assert "75.00%" in out
        assert "100.00%" in out

    def test_empty_log_zeros(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        _, cases = run_pipeline_stages(tmp_path, empty)
        assert main(["stats", str(cases)]) == 0
        out = capsys.readouterr().out
        assert "Number of events" in out and " 0" in out

    def test_two_chains_counts(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert main(["simulate", "two_chains", "-o", str(sim)]) == 0
        _, cases = run_pipeline_stages(tmp_path, sim / "snapshots")
        assert main(["stats", str(cases)]) == 0
        out = capsys.readouterr().out
        assert " 8" in out
        assert "100.00%" in out

    @pytest.mark.parametrize("command", ["correlate", "discover", "stats"])
    def test_undecodable_csv_error_names_the_file(self, tmp_path, capsys, command):
        path = tmp_path / "bad.csv"
        path.write_bytes(",".join(CSV_HEADER).encode() + b"\ncaf\xff\n")
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "can't decode byte 0xff" in err

    def test_oversized_field_is_an_error(self, tmp_path, capsys):
        # csv.reader refuses a field past its 131,072-character limit.
        cases = tmp_path / "cases.csv"
        row = "c,{},PD,created,2024-01-01T00:00:00Z,1,acc,g,(null)\n"
        cases.write_text(",".join(CSV_HEADER) + "\n" + row.format("a.sh") + row.format("x" * 131_073))
        assert main(["stats", str(cases)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed CSV in row 3: field larger than field limit")
        assert "Traceback" not in err


class TestPipeline:
    def test_full_pipeline_deterministic(self, tmp_path, fig1_replay):
        out_a, out_b = tmp_path / "pa", tmp_path / "pb"
        for out in (out_a, out_b):
            assert main(["pipeline", "--replay", str(fig1_replay), "-o", str(out)]) == 0
        assert (out_a / "dfg.dot").read_text() == (out_b / "dfg.dot").read_text()
        assert (out_a / "cases.csv").read_text() == (out_b / "cases.csv").read_text()

    def test_unwritable_events_file_fails_before_observing(self, tmp_path, capsys, fig1_replay):
        out = tmp_path / "out"
        (out / "events.csv").mkdir(parents=True)
        capsys.readouterr()
        assert main(["pipeline", "--replay", str(fig1_replay), "-o", str(out)]) == 1
        assert_write_error(capsys, out / "events.csv", out="")  # no observation summary
        assert os.listdir(out) == ["events.csv"]

    def test_unwritable_output_directory_is_an_error(self, tmp_path, capsys, fig1_replay):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        assert main(["pipeline", "--replay", str(fig1_replay), "-o", str(out)]) == 1
        assert_write_error(capsys, out)

    def test_missing_replay_creates_no_output_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["pipeline", "--replay", str(tmp_path / "nope"), "-o", str(out)]) == 1
        assert "not found" in capsys.readouterr().err
        assert not out.exists()

    def test_shares_each_stage_option_with_its_stage(self):
        commands = next(
            action.choices
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        stages = [commands[name] for name in ("observe", "correlate", "discover")]

        def declared(parser):
            return {
                option: (action.dest, action.default, action.choices, action.type, type(action))
                for action in parser._actions
                for option in action.option_strings
            }

        shared = {}
        for stage in stages:
            shared |= declared(stage)
        own = {"-h", "--help", "--replay", "-o", "--output"}
        pipeline = {k: v for k, v in declared(commands["pipeline"]).items() if k not in own}
        assert set(pipeline) == {
            "--no-synthetic-complete",
            "--strategy",
            "--hash-case-ids",
            "--milestone",
            "--edge-duration",
            "--min-edge-freq",
            "--account",
        }
        assert pipeline == {option: shared[option] for option in pipeline}


# Runs each (name, argv) pair given as JSON through ``main`` in this fresh
# interpreter and prints, after the import and after each run, which of the
# modules a replay has no use for it loaded since start-up.
_FRESH_RUNS = """
import json, sys
LAZY = {
    "hashlib", "subprocess", "statistics", "dataclasses", "hpcmine.simulator",
    "logging", "csv", "shlex",
}
before = set(sys.modules)
loaded = lambda: sorted(LAZY & (set(sys.modules) - before))
from hpcmine.cli import main
report = {"import": loaded()}
for name, argv in json.loads(sys.argv[1]):
    report[name] = [main(argv), loaded(), "hashlib" in sys.modules]
print(json.dumps(report))
"""


class TestLazyImports:
    def test_pipeline_loads_no_module_it_does_not_use(self, tmp_path, fig1_replay):
        malformed = tmp_path / "malformed"
        malformed.mkdir()
        (malformed / "snapshot_20240101T000000Z.txt").write_text("a 1 PD\n", encoding="utf-8")
        base = ["pipeline", "--replay", str(fig1_replay)]
        runs = [
            ["observe", ["observe", "--replay", str(fig1_replay), "-o", str(tmp_path / "e.csv")]],
            ["explicit", base + ["-o", str(tmp_path / "explicit"), "--strategy", "explicit"]],
            ["implicit", base + ["-o", str(tmp_path / "implicit"), "--strategy", "implicit"]],
            # These load hashlib and the simulator for the rest of the
            # interpreter's life, so they come last.
            ["hashed", base + ["-o", str(tmp_path / "hashed"), "--hash-case-ids"]],
            ["simulate", ["simulate", "fig1_explicit", "-o", str(tmp_path / "sim")]],
            # A malformed row is reported through logging, loaded only then.
            ["malformed", ["observe", "--replay", str(malformed), "-o", str(tmp_path / "m.csv")]],
        ]
        paths = [str(Path(hpcmine.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        done = subprocess.run(
            [sys.executable, "-c", _FRESH_RUNS, json.dumps(runs)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.splitlines()[-1])
        assert report["import"] == []
        assert report["observe"][:2] == [0, []]
        assert report["explicit"][:2] == [0, []]
        assert report["implicit"][:2] == [0, []]
        assert report["hashed"][0] == 0
        assert report["hashed"][2]
        assert "dataclasses" not in report["hashed"][1]
        assert "hpcmine.simulator" not in report["hashed"][1]
        assert report["simulate"][0] == 0
        assert "hpcmine.simulator" in report["simulate"][1]
        assert {"dataclasses", "logging", "csv", "shlex"}.isdisjoint(report["simulate"][1])
        assert report["malformed"][0] == 0
        assert "logging" in report["malformed"][1]
        assert done.stderr.splitlines()[-1] == (
            "skipping malformed snapshot row 1 of the snapshot at 2024-01-01T00:00:00Z: 'a 1 PD'"
        )
        with open(tmp_path / "hashed" / "cases.csv") as fh:
            case_ids = {row["case_id"] for row in csv.DictReader(fh)}
        assert case_ids == {"JID" + hashlib.sha256(b"4,3,2,1").hexdigest()[:16]}
