import sys
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import spec
from test_spec import NOISE
from hpcmine import observer, simulator, snapshots
from hpcmine.snapshots import (
    COMPLETED,
    COMPLETING,
    PENDING,
    RUNNING,
    SNAPSHOT_HEADER,
    JobRow,
    MalformedRow,
    normalize_command,
    dependency_targets,
    parse_snapshot,
)

T0 = datetime(2022, 12, 7, 11, 51, 45, tzinfo=timezone.utc)

KNOWN_STATES = (PENDING, RUNNING, COMPLETING, COMPLETED, "S")


class TestParseSnapshot:
    def test_dependent_pending_row(self):
        rows = parse_snapshot("acc1 4 afterok:2:3 /home/u/merge.sh PD proj9", T0)
        assert len(rows) == 1
        row = rows[0]
        assert row.account == "acc1"
        assert row.job_id == "4"
        assert row.dependency_raw == "afterok:2:3"
        assert row.command_path == "/home/u/merge.sh"
        assert row.state == PENDING
        assert row.group == "proj9"
        # The observation time belongs to the snapshot: the row is its six fields.
        assert row == ("acc1", "4", "afterok:2:3", "/home/u/merge.sh", PENDING, "proj9")

    def test_empty_text(self):
        assert parse_snapshot("", T0) == []

    # Each ends a line for str.splitlines(), and splits words for str.split().
    @pytest.mark.parametrize("mark", list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
    def test_a_line_ends_only_at_lf(self, mark):
        text = f"acc 7 (null) /x/a{mark}b.sh R grp\n"
        errors = []
        rows = parse_snapshot(text, T0, errors)
        assert (rows, errors) == ([("acc", "7", "(null)", "/x/a b.sh", RUNNING, "grp")], [])
        assert (rows, errors) == spec.parse(text)

    def test_header_skipped(self):
        text = "ACCOUNT JOBID DEPENDENCY COMMAND ST GROUP\na 1 (null) /x.sh R g\n"
        rows = parse_snapshot(text, T0)
        assert [r.job_id for r in rows] == ["1"]

    def test_header_is_the_exact_header_words(self):
        errors = []
        header = "  " + SNAPSHOT_HEADER.replace(" ", "\t")
        text = f"{header}\nACCOUNT 1 (null) /x.sh R g\nACCOUNT\n"
        rows = parse_snapshot(text, T0, errors)
        assert rows == [("ACCOUNT", "1", "(null)", "/x.sh", RUNNING, "g")]
        assert errors == [MalformedRow(3, "ACCOUNT")]

    def test_header_of_another_format_skipped(self):
        # ``squeue -o "%a %i %E %o %T %g"`` names its state column STATE.
        errors = []
        text = "ACCOUNT JOBID DEPENDENCY COMMAND STATE GROUP\nu1 7 (null) /x.sh PENDING g\n"
        rows = parse_snapshot(text, T0, errors)
        assert rows == [("u1", "7", "(null)", "/x.sh", "PENDING", "g")]
        assert errors == []

    def test_column_texts_are_shared_across_calls(self):
        # Job 101's line changes state, job 102's line comes back unchanged,
        # and job 103 is new but shares every column text but its id with 101.
        # Ids of one character would be shared anyway: CPython caches them.
        first = parse_snapshot(
            "acct 101 afterok:99 /x.sh PD grp\nacct 102 (null) /y.sh R grp", T0
        )
        second = parse_snapshot(
            "acct 101 afterok:99 /x.sh R grp\nacct 102 (null) /y.sh R grp\n"
            "acct 103 afterok:99 /z.sh PD grp",
            T0 + timedelta(seconds=30),
        )
        old, new = first[0], second[0]
        assert new is not old
        for name in ("account", "job_id", "dependency_raw", "group"):
            assert getattr(new, name) is getattr(old, name), name
        assert second[1] is first[1]
        assert second[2].account is old.account
        assert second[2].dependency_raw is old.dependency_raw
        assert second[2].group is old.group

    def test_command_with_arguments_spans_middle_columns(self):
        rows = parse_snapshot("a 1 (null) /opt/run.sh --n 5 R g", T0)
        assert rows[0].command_path == "/opt/run.sh --n 5"
        assert rows[0].state == "R"
        assert rows[0].group == "g"

    def test_malformed_row_reported_and_skipped(self):
        errors = []
        text = "a 1 (null) /x.sh R g\nbroken line\na 2 (null) /y.sh PD g\n"
        rows = parse_snapshot(text, T0, errors=errors)
        assert [r.job_id for r in rows] == ["1", "2"]
        assert errors == [MalformedRow(2, "broken line")]

    def test_malformed_row_warning_names_its_snapshot(self, caplog):
        with caplog.at_level("WARNING", logger="hpcmine.snapshots"):
            parse_snapshot("a 1 (null) /x.sh R g\nbroken line", T0, [])
        assert [r.getMessage() for r in caplog.records] == [
            "skipping malformed snapshot row 2 of the snapshot at "
            "2022-12-07T11:51:45Z: 'broken line'"
        ]

    def test_order_preserved(self):
        text = "\n".join(f"a {i} (null) /x.sh PD g" for i in range(20))
        rows = parse_snapshot(text, T0)
        assert [r.job_id for r in rows] == [str(i) for i in range(20)]

    def test_round_trip_against_simulator_snapshot(self):
        # A wide batch scenario: every job pending in the first snapshot.
        jobs = tuple(
            simulator.SimJob(
                job_id=str(i),
                account=f"acc{i % 7}",
                group=f"g{i % 3}",
                command_path=f"/home/u/script_{i}.sh",
                duration=60,
            )
            for i in range(1, 201)
        )
        result = simulator.simulate(simulator.ScenarioSpec(jobs=jobs))
        at, text = result.snapshots[0]
        rows = parse_snapshot(text, at)
        assert len(rows) == 200
        for job, row in zip(jobs, rows):
            assert (row.account, row.job_id, row.command_path, row.group) == (
                job.account, job.job_id, job.command_path, job.group
            )
            assert row.state == PENDING


def _join(tokens, separators, pad):
    body = "".join(token + sep for token, sep in zip(tokens, separators))
    return pad + body.rstrip(" \t") + pad


_separator = st.text(alphabet=" \t", min_size=1, max_size=3)
_word = st.text(alphabet="abcXYZ019_/.-:(),+", min_size=1, max_size=8)
_code = st.sampled_from([*KNOWN_STATES, "F", "CA", "OOM", "pd"])
# ACCOUNT JOBID DEPENDENCY, a command of one to four tokens, ST GROUP.
_data_tokens = st.builds(
    lambda head, command, code, group: head + command + [code, group],
    st.lists(_word, min_size=3, max_size=3),
    st.lists(_word, min_size=1, max_size=4),
    _code,
    _word,
)
_data_line = st.builds(
    _join,
    _data_tokens,
    st.lists(_separator, min_size=9, max_size=9),
    st.sampled_from(["", " ", "\t"]),
)
_short_line = st.lists(st.one_of(_word, _code), min_size=1, max_size=5).map(" ".join)
_line = st.one_of(
    _data_line,
    _short_line,
    st.just("ACCOUNT JOBID DEPENDENCY COMMAND ST GROUP"),
    st.just("ACCOUNT"),
    st.sampled_from(["", "   ", "\t"]),
    st.text(max_size=30),
)


def _assert_parses_as_spec(text, observed_at):
    errors = []
    rows = parse_snapshot(text, observed_at, errors)
    assert (rows, errors) == spec.parse(text)
    assert all(type(row) is JobRow for row in rows)
    # Known and unknown codes alike: one shared string per code, in every call;
    # so too for every other column but the command.
    assert all(text is sys.intern(text) for row in rows for text in row[:3] + row[4:])


def _kept_lines(text):
    """The good data lines of ``text``, mapped to their fields."""
    return {line: row for line in text.split("\n") for row in spec.parse(line)[0]}


@st.composite
def _snapshot_runs(draw, streams=1):
    """``streams`` runs of snapshot texts from one pool of lines: jobs, the same
    jobs in a state drawn anew (known, unknown or the same), and noise."""
    jobs = draw(st.lists(_data_tokens, min_size=1, max_size=4))
    pool = [" ".join(tokens) for tokens in jobs]
    pool += [" ".join(tokens[:-2] + [draw(_code), tokens[-1]]) for tokens in jobs]
    pool += NOISE + draw(st.lists(_line, max_size=4))
    text = st.lists(st.sampled_from(pool), max_size=12).map("\n".join)
    return [draw(st.lists(text, min_size=1, max_size=6)) for _ in range(streams)]


class TestParserMatchesReference:
    @given(st.lists(_line, max_size=12).map("\n".join))
    @example("ACCOUNT JOBID DEPENDENCY COMMAND ST GROUP\n\na 1 (null) /x.sh PD g")
    @example("a 1 afterok:2 /opt/run.sh --n  5\tR g\nshort line\na 2 x /y.sh F g")
    @example("a 1 (null) /x\0.sh R g\na 2 (null) /y.sh R g\0")
    @example("ACCOUNT 1 (null) /x.sh R g\nACCOUNT\nACCOUNT JOBID DEPENDENCY COMMAND ST")
    @example("ACCOUNT JOBID DEPENDENCY COMMAND STATE GROUP\nu1 7 (null) /x.sh PENDING g")
    def test_same_fields_and_errors(self, text):
        _assert_parses_as_spec(text, T0)

    @given(_snapshot_runs())
    def test_each_call_of_a_run_matches(self, runs):
        for tick, text in enumerate(runs[0]):
            _assert_parses_as_spec(text, T0 + timedelta(seconds=30 * tick))

    @given(_snapshot_runs(streams=2))
    def test_two_streams_parsed_alternately(self, runs):
        first, second = runs
        for tick in range(max(len(first), len(second))):
            at = T0 + timedelta(seconds=30 * tick)
            for run in (first, second):
                if tick < len(run):
                    _assert_parses_as_spec(run[tick], at)

    @given(_snapshot_runs())
    def test_keeps_only_the_last_calls_good_lines(self, runs):
        for text in runs[0]:
            rows = parse_snapshot(text, T0)
            kept = snapshots._previous_lines
            assert {line: tuple(row) for line, row in kept.items()} == _kept_lines(text)
            assert {id(row) for row in kept.values()} <= {id(row) for row in rows}

    def test_malformed_line_reported_at_each_appearance(self):
        job = "a 1 (null) /x.sh PD g"
        errors = []
        parse_snapshot(f"{job}\nbroken line", T0, errors)
        assert errors == [MalformedRow(2, "broken line")]
        errors = []
        rows = parse_snapshot(f"broken line\n{job}\nbroken line", T0, errors)
        assert errors == [MalformedRow(1, "broken line"), MalformedRow(3, "broken line")]
        assert [row.job_id for row in rows] == ["1"]

    def test_unchanged_line_gets_the_new_time(self):
        # The time comes with the snapshot: the reused row's event takes it.
        t1 = T0 + timedelta(seconds=30)
        parse_snapshot("a 1 (null) /x.sh PD g", T0)
        (row,) = parse_snapshot("a 1 (null) /x.sh PD g", t1)
        assert row == ("a", "1", "(null)", "/x.sh", PENDING, "g")
        (event,) = observer.diff_snapshot(observer.ObserverState(), [row], t1)
        assert event.timestamp == t1

    def test_unchanged_line_returns_the_same_row(self):
        line = "a 1 afterok:7 /opt/run.sh --n 5 R g"
        (first,) = parse_snapshot(line, T0)
        rows = parse_snapshot(f"a 2 (null) /y.sh PD g\n{line}", T0 + timedelta(seconds=30))
        assert rows[1] is first
        (changed,) = parse_snapshot(line.replace(" R ", " CG "), T0 + timedelta(seconds=60))
        assert changed is not first
        assert changed == first._replace(state=COMPLETING)

    def test_same_field_names_in_same_order(self):
        # The order of the columns, which ``spec.parse`` gives its rows in.
        assert JobRow._fields == (
            "account", "job_id", "dependency_raw", "command_path", "state", "group"
        )

    def test_known_codes_parse_to_shared_instances(self):
        text = "\n".join(f"a {i} (null) /x.sh {code} g" for i, code in enumerate(KNOWN_STATES))
        rows = parse_snapshot(text, T0)
        assert all(row.state is known for row, known in zip(rows, KNOWN_STATES))
        assert rows[0].state is PENDING

    def test_every_code_is_one_shared_string_across_calls(self):
        codes = [*KNOWN_STATES, "F", "CA", "OOM", "pd"]
        for account in ("a", "b"):  # new lines, so the second call splits them too
            text = "\n".join(f"{account} {i} (null) /x.sh {c} g" for i, c in enumerate(codes))
            rows = parse_snapshot(text, T0)
            assert [row.state for row in rows] == codes
            assert all(row.state is sys.intern(code) for row, code in zip(rows, codes))
        assert rows[0].state is PENDING

    def test_row_is_an_immutable_tuple_of_its_fields(self):
        row = JobRow(
            account="a",
            job_id="1",
            dependency_raw="(null)",
            command_path="/x.sh",
            state=PENDING,
            group="g",
        )
        assert row == ("a", "1", "(null)", "/x.sh", PENDING, "g")
        with pytest.raises(AttributeError):
            row.state = RUNNING


# A DEPENDENCY value as squeue may print it: clauses of a tag and targets, each
# with an optional "+<minutes>" delay and "(<state>)" suffix, joined by "," or
# "?", with blanks, empty clauses and null markers in any case among them.
_DEPENDENCY_VALUES = st.lists(
    st.sampled_from(
        ["afterok", "AfterAny", "singleton", "", " ", ":", ",", "?", "null", "(NULL)", "7",
         "41-2", "100_1", "+10", "(unfulfilled)", "(x)(y)", "+", "()", "\t"]
    ),
    max_size=8,
).map("".join)


class TestParseDependencySpec:
    @pytest.mark.parametrize("raw", ["(null)", "NULL", "null", "", "  (NULL)  ", ",", " ?, "])
    def test_no_dependency_values(self, raw):
        assert dependency_targets(raw) is None

    def test_single_clause(self):
        assert dependency_targets("afterok:2:3") == ("2", "3")

    def test_multiple_clauses(self):
        assert dependency_targets("afterany:10,afterok:11:12") == ("10", "11", "12")

    def test_question_mark_separator(self):
        assert dependency_targets("afterok:1?afterany:2") == ("1", "2")

    def test_bare_clause_is_unknown_without_targets(self):
        assert dependency_targets("singleton") == ()

    @pytest.mark.parametrize("raw", ["afterok:", "afterok:,"])
    def test_clause_with_empty_target_list_is_unknown(self, raw):
        assert dependency_targets(raw) == ()

    @pytest.mark.parametrize(
        "raw,targets",
        [
            ("afterok:123(unfulfilled)", ("123",)),
            ("afterany:4:5(failed)", ("4", "5")),
            ("after:7+10", ("7",)),
            ("after:7+10(unfulfilled)", ("7",)),
            ("singleton", ()),
        ],
    )
    def test_squeue_target_suffixes_stripped(self, raw, targets):
        assert dependency_targets(raw) == targets

    def test_unknown_tag_still_extracts_targets(self):
        assert dependency_targets("aftercorr:7:8") == ("7", "8")

    @given(st.text(max_size=80) | _DEPENDENCY_VALUES)
    @example("NuLl")
    @example(" singleton ? ,afterok:7+5(x) ")
    def test_total_on_arbitrary_input(self, raw):
        # None exactly when the specification finds no clause, else every
        # clause's targets in order.
        clauses = spec.clauses(raw)
        expected = tuple(t for _, targets in clauses for t in targets) if clauses else None
        assert dependency_targets(raw) == expected


class TestNormalizeCommand:
    @pytest.mark.parametrize(
        "path,expected",
        [
            ("/home/u/project/jobscript_0000.sh", "jobscript_0000.sh"),
            ("merge.sh", "merge.sh"),
            ("/opt/run.sh --n 5", "run.sh"),
            ("/opt/dir/", "dir"),
            ("////", "<unknown>"),
        ],
    )
    def test_examples(self, path, expected):
        assert normalize_command(path) == expected

    @given(st.text(max_size=120))
    def test_idempotent(self, path):
        once = normalize_command(path)
        assert normalize_command(once) == once
