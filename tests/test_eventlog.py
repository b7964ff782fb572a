import csv
import io
import random
import sys
from operator import attrgetter
from datetime import datetime, timedelta, timezone
from zoneinfo import ZoneInfo

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spec
from conftest import random_case_log, replay_events
from hpcmine import simulator
from hpcmine.simulator import ORACLE_EVENTS_HEADER
from hpcmine.correlation import (
    CaseAssignment,
    apply_cases,
    assign_cases_explicit,
    build_dependency_graph,
    extract_first_dependencies,
)
from hpcmine.eventlog import (
    CSV_HEADER,
    EVENTS_CSV_HEADER,
    WRITE_BLOCK,
    BadTimestamp,
    CaseLog,
    EventKind,
    JobEvent,
    MalformedCsv,
    SchemaMismatch,
    CsvEventSink,
    compute_stats,
    csv_line,
    first_dependencies_from_log,
    read_csv,
    read_events_csv,
    render_stats,
    write_csv,
)
from hpcmine.discovery import project_case_traces
from hpcmine.snapshots import COMPLETED, PENDING, RUNNING
from hpcmine.timeutil import format_iso


def roundtrip(log):
    buffer = io.StringIO()
    rows = write_csv(log, buffer)
    buffer.seek(0)
    return rows, read_csv(buffer)


class TestCaseLogFields:
    # A non-default value for every JobEvent field. A field added to the
    # record fails this test by name until it is added here and to CaseLog.
    SAMPLE = {
        "job_id": "17",
        "account": "acct",
        "group": "grp",
        "activity": "step.sh",
        "state": "F",
        "dependency_raw": "afterok:16",
        "kind": EventKind.SYNTHETIC_COMPLETED,
        "timestamp": datetime(2023, 5, 1, 12, 30, tzinfo=timezone.utc),
        "case_id": "old",
    }

    def test_keeps_every_field(self):
        event = JobEvent(**{name: self.SAMPLE[name] for name in JobEvent._fields})
        back = list(CaseLog([event]))
        assert back == [event]
        assert type(back[0]) is JobEvent and back[0].timestamp.fold == 0

    @pytest.mark.parametrize("piece", [100, 600])
    def test_a_table_past_256_values_keeps_every_code(self, piece):
        # Codes are one byte until a table passes 256 values, then four.
        start = datetime(2023, 5, 1, tzinfo=timezone.utc)
        events = [
            JobEvent(f"{i % 300}", f"a{i}", "g", "x", f"S{i}", f"d{i}", EventKind.CREATED,
                     start - timedelta(seconds=i % 290), f"c{i % 280}")
            for i in range(600)
        ]
        log = CaseLog()
        for at in range(0, len(events), piece):
            log.extend(events[at : at + piece])
        assert list(log) == events
        cases = {e.job_id: f"c{int(e.job_id) % 7}" for e in events}
        want = [e._replace(case_id=cases[e.job_id]) for e in events]
        for key in ("job_id", "timestamp", "case_id"):
            want.sort(key=attrgetter(key))
        assert list(apply_cases(log, CaseAssignment(cases))) == want


class TestJobEvent:
    def test_event_is_an_immutable_tuple_of_its_fields(self):
        at = datetime(2023, 5, 1, tzinfo=timezone.utc)
        event = JobEvent(
            job_id="1",
            account="a",
            group="g",
            activity="x.sh",
            state=PENDING,
            dependency_raw="(null)",
            kind=EventKind.CREATED,
            timestamp=at,
        )
        fields = ("1", "a", "g", "x.sh", PENDING, "(null)", EventKind.CREATED, at, "")
        assert event == fields
        assert hash(event) == hash(fields)
        with pytest.raises(AttributeError):
            event.state = RUNNING


class TestCsvLine:
    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.text(',"\r\n \tab\x0b\x0c\x1c\x85\u00a0\u2028\U0001f600', max_size=5),
            min_size=1,
            max_size=10,
        )
    )
    @example([""])
    @example(["", ""])
    @example(["a,b"])
    @example(["a\rb", "c"])
    @example(['say "hi"'])
    def test_matches_crlf_reference(self, fields):
        line = csv_line(fields)
        assert line == spec.csv_line(fields)
        assert list(csv.reader(io.StringIO(line, newline=""))) == [fields]


_ZONES = [
    timezone.utc,
    timezone(timedelta(hours=5, minutes=30)),
    timezone(timedelta(hours=-8)),
]


@st.composite
def _block_logs(draw):
    """A header and a log of a length at or around a block boundary, cycling
    through a few plain events; at most one event, anywhere, holds a field
    that needs quoting."""
    header = draw(st.sampled_from([EVENTS_CSV_HEADER, CSV_HEADER, ORACLE_EVENTS_HEADER]))
    plain = st.text("ab1 \t.:()\u00e9\u4e2d\U0001f600", max_size=4)
    start = datetime(2024, 3, 1, tzinfo=timezone.utc)
    pool = draw(
        st.lists(
            st.builds(
                JobEvent,
                job_id=plain,
                account=plain,
                group=plain,
                activity=plain,
                state=st.sampled_from([PENDING, RUNNING, COMPLETED]) | plain,
                dependency_raw=plain,
                kind=st.sampled_from(EventKind),
                timestamp=st.builds(
                    lambda seconds, zone, fold: (start + timedelta(seconds=seconds))
                    .astimezone(zone)
                    .replace(fold=fold),
                    st.sampled_from([0, 30, 3600, 86400 * 400]),
                    st.sampled_from(_ZONES),
                    st.integers(0, 1),
                ),
                case_id=plain,
            ),
            min_size=1,
            max_size=6,
        )
    )
    length = draw(st.sampled_from([0, 1, WRITE_BLOCK - 1, WRITE_BLOCK, WRITE_BLOCK + 1, 600]))
    events = [pool[i % len(pool)] for i in range(length)]
    if events and draw(st.booleans()):
        at = draw(st.integers(0, length - 1))
        # A text column of this header, where a field needing quotes shows.
        columns = [name for name in header if name not in ("timestamp", "event_kind")]
        column = draw(st.sampled_from(columns))
        field = "state" if column == "lifecycle" else column
        text = draw(st.sampled_from([",", '"', "\n", "\r", "a,b", 'x"y', "\r\n", ""]))
        events[at] = events[at]._replace(**{field: text})
    return header, events


class TestBlockWriter:
    @settings(max_examples=150, deadline=None)
    @given(_block_logs())
    def test_same_bytes_as_the_row_sink(self, header_and_events):
        header, events = header_and_events
        streamed = io.StringIO()
        with CsvEventSink(streamed, header) as sink:
            for event in events:
                sink.append(event)
        written = io.StringIO()
        assert write_csv(iter(events), written, header) == len(events)
        # Compared as lists of lines: pytest explains a mismatch of two long
        # texts with a line diff, which makes each shrinking step slow.
        lines = written.getvalue().splitlines(keepends=True)
        assert lines == streamed.getvalue().splitlines(keepends=True)
        assert lines == spec.csv_text(events, header).splitlines(keepends=True)

    def test_path_destination_is_closed_and_holds_the_same_bytes(self, tmp_path):
        at = datetime(2024, 1, 1, tzinfo=timezone.utc)
        event = JobEvent("1", "a", "g", "x.sh", RUNNING, "(null)", EventKind.CREATED, at, "c")
        events = [event] * (WRITE_BLOCK + 3)
        path = tmp_path / "cases.csv"
        assert write_csv(events, str(path)) == len(events)
        assert path.read_bytes().decode("utf-8") == spec.csv_text(events, CSV_HEADER)


@st.composite
def _hostile_events(draw):
    """Events with hostile text, unknown state codes, and timestamps drawn
    from a few instants in any order and zone, so instants repeat out of order."""
    instants = draw(
        st.lists(
            st.datetimes(
                min_value=datetime(1971, 1, 1),
                max_value=datetime(2100, 1, 1),
                timezones=st.just(timezone.utc),
            ),
            min_size=1,
            max_size=5,
        )
    )
    text = st.text(',"\n\r \tab1\u00e9\u4e2d\U0001f600', max_size=6)
    state = st.sampled_from([PENDING, RUNNING, COMPLETED]) | text
    event = st.builds(
        JobEvent,
        job_id=text,
        account=text,
        group=text,
        activity=text,
        state=state,
        dependency_raw=text,
        kind=st.sampled_from(EventKind),
        # The same instant in another zone, or the same wall clock there.
        timestamp=st.builds(
            lambda at, zone, convert: at.astimezone(zone) if convert else at.replace(tzinfo=zone),
            st.sampled_from(instants),
            st.sampled_from(_ZONES),
            st.booleans(),
        ),
        case_id=text,
    )
    return draw(st.lists(event, max_size=20))


class TestCsvEncodeMatchesPerColumnEncoder:
    @settings(max_examples=200, deadline=None)
    @given(_hostile_events())
    def test_same_bytes(self, events):
        for header in (EVENTS_CSV_HEADER, CSV_HEADER):
            buffer = io.StringIO()
            with CsvEventSink(buffer, header) as sink:
                for event in events:
                    sink.append(event)
            assert buffer.getvalue() == spec.csv_text(events, header)
        buffer = io.StringIO()
        assert write_csv(events, buffer) == len(events)
        assert buffer.getvalue() == spec.csv_text(events, CSV_HEADER)

    def test_stream_memo_stays_bounded(self):
        # A live observation writes time-ordered events for as long as it
        # runs: the sink holds one timestamp's events, not the stream.
        t0 = datetime(2024, 1, 1, tzinfo=timezone.utc)
        buffer = io.StringIO()
        sink = CsvEventSink(buffer)
        for i in range(10_000):
            at = t0 + timedelta(seconds=i)
            event = JobEvent("1", "a", "g", "x.sh", RUNNING, "(null)", EventKind.CREATED, at)
            sink.append(event)
            sink.append(event)
            assert sink.rows == 2 * i  # every earlier instant is written
        sink.close()
        assert sink.rows == 20_000
        assert buffer.getvalue().count("\n") == 20_001

    def test_close_writes_the_held_poll_when_an_exception_leaves(self, tmp_path):
        at = datetime(2024, 1, 1, tzinfo=timezone.utc)
        event = JobEvent("1", "a", "g", "x.sh", RUNNING, "(null)", EventKind.CREATED, at)
        path = tmp_path / "events.csv"
        with pytest.raises(KeyError):
            with CsvEventSink(path) as sink:
                sink.append(event)
                raise KeyError("poll")
        assert list(read_events_csv(path)) == [event]

    @pytest.mark.parametrize("header", [["job_id"], ["job_id", "nonesuch", "timestamp"]])
    def test_bad_header_opens_no_file(self, tmp_path, header):
        path = tmp_path / "events.csv"
        with pytest.raises((ValueError, KeyError)):
            CsvEventSink(path, header)
        assert not path.exists()


class TestDstFold:
    """The two sides of a DST fold hash and compare equal but are an hour
    apart; no timestamp cache may give one the other's text."""

    @staticmethod
    def folded(minute, folds):
        wall = datetime(2023, 11, 5, 1, minute, tzinfo=ZoneInfo("America/New_York"))
        return [wall.replace(fold=fold) for fold in folds]

    @staticmethod
    def utc_text(minute, fold):
        return f"2023-11-05T{5 + fold:02d}:{minute:02d}:00Z"

    # Each order uses its own minute, so neither finds the other's cache entries.
    @pytest.mark.parametrize(
        "folds,minute", [((0, 1), 30), ((1, 0), 40)], ids=["fold0-first", "fold1-first"]
    )
    def test_format_iso(self, folds, minute):
        assert [format_iso(t) for t in self.folded(minute, folds)] == [
            self.utc_text(minute, fold) for fold in folds
        ]

    @pytest.mark.parametrize(
        "folds,minute", [((0, 1), 31), ((1, 0), 41)], ids=["fold0-first", "fold1-first"]
    )
    def test_sink_and_write_csv(self, folds, minute):
        events = [
            JobEvent("1", "a", "g", "x.sh", RUNNING, "(null)", EventKind.CREATED, t)
            for t in self.folded(minute, folds + folds)
        ]
        expected = [self.utc_text(minute, fold) for fold in folds + folds]
        buffer = io.StringIO()
        with CsvEventSink(buffer) as sink:
            for event in events:
                sink.append(event)
        buffer.seek(0)
        assert [row["timestamp"] for row in csv.DictReader(buffer)] == expected
        buffer = io.StringIO()
        write_csv(events, buffer)
        buffer.seek(0)
        assert [row["timestamp"] for row in csv.DictReader(buffer)] == expected


class TestCsvRoundTrip:
    def test_empty_log_writes_header_only(self):
        buffer = io.StringIO()
        assert write_csv(CaseLog([]), buffer) == 0
        assert buffer.getvalue() == ",".join(CSV_HEADER) + "\n"

    def test_single_event(self):
        event = JobEvent(
            case_id="JID21",
            activity="merge.sh",
            state=PENDING,
            kind=EventKind.CREATED,
            timestamp=datetime(2022, 12, 7, 11, 51, 45, tzinfo=timezone.utc),
            job_id="2",
            account="acc1",
            group="p0",
            dependency_raw="afterok:1",
        )
        rows, back = roundtrip(CaseLog([event]))
        assert rows == 1
        assert list(back) == [event]

    def test_timestamp_format(self):
        log = random_case_log(random.Random(0))
        buffer = io.StringIO()
        write_csv(log, buffer)
        import csv as _csv

        line = buffer.getvalue().splitlines()[1]
        fields = next(_csv.reader([line]))
        assert fields[4].startswith("2024-01-01T") and fields[4].endswith("Z")

    def test_quoted_fields_round_trip(self):
        event = JobEvent(
            case_id="a,b",
            activity='odd "quote".sh',
            state="XX",
            kind=EventKind.STATE_CHANGED,
            timestamp=datetime(2024, 1, 1, tzinfo=timezone.utc),
            job_id="1_2",
            account="acc,1",
            group='g"g',
            dependency_raw="afterok:1,afterany:2",
        )
        _, back = roundtrip(CaseLog([event]))
        assert list(back) == [event]

    def test_randomized_logs(self):
        rng = random.Random(42)
        for _ in range(50):
            log = random_case_log(rng)
            rows, back = roundtrip(log)
            assert rows == len(log)
            assert list(back) == list(log)

    def test_schema_mismatch(self):
        with pytest.raises(SchemaMismatch):
            read_csv(io.StringIO("wrong,header\n"))

    def test_bad_timestamp(self):
        buffer = io.StringIO()
        write_csv(CaseLog([]), buffer)
        buffer.write("c,a,PD,created,yesterday,1,acc,g,(null)\n")
        buffer.seek(0)
        with pytest.raises(BadTimestamp) as exc_info:
            read_csv(buffer)
        assert exc_info.value.row_number == 2

    @pytest.mark.parametrize("header", [EVENTS_CSV_HEADER, CSV_HEADER], ids=["events", "cases"])
    def test_unknown_event_kind_names_its_row(self, header):
        cells = {
            "case_id": "c", "job_id": "1", "account": "acc", "group": "g", "activity": "a",
            "state": PENDING, "lifecycle": PENDING, "event_kind": "bogus",
            "timestamp": "2024-01-01T00:00:00Z", "dependency_raw": "(null)",
        }
        text = ",".join(header) + "\n" + ",".join(cells[name] for name in header) + "\n"
        with pytest.raises(MalformedCsv) as exc_info:
            read_csv(io.StringIO(text), header)
        assert exc_info.value.row_number == 2
        assert str(exc_info.value) == "malformed CSV in row 2: unknown event_kind 'bogus'"


_HOSTILE_TEXT = st.text(',"\n\r \tab1\x0b\x85\u00e9\u4e2d\U0001f600', max_size=6)


def _round_trip_events(case_id):
    """Hostile events that survive the codec exactly: whole-second UTC
    times, and any text as a state code, which the codec keeps verbatim."""
    return st.lists(
        st.builds(
            JobEvent,
            job_id=_HOSTILE_TEXT,
            account=_HOSTILE_TEXT,
            group=_HOSTILE_TEXT,
            activity=_HOSTILE_TEXT,
            state=_HOSTILE_TEXT,
            dependency_raw=_HOSTILE_TEXT,
            kind=st.sampled_from(EventKind),
            timestamp=st.datetimes(
                min_value=datetime(1971, 1, 1),
                max_value=datetime(2100, 1, 1),
                timezones=st.just(timezone.utc),
            ).map(lambda at: at.replace(microsecond=0)),
            case_id=case_id,
        ),
        max_size=20,
    )


class TestHostileEventsRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_round_trip_events(_HOSTILE_TEXT))
    def test_case_log(self, events):
        rows, back = roundtrip(events)
        assert rows == len(events)
        assert list(back) == events

    @settings(max_examples=200, deadline=None)
    @given(_round_trip_events(st.just("")))
    def test_events_file(self, events):
        buffer = io.StringIO()
        with CsvEventSink(buffer) as sink:
            for event in events:
                sink.append(event)
        buffer.seek(0)
        assert list(read_events_csv(buffer)) == events


def _read_outcome(read, text, header):
    try:
        return list(read(io.StringIO(text), header))
    except BadTimestamp as exc:
        return ("BadTimestamp", exc.row_number, exc.value)
    except SchemaMismatch as exc:
        return ("SchemaMismatch", exc.header)
    except MalformedCsv as exc:
        return ("MalformedCsv", exc.row_number, str(exc))


class TestReadCsvMatchesPerRowDecode:
    def test_case_log_round_trips(self):
        rng = random.Random(7)
        for _ in range(30):
            buffer = io.StringIO()
            log = random_case_log(rng, n_cases=6)
            write_csv(log, buffer)
            assert _read_outcome(read_csv, buffer.getvalue(), CSV_HEADER) == list(log)

    def test_events_file_round_trip(self):
        events = [e._replace(case_id="") for e in random_case_log(random.Random(8))]
        buffer = io.StringIO()
        with CsvEventSink(buffer) as sink:
            for event in events:
                sink.append(event)
        text = buffer.getvalue()
        assert _read_outcome(read_csv, text, EVENTS_CSV_HEADER) == events

    def test_one_shared_string_per_state_code(self):
        codes = [PENDING, RUNNING, "CG", COMPLETED, "S", "F", "CA", "TO", "OOM", "pd"]
        at = datetime(2024, 1, 1, tzinfo=timezone.utc)
        log = CaseLog([
            JobEvent(str(i), "acc", "g", "a.sh", codes[i % len(codes)],
                     "(null)", EventKind.STATE_CHANGED, at, "c")
            for i in range(1000)
        ])
        _, back = roundtrip(log)
        assert list(back) == list(log)
        assert {id(e.state) for e in back} == {id(sys.intern(c)) for c in codes}

    def test_unknown_state_code_decodes_alike(self):
        # The state code "created" is also an event kind's text: each column
        # decodes it on its own.
        text = (
            ",".join(CSV_HEADER) + "\n"
            + "c,a,created,created,2024-01-01T00:00:00Z,1,acc,g,(null)\n"
            + "c,a,created,state_changed,2024-01-01T00:00:00Z,1,acc,g,(null)\n"
        )
        at = datetime(2024, 1, 1, tzinfo=timezone.utc)
        assert _read_outcome(read_csv, text, CSV_HEADER) == [
            JobEvent("1", "acc", "g", "a", "created", "(null)", EventKind.CREATED, at, "c"),
            JobEvent("1", "acc", "g", "a", "created", "(null)", EventKind.STATE_CHANGED, at, "c"),
        ]

    @pytest.mark.parametrize(
        "rows",
        [
            # Bad timestamp in row 3, after a good row with another stamp.
            ["c,a,PD,created,2024-01-01T00:00:00Z,1,acc,g,(null)",
             "c,a,R,state_changed,yesterday,1,acc,g,(null)"],
            # Bad timestamp in row 3, after a good row with the same cells.
            ["c,a,PD,created,2024-01-01T00:00:00Z,1,acc,g,(null)",
             "c,a,PD,created,2024-01-01T00:00:00,1,acc,g,(null)"],
            # A short row 3.
            ["c,a,PD,created,2024-01-01T00:00:00Z,1,acc,g,(null)",
             "c,a,PD,created"],
        ],
    )
    def test_errors_name_the_same_row(self, rows):
        text = ",".join(CSV_HEADER) + "\n" + "\n".join(rows) + "\n"
        cells = rows[-1].split(",")
        if len(cells) == len(CSV_HEADER):
            expected = ("BadTimestamp", 3, cells[CSV_HEADER.index("timestamp")])
        else:
            expected = ("MalformedCsv", 3, "malformed CSV in row 3: 4 fields, expected 9")
        assert _read_outcome(read_csv, text, CSV_HEADER) == expected


class TestComputeStats:
    def test_empty_log(self):
        stats = compute_stats(CaseLog([]), {})
        assert stats.num_events == 0
        assert stats.num_unique_jobs == 0
        assert stats.num_accounts == 0
        assert stats.pct_jobs_explicit == 0.0
        assert stats.window is None

    def test_fig1_hand_count(self):
        result = simulator.simulate(simulator.load_bundled_scenario("fig1_explicit"))
        events = CaseLog(replay_events(result)[0])
        first_deps = extract_first_dependencies(events)
        log = apply_cases(events, assign_cases_explicit(build_dependency_graph(events, first_deps)))
        stats = compute_stats(log, first_deps)
        assert stats.num_events == 16
        assert stats.num_unique_jobs == 4
        assert stats.num_accounts == 1
        assert stats.pct_jobs_explicit == pytest.approx(0.75)
        assert stats.pct_accounts_explicit == pytest.approx(1.0)

    def test_invariant_under_reordering(self):
        log = random_case_log(random.Random(3))
        first_deps = first_dependencies_from_log(log)
        reordered = CaseLog(reversed(list(log)))
        assert compute_stats(log, first_deps) == compute_stats(reordered, first_deps)

    def test_accounts_bounded_by_jobs(self):
        log = random_case_log(random.Random(5))
        stats = compute_stats(log, first_dependencies_from_log(log))
        assert stats.num_accounts <= stats.num_unique_jobs <= stats.num_events


class TestRenderStats:
    def test_two_column_block(self):
        stats = compute_stats(CaseLog([]), {})
        block = render_stats(stats)
        lines = block.splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("Number of events")
        assert lines[3].endswith("0.00%")
        assert lines[5].endswith("-")


_NEW_YORK = ZoneInfo("America/New_York")
# Wall clocks around New York's DST fold of 2023-11-05, where 01:30 comes twice.
_WALLS = [datetime(2023, 11, 5, 0, 59), datetime(2023, 11, 5, 1, 30), datetime(2023, 11, 5, 3, 0)]


@st.composite
def _log_events(draw):
    """Events with hostile text and any state code, at times of one zone, in
    any order: equal, decreasing, and the two sides of the fold, which
    compare equal. A job may show under several accounts and cases."""
    text = st.text(',"\r\n abé', max_size=4)
    event = st.builds(
        JobEvent,
        job_id=st.sampled_from(["1", "2", "10", 'x,"y']) | text,
        account=st.sampled_from(["a", "b"]) | text,
        group=text,
        activity=st.sampled_from(["A", "B"]) | text,
        state=st.sampled_from([PENDING, RUNNING, "CG", COMPLETED, "S", "F"]) | text,
        dependency_raw=text,
        kind=st.sampled_from(EventKind),
        timestamp=st.builds(
            lambda wall, fold: wall.replace(tzinfo=_NEW_YORK, fold=fold),
            st.sampled_from(_WALLS),
            st.integers(0, 1),
        ),
        case_id=st.sampled_from(["c1", "c2"]) | text,
    )
    return draw(st.lists(event, max_size=30))


def _csv_rows(events, header):
    def cell(e, column):
        if column == "timestamp":
            return format_iso(e.timestamp)
        if column == "event_kind":
            return e.kind.value
        return getattr(e, "state" if column == "lifecycle" else column)

    return [header] + [[cell(e, column) for column in header] for e in events]


def _with_folds(events):
    # Times on the two sides of a fold compare equal: compare their folds too.
    return [(e, e.timestamp.fold) for e in events]


_FOLD_PAIR = [
    JobEvent("1", "a", "g", "A", RUNNING, "(null)", EventKind.CREATED,
             datetime(2023, 11, 5, 1, 30, tzinfo=_NEW_YORK, fold=fold), case)
    for fold, case in [(1, "c1"), (0, "c2")]
] + [JobEvent("1", "b", "g", "A", COMPLETED, "(null)", EventKind.SYNTHETIC_COMPLETED,
              datetime(2023, 11, 5, 0, 59, tzinfo=_NEW_YORK), "c1")]


class TestCaseLogProperties:
    @settings(max_examples=200, deadline=None)
    @given(_log_events())
    @example(_FOLD_PAIR)
    def test_codec_of_the_log_and_of_the_list_agree(self, events):
        log = CaseLog(events)
        assert _with_folds(log) == _with_folds(events)
        for header in (EVENTS_CSV_HEADER, CSV_HEADER):
            want = "".join(map(csv_line, _csv_rows(events, header)))
            for written in (log, events):
                buffer = io.StringIO()
                assert write_csv(written, buffer, header) == len(events)
                assert buffer.getvalue() == want
            back = read_csv(io.StringIO(want), header)
            buffer = io.StringIO()
            write_csv(back, buffer, header)
            assert buffer.getvalue() == want
            in_utc = [
                e._replace(timestamp=e.timestamp.astimezone(timezone.utc),
                           case_id=e.case_id if "case_id" in header else "")
                for e in events
            ]
            assert list(back) == in_utc

    @settings(max_examples=200, deadline=None)
    @given(_log_events())
    @example(_FOLD_PAIR)
    def test_apply_cases_sorts_stably_by_case_time_and_job(self, events):
        cases = {e.job_id: ("c2" if e.account == "a" else "c1") for e in events}
        # As the three stable sorts, least significant key first, left it.
        want = [e._replace(case_id=cases[e.job_id]) for e in events]
        for key in ("job_id", "timestamp", "case_id"):
            want.sort(key=attrgetter(key))
        given = CaseLog(events)
        assert apply_cases(given, CaseAssignment(cases)) is given
        assert _with_folds(given) == _with_folds(want)

    @settings(max_examples=100, deadline=None)
    @given(_log_events())
    @example(_FOLD_PAIR)
    def test_projection_and_stats_of_any_log(self, events):
        # Jobs under two cases, out of time order: projection keys by (case, job).
        for milestone in (PENDING, RUNNING, COMPLETED):
            traces = project_case_traces(CaseLog(events), milestone)
            want, _ = spec.traces(events, milestone)
            assert traces == want
            steps = [(s.at.fold, s.completed_at and s.completed_at.fold) for t in traces for s in t.steps]
            assert steps == [(s.at.fold, s.completed_at and s.completed_at.fold)
                             for t in want for s in t.steps]
        log = CaseLog(events)
        stats = compute_stats(log, extract_first_dependencies(log))
        assert render_stats(stats) == render_stats(spec.stats(events))
