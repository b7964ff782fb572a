import csv
import io
import random
from dataclasses import fields, replace
from datetime import datetime, timezone

import pytest

from conftest import random_case_log, replay_events
from hpcmine import simulator
from hpcmine.correlation import (
    apply_cases,
    assign_cases_explicit,
    build_dependency_graph,
    extract_first_dependencies,
)
from hpcmine.eventlog import (
    _COLUMNS,
    CSV_HEADER,
    EVENTS_CSV_HEADER,
    BadTimestamp,
    CaseLog,
    EventKind,
    JobEvent,
    SchemaMismatch,
    CsvEventSink,
    compute_stats,
    first_dependencies_from_log,
    read_csv,
    render_stats,
    with_case,
    write_csv,
)
from hpcmine.snapshots import PENDING, JobState


def roundtrip(log):
    buffer = io.StringIO()
    rows = write_csv(log, buffer)
    buffer.seek(0)
    return rows, read_csv(buffer)


class TestWithCase:
    # A non-default value for every JobEvent field. A field added to the
    # record fails this test by name until it is added here and to with_case.
    SAMPLE = {
        "job_id": "17",
        "account": "acct",
        "group": "grp",
        "activity": "step.sh",
        "state": JobState("other", "F"),
        "dependency_raw": "afterok:16",
        "kind": EventKind.SYNTHETIC_COMPLETED,
        "timestamp": datetime(2023, 5, 1, 12, 30, tzinfo=timezone.utc),
        "case_id": "old",
    }

    def test_copies_every_field(self):
        event = JobEvent(**{f.name: self.SAMPLE[f.name] for f in fields(JobEvent)})
        assert with_case(event, "new") == replace(event, case_id="new")


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
        assert back.events == [event]

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
            state=JobState.from_code("XX"),
            kind=EventKind.STATE_CHANGED,
            timestamp=datetime(2024, 1, 1, tzinfo=timezone.utc),
            job_id="1_2",
            account="acc,1",
            group='g"g',
            dependency_raw="afterok:1,afterany:2",
        )
        _, back = roundtrip(CaseLog([event]))
        assert back.events == [event]

    def test_randomized_logs(self):
        rng = random.Random(42)
        for _ in range(50):
            log = random_case_log(rng)
            rows, back = roundtrip(log)
            assert rows == len(log.events)
            assert back.events == log.events

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


def _reference_read_csv(source, header=CSV_HEADER):
    # The per-row decode the memoised reader replaced: a field dict and a
    # full decode of every cell.
    decoders = [(_COLUMNS[name][0], _COLUMNS[name][2]) for name in header]
    reader = csv.reader(source)
    found = next(reader, None)
    if found != header:
        raise SchemaMismatch(found)
    events = []
    for row_number, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise SchemaMismatch(row)
        values = {}
        for (name, decode), text in zip(decoders, row):
            try:
                values[name] = decode(text)
            except ValueError:
                if name != "timestamp":
                    raise
                raise BadTimestamp(row_number, text) from None
        events.append(JobEvent(**values))
    return CaseLog(events)


def _read_outcome(read, text, header):
    try:
        return read(io.StringIO(text), header).events
    except BadTimestamp as exc:
        return ("BadTimestamp", exc.row_number, exc.value)
    except SchemaMismatch as exc:
        return ("SchemaMismatch", exc.header)


class TestReadCsvMatchesPerRowDecode:
    def test_case_log_round_trips(self):
        rng = random.Random(7)
        for _ in range(30):
            buffer = io.StringIO()
            write_csv(random_case_log(rng, n_cases=6), buffer)
            text = buffer.getvalue()
            assert _read_outcome(read_csv, text, CSV_HEADER) == _read_outcome(
                _reference_read_csv, text, CSV_HEADER
            )

    def test_events_file_round_trip(self):
        events = [with_case(e, "") for e in random_case_log(random.Random(8)).events]
        buffer = io.StringIO()
        with CsvEventSink(buffer) as sink:
            for event in events:
                sink.append(event)
        text = buffer.getvalue()
        assert _read_outcome(read_csv, text, EVENTS_CSV_HEADER) == events
        assert _read_outcome(_reference_read_csv, text, EVENTS_CSV_HEADER) == events

    def test_unknown_state_code_decodes_alike(self):
        # The state code "created" is also an event kind's text: each column
        # decodes it on its own.
        text = (
            ",".join(CSV_HEADER) + "\n"
            + "c,a,created,created,2024-01-01T00:00:00Z,1,acc,g,(null)\n"
            + "c,a,created,state_changed,2024-01-01T00:00:00Z,1,acc,g,(null)\n"
        )
        events = _read_outcome(read_csv, text, CSV_HEADER)
        assert events == _read_outcome(_reference_read_csv, text, CSV_HEADER)
        assert events[0].state == JobState("other", "created")
        assert events[0].kind == EventKind.CREATED

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
        outcome = _read_outcome(read_csv, text, CSV_HEADER)
        assert outcome == _read_outcome(_reference_read_csv, text, CSV_HEADER)
        assert outcome[0] in {"BadTimestamp", "SchemaMismatch"}
        if outcome[0] == "BadTimestamp":
            assert outcome[1] == 3


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
        events, _ = replay_events(result)
        graph = build_dependency_graph(events, extract_first_dependencies(events))
        log = apply_cases(events, assign_cases_explicit(graph))
        stats = compute_stats(log, extract_first_dependencies(events))
        assert stats.num_events == 16
        assert stats.num_unique_jobs == 4
        assert stats.num_accounts == 1
        assert stats.pct_jobs_explicit == pytest.approx(0.75)
        assert stats.pct_accounts_explicit == pytest.approx(1.0)

    def test_invariant_under_reordering(self):
        log = random_case_log(random.Random(3))
        first_deps = first_dependencies_from_log(log)
        reordered = CaseLog(list(reversed(log.events)))
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
