"""The job event record, its CSV codec, and case log statistics.

One record, ``JobEvent``, flows through the whole pipeline: the observer
emits it with an empty ``case_id`` and correlation fills the case in. It is
a ``NamedTuple``, so building and copying one costs what a tuple costs. The
raw events file and the case log are two column layouts of one CSV codec.

The codec has one encoding, ``csv_line``'s, which every CSV file the package
writes is in, and one reader, ``csv.reader``, behind ``read_csv``. Events
have one writer, ``CsvEventSink``: it encodes a block of events at a time
with no Python call per event, and falls back to ``csv_line`` for a block
that needs quoting. ``write_csv`` is a sink fed a whole iterable.
"""

from __future__ import annotations

import enum
import sys
from datetime import datetime
from itertools import islice
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .snapshots import DependencySpec, parse_dependency_spec
from .timeutil import format_iso, parse_iso

# Marker for jobs first observed past PENDING, whose dependency view is gone.
LATE_DEPENDENCY = "(late)"


class EventKind(enum.Enum):
    CREATED = "created"
    STATE_CHANGED = "state_changed"
    SYNTHETIC_COMPLETED = "synthetic_completed"


class JobEvent(NamedTuple):
    """One observed job transition; compares equal to a plain tuple of its fields."""

    job_id: str
    account: str
    group: str
    activity: str
    state: str
    dependency_raw: str
    kind: EventKind
    timestamp: datetime
    case_id: str = ""


def with_case(event: JobEvent, case_id: str) -> JobEvent:
    """A copy of ``event`` with ``case_id`` set: one tuple copy.

    Same result as ``event._replace(case_id=case_id)`` without its per-field
    Python; ``case_id`` is the last field of ``JobEvent``.
    """
    return tuple.__new__(JobEvent, event[:-1] + (case_id,))


def _quoted(field: str) -> str:
    if "," in field or '"' in field or "\n" in field or "\r" in field:
        return '"' + field.replace('"', '""') + '"'
    return field


def csv_line(fields: Sequence[str]) -> str:
    """Encode one CSV row as a line ending in ``\\n``.

    A field holding a comma, a quote, CR or LF is quoted and its quotes are
    doubled; a row whose only field is empty is ``""``. These are the bytes
    ``csv.writer(lineterminator="\\n")`` writes on Python 3.13 (3.10-3.12
    leave a CR unquoted, and 3.10 refuses a NUL), and ``csv.reader`` reads
    them back. A row that needs no quoting costs one join.
    """
    line = ",".join(fields)
    # More commas than separators means a field holds one.
    if line.count(",") >= len(fields) or '"' in line or "\n" in line or "\r" in line:
        line = ",".join(map(_quoted, fields))
    elif not line:
        return '""\n'
    return line + "\n"


# CSV column -> (JobEvent field, attribute path of its text, decode). Every
# path but the timestamp's reads a string, so one attrgetter encodes a column
# without a Python call; ``_value_`` is what the enum's ``value`` property
# returns. A state is its squeue code, written and read back verbatim.
_COLUMNS = {
    "case_id": ("case_id", "case_id", str),
    "job_id": ("job_id", "job_id", str),
    "account": ("account", "account", str),
    "group": ("group", "group", str),
    "activity": ("activity", "activity", str),
    "state": ("state", "state", sys.intern),
    "lifecycle": ("state", "state", sys.intern),
    "event_kind": ("kind", "kind._value_", EventKind),
    "timestamp": ("timestamp", "timestamp", parse_iso),
    "dependency_raw": ("dependency_raw", "dependency_raw", str),
}

# The raw events file written by the observer.
EVENTS_CSV_HEADER = [
    "job_id",
    "account",
    "group",
    "activity",
    "state",
    "event_kind",
    "timestamp",
    "dependency_raw",
]

# The case log written by correlation.
CSV_HEADER = [
    "case_id",
    "activity",
    "lifecycle",
    "event_kind",
    "timestamp",
    "job_id",
    "account",
    "group",
    "dependency_raw",
]


class EventLogError(Exception):
    pass


class SchemaMismatch(EventLogError):
    def __init__(self, header) -> None:
        super().__init__(f"unexpected CSV header: {header}")
        self.header = header


class BadTimestamp(EventLogError):
    def __init__(self, row_number: int, value: str) -> None:
        super().__init__(f"bad timestamp {value!r} in row {row_number}")
        self.row_number = row_number
        self.value = value


class MalformedCsv(EventLogError):
    def __init__(self, row_number: int, reason: str) -> None:
        super().__init__(f"malformed CSV in row {row_number}: {reason}")
        self.row_number = row_number


class CaseLog:
    """Case-stamped events; ``apply_cases`` sorts them by case, time and job id."""

    __slots__ = ("events",)

    def __init__(self, events: list[JobEvent]) -> None:
        self.events = events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[JobEvent]:
        return iter(self.events)

    def job_ids(self) -> set[str]:
        return {e.job_id for e in self.events}


# Events encoded per block by ``CsvEventSink.extend``: one text and one ``write`` each.
WRITE_BLOCK = 256

_get_fold = attrgetter("fold")


class _StampTexts(dict):
    """Timestamp text by ``(instant, fold)``, formatted on first lookup."""

    __slots__ = ()

    def __missing__(self, key: tuple[datetime, int]) -> str:
        text = self[key] = format_iso(key[0])
        return text


class CsvEventSink:
    """The one event writer: writes events under ``header`` a block at a time.

    ``append`` holds events while they share one timestamp object, as the
    events of one poll do, and writes them as one block when the next poll's
    first event arrives or on ``close``, also when an exception is on its way
    out. ``extend`` writes ``WRITE_BLOCK`` events per block. A block is
    encoded column by column with no Python call per event, and again row by
    row with ``csv_line`` if a field needs quoting. ``header`` must hold a
    ``"timestamp"`` column. ``rows`` counts the data rows written.
    """

    def __init__(self, destination, header: list[str] = EVENTS_CSV_HEADER) -> None:
        self._getters = [attrgetter(_COLUMNS[name][1]) for name in header]
        self._at = header.index("timestamp")
        self._separators = len(header) - 1
        self._own = isinstance(destination, (str, Path))
        self._fh = (
            open(destination, "w", encoding="utf-8", newline="") if self._own else destination
        )
        self._write = self._fh.write
        self._write(csv_line(header))
        self._held: list[JobEvent] = []
        self.rows = 0

    def append(self, event: JobEvent) -> None:
        if self._held and event.timestamp is not self._held[0].timestamp:
            self._flush()
        self._held.append(event)

    def extend(self, events: Iterable[JobEvent]) -> None:
        self._flush()
        # Timestamp texts are kept for the call, which costs no more than
        # the events a caller holds in memory.
        texts = _StampTexts()
        pending = iter(events)
        while block := list(islice(pending, WRITE_BLOCK)):
            self._write_block(block, texts)

    def _flush(self) -> None:
        if self._held:
            # Taken before writing, so a failed write is not tried again on close.
            block, self._held = self._held, []
            self._write_block(block, _StampTexts())

    def _rows(self, block: list[JobEvent], texts: _StampTexts) -> Iterator[tuple[str, ...]]:
        columns = [map(get, block) for get in self._getters]
        stamps = list(map(self._getters[self._at], block))
        columns[self._at] = map(texts.__getitem__, zip(stamps, map(_get_fold, stamps)))
        return zip(*columns)

    def _write_block(self, block: list[JobEvent], texts: _StampTexts) -> None:
        text = "\n".join(map(",".join, self._rows(block, texts))) + "\n"
        # Only a field holding a comma, LF, quote or CR needs quoting; a block
        # has none when its separators and line ends are all there is. (No
        # row is one empty field: the timestamp is never empty.)
        if (
            text.count(",") != len(block) * self._separators
            or text.count("\n") != len(block)
            or '"' in text
            or "\r" in text
        ):
            text = "".join(map(csv_line, self._rows(block, texts)))
        self._write(text)
        self.rows += len(block)

    def close(self) -> None:
        try:
            self._flush()
        finally:
            if self._own:
                self._fh.close()

    def __enter__(self) -> "CsvEventSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_csv(events: Iterable[JobEvent], destination, header: list[str] = CSV_HEADER) -> int:
    """Write ``events`` under ``header`` through a ``CsvEventSink``; returns the rows written."""
    with CsvEventSink(destination, header) as sink:
        sink.extend(events)
    return sink.rows


def read_csv(source, header: list[str] = CSV_HEADER) -> CaseLog:
    """Read a file written by ``write_csv`` or a ``CsvEventSink`` with the same header."""
    # Each decoded column keeps a memo of the texts seen in this call: every
    # event of a snapshot shares one timestamp, and states and kinds are few.
    decoded = [
        (i, _COLUMNS[name][0], _COLUMNS[name][2], {})
        for i, name in enumerate(header)
        if _COLUMNS[name][2] is not str
    ]
    # Columns in JobEvent field order; a field the header lacks keeps its
    # default, so it must come after every field the header has.
    column_of = {_COLUMNS[name][0]: i for i, name in enumerate(header)}
    in_field_order = itemgetter(
        *(column_of[name] for name in JobEvent._fields if name in column_of)
    )
    import csv  # only reading a CSV file back needs its reader

    own = isinstance(source, (str, Path))
    fh = open(source, encoding="utf-8", newline="") if own else source
    # The last row read whole; a csv.Error names the row after it.
    row_number = 0
    try:
        rows = enumerate(csv.reader(fh), start=1)
        row_number, found = next(rows, (1, None))
        if found != header:
            raise SchemaMismatch(found)
        events = []
        for row_number, row in rows:
            if len(row) != len(header):
                raise MalformedCsv(row_number, f"{len(row)} fields, expected {len(header)}")
            for i, name, decode, memo in decoded:
                text = row[i]
                value = memo.get(text)
                if value is None:
                    try:
                        value = memo[text] = decode(text)
                    except ValueError:
                        if name != "timestamp":
                            raise
                        raise BadTimestamp(row_number, text) from None
                row[i] = value
            events.append(JobEvent(*in_field_order(row)))
        return CaseLog(events)
    except csv.Error as exc:
        raise MalformedCsv(row_number + 1, str(exc)) from None
    finally:
        if own:
            fh.close()


def read_events_csv(source) -> list[JobEvent]:
    """Read a raw events file written by the observer."""
    return read_csv(source, EVENTS_CSV_HEADER).events


def extract_first_dependencies(events: Iterable[JobEvent]) -> dict[str, DependencySpec]:
    """Recover each job's first-sight dependency view from its creation event.

    Works on the observer's event stream and on a case log alike: both keep
    each job's events in time order, so a job's first event is its creation.
    """
    first_deps: dict[str, DependencySpec] = {}
    for event in events:
        if event.job_id in first_deps:
            continue
        if event.kind == EventKind.CREATED and event.dependency_raw != LATE_DEPENDENCY:
            first_deps[event.job_id] = parse_dependency_spec(event.dependency_raw)
        else:
            first_deps[event.job_id] = DependencySpec()
    return first_deps


first_dependencies_from_log = extract_first_dependencies


class LogStats(NamedTuple):
    num_events: int
    num_unique_jobs: int
    num_accounts: int
    pct_accounts_explicit: float
    pct_jobs_explicit: float
    window: tuple[datetime, datetime] | None


def compute_stats(log: CaseLog, first_deps: Mapping[str, DependencySpec]) -> LogStats:
    """Summarize the log: counts, explicit-dependency fractions, time window.

    CPU/RAM averages are out of scope: the six observed queue columns carry
    no resource fields.
    """
    if not log.events:
        return LogStats(0, 0, 0, 0.0, 0.0, None)
    jobs = log.job_ids()
    accounts = {e.account for e in log.events}
    job_account = {e.job_id: e.account for e in log.events}
    explicit_jobs = {
        j for j in jobs if not first_deps.get(j, DependencySpec()).is_empty
    }
    explicit_accounts = {job_account[j] for j in explicit_jobs}
    timestamps = [e.timestamp for e in log.events]
    return LogStats(
        num_events=len(log.events),
        num_unique_jobs=len(jobs),
        num_accounts=len(accounts),
        pct_accounts_explicit=len(explicit_accounts) / len(accounts),
        pct_jobs_explicit=len(explicit_jobs) / len(jobs),
        window=(min(timestamps), max(timestamps)),
    )


_STATS_LABELS = [
    "Number of events",
    "Number of unique submitted jobs",
    "Number of accounts",
    "Percentage of accounts who submitted jobs with explicit interdependencies",
    "Percentage of jobs defined with explicit interdependencies",
    "Observation window",
]


def render_stats(stats: LogStats) -> str:
    """Render the statistics as an aligned two-column text block."""
    if stats.window is None:
        window = "-"
    else:
        window = f"{format_iso(stats.window[0])} .. {format_iso(stats.window[1])}"
    values = [
        str(stats.num_events),
        str(stats.num_unique_jobs),
        str(stats.num_accounts),
        f"{stats.pct_accounts_explicit * 100:.2f}%",
        f"{stats.pct_jobs_explicit * 100:.2f}%",
        window,
    ]
    width = max(len(label) for label in _STATS_LABELS)
    lines = [
        f"{label.ljust(width)}  {value}" for label, value in zip(_STATS_LABELS, values)
    ]
    return "\n".join(lines)
