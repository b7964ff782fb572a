"""The job event record, the columnar event log, its CSV codec and statistics.

One record, ``JobEvent``, is what the observer emits, with an empty
``case_id``, and what iterating a log gives. It is a ``NamedTuple``, so
building and copying one costs what a tuple costs. A ``CaseLog`` holds
events as columns: per event and field, a code into a small table of the
field's distinct values, one byte or four, where a ``JobEvent`` in a list
takes 120 bytes an event. Every stage from correlation on takes a log and
reads its columns. The raw events file and the case log are two column
layouts of one CSV codec.

The codec has one encoding, ``csv_line``'s, which every CSV file the package
writes is in, and one reader, ``csv.reader``, behind ``read_csv``. Events
have one writer, ``CsvEventSink``: it encodes a block of events at a time
with no Python call per event, and falls back to ``csv_line`` for a block
that needs quoting; a ``CaseLog`` it writes from the columns, each table
value encoded once. ``write_csv`` is a sink fed a whole iterable.
"""

from __future__ import annotations

import enum
import sys
from array import array
from collections import deque
from datetime import datetime
from itertools import compress, count, filterfalse, islice, repeat
from operator import add, attrgetter, itemgetter, mod, mul, setitem
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .snapshots import dependency_targets
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


# CSV column -> (JobEvent field, attribute path of its text, decode to what a
# CaseLog's table holds). Every path but the timestamp's reads a string, so
# one attrgetter encodes a column without a Python call; ``_value_`` is what
# the enum's ``value`` property returns. A state is its squeue code, written
# and read back verbatim.
_COLUMNS = {
    "case_id": ("case_id", "case_id", str),
    "job_id": ("job_id", "job_id", str),
    "account": ("account", "account", str),
    "group": ("group", "group", str),
    "activity": ("activity", "activity", str),
    "state": ("state", "state", sys.intern),
    "lifecycle": ("state", "state", sys.intern),
    "event_kind": ("kind", "kind._value_", lambda text: EventKind(text)._value_),
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


# Events folded into a ``CaseLog`` per block, CSV rows read per block, and
# positions gathered per block.
FOLD_BLOCK = 1024
# Events ``CaseLog.stamp`` sorts in one call, at least: whole cases, so a
# group may hold more. A smaller group holds fewer sort keys at a time.
_SORT_GROUP = 256

_get_fold = attrgetter("fold")
_get_value = attrgetter("_value_")  # an EventKind's text, hashed in C, unlike the member


def _taker(positions: Sequence[int]):
    """A function that gives the items of a sequence at ``positions`` as a
    tuple, with no Python call per item."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return lambda values: tuple(map(values.__getitem__, positions))


def _gathered(values: Sequence, positions: Sequence[int]) -> tuple:
    """The items of ``values`` at ``positions``, with no Python call per item."""
    return _taker(positions)(values)


def _last(size: int, keys: Iterable[int], values: Iterable[int]) -> array:
    """For each code below ``size``, the value paired with its last
    occurrence in ``keys``, or -1; with no Python call per key."""
    last = array("i", [-1]) * size
    deque(map(setitem, repeat(last), keys, values), maxlen=0)
    return last


def _ranks(column: _Column) -> array:
    """The rank of each value of ``column``'s table in sorted order."""
    return _last(len(column.table), map(column.index.__getitem__, sorted(column.table)), count())


class _Column:
    """One column of a ``CaseLog``: a code per event into ``table``, the
    column's distinct values in first-seen order (``index`` maps a value to
    its code). Tables only grow, so columns taken from one share them.
    Codes take one byte, in a ``bytearray``, while the table holds at most
    256 values, and four beyond: an ``array`` of another width fills at
    half the speed."""

    __slots__ = ("codes", "table", "index")

    def __init__(self, codes=None, table: list | None = None, index=None) -> None:
        self.codes = bytearray() if codes is None else codes
        self.table: list = [] if table is None else table
        self.index: dict = {} if index is None else index

    def fold(self, *parts: Sequence) -> None:
        """Append the codes of the values of ``parts``, one part's items or the
        tuples zipped from several parts', with no Python call per value."""
        values = (lambda: zip(*parts)) if len(parts) > 1 else (lambda: parts[0])
        size = len(self.codes)
        try:
            self.codes.extend(map(self.index.__getitem__, values()))
        except KeyError:  # new values: give them codes and start again
            del self.codes[size:]
            fresh = list(filterfalse(self.index.__contains__, dict.fromkeys(values())))
            self.index.update(zip(fresh, count(len(self.table))))
            self.table += fresh
            if len(self.table) > 256 and type(self.codes) is bytearray:
                self.codes = array("I", iter(self.codes))  # not its raw bytes
            self.codes.extend(map(self.index.__getitem__, values()))

    def taken(self, positions: Sequence[int]) -> _Column:
        """The codes at ``positions``, over the same table."""
        column = _Column(self.codes[:0], self.table, self.index)
        for start in range(0, len(positions), FOLD_BLOCK):
            column.codes.extend(_gathered(self.codes, positions[start : start + FOLD_BLOCK]))
        return column


_LOG_COLUMNS = ("job", "triple", "state", "dep", "kind", "at", "case")  # case last: stamp makes it anew
# JobEvent field -> (CaseLog column, position of the field in the column's values).
_FIELDS = {
    "job_id": ("job", None), "account": ("triple", 0), "group": ("triple", 1),
    "activity": ("triple", 2), "state": ("state", None), "dependency_raw": ("dep", None),
    "kind": ("kind", None), "timestamp": ("at", None), "case_id": ("case", None),
}


class CaseLog:
    """Events as columns: per event, a code into each of seven small tables.

    The tables hold the distinct job ids, (account, group, activity) triples,
    states, dependency texts, kind texts, instants and case ids of the log;
    a code takes one byte while its table holds at most 256 values, and four
    beyond. An instant is a time, or ``(time, 1)`` on the second side of a
    DST fold: the two sides hash and compare equal, but are an hour apart.
    Iterating gives the events as ``JobEvent``s in log order, and
    ``CaseLog(events)`` takes them.

    ``job_cases`` is set while each job has one case and the log is sorted
    by case, time and job id, as ``stamp`` leaves it: each job code's case code.
    """

    __slots__ = _LOG_COLUMNS + ("job_cases",)

    def __init__(self, events: Iterable[JobEvent] = ()) -> None:
        self.job = _Column()
        self.triple = _Column()
        self.state = _Column()
        self.dep = _Column()
        self.kind = _Column()
        self.at = _Column()
        self.case = _Column()
        self.job_cases: array | None = None
        self.extend(events)

    def extend(self, events: Iterable[JobEvent]) -> None:
        """Append ``events``, ``FOLD_BLOCK`` at a time, with no Python call per event."""
        pending = iter(events)
        while block := list(islice(pending, FOLD_BLOCK)):
            *fields, kinds, stamps, case_ids = zip(*block)
            if any(map(_get_fold, stamps)):
                stamps = [(at, 1) if at.fold else at for at in stamps]
            self._fold(*fields, list(map(_get_value, kinds)), stamps, case_ids)

    def _fold(self, job_ids, accounts, groups, activities, states, deps, kinds, instants, case_ids):
        self.job_cases = None
        self.job.fold(job_ids)
        self.triple.fold(accounts, groups, activities)
        self.state.fold(states)
        self.dep.fold(deps)
        self.kind.fold(kinds)
        self.at.fold(instants)
        self.case.fold(case_ids)

    def __len__(self) -> int:
        return len(self.job.codes)

    def __iter__(self) -> Iterator[JobEvent]:
        fields = [map(values.__getitem__, codes) for values, codes in map(self.field, JobEvent._fields)]
        return map(tuple.__new__, repeat(JobEvent), zip(*fields))

    def field(self, name: str) -> tuple[list, Sequence[int]]:
        """The values of ``JobEvent`` field ``name`` by code, and its codes."""
        column, part = _FIELDS[name]
        column = getattr(self, column)
        if name == "timestamp":
            return [key[0] if type(key) is tuple else key for key in column.table], column.codes
        if name == "kind":
            return list(map(EventKind, column.table)), column.codes
        if part is None:
            return column.table, column.codes
        return [value[part] for value in column.table], column.codes

    def job_ids(self) -> set[str]:
        return set(map(self.job.table.__getitem__, set(self.job.codes)))

    def by_job(self, codes: Iterable[int]) -> array:
        """For each job code, the code in ``codes`` of its last event, or -1."""
        return _last(len(self.job.table), self.job.codes, codes)

    def time_ranks(self) -> list[int]:
        """The rank of each instant code in time order; times that compare equal share one."""
        stamps = self.field("timestamp")[0]
        ranks = [0] * len(stamps)
        rank, last = -1, None
        for code in sorted(range(len(stamps)), key=stamps.__getitem__):
            if rank < 0 or stamps[code] != last:
                rank, last = rank + 1, stamps[code]
            ranks[code] = rank
        return ranks

    def stamp(self, case_ids: Sequence[str]) -> None:
        """Give each job the case id ``case_ids`` holds at its code, and sort
        the log in place by case, time and job id; equal events keep their order.

        Positions go into a bucket per case. A few whole cases at a time are
        sorted as plain integers, each event's (case, time, job) ranks and
        position in mixed radix, and their codes appended to the new columns:
        no list as long as the log is made.
        """
        cases = _Column()
        cases.fold(case_ids)
        case_ranks = _ranks(cases)
        job_case_ranks = list(map(case_ranks.__getitem__, cases.codes))
        buckets = [array("I") for _ in cases.table]
        by_case = map(buckets.__getitem__, map(job_case_ranks.__getitem__, self.job.codes))
        deque(map(array.append, by_case, count()), maxlen=0)
        size = len(self)
        time_ranks = self.time_ranks()
        case_radix = (max(time_ranks, default=0) + 1) * len(case_ids)
        job_keys = array("Q", map(add, map(mul, job_case_ranks, repeat(case_radix)), _ranks(self.job)))
        time_keys = array("Q", map(mul, time_ranks, repeat(len(case_ids))))
        old = [getattr(self, name) for name in _LOG_COLUMNS[:-1]]
        new = [_Column(column.codes[:0], column.table, column.index) for column in old]
        group = array("I")
        for rank, bucket in enumerate(buckets):
            group += bucket
            buckets[rank] = None  # dropped once its group holds it
            if len(group) >= _SORT_GROUP or rank == len(buckets) - 1:
                keys = map(
                    add,
                    _gathered(job_keys, _gathered(self.job.codes, group)),
                    _gathered(time_keys, _gathered(self.at.codes, group)),
                )
                keys = sorted(map(add, map(mul, keys, repeat(size)), group))
                take = _taker(list(map(mod, keys, repeat(size))))
                del keys
                for column, part in zip(new, old):
                    column.codes.extend(take(part.codes))
                group = array("I")
        for name, column in zip(_LOG_COLUMNS, new):
            setattr(self, name, column)
        self.case = cases.taken(self.job.codes)
        self.job_cases = cases.codes

    def earliest(self, *flags: bytes) -> tuple[Sequence[int], Sequence[int], array, list[array]]:
        """Each (case, job) pair's first event, and its earliest of each of ``flags``.

        A flag is a byte per event, in log order. Returns the case code and
        the job code of each pair, each pair's first event in log order or
        -1, and per flag, each pair's earliest flagged event (the first in
        log order among equal times) or -1. A pair may have no event, as a
        log shares its job table with the log it was taken from.
        """
        if self.job_cases is not None:  # each job's events come in time order
            pairs, positions = self.job.codes, range(len(self))
            cases, jobs = self.job_cases, range(len(self.job.table))
        else:
            column = _Column()
            column.fold(self.case.codes, self.job.codes)
            cases, jobs = ([pair[i] for pair in column.table] for i in (0, 1))
            ranks = self.time_ranks()
            time_of = list(map(ranks.__getitem__, self.at.codes))
            positions = sorted(range(len(self)), key=time_of.__getitem__)
            pairs = _gathered(column.codes, positions)
            flags = tuple(_gathered(flag, positions) for flag in flags)
        # Going backwards, a pair's earliest event is written last.
        firsts = [
            _last(len(cases), compress(reversed(pairs), reversed(f)), compress(reversed(positions), reversed(f)))
            for f in flags
        ]
        return cases, jobs, _last(len(cases), reversed(pairs), reversed(positions)), firsts

    def for_account(self, account: str) -> CaseLog:
        """The events of ``account``, in log order."""
        mine = [triple[0] == account for triple in self.triple.table]
        positions = array("I", compress(count(), map(mine.__getitem__, self.triple.codes)))
        log = CaseLog.__new__(CaseLog)
        for name in _LOG_COLUMNS:
            setattr(log, name, getattr(self, name).taken(positions))
        log.job_cases = self.job_cases
        return log


# Events encoded per block by ``CsvEventSink.extend``: one text and one ``write`` each.
WRITE_BLOCK = 256


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
    row with ``csv_line`` if a field needs quoting; a ``CaseLog`` is encoded
    from its tables, each value once. ``header`` must hold a ``"timestamp"``
    column. ``rows`` counts the data rows written.
    """

    def __init__(self, destination, header: list[str] = EVENTS_CSV_HEADER) -> None:
        self._fields = [_COLUMNS[name][0] for name in header]
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
        if isinstance(events, CaseLog):
            self._write_log(events)
            return
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

    def _write_log(self, log: CaseLog) -> None:
        # Each table value is quoted as csv_line would, so a row is one join.
        columns = []
        for field in self._fields:
            values, codes = log.field(field)
            if field == "timestamp":
                values = map(format_iso, values)
            elif field == "kind":
                values = log.kind.table
            columns.append(map(list(map(_quoted, values)).__getitem__, codes))
        rows = map(",".join, zip(*columns))
        while block := list(islice(rows, WRITE_BLOCK)):
            self._write("\n".join(block) + "\n")
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
    import csv  # only reading a CSV file back needs its reader

    own = isinstance(source, (str, Path))
    fh = open(source, encoding="utf-8", newline="") if own else source
    log = CaseLog()
    # Per decoded column, the value of each text read: every event of a
    # snapshot shares one timestamp, and states and kinds are few.
    memos: dict[str, dict] = {name: {} for name in header if _COLUMNS[name][2] is not str}
    # The last row read whole; a csv.Error names the row after it.
    row_number = 0
    try:
        rows = csv.reader(fh)
        found = next(rows, None)
        row_number = 1
        if found != header:
            raise SchemaMismatch(found)
        while True:
            block: list[list[str]] = []
            try:
                block.extend(islice(rows, FOLD_BLOCK))
            finally:
                # Also the rows before a csv.Error: one of them may be bad too.
                _fold_rows(log, block, row_number + 1, header, memos)
                row_number += len(block)
            if len(block) < FOLD_BLOCK:
                return log
    except csv.Error as exc:
        raise MalformedCsv(row_number + 1, str(exc)) from None
    finally:
        if own:
            fh.close()


def _fold_rows(log: CaseLog, rows: list[list[str]], first: int, header: list[str], memos) -> None:
    """Fold CSV ``rows``, the first of them row number ``first``, into ``log``;
    if one is bad, raise the error of the first: a wrong field count, or the
    first field, in header order, that its column cannot decode."""
    try:
        if rows and set(map(len, rows)) != {len(header)}:
            raise ValueError
        fields = {}
        for name, texts in zip(header, zip(*rows) if rows else repeat(())):
            if name in memos:
                memo = memos[name]
                fresh = list(filterfalse(memo.__contains__, dict.fromkeys(texts)))
                memo.update(zip(fresh, map(_COLUMNS[name][2], fresh)))
                texts = tuple(map(memo.__getitem__, texts))
            fields[_COLUMNS[name][0]] = texts
    except ValueError:
        for number, row in enumerate(rows, first):
            if len(row) != len(header):
                raise MalformedCsv(number, f"{len(row)} fields, expected {len(header)}") from None
            for name, text in zip(header, row):
                try:
                    _COLUMNS[name][2](text)
                except ValueError:
                    if name == "timestamp":
                        raise BadTimestamp(number, text) from None
                    raise MalformedCsv(number, f"unknown {name} {text!r}") from None
    log._fold(*(fields.get(name, ("",) * len(rows)) for name in JobEvent._fields))


def read_events_csv(source) -> CaseLog:
    """Read a raw events file written by the observer."""
    return read_csv(source, EVENTS_CSV_HEADER)


def extract_first_dependencies(log: CaseLog) -> dict[str, tuple[str, ...]]:
    """Map each job that declares a dependency at first sight to its targets.

    A job is in the map when its first event is a creation that shows its
    DEPENDENCY column (not ``(late)``) and the column declares something
    (see ``snapshots.dependency_targets``); the targets may be ().

    Works on the observer's events and on a case log alike: both keep each
    job's events in time order, so a job's first event is its creation.
    """
    jobs, job_codes = log.field("job_id")
    deps, dep_codes = log.field("dependency_raw")
    kind_codes = log.kind.codes
    created = log.kind.index.get(EventKind.CREATED._value_)
    late = log.dep.index.get(LATE_DEPENDENCY)
    # Going backwards, each job's first position is written last.
    first = _last(len(jobs), reversed(job_codes), count(len(job_codes) - 1, -1))
    first_deps: dict[str, tuple[str, ...]] = {}
    for at in first:
        if at >= 0 and kind_codes[at] == created and dep_codes[at] != late:
            targets = dependency_targets(deps[dep_codes[at]])
            if targets is not None:
                first_deps[jobs[job_codes[at]]] = targets
    return first_deps


# Read by perfbench/traced.py.
first_dependencies_from_log = extract_first_dependencies


class LogStats(NamedTuple):
    num_events: int
    num_unique_jobs: int
    num_accounts: int
    pct_accounts_explicit: float
    pct_jobs_explicit: float
    window: tuple[datetime, datetime] | None


def compute_stats(log: CaseLog, first_deps: Mapping[str, tuple[str, ...]]) -> LogStats:
    """Summarize the log: counts, explicit-dependency fractions, time window.

    CPU/RAM averages are out of scope: the six observed queue columns carry
    no resource fields.
    """
    if not len(log):
        return LogStats(0, 0, 0, 0.0, 0.0, None)
    jobs = log.job.table
    accounts, triple_codes = log.field("account")
    last = log.by_job(triple_codes)  # each job's last event's triple, or -1
    explicit = [code for job, code in enumerate(last) if code >= 0 and jobs[job] in first_deps]
    all_accounts = set(map(accounts.__getitem__, set(triple_codes)))
    num_jobs = len(last) - last.count(-1)
    # Each instant once, in log order, so min() and max() pick among times
    # that compare equal the one a pass over the events would.
    stamps, at_codes = log.field("timestamp")
    times = list(map(stamps.__getitem__, dict.fromkeys(at_codes)))
    return LogStats(
        num_events=len(log),
        num_unique_jobs=num_jobs,
        num_accounts=len(all_accounts),
        pct_accounts_explicit=len({accounts[code] for code in explicit}) / len(all_accounts),
        pct_jobs_explicit=len(explicit) / num_jobs,
        window=(min(times), max(times)),
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
