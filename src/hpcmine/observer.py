"""Queue observation: snapshot acquisition, diffing, and event registration.

Each polling round compares the current snapshot against the retained
per-job state. A job id never seen before yields a creation event; a known
job with a changed state yields a state-change event; an unchanged job
yields nothing. Jobs that leave the queue receive a synthetic completion
event so downstream models get terminal timestamps. ``diff_snapshot`` and
``finalize_vanished`` update the ``ObserverState`` in place and return only
the events they register. Every event of a round is stamped with the
snapshot's observation time, which both take as an argument: a parsed row
carries no time, so an unchanged line can be the same row in every round.
When the rows say what changed since the round before, as ``parse_snapshot``'s
do on a large queue, both visit only that.

A snapshot source yields ``snapshots.Snapshot``s: ``ReplayDirectorySource``
reads the files that ``snapshots.write_snapshot_file`` writes, and
``CommandSource`` polls ``squeue``.
"""

from __future__ import annotations

import os
import sys
import time as _time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Protocol

# CsvEventSink and read_events_csv are re-exported: perfbench/traced.py reads them here.
from .eventlog import (
    LATE_DEPENDENCY,
    CsvEventSink,
    EventKind,
    JobEvent,
    read_events_csv,
)
from .snapshots import COMPLETED, PENDING, JobRow, MalformedRow, SnapshotRows, normalize_command
from .snapshots import DEFAULT_INTERVAL_SECONDS, DEFAULT_SQUEUE_COMMAND, Snapshot, parse_snapshot
from .snapshots import _O_BINARY, SNAPSHOT_FILE_PREFIX, SNAPSHOT_FILE_SUFFIX, is_snapshot_filename
from .timeutil import parse_basic


class ObserverError(Exception):
    pass


class OutOfOrderSnapshot(ObserverError):
    """A snapshot's observation time regressed below its predecessor's."""


class SourceFailure(ObserverError):
    """The snapshot source failed; already-produced events were kept."""


class TrackedJob:
    """What the observer keeps about one job; updated in place."""

    __slots__ = ("state", "account", "group", "activity", "first_seen")

    def __init__(
        self, state: str, account: str, group: str, activity: str, first_seen: int
    ) -> None:
        self.state = state
        self.account = account
        self.group = group
        self.activity = activity
        self.first_seen = first_seen  # position of the job in first-seen order


class ObserverState:
    """Retained per-job view, updated in place by each polling round.

    ``jobs`` holds every job ever seen, in first-seen order. ``active`` holds
    the same records for the jobs not yet COMPLETED, so a round's cost grows
    with the queue and not with the history. A job leaves ``active`` when it
    completes and returns when a stale row shows it in another state.

    The state also remembers the rows of the last round that both
    ``diff_snapshot`` and ``finalize_vanished`` saw, until a diff takes the
    full path, so that a round whose ``SnapshotRows`` continue them only
    visits what changed. A deep copy or an unpickled state holds rows that no
    parse continues, so its next round takes the full path.
    """

    __slots__ = ("jobs", "active", "_settled", "_diffed")

    def __init__(self) -> None:
        self.jobs: dict[str, TrackedJob] = {}
        self.active: dict[str, TrackedJob] = {}
        self._diffed: list[JobRow] | None = None  # the rows of the last diff
        self._settled: list[JobRow] | None = None  # rows diffed, then finalized


def diff_snapshot(
    state: ObserverState, rows: list[JobRow], observed_at: datetime
) -> list[JobEvent]:
    """Register events for one snapshot, observed at ``observed_at``.

    Updates ``state`` in place and returns the events, each stamped with
    ``observed_at``, in row order. An unchanged row costs one lookup and one
    state comparison, so a call is O(rows). When ``rows`` is a
    ``SnapshotRows`` that continues the rows this state last diffed and
    finalized, only its fresh rows are visited, so the call is O(fresh): every
    other row repeats its job's line, and so its job's state, from that poll.

    A creation event carries the job's dependency column as first seen. The
    column is only trustworthy while the job is PENDING, so a job first seen
    in a later state carries the "(late)" marker instead. A new job's activity
    is interned, so the jobs of one command share one string.
    """
    # The rows this state last diffed and then finalized, with no full diff since.
    continued = type(rows) is SnapshotRows and rows.continues is state._settled is not None
    state._diffed = rows
    if not continued:
        state._settled = None
    events: list[JobEvent] = []
    new_event = tuple.__new__  # skips the Python-level JobEvent.__new__
    jobs = state.jobs
    active = state.active
    for row in rows.fresh if continued else rows:
        tracked = jobs.get(row.job_id)
        if tracked is None:
            activity = sys.intern(normalize_command(row.command_path))
            dep_raw = row.dependency_raw if row.state == PENDING else LATE_DEPENDENCY
            tracked = TrackedJob(row.state, row.account, row.group, activity, len(jobs))
            jobs[row.job_id] = tracked
            if row.state != COMPLETED:
                active[row.job_id] = tracked
            events.append(
                new_event(
                    JobEvent,
                    (
                        row.job_id,
                        row.account,
                        row.group,
                        activity,
                        row.state,
                        dep_raw,
                        EventKind.CREATED,
                        observed_at,
                        "",
                    ),
                )
            )
        elif tracked.state != row.state:
            events.append(
                new_event(
                    JobEvent,
                    (
                        row.job_id,
                        row.account,
                        row.group,
                        tracked.activity,
                        row.state,
                        row.dependency_raw,
                        EventKind.STATE_CHANGED,
                        observed_at,
                        "",
                    ),
                )
            )
            if row.state == COMPLETED:
                del active[row.job_id]
            elif tracked.state == COMPLETED:
                active[row.job_id] = tracked
            tracked.state = row.state
    return events


def finalize_vanished(
    state: ObserverState, rows: list[JobRow], observed_at: datetime
) -> list[JobEvent]:
    """Emit synthetic completions for active jobs absent from this snapshot.

    Updates ``state`` in place and returns the events; a call is
    O(rows + active). Finished jobs stay in ``state.jobs`` (marked
    completed) so they are not re-created if a stale row reappears. The
    completions come out in first-seen order.

    After ``diff_snapshot`` took the continued path for the same ``rows``,
    every active job but those of the departed rows is in the snapshot, since
    the previous poll was finalized: the candidates are then the departed
    rows' jobs that no fresh row carries, and the call is O(fresh + departed).
    """
    active = state.active
    diffed = rows is state._diffed
    if diffed and type(rows) is SnapshotRows and rows.continues is state._settled is not None:
        present = {row.job_id for row in rows.fresh}
        vanished = [
            (row.job_id, tracked)
            for row in rows.departed
            if row.job_id not in present
            and (tracked := active.get(row.job_id)) is not None
        ]
    else:
        present = {row.job_id for row in rows}
        vanished = [
            (job_id, tracked) for job_id, tracked in active.items() if job_id not in present
        ]
    state._settled = rows if diffed else None
    if len(vanished) > 1:
        # A job put back by a stale row sits after later-seen jobs in ``active``,
        # and departed rows come in the previous snapshot's order.
        vanished.sort(key=lambda item: item[1].first_seen)
    events: list[JobEvent] = []
    new_event = tuple.__new__  # skips the Python-level JobEvent.__new__
    for job_id, tracked in vanished:
        events.append(
            new_event(
                JobEvent,
                (
                    job_id,
                    tracked.account,
                    tracked.group,
                    tracked.activity,
                    COMPLETED,
                    "(null)",
                    EventKind.SYNTHETIC_COMPLETED,
                    observed_at,
                    "",
                ),
            )
        )
        tracked.state = COMPLETED
        del active[job_id]
    return events


class EventSink(Protocol):
    """Where ``run_observation`` puts events: a plain list or a ``CsvEventSink``,
    which writes each poll's events when the next poll's arrive or on close."""

    def append(self, event: JobEvent) -> None: ...


_READ_SIZE = 1 << 16


def decode_snapshot(data: bytes) -> str:
    """Snapshot text from its bytes: strict UTF-8, CR LF and a lone CR read as LF.

    This is what a text-mode ``open()`` returns in UTF-8 mode, whatever the
    locale, so a replayed file and a live poll of the same bytes are the
    same text.
    """
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def read_snapshot_file(path) -> str:
    """The decoded text of one snapshot file; any failure is a ``SourceFailure``."""
    try:
        fd = os.open(path, os.O_RDONLY | _O_BINARY)
        try:
            chunks = []
            while chunk := os.read(fd, _READ_SIZE):
                chunks.append(chunk)
        finally:
            os.close(fd)
        return decode_snapshot(b"".join(chunks))
    except OSError as exc:
        raise SourceFailure(str(exc)) from exc
    except UnicodeDecodeError as exc:  # its message names no file
        raise SourceFailure(f"{path}: {exc}") from exc


class ReplayDirectorySource:
    """Reads snapshot_<ISO8601-basic-UTC>.txt files from a directory."""

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise FileNotFoundError(f"replay directory not found: {self.directory}")

    def __iter__(self) -> Iterator[Snapshot]:
        try:
            listed = os.listdir(self.directory)
        except OSError as exc:
            raise SourceFailure(str(exc)) from exc
        # Sorted as strings: the fixed-width stamps sort in time order.
        names = sorted(filter(is_snapshot_filename, listed))
        for name in names:
            stamp = name[len(SNAPSHOT_FILE_PREFIX) : -len(SNAPSHOT_FILE_SUFFIX)]
            try:
                observed_at = parse_basic(stamp)
            except ValueError as exc:
                raise SourceFailure(f"bad snapshot filename {name}") from exc
            yield Snapshot(observed_at, read_snapshot_file(os.path.join(self.directory, name)))


class CommandSource:
    """Runs a squeue-style command periodically and yields its output.

    Polls start on a fixed grid, ``interval`` seconds apart on the
    ``monotonic`` clock, so the command's latency does not add to the
    period. A poll that overruns its slot is followed at once by the next,
    and the grid restarts from there; missed polls are not made up.

    The runner and clocks are injectable so tests never need a cluster.
    Iteration ends when max_snapshots is reached or the runner raises. An
    interval that is not a positive finite number, or a command that does
    not split into words, is a ``ValueError`` here, before any poll.
    """

    def __init__(
        self,
        command: str = DEFAULT_SQUEUE_COMMAND,
        interval: float = DEFAULT_INTERVAL_SECONDS,
        runner: Callable[[list[str]], str] | None = None,
        clock: Callable[[], datetime] | None = None,
        sleep: Callable[[float], None] = _time.sleep,
        max_snapshots: int | None = None,
        monotonic: Callable[[], float] = _time.monotonic,
    ) -> None:
        import shlex  # only live polling splits a command

        if not 0 < interval < float("inf"):
            raise ValueError(f"polling interval must be positive and finite, not {interval}")
        try:
            self.argv = shlex.split(command)
        except ValueError as exc:
            raise ValueError(f"cannot split polling command {command!r}: {exc}") from None
        if not self.argv:
            raise ValueError(f"empty polling command {command!r}")
        self.interval = interval
        self.runner = runner or self._run_subprocess
        self.clock = clock or (lambda: datetime.now(timezone.utc).replace(microsecond=0))
        self.sleep = sleep
        self.monotonic = monotonic
        self.max_snapshots = max_snapshots

    @staticmethod
    def _run_subprocess(argv: list[str]) -> str:
        import subprocess  # only live polling runs a command

        result = subprocess.run(argv, capture_output=True)
        if result.returncode != 0:
            stderr = result.stderr.decode("utf-8", "replace").strip()
            raise SourceFailure(f"{argv[0]} exited with {result.returncode}: {stderr}")
        return decode_snapshot(result.stdout)

    def __iter__(self) -> Iterator[Snapshot]:
        produced = 0
        deadline = self.monotonic()  # when the current poll was due
        while self.max_snapshots is None or produced < self.max_snapshots:
            observed_at = self.clock()
            try:
                text = self.runner(self.argv)
            except SourceFailure:
                raise
            except Exception as exc:
                raise SourceFailure(str(exc)) from exc
            yield Snapshot(observed_at, text)
            produced += 1
            if self.max_snapshots is None or produced < self.max_snapshots:
                deadline += self.interval
                now = self.monotonic()
                if now > deadline:
                    import logging  # loaded only when there is something to report

                    logging.getLogger(__name__).warning(
                        "poll overran its %gs interval by %.1fs", self.interval, now - deadline
                    )
                    deadline = now
                self.sleep(deadline - now)


class ObservationSummary(NamedTuple):
    snapshots: int
    events: int
    state: ObserverState
    malformed: int  # data lines skipped for too few columns or a NUL


def run_observation(
    source: Iterable[Snapshot],
    sink: EventSink,
    *,
    synthetic_complete: bool = True,
    state: ObserverState | None = None,
) -> ObservationSummary:
    """Drive the observation loop over a snapshot source.

    Snapshots must arrive in nondecreasing observation-time order. Each
    observation time is taken in UTC, so polls are ordered and events stamped
    by instant, also when the caller's clock runs through a DST fold. Events
    already appended to the sink survive a source failure; a ``CsvEventSink``
    writes the last poll's when it is closed. A ``state`` passed
    in is continued and updated in place. Malformed snapshot lines are
    skipped, logged and counted in the summary.
    """
    state = state if state is not None else ObserverState()
    snapshots = 0
    events = 0
    malformed = 0
    errors: list[MalformedRow] = []  # one snapshot's, cleared after counting
    last_at: datetime | None = None
    iterator = iter(source)
    while True:
        try:
            snapshot = next(iterator)
        except StopIteration:
            break
        except KeyboardInterrupt:
            import logging

            logging.getLogger(__name__).info("observation interrupted; stopping")
            break
        # In UTC, times compare and subtract as instants, also across a DST
        # fold; a UTC time is returned as is, so a poll's events share it.
        observed_at = snapshot.observed_at.astimezone(timezone.utc)
        if last_at is not None and observed_at < last_at:
            raise OutOfOrderSnapshot(f"snapshot at {observed_at} after {last_at}")
        last_at = observed_at
        rows = parse_snapshot(snapshot.text, observed_at, errors)
        malformed += len(errors)
        errors.clear()
        new_events = diff_snapshot(state, rows, observed_at)
        if synthetic_complete:
            new_events.extend(finalize_vanished(state, rows, observed_at))
        for event in new_events:
            sink.append(event)
        events += len(new_events)
        snapshots += 1
    return ObservationSummary(
        snapshots=snapshots, events=events, state=state, malformed=malformed
    )
