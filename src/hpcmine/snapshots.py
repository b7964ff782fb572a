"""Parsing of squeue-style queue snapshots into structured job rows.

A snapshot is plain text with six whitespace-separated logical columns per
job: ACCOUNT JOBID DEPENDENCY COMMAND ST GROUP. The COMMAND column may
carry arguments (and thus embedded spaces), so the row is parsed
positionally from both ends. A line is the header when its first two words
are ``ACCOUNT JOBID``, whatever format codes follow: a squeue job id is never
the word ``JOBID``, so a job whose account is ``ACCOUNT`` is still a row.

A job's state is its ST code as squeue prints it (``PD``, ``R``, ``CG``,
``CD``, ...), kept verbatim as an interned string: any code is valid, and
how far along its lifecycle a code is belongs to discovery.

A row holds only what its line says; the observation time belongs to the
snapshot. ``parse_snapshot`` reuses the last call's row of a line it has just
seen; on a large queue it visits only the lines between those two polls share
at start and end, and names the fresh and departed rows. A split line's fields
but COMMAND are interned, so a job's rows, events and record share them.

``dependency_targets`` reads a DEPENDENCY value as the target job ids of its
clauses, or None when it declares nothing. A clause's condition tag is not
read: the targets draw the edges of explicit correlation, and whether a job
declares anything at all is what ``stats`` counts.

A ``Snapshot`` is one poll's observation time and text. Its file holds the
text's UTF-8 bytes, named ``snapshot_<ISO 8601 basic UTC>.txt``: the simulator
writes these files, and ``observer`` reads them back.
"""

from __future__ import annotations

import os
import re
import sys
from bisect import bisect_left
from datetime import datetime
from typing import NamedTuple

from .timeutil import format_basic, format_iso

UNKNOWN_COMMAND = "<unknown>"


# A job's state is the squeue ``%t`` code itself; any code is valid.
PENDING = "PD"
RUNNING = "R"
COMPLETING = "CG"
COMPLETED = "CD"

# The header line squeue prints above the rows for the default format. Any
# line whose first two words are those of the header is skipped: squeue names
# the columns of another format (``%T`` prints STATE) after the same two.
SNAPSHOT_HEADER = "ACCOUNT JOBID DEPENDENCY COMMAND ST GROUP"
_HEADER_START = SNAPSHOT_HEADER.split()[:2]

# What ``observe --live`` runs to print that header's columns, and how often.
DEFAULT_SQUEUE_COMMAND = 'squeue -o "%a %i %E %o %t %g"'
DEFAULT_INTERVAL_SECONDS = 30.0


_NO_DEPENDENCY_VALUES = {"", "(null)", "null"}

# A target as squeue shows it: a job id, then an optional "+<minutes>" delay
# and an optional "(<state>)" suffix such as "(unfulfilled)".
_TARGET = re.compile(r"(.*?)(?:\+\d+)?(?:\([^()]*\))?", re.DOTALL)


class JobRow(NamedTuple):
    """One parsed line of a queue snapshot.

    A row compares equal to a plain tuple of its fields. ``state`` is the
    ST column verbatim. Every field but ``command_path`` is interned, so equal
    texts are one string object. A row carries no observation time, so one
    row serves every poll that repeats its line.
    """

    account: str
    job_id: str
    dependency_raw: str
    command_path: str
    state: str
    group: str


class MalformedRow(NamedTuple):
    """A skipped data line: it had too few columns or held a NUL.

    A line of fewer than six words whose first word is ``ACCOUNT`` is
    malformed too, unless its second word is ``JOBID``: that is the header.
    """

    line_number: int
    line: str


class Snapshot(NamedTuple):
    """One poll of the queue; equal to the plain ``(observed_at, text)`` tuple."""

    observed_at: datetime
    text: str


SNAPSHOT_FILE_PREFIX = "snapshot_"
SNAPSHOT_FILE_SUFFIX = ".txt"


def snapshot_filename(observed_at: datetime) -> str:
    return f"{SNAPSHOT_FILE_PREFIX}{format_basic(observed_at)}{SNAPSHOT_FILE_SUFFIX}"


def is_snapshot_filename(name: str) -> bool:
    """Whether a replay reads the file of this name as a snapshot."""
    return name.startswith(SNAPSHOT_FILE_PREFIX) and name.endswith(SNAPSHOT_FILE_SUFFIX)


# Snapshot files are bytes on disk: no platform newline translation.
_O_BINARY = getattr(os, "O_BINARY", 0)


def write_snapshot_file(path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path``, replacing what the file held.

    An existing file is overwritten in place and then cut to length: it is
    not opened with ``O_TRUNC``, because truncating a file to zero frees
    every block it held (and, on a filesystem mounted ``discard``, discards
    them), only for the write to allocate them again. Nor is the file
    replaced atomically: a write that fails part-way leaves the bytes written
    so far and no byte of the old file.
    """
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | _O_BINARY, 0o666)
    written = 0
    try:
        try:
            while written < len(data):
                written += os.write(fd, data[written:])
        finally:
            os.ftruncate(fd, written)
    finally:
        os.close(fd)


def dependency_targets(raw: str) -> tuple[str, ...] | None:
    """The target job ids a DEPENDENCY column value declares, or None if it
    declares nothing.

    Total: any input yields a result. Clauses are split by ``,`` or ``?`` and
    their targets by ``:``; a clause's condition tag is not read, so an
    unfamiliar tag never aborts observation. Targets are bare job ids, in
    order: "after:7+10" and "afterok:7(unfulfilled)" both target 7. A value
    that is empty, ``null``, ``(null)`` or only separators declares nothing;
    one with a clause but no target, such as ``singleton``, declares ().
    """
    if raw.strip().lower() in _NO_DEPENDENCY_VALUES:
        return None
    clauses = [part for part in re.split(r"[,?]", raw) if part.strip()]
    if not clauses:
        return None
    return tuple(
        target
        for clause in clauses
        for piece in clause.split(":")[1:]
        if (target := _TARGET.fullmatch(piece.strip()).group(1))
    )


def normalize_command(command_path: str) -> str:
    """Map an executed command line to an activity name (the file basename).

    Arguments after the first whitespace are discarded, trailing path
    separators are stripped, then the last path component is taken.
    """
    stripped = command_path.strip()
    head = stripped.split()[0] if stripped else ""
    head = head.rstrip("/")
    name = head.rsplit("/", 1)[-1]
    return name or UNKNOWN_COMMAND


class SnapshotRows(list):
    """Every good row of a snapshot, as ``parse_snapshot`` returns it when it
    keeps its books, with what changed since the call it continues.

    ``fresh`` holds the rows the call split, one per line, in file order: of
    the lines the previous call did not return, and of any it did that appear
    twice. ``departed`` holds the previous call's rows whose line is gone.
    ``continues`` is the previous call's result when both calls kept their
    books and neither shows a job id on two different lines, else None. Then
    every row but the fresh ones is the previous call's row of the same line,
    so its job's state has not changed. The next call reuses it: do not edit.
    """

    __slots__ = ("fresh", "departed", "continues", "_job_ids", "_text", "_skipped")


# Below this many good lines in the previous call, ``parse_snapshot`` returns
# a plain list: on a small queue most lines change between polls, and
# tracking them costs more than the diff it saves.
_MIN_TRACKED_LINES = 64

# Each good data line of the previous ``parse_snapshot`` call, mapped to its
# row, and that call's result if it kept its books. Replaced by every call.
_previous_lines: dict[str, JobRow] = {}
_previous_rows: SnapshotRows | None = None


def parse_snapshot(
    text: str,
    observed_at: datetime,
    errors: list[MalformedRow] | None = None,
) -> list[JobRow]:
    """Parse one snapshot into job rows, in file order.

    Lines end at LF only, so a command holding a form feed or U+2028 stays on
    its line; ``observer.decode_snapshot`` reads CR LF and a lone CR as LF.
    The header line (first two words ``ACCOUNT JOBID``) is skipped, so a job
    whose account is ``ACCOUNT`` is still a row. Data lines with fewer than 6
    columns or holding a NUL, which Python 3.10's ``csv.reader`` could not read
    back from the events file, are skipped and reported each time, with their
    line number, via ``errors`` and the module logger (naming ``observed_at``).

    A good data line of the previous call returns that call's row, the same
    object; a row depends only on its line, so interleaved calls for different
    streams give the same rows. The next call reuses the list: do not edit it.

    When the previous call had at least ``_MIN_TRACKED_LINES`` good lines, the
    result is a ``SnapshotRows``, which also names the fresh and departed rows
    for ``diff_snapshot`` and ``finalize_vanished``. If that call's result was
    one too, had no line twice and shares over half its text with ``text`` as
    whole lines at start and end, those keep its rows and are not visited.
    """
    global _previous_lines, _previous_rows
    previous = _previous_lines
    continued = _previous_rows
    # Replaced first: a call that raises leaves whole lines and nothing to continue.
    _previous_lines = current = {}
    _previous_rows = None
    new_row = tuple.__new__  # skips the Python-level JobRow.__new__
    intern = sys.intern
    tracked = len(previous) >= _MIN_TRACKED_LINES
    lines, first, skipped = (), 1, []
    if tracked:
        middle, tail_rows, tail_skips = (), (), ()
        rows: list[JobRow] = SnapshotRows()
        split: dict[str, JobRow] = {}  # the fresh lines, in file order
        old = continued is not None and len(continued) == len(previous) and continued._text or ""
        head, tail = _shared_lines(old, text)
        if 2 * (head + tail) > len(old):
            middle = old[head : len(old) - tail].split("\n")
            outside = len(continued) + len(continued._skipped) - len(middle)
            if head <= tail:  # the LFs of the shorter shared part are counted
                first = old.count("\n", 0, head) + 1
            else:
                first = outside - old.count("\n", len(old) - tail) + 1
            lines = text[head : len(text) - tail].split("\n")
            skipped = continued._skipped[: bisect_left(continued._skipped, (first,))]
            at = bisect_left(continued._skipped, (first + len(middle),))
            tail_skips = continued._skipped[at:]
            rows += continued[: first - 1 - len(skipped)]
            tail_rows = continued[len(continued) - outside + first - 1 + len(tail_skips) :]
            _previous_lines = current = previous  # less the old middle's lines:
            previous = dict(zip(gone := [*filter(current.get, middle)], map(current.pop, gone)))
            _report(skipped, 0, observed_at, errors)
        if continued is not None:  # free the old text before the loop
            continued._text = old = None
        kept = previous.pop  # what is left in ``previous`` has departed
    else:
        rows = []
        kept = previous.get
        split = current
    for line_number, line in enumerate(lines or text.split("\n"), first):
        row = kept(line, None)
        if row is None:
            tokens = line.split()
            if not tokens or tokens[:2] == _HEADER_START:
                if tracked:
                    skipped.append((line_number, ""))
                continue
            if len(tokens) < 6 or "\0" in line:
                skipped += _report([(line_number, line)], 0, observed_at, errors)
                continue
            row = new_row(
                JobRow,
                (
                    intern(tokens[0]),
                    intern(tokens[1]),
                    intern(tokens[2]),
                    " ".join(tokens[3:-2]),
                    intern(tokens[-2]),
                    intern(tokens[-1]),
                ),
            )
            split[line] = row
        else:
            current[line] = row
        rows.append(row)
    if tracked:
        rows += tail_rows
        skipped += _report(tail_skips, len(lines) - len(middle), observed_at, errors)
        current.update(split)
        _keep_books(rows, [*split.values()], [*previous.values()], continued, len(current))
        rows._text, rows._skipped = text, skipped  # (line number, "" or malformed line)
        _previous_rows = rows
    return rows


def _report(skipped: list, shift: int, observed_at: datetime, errors: list | None) -> list:
    """``skipped`` moved ``shift`` lines on; logs its malformed lines, adds them to ``errors``."""
    skipped = [(number + shift, line) for number, line in skipped]
    for line_number, line in skipped:
        if line:  # not a header or blank line
            import logging  # loaded only when there is something to report
            message = "skipping malformed snapshot row %d of the snapshot at %s: %r"
            logging.getLogger(__name__).warning(message, line_number, format_iso(observed_at), line)
            if errors is not None:
                errors.append(MalformedRow(line_number, line))
    return skipped


def _shared_lines(old: str, new: str) -> tuple[int, int]:
    """The lengths of the runs of whole lines both texts start and end with, apart in
    both. Slices of doubling, then halving, length down to 64 are compared in C."""
    size, end, head = len(old), len(new), 0
    for at_end in (False, True):
        limit, n, step, growing = min(size, end) - head, 0, 256, True
        while step >= 64:
            at, to = (size - n - step, end - n - step) if at_end else (n, n)
            found = n + step <= limit and new.startswith(old[at : at + step], to)
            n, growing = n + step * found, growing and found
            step = step * 2 if growing else step // 2
        if not at_end:
            head = old.rfind("\n", 0, n) + 1
    return head, size - start if (start := old.find("\n", size - n)) >= 0 else 0


def _keep_books(
    rows: SnapshotRows,
    fresh: list[JobRow],
    departed: list[JobRow],
    continued: SnapshotRows | None,
    lines: int,
) -> None:
    """Fill in ``rows``'s change lists and whether it continues ``continued``.

    ``_job_ids`` holds the job ids of ``rows`` when no job id has two
    different lines in it, else None. It is carried over from ``continued``'s
    set in O(fresh + departed); only after a break in the chain is it built
    anew. ``lines`` counts the distinct lines of ``rows``.
    """
    rows.fresh = fresh
    rows.departed = departed
    rows.continues = None
    job_ids = None
    if continued is not None:
        job_ids = continued._job_ids
        # Each result is continued at most once, and holds no older result.
        continued._job_ids = continued.continues = None
    if job_ids is None:
        job_ids = {row.job_id for row in rows}
        rows._job_ids = job_ids if len(job_ids) == lines else None
        return
    for row in departed:  # a job of ``continued`` has one line: this one
        job_ids.remove(row.job_id)
    for row in fresh:
        if row.job_id in job_ids:  # also on a line that stayed, or a fresh one
            rows._job_ids = None
            return
        job_ids.add(row.job_id)
    rows._job_ids = job_ids
    rows.continues = continued
