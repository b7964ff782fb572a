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
snapshot. Between two polls most lines of a queue come back unchanged, so
``parse_snapshot`` keeps the previous call's good data lines with their rows,
returns the same row for a line it has just seen and splits only the others.
On a large queue its result also names the fresh and the departed rows, so
the observer can skip the rest. What it keeps is bounded by two snapshots. A
split line's account, job id, DEPENDENCY and group are interned like its
state, so a job's rows, events and observer record share one string per
column however often its line changes.

``dependency_targets`` reads a DEPENDENCY value as the target job ids of its
clauses, or None when it declares nothing. A clause's condition tag is not
read: the targets draw the edges of explicit correlation, and whether a job
declares anything at all is what ``stats`` counts.
"""

from __future__ import annotations

import re
import sys
from datetime import datetime
from typing import NamedTuple

from .timeutil import format_iso

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
    so its job's state has not changed.
    """

    __slots__ = ("fresh", "departed", "continues", "_job_ids")


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
    whose account is ``ACCOUNT`` is still a row. Data lines with fewer
    than 6 columns or holding a NUL are reported via ``errors`` (and the
    module logger, which names the snapshot by ``observed_at``) and skipped;
    parsing continues. A NUL would reach the events file, which Python
    3.10's ``csv.reader`` refuses to read back.

    A line that was a good data line of the previous call returns that call's
    row, the same object; only new and changed lines are split. A row depends
    only on its line, so interleaving calls for different streams gives the
    same rows, only more slowly. Header, blank and malformed lines are never
    kept, so a malformed line is reported every time it appears.

    When the previous call had at least ``_MIN_TRACKED_LINES`` good lines, the
    result is a ``SnapshotRows``, which also names the fresh and departed rows,
    so that ``diff_snapshot`` and ``finalize_vanished`` can skip the rest.
    Finding them costs one dict operation per fresh or departed row.
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
    if tracked:
        rows: list[JobRow] = SnapshotRows()
        kept = previous.pop  # what is left in ``previous`` has departed
        split: dict[str, JobRow] = {}  # the fresh lines, in file order
    else:
        rows = []
        kept = previous.get
        split = current
    for line_number, line in enumerate(text.split("\n"), start=1):
        row = kept(line, None)
        if row is None:
            tokens = line.split()
            if not tokens or tokens[:2] == _HEADER_START:
                continue
            if len(tokens) < 6 or "\0" in line:
                malformed = MalformedRow(line_number, line)
                import logging  # loaded only when there is something to report

                logging.getLogger(__name__).warning(
                    "skipping malformed snapshot row %d of the snapshot at %s: %r",
                    line_number,
                    format_iso(observed_at),
                    line,
                )
                if errors is not None:
                    errors.append(malformed)
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
        current.update(split)
        departed = list(previous.values())
        _keep_books(rows, list(split.values()), departed, continued, len(current))
        _previous_rows = rows
    return rows


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
