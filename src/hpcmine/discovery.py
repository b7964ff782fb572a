"""Directly-follows model discovery with frequency and performance annotation.

Each case yields a trace of activity instances ordered by the time the job
first reached a milestone state (by default: running, i.e. scheduler wait
is excluded). Adjacent trace entries become model edges carrying counts
and duration statistics; edges present in both directions mark activity
pairs that can execute in either order.
"""

from __future__ import annotations

import enum
import math
from array import array
from collections import Counter, deque
from datetime import datetime
from itertools import compress, count, repeat
from operator import itemgetter, le, or_
from typing import NamedTuple

from .eventlog import CaseLog, EventKind, _gathered, csv_line
from .snapshots import COMPLETED, COMPLETING, PENDING, RUNNING

# How far along its lifecycle each squeue state code is; a suspended job
# ("S") has run. Any other code ranks -1 and never meets a milestone.
_STATE_RANK = {PENDING: 0, RUNNING: 1, "S": 1, COMPLETING: 2, COMPLETED: 3}

MILESTONES = {"pending": PENDING, "running": RUNNING, "completed": COMPLETED}


class DurationMode(enum.Enum):
    START_START = "start-start"
    COMPLETION_START = "completion-start"


class TraceStep(NamedTuple):
    activity: str
    at: datetime
    completed_at: datetime | None = None


class Trace(NamedTuple):
    case_id: str
    steps: tuple[TraceStep, ...]


class EdgeStats:
    __slots__ = ("durations",)

    def __init__(self) -> None:
        self.durations: list[float] = []

    @property
    def frequency(self) -> int:
        return len(self.durations)

    # Both equal ``statistics.fmean`` and ``statistics.median`` exactly;
    # ``statistics`` is not imported for them, as it loads ``decimal`` and
    # ``fractions``.
    @property
    def mean(self) -> float:
        return math.fsum(self.durations) / len(self.durations)

    @property
    def median(self) -> float:
        ordered = sorted(self.durations)
        middle = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[middle]
        return (ordered[middle - 1] + ordered[middle]) / 2


class Dfg:
    __slots__ = ("activities", "edges", "start_activities", "end_activities")

    def __init__(self) -> None:
        self.activities: Counter = Counter()
        self.edges: dict[tuple[str, str], EdgeStats] = {}
        self.start_activities: Counter = Counter()
        self.end_activities: Counter = Counter()

    @property
    def is_empty(self) -> bool:
        return not self.activities


def project_case_traces(log: CaseLog, milestone: str = RUNNING) -> list[Trace]:
    """Project the log onto one trace per case.

    ``milestone`` is a value of ``MILESTONES``, a squeue state code. Each job
    contributes one entry, anchored at its earliest event whose state ranks
    at-or-after the milestone in ``_STATE_RANK`` (the first in log order
    among equal times); a code outside that table ranks below every
    milestone. Jobs that never reach the milestone are dropped (counted in a
    warning). Entries sort by timestamp, ties by job id.

    Each job's anchor and completion, its earliest synthetic or COMPLETED
    event, come from ``CaseLog.earliest``, so the log need not be sorted.
    """
    threshold = _STATE_RANK[milestone]
    states, state_codes = log.field("state")
    reaches = [_STATE_RANK.get(state, -1) >= threshold for state in states]
    ends = [state == COMPLETED for state in states]
    kinds, kind_codes = log.field("kind")
    ends_kind = [kind is EventKind.SYNTHETIC_COMPLETED for kind in kinds]
    cases, jobs, present, (anchors, completions) = log.earliest(
        bytes(map(reaches.__getitem__, state_codes)),
        bytes(map(or_, map(ends.__getitem__, state_codes), map(ends_kind.__getitem__, kind_codes))),
    )
    job_ids = log.field("job_id")[0]
    stamps, at_codes = log.field("timestamp")
    activities, triple_codes = log.field("activity")
    case_ids = log.field("case_id")[0]
    # The pairs with an event, in a bucket per case; a case's entries are
    # made and sorted only when its trace is.
    buckets = [array("I") for _ in case_ids]
    present_pairs = array("I", compress(count(), map(le, repeat(0), present)))
    deque(map(array.append, map(buckets.__getitem__, _gathered(cases, present_pairs)), present_pairs), maxlen=0)
    traces: list[Trace] = []
    dropped = 0
    for case in sorted(filter(buckets.__getitem__, range(len(case_ids))), key=case_ids.__getitem__):
        pairs = buckets[case]
        buckets[case] = None
        entries = [(stamps[at_codes[anchors[p]]], job_ids[jobs[p]], p) for p in pairs if anchors[p] >= 0]
        dropped += len(pairs) - len(entries)
        entries.sort(key=itemgetter(0, 1))
        steps = [
            TraceStep(
                activities[triple_codes[anchors[p]]],
                at,
                None if completions[p] < 0 else stamps[at_codes[completions[p]]],
            )
            for at, _, p in entries
        ]
        traces.append(Trace(case_ids[case], tuple(steps)))
    if dropped:
        name = next((name for name, code in MILESTONES.items() if code == milestone), milestone)
        import logging  # loaded only when there is something to report

        logging.getLogger(__name__).warning(
            "%d job(s) never reached milestone %s; dropped", dropped, name
        )
    return traces


def discover_dfg(
    traces: list[Trace], duration_mode: DurationMode = DurationMode.START_START
) -> Dfg:
    """Count directly-follows edges and collect per-edge durations.

    Durations are successor anchor time minus predecessor anchor time
    (start-start) or minus predecessor completion time (completion-start;
    falls back to the anchor when no completion was observed, and clamps
    at zero since a successor may start before the predecessor vanishes).
    """
    dfg = Dfg()
    for trace in traces:
        steps = trace.steps
        if not steps:
            continue
        dfg.start_activities[steps[0].activity] += 1
        dfg.end_activities[steps[-1].activity] += 1
        for step in steps:
            dfg.activities[step.activity] += 1
        for prev, nxt in zip(steps, steps[1:]):
            if duration_mode == DurationMode.COMPLETION_START and prev.completed_at is not None:
                anchor = prev.completed_at
            else:
                anchor = prev.at
            duration = max(0.0, (nxt.at - anchor).total_seconds())
            dfg.edges.setdefault((prev.activity, nxt.activity), EdgeStats()).durations.append(
                duration
            )
    return dfg


def detect_parallel(dfg: Dfg) -> frozenset[tuple[str, str]]:
    """Unordered activity pairs observed in both directions."""
    pairs = set()
    for a, b in dfg.edges:
        if a != b and (b, a) in dfg.edges:
            pairs.add((min(a, b), max(a, b)))
    return frozenset(pairs)


def humanize_duration(seconds: float) -> str:
    total = int(round(seconds))
    hours, rem = divmod(total, 3600)
    minutes, secs = divmod(rem, 60)
    if hours:
        return f"{hours}h{minutes}m{secs}s"
    if minutes:
        return f"{minutes}m{secs}s"
    return f"{secs}s"


def _dot_quote(text: str) -> str:
    """A DOT double-quoted string: backslashes and quotes are escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(
    dfg: Dfg,
    parallel: frozenset[tuple[str, str]] = frozenset(),
    *,
    min_edge_freq: int = 1,
) -> str:
    """Render the model as deterministic DOT text.

    Edge labels read "frequency / mean / median"; pen width scales with the
    mean duration so bottleneck arcs dominate visually. Edges of a parallel
    pair are drawn dashed.
    """
    lines = ["digraph dfg {"]
    if not dfg.is_empty:
        lines.append("  rankdir=LR;")
        lines.append('  node [shape=box, fontname="Helvetica"];')
        for name in sorted(dfg.activities):
            label = _dot_quote(f"{name} ({dfg.activities[name]})")
            lines.append(f"  {_dot_quote(name)} [label={label}];")
        edges = {
            edge: stats
            for edge, stats in dfg.edges.items()
            if stats.frequency >= min_edge_freq
        }
        max_mean = max((stats.mean for stats in edges.values()), default=0.0)
        for (a, b), stats in sorted(edges.items()):
            label = (
                f"{stats.frequency} / {humanize_duration(stats.mean)}"
                f" / {humanize_duration(stats.median)}"
            )
            penwidth = 1.0 + (4.0 * stats.mean / max_mean if max_mean > 0 else 0.0)
            attrs = [f'label="{label}"', f'penwidth={penwidth:.2f}']
            if (min(a, b), max(a, b)) in parallel:
                attrs.append("style=dashed")
            lines.append(f"  {_dot_quote(a)} -> {_dot_quote(b)} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_edges_csv(dfg: Dfg, *, min_edge_freq: int = 1) -> str:
    """Per-edge statistics as CSV text in edge order, seconds to one decimal."""
    rows = [["from", "to", "frequency", "mean_seconds", "median_seconds"]]
    for (a, b), stats in sorted(dfg.edges.items()):
        if stats.frequency >= min_edge_freq:
            rows.append([a, b, str(stats.frequency), f"{stats.mean:.1f}", f"{stats.median:.1f}"])
    return "".join(map(csv_line, rows))
