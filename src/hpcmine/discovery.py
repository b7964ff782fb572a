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
from collections import Counter
from datetime import datetime
from operator import itemgetter
from typing import NamedTuple

from .eventlog import CaseLog, EventKind, csv_line
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

    One pass over the log folds each job's anchor and completion, the
    earliest synthetic or COMPLETED event, so the log need not be sorted.
    """
    threshold = _STATE_RANK[milestone]
    rank = _STATE_RANK.get
    synthetic = EventKind.SYNTHETIC_COMPLETED
    # (case id, job id) -> [anchor time, anchor activity, completion time]
    jobs: dict[tuple[str, str], list] = {}
    for event in log.events:
        key = (event.case_id, event.job_id)
        job = jobs.get(key)
        if job is None:
            job = jobs[key] = [None, None, None]
        at = event.timestamp
        if rank(event.state, -1) >= threshold and (job[0] is None or at < job[0]):
            job[0] = at
            job[1] = event.activity
        if (event.kind is synthetic or event.state == COMPLETED) and (
            job[2] is None or at < job[2]
        ):
            job[2] = at

    per_case: dict[str, list] = {}
    dropped = 0
    for (case_id, job_id), (at, activity, completed) in jobs.items():
        entries = per_case.setdefault(case_id, [])
        if at is None:
            dropped += 1
        else:
            entries.append((at, job_id, activity, completed))
    traces: list[Trace] = []
    for case_id in sorted(per_case):
        entries = per_case[case_id]
        entries.sort(key=itemgetter(0, 1))
        traces.append(
            Trace(
                case_id,
                tuple(TraceStep(activity, at, completed) for at, _, activity, completed in entries),
            )
        )
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
