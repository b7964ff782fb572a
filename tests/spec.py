"""The hpcmine pipeline, and the simulator that feeds it, written for clarity,
not speed: the tests' one referee.

Each stage is worked out from its whole input, with no cache and no state kept
between calls. Only record types and state codes come from the package, so a
bug in a shared helper cannot hide in both.
"""

import csv
import hashlib
import io
import math
import random
import re
import statistics
from collections import Counter
from datetime import datetime, timedelta, timezone
from itertools import count, pairwise

from hpcmine.discovery import Trace, TraceStep
from hpcmine.eventlog import EventKind, JobEvent, LogStats
from hpcmine.snapshots import COMPLETED, COMPLETING, PENDING, RUNNING

CREATED, CHANGED, SYNTHETIC = EventKind


EPOCH = datetime(2024, 1, 1, tzinfo=timezone.utc)
HEADER = "ACCOUNT JOBID DEPENDENCY COMMAND ST GROUP"
GONE = "gone"


def simulate(scenario):
    """The (observed_at, text) snapshots of a valid scenario, one per tick of its interval
    from EPOCH until every job has left the queue: the header, then each queued job's line
    in scenario order. A PENDING batch job shows the dependencies that have not left as
    ``afterok:a:b``; any other job shows ``(null)``. On each tick, in turn: a job COMPLETING
    since an earlier tick leaves; a RUNNING job whose ceil(duration / interval) ticks are
    up starts COMPLETING; batch jobs are submitted on tick 0, a manual one once each of its
    dependencies started COMPLETING on an earlier tick; then, while fewer than
    ``max_running`` run, one job PENDING since an earlier tick starts if its batch
    dependencies have all left: the only one, or a ``randrange`` draw among them in
    scenario order. It RUNS, or starts COMPLETING if its duration is 0 ticks."""
    rng, interval = random.Random(scenario.seed), scenario.snapshot_interval
    limit = math.inf if scenario.max_running is None else scenario.max_running
    jobs = {job.job_id: job for job in scenario.jobs}
    batch = {job_id for job_id, job in jobs.items() if job.mode.value == "batch"}
    run_ticks = {job_id: math.ceil(job.duration / interval) for job_id, job in jobs.items()}
    state, since, snapshots = {}, {}, []  # job id -> its state, and the tick it got there
    for tick in count():
        for job_id in jobs:
            if state.get(job_id) == COMPLETING and since[job_id] < tick:
                state[job_id], since[job_id] = GONE, tick
        for job_id in jobs:
            if state.get(job_id) == RUNNING and tick - since[job_id] >= run_ticks[job_id]:
                state[job_id], since[job_id] = COMPLETING, tick
        for job_id, job in jobs.items():
            if job_id not in state and (tick == 0 if job_id in batch else all(
                    state.get(d) == GONE or state.get(d) == COMPLETING and since[d] < tick
                    for d in job.dependencies)):
                state[job_id], since[job_id] = PENDING, tick
        free = [job_id for job_id, job in jobs.items()
                if state.get(job_id) == PENDING and since[job_id] < tick
                and (job_id not in batch or all(state.get(d) == GONE for d in job.dependencies))]
        if free and list(state.values()).count(RUNNING) < limit:
            job_id = free[0] if len(free) == 1 else free[rng.randrange(len(free))]
            state[job_id] = RUNNING if run_ticks[job_id] else COMPLETING
            since[job_id] = tick
        lines = [HEADER]
        for job_id, job in jobs.items():
            if state.get(job_id) in (PENDING, RUNNING, COMPLETING):
                waiting = [d for d in job.dependencies if state.get(d) != GONE]
                shown = "(null)"
                if waiting and state[job_id] == PENDING and job_id in batch:
                    shown = "afterok:" + ":".join(waiting)
                lines.append(f"{job.account} {job_id} {shown} {job.command_path} "
                             f"{state[job_id]} {job.group}")
        snapshots.append((EPOCH + timedelta(seconds=tick * interval), "\n".join(lines) + "\n"))
        if all(state.get(job_id) == GONE for job_id in jobs):
            return snapshots


def parse(text):
    """A snapshot's rows, ACCOUNT JOBID DEPENDENCY COMMAND... ST GROUP, and its
    malformed (number, line) pairs: fewer words, or a NUL. ``ACCOUNT JOBID`` heads a header.
    Lines end at LF only."""
    rows, malformed = [], []
    for number, line in enumerate(text.split("\n"), start=1):
        words = line.split()
        if not words or words[:2] == ["ACCOUNT", "JOBID"]:
            continue
        if len(words) < 6 or "\0" in line:
            malformed.append((number, line))
        else:
            rows.append((*words[:3], " ".join(words[3:-2]), *words[-2:]))
    return rows, malformed


def observe(snapshots, synthetic_complete=True):
    """The events of ``(observed_at, text)`` snapshots and the malformed-line count:
    a snapshot's rows' events in row order, then those of the jobs it lacks. Events
    are stamped with their snapshot's time in UTC. ``synthetic_complete`` is one
    flag, or a flag per snapshot, as a resumed observation may set it anew."""
    polls = [(at.astimezone(timezone.utc), *parse(text)) for at, text in snapshots]
    if not isinstance(synthetic_complete, list):
        synthetic_complete = [synthetic_complete] * len(polls)
    sightings = {}  # job id -> {poll: [(position, row)]}, in first-seen order
    for poll, (_, rows, _) in enumerate(polls):
        for position, row in enumerate(rows):
            sightings.setdefault(row[1], {}).setdefault(poll, []).append((position, row))
    times = [at for at, _, _ in polls]
    keyed = []
    for rank, (job_id, seen) in enumerate(sightings.items()):
        keyed += job_events(job_id, seen, times, rank, synthetic_complete)
    keyed.sort(key=lambda item: item[0])
    return [event for _, event in keyed], sum(len(malformed) for _, _, malformed in polls)


def job_events(job_id, seen, times, rank, synthetic_complete):
    """One job's events, keyed by (poll, 0, row position) or, when synthetic, (poll, 1, rank).

    The first row creates the job: DEPENDENCY shows only if PENDING, and the
    activity is the command's base name. A later row in another state changes
    it. A snapshot without it completes it, as created, unless it is COMPLETED.
    """
    first = min(seen)
    account, _, dependency, command, state, group = seen[first][0][1]
    name = command.split()[0].rstrip("/").rsplit("/", 1)[-1] or "<unknown>"
    shown = dependency if state == PENDING else "(late)"
    out = [((first, 0, seen[first][0][0]),
            JobEvent(job_id, account, group, name, state, shown, CREATED, times[first]))]
    for poll in range(first, len(times)):
        later = seen.get(poll, [])[poll == first :]
        for position, (row_account, _, row_dep, _, row_state, row_group) in later:
            if row_state != state:
                state = row_state
                out.append(((poll, 0, position), JobEvent(
                    job_id, row_account, row_group, name, state, row_dep, CHANGED, times[poll])))
        if synthetic_complete[poll] and poll not in seen and state != COMPLETED:
            state = COMPLETED
            out.append(((poll, 1, rank), JobEvent(
                job_id, account, group, name, COMPLETED, "(null)", SYNTHETIC, times[poll])))
    return out


def clauses(dependency):
    """The (tag, targets) clauses of a DEPENDENCY value, split by ``,`` or ``?``; the
    targets split by ``:`` and lose a "+<minutes>" delay and a "(<state>)" suffix."""
    dependency = dependency.strip()
    if dependency.lower() in ("", "(null)", "null"):
        return []
    out = []
    for part in filter(None, (part.strip() for part in re.split("[,?]", dependency))):
        tag, *pieces = part.split(":")
        targets = [re.sub(r"\+\d+\Z", "", re.sub(r"\([^()]*\)\Z", "", p.strip())) for p in pieces]
        out.append((tag.strip().lower(), [target for target in targets if target]))
    return out


def first_dependencies(events):
    """Each job's clauses, if its first event is a creation showing them."""
    first = {}
    for e in events:
        if e.job_id not in first:
            shown = e.kind == CREATED and e.dependency_raw != "(late)"
            first[e.job_id] = clauses(e.dependency_raw) if shown else []
    return first


def reachable(start, edges):
    """The vertices reached from ``start`` along one or more of ``edges``."""
    found, stack = set(), [start]
    while stack:
        vertex = stack.pop()
        new = {target for source, target in edges if source == vertex} - found
        found |= new
        stack += new
    return found


def component(vertex, edges):
    """The vertices joined to ``vertex`` by ``edges`` in either direction, itself included."""
    return reachable(vertex, edges | {(b, a) for a, b in edges}) | {vertex}


def cycle_jobs(edges):
    """The jobs on a cycle of ``edges`` or downstream of one."""
    on_cycle = {job for edge in edges for job in edge if job in reachable(job, edges)}
    return on_cycle.union(*(reachable(job, edges) for job in on_cycle))


def dependency_graph(events):
    """(vertices, edges, external, dropped); edge (a, b) means b declared a. Targets never
    observed are external. Edges between jobs on, or after and before, cycles drop."""
    observed = {e.job_id for e in events}
    declared = [(target, job) for job, found in first_dependencies(events).items()
                for _, targets in found for target in targets]
    edges = {(target, job) for target, job in declared if target in observed}
    external = {target for target, _ in declared if target not in observed}
    between = cycle_jobs(edges) & cycle_jobs({(b, a) for a, b in edges})
    dropped = sorted((a, b) for a, b in edges if a in between and b in between)
    return observed | external, edges - set(dropped), external, dropped


def numbered(names):
    """Each name in turn, or, if an earlier one took it, itself with the least
    suffix "-2", "-3"... that none took."""
    taken = []
    for name in names:
        suffixed = (f"{name}-{n}" for n in count(2))
        taken.append(next(n for n in suffixed if n not in taken) if name in taken else name)
    return taken


def explicit_cases(events, hash_ids=False):
    """One case per weak component of all declared edges, dropped or not, by least
    member: ``JID`` and the ASCII-digit ids in descending numeric order, then the rest;
    hashed over 64 characters or with ``hash_ids``; then ``numbered``."""
    vertices, edges, _, dropped = dependency_graph(events)
    components = []
    for vertex in sorted(vertices):
        if not any(vertex in c for c in components):
            components.append(component(vertex, edges | set(dropped)))
    names = []
    for members in components:
        numeric = [j for j in sorted(members) if j.isascii() and j.isdigit()]
        ordered = sorted(numeric, key=int, reverse=True) + sorted(members - set(numeric))
        name = "JID" + "".join(ordered)
        if hash_ids or len(name) > 64:
            name = "JID" + hashlib.sha256(",".join(ordered).encode()).hexdigest()[:16]
        names.append(name)
    return {job: name for members, name in zip(components, numbered(names)) for job in members}


def implicit_cases(events):
    """A job's case is the account and group of its last event, an empty group read as
    "default": ``account-group``, ``numbered`` in the sorted order of the pairs."""
    pair = {e.job_id: (e.account, e.group or "default") for e in events}
    pairs = sorted(set(pair.values()))
    names = dict(zip(pairs, numbered(f"{account}-{group}" for account, group in pairs)))
    return {job: names[p] for job, p in pair.items()}


def case_log(events, cases):
    """The events with their case ids, stably sorted by case, time and job id."""
    stamped = (e._replace(case_id=cases[e.job_id]) for e in events)
    return sorted(stamped, key=lambda e: (e.case_id, e.timestamp, e.job_id))


RANK = {PENDING: 0, RUNNING: 1, "S": 1, COMPLETING: 2, COMPLETED: 3}


def traces(log, milestone=RUNNING):
    """One trace per case, in case order, and how many jobs were dropped. A job's
    step is its earliest event at or past ``milestone``, first in log order among
    equal times, completed at its earliest synthetic or COMPLETED event."""
    jobs = {}
    for e in log:
        jobs.setdefault((e.case_id, e.job_id), []).append(e)
    steps, dropped = {case: [] for case, _ in jobs}, 0
    for (case, job_id), events in jobs.items():
        events = sorted(events, key=lambda e: e.timestamp)
        reached = [e for e in events if RANK.get(e.state, -1) >= RANK[milestone]]
        done = [e.timestamp for e in events if e.kind == SYNTHETIC or e.state == COMPLETED]
        if reached:
            first = reached[0]
            steps[case].append((first.timestamp, job_id, first.activity, [*done, None][0]))
        dropped += not reached
    return [Trace(case, tuple(TraceStep(a, at, done) for at, _, a, done in sorted(steps[case])))
            for case in sorted(steps)], dropped


def dfg(traces, completion_start=False):
    """(activities, starts, ends, {edge: durations}); a duration runs from the step
    before, or its completion if any with ``completion_start``, and is at least 0."""
    activities, starts, ends, edges = Counter(), Counter(), Counter(), {}
    for steps in (trace.steps for trace in traces if trace.steps):
        starts[steps[0].activity] += 1
        ends[steps[-1].activity] += 1
        activities.update(step.activity for step in steps)
        for before, after in pairwise(steps):
            done = before.completed_at
            since = done if completion_start and done is not None else before.at
            duration = max(0.0, (after.at - since).total_seconds())
            edges.setdefault((before.activity, after.activity), []).append(duration)
    return activities, starts, ends, edges


def stats(log):
    """The log statistics; explicit dependencies come from the log itself."""
    if not log:
        return LogStats(0, 0, 0, 0.0, 0.0, None)
    declared = first_dependencies(log)
    account_of = {e.job_id: e.account for e in log}  # of the job's last event
    explicit = [job for job in account_of if declared[job]]
    accounts = {e.account for e in log}
    times = [e.timestamp for e in log]
    return LogStats(len(log), len(account_of), len(accounts),
                    len({account_of[job] for job in explicit}) / len(accounts),
                    len(explicit) / len(account_of), (min(times), max(times)))


def csv_line(fields):
    """A row as ``csv.writer`` writes it, ending in LF: a CRLF terminator quotes CR."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow(fields)
    return buffer.getvalue()[:-2] + "\n"


def csv_text(events, header):
    """The CSV file of ``events``; a time is written in UTC, to the second."""
    def cell(e, column):
        if column == "timestamp":
            return e.timestamp.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        if column == "event_kind":
            return e.kind.value
        return getattr(e, "state" if column == "lifecycle" else column)

    rows = [[cell(e, column) for column in header] for e in events]
    return "".join(map(csv_line, [header, *rows]))


def edges_csv(edges, min_edge_freq=1):
    """One row per edge taken at least ``min_edge_freq`` times, in edge order."""
    rows = [["from", "to", "frequency", "mean_seconds", "median_seconds"]]
    for (a, b), durations in sorted(edges.items()):
        if len(durations) >= min_edge_freq:
            mean, median = statistics.fmean(durations), statistics.median(durations)
            rows.append([a, b, str(len(durations)), f"{mean:.1f}", f"{median:.1f}"])
    return "".join(map(csv_line, rows))
