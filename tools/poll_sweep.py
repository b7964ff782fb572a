"""Per-poll absorb time of observation on scaled benchmark streams.

Generates, with seed ``SEED``, the ``dag_backlog`` stream of
``perfbench/workloads.py`` with ``DAG_WAVES`` scaled x1, x4 and x16, and the
``manual_history`` stream at x1, and replays the middle ``POLLS`` polls of each
(all of them when it has fewer) through ``observer.run_observation`` into a
list, in three row orders: as generated; with the data rows shuffled on every
poll; and with the lines that were not in the previous poll listed last. A
poll's absorb time runs from handing its snapshot over until the next is asked
for (parse, diff, vanish and the list append), as ``perfbench/poll.py`` stamps
it. Each order is also replayed with the parser's line cache emptied before
every poll, by parsing an empty snapshot, and both replays must give the same
events, or the script exits with status 1.

For each stream and order one invocation records the polls timed, the mean
lines per poll and one run's per-poll p50 and p95 in ms. With ``--out`` the
record is stored under ``--label`` in that JSON file, next to the records of
other labels (say, of the parent commit); the runs stored under the label
before are kept and pooled with the new one, with their medians, so that the
runs of two commits can alternate, one invocation at a time.
``--quick`` runs dag x1 and manual x1 only: a check, not a measurement.

Usage, from the repository root (standard library only):
  PYTHONPATH=src python3 tools/poll_sweep.py [--quick] [--label NAME] [--out FILE]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import random
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from poll import StampedSource  # noqa: E402

from hpcmine import observer  # noqa: E402

ORDERS = ("generated", "shuffled", "changing_last")
SEED = 1  # of the workload generators and of the shuffled order
POLLS = 300  # timed per stream: the middle of the stream


def scheduled_jobs(workload: str, factor: int = 1) -> list[workloads.Job]:
    """The jobs a workload's generator schedules, with ``DAG_WAVES`` times
    ``factor``, not rendered: at dag x16 the whole stream would take over a GB."""
    saved = workloads.DAG_WAVES, workloads._generated
    workloads.DAG_WAVES *= factor
    workloads._generated = lambda jobs, *args, **kwargs: jobs
    try:
        return workloads.GENERATORS[workload](SEED)
    finally:
        workloads.DAG_WAVES, workloads._generated = saved


def window(jobs: list[workloads.Job], polls: int) -> list[str]:
    """The middle ``polls`` snapshot texts that ``workloads.render(jobs)`` gives.

    Only the jobs in the queue during the window are rendered, submitted no
    earlier than its first tick and completing no later than its end, so every
    text in it is the one the whole stream holds, and the ticks before it
    render empty queues.
    """
    ticks = max(job.cg for job in jobs) + 2
    start = max(0, (ticks - polls) // 2)
    stop = min(ticks, start + polls)
    alive = {job.job_id for job in jobs if job.submit < stop and job.cg >= start}
    clipped = [
        dataclasses.replace(
            job,
            submit=max(job.submit, start),
            cg=min(job.cg, stop),
            deps=tuple(dep for dep in job.deps if dep in alive),
        )
        for job in jobs
        if job.job_id in alive
    ]
    return [text for _, text in workloads.render(clipped)[0][start:stop]]


def reorder(texts: list[str], order: str) -> list[str]:
    """Each poll's data rows in ``order``, one of ``ORDERS``, the header first:
    as generated, shuffled, or with the lines not in the previous poll last."""
    if order == "generated":
        return texts
    rng = random.Random(f"poll_sweep:{SEED}")
    out, before = [], set()
    for text in texts:
        header, *rows = text.split("\n")[:-1]  # every text ends with an LF
        if order == "shuffled":
            rng.shuffle(rows)
        else:
            rows = [row for row in rows if row in before] + [
                row for row in rows if row not in before
            ]
            before = set(rows)
        out.append("\n".join([header, *rows]) + "\n")
    return out


def replay(texts: list[str], cold: bool) -> tuple[list, list[float]]:
    times = [workloads.tick_time(tick) for tick in range(len(texts))]
    snapshots = [observer.Snapshot(at, text) for at, text in zip(times, texts)]
    observer.parse_snapshot("", times[0])  # a parse of nothing empties the cache
    if cold:
        snapshots = _emptied_before_each(snapshots)
    source = StampedSource(snapshots)
    events: list = []
    observer.run_observation(source, events)
    return events, source.absorb


def _emptied_before_each(snapshots):
    for snapshot in snapshots:
        observer.parse_snapshot("", snapshot.observed_at)
        yield snapshot


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def sweep(streams, polls: int) -> tuple[dict, list[str]]:
    """Per stream and order: the polls, lines per poll and one run's p50 and
    p95 in ms; and the streams and orders whose cold replay differed."""
    record, mismatches = {}, []
    for name, jobs in streams:
        texts = window(jobs, polls)
        for order in ORDERS:
            ordered = reorder(texts, order)
            if replay(ordered, cold=True)[0] != replay(ordered, cold=False)[0]:
                mismatches.append(f"{name} {order}")
            absorb = replay(ordered, cold=False)[1]
            entry = record.setdefault(name, {})[order] = {
                "polls": len(ordered),
                "lines_per_poll": round(sum(t.count("\n") for t in ordered) / len(ordered), 1),
                "runs_p50_ms": [round(statistics.median(absorb) * 1e3, 4)],
                "runs_p95_ms": [round(percentile(absorb, 0.95) * 1e3, 4)],
            }
            print(name, order, entry, file=sys.stderr)
    return record, mismatches


def merged(stored: dict, record: dict) -> dict:
    """``record`` with the runs of ``stored`` (an earlier record of the same
    label) put first, and the medians over all runs."""
    for name, orders in record.items():
        for order, entry in orders.items():
            before = stored.get(name, {}).get(order, {})
            for key in ("runs_p50_ms", "runs_p95_ms"):
                entry[key] = before.get(key, []) + entry[key]
                entry[key.replace("runs_", "absorb_")] = round(statistics.median(entry[key]), 4)
    return record


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--label", default="change")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    factors = (1,) if args.quick else (1, 4, 16)
    streams = [(f"dag_backlog x{f}", scheduled_jobs("dag_backlog", f)) for f in factors]
    streams.append(("manual_history x1", scheduled_jobs("manual_history")))
    record, mismatches = sweep(streams, POLLS)
    for mismatch in mismatches:
        print(f"cached and cold parses give different events: {mismatch}", file=sys.stderr)
    if args.out:
        path = Path(args.out)
        stored = json.loads(path.read_text()) if path.exists() else {}
        stored.update(
            what=__doc__.split("\n\n")[0],
            settings={"seed": SEED, "polls": POLLS},
            machine={
                "python": platform.python_version(),
                "cpus": os.cpu_count(),
                "system": platform.platform(),
            },
        )
        results = stored.setdefault("results", {})
        results[args.label] = merged(results.get(args.label, {}), record)
        path.write_text(json.dumps(stored, indent=2) + "\n")
    else:
        print(json.dumps(merged({}, record), indent=2))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
