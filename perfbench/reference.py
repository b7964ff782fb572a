"""A fixed pure-Python workload that gauges how fast the machine is right now.

The benchmark runs it as a fresh process right before and right after each
timed program run, calls ``work`` in its own process just before each
generation of a workload's inputs, and reports timings at the reference
speed (see run.py). It does what the generator and the program do most:
split text rows, build tuples, fill, copy and probe dicts, format strings
and sort. It never changes with the program.

Usage: python reference.py
"""

from __future__ import annotations

ROWS = 60_000


def work(rows: int) -> int:
    jobs: dict[str, tuple[str, str, str]] = {}
    done = 0
    for i in range(rows):
        line = f"acct{i % 97} {i} afterok:{i - 1} /home/u/step{i % 13}.sh --n {i % 5} R grp{i % 7}"
        tokens = line.split()
        jobs[tokens[1]] = (tokens[0], tokens[-1], tokens[3].rsplit("/", 1)[-1])
        if i % 3 == 0 and jobs.pop(str(i // 2), None) is not None:
            done += 1
        if i % 2000 == 0:
            jobs = dict(jobs)
    return done + len(sorted(jobs))


if __name__ == "__main__":
    work(ROWS)
