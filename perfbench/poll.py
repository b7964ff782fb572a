"""Time how long ``hpcmine observe`` takes to absorb each snapshot.

Replays a snapshot directory into a CSV event sink through
``observer.run_observation``, as ``hpcmine observe --replay`` does, with the
source wrapped: the wrapper stamps when it hands a snapshot over and when the
next one is requested, so reading the files is not counted. After each
snapshot, before the next is read, it times a small fixed probe
(``reference.work``), which gauges the machine's speed at that moment.
Writes ``{"absorb": [...], "probes": [...]}``, seconds per snapshot.

Usage (with the hpcmine package importable):
  python poll.py REPLAY_DIR EVENTS_CSV OUT_JSON
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from hpcmine import observer
from reference import work

PROBE_ROWS = 200


class StampedSource:
    """Stamps how long the observer keeps each snapshot it is handed."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.absorb: list[float] = []

    def read(self):
        return iter(self.inner)

    def __iter__(self):
        for snapshot in self.read():
            handed = perf_counter()
            yield snapshot
            self.absorb.append(perf_counter() - handed)
            self.after()

    def after(self) -> None:
        """Called after each snapshot is absorbed, outside the stamped time."""


class ProbedSource(StampedSource):
    def __init__(self, inner) -> None:
        super().__init__(inner)
        self.probes: list[float] = []

    def after(self) -> None:
        start = perf_counter()
        work(PROBE_ROWS)
        self.probes.append(perf_counter() - start)


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    replay, events_csv, out_json = argv
    source = ProbedSource(observer.ReplayDirectorySource(replay))
    with observer.CsvEventSink(events_csv) as sink:
        observer.run_observation(source, sink)
    with open(out_json, "w") as fh:
        json.dump({"absorb": source.absorb, "probes": source.probes}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
