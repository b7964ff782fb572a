"""Starts the benchmark's program runs from a small process.

Linux starts a child's peak-RSS count (``ru_maxrss``) at its parent's peak
at fork time, so a program run forked from the benchmark driver, which holds
the generated inputs and their ground truth, would report the driver's
memory instead of its own. The driver starts this process before it
generates anything and sends it one JSON request per line:
``{"argv": [...], "stdout": path, "stderr": path}``. It answers each with
one JSON line: ``{"wall_s", "maxrss_kb", "returncode"}``, where the wall
time runs from spawn to reap and ``returncode`` is -1 after a timeout kill.
It exits when its input closes.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from time import perf_counter

TIMEOUT_SECONDS = 120


class Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise Timeout


def run(argv: list[str], stdout: str, stderr: str) -> dict:
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        signal.alarm(TIMEOUT_SECONDS)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            returncode = os.waitstatus_to_exitcode(status)
        except Timeout:
            proc.kill()
            _, _, usage = os.wait4(proc.pid, 0)
            returncode = -1
        finally:
            signal.alarm(0)
        wall = perf_counter() - start
    return {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "returncode": returncode}


def main() -> int:
    signal.signal(signal.SIGALRM, _on_alarm)
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["stdout"], request["stderr"])
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
