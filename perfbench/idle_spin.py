"""Keep one CPU out of idle without taking it from anyone, and note when
something else had it.

    python3 perfbench/idle_spin.py CPU GAPS_FILE

Spins on ``CPU`` under ``SCHED_IDLE``, the lowest scheduling class: a task
of any other class that wakes there preempts it at once.  While it runs,
the virtual CPU never halts, so a server pinned there wakes for a request
without waiting for the hypervisor to resume an idle virtual CPU.  That
wait is about 0.1 ms on a quiet shared host and grows to milliseconds when
the host is busy; it is the host's, not the server's, so the benchmark keeps
it out of the latency it measures, as ``idle=poll`` would.  The loop touches
almost no memory, so it leaves the server's data in the caches.

The loop notes every stretch of at least ``GAP_S`` in which it did not run:
the server was busy that long, or the host gave the CPU to another tenant.
On SIGTERM, or when its parent exits, it writes them to ``GAPS_FILE`` as a
JSON list of ``[perf_counter start, perf_counter end]`` and exits.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

#: Shortest stretch off the CPU that is noted, in seconds: several times
#: what the server spends on one paced request.
GAP_S = 0.002


def main() -> int:
    cpu, gaps_path = int(sys.argv[1]), sys.argv[2]
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    parent = os.getppid()
    gaps = []
    clock = time.perf_counter
    last = clock()
    try:
        while os.getppid() == parent:
            deadline = last + 0.05
            while last < deadline:
                now = clock()
                if now - last >= GAP_S:
                    gaps.append((last, now))
                last = now
    finally:
        with open(gaps_path, "w") as out:
            json.dump(gaps, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
