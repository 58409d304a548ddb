"""Calibration sampler: the kernel of ``worker.py``, run alongside the work.

Usage: ``python3 perfbench/sampler.py`` (started by ``run.py``).  Every
``PERIOD_S`` it times one kernel round in thread CPU time and keeps
``(CLOCK_MONOTONIC ns at mid-round, kernel ns)``; when its standard input
closes it prints all samples as one JSON list and exits.

It runs on the same CPU as the measured processes (``run.py`` pins itself
and every child to one CPU): on the 2-core reference VM the speed changes
are per CPU, and a sampler on the other CPU did not correlate with the work
at all.  It never imports the library, so its heap stays clean.  One round
is about 5 ms per 50 ms period, and the measured processes are timed in CPU
time, so the rounds it steals are not counted against them.
"""

import json
import select
import sys
import time

from worker import KERNEL_SIZE, _clock, _kernel_round

PERIOD_S = 0.05


def main() -> int:
    samples = []
    while True:
        start = _clock()
        cpu = time.thread_time_ns()
        _kernel_round(KERNEL_SIZE)
        samples.append(((start + _clock()) // 2, time.thread_time_ns() - cpu))
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if ready and not sys.stdin.readline():
            break
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
