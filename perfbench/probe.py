"""Host speed probe: times a fixed chunk of pure-Python work on one CPU.

    python3 perfbench/probe.py --cpu 0 > probe0.log

Pinned to ``--cpu``, it runs the chunk every ``PERIOD_S`` until it is
killed or its parent ends, and prints one line per chunk: the
CLOCK_MONOTONIC time it ended and the CPU time it took.  It sleeps between
chunks, so it takes about 5% of the CPU; the engine process pinned to the
same CPU runs in the gaps and meets the same host conditions.  It uses no
chromhom code, so a change to the program leaves its figures alone.
"""

import argparse
import os
import sys
import time
from fractions import Fraction

PERIOD_S = 0.04


def chunk() -> Fraction:
    """About 2 ms of exact arithmetic and dict updates, like the engine's."""
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 900):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
        table[i % 13] = table.get(i % 13, 0) + i * i
    return acc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    parent = os.getppid()
    while os.getppid() == parent:
        began = time.thread_time()
        chunk()
        took = time.thread_time() - began
        print(f"{time.monotonic():.6f} {took:.9f}", flush=True)
        time.sleep(PERIOD_S)
    return 0


if __name__ == "__main__":
    sys.exit(main())
