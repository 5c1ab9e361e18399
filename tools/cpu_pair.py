#!/usr/bin/env python3
"""Wall time of a fixed pure-Python loop, alone and as two processes.

Prints the median, over `--repeats` rounds, of each process's wall time
for the loop: one process alone, a process and the child it forks
unpinned, and the two pinned to distinct allowed CPUs.  Where the unpinned
pair takes about twice the time of one process and the pinned pair does
not, the kernel is keeping the child on its parent's CPU, as it would keep
`simulate`'s CSV helper without its pin; where both pairs take about the
time of one, a slow `simulate` is the host's.  The default loop takes
about 30 ms, as long as the helper lives in a `simulate` call: a child
that runs for a second or so is moved off its parent's CPU by the kernel
in time, and does not show the effect.

    python3 tools/cpu_pair.py
    python3 tools/cpu_pair.py --loop 3000000 --repeats 5
"""

import argparse
import os
import statistics
import time


def _loop(n: int) -> float:
    start, total = time.perf_counter(), 0
    for i in range(n):
        total += i * i
    return time.perf_counter() - start


def _pair(cpus, n: int) -> list:
    """The loop's wall times in a forked process, and, where `cpus` has two
    entries, in a child that it forks just before its own loop, as the CSV
    writer forks its helper.  Each is pinned to its entry where not None."""
    r, w = os.pipe()
    if os.fork() == 0:
        if len(cpus) == 2 and os.fork() == 0:
            cpus = cpus[1:]
        if cpus[0] is not None:
            os.sched_setaffinity(0, {cpus[0]})
        took = _loop(n)
        if len(cpus) == 2:
            os.wait()
        os.write(w, f"{took!r}\n".encode())
        os._exit(0)
    os.close(w)
    with os.fdopen(r) as fh:
        times = [float(line) for line in fh]
    os.wait()
    return times


def readings(repeats: int = 9, loop: int = 300_000) -> dict:
    """The median wall time, in s, of each way to run the loop, by name:
    alone, two unpinned, and two pinned where two CPUs are allowed."""
    allowed = sorted(os.sched_getaffinity(0))
    ways = {"alone": [None], "two unpinned": [None, None]}
    if len(allowed) >= 2:
        ways[f"two pinned to CPUs {allowed[0]} and {allowed[1]}"] = allowed[:2]
    return {way: statistics.median(t for _ in range(repeats) for t in _pair(cpus, loop))
            for way, cpus in ways.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--loop", type=int, default=300_000, help="iterations")
    args = parser.parse_args()
    print(f"{len(os.sched_getaffinity(0))} allowed CPUs, loop of {args.loop}, "
          f"{args.repeats} repeats: medians")
    medians = readings(args.repeats, args.loop)
    for way, median in medians.items():
        print(f"  {way:30s} {median:.3f} s  {median / medians['alone']:.2f}x alone")


if __name__ == "__main__":
    main()
