#!/usr/bin/env python3
"""Wall times of the stages of `simulate`, in-process, on one benchmark workload.

Writes the workload's inputs (from `perfbench/workloads.py`, read only),
runs `synthesize` once, then calls `simulate --gains` through
`cascade_stab.cli.main` `--calls` times in this process, and prints the
median over the calls of each stage, in milliseconds:

    simulate        the whole command
    integrate       simulator.integrate
    field fill      simulator.expand, the field expansion
    fork to last    from the fork of the CSV helper to the end of write_csvs
    own formatting  the parent's _csv_lines calls
    helper wait     the parent in the helper's append_to and close: waiting
                    for the helper's blocks, copying them, and the reap
    parent blocks   blocks formatted by the parent (a count)
    helper blocks   blocks formatted by the helper (a count)

The stages are timed by wrapping those functions, in the parent only, so
the tree under test needs no change.  Unless the environment sets it,
OpenBLAS gets one thread, as in the benchmark:

    python3 tools/simulate_stages.py --workload fine-mesh --seed 3 --calls 60
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave perfbench/ as it is
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cascade_stab import cli, simulator  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

STAGES = ("simulate", "integrate", "field fill", "fork to last", "own formatting",
          "helper wait", "parent blocks", "helper blocks")


class Recorder:
    """Wraps the stage functions and collects one dict of times per call."""

    def __init__(self):
        self.parent = os.getpid()
        self.call: dict = {}
        self.forked_at = None

    def add(self, stage: str, value: float) -> None:
        self.call[stage] = self.call.get(stage, 0.0) + value

    def time(self, owner, name: str, stage: str) -> None:
        """Add the parent's time in owner.name to `stage`."""
        real = getattr(owner, name)

        def timed(*args, **kwargs):
            if os.getpid() != self.parent:
                return real(*args, **kwargs)
            start = time.perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                self.add(stage, time.perf_counter() - start)
        setattr(owner, name, timed)

    def install(self) -> None:
        self.time(simulator, "integrate", "integrate")
        self.time(simulator, "expand", "field fill")
        self.time(simulator._Helper, "append_to", "helper wait")
        self.time(simulator._Helper, "close", "helper wait")
        real_lines, real_fork, real_write = simulator._csv_lines, os.fork, simulator.write_csvs

        def lines(block):
            if os.getpid() != self.parent:
                return real_lines(block)
            start = time.perf_counter()
            text = real_lines(block)
            self.add("own formatting", time.perf_counter() - start)
            self.add("parent blocks", 1)
            return text

        def fork():
            self.forked_at = time.perf_counter()
            return real_fork()

        def write_csvs(tables):
            tables = list(tables)
            self.add("helper blocks", sum(table.blocks() for table in tables))
            real_write(tables)
            if self.forked_at is not None:
                self.add("fork to last", time.perf_counter() - self.forked_at)

        simulator._csv_lines, os.fork, simulator.write_csvs = lines, fork, write_csvs

    def run(self, argv: list) -> dict:
        self.call, self.forked_at = {}, None
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise SystemExit(f"simulate exited {rc}")
        self.add("simulate", time.perf_counter() - start)
        # Every block is formatted once: the helper did the ones the parent did not.
        self.call["helper blocks"] -= self.call.get("parent blocks", 0)
        return self.call


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="fine-mesh")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--calls", type=int, default=60)
    parser.add_argument("--warmup", type=int, default=3)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as inputs, tempfile.TemporaryDirectory() as out:
        plant, initial = write_inputs(workload, args.seed, inputs)
        argv = workload.cli_args(plant, initial, out)
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv["synthesize"]) != 0:
                raise SystemExit("synthesize failed")
        recorder = Recorder()
        recorder.install()
        calls = [recorder.run(argv["simulate"]) for _ in range(args.warmup + args.calls)]
    calls = calls[args.warmup:]
    print(f"{args.workload}, seed {args.seed}, {args.calls} calls, "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}: medians")
    for stage in STAGES:
        values = [call.get(stage, 0.0) for call in calls]
        median = statistics.median(values)
        shown = f"{median:g}" if stage.endswith("blocks") else f"{1e3 * median:.2f} ms"
        print(f"  {stage:<15} {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
