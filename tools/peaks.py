#!/usr/bin/env python3
"""Memory peaks of the stages of one workload's synthesize, simulate, verify cycle.

Writes the workload's inputs (from `perfbench/workloads.py`, read only)
and runs its three commands through `cascade_stab.cli.main` in this
process, twice.  The first cycle reads VmHWM, the process's resident
high-water mark, before and after each stage, and reports its increase:
the memory that the stage's first call adds to the peak the benchmark's
`peak_rss_mb` reads.  The second cycle runs under tracemalloc and reports
each stage's traced peak above the traced memory at its start, which does
not depend on what the allocator kept from earlier stages.  Both are in MB;
a stage called more than once in a command shows its largest peak and the
sum of its increases.

    write_json        model.write_json (synthesize's gains file)
    load_gains        cli.load_gains, reading and checking the gains file
    assemble          simulator.assemble_closed_loop
    _expm_blocks      simulator._expm_blocks, the block step exp(dt A)
    retained scan     simulator._propagate of the retained modes
    tail scan         simulator._propagate of the tail modes, driven by them
    write_csvs        simulator.write_csvs, in the parent process

The stages are measured by wrapping those functions, so the tree under
test needs no change, and `--src` reads the package of another tree.  Stages
do not nest, so one stage's tracemalloc peak is not reset inside another's.
Unless the environment sets it, OpenBLAS gets one thread, as in the
benchmark:

    python3 tools/peaks.py --workload wide-actuation --seed 3
    python3 tools/peaks.py --workload fine-mesh --src /path/to/other/src
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("synthesize", "simulate", "verify")
STAGES = ("write_json", "load_gains", "assemble", "_expm_blocks", "retained scan",
          "tail scan", "write_csvs")


def vm_hwm() -> int:
    """The process's resident high-water mark, in bytes."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise OSError("no VmHWM line in /proc/self/status")


class Peaks:
    """Wraps the stage functions; collects each stage's peaks per command."""

    def __init__(self):
        self.parent = os.getpid()
        self.command = ""
        self.traced: dict = {}
        self.hwm: dict = {}

    def wrap(self, owner, name: str, stage) -> None:
        """Measure owner.name; `stage` is its name, or a function of its arguments."""
        real = getattr(owner, name)

        def measured(*args, **kwargs):
            if os.getpid() != self.parent:
                return real(*args, **kwargs)
            label = stage(*args) if callable(stage) else stage
            key = (self.command, label)
            tracing = tracemalloc.is_tracing()
            if tracing:
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
            hwm = vm_hwm()
            try:
                return real(*args, **kwargs)
            finally:
                if tracing:
                    peak = tracemalloc.get_traced_memory()[1] - start
                    self.traced[key] = max(self.traced.get(key, 0), peak)
                else:
                    self.hwm[key] = self.hwm.get(key, 0) + vm_hwm() - hwm

        setattr(owner, name, measured)

    def cycle(self, cli, argv: dict) -> None:
        for command in COMMANDS:
            self.command = command
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv[command])
            if rc != 0:
                raise SystemExit(f"{command} exited {rc}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="wide-actuation",
                        choices=("demo-cosine", "fine-mesh", "wide-actuation"))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory of the tree to measure (default: this tree's)")
    args = parser.parse_args()
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path[:0] = [str(args.src), str(ROOT / "perfbench")]
    from cascade_stab import cli, model, simulator
    from workloads import WORKLOADS, write_inputs

    peaks = Peaks()
    peaks.wrap(model, "write_json", "write_json")
    peaks.wrap(cli, "load_gains", "load_gains")
    peaks.wrap(simulator, "assemble_closed_loop", "assemble")
    peaks.wrap(simulator, "_expm_blocks", "_expm_blocks")
    peaks.wrap(simulator, "_propagate", lambda out, z0, F, F_TR=None, *rest:
               "retained scan" if F_TR is None else "tail scan")
    peaks.wrap(simulator, "write_csvs", "write_csvs")
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as inputs, tempfile.TemporaryDirectory() as out:
        plant, initial = write_inputs(workload, args.seed, inputs)
        argv = workload.cli_args(plant, initial, out)
        peaks.cycle(cli, argv)
        tracemalloc.start()
        try:
            peaks.cycle(cli, argv)
        finally:
            tracemalloc.stop()
    print(f"{args.workload}, seed {args.seed}, "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}: "
          f"VmHWM {vm_hwm() / 1e6:.2f} MB after both cycles")
    print(f"  {'command':<11} {'stage':<14} {'traced peak':>11} {'VmHWM +':>8}")
    for command in COMMANDS:
        for stage in STAGES:
            key = (command, stage)
            if key in peaks.hwm:
                print(f"  {command:<11} {stage:<14} {peaks.traced[key] / 1e6:11.2f} "
                      f"{peaks.hwm[key] / 1e6:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
