#!/usr/bin/env python3
"""Wall times of the stages of `verify`, in-process, on one benchmark workload.

Writes the workload's inputs (from `perfbench/workloads.py`, read only),
then calls `verify` through `cascade_stab.cli.main` `--calls` times in this
process, and prints the median over the calls of each stage, in
milliseconds:

    verify              the whole command
    load+validate       cli._load_validated, reading and checking the plant
    build_controller    synthesis.build_controller: N, K_Q and P, the maps of
                        the retained modes, the gains and their factorization
    certificate margins synthesis.certificate_margins (synthesis.certificate
                        in a tree that has no margins-only step)
    checks              the checks module's rows: sylvester, per_mode,
                        factorization and certificate_signs, as verify calls them
    assemble            simulator.assemble_closed_loop
    integrate           simulator.integrate
    target residual     simulator.target_residual
    print               from the end of the target residual to the end of the
                        command: the last row and the table's text
    rest                the command less the stages above (parsing, the
                        basis and the transform family)

The stages are timed by wrapping those functions, so the tree under test
needs no change, and the same script times an older tree.  Unless the
environment sets it, OpenBLAS gets one thread, as in the benchmark:

    python3 tools/verify_stages.py --workload wide-actuation --seed 3 --calls 200
    python3 tools/verify_stages.py --src /path/to/other/src ...
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
STAGES = ("verify", "load+validate", "build_controller", "certificate margins",
          "checks", "assemble", "integrate", "target residual", "print", "rest")


def wrapped(cli, checks, simulator, synthesis) -> tuple:
    """(owner, name, stage) of every function a stage is timed by."""
    margins = "certificate_margins" if hasattr(synthesis, "certificate_margins") \
        else "certificate"
    return ((cli, "_load_validated", "load+validate"),
            (synthesis, "build_controller", "build_controller"),
            (synthesis, margins, "certificate margins"),
            *((checks, name, "checks") for name in
              ("sylvester", "per_mode", "factorization", "certificate_signs")),
            (simulator, "assemble_closed_loop", "assemble"),
            (simulator, "integrate", "integrate"),
            (simulator, "target_residual", "target residual"))


class Recorder:
    """Wraps the stage functions and collects one dict of times per call."""

    def __init__(self, cli):
        self.cli = cli
        self.call: dict = {}
        self.residual_end = None

    def time(self, owner, name: str, stage: str) -> None:
        """Add the time in owner.name to `stage`."""
        real = getattr(owner, name)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.call[stage] = self.call.get(stage, 0.0) + end - start
                if stage == "target residual":
                    self.residual_end = end
        setattr(owner, name, timed)

    def run(self, argv: list) -> dict:
        self.call, self.residual_end = {}, None
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main(argv)
        end = time.perf_counter()
        if rc != 0:
            raise SystemExit(f"verify exited {rc}")
        if self.residual_end is not None:
            self.call["print"] = end - self.residual_end
        self.call["rest"] = end - start - sum(self.call.values())
        self.call["verify"] = end - start
        return self.call


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="wide-actuation",
                        choices=("demo-cosine", "fine-mesh", "wide-actuation"))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--calls", type=int, default=100)
    parser.add_argument("--warmup", type=int, default=5)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory of the tree to time (default: this tree's)")
    args = parser.parse_args()
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path[:0] = [str(args.src), str(ROOT / "perfbench")]
    from cascade_stab import checks, cli, simulator, synthesis
    from workloads import WORKLOADS, write_inputs

    workload = WORKLOADS[args.workload]
    recorder = Recorder(cli)
    for owner, name, stage in wrapped(cli, checks, simulator, synthesis):
        recorder.time(owner, name, stage)
    with tempfile.TemporaryDirectory() as inputs:
        plant, initial = write_inputs(workload, args.seed, inputs)
        argv = workload.cli_args(plant, initial, inputs)["verify"]
        calls = [recorder.run(argv) for _ in range(args.warmup + args.calls)]
    calls = calls[args.warmup:]
    print(f"{args.workload}, seed {args.seed}, {args.calls} calls, "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}: medians")
    for stage in STAGES:
        median = statistics.median(call.get(stage, 0.0) for call in calls)
        print(f"  {stage:<19} {1e3 * median:.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
