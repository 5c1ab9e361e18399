#!/usr/bin/env python3
"""Wall times of the stages of `synthesize`, in-process, on one benchmark workload.

Writes the workload's inputs (from `perfbench/workloads.py`, read only),
then calls `synthesize` through `cascade_stab.cli.main` `--calls` times in
this process, and prints the median over the calls of each stage, in
milliseconds:

    synthesize      the whole command
    load+validate   cli._load_validated, reading and checking the plant
    pipeline        cli._synthesize_pipeline: basis, transforms, gains, certificate
    gains dict      synthesis.gains_to_dict, the gains file's document
    write_json      model.write_json, writing gains.json
    report          cli._report_text, the report's text
    rest            the command less the stages above

The stages are timed by wrapping those functions, so the tree under test
needs no change.  Unless the environment sets it, OpenBLAS gets one thread,
as in the benchmark:

    python3 tools/synthesize_stages.py --workload wide-actuation --seed 3 --calls 200
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

from cascade_stab import cli, model, synthesis  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

WRAPPED = ((cli, "_load_validated", "load+validate"),
           (cli, "_synthesize_pipeline", "pipeline"),
           (synthesis, "gains_to_dict", "gains dict"),
           (model, "write_json", "write_json"),
           (cli, "_report_text", "report"))
STAGES = ("synthesize", *(stage for _, _, stage in WRAPPED), "rest")


class Recorder:
    """Wraps the stage functions and collects one dict of times per call."""

    def __init__(self):
        self.call: dict = {}

    def time(self, owner, name: str, stage: str) -> None:
        """Add the time in owner.name to `stage`."""
        real = getattr(owner, name)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                self.call[stage] = self.call.get(stage, 0.0) + time.perf_counter() - start
        setattr(owner, name, timed)

    def run(self, argv: list) -> dict:
        self.call = {}
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise SystemExit(f"synthesize exited {rc}")
        total = time.perf_counter() - start
        self.call["rest"] = total - sum(self.call.values())
        self.call["synthesize"] = total
        return self.call


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="wide-actuation")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--calls", type=int, default=100)
    parser.add_argument("--warmup", type=int, default=5)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    recorder = Recorder()
    for owner, name, stage in WRAPPED:
        recorder.time(owner, name, stage)
    with tempfile.TemporaryDirectory() as inputs, tempfile.TemporaryDirectory() as out:
        plant, initial = write_inputs(workload, args.seed, inputs)
        argv = workload.cli_args(plant, initial, out)["synthesize"]
        calls = [recorder.run(argv) for _ in range(args.warmup + args.calls)]
    calls = calls[args.warmup:]
    print(f"{args.workload}, seed {args.seed}, {args.calls} calls, "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}: medians")
    for stage in STAGES:
        median = statistics.median(call.get(stage, 0.0) for call in calls)
        print(f"  {stage:<15} {1e3 * median:.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
