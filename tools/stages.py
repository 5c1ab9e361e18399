#!/usr/bin/env python3
"""Wall times of the stages of one command, in-process, on one benchmark workload.

Writes the workload's inputs (from `perfbench/workloads.py`, read only),
runs `synthesize` once for `simulate`'s `--gains`, then calls the command
through `cascade_stab.cli.main` `--warmup` + `--calls` times in this
process, and prints the median over the last `--calls` of each stage, in
milliseconds (blocks are counts).

synthesize (default workload wide-actuation, 100 calls, 5 warm-up):

    synthesize          the whole command
    load+validate       cli._load_validated, reading and checking the plant
    pipeline            cli._synthesize_pipeline: basis, transforms, gains, certificate
    gains dict          synthesis.gains_to_dict, the gains file's document
    write_json          model.write_json, writing gains.json
    report              cli._report_text, the report's text
    rest                the command less the stages above

simulate (default workload fine-mesh, 60 calls, 3 warm-up):

    simulate            the whole command
    integrate           simulator.integrate
    field rows          the parent's field.csv rows: the fields of its blocks,
                        multiplied out from the eigenfunction matrix, with t
                        and x (a tree that expands the whole field before it
                        formats shows only the slicing here)
    fork to last        from the fork of the CSV helper to the end of write_csvs
    own formatting      the parent's _csv_lines calls
    helper wait         the parent in the helper's append_to and close: waiting
                        for the helper's blocks, copying them, and the reap
    parent blocks       blocks formatted by the parent
    helper blocks       blocks formatted by the helper

verify (default workload wide-actuation, 100 calls, 5 warm-up):

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

The stages are timed by wrapping those functions, in the parent process
only, so the tree under test needs no change, and `--src` times the
package of another tree.  The helper's share of the work shows only as its
block count, and in-process the kernel may place the helper otherwise than
in the benchmark's pipeline, so `simulate` also prints the three readings
of `tools/cpu_pair.py` under its table: an unpinned pair near 2x alone
means the kernel keeps a fresh child on its parent's CPU.  Unless the
environment sets it, OpenBLAS gets one thread, as in the benchmark:

    python3 tools/stages.py synthesize --workload wide-actuation --seed 3 --calls 200
    python3 tools/stages.py simulate --workload fine-mesh --seed 3 --calls 40
    python3 tools/stages.py verify --workload wide-actuation --seed 3 --calls 200
    python3 tools/stages.py verify --src /path/to/other/src ...
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
# (workload, calls, warm-up calls) of each command unless given.
DEFAULTS = {"synthesize": ("wide-actuation", 100, 5),
            "simulate": ("fine-mesh", 60, 3),
            "verify": ("wide-actuation", 100, 5)}


class Recorder:
    """Wraps the stage functions and collects one dict of times per call."""

    def __init__(self, cli):
        self.cli = cli
        self.parent = os.getpid()
        self.call: dict = {}
        self.ended: dict = {}

    def add(self, stage: str, value: float) -> None:
        self.call[stage] = self.call.get(stage, 0.0) + value

    def time(self, owner, name: str, stage: str, count: str | None = None) -> None:
        """Add the parent's time in owner.name to `stage`, and its calls to `count`."""
        setattr(owner, name, self.wrap(getattr(owner, name), stage, count))

    def wrap(self, real, stage: str, count: str | None = None):
        """`real`, adding the parent's time in it to `stage` and its calls to `count`."""
        def timed(*args, **kwargs):
            if os.getpid() != self.parent:
                return real(*args, **kwargs)
            start = time.perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                self.ended[stage] = time.perf_counter()
                self.add(stage, self.ended[stage] - start)
                if count:
                    self.add(count, 1)
        return timed

    def run(self, command: str, argv: list) -> tuple:
        """Call the command once; return its stage times and its start and end."""
        self.call, self.ended = {}, {}
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main(argv)
        end = time.perf_counter()
        if rc != 0:
            raise SystemExit(f"{command} exited {rc}")
        return self.call, start, end


def synthesize_stages(recorder: Recorder) -> tuple:
    """Wrap synthesize's stage functions; return its stages and a call's finish."""
    from cascade_stab import cli, model, synthesis

    wrapped = ((cli, "_load_validated", "load+validate"),
               (cli, "_synthesize_pipeline", "pipeline"),
               (synthesis, "gains_to_dict", "gains dict"),
               (model, "write_json", "write_json"),
               (cli, "_report_text", "report"))
    for owner, name, stage in wrapped:
        recorder.time(owner, name, stage)

    def finish(call: dict, start: float, end: float) -> dict:
        call["rest"] = end - start - sum(call.values())
        call["synthesize"] = end - start
        return call
    return ("synthesize", *(stage for _, _, stage in wrapped), "rest"), finish


def simulate_stages(recorder: Recorder) -> tuple:
    """Wrap simulate's stage functions; return its stages and a call's finish."""
    from cascade_stab import simulator

    recorder.time(simulator, "integrate", "integrate")
    real_field_table = simulator.field_table

    def field_table(*args):
        table = real_field_table(*args)
        return table._replace(rows=recorder.wrap(table.rows, "field rows"))

    simulator.field_table = field_table
    recorder.time(simulator._Helper, "append_to", "helper wait")
    recorder.time(simulator._Helper, "close", "helper wait")
    recorder.time(simulator, "_csv_lines", "own formatting", count="parent blocks")
    real_fork, real_write = os.fork, simulator.write_csvs

    def fork():
        recorder.ended["fork"] = time.perf_counter()
        return real_fork()

    def write_csvs(tables):
        tables = list(tables)
        recorder.add("helper blocks", sum(table.blocks() for table in tables))
        real_write(tables)
        if "fork" in recorder.ended:
            recorder.add("fork to last", time.perf_counter() - recorder.ended["fork"])

    os.fork, simulator.write_csvs = fork, write_csvs

    def finish(call: dict, start: float, end: float) -> dict:
        call["simulate"] = end - start
        # Every block is formatted once: the helper did the ones the parent did not.
        call["helper blocks"] -= call.get("parent blocks", 0)
        return call
    return ("simulate", "integrate", "field rows", "fork to last", "own formatting",
            "helper wait", "parent blocks", "helper blocks"), finish


def verify_stages(recorder: Recorder) -> tuple:
    """Wrap verify's stage functions; return its stages and a call's finish."""
    from cascade_stab import checks, cli, simulator, synthesis

    margins = "certificate_margins" if hasattr(synthesis, "certificate_margins") \
        else "certificate"
    for owner, name, stage in ((cli, "_load_validated", "load+validate"),
                               (synthesis, "build_controller", "build_controller"),
                               (synthesis, margins, "certificate margins"),
                               *((checks, name, "checks") for name in
                                 ("sylvester", "per_mode", "factorization",
                                  "certificate_signs")),
                               (simulator, "assemble_closed_loop", "assemble"),
                               (simulator, "integrate", "integrate"),
                               (simulator, "target_residual", "target residual")):
        recorder.time(owner, name, stage)

    def finish(call: dict, start: float, end: float) -> dict:
        if "target residual" in recorder.ended:
            call["print"] = end - recorder.ended["target residual"]
        call["rest"] = end - start - sum(call.values())
        call["verify"] = end - start
        return call
    return ("verify", "load+validate", "build_controller", "certificate margins",
            "checks", "assemble", "integrate", "target residual", "print", "rest"), finish


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", choices=DEFAULTS)
    parser.add_argument("--workload", choices=("demo-cosine", "fine-mesh", "wide-actuation"))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--calls", type=int)
    parser.add_argument("--warmup", type=int)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory of the tree to time (default: this tree's)")
    args = parser.parse_args()
    workload, calls, warmup = DEFAULTS[args.command]
    args.workload = args.workload or workload
    args.calls = calls if args.calls is None else args.calls
    args.warmup = warmup if args.warmup is None else args.warmup
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path[:0] = [str(args.src), str(ROOT / "perfbench")]
    from cascade_stab import cli
    from workloads import WORKLOADS, write_inputs

    recorder = Recorder(cli)
    install = {"synthesize": synthesize_stages, "simulate": simulate_stages,
               "verify": verify_stages}[args.command]
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as inputs, tempfile.TemporaryDirectory() as out:
        plant, initial = write_inputs(workload, args.seed, inputs)
        argv = workload.cli_args(plant, initial, out)
        if args.command == "simulate":
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv["synthesize"]) != 0:
                    raise SystemExit("synthesize failed")
        stages, finish = install(recorder)
        runs = [finish(*recorder.run(args.command, argv[args.command]))
                for _ in range(args.warmup + args.calls)]
    runs = runs[args.warmup:]
    print(f"{args.workload}, seed {args.seed}, {args.calls} calls, "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}: medians")
    width = max(map(len, stages))
    for stage in stages:
        median = statistics.median(call.get(stage, 0.0) for call in runs)
        shown = f"{median:g}" if stage.endswith("blocks") else f"{1e3 * median:.3f} ms"
        print(f"  {stage:<{width}} {shown}")
    if args.command == "simulate":
        from cpu_pair import readings

        medians = readings()
        print("tools/cpu_pair.py: " + ", ".join(
            f"{way} {median:.3f} s ({median / medians['alone']:.2f}x)"
            for way, median in medians.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
