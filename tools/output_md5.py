#!/usr/bin/env python3
"""md5 of every output of the pipeline on the benchmark workloads.

Runs `synthesize`, `simulate --gains` and `verify` in-process through
`cascade_stab.cli.main`, with the argv that `perfbench/workloads.py` gives
each workload, on inputs drawn from one seed.  Then it runs `synthesize
--dump-basis --dump-transform` (command `synthesize-dumps`), so that every
file the JSON writer makes is hashed, and the same `simulate` with
`--open-loop` (command `simulate-open-loop`), the only command whose tail
takes the per-slice `expm` (N = 0), and the same `simulate` with
`--grid-points 1001` (command `simulate-fine-grid`), where each block of
`field.csv` is one step, each into a directory of its own.  Last it runs
`synthesize`, `simulate --gains` and `verify` at `--delta 1` on a stable
plant that retains no mode (`stable-n0`: `example_plant_dict()` with the
Q of `STABLE_Q`, and demo-cosine's initial profiles for the seed), so
that the N = 0 path of every command is hashed too.  Prints one
line per command and one per file that it wrote and that the command
before it did not write with the same bytes, 65 lines in all:

    <workload> <command> exit+stdout <md5>
    <workload> <command> <file> <md5>

The first md5 is of the exit code, a newline and the command's stdout.  Two
trees whose lines are equal wrote the same bytes.  The BLAS thread count is
the caller's, so set it in the environment.  `--src` runs the package of
another tree with this tree's tool, so that two trees are hashed on the
same commands:

    OPENBLAS_NUM_THREADS=1 python3 tools/output_md5.py --seed 3
    OPENBLAS_NUM_THREADS=1 python3 tools/output_md5.py --seed 3 --src /path/to/other/src
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Q of the `stable-n0` plant: -lambda_1 D + Sym(Q) + I is negative
# definite, so `synthesize` retains no mode at delta = 1.
STABLE_Q = [[-1.0, 0.5, 0.0], [1.0, -1.0, 0.5], [0.0, 1.0, -1.0]]


def _md5(data: bytes) -> str:
    return hashlib.md5(data).hexdigest()


def _files(directory: str) -> dict:
    """md5 of each file in directory, by name."""
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = _md5(fh.read())
    return out


def _run_lines(name: str, runs) -> list[str]:
    """The lines of each (command, argv, directory) run, in order."""
    from cascade_stab import cli

    lines, before = [], {}
    for command, argv, directory in runs:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(argv)
        digest = _md5(f"{rc}\n{stdout.getvalue()}".encode())
        lines.append(f"{name} {command} exit+stdout {digest}")
        after = _files(directory)
        lines += [f"{name} {command} {file} {digest}"
                  for file, digest in after.items() if before.get(file) != digest]
        before = after
    return lines


def workload_lines(name: str, seed: int) -> list[str]:
    from workloads import WORKLOADS, write_inputs

    with tempfile.TemporaryDirectory() as inputs, tempfile.TemporaryDirectory() as out, \
            tempfile.TemporaryDirectory() as open_loop, tempfile.TemporaryDirectory() as dumps, \
            tempfile.TemporaryDirectory() as fine:
        plant, initial = write_inputs(WORKLOADS[name], seed, inputs)
        argvs = WORKLOADS[name].cli_args(plant, initial, out)
        runs = [(command, argv, out) for command, argv in argvs.items()]
        synthesize = WORKLOADS[name].cli_args(plant, initial, dumps)["synthesize"]
        runs.append(("synthesize-dumps", [*synthesize, "--dump-basis", "--dump-transform"],
                     dumps))
        simulate = argvs["simulate"]
        at = simulate.index("--out-dir") + 1
        runs.append(("simulate-open-loop",
                     [*simulate[:at], open_loop, *simulate[at + 1:], "--open-loop"], open_loop))
        grid = simulate.index("--grid-points") + 1
        fine_grid = [*simulate[:grid], "1001", *simulate[grid + 1:]]
        runs.append(("simulate-fine-grid", [*fine_grid[:at], fine, *fine_grid[at + 1:]], fine))
        return _run_lines(name, runs)


def stable_lines(seed: int) -> list[str]:
    """The `stable-n0` lines: a plant that retains no mode at delta = 1."""
    from cascade_stab import model
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as inputs, tempfile.TemporaryDirectory() as out:
        plant, initial = os.path.join(inputs, "plant.json"), os.path.join(inputs, "initial.json")
        with open(plant, "w", encoding="utf-8") as fh:
            json.dump({**model.example_plant_dict(), "Q": STABLE_Q}, fh)
        with open(initial, "w", encoding="utf-8") as fh:
            json.dump(WORKLOADS["demo-cosine"].initial_profiles(seed), fh)
        runs = [("synthesize", ["synthesize", "--plant", plant, "--delta", "1",
                                "--out-dir", out], out),
                ("simulate", ["simulate", "--plant", plant, "--gains", f"{out}/gains.json",
                              "--initial", initial, "--out-dir", out], out),
                ("verify", ["verify", "--plant", plant, "--delta", "1"], out)]
        return _run_lines("stable-n0", runs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory of the tree to hash (default: this tree's)")
    args = parser.parse_args()
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path[:0] = [str(args.src), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    lines = [line for name in WORKLOADS for line in workload_lines(name, args.seed)]
    sys.stdout.write("".join(f"{line}\n" for line in [*lines, *stable_lines(args.seed)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
