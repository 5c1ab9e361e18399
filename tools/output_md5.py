#!/usr/bin/env python3
"""md5 of every output of the pipeline on the benchmark workloads.

Runs `synthesize`, `simulate --gains` and `verify` in-process through
`cascade_stab.cli.main`, with the argv that `perfbench/workloads.py` gives
each workload, on inputs drawn from one seed.  Prints one line per command
and one per file it wrote:

    <workload> <command> exit+stdout <md5>
    <workload> <command> <file> <md5>

The first md5 is of the exit code, a newline and the command's stdout.  Two
trees whose lines are equal wrote the same bytes.  The BLAS thread count is
the caller's, so set it in the environment:

    OPENBLAS_NUM_THREADS=1 python3 tools/output_md5.py --seed 3
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave perfbench/ as it is
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cascade_stab import cli  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402


def _md5(data: bytes) -> str:
    return hashlib.md5(data).hexdigest()


def _files(directory: str) -> dict:
    """md5 of each file in directory, by name."""
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = _md5(fh.read())
    return out


def workload_lines(name: str, seed: int) -> list[str]:
    lines = []
    with tempfile.TemporaryDirectory() as inputs, tempfile.TemporaryDirectory() as out:
        plant, initial = write_inputs(WORKLOADS[name], seed, inputs)
        before = {}
        for command, argv in WORKLOADS[name].cli_args(plant, initial, out).items():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                rc = cli.main(argv)
            digest = _md5(f"{rc}\n{stdout.getvalue()}".encode())
            lines.append(f"{name} {command} exit+stdout {digest}")
            after = _files(out)
            lines += [f"{name} {command} {file} {digest}"
                      for file, digest in after.items() if before.get(file) != digest]
            before = after
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()
    for name in WORKLOADS:
        sys.stdout.write("".join(f"{line}\n" for line in workload_lines(name, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
