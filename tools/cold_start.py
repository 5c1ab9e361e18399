#!/usr/bin/env python3
"""Cold-start wall time of each command, each run in a fresh interpreter.

Times `python -m cascade_stab synthesize`, `simulate --gains` and `verify`
from outside, with the argv that `perfbench/workloads.py` gives one
workload, on inputs drawn from one seed.  Each timed run starts a new
process, so it pays the interpreter start, the imports and the command's
own work.  Two bytecode states are measured:

    as-is    the environment as it is (a host that sets
             PYTHONDONTWRITEBYTECODE=1 compiles every module on every start)
    cached   bytecode cached outside the tree: PYTHONPYCACHEPREFIX points at
             a temporary directory, PYTHONDONTWRITEBYTECODE is unset, and one
             untimed run per command fills the cache first

Several package source directories can be compared; the runs alternate
between them round by round, so host drift hits each alike.  Prints the
median and interquartile range of the wall time per state, command and
source directory, in ms:

    python3 tools/cold_start.py
    python3 tools/cold_start.py --runs 21 /path/to/parent/src src
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave perfbench/ as it is
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, write_inputs  # noqa: E402

COMMANDS = ("synthesize", "simulate", "verify")


def _environments(cache: str) -> dict[str, dict]:
    base = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cached = {k: v for k, v in base.items() if k != "PYTHONDONTWRITEBYTECODE"}
    cached["PYTHONPYCACHEPREFIX"] = cache
    return {"as-is": base, "cached": cached}


def _run(argv: list[str], env: dict) -> float:
    """Wall time of one fresh `python -m cascade_stab` run."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "cascade_stab", *argv], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure(sources: list[str], workload: str, seed: int, runs: int) -> dict:
    """(state, command, source) -> wall times in seconds."""
    w = WORKLOADS[workload]
    times = {}
    with tempfile.TemporaryDirectory() as tmp:
        plant, initial = write_inputs(w, seed, tmp)
        argvs = {}
        for i, src in enumerate(sources):
            out = os.path.join(tmp, f"out{i}")
            argvs[src] = w.cli_args(plant, initial, out)
        envs = _environments(os.path.join(tmp, "pycache"))
        for state, env in envs.items():
            for src in sources:
                for cmd in COMMANDS:  # untimed: writes gains.json, fills caches
                    _run(argvs[src][cmd], dict(env, PYTHONPATH=src))
        for r in range(runs):
            order = sources if r % 2 == 0 else sources[::-1]
            for state, env in envs.items():
                for cmd in COMMANDS:
                    for src in order:
                        times.setdefault((state, cmd, src), []).append(
                            _run(argvs[src][cmd], dict(env, PYTHONPATH=src)))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sources", nargs="*", default=[str(ROOT / "src")],
                        help="package source directories (default: this checkout's src)")
    parser.add_argument("--workload", default="demo-cosine", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--runs", type=int, default=15, help="timed runs per cell")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    sources = [str(Path(src).resolve()) for src in args.sources]
    times = measure(sources, args.workload, args.seed, args.runs)
    print(f"workload {args.workload}  seed {args.seed}  {args.runs} runs per cell  "
          f"python {sys.version.split()[0]}")
    print(f"{'state':<8} {'command':<11} {'median_ms':>9} {'iqr_ms':>7}  source")
    for (state, cmd, src), samples in times.items():
        q1, _, q3 = statistics.quantiles(samples, n=4)
        print(f"{state:<8} {cmd:<11} {1e3 * statistics.median(samples):9.1f} "
              f"{1e3 * (q3 - q1):7.1f}  {src}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
