#!/usr/bin/env python3
"""cascade-stab benchmark: the user pipeline, timed per command.

Each iteration runs `synthesize -> simulate --gains -> verify` in-process
through `cascade_stab.cli.main`, as one closed-loop client: the next command
starts when the previous one returns.  Every command is timed from outside,
and its outputs are checked outside the timed span.

    python3 perfbench/run.py --workload demo-cosine --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 90

`--workload all` runs every workload, interleaved round-robin so that host
drift hits all of them alike.  `--trace 1` alternates untraced and traced
iterations and reports the per-layer metrics of `layertrace.py`, the tracing
overhead, and the modal-vs-direct synthesis reference.  The last line of
stdout is a JSON object with `correct`, `attempted`, `failed` and `metrics`;
the exit code is 1 when any output check failed, 2 when the package source
is missing.  Records with raw samples and spans go to `perfbench/_work/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

# One BLAS thread: the load comes from this one process, and one thread is
# not held up by contention on the other core.  OpenBLAS reads the count once,
# when numpy is first imported, so it is set before the imports below.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.path[:0] = [str(SRC), str(BENCH)]

import numpy  # noqa: E402
import scipy  # noqa: E402

from checks import check_simulate, check_synthesize, check_verify  # noqa: E402
from layertrace import Tracer, metric_units  # noqa: E402
from workloads import (DELTA, POLE_OFFSETS, WORKLOADS,  # noqa: E402
                       analytic_modal_row, write_inputs)

COMMANDS = ("synthesize", "simulate", "verify")
SETUP_SAMPLES = 7    # spread over the run
DIRECT_REPEATS = 5
# Time of `calibration_kernel` on the reference host (2 vCPUs, Python 3.11.7,
# numpy 2.4.6) in its fast state.  Host-adjusted times are expressed against it.
REFERENCE_CAL_S = 0.0165
_CAL_MATRIX = numpy.random.default_rng(0).random((60, 60))

SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import cascade_stab.cli\n"
    "from cascade_stab import model\n"
    "model.validate_plant(model.load_plant(sys.argv[2]))\n"
)


def calibration_kernel() -> float:
    """Run fixed work shaped like the package's Python layers; return its time.

    Interpreter loops, dict and list churn, and small numpy calls, about
    17 ms: long enough that a stall of a few ms does not dominate it.
    """
    start = time.perf_counter()
    shifted = _CAL_MATRIX + 60.0 * numpy.eye(60)
    for _ in range(4):
        table = {}
        for i in range(4000):
            table[i % 97] = [i, i * 0.5, str(i)]
        total = 0.0
        for i in range(20000):
            total += i * 0.5
        for _ in range(40):
            numpy.linalg.solve(shifted, (_CAL_MATRIX @ _CAL_MATRIX)[:, 0])
    return time.perf_counter() - start


def _adjusted(walls: list[float], cals: list[float]) -> list[float]:
    """Wall times rescaled by the calibration time paired with each."""
    return [w * REFERENCE_CAL_S / c for w, c in zip(walls, cals)]


def _percentiles(samples: list[float]) -> tuple[float, float]:
    if len(samples) == 1:
        return samples[0], samples[0]
    return (statistics.median(samples),
            statistics.quantiles(samples, n=10, method="inclusive")[8])


def _blas_threads() -> int | None:
    """Thread count that numpy's bundled OpenBLAS reports, if it is found."""
    import ctypes
    import glob

    pattern = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs",
                           "libscipy_openblas*")
    for path in glob.glob(pattern):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "platform": platform.platform(),
        "load": "one benchmark process; one closed-loop client",
    }


class WorkloadRun:
    """Inputs, outputs and samples of one workload within a benchmark run."""

    def __init__(self, workload, seed: int, directory: Path, trace: bool):
        self.workload = workload
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)
        self.plant, initial = write_inputs(workload, seed, str(directory))
        with open(initial, encoding="utf-8") as fh:
            self.expected_row = analytic_modal_row(json.load(fh), workload.L,
                                                   workload.M)
        self.argv = workload.cli_args(self.plant, initial, str(directory))
        # Wall times, each with the mean of the calibration runs around it.
        self.samples = {cmd: [] for cmd in COMMANDS}   # untraced
        self.traced = {cmd: [] for cmd in COMMANDS}
        self.setup = []
        self.cal = {cmd: [] for cmd in COMMANDS}
        self.traced_cal = {cmd: [] for cmd in COMMANDS}
        self.setup_cal = []
        self.attempted = 0
        self.failures = []
        self.tracer = Tracer() if trace else None
        self.direct_s = self.modal_s = None

    def setup_sample(self, record: bool = True) -> None:
        """Fresh interpreter -> import cascade_stab.cli -> load and validate."""
        cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), self.plant]
        before = calibration_kernel()
        start = time.perf_counter()
        # No timeout: with one, the wait polls in sleeps of up to 50 ms,
        # which would quantize the measurement.
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        after = calibration_kernel()
        if record:
            self.setup.append(elapsed)
            self.setup_cal.append(0.5 * (before + after))

    def _check(self, cmd: str, rc, stdout: str) -> list[str]:
        w = self.workload
        try:
            if cmd == "synthesize":
                return check_synthesize(rc, str(self.directory), w.N, w.M, 3)
            if cmd == "simulate":
                return check_simulate(rc, stdout, str(self.directory),
                                      self.expected_row, w.M, 3)
            return check_verify(rc, stdout)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"outputs unreadable: {exc!r}"]

    def iteration(self, record: bool, traced: bool) -> None:
        """One pipeline pass; `record` keeps its timings as samples."""
        from cascade_stab import cli

        if traced:
            self.tracer.begin_iteration(len(self.tracer.iterations))
        before = calibration_kernel()
        for cmd in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            tracing = self.tracer if traced else contextlib.nullcontext()
            # Start each command from a collected heap, as a fresh CLI process
            # would, so garbage of earlier commands is not collected inside it.
            gc.collect()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), tracing:
                start = time.perf_counter()
                try:
                    rc = cli.main(self.argv[cmd])
                except SystemExit as exc:
                    rc = exc.code
                except Exception as exc:  # a crash counts as a failed command
                    rc = f"crash: {exc!r}"
                elapsed = time.perf_counter() - start
            after = calibration_kernel()
            self.attempted += 1
            bad = self._check(cmd, rc, out.getvalue())
            if bad and err.getvalue():
                bad.append(err.getvalue().strip())
            self.failures += [f"{self.workload.name} {cmd}: {msg}" for msg in bad]
            if record:
                (self.traced if traced else self.samples)[cmd].append(elapsed)
                (self.traced_cal if traced else self.cal)[cmd].append(
                    0.5 * (before + after))
            before = after

    def measure_reference(self) -> None:
        """Modal synthesis vs the direct Riccati baseline, both shipped code."""
        from cascade_stab import model, spectral, synthesis, transform

        w = self.workload
        plant = model.validate_plant(model.load_plant(self.plant))
        basis = spectral.build_basis(plant.L, plant.gamma1, plant.gamma2, w.M)
        family = transform.solve_transform_family(plant)
        offsets = [float(v) for v in POLE_OFFSETS.split(",")]
        modal, direct = [], []
        for _ in range(DIRECT_REPEATS):
            start = time.perf_counter()
            synthesis.build_controller(plant, DELTA, N=w.N, pole_offsets=offsets,
                                       basis=basis, family=family)
            modal.append(time.perf_counter() - start)
            start = time.perf_counter()
            synthesis.direct_baseline(plant, basis, DELTA, w.N)
            direct.append(time.perf_counter() - start)
        self.modal_s = statistics.median(modal)
        self.direct_s = statistics.median(direct)

    # -- metrics -------------------------------------------------------------

    def end_to_end(self, peak_rss_mb: float) -> dict[str, tuple[float, str, int]]:
        """name -> (value, unit, sample count) of the gated metrics.

        Timings are host-adjusted: each wall time is divided by the time of
        the calibration kernel run around it and multiplied by
        REFERENCE_CAL_S.  The reference host moves between speed states up
        to 1.9x apart, within seconds and for minutes, so raw medians and
        minima of a 30-second run spread up to 0.3 across runs; adjusted ones
        far less.
        """
        out = {}
        for cmd in COMMANDS:
            p50, p90 = _percentiles(_adjusted(self.samples[cmd], self.cal[cmd]))
            n = len(self.samples[cmd])
            out[f"{cmd}_s.p50"] = (p50, "s", n)
            out[f"{cmd}_s.p90"] = (p90, "s", n)
        out["setup_s"] = (statistics.median(_adjusted(self.setup, self.setup_cal)),
                          "s", len(self.setup))
        out["peak_rss_mb"] = (peak_rss_mb, "MB", 1)
        return out

    def wall(self) -> dict[str, tuple[float, str, int]]:
        """Unadjusted wall-time statistics, reported beside the gated metrics."""
        out = {}
        for name, samples in (*((f"{cmd}_s", self.samples[cmd]) for cmd in COMMANDS),
                              ("setup_s", self.setup),
                              ("calibration_s", [c for cmd in COMMANDS
                                                 for c in self.cal[cmd]])):
            p50, p90 = _percentiles(samples)
            out[f"wall.{name}.min"] = (min(samples), "s", len(samples))
            out[f"wall.{name}.p50"] = (p50, "s", len(samples))
            out[f"wall.{name}.p90"] = (p90, "s", len(samples))
        return out

    def per_layer(self) -> dict[str, tuple[float, str, int]]:
        n = len(self.tracer.iterations)
        units = metric_units()
        out = {name: (value, units[name], n)
               for name, value in self.tracer.layer_metrics().items()}
        out["synthesis.direct_baseline.s"] = (self.direct_s, "s", DIRECT_REPEATS)
        out["synthesis.modal_speedup"] = (self.direct_s / self.modal_s, "ratio",
                                          DIRECT_REPEATS)
        for cmd in COMMANDS:
            overhead = (
                statistics.median(_adjusted(self.traced[cmd], self.traced_cal[cmd]))
                - statistics.median(_adjusted(self.samples[cmd], self.cal[cmd])))
            out[f"trace.overhead.{cmd}_s"] = (overhead, "s", len(self.traced[cmd]))
        out["trace.iterations"] = (float(n), "count", n)
        return out


def run(workloads, seed: int, seconds: float, trace: bool,
        directory: Path) -> tuple[list[WorkloadRun], float]:
    """Set up, warm up, then iterate every workload round-robin for `seconds`.

    At least one measured round runs (two with tracing: one untraced, one
    traced).  Returns the per-workload runs and the process's peak RSS in MB.
    """
    runs = [WorkloadRun(w, seed, directory / w.name, trace) for w in workloads]
    for r in runs:
        # The first start compiles bytecode and fills file caches.
        r.setup_sample(record=False)
        r.iteration(record=False, traced=False)
    start = time.perf_counter()
    rounds = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and rounds >= (2 if trace else 1):
            break
        # Spread the set-up samples over the run, so they meet the same
        # host states as the command samples.
        due = min(SETUP_SAMPLES, 1 + int(elapsed / max(seconds, 1e-9) * SETUP_SAMPLES))
        for r in runs:
            while len(r.setup) < due:
                r.setup_sample()
        traced = trace and rounds % 2 == 1
        for r in runs:
            r.iteration(record=True, traced=traced)
        rounds += 1
    for r in runs:
        while len(r.setup) < SETUP_SAMPLES:
            r.setup_sample()
        if trace:
            r.measure_reference()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return runs, peak


def _report(runs, peak, trace: bool, seed: int, stamp: str) -> dict:
    """Print the table, write the records, and return the result object."""
    env = environment()
    single = len(runs) == 1
    metrics = {}
    print(f"environment: {json.dumps(env)}")
    for r in runs:
        w = r.workload
        table = r.per_layer() if trace else r.end_to_end(peak)
        extra = r.wall()
        failed = len(r.failures)
        print(f"workload {w.name}  seed {seed}  N={w.N} M={w.M}  "
              f"trace {'on' if trace else 'off'}  "
              f"failed_frac {failed / r.attempted:.4g} ({failed}/{r.attempted})")
        for name, (value, unit, n) in (*table.items(), *extra.items()):
            note = "" if name in table else "  (not gated)"
            if name.endswith(".p90") and n < 100:
                note += "  (n < 100: fewer than 10 samples beyond p90)"
            print(f"  {name:<44} {value:>14.6g} {unit:<6} n={n}{note}")
            if name in table:
                metrics[name if single else f"{w.name}/{name}"] = {
                    "value": value, "unit": unit}
        for msg in r.failures:
            print(f"  FAILED {msg}")
        record = {
            "workload": w.name, "seed": seed, "trace": trace, "environment": env,
            "attempted": r.attempted, "failed": failed, "failures": r.failures,
            "metrics": {k: {"value": v, "unit": u, "samples": n}
                        for k, (v, u, n) in (*table.items(), *extra.items())},
            "raw_samples_s": r.samples, "traced_samples_s": r.traced,
            "setup_samples_s": r.setup, "calibration_s": r.cal,
            "traced_calibration_s": r.traced_cal, "setup_calibration_s": r.setup_cal,
        }
        path = WORK / f"result-{w.name}-seed{seed}-trace{int(trace)}-{stamp}.json"
        if trace:
            r.tracer.dump(str(path), record)
        else:
            path.write_text(json.dumps(record, indent=1))
        print(f"  record: {path.relative_to(ROOT)}")
    attempted = sum(r.attempted for r in runs)
    failed = sum(len(r.failures) for r in runs)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all' for every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cascade_stab" / "cli.py").is_file():
        sys.stderr.write(f"cannot find the package source at {SRC}/cascade_stab; "
                         "run from a checkout of the repository\n")
        return 2
    if args.workload == "all":
        workloads = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        workloads = [WORKLOADS[args.workload]]
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")

    WORK.mkdir(exist_ok=True)
    stamp = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    directory = WORK / f"run-{stamp}"
    try:
        runs, peak = run(workloads, args.seed, args.seconds, bool(args.trace),
                         directory)
        result = _report(runs, peak, bool(args.trace), args.seed, stamp)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
