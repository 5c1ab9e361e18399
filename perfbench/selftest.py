#!/usr/bin/env python3
"""Self-test of the benchmark harness, at reduced M and N.

    python3 perfbench/selftest.py

Runs every workload, shrunk, through one untraced and one traced iteration
and checks that every metric BENCHMARK.json names is emitted with its unit
and that a clean run has no failed command.  Then it corrupts the gains file
that `synthesize` writes and checks that the failure is counted.  Exits 1
with a message on the first broken expectation.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys

import run as bench  # first: it fixes the BLAS thread count before numpy loads

REDUCED = {
    "demo-cosine": {"M": 10},
    "fine-mesh": {"M": 20},
    "wide-actuation": {"N": 8, "M": 16, "L": 0.1 * 8 + 0.5},
}


def _expect(condition: bool, message: str) -> None:
    if not condition:
        sys.stderr.write(f"selftest FAILED: {message}\n")
        sys.exit(1)


def _emitted(runs, peak) -> dict[str, str]:
    units = {}
    for r in runs:
        for table in (r.end_to_end(peak), r.per_layer()):
            for name, (_value, unit, _n) in table.items():
                units.setdefault(name, unit)
    return units


def main() -> int:
    from cascade_stab import synthesis
    from workloads import WORKLOADS

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    workloads = [dataclasses.replace(WORKLOADS[name], **changes)
                 for name, changes in REDUCED.items()]
    _expect({w.name for w in workloads} == {w["name"] for w in spec["workloads"]},
            "the reduced workloads differ from those in BENCHMARK.json")
    directory = bench.WORK / "selftest"
    try:
        runs, peak = bench.run(workloads, seed=1, seconds=0, trace=True,
                               directory=directory)
        for r in runs:
            _expect(not r.failures, f"clean run failed: {r.failures}")
        emitted = _emitted(runs, peak)
        for metric in spec["end_to_end"] + spec["per_layer"]:
            name = metric["name"]
            _expect(name in emitted, f"metric {name} is not emitted")
            _expect(emitted[name] == metric["unit"],
                    f"metric {name} has unit {emitted[name]}, "
                    f"BENCHMARK.json says {metric['unit']}")

        original = synthesis.gains_to_dict

        def corrupted(controller, cert=None):
            out = original(controller, cert)
            out["K"][0][0] *= 1.5
            return out

        synthesis.gains_to_dict = corrupted
        try:
            runs, _ = bench.run(workloads[:1], seed=1, seconds=0, trace=False,
                                directory=directory)
        finally:
            synthesis.gains_to_dict = original
        r = runs[0]
        _expect(len(r.failures) > 0,
                "a corrupted gains file did not raise failed_frac")
        _expect(any("synthesize" in msg and "Bmat K" in msg for msg in r.failures),
                f"the factorization check missed the corrupted gains: {r.failures}")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(f"selftest passed: {len(emitted)} metric names with units; corrupted "
          f"gains gave failed_frac {len(r.failures)}/{r.attempted}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
