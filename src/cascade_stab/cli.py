"""Command-line front end.

Subcommands
-----------
synthesize  plant file + decay rate -> gains JSON + human-readable report
simulate    closed-loop run -> modal/field/norm CSVs, prints fitted decay
verify      identity and certificate suite -> pass/fail report per check
bench       modal synthesis vs direct Riccati baseline timing table (CSV)

Exit codes: 0 success, 1 input problem, 2 hypothesis-(H) violation,
3 internal failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import model, simulator, spectral, synthesis, transform
from .errors import (
    CascadeStabError,
    FactorizationAtRoundingLevel,
    HypothesisHViolated,
    InternalError,
    PlantInputError,
)

EXIT_INPUT = 1
EXIT_HYPOTHESIS = 2
EXIT_INTERNAL = 3
EXIT_VERIFY = 4


def _load_validated(args) -> model.ValidatedPlant:
    return model.validate_plant(model.load_plant(args.plant))


def _profile_from_dict(obj: dict):
    """Initial-condition profile: shape kinds plus cosine(amplitude, freq, offset)."""
    kind = obj["kind"]
    if kind == "cosine":
        amp, freq, off = (float(v) for v in obj["params"])
        return lambda x: amp * np.cos(freq * np.asarray(x, dtype=float)) + off
    return model.shape_from_dict(obj)


def load_initial(path: str, m: int):
    try:
        data = model.read_json(path)
    except json.JSONDecodeError as exc:
        raise PlantInputError(f"initial-condition file is not valid JSON: {exc}")
    if not isinstance(data, list) or len(data) != m:
        raise PlantInputError(f"initial-condition file must list exactly m={m} profiles")
    try:
        return [_profile_from_dict(entry) for entry in data]
    except (KeyError, TypeError, ValueError) as exc:
        raise PlantInputError(f"malformed initial-condition profile: {exc}")


# ---------------------------------------------------------------------------
# synthesize

def _synthesize_pipeline(plant, delta, N, pole_offsets, M_modes):
    basis = spectral.build_basis(plant.L, plant.gamma1, plant.gamma2,
                                 max(M_modes, 8))
    family = transform.solve_transform_family(plant)
    controller = synthesis.build_controller(plant, delta, N=N,
                                            pole_offsets=pole_offsets,
                                            basis=basis, family=family)
    cert = synthesis.certificate(plant, controller, family, basis, M_modes=M_modes)
    # The report and verify read lambda_1..lambda_N from the returned basis.
    basis = spectral.extend_basis(basis, controller.N + 1)
    return basis, family, controller, cert


def _report_text(plant, controller, cert, basis) -> str:
    idx = plant.indices
    lines = [
        "controller synthesis report",
        f"  m (equations)        : {plant.m}",
        f"  delta (decay rate)   : {controller.delta}",
        f"  sigma / sigma_bar    : {idx.sigma} / {idx.sigma_bar}",
        f"  N_min                : {controller.N_min}",
        f"  N (chosen)           : {controller.N}",
        f"  cond(Bmat)           : {controller.cond_B:.6e}",
    ]
    H = synthesis.closed_blocks(plant, controller.K_Q, basis.lam[:controller.N])
    abscissae = np.max(np.linalg.eigvals(H).real, axis=1)
    lines += [f"  block abscissa n={n}   : {absc:.6f}"
              for n, absc in enumerate(abscissae.tolist(), start=1)]
    lines += [
        f"  certificate rho      : {cert.rho!r}",
        f"  certificate rho_bar  : {cert.rho_bar!r}",
        f"  certificate beta     : {cert.beta!r}",
        f"  certificate rho0     : {cert.rho0!r}",
        f"  certificate c_lower  : {cert.c_lower!r}",
        f"  certificate c_upper  : {cert.c_upper!r}",
        f"  overshoot M          : {cert.M!r}",
    ]
    if cert.gamma_margins:
        lines.append(f"  max gamma margin     : {max(cert.gamma_margins):.6e}")
    if cert.omega_margins:
        lines.append(f"  max omega margin     : {max(cert.omega_margins):.6e}")
    return "\n".join(lines) + "\n"


def cmd_synthesize(args) -> int:
    plant = _load_validated(args)
    basis, family, controller, cert = _synthesize_pipeline(
        plant, args.delta, args.N, args.pole_offsets, args.M_modes
    )
    os.makedirs(args.out_dir, exist_ok=True)
    gains_path = os.path.join(args.out_dir, "gains.json")
    model.write_json(gains_path, synthesis.gains_to_dict(controller, cert))
    report = _report_text(plant, controller, cert, basis)
    with model.atomic_write(os.path.join(args.out_dir, "report.txt")) as fh:
        fh.write(report.encode())
    sys.stdout.write(report)
    if args.dump_basis:
        model.write_json(os.path.join(args.out_dir, "basis.json"),
                         spectral.basis_to_dict(basis))
    if args.dump_transform:
        dump = model.record_to_dict(family)
        T, _ = transform.mode_transform(family, basis.lam[:controller.N])
        dump["modes"] = T.tolist()
        model.write_json(os.path.join(args.out_dir, "transform.json"), dump)
    return 0


def load_gains(path: str):
    """The (controller, certificate) of a gains file that `synthesize` wrote.

    `model.read_json` parses a non-finite float (an overflowed certificate
    constant M, say) to the value that `synthesize` held, so
    `simulate --gains` runs what `simulate` without it would.  The retained
    modes are fed by Kbar and the tail by K, so the two must factor.
    """
    try:
        obj = model.read_json(path)
        controller = synthesis.controller_from_dict(obj)
        cert = synthesis.certificate_from_dict(obj["certificate"])
    except (KeyError, TypeError, ValueError) as exc:
        raise PlantInputError(f"malformed gains file: {exc}")
    residual = synthesis.factorization_residual(controller) if controller.N else 0.0
    if not residual <= synthesis.FACTORIZATION_TOL:
        raise PlantInputError(f"gains file's K does not factor its Kbar: residual {residual:.3e} "
                              f"exceeds the bound {synthesis.FACTORIZATION_TOL:.0e}")
    return controller, cert


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    plant = _load_validated(args)
    if args.gains:
        controller, cert = load_gains(args.gains)
        if len(controller.K_Q) != plant.m or controller.N > len(plant.shapes):
            raise PlantInputError(
                f"gains file is for m={len(controller.K_Q)} and N={controller.N}, but the "
                f"plant has m={plant.m} and {len(plant.shapes)} shape functions")
        if args.N is not None and args.N != controller.N:
            raise PlantInputError(
                f"--N {args.N} differs from the gains file's N={controller.N}")
        basis = spectral.build_basis(plant.L, plant.gamma1, plant.gamma2,
                                     max(args.M_modes, controller.N + 1))
    else:
        basis, _family, controller, cert = _synthesize_pipeline(
            plant, args.delta, args.N, None, args.M_modes
        )
    z0_funcs = load_initial(args.initial, plant.m)
    config = simulator.SimConfig(M_modes=args.M_modes, t_final=args.t_final,
                                 dt_out=args.dt_out)
    applied = controller
    if args.open_loop:
        config.validate(controller.N)  # the truncation must still exceed N
        applied = synthesis.zero_controller(controller.delta, controller.N_min, plant.m)
    traj = simulator.run_closed_loop(plant, applied, basis, z0_funcs, config)
    os.makedirs(args.out_dir, exist_ok=True)
    grid = np.linspace(0.0, plant.L, args.grid_points)
    out = functools.partial(os.path.join, args.out_dir)
    simulator.write_csvs([
        simulator.modal_table(traj, out("modal.csv")),
        simulator.field_table(traj, basis, grid, out("field.csv")),
        simulator.norms_table(traj, cert.M, controller.delta, out("norms.csv")),
    ])
    sys.stdout.write(f"fitted decay rate: {traj.fitted_decay:.6f}\n")
    # the certificate bound is a closed-loop statement; skip it open loop
    if not args.open_loop:
        holds = simulator.certificate_bound_holds(traj, cert.M, controller.delta)
        sys.stdout.write(f"certificate bound holds at every sample: {holds}\n")
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    plant = _load_validated(args)
    basis, family, controller, cert = _synthesize_pipeline(
        plant, args.delta, args.N, None, args.M_modes
    )

    checks = []  # (name, margin, ok)

    residuals = transform.sylvester_residuals(plant, family)
    for i, res in enumerate(residuals, start=1):
        checks.append((f"sylvester residual i={i}", res, res <= transform.RESIDUAL_TOL))
    if not residuals:
        checks.append(("sylvester residual (empty family)", 0.0, True))

    N = controller.N
    lam = basis.lam[:N]
    T, T_inv = transform.mode_transform(family, lam)
    G = transform.coupling_row(plant, lam, T, T_inv)
    det_err = np.abs(np.linalg.det(T) - 1.0)
    inv_err = np.max(np.abs(T @ T_inv - np.eye(plant.m)), axis=(1, 2))
    scale = np.maximum(
        np.maximum(1.0, np.max(np.abs(plant.Q)) * np.max(np.abs(T), axis=(1, 2))),
        np.max(np.abs(G), axis=1))
    cancel = transform.cancellation_residual(plant, lam, T, G) / scale
    # Kbar_n = (K_Q - G_n) T_n, the second route to the same gains.
    other = np.matmul((controller.K_Q - G)[:, None, :], T)[:, 0]
    gain_err = synthesis.relative_error(controller.Kbar, other, axis=1)
    for n, d, i, c, g in zip(range(1, N + 1), det_err.tolist(), inv_err.tolist(),
                             cancel.tolist(), gain_err.tolist()):
        checks += [(f"det T_{n} = 1", d, d <= 1e-10),
                   (f"T_{n} inverse", i, i <= 1e-12),
                   (f"mode cancellation n={n}", c, c <= 1e-9),
                   (f"gain route equality n={n}", g, g <= 1e-9)]

    if N > 0:
        fact_err = synthesis.factorization_residual(controller)
        checks.append(("gain factorization", fact_err,
                       fact_err <= synthesis.FACTORIZATION_TOL))

    gmax = max(cert.gamma_margins) if cert.gamma_margins else -math.inf
    checks.append(("certificate gamma < 0", gmax, gmax < 0.0))
    wmax = max(cert.omega_margins) if cert.omega_margins else -math.inf
    checks.append(("certificate omega < 0", wmax, wmax < 0.0))

    # Target-coordinate residual along a short deterministic run.  It reads
    # z^N only, and the retained modes never depend on the tail, so only
    # they are simulated; --M-modes bounds the certificate's mode range.
    config = simulator.SimConfig(M_modes=args.M_modes, t_final=args.t_final)
    config.validate(N)
    tres = 0.0  # by definition when no mode is retained
    if N > 0:
        loop = simulator.assemble_closed_loop(plant, controller, basis, N)
        z0 = np.array([[1.0 / n] * plant.m for n in range(1, N + 1)])
        traj = simulator.integrate(loop, z0, config.t_final, config.resolved_dt())
        tres = simulator.target_residual(traj, plant, controller, family, basis)
    checks.append(("target-coordinate residual", tres, tres <= 1e-6))

    width = max(len(name) for name, _, _ in checks)
    all_ok = True
    for name, margin, ok in checks:
        status = "PASS" if ok else "FAIL"
        sys.stdout.write(f"{name:<{width}}  {margin: .3e}  {status}\n")
        all_ok &= ok
    sys.stdout.write("verification " + ("PASSED" if all_ok else "FAILED") + "\n")
    return 0 if all_ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# bench

def _bench_shapes(L: float, N: int):
    if 0.1 * N + 0.1 > L:
        raise PlantInputError(f"cannot place {N} indicator shapes on [0, {L}]")
    return tuple(model.ShapeFunction.indicator(0.1 * j, 0.1 * j + 0.1)
                 for j in range(1, N + 1))


# Calls of each route per timed pair (timeit's `number`).  The routes take
# turns, so both see the same host speed, and the mean of a few calls varies
# less than one call of about a millisecond.
_BENCH_LOOPS = 3


def _time_pair(plant, basis, family, delta, N) -> tuple[float, float]:
    """Mean wall time per call of the modal and the direct synthesis.

    Modal: the shipped `synthesis.build_controller`, given the basis and
    transform family as `synthesize` does.  Its refusal of gains that miss
    the factorization bound is its last step, so a refused call is timed
    as a full one.  Direct: the Riccati solve of
    `synthesis.direct_baseline`, without its assembly.
    """
    t_modal = t_direct = 0.0
    for _ in range(_BENCH_LOOPS):
        start = time.perf_counter()
        with contextlib.suppress(FactorizationAtRoundingLevel):
            synthesis.build_controller(plant, delta, N=N, basis=basis, family=family)
        t_modal += time.perf_counter() - start
        t_direct += synthesis.direct_baseline(plant, basis, delta, N)[1]
    return t_modal / _BENCH_LOOPS, t_direct / _BENCH_LOOPS


def bench_rows(plant, delta, N_values, repeats):
    """One (N, t_modal, t_direct, ratio) row per N over `repeats` timed pairs.

    Each repeat sweeps every N; an untimed pair of the same N precedes each
    timed one, so no timed pair pays for what ran before it.  The times are
    minima over the repeats (as `timeit` advises for a fixed cost); the
    ratio is the median of t_direct / t_modal within each pair, from which
    a change in host speed between pairs cancels.
    """
    base = spectral.build_basis(plant.L, plant.gamma1, plant.gamma2,
                                max(N_values) + 1)
    family = transform.solve_transform_family(plant)
    plants = [dataclasses.replace(plant, shapes=_bench_shapes(plant.L, N))
              for N in N_values]
    pairs = [[] for _ in N_values]
    for _ in range(repeats):
        for N, p, timed in zip(N_values, plants, pairs):
            _time_pair(p, base, family, delta, N)  # warm-up
            timed.append(_time_pair(p, base, family, delta, N))
    import statistics  # only here: it and its imports cost about 4 ms a start

    rows = []
    for N, timed in zip(N_values, pairs):
        modal, direct = zip(*timed)
        ratio = statistics.median(d / m for m, d in timed)
        rows.append((N, min(modal), min(direct), ratio))
    return rows


def cmd_bench(args) -> int:
    try:
        import scipy.linalg  # noqa: F401  the direct baseline's Riccati solver
    except ModuleNotFoundError as exc:
        sys.stderr.write(f"error: bench needs scipy, from the 'bench' extra: "
                         f"pip install 'cascade-stab[bench]' ({exc})\n")
        return EXIT_INPUT
    plant = _load_validated(args)
    rows = bench_rows(plant, args.delta, args.N_list, args.repeats)
    lines = ["N,t_modal,t_direct,ratio"]
    for N, tm, td, ratio in rows:
        lines.append(f"{N},{tm!r},{td!r},{ratio!r}")
    text = "\n".join(lines) + "\n"
    os.makedirs(args.out_dir, exist_ok=True)
    with model.atomic_write(os.path.join(args.out_dir, "bench.csv")) as fh:
        fh.write(text.encode())
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # No abbreviations: bench --N would otherwise be read as --N-list.
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    # usage problems are input errors (exit 1), not hypothesis-(H) failures
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_INPUT)


def _positive_finite(text: str) -> float:
    """argparse type of the time options, so that a bad value names its option."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type of the count options, so that a bad value names its option."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _positive_int_list(text: str) -> list[int]:
    """argparse type of --N-list: comma-separated `_positive_int` items."""
    return [_positive_int(item) for item in text.split(",")]


def _number_list(text: str) -> list[float]:
    """argparse type of --pole-offsets: comma-separated numbers.

    An item that is not a number is named as `_positive_finite` names it.
    `stabilize_coupling` checks the numbers, NaN and inf included, under
    its one message for offsets that are not m distinct positive reals.
    """
    values = []
    for item in text.split(","):
        try:
            values.append(float(item))
        except ValueError:
            _positive_finite(item)  # raises, naming the item
    return values


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each declaring exactly the options its handler reads."""
    parser = _Parser(
        prog="cascade-stab",
        description="Stabilizing feedback synthesis for cascades of coupled "
                    "1-D heat equations, with closed-loop verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--plant": dict(required=True, help="plant JSON file"),
        "--delta": dict(type=float, required=True, help="decay rate"),
        "--N": dict(type=int, default=None, help="retained mode count (default: minimal)"),
        "--M-modes": dict(dest="M_modes", type=_positive_int, default=30,
                          help="simulation/certificate truncation"),
        "--out-dir": dict(dest="out_dir", default=".", help="output directory"),
    }

    def add_shared(p, *flags):
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    p_syn = sub.add_parser("synthesize", help="compute gains and certificate")
    add_shared(p_syn, "--plant", "--delta", "--N", "--M-modes", "--out-dir")
    p_syn.add_argument("--pole-offsets", dest="pole_offsets",
                       type=_number_list,
                       default=None, help="comma-separated distinct offsets")
    p_syn.add_argument("--dump-basis", action="store_true")
    p_syn.add_argument("--dump-transform", action="store_true")

    p_sim = sub.add_parser("simulate", help="closed-loop simulation to CSV")
    add_shared(p_sim, "--plant", "--N", "--M-modes", "--out-dir")
    source = p_sim.add_mutually_exclusive_group(required=True)
    source.add_argument("--gains", default=None, help="gains JSON from synthesize")
    source.add_argument("--delta", type=float, default=None,
                        help="decay rate; the gains are synthesized with default offsets")
    p_sim.add_argument("--initial", required=True,
                       help="initial-condition JSON (m profiles)")
    p_sim.add_argument("--t-final", dest="t_final", type=_positive_finite,
                       default=1.0)
    p_sim.add_argument("--dt-out", dest="dt_out", type=_positive_finite,
                       default=None)
    p_sim.add_argument("--grid-points", dest="grid_points", type=_positive_int,
                       default=101)
    p_sim.add_argument("--open-loop", dest="open_loop", action="store_true",
                       help="force u = 0")

    p_ver = sub.add_parser("verify", help="identity and certificate suite")
    add_shared(p_ver, "--plant", "--delta", "--N", "--M-modes")
    p_ver.add_argument("--t-final", dest="t_final", type=_positive_finite,
                       default=0.5)

    p_bench = sub.add_parser("bench", help="modal vs direct baseline timings")
    add_shared(p_bench, "--plant", "--delta", "--out-dir")
    p_bench.add_argument("--N-list", dest="N_list", type=_positive_int_list,
                         default=[2, 3, 4, 5, 6])
    p_bench.add_argument("--repeats", type=_positive_int, default=5)

    return parser


# Building the parser costs about 1 ms, mostly argparse's formatter set-up,
# so one process builds it once.  It names no handler: main looks up
# cmd_<command> when it runs, so a replaced cmd_* function is the one called.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except HypothesisHViolated as exc:
        sys.stderr.write(f"hypothesis (H) violated: {exc}\n")
        return EXIT_HYPOTHESIS
    except np.linalg.LinAlgError as exc:
        # A ValueError subclass, but a failed factorization is not an input
        # problem: validated inputs should never reach one.
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL
    except (PlantInputError, OSError, ValueError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except MemoryError as exc:  # numpy names the shape it could not allocate
        asked = ", ".join(f"--{k.replace('_', '-')} {v}" for k, v in vars(args).items()
                          if k in ("M_modes", "t_final", "dt_out") and v is not None)
        sys.stderr.write(f"input error: out of memory for {asked}: {exc}\n")
        return EXIT_INPUT
    except InternalError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL
    except CascadeStabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
