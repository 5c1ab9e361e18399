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
import json
import math
import os
import statistics
import sys
import time

import numpy as np

from . import model, simulator, spectral, synthesis, transform
from .errors import CascadeStabError, HypothesisHViolated, InternalError, PlantInputError

EXIT_INPUT = 1
EXIT_HYPOTHESIS = 2
EXIT_INTERNAL = 3
EXIT_VERIFY = 4


def _load_validated(args) -> model.ValidatedPlant:
    spec = model.load_plant(args.plant)
    return model.validate_plant(spec, diffusion_tol=getattr(args, "diffusion_tol", 0.0))


def _profile_from_dict(obj: dict):
    """Initial-condition profile: shape kinds plus cosine(amplitude, freq, offset)."""
    kind = obj["kind"]
    if kind == "cosine":
        amp, freq, off = (float(v) for v in obj["params"])
        return lambda x: amp * np.cos(freq * np.asarray(x, dtype=float)) + off
    return model.shape_from_dict(obj)


def load_initial(path: str, m: int):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
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
    for n in range(1, controller.N + 1):
        H = synthesis.closed_block(plant, controller.K_Q, float(basis.lam[n - 1]))
        absc = float(np.max(np.linalg.eigvals(H).real))
        lines.append(f"  block abscissa n={n}   : {absc:.6f}")
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
        fh.write(report)
    sys.stdout.write(report)
    if args.dump_basis:
        model.write_json(os.path.join(args.out_dir, "basis.json"),
                         spectral.basis_to_dict(basis))
    if args.dump_transform:
        dump = transform.family_to_dict(family)
        dump["modes"] = [
            [[float(v) for v in row]
             for row in transform.mode_transform(family, float(basis.lam[n - 1]),
                                                 n, controller.N).matrix]
            for n in range(1, controller.N + 1)
        ]
        model.write_json(os.path.join(args.out_dir, "transform.json"), dump)
    return 0


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    plant = _load_validated(args)
    if args.gains:
        with open(args.gains, "r", encoding="utf-8") as fh:
            try:
                gains_obj = json.load(fh)
                controller = synthesis.controller_from_dict(gains_obj)
                cert = synthesis.certificate_from_dict(gains_obj["certificate"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise PlantInputError(f"malformed gains file: {exc}")
        basis = spectral.build_basis(plant.L, plant.gamma1, plant.gamma2,
                                     max(args.M_modes, controller.N + 1))
    else:
        if args.delta is None:
            raise PlantInputError("simulate needs --gains FILE or --delta VALUE")
        basis, _family, controller, cert = _synthesize_pipeline(
            plant, args.delta, args.N, None, args.M_modes
        )
    z0_funcs = load_initial(args.initial, plant.m)
    config = simulator.SimConfig(M_modes=args.M_modes, t_final=args.t_final,
                                 dt_out=args.dt_out)
    # the certificate bound is a closed-loop statement; skip it open loop
    traj = simulator.run_closed_loop(plant, controller, basis, z0_funcs, config,
                                     open_loop=args.open_loop,
                                     M_cert=None if args.open_loop else cert.M)
    os.makedirs(args.out_dir, exist_ok=True)
    grid = np.linspace(0.0, plant.L, args.grid_points)
    simulator.export_modal_csv(traj, os.path.join(args.out_dir, "modal.csv"))
    simulator.export_field_csv(traj, basis, grid,
                               os.path.join(args.out_dir, "field.csv"))
    simulator.export_norms_csv(traj, cert.M, controller.delta,
                               os.path.join(args.out_dir, "norms.csv"))
    sys.stdout.write(f"fitted decay rate: {traj.fitted_decay:.6f}\n")
    if traj.overshoot_check is not None:
        sys.stdout.write(
            f"certificate bound holds at every sample: {traj.overshoot_check}\n"
        )
    return 0


# ---------------------------------------------------------------------------
# verify

def _relative(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def cmd_verify(args) -> int:
    plant = _load_validated(args)
    basis, family, controller, cert = _synthesize_pipeline(
        plant, args.delta, args.N, None, args.M_modes
    )
    if args.inject_corrupt_transform:
        family = _corrupt_family(plant, family)

    checks = []  # (name, margin, ok)

    residuals = transform.sylvester_residuals(plant, family)
    for i, res in enumerate(residuals, start=1):
        checks.append((f"sylvester residual i={i}", res, res <= transform.RESIDUAL_TOL))
    if not residuals:
        checks.append(("sylvester residual (empty family)", 0.0, True))

    N = controller.N
    for n in range(1, N + 1):
        lam = float(basis.lam[n - 1])
        mt = transform.mode_transform(family, lam, n, N)
        det_err = abs(float(np.linalg.det(mt.matrix)) - 1.0)
        checks.append((f"det T_{n} = 1", det_err, det_err <= 1e-10))
        inv_err = float(np.max(np.abs(mt.matrix @ mt.inverse - np.eye(plant.m))))
        checks.append((f"T_{n} inverse", inv_err, inv_err <= 1e-12))
        cancel = transform.cancellation_residual(plant, family, lam, mt)
        G = transform.coupling_row(plant, family, lam, mt)
        scale = max(1.0,
                    float(np.max(np.abs(plant.Q)) * np.max(np.abs(mt.matrix))),
                    float(np.max(np.abs(G))))
        checks.append((f"mode cancellation n={n}", cancel / scale,
                       cancel / scale <= 1e-9))
        other = (controller.K_Q - G) @ mt.matrix
        gain_err = _relative(controller.Kbar[n - 1], other)
        checks.append((f"gain route equality n={n}", gain_err, gain_err <= 1e-9))

    if N > 0:
        recon = controller.Bmat @ controller.K
        target = np.zeros_like(recon)
        for n in range(N):
            target[n, n * plant.m:(n + 1) * plant.m] = controller.Kbar[n]
        fact_err = _relative(recon, target)
        checks.append(("gain factorization", fact_err, fact_err <= 1e-9))

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
        system = simulator.assemble_closed_loop(plant, controller, basis, N)
        z0 = np.array([[1.0 / n] * plant.m for n in range(1, N + 1)])
        traj = simulator.integrate(system, z0, config.t_final, config.resolved_dt())
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


def _corrupt_family(plant, family: transform.TransformFamily):
    """Debug hook: break the first transform coefficient on purpose."""
    if family.is_empty:
        bad = np.zeros((plant.m, plant.m))
        bad[0, plant.m - 1] = 1e-3
        return transform.TransformFamily(m=plant.m, sigma_bar=1, coeffs=(bad,))
    coeffs = [c.copy() for c in family.coeffs]
    coeffs[0][0, plant.m - 1] += 1e-3
    return transform.TransformFamily(m=plant.m, sigma_bar=family.sigma_bar,
                                     coeffs=tuple(coeffs))


# ---------------------------------------------------------------------------
# bench

def _bench_shapes(L: float, N: int):
    if 0.1 * N + 0.1 > L:
        raise PlantInputError(f"cannot place {N} indicator shapes on [0, {L}]")
    return tuple(model.ShapeFunction.indicator(0.1 * j, 0.1 * j + 0.1)
                 for j in range(1, N + 1))


def _with_shapes(plant: model.ValidatedPlant, shapes) -> model.ValidatedPlant:
    return model.ValidatedPlant(m=plant.m, D=plant.D, Q=plant.Q, L=plant.L,
                                gamma1=plant.gamma1, gamma2=plant.gamma2,
                                shapes=shapes, indices=plant.indices)


def _time_modal(plant, basis, delta, N, Bmat):
    start = time.perf_counter()
    family = transform.solve_transform_family(plant)
    K_Q, _P = synthesis.stabilize_coupling(plant, delta, float(basis.lam[0]))
    Kbar = synthesis.modal_gains(plant, family, basis.lam, K_Q, N)
    blk = np.zeros((N, plant.m * N))
    for n in range(N):
        blk[n, n * plant.m:(n + 1) * plant.m] = Kbar[n]
    np.linalg.solve(Bmat, blk)
    return time.perf_counter() - start


def bench_rows(plant, delta, N_values, repeats):
    """One (N, t_modal, t_direct, ratio) row per N, medians over `repeats`."""
    rows = []
    top = max(N_values)
    base = spectral.build_basis(plant.L, plant.gamma1, plant.gamma2, top + 1)
    for N in N_values:
        shapes = _bench_shapes(plant.L, N)
        p = _with_shapes(plant, shapes)
        Bmat, _ = synthesis.input_matrix(shapes, base, N)
        _time_modal(p, base, delta, N, Bmat)           # warm-up
        synthesis.direct_baseline(p, base, delta, N)   # warm-up
        modal_times = []
        direct_times = []
        for _ in range(repeats):
            modal_times.append(_time_modal(p, base, delta, N, Bmat))
            _K, wall = synthesis.direct_baseline(p, base, delta, N)
            direct_times.append(wall)
        t_modal = statistics.median(modal_times)
        t_direct = statistics.median(direct_times)
        rows.append((N, t_modal, t_direct, t_direct / t_modal))
    return rows


def cmd_bench(args) -> int:
    plant = _load_validated(args)
    N_values = [int(v) for v in args.N_list.split(",")]
    rows = bench_rows(plant, args.delta, N_values, args.repeats)
    lines = ["N,t_modal,t_direct,ratio"]
    for N, tm, td, ratio in rows:
        lines.append(f"{N},{tm!r},{td!r},{ratio!r}")
    text = "\n".join(lines) + "\n"
    os.makedirs(args.out_dir, exist_ok=True)
    with model.atomic_write(os.path.join(args.out_dir, "bench.csv")) as fh:
        fh.write(text)
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # usage problems are input errors (exit 1), not hypothesis-(H) failures
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_INPUT)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cascade-stab",
        description="Stabilizing feedback synthesis for cascades of coupled "
                    "1-D heat equations, with closed-loop verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--plant", required=True, help="plant JSON file")
        p.add_argument("--delta", type=float, default=None, help="decay rate")
        p.add_argument("--N", type=int, default=None,
                       help="retained mode count (default: minimal)")
        p.add_argument("--M-modes", dest="M_modes", type=int, default=30,
                       help="simulation/certificate truncation")
        p.add_argument("--diffusion-tol", dest="diffusion_tol", type=float,
                       default=0.0, help="relative tolerance grouping diffusions")
        p.add_argument("--out-dir", dest="out_dir", default=".",
                       help="output directory")

    p_syn = sub.add_parser("synthesize", help="compute gains and certificate")
    common(p_syn)
    p_syn.add_argument("--pole-offsets", dest="pole_offsets",
                       type=lambda s: [float(v) for v in s.split(",")],
                       default=None, help="comma-separated distinct offsets")
    p_syn.add_argument("--dump-basis", action="store_true")
    p_syn.add_argument("--dump-transform", action="store_true")
    p_syn.set_defaults(func=cmd_synthesize, requires_delta=True)

    p_sim = sub.add_parser("simulate", help="closed-loop simulation to CSV")
    common(p_sim)
    p_sim.add_argument("--gains", default=None, help="gains JSON from synthesize")
    p_sim.add_argument("--initial", required=True,
                       help="initial-condition JSON (m profiles)")
    p_sim.add_argument("--t-final", dest="t_final", type=float, default=1.0)
    p_sim.add_argument("--dt-out", dest="dt_out", type=float, default=None)
    p_sim.add_argument("--grid-points", dest="grid_points", type=int, default=101)
    p_sim.add_argument("--open-loop", dest="open_loop", action="store_true",
                       help="force u = 0")
    p_sim.set_defaults(func=cmd_simulate, requires_delta=False)

    p_ver = sub.add_parser("verify", help="identity and certificate suite")
    common(p_ver)
    p_ver.add_argument("--t-final", dest="t_final", type=float, default=0.5)
    p_ver.add_argument("--inject-corrupt-transform", action="store_true",
                       help="debug: corrupt the transform and expect failure")
    p_ver.set_defaults(func=cmd_verify, requires_delta=True)

    p_bench = sub.add_parser("bench", help="modal vs direct baseline timings")
    common(p_bench)
    p_bench.add_argument("--N-list", dest="N_list", default="2,3,5,10,15")
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.set_defaults(func=cmd_bench, requires_delta=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "requires_delta", False) and args.delta is None:
        parser.error(f"{args.command} requires --delta")
    try:
        return args.func(args)
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
    except InternalError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL
    except CascadeStabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
