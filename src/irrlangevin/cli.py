"""Command-line front end for reproducible experiments.

Every report embeds the fully resolved configuration and seed, so a report
is a recipe for its own reproduction: deterministic commands rerun
bit-identically, stochastic ones within their reported standard error.
Scalar results are emitted as JSON, sequences as CSV, and all files are
written atomically (temp file + rename).

Exit codes: 0 success, 2 configuration error (including unknown flags),
3 numerical divergence of a simulated trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import benchmark as bench
from .analysis import sweep_k, worst_case
from .errors import DiscretizationDefectError, DivergenceError
from .mc_variance import (
    batch_means,
    check_batches,
    overlapping_batch_means,
    replicated_clt,
)
from .model import (
    DriftField,
    Potential,
    SpaceKind,
    antisymmetric_matrix,
    check_assumptions,
    make_potential,
    make_qgradu_drift,
    zero_drift,
)
from .observables import observable_vector, parse_observable
from .sde_sim import RNG_NAME, SimConfig, simulate, trajectory_to_csv
from .spectral_oracle import (
    discretize_gaussian_linear,
    discretize_torus,
    generator_gaps,
    variance_report,
)

OUTPUT_DIR_ENV = "IRRLANGEVIN_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3

# The flags each catalog potential reads.  They give the --potential
# choices, the factory's keyword arguments and the report's potential_spec.
POTENTIAL_FLAGS = {
    "gaussian": ("dim", "cov"),
    "double_well_2d": ("barrier",),
    "torus_cosine": ("dim", "amplitude"),
}


# --- flag parsing helpers ----------------------------------------------------


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"cannot parse {what} {text!r} as comma-separated reals")


def _parse_q(text: str, dim: int) -> np.ndarray:
    entries = _parse_float_list(text, "--q")
    if len(entries) != dim * dim:
        raise ValueError(
            f"--q needs {dim * dim} row-major entries for dim {dim}, "
            f"got {len(entries)}"
        )
    return antisymmetric_matrix(np.reshape(entries, (dim, dim)), dim)


def _add_potential_args(sp):
    sp.add_argument("--potential", default="gaussian",
                    choices=list(POTENTIAL_FLAGS))
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--cov", default=None,
                    help="gaussian covariance: scalar, diagonal, or row-major matrix")
    sp.add_argument("--barrier", type=float, default=1.0)
    sp.add_argument("--amplitude", default="1.0",
                    help="torus cosine amplitude: scalar or one value per axis")


def _add_drift_args(sp, scale: bool = True):
    sp.add_argument("--drift", default="none", choices=["none", "qgradu"])
    sp.add_argument("--q", default=None,
                    help="row-major antisymmetric matrix entries, e.g. 0,1,-1,0")
    if scale:
        sp.add_argument("--k", type=float, default=1.0,
                        help="drift scale multiplying C")


def _add_backend_args(sp):
    sp.add_argument("--backend", default=None, choices=["torus", "hermite"])
    sp.add_argument("--points-per-axis", type=int, default=32)
    sp.add_argument("--degree", type=int, default=6)


def _add_sim_args(sp):
    sp.add_argument("--dt", type=float, default=0.01)
    sp.add_argument("--n-steps", type=int, default=100_000)
    sp.add_argument("--burn-in", type=int, default=1_000)
    sp.add_argument("--seed", type=int, default=1234)
    sp.add_argument("--initial", default=None,
                    help="comma-separated initial point (default: origin)")
    sp.add_argument("--thin", type=int, default=1)


def _add_output_arg(sp, default_name):
    sp.add_argument("--output", default=None,
                    help=f"output file (default {default_name} under "
                         f"${OUTPUT_DIR_ENV} or the working directory)")
    sp.set_defaults(default_output=default_name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irrlangevin",
        description="Langevin sampling with skew drifts: simulation, "
                    "variance estimation, and exact spectral verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check-assumptions",
                        help="probe the drift and growth conditions")
    _add_potential_args(sp)
    _add_drift_args(sp)
    sp.add_argument("--n-probes", type=int, default=128)
    sp.add_argument("--seed", type=int, default=1234)
    _add_output_arg(sp, "assumptions.json")

    sp = sub.add_parser("sample", help="simulate one trajectory")
    _add_potential_args(sp)
    _add_drift_args(sp)
    sp.add_argument("--observable", default="x1")
    _add_sim_args(sp)
    sp.add_argument("--dump-trajectory", default=None,
                    help="also write the trajectory as CSV (t, x1..xd, running_mean)")
    _add_output_arg(sp, "sample.json")

    sp = sub.add_parser("estimate-variance",
                        help="estimate the asymptotic variance by simulation")
    _add_potential_args(sp)
    _add_drift_args(sp)
    sp.add_argument("--observable", default="x1")
    _add_sim_args(sp)
    sp.add_argument("--method", default="batch-means",
                    choices=["batch-means", "overlapping-batch-means",
                             "replicated-clt"])
    sp.add_argument("--n-chains", type=int, default=64)
    sp.add_argument("--batch-length", type=float, default=None)
    sp.add_argument("--check-bias", action="store_true",
                    help="rerun at dt/2 and flag an estimate that moves > 1 stderr")
    _add_output_arg(sp, "variance.json")

    sp = sub.add_parser("spectral-report",
                        help="exact variances from the discretized operators")
    _add_potential_args(sp)
    _add_drift_args(sp)
    sp.add_argument("--observable", default="x1")
    _add_backend_args(sp)
    sp.add_argument("--dump-measure", default=None,
                    help="also write the spectral atoms as CSV (location, weight)")
    _add_output_arg(sp, "spectral.json")

    # no abbreviations here, or --k would silently mean --k-values
    sp = sub.add_parser("sweep-k", allow_abbrev=False,
                        help="variance versus drift scale from one decomposition")
    _add_potential_args(sp)
    _add_drift_args(sp, scale=False)  # the scales are --k-values
    sp.add_argument("--observable", default="x1")
    _add_backend_args(sp)
    sp.add_argument("--k-values", default="0,1,2,4",
                    help="ascending drift scales starting at 0")
    _add_output_arg(sp, "sweep_k.csv")

    sp = sub.add_parser("worst-case",
                        help="suprema of the variances over unit observables")
    _add_potential_args(sp)
    _add_drift_args(sp)
    _add_backend_args(sp)
    _add_output_arg(sp, "worst_case.json")

    sp = sub.add_parser("reproduce-benchmark",
                        help="run the full acceptance matrix and write the table")
    sp.add_argument("--only", default=None,
                    help="comma-separated criterion names, e.g. C1,C2")
    _add_output_arg(sp, "benchmark_summary.csv")

    return parser


# --- builders -----------------------------------------------------------------


def _resolve_output(args) -> str:
    if args.output:
        return args.output
    base = os.environ.get(OUTPUT_DIR_ENV, ".")
    return os.path.join(base, args.default_output)


def _cov_param(args):
    if args.cov is None:
        return None
    entries = _parse_float_list(args.cov, "--cov")
    if len(entries) == 1:
        return entries[0]
    if len(entries) == args.dim:
        return np.asarray(entries)
    if len(entries) == args.dim**2:
        return np.asarray(entries).reshape(args.dim, args.dim)
    raise ValueError(f"--cov needs 1, {args.dim} or {args.dim ** 2} entries")


def _amplitude_param(args):
    amp = _parse_float_list(args.amplitude, "--amplitude")
    return amp[0] if len(amp) == 1 else tuple(amp)


# flags whose text a parser turns into the factory argument; the others pass as is
_FLAG_PARAMS = {"cov": _cov_param, "amplitude": _amplitude_param}


def _potential_from_args(args) -> Potential:
    params = {flag: _FLAG_PARAMS[flag](args) if flag in _FLAG_PARAMS
              else getattr(args, flag) for flag in POTENTIAL_FLAGS[args.potential]}
    return make_potential(args.potential, **params)


def _drift_from_args(args, u: Potential, scale: float) -> DriftField:
    if not np.isfinite(scale):
        raise ValueError(f"--k must be finite, got {scale!r}")
    if args.drift == "none":
        if args.q is not None:
            raise ValueError("--q needs --drift qgradu; --drift none has no Q")
        return zero_drift(u.dim)
    if args.q is None:
        raise ValueError("--drift qgradu requires --q")
    q = _parse_q(args.q, u.dim)
    return make_qgradu_drift(scale * q, u)


def _system_from_args(args, u: Potential, scale: float):
    backend = args.backend
    if backend is None:
        backend = "torus" if u.space_kind is SpaceKind.FLAT_TORUS else "hermite"
    if backend == "torus":
        if u.space_kind is not SpaceKind.FLAT_TORUS:
            raise ValueError("--backend torus requires a torus potential")
    elif u.name != "gaussian" or u.params.get("cov") != np.eye(u.dim).tolist():
        raise ValueError(
            "--backend hermite requires the standard gaussian potential "
            "(identity covariance)")
    c = _drift_from_args(args, u, scale=scale)
    if backend == "torus":
        return discretize_torus(u, c, args.points_per_axis), backend
    return discretize_gaussian_linear(c.q, u.dim, args.degree), backend


def _config_from_args(args, output: str) -> dict:
    """The fully resolved run description that a JSON report embeds."""
    drift_spec = {"kind": args.drift, "k": args.k}
    if args.q is not None:
        drift_spec["q"] = args.q
    potential_spec = {"name": args.potential}
    potential_spec.update((flag, getattr(args, flag))
                          for flag in POTENTIAL_FLAGS[args.potential])
    backend_spec = {}
    if hasattr(args, "backend"):
        backend_spec = {"backend": args.backend,
                        "points_per_axis": args.points_per_axis,
                        "degree": args.degree}
    sim_spec = {}
    if hasattr(args, "dt"):
        sim_spec = {"dt": args.dt, "n_steps": args.n_steps,
                    "burn_in": args.burn_in, "seed": args.seed,
                    "initial": args.initial, "thin": args.thin}
    return {"command": args.command, "potential_spec": potential_spec,
            "drift_spec": drift_spec,
            "observable_spec": getattr(args, "observable", ""),
            "backend_spec": backend_spec, "sim_spec": sim_spec,
            "output_path": output}


def _sim_config_from_args(args, u: Potential) -> SimConfig:
    if args.initial is None:
        initial = np.zeros(u.dim)
    else:
        initial = np.asarray(_parse_float_list(args.initial, "--initial"))
        if initial.shape != (u.dim,):
            raise ValueError(f"--initial needs {u.dim} coordinates")
    return SimConfig(step_size=args.dt, n_steps=args.n_steps,
                     initial_point=initial, burn_in_steps=args.burn_in,
                     seed=args.seed, thin=args.thin)


# --- output helpers ------------------------------------------------------------


def write_atomic(path, text: str) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".irrlangevin_")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --- subcommand implementations --------------------------------------------------
#
# A command maps (args, potential) to its report: a dict is a JSON payload
# (run_command embeds the config), a str is written as it stands.


def _cmd_check_assumptions(args, u: Potential) -> dict:
    if args.n_probes < 1:
        raise ValueError(f"--n-probes must be a positive integer, got {args.n_probes}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    c = _drift_from_args(args, u, scale=args.k)
    rng = np.random.default_rng(args.seed)
    if u.space_kind is SpaceKind.FLAT_TORUS:
        probes = rng.uniform(0.0, 2.0 * np.pi, size=(args.n_probes, u.dim))
    else:
        probes = 2.0 * rng.standard_normal((args.n_probes, u.dim))
    report = check_assumptions(u, c, probes)
    return {
        "seed": args.seed,
        "n_probes": args.n_probes,
        "a3_residual": report.a3_residual,
        "a4_margin": {f"{eps:g}": val for eps, val in report.a4_margin.items()},
        "a5_ratio": report.a5_ratio,
        "a6_trend": report.a6_trend,
        "verification": "probe-verified",
    }


def _cmd_sample(args, u: Potential) -> dict:
    c = _drift_from_args(args, u, scale=args.k)
    obs = parse_observable(args.observable, u.dim)
    cfg = _sim_config_from_args(args, u)
    traj = simulate(u, c, obs.fn, cfg)
    if args.dump_trajectory:
        trajectory_to_csv(traj, args.dump_trajectory)
    return {
        "seed": cfg.seed,
        "rng": RNG_NAME,
        "time_average": float(traj.observable_running_mean[-1]),
        "total_time": traj.total_time,
        "n_recorded": int(len(traj.states)),
        "final_state": traj.states[-1].tolist(),
    }


def _cmd_estimate_variance(args, u: Potential) -> dict:
    c = _drift_from_args(args, u, scale=args.k)
    obs = parse_observable(args.observable, u.dim)
    cfg = _sim_config_from_args(args, u)
    # every refusal comes before a chain runs
    if args.method == "replicated-clt":
        if cfg.thin != 1:
            raise ValueError("--thin must be 1 for replicated-clt, which stores "
                             f"no path; got {cfg.thin}")
        estimate = replicated_clt(u, c, obs.fn, cfg, n_chains=args.n_chains,
                                  check_bias=args.check_bias)
    else:
        check_batches(cfg.n_steps - cfg.burn_in_steps, cfg.step_size,
                      args.batch_length, cfg.thin, names=("--thin", "--batch-length"))
        traj = simulate(u, c, obs.fn, cfg)
        estimator = (batch_means if args.method == "batch-means"
                     else overlapping_batch_means)
        estimate = estimator(traj, obs.fn, batch_length=args.batch_length)
    return {
        "potential": u.name,
        "drift": c.name,
        "k": args.k,
        "f": obs.name,
        "method": estimate.method.value,
        "estimate": estimate.point_estimate,
        "stderr": estimate.stderr,
        "T": estimate.total_time,
        "dt": estimate.dt,
        "n_chains": estimate.n_chains,
        "seed": cfg.seed,
        "rng": RNG_NAME,
        "batch_length": estimate.batch_length,
        "center": estimate.center,
        "bias_flagged": estimate.bias_flagged,
        "diagnostics": {key: (bool(val) if isinstance(val, (bool, np.bool_))
                              else float(val))
                        for key, val in estimate.diagnostics.items()},
    }


def _cmd_spectral_report(args, u: Potential) -> dict:
    sys_, backend = _system_from_args(args, u, scale=args.k)
    obs = parse_observable(args.observable, u.dim)
    f = observable_vector(sys_, obs)
    report = variance_report(sys_, f)
    gap_l, min_real = generator_gaps(sys_)
    if args.dump_measure:
        lines = ["location,weight"]
        lines += [f"{float(y)!r},{float(w)!r}" for y, w in
                  zip(report.measure.locations, report.measure.weights)]
        write_atomic(args.dump_measure, "\n".join(lines) + "\n")
    return {
        "backend": backend,
        "n": sys_.n,
        "sigma2_rev": report.sigma2_rev,
        "sigma2_irr": report.sigma2_irr,
        "equality_gap": report.equality_gap,
        "kernel_flag": report.kernel_flag,
        "route_discrepancy": report.route_discrepancy,
        "gap_L": gap_l,
        "min_real_spectrum_LC": min_real,
        "center_shift": report.center_shift,
        "antisym_correction": sys_.antisym_correction,
    }


def _cmd_sweep_k(args, u: Potential) -> str:
    k_values = _parse_float_list(args.k_values, "--k-values")
    # sweep_k builds only the unit scale, which also gives the observable vector
    system = _system_from_args(args, u, scale=1.0)[0]
    f = observable_vector(system, parse_observable(args.observable, u.dim))
    result = sweep_k(lambda _: system, f, k_values)
    lines = ["k,sigma2,limit_prediction"]
    limit = float(result.limit_prediction)
    for k, sigma2 in zip(result.k_values, result.sigma2_values):
        lines.append(f"{float(k)!r},{float(sigma2)!r},{limit!r}")
    return "\n".join(lines) + "\n"


def _cmd_worst_case(args, u: Potential) -> dict:
    sys_, backend = _system_from_args(args, u, scale=args.k)
    result = worst_case(sys_)
    return {
        "backend": backend,
        "n": sys_.n,
        "sup_rev": result.sup_rev,
        "sup_irr": result.sup_irr,
        "strict": result.strict,
        "kernel_intersection_dim": result.kernel_intersection_dim,
        "lambda_min": result.lambda_min,
        "l_eigenspace_dim": result.l_eigenspace_dim,
        "eigenspace_residuals": result.eigenspace_residuals.tolist(),
    }


def _cmd_reproduce_benchmark(args, output: str) -> int:
    only = None
    if args.only is not None:
        only = [tok.strip() for tok in args.only.split(",") if tok.strip()]
    rows, passed = bench.run_benchmark(only=only)
    print(bench.format_table(rows))
    lines = ["criterion,case,expected,observed,tolerance,passed"]
    for r in rows:
        case = r.case.replace('"', "'")
        lines.append(f'{r.criterion},"{case}","{r.expected}",'
                     f"{float(r.observed)!r},{float(r.tolerance)!r},{r.passed}")
    write_atomic(output, "\n".join(lines) + "\n")
    return EXIT_OK if passed else 1


_COMMANDS = {
    "check-assumptions": _cmd_check_assumptions,
    "sample": _cmd_sample,
    "estimate-variance": _cmd_estimate_variance,
    "spectral-report": _cmd_spectral_report,
    "sweep-k": _cmd_sweep_k,
    "worst-case": _cmd_worst_case,
}


def run_command(argv: list[str]) -> int:
    """Parse and execute one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        code = exc.code if exc.code is not None else 0
        return int(code) if isinstance(code, int) else EXIT_CONFIG
    try:
        output = _resolve_output(args)
        if args.command == "reproduce-benchmark":
            return _cmd_reproduce_benchmark(args, output)
        report = _COMMANDS[args.command](args, _potential_from_args(args))
        if isinstance(report, dict):
            config = _config_from_args(args, output)
            report = json.dumps({"config": config, **report}, indent=2,
                                sort_keys=True) + "\n"
        write_atomic(output, report)
        return EXIT_OK
    except DivergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (ValueError, DiscretizationDefectError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
