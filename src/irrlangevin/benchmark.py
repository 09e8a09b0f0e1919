"""Reproducible acceptance matrix: every release gate in one table.

Each criterion runner returns rows of (expected, observed, tolerance,
pass/fail).  Closed-form targets come from the Gaussian rotation benchmark
(sigma2 = 2 / (1 + k^2) for f = x1, derived in
docs/ou_variance_derivation.md); structural gates check the discretized
operators directly.  The two Monte Carlo gates are stochastic but pinned
to a fixed seed bank, so the whole table is deterministic.

``run_benchmark`` executes the matrix (optionally a subset) and is what
``irrlangevin reproduce-benchmark`` calls.  Every gate reads its tolerance
from ``TOLERANCES``; nothing on the command line can change one.  Each
runner builds the systems it reads and drops them when it returns, so no
criterion runs on top of another's systems; only the random-observable
scan, which holds floats, is cached, for C3 to read C1's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .analysis import KSweepResult, equality_certificate, sweep_k, worst_case
from .mc_variance import replicated_clt
from .model import gaussian_potential, make_qgradu_drift, torus_cosine
from .observables import observable_vector, parse_observable
from .sde_sim import SimConfig
from .spectral_oracle import (
    asymptotic_variances,
    discretize_gaussian_linear,
    discretize_torus,
    generator_gaps,
    variance_report,
)

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])

OBSERVABLE_SEED = 20250810
SCAN_OBSERVABLES = 200  # random observables per system in C1 and C3
MC_SEED_BANK = {0.0: 20250801, 1.0: 20250802}

TOLERANCES: dict[str, float] = {
    "C1_slack": 1e-10,
    "C2_value": 1e-9,
    "C3_route": 1e-8,
    "C4_structure": 1e-10,
    "C5_gap": 1e-9,
    "C5_ou_gap_min": 0.5,
    "C6_monotone": 1e-10,
    "C6_floor": 1e-9,
    "C6_limit": 1e-6,
    "C7_margin": 1e-9,
    "C7_ou": 1e-9,
    "C8_gap": 1e-10,
    "C9_rel": 0.25,
    "C10_low": 3.0,
    "C10_high": 5.0,
}


@dataclass
class CriterionRow:
    criterion: str
    case: str
    expected: str
    observed: float
    tolerance: float
    passed: bool


# --- benchmark systems (built by each runner that reads them) ---------------


def torus_benchmark_system(k: float, points_per_axis: int = 32):
    u = torus_cosine(2, 1.0)
    return discretize_torus(u, make_qgradu_drift(k * ROT, u), points_per_axis)


def torus_axis_system(points_per_axis: int = 32):
    # energy depending on x1 only: functions of the energy are drift
    # invariants of the grid operator exactly, not just in the limit
    u = torus_cosine(2, (1.0, 0.0))
    return discretize_torus(u, make_qgradu_drift(ROT, u), points_per_axis)


def gaussian_benchmark_system(k: float, degree: int = 6):
    return discretize_gaussian_linear(k * ROT, dim=2, degree=degree)


def _backends():
    # one unit-scale system per backend, built as the loop reaches it
    yield "torus 32x32, U = cos x1 + cos x2", torus_benchmark_system(1.0)
    yield "gaussian-linear dim 2 degree 6", gaussian_benchmark_system(1.0)


@lru_cache(maxsize=None)
def _inequality_scan():
    """Worst inequality slack and route discrepancy over random observables."""
    out = {}
    for name, sys in _backends():
        rng = np.random.default_rng(OBSERVABLE_SEED)
        worst_slack = -np.inf
        worst_route = 0.0
        for _ in range(SCAN_OBSERVABLES):
            f = rng.standard_normal(sys.n)
            rep = variance_report(sys, f)
            worst_slack = max(worst_slack, rep.sigma2_irr - rep.sigma2_rev)
            worst_route = max(worst_route, rep.route_discrepancy)
        out[name] = (worst_slack, worst_route)
    return out


# --- criterion runners --------------------------------------------------------


def run_c1(tol: Mapping[str, float]) -> list[CriterionRow]:
    rows = []
    for name, (slack, _) in _inequality_scan().items():
        rows.append(CriterionRow(
            "C1", name,
            f"sigma2_irr - sigma2_rev <= tol over {SCAN_OBSERVABLES} observables",
            slack, tol["C1_slack"], slack <= tol["C1_slack"]))
    return rows


def run_c2(tol: Mapping[str, float]) -> list[CriterionRow]:
    rows = []
    for k in (0.0, 1.0, 2.0, 4.0):
        sys = gaussian_benchmark_system(k)
        rep = variance_report(sys, observable_vector(sys, parse_observable("x1", 2)))
        target = 2.0 / (1.0 + k**2)
        err_rev = abs(rep.sigma2_rev - 2.0)
        err_irr = abs(rep.sigma2_irr - target)
        rows.append(CriterionRow(
            "C2", f"k={k:g}: sigma2_rev", "|sigma2_rev - 2| <= tol",
            err_rev, tol["C2_value"], err_rev <= tol["C2_value"]))
        rows.append(CriterionRow(
            "C2", f"k={k:g}: sigma2_irr",
            f"|sigma2_irr - {target:.6g}| <= tol",
            err_irr, tol["C2_value"], err_irr <= tol["C2_value"]))
    return rows


def run_c3(tol: Mapping[str, float]) -> list[CriterionRow]:
    rows = []
    for name, (_, route) in _inequality_scan().items():
        rows.append(CriterionRow(
            "C3", name, "relative route disagreement <= tol over criterion-1 set",
            route, tol["C3_route"], route <= tol["C3_route"]))
    return rows


def _max_abs(x) -> float:
    return float(np.max(np.abs(x)))


def _structure_residuals(sys) -> list[tuple[str, float]]:
    """C4's residuals for one system, with no dense A: D A = P^T (D S) P
    (D = diag(pi)) on the stencil, F^T F of each block's cached factor F
    against its grounded L_E, and F^-T A F^-1 as the spectral chain formed
    it, the largest over the blocks, as on the block-diagonal whole."""
    pi, const = sys.pi_weights, sys.const_vec
    pi_l = pi[:, None] * sys.l_matrix
    pi_s = pi[:, None] * sys.s_matrix
    a_const = sys.center(sys.s_matrix @ sys.center(const)[0])[0]
    ftf, scale = 0.0, 0.0
    for block in sys._blocks:
        energy = block.grounded_energy()[1]
        inverse = np.argsort(block.factor.perm)
        f = block.factor.triangular.U
        ftf = max(ftf, _max_abs(f.T @ f - energy[inverse][:, inverse]))
        scale = max(scale, _max_abs(energy))
    return [
        ("pi-symmetry of L", _max_abs(pi_l - pi_l.T)),
        ("pi-antisymmetry of A", _max_abs(pi_s + pi_s.T)),
        ("L annihilates constants", _max_abs(sys.l_matrix @ const)),
        ("A annihilates constants", _max_abs(a_const)),
        ("grounded L = F^T F", ftf / scale),
        ("F^-T A F^-1 antisymmetric", max(b.chain[2] for b in sys._blocks)),
    ]


def run_c4(tol: Mapping[str, float]) -> list[CriterionRow]:
    rows = []
    t = tol["C4_structure"]
    for name, sys in _backends():
        rows += [CriterionRow("C4", f"{name}: {label}", "residual <= tol", x, t,
                              x <= t) for label, x in _structure_residuals(sys)]
        lam_min = sys._l_spectrum[0]
        rows.append(CriterionRow(
            "C4", f"{name}: kernel of L is only the constants",
            "smallest mean-zero eigenvalue of L > 0", lam_min, 0.0,
            lam_min > 0.0))
    return rows


def run_c5(tol: Mapping[str, float]) -> list[CriterionRow]:
    rows = []
    sys = torus_axis_system()
    energy = np.cos(sys.points[:, 0])
    for label, phi in (("g(U) = U", energy), ("g(U) = U^2", energy**2)):
        f = sys.l_matrix @ phi
        rev, irr = asymptotic_variances(sys, f)
        gap, flag = abs(rev - irr), equality_certificate(sys, f).equal
        rows.append(CriterionRow(
            "C5", f"torus f = L({label})", "|equality_gap| <= tol",
            gap, tol["C5_gap"], gap <= tol["C5_gap"]))
        rows.append(CriterionRow(
            "C5", f"torus f = L({label}) kernel flag",
            "kernel_flag is true", float(flag), 1.0, flag))
    sys_ou = gaussian_benchmark_system(1.0)
    f = observable_vector(sys_ou, parse_observable("x1", 2))
    rev, irr = asymptotic_variances(sys_ou, f)
    gap, flag = rev - irr, equality_certificate(sys_ou, f).equal
    rows.append(CriterionRow(
        "C5", "gaussian f = x1, q rotation", "equality_gap >= 0.5",
        gap, tol["C5_ou_gap_min"], gap >= tol["C5_ou_gap_min"]))
    rows.append(CriterionRow(
        "C5", "gaussian f = x1 kernel flag", "kernel_flag is false",
        float(flag), 0.0, not flag))
    return rows


def _sweep_rows(tol, case, sys, f, ks) -> tuple[list[CriterionRow], KSweepResult]:
    # sweep_k builds only the unit scale: hand it ``sys``, already built
    res = sweep_k(lambda _: sys, f, ks)
    diffs = np.diff(res.sigma2_values)
    worst_increase = float(np.max(diffs)) if len(diffs) else 0.0
    rows = [CriterionRow(
        "C6", f"{case}: monotone in k", "max increase <= tol",
        worst_increase, tol["C6_monotone"],
        worst_increase <= tol["C6_monotone"])]
    floor = float(np.min(res.sigma2_values - res.limit_prediction))
    rows.append(CriterionRow(
        "C6", f"{case}: values above the limit", "min(sigma2 - limit) >= -tol",
        floor, tol["C6_floor"], floor >= -tol["C6_floor"]))
    if res.b_gap is not None and res.b_gap > 0:
        k_big = res.k_values[-1]
        excess = float(res.sigma2_values[-1] - res.limit_prediction)
        bound = max(tol["C6_limit"],
                    2.0 * res.measure.total_mass / (1.0 + k_big**2 * res.b_gap**2))
        rows.append(CriterionRow(
            "C6", f"{case}: k={k_big:g} within the gap bound of the limit",
            "sigma2(k) - limit <= max(tol, 2 mass/(1+k^2 gap^2))",
            excess, bound, excess <= bound * (1.0 + 1e-12)))
    return rows, res


def run_c6(tol: Mapping[str, float]) -> list[CriterionRow]:
    ks = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    sys = gaussian_benchmark_system(1.0)
    f = observable_vector(sys, parse_observable("x1", 2))
    rows, res = _sweep_rows(tol, "gaussian f = x1", sys, f, ks)
    rows.append(CriterionRow(
        "C6", "gaussian limit is zero", "|limit_prediction| <= tol",
        abs(res.limit_prediction), tol["C6_limit"],
        abs(res.limit_prediction) <= tol["C6_limit"]))
    sys = torus_benchmark_system(1.0)
    f = np.cos(sys.points[:, 0])
    torus_rows, _ = _sweep_rows(tol, "torus f = cos x1", sys, f, ks)
    return rows + torus_rows


def run_c7(tol: Mapping[str, float]) -> list[CriterionRow]:
    rows = []
    res = worst_case(torus_benchmark_system(1.0))
    rows.append(CriterionRow(
        "C7", "torus kernel intersection",
        "dim(Ker(L - lambda) cap Ker A) reported",
        float(res.kernel_intersection_dim), 0.0, True))
    if res.kernel_intersection_dim == 0:
        margin = res.sup_rev - res.sup_irr
        rows.append(CriterionRow(
            "C7", "torus strict worst-case gain", "sup_rev - sup_irr > tol",
            margin, tol["C7_margin"], margin > tol["C7_margin"]))
    res_ou = worst_case(gaussian_benchmark_system(1.0))
    err_rev = abs(res_ou.sup_rev - 2.0)
    err_irr = abs(res_ou.sup_irr - 1.0)
    rows.append(CriterionRow(
        "C7", "gaussian sup_rev", "|sup_rev - 2| <= tol", err_rev,
        tol["C7_ou"], err_rev <= tol["C7_ou"]))
    rows.append(CriterionRow(
        "C7", "gaussian sup_irr", "|sup_irr - 1| <= tol", err_irr,
        tol["C7_ou"], err_irr <= tol["C7_ou"]))
    return rows


def run_c8(tol: Mapping[str, float]) -> list[CriterionRow]:
    rows = []
    for name, sys in _backends():
        gap_l, min_real = generator_gaps(sys)
        deficit = gap_l - min_real
        rows.append(CriterionRow(
            "C8", name, "min Re spec(L - A) >= min eig(L) - tol",
            deficit, tol["C8_gap"], deficit <= tol["C8_gap"]))
    return rows


def run_c9(tol: Mapping[str, float]) -> list[CriterionRow]:
    u = gaussian_potential(2)
    estimates = {}
    for k in (0.0, 1.0):
        cfg = SimConfig(step_size=0.005, n_steps=202_000,
                        initial_point=[0.0, 0.0], burn_in_steps=2_000,
                        seed=MC_SEED_BANK[k])
        estimates[k] = replicated_clt(u, make_qgradu_drift(k * ROT, u),
                                      lambda x: x[..., 0], cfg, n_chains=100)
    rows = []
    for k, target in ((0.0, 2.0), (1.0, 1.0)):
        rel = abs(estimates[k].point_estimate - target) / target
        rows.append(CriterionRow(
            "C9", f"replicated CLT k={k:g} (100 chains, T=1e3)",
            f"relative error to {target:g} <= tol", rel, tol["C9_rel"],
            rel <= tol["C9_rel"]))
    drop = estimates[0.0].point_estimate - estimates[1.0].point_estimate
    combined = math.hypot(estimates[0.0].stderr, estimates[1.0].stderr)
    rows.append(CriterionRow(
        "C9", "variance reduction beyond noise",
        "estimate(k=0) - estimate(k=1) > combined stderr",
        drop, combined, drop > combined))
    return rows


def _torus_variances(points_per_axis: int) -> tuple[float, float]:
    # one grid at a time: this system is dropped before the next is built
    sys = torus_benchmark_system(1.0, points_per_axis)
    return asymptotic_variances(sys, np.cos(sys.points[:, 0]))


def run_c10(tol: Mapping[str, float]) -> list[CriterionRow]:
    values = {m: _torus_variances(m) for m in (16, 32, 64)}
    rows = []
    for route, label in ((0, "sigma2_rev"), (1, "sigma2_irr")):
        d1 = values[16][route] - values[32][route]
        d2 = values[32][route] - values[64][route]
        ratio = d1 / d2
        ok = tol["C10_low"] <= ratio <= tol["C10_high"]
        rows.append(CriterionRow(
            "C10", f"{label} at 16/32/64 points per axis",
            "difference ratio in [3, 5] (second order)", ratio,
            tol["C10_high"], ok))
    return rows


CRITERIA: dict[str, tuple[str, Callable]] = {
    "C1": (f"main inequality on {SCAN_OBSERVABLES} random observables per backend",
           run_c1),
    "C2": ("closed-form gaussian rotation benchmark", run_c2),
    "C3": ("resolvent and spectral routes agree", run_c3),
    "C4": ("operator structure: symmetries, kernels, L = F^T F, "
           "antisymmetric F^-T A F^-1", run_c4),
    "C5": ("equality holds exactly on drift-invariant observables", run_c5),
    "C6": ("growing drift: monotone decay to the kernel mass", run_c6),
    "C7": ("worst-case comparison of the two dynamics", run_c7),
    "C8": ("perturbation does not shrink the spectral gap", run_c8),
    "C9": ("Monte Carlo estimates match the oracle", run_c9),
    "C10": ("grid oracle converges at second order", run_c10),
}


def run_benchmark(only: Sequence[str] | None = None,
                  ) -> tuple[list[CriterionRow], bool]:
    """Run the acceptance matrix, or the criteria in ``only``, at ``TOLERANCES``.

    Returns (rows, all_passed).  An empty ``only`` raises ``ValueError``,
    since a gate that runs no criterion would pass having checked nothing;
    so does a criterion named twice, whose rows would count twice.
    """
    tol = dict(TOLERANCES)
    names = list(CRITERIA) if only is None else list(only)
    if not names:
        raise ValueError(f"no criteria named; available {list(CRITERIA)}")
    unknown = [n for n in names if n not in CRITERIA]
    if unknown:
        raise ValueError(f"unknown criteria: {unknown}; available {list(CRITERIA)}")
    repeated = sorted({n for n in names if names.count(n) > 1}, key=names.index)
    if repeated:
        raise ValueError(f"criteria named more than once: {repeated}")
    rows: list[CriterionRow] = []
    for name in names:
        _, runner = CRITERIA[name]
        rows.extend(runner(tol))
    return rows, all(r.passed for r in rows)


def format_table(rows: Sequence[CriterionRow]) -> str:
    header = f"{'criterion':<10} {'case':<52} {'observed':>13} {'tolerance':>13}  result"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.criterion:<10} {r.case[:52]:<52} {r.observed:>13.4e} "
            f"{r.tolerance:>13.4e}  {'pass' if r.passed else 'FAIL'}"
        )
    n_pass = sum(r.passed for r in rows)
    lines.append(f"{n_pass}/{len(rows)} checks passed")
    return "\n".join(lines)
