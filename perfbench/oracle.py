"""Dense spectral-oracle workload: the CLI's oracle commands on two backends.

Per backend the cycle mirrors the CLI: ``spectral-report`` (build,
observable vector, first report, generator gaps), a scan of random
observables through ``variance_report`` on that already-built system,
``sweep-k`` (which builds once for the observable vector and once more
through the builder it hands to ``sweep_k``) and ``worst-case`` on a fresh
build.  The scan comes right after the report so the built system can be
dropped before the next build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

import numpy as np

from irrlangevin import (
    discretize_gaussian_linear,
    discretize_torus,
    generator_gaps,
    make_potential,
    make_qgradu_drift,
    observable_vector,
    parse_observable,
    sweep_k,
    variance_report,
    worst_case,
)
from irrlangevin.benchmark import TOLERANCES

from tracer import duration

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])
TORUS_POINTS = 40  # n = 1600
HERMITE_DIM, HERMITE_DEGREE = 5, 8  # n = C(13, 5) = 1287
SWEEP_KS = (0.0, 1.0, 2.0, 4.0, 8.0)
SCAN_OBSERVABLES = 20
BACKENDS = ("torus", "hermite")
OP_KINDS = ("spectral_report", "observable_scan", "sweep_k", "worst_case")


def chain_rotation(dim: int) -> np.ndarray:
    q = np.zeros((dim, dim))
    for i in range(dim - 1):
        q[i, i + 1], q[i + 1, i] = 1.0, -1.0
    return q


def build_torus(scale: float):
    u = make_potential("torus_cosine", dim=2)
    return discretize_torus(u, make_qgradu_drift(scale * ROT, u), TORUS_POINTS)


def build_hermite(scale: float):
    return discretize_gaussian_linear(scale * chain_rotation(HERMITE_DIM),
                                      HERMITE_DIM, HERMITE_DEGREE)


BUILDERS = {"torus": build_torus, "hermite": build_hermite}
OBSERVABLES = {"torus": ("cos1", 2), "hermite": ("x1", HERMITE_DIM)}
STATES = {"torus": TORUS_POINTS**2,
          "hermite": comb(HERMITE_DIM + HERMITE_DEGREE, HERMITE_DIM)}


@dataclass
class OracleOp:
    backend: str
    kind: str


def _report_failures(label, rep, tol) -> list[str]:
    out = []
    values = (rep.sigma2_rev, rep.sigma2_irr, rep.route_discrepancy)
    if not all(math.isfinite(v) for v in values):
        return [f"{label}: non-finite report {values}"]
    if rep.route_discrepancy > tol["C3_route"]:
        out.append(f"{label}: route discrepancy {rep.route_discrepancy:.3e} "
                   f"> C3_route {tol['C3_route']:g}")
    slack = rep.sigma2_irr - rep.sigma2_rev
    if slack > tol["C1_slack"]:
        out.append(f"{label}: sigma2_irr - sigma2_rev = {slack:.3e} "
                   f"> C1_slack {tol['C1_slack']:g}")
    return out


class OracleDense:
    """Fresh dense discretizations: torus m=40 and Hermite dim 5 degree 8."""

    name = "oracle_dense"
    replays = False
    ops_in_children = False
    probes = {b: f"spectral_oracle.rss_growth_mb.{b}" for b in BACKENDS}

    def prepare(self, seed):
        return {"seed": seed, "tol": dict(TOLERANCES)}

    def cycle(self, state):
        return [OracleOp(b, kind) for b in BACKENDS for kind in OP_KINDS]

    def inputs(self, op, op_id, state, tracer):
        if op.kind == "observable_scan":
            rng = np.random.default_rng([state["seed"], op_id])
            return op, rng.standard_normal((SCAN_OBSERVABLES, STATES[op.backend]))
        spec, dim = OBSERVABLES[op.backend]
        return op, parse_observable(spec, dim)

    def run(self, inputs, carry, tracer):
        op, data = inputs
        b = op.backend
        build = BUILDERS[b]
        if op.kind == "observable_scan":
            sys_ = carry.pop(b)  # built by this cycle's spectral_report
            reports = []
            for f in data:
                with tracer.span("spectral_oracle.variance_report", backend=b,
                                 first=False):
                    reports.append(variance_report(sys_, f))
            return reports
        with tracer.span("spectral_oracle.build", backend=b) as attrs:
            sys_ = build(1.0)
            attrs["states"] = sys_.n
        if op.kind == "worst_case":
            with tracer.span("analysis.worst_case", backend=b):
                return worst_case(sys_)
        with tracer.span("observables.observable_vector", backend=b):
            f = observable_vector(sys_, data)
        if op.kind == "sweep_k":
            builder = tracer.wrap(f"spectral_oracle.build.{b}", build)
            with tracer.span("analysis.sweep_k", backend=b):
                return sweep_k(builder, f, SWEEP_KS)
        with tracer.span("spectral_oracle.variance_report", backend=b,
                         first=True):
            rep = variance_report(sys_, f)
        with tracer.span("spectral_oracle.generator_gaps", backend=b):
            gaps = generator_gaps(sys_)
        carry[b] = sys_
        return rep, gaps

    def check(self, op, result, state):
        tol = state["tol"]
        label = f"{op.backend} {op.kind}"
        if op.kind == "observable_scan":
            return [msg for i, rep in enumerate(result)
                    for msg in _report_failures(f"{label} #{i}", rep, tol)]
        if op.kind == "spectral_report":
            rep, (gap_l, min_real) = result
            out = _report_failures(label, rep, tol)
            deficit = gap_l - min_real
            if not math.isfinite(deficit) or deficit > tol["C8_gap"]:
                out.append(f"{label}: gap deficit {deficit:.3e} "
                           f"> C8_gap {tol['C8_gap']:g}")
            return out
        if op.kind == "sweep_k":
            values = result.sigma2_values
            if not np.all(np.isfinite(values)):
                return [f"{label}: non-finite sweep {values}"]
            rise = float(np.max(np.diff(values)))
            if rise > tol["C6_monotone"]:
                return [f"{label}: sigma2 rises by {rise:.3e} "
                        f"> C6_monotone {tol['C6_monotone']:g}"]
            return []
        if not (math.isfinite(result.sup_irr) and math.isfinite(result.sup_rev)
                and result.sup_irr <= result.sup_rev):
            return [f"{label}: sup_irr {result.sup_irr} > sup_rev {result.sup_rev}"]
        return []

    def layer_metrics(self, tracer, state):
        def durations(name, backend, **match):
            return [duration(s) for s in tracer.named(name)
                    if s["attrs"]["backend"] == backend
                    and all(s["attrs"][k] == v for k, v in match.items())]

        out = {}
        for b in BACKENDS:
            builds = durations("spectral_oracle.build", b)
            builds += [r["total_s"] / r["count"] for r in tracer.rollup_records()
                       if r["name"] == f"spectral_oracle.build.{b}"]
            states = {s["attrs"]["states"] for s in tracer.named("spectral_oracle.build")
                      if s["attrs"]["backend"] == b}
            metrics = {
                "spectral_oracle.build_s": builds,
                "spectral_oracle.report_first_s":
                    durations("spectral_oracle.variance_report", b, first=True),
                "spectral_oracle.report_next_s":
                    durations("spectral_oracle.variance_report", b, first=False),
                "spectral_oracle.gaps_s": durations("spectral_oracle.generator_gaps", b),
                "analysis.sweep_k_s": durations("analysis.sweep_k", b),
                "analysis.worst_case_s": durations("analysis.worst_case", b),
                "observables.vector_s": durations("observables.observable_vector", b),
            }
            for key, vals in metrics.items():
                out[f"{key}.{b}"] = float(np.median(vals))
            out[f"spectral_oracle.states.{b}"] = states.pop()
        return out

    def probe_op(self, probe):
        return OracleOp(probe, "spectral_report")

