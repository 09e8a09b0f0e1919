"""Simulator workloads: one long chain, and many chains in lock-step.

Both drive the Euler-Maruyama simulator through the package's public API
with callables the benchmark builds itself, so a traced run can wrap
``Potential.grad``, ``DriftField.eval`` and the observable ``f`` and count
their calls where the work happens.  The skew drift is built as
``make_qgradu_drift(k * ROT, u)`` with ``perturbation_scale = 1``, so every
op, k = 0 included, runs the drift path a user of a QGRADU drift runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import chdtri

from irrlangevin import (
    SimConfig,
    asymptotic_variances,
    batch_means,
    discretize_torus,
    make_potential,
    make_qgradu_drift,
    overlapping_batch_means,
    parse_observable,
    replicated_clt,
    simulate,
)

from tracer import duration

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])
DT = 0.01
BURN_IN = 1000
CHECK_SIGMAS = 5.0
FALSE_ALARM = math.erfc(CHECK_SIGMAS / math.sqrt(2.0))  # two-sided, 5.7e-7

# single chain: T = 420 gives 20 batches of length sqrt(T)
SINGLE_STEPS = BURN_IN + round(420.0 / DT)
SINGLE_CASES = (  # (potential, observable, initial point)
    ("gaussian", "x1", (0.0, 0.0)),
    ("double_well_2d", "x1", (1.0, 0.0)),
    ("torus_cosine", "cos1", (math.pi, math.pi)),
)
SINGLE_KS = (0.0, 1.0, 2.0)
TORUS_REF_POINTS = 32  # the grid the acceptance matrix uses for the torus

# many chains: 2-d Gaussian rotation at k = 1, sigma2 = 2 / (1 + k^2) = 1
MANY_STEPS = BURN_IN + round(100.0 / DT)
MANY_K = 1.0
CHAIN_COUNTS = (64, 256, 1024)
BIAS_CHAINS = 256

SIM_SPANS = ("sde_sim.simulate", "mc_variance.replicated_clt")


def gaussian_sigma2(k: float) -> float:
    return 2.0 / (1.0 + k * k)


def chain_seed(seed: int, op_id: int) -> int:
    return int(np.random.default_rng([seed, op_id]).integers(2**31))


def _potential(name: str):
    if name == "double_well_2d":
        return make_potential(name)
    return make_potential(name, dim=2)


def build_callables(potential: str, observable: str, k: float, tracer):
    """(u, c, f) for one op; traced runs wrap the callables they hand in.

    The gradient is wrapped before the drift is built, so the gradient call
    inside ``DriftField.eval`` is counted as a child of the drift call.
    """
    u = _potential(potential)
    u = replace(u, grad=tracer.wrap("model.grad", u.grad))
    c = make_qgradu_drift(k * ROT, u)
    c = replace(c, eval=tracer.wrap("model.drift", c.eval))
    f = tracer.wrap("observables.f", parse_observable(observable, 2).fn)
    return u, c, f


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _estimate_failures(label, est, reference) -> list[str]:
    """Finite, and consistent with ``reference`` at the 5-sigma probability.

    The package's stderr is ``estimate * sqrt(2 / dof)``, the chi-square law
    of a variance estimate with ``dof`` degrees of freedom.  A plain
    ``|estimate - reference| <= 5 stderr`` test uses that law with the
    estimate in place of the true variance, so it rejects correct low
    estimates far more often than 5 sigma (0.7% of 20-batch estimates).
    This test asks instead whether ``estimate / reference`` lies within the
    two-sided 5-sigma quantiles of ``chi2(dof) / dof``.
    """
    value, stderr = est.point_estimate, est.stderr
    if not _finite(value, stderr):
        return [f"{label}: non-finite estimate {value} (stderr {stderr})"]
    if reference is None:
        return []
    if value <= 0.0 or stderr <= 0.0:
        return [f"{label}: degenerate estimate {value} (stderr {stderr})"]
    dof = 2.0 * (value / stderr) ** 2
    low = chdtri(dof, 1.0 - FALSE_ALARM / 2.0) / dof  # chi-square quantiles
    high = chdtri(dof, FALSE_ALARM / 2.0) / dof
    if not low <= value / reference <= high:
        return [f"{label}: estimate {value:.6g} / reference {reference:.6g} = "
                f"{value / reference:.3g} outside the {CHECK_SIGMAS:g}-sigma "
                f"range [{low:.3g}, {high:.3g}] of chi2({dof:.0f})/dof"]
    return []


def _sim_layer_metrics(tracer, sizes) -> dict:
    """model / observables / sde_sim metrics from the simulator spans."""
    sims = [s for name in SIM_SPANS for s in tracer.named(name)]
    out = {}
    lock_steps = sum(s["attrs"]["lock_steps"] for s in sims)
    sim_time = sum(duration(s) for s in sims)
    counts = {"model.grad": 0, "model.drift": 0, "observables.f": 0}
    direct = {"model": 0.0, "observables": 0.0}
    for s in sims:
        for r in tracer.subtree_rollups(s["id"]):
            counts[r["name"]] += r["count"]
        for r in tracer.direct_rollups(s["id"]):
            direct[r["name"].split(".")[0]] += r["total_s"]
    out["model.grad_calls_per_step"] = counts["model.grad"] / lock_steps
    out["model.drift_calls_per_step"] = counts["model.drift"] / lock_steps
    out["observables.f_calls_per_step"] = counts["observables.f"] / lock_steps
    out["model.share"] = direct["model"] / sim_time
    out["observables.f_share"] = direct["observables"] / sim_time
    for n in sizes:
        group = [s for s in sims if s["attrs"]["chains"] == n]
        chain_steps = sum(s["attrs"]["chain_steps"] for s in group)
        total = sum(duration(s) for s in group)
        own = sum(tracer.self_time(s) for s in group)
        out[f"sde_sim.ns_per_chain_step.c{n}"] = 1e9 * total / chain_steps
        out[f"sde_sim.self_ns_per_chain_step.c{n}"] = 1e9 * own / chain_steps
    return out


@dataclass
class SingleOp:
    potential: str
    observable: str
    initial: tuple
    k: float


class SingleChain:
    """simulate + batch_means + overlapping_batch_means on one chain."""

    name = "sim_single_chain"
    replays = True
    ops_in_children = False
    probes = {"c1": "sde_sim.rss_growth_mb.c1"}

    def prepare(self, seed):
        # the torus has no closed form: the grid oracle gives sigma2 per k
        u = make_potential("torus_cosine", dim=2)
        ref = {}
        for k in SINGLE_KS:
            sys_ = discretize_torus(u, make_qgradu_drift(k * ROT, u),
                                    TORUS_REF_POINTS)
            ref[k] = asymptotic_variances(sys_, np.cos(sys_.points[:, 0]))[1]
        return {"seed": seed, "torus_sigma2": ref}

    def cycle(self, state):
        return [SingleOp(p, o, x0, k) for p, o, x0 in SINGLE_CASES
                for k in SINGLE_KS]

    def inputs(self, op, op_id, state, tracer):
        u, c, f = build_callables(op.potential, op.observable, op.k, tracer)
        cfg = SimConfig(step_size=DT, n_steps=SINGLE_STEPS,
                        initial_point=list(op.initial), burn_in_steps=BURN_IN,
                        seed=chain_seed(state["seed"], op_id))
        return u, c, f, cfg

    def run(self, inputs, carry, tracer):
        u, c, f, cfg = inputs
        with tracer.span("sde_sim.simulate", chains=1, lock_steps=cfg.n_steps,
                         chain_steps=cfg.n_steps):
            traj = simulate(u, c, f, cfg)
        with tracer.span("mc_variance.batch_means"):
            bm = batch_means(traj, f)
        with tracer.span("mc_variance.obm"):
            obm = overlapping_batch_means(traj, f)
        return traj, bm, obm

    def reference(self, op, state):
        if op.potential == "gaussian":
            return gaussian_sigma2(op.k)
        if op.potential == "torus_cosine":
            return state["torus_sigma2"][op.k]
        return None  # double well: no reference, finiteness only

    def check(self, op, result, state):
        _, bm, obm = result
        ref = self.reference(op, state)
        label = f"{op.potential} k={op.k:g}"
        return (_estimate_failures(f"{label} batch means", bm, ref)
                + _estimate_failures(f"{label} OBM", obm, ref))

    def same(self, a, b) -> bool:
        ta, tb = a[0], b[0]
        return (np.array_equal(ta.states, tb.states)
                and np.array_equal(ta.times, tb.times)
                and np.array_equal(ta.observable_running_mean,
                                   tb.observable_running_mean)
                and all(x.point_estimate == y.point_estimate
                        for x, y in zip(a[1:], b[1:])))

    def layer_metrics(self, tracer, state):
        out = _sim_layer_metrics(tracer, (1,))
        for name, key in (("mc_variance.batch_means", "mc_variance.batch_means_s"),
                          ("mc_variance.obm", "mc_variance.obm_s")):
            out[key] = float(np.median([duration(s) for s in tracer.named(name)]))
        return out

    def probe_op(self, probe):
        return SingleOp("gaussian", "x1", (0.0, 0.0), 1.0)


@dataclass
class ManyOp:
    chains: int
    check_bias: bool


class ManyChains:
    """replicated_clt on the 2-d Gaussian rotation at 64, 256 and 1024 chains."""

    name = "sim_many_chains"
    replays = True
    ops_in_children = False
    probes = {"c1024": "sde_sim.rss_growth_mb.c1024"}

    def prepare(self, seed):
        return {"seed": seed, "bias_flagged": 0, "bias_checked": 0}

    def cycle(self, state):
        return [ManyOp(n, n == BIAS_CHAINS) for n in CHAIN_COUNTS]

    def inputs(self, op, op_id, state, tracer):
        u, c, f = build_callables("gaussian", "x1", MANY_K, tracer)
        cfg = SimConfig(step_size=DT, n_steps=MANY_STEPS,
                        initial_point=[0.0, 0.0], burn_in_steps=BURN_IN,
                        seed=chain_seed(state["seed"], op_id))
        return u, c, f, cfg, op

    def run(self, inputs, carry, tracer):
        u, c, f, cfg, op = inputs
        # the bias check reruns at dt/2 with twice the steps
        passes = 3 if op.check_bias else 1
        with tracer.span("mc_variance.replicated_clt", chains=op.chains,
                         lock_steps=passes * cfg.n_steps,
                         chain_steps=passes * cfg.n_steps * op.chains):
            return replicated_clt(u, c, f, cfg, n_chains=op.chains,
                                  check_bias=op.check_bias)

    def check(self, op, est, state):
        if op.check_bias:
            state["bias_checked"] += 1
            state["bias_flagged"] += int(bool(est.bias_flagged))
        return _estimate_failures(f"{op.chains} chains", est,
                                  gaussian_sigma2(MANY_K))

    def same(self, a, b) -> bool:
        return (a.point_estimate == b.point_estimate and a.stderr == b.stderr
                and a.center == b.center and a.diagnostics == b.diagnostics)

    def layer_metrics(self, tracer, state):
        out = _sim_layer_metrics(tracer, CHAIN_COUNTS)
        out["mc_variance.bias_flagged"] = state["bias_flagged"]
        out["mc_variance.bias_checked"] = state["bias_checked"]
        return out

    def probe_op(self, probe):
        return ManyOp(1024, False)
