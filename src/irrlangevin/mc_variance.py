"""Estimators for the asymptotic variance of Langevin time averages.

For an ergodic chain and a square-integrable observable f, the scaled
time average sqrt(t) ( (1/t) int_0^t f(X_s) ds - mean ) tends to a centered
Gaussian whose variance sigma^2(f) these estimators target.  Two routes:

* batch means -- one long trajectory cut into contiguous blocks, at least
  ``MIN_BATCHES`` of them; the variance of block averages, scaled by the
  block length, estimates sigma^2(f).
* replicated CLT -- many independent chains; the across-chain variance of
  the full time averages, scaled by the horizon, estimates sigma^2(f)
  directly from the limit theorem.

Both center with the empirical mean (the target mean is generally unknown
up to normalization) and report the centering value.  Estimates are exact
zeros for constant observables.  A chi-square approximation with
(n_batches - 1), resp. (n_chains - 1), degrees of freedom provides the
standard error.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .model import DriftField, Potential
from .sde_sim import ObservableFn, SimConfig, Trajectory, chain_time_averages

Array = np.ndarray

MIN_BATCHES = 20  # batches the horizon must cover, for either batch estimator


class EstimatorMethod(Enum):
    BATCH_MEANS = "batch_means"
    OVERLAPPING_BATCH_MEANS = "overlapping_batch_means"
    REPLICATED_CLT = "replicated_clt"


@dataclass
class VarianceEstimate:
    point_estimate: float
    stderr: float
    method: EstimatorMethod
    batch_length: float
    total_time: float
    n_chains: int
    center: float  # empirical mean removed before squaring
    dt: float
    bias_flagged: bool | None = None  # set by the step-halving recheck
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.point_estimate < 0:
            raise ValueError("point_estimate must be nonnegative")
        if not np.isfinite(self.stderr):
            raise ValueError("stderr must be finite")


def check_batches(n_values: int, step_size: float, batch_length: float | None,
                  thin: int, names: tuple[str, str] = ("thin", "batch_length")
                  ) -> tuple[float, int]:
    """(horizon, steps per batch) of ``n_values`` left endpoints ``step_size``
    apart, refused unless the path is unthinned (``thin`` 1), ``batch_length``
    is positive and finite, and the horizon holds ``MIN_BATCHES`` batches;
    ``batch_length`` defaults to sqrt(horizon).  The errors call ``thin`` and
    ``batch_length`` by ``names``, so a front end can check its flags by this
    rule before any chain runs."""
    thin_name, length_name = names
    if thin != 1:
        raise ValueError(
            f"batch estimators need an unthinned trajectory ({thin_name} 1); "
            f"got {thin_name} {thin}"
        )
    total = n_values * step_size
    if batch_length is None:
        batch_length = float(np.sqrt(total))
    if not (np.isfinite(batch_length) and batch_length > 0):
        raise ValueError(
            f"{length_name} must be positive and finite, got {batch_length!r}")
    if total < MIN_BATCHES * batch_length:
        raise ValueError(
            f"horizon {total:g} too short for {length_name} {batch_length:g}: "
            f"need at least {MIN_BATCHES} batches, i.e. a horizon of "
            f"{MIN_BATCHES * batch_length:g}"
        )
    return total, max(int(round(batch_length / step_size)), 1)


def _batches(traj: Trajectory, f: ObservableFn,
             batch_length: float | None) -> tuple[Array, float, int]:
    """(f's left-endpoint values, horizon, steps per batch), checked by
    :func:`check_batches`."""
    total, steps = check_batches(len(traj.states) - 1, traj.step_size,
                                 batch_length, traj.thin)
    return np.asarray(f(traj.states[:-1]), dtype=float), total, steps


def batch_means(traj: Trajectory, f: ObservableFn,
                batch_length: float | None = None) -> VarianceEstimate:
    """Non-overlapping batch-means estimate from a single trajectory.

    ``batch_length`` defaults to sqrt(total_time), the usual
    mean-squared-error-optimal growth rate.  The post-burn-in horizon must
    cover at least ``MIN_BATCHES`` batches.
    """
    values, _, steps_per_batch = _batches(traj, f, batch_length)
    dt = traj.step_size
    n_batches = len(values) // steps_per_batch
    used = values[: n_batches * steps_per_batch]
    means = used.reshape(n_batches, steps_per_batch).mean(axis=1)
    actual_b = steps_per_batch * dt

    center = float(used.mean())
    if np.ptp(used) == 0.0 or np.ptp(means) == 0.0:
        estimate = 0.0
    else:
        estimate = float(actual_b * np.var(means, ddof=1))
    stderr = estimate * np.sqrt(2.0 / (n_batches - 1))
    return VarianceEstimate(
        point_estimate=estimate, stderr=float(stderr),
        method=EstimatorMethod.BATCH_MEANS, batch_length=float(actual_b),
        total_time=float(n_batches * actual_b), n_chains=1, center=center,
        dt=dt, diagnostics={"n_batches": n_batches},
    )


def overlapping_batch_means(traj: Trajectory, f: ObservableFn,
                            batch_length: float | None = None) -> VarianceEstimate:
    """Overlapping variant: every window of the batch length is a batch.

    Smaller variance than plain batch means at the same batch length; same
    bias.  Degrees of freedom for the standard error follow the effective
    count 1.5 * total / batch_length.  Beside ``f``'s values, which are
    released once summed, two horizon-length buffers are held: the
    cumulative sums, and the window means, centred and squared in place.
    """
    values, total, b = _batches(traj, f, batch_length)
    dt = traj.step_size
    n = len(values)
    center = float(values.mean())
    constant = np.ptp(values) == 0.0
    csum = np.zeros(n + 1)
    np.cumsum(values, out=csum[1:])
    del values
    dev = np.subtract(csum[b:], csum[:-b])  # n - b + 1 overlapping windows
    dev /= b
    dev -= center
    if constant:
        estimate = 0.0
    else:
        estimate = float(dt * n * b * np.sum(np.square(dev, out=dev))
                         / ((n - b) * (n - b + 1)))
    dof = max(int(round(1.5 * n / b)) - 1, 1)
    stderr = estimate * np.sqrt(2.0 / dof)
    return VarianceEstimate(
        point_estimate=estimate, stderr=float(stderr),
        method=EstimatorMethod.OVERLAPPING_BATCH_MEANS,
        batch_length=float(b * dt), total_time=float(total), n_chains=1,
        center=center, dt=dt, diagnostics={"n_windows": len(dev)},
    )


def _normality_diagnostics(averages: Array) -> dict:
    """Standardized skewness and excess kurtosis of the chain averages."""
    n = len(averages)
    dev = averages - averages.mean()
    m2 = float(np.mean(dev**2))
    if m2 == 0.0:
        return {"degenerate": True, "skewness_z": 0.0, "kurtosis_z": 0.0,
                "normality_meaningful": False}
    skew = float(np.mean(dev**3)) / m2**1.5
    kurt = float(np.mean(dev**4)) / m2**2 - 3.0
    return {
        "degenerate": False,
        "skewness_z": skew / np.sqrt(6.0 / n),
        "kurtosis_z": kurt / np.sqrt(24.0 / n),
        "normality_meaningful": n >= 30,
    }


def replicated_clt(u: Potential, c: DriftField, f: ObservableFn, cfg: SimConfig,
                   n_chains: int, check_bias: bool = False) -> VarianceEstimate:
    """Across-chain estimate from ``n_chains`` independent replicas.

    Chains are seeded ``cfg.seed, cfg.seed + 1, ...``.  The estimate is the
    horizon times the sample variance of the per-chain time averages of f,
    centered at the cross-chain mean.  A diverging chain raises
    DivergenceError carrying its seed.  With ``check_bias`` the run is
    repeated at half the step size and the estimate is flagged when it moves
    by more than one standard error.  It needs at least two chains.
    """
    if n_chains < 2:
        raise ValueError(f"n_chains must be at least 2, got {n_chains}")
    averages, total_time = chain_time_averages(u, c, f, cfg, n_chains)
    estimate, stderr, center, diags = _clt_reduce(averages, total_time)
    out = VarianceEstimate(
        point_estimate=estimate, stderr=stderr,
        method=EstimatorMethod.REPLICATED_CLT, batch_length=total_time,
        total_time=total_time, n_chains=n_chains, center=center,
        dt=cfg.step_size, diagnostics=diags,
    )
    if check_bias:
        half = replace(cfg, step_size=cfg.step_size / 2.0,
                       n_steps=cfg.n_steps * 2,
                       burn_in_steps=cfg.burn_in_steps * 2)
        averages_h, total_h = chain_time_averages(u, c, f, half, n_chains)
        est_h, _, _, _ = _clt_reduce(averages_h, total_h)
        out.bias_flagged = bool(abs(est_h - estimate) > max(stderr, 1e-300))
        out.diagnostics["estimate_half_dt"] = est_h
    return out


def _clt_reduce(averages: Array, total_time: float):
    """Combine chain averages into (estimate, stderr, center, diagnostics).

    Associative and order-insensitive up to floating-point reassociation
    (relative tolerance about 1e-12 under permutations of the chains).
    """
    center = float(averages.mean())
    if np.ptp(averages) == 0.0:
        estimate = 0.0
    else:
        estimate = float(total_time * np.var(averages, ddof=1))
    stderr = estimate * np.sqrt(2.0 / (len(averages) - 1))
    return estimate, float(stderr), center, _normality_diagnostics(averages)
