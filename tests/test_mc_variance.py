"""Batch-means and replicated-CLT estimators of the asymptotic variance.

The quantitative targets come from the exact Gaussian benchmark: for the
standard 2D Gaussian with rotation drift kQ and f = x1 the variance is
2 / (1 + k^2) (see docs/ou_variance_derivation.md), so sigma2 = 2 at k = 0
and 1 at k = 1.  Stochastic tolerances are noted test by test; every run
is pinned to a fixed seed bank.
"""

import numpy as np
import pytest

from irrlangevin.mc_variance import (
    BIAS_Z,
    EstimatorMethod,
    _clt_reduce,
    batch_means,
    overlapping_batch_means,
    replicated_clt,
)
from irrlangevin.model import (
    gaussian_potential,
    make_qgradu_drift,
    zero_drift,
)
from irrlangevin.sde_sim import (
    SimConfig,
    Trajectory,
    simulate,
)

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


def coord1(x):
    return np.asarray(x)[..., 0]


def make_traj(values, dt=1.0):
    """Wrap a 1-d value sequence as a trajectory whose x1 is that sequence."""
    values = np.asarray(values, dtype=float)
    states = np.concatenate([values, [values[-1]]])[:, None]
    times = dt * np.arange(len(states))

    # running mean field is irrelevant for the estimators; fill consistently
    running = np.concatenate([[values[0]],
                              np.cumsum(values) / np.arange(1, len(values) + 1)])
    return Trajectory(times=times + 1e-9, states=states,
                      observable_running_mean=running, step_size=dt, thin=1,
                      seed=0, total_time=dt * len(values))


def test_constant_observable_is_exactly_zero():
    traj = make_traj(np.full(400, 3.7))
    est = batch_means(traj, coord1, batch_length=10.0)
    assert est.point_estimate == 0.0
    assert est.stderr == 0.0
    obm = overlapping_batch_means(traj, coord1, batch_length=10.0)
    assert obm.point_estimate == 0.0


def test_two_batch_formula():
    # 20 batches of length B with means m1, m2, m1, ...: by definition the
    # estimate is B times their sample variance, B 20 ((m1 - m2) / 2)^2 / 19
    values = np.tile(np.repeat([1.0, 4.0], 10), 10)
    traj = make_traj(values, dt=1.0)
    est = batch_means(traj, coord1, batch_length=10.0)
    assert est.point_estimate == pytest.approx(
        10.0 * 20 * ((1.0 - 4.0) / 2.0) ** 2 / 19.0, rel=1e-14)
    assert est.method is EstimatorMethod.BATCH_MEANS
    assert est.batch_length == 10.0
    assert est.diagnostics["n_batches"] == 20


def test_batch_means_shift_invariance():
    rng = np.random.default_rng(8)
    traj = make_traj(rng.standard_normal(5000), dt=0.5)
    est = batch_means(traj, coord1, batch_length=25.0)
    shifted = batch_means(traj, lambda x: coord1(x) + 5.0, batch_length=25.0)
    assert shifted.point_estimate == pytest.approx(est.point_estimate,
                                                   rel=1e-12)
    assert shifted.center == pytest.approx(est.center + 5.0, rel=1e-12)


def test_batch_means_minimum_horizon_error():
    traj = make_traj(np.arange(100.0))
    with pytest.raises(ValueError, match="at least 20 batches"):
        batch_means(traj, coord1, batch_length=50.0)
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            batch_means(traj, coord1, batch_length=bad)


def test_batch_means_rejects_thinned_trajectory():
    u = gaussian_potential(2)
    cfg = SimConfig(step_size=0.1, n_steps=100, initial_point=[0.0, 0.0],
                    seed=1, thin=4)
    traj = simulate(u, zero_drift(2), coord1, cfg)
    with pytest.raises(ValueError, match="unthinned"):
        batch_means(traj, coord1)


def test_batch_means_iid_limit():
    # dt = 1 and iid values: sigma2 equals the marginal variance (here 1)
    rng = np.random.default_rng(3)
    traj = make_traj(rng.standard_normal(200_000))
    est = batch_means(traj, coord1, batch_length=20.0)
    assert est.point_estimate == pytest.approx(1.0, rel=0.08)  # ~3 stderr


def test_batch_means_gaussian_benchmark():
    # spec-scale run: T = 1e4, dt = 0.005, B = 50 -> within 20% of 2
    u = gaussian_potential(2)
    cfg = SimConfig(step_size=0.005, n_steps=2_000_000,
                    initial_point=[0.0, 0.0], burn_in_steps=10_000, seed=314)
    traj = simulate(u, zero_drift(2), coord1, cfg)
    est = batch_means(traj, coord1, batch_length=50.0)
    assert est.point_estimate == pytest.approx(2.0, rel=0.20)  # stochastic
    assert est.total_time <= 1e4


def test_overlapping_agrees_with_plain_on_benchmark():
    rng = np.random.default_rng(12)
    traj = make_traj(rng.standard_normal(100_000))
    bm = batch_means(traj, coord1, batch_length=20.0)
    obm = overlapping_batch_means(traj, coord1, batch_length=20.0)
    combined = 2.0 * np.hypot(bm.stderr, obm.stderr)
    assert abs(bm.point_estimate - obm.point_estimate) < combined


def test_replicated_zero_observable_degenerate():
    u = gaussian_potential(2)
    cfg = SimConfig(step_size=0.05, n_steps=400, initial_point=[0.0, 0.0],
                    seed=10)
    est = replicated_clt(u, zero_drift(2),
                         lambda x: np.zeros(x.shape[:-1]), cfg, n_chains=8)
    assert est.point_estimate == 0.0
    assert est.diagnostics["degenerate"] is True


def test_replicated_refuses_one_chain():
    # one chain has no across-chain variance to report
    cfg = SimConfig(step_size=0.05, n_steps=100, initial_point=[0.0, 0.0],
                    seed=10)
    with pytest.raises(ValueError, match="n_chains"):
        replicated_clt(gaussian_potential(2), zero_drift(2), coord1, cfg,
                       n_chains=1)


def test_replicated_two_chain_formula():
    u = gaussian_potential(2)
    c = make_qgradu_drift(ROT, u)
    cfg = SimConfig(step_size=0.05, n_steps=1000, initial_point=[0.1, 0.0],
                    burn_in_steps=100, seed=55)
    est = replicated_clt(u, c, coord1, cfg, n_chains=2)
    a = [simulate(u, c, coord1,
                  SimConfig(step_size=0.05, n_steps=1000,
                            initial_point=[0.1, 0.0], burn_in_steps=100,
                            seed=55 + i)
                  ).observable_running_mean[-1] for i in range(2)]
    T = 0.05 * 900
    assert est.point_estimate == pytest.approx(T * (a[0] - a[1]) ** 2 / 2.0,
                                               rel=1e-10)
    assert est.n_chains == 2
    assert est.diagnostics["normality_meaningful"] is False


def test_replicated_gaussian_benchmark_k1():
    # 100 chains, T = 1e3: within 25% of 2/(1+1) = 1 (stochastic, seeded)
    u = gaussian_potential(2)
    c = make_qgradu_drift(ROT, u)
    cfg = SimConfig(step_size=0.005, n_steps=202_000,
                    initial_point=[0.0, 0.0], burn_in_steps=2_000, seed=901)
    est = replicated_clt(u, c, coord1, cfg, n_chains=100)
    assert est.point_estimate == pytest.approx(1.0, rel=0.25)
    assert est.diagnostics["normality_meaningful"] is True
    assert abs(est.diagnostics["skewness_z"]) < 4.0


def test_methods_agree_on_seed_bank():
    # >= 9 of 10 paired runs agree within 2 x combined stderr (stochastic)
    u = gaussian_potential(2)
    c = make_qgradu_drift(ROT, u)
    agree = 0
    for rep in range(10):
        cfg_bm = SimConfig(step_size=0.01, n_steps=160_000,
                           initial_point=[0.0, 0.0], burn_in_steps=2_000,
                           seed=7000 + 37 * rep)
        traj = simulate(u, c, coord1, cfg_bm)
        bm = batch_means(traj, coord1)
        cfg_clt = SimConfig(step_size=0.01, n_steps=16_000,
                            initial_point=[0.0, 0.0], burn_in_steps=1_000,
                            seed=8000 + 37 * rep)
        clt = replicated_clt(u, c, coord1, cfg_clt, n_chains=40)
        combined = 2.0 * np.hypot(bm.stderr, clt.stderr)
        if abs(bm.point_estimate - clt.point_estimate) <= combined:
            agree += 1
    assert agree >= 9


def test_variance_decreases_with_drift_scale():
    # k = 0, 1, 2 -> targets 2, 1, 0.4; ordering beyond combined stderr
    u = gaussian_potential(2)
    results = []
    for i, k in enumerate([0.0, 1.0, 2.0]):
        cfg = SimConfig(step_size=0.01, n_steps=32_000,
                        initial_point=[0.0, 0.0], burn_in_steps=2_000,
                        seed=6100 + i)
        results.append(replicated_clt(u, make_qgradu_drift(k * ROT, u),
                                      coord1, cfg, n_chains=64))
    for lo, hi in [(1, 0), (2, 1)]:
        gap = results[hi].point_estimate - results[lo].point_estimate
        assert gap > np.hypot(results[hi].stderr, results[lo].stderr)


def test_reducer_permutation_invariance():
    rng = np.random.default_rng(0)
    averages = rng.standard_normal(64)
    est, se, center, _ = _clt_reduce(averages, total_time=100.0)
    for perm_seed in range(3):
        shuffled = np.random.default_rng(perm_seed).permutation(averages)
        est2, se2, center2, _ = _clt_reduce(shuffled, total_time=100.0)
        assert est2 == pytest.approx(est, rel=1e-12)
        assert center2 == pytest.approx(center, rel=1e-12)


def test_bias_flag_fires_on_coarse_step():
    # f = x1^2 at dt = 0.8: halving the step moves the true value by ~45%,
    # far beyond the ~9% standard error at 256 chains
    u = gaussian_potential(2)

    def xsq(x):
        return np.asarray(x)[..., 0] ** 2

    cfg = SimConfig(step_size=0.8, n_steps=1_200, initial_point=[0.0, 0.0],
                    burn_in_steps=200, seed=41)
    est = replicated_clt(u, zero_drift(2), xsq, cfg, n_chains=256,
                         check_bias=True)
    assert est.bias_flagged is True
    assert "estimate_half_dt" in est.diagnostics


def test_bias_flag_matches_its_definition():
    # flag is exactly (|estimate at dt/2 - estimate| > BIAS_Z * the stderr
    # of the difference of the two runs)
    u = gaussian_potential(2)
    cfg = SimConfig(step_size=0.05, n_steps=8_000, initial_point=[0.0, 0.0],
                    burn_in_steps=500, seed=42)
    est = replicated_clt(u, zero_drift(2), coord1, cfg, n_chains=48,
                         check_bias=True)
    moved = abs(est.diagnostics["estimate_half_dt"] - est.point_estimate)
    combined = np.hypot(est.stderr, est.diagnostics["stderr_half_dt"])
    assert est.bias_flagged == (moved > BIAS_Z * combined)
    unchecked = replicated_clt(u, zero_drift(2), coord1, cfg, n_chains=8)
    assert unchecked.bias_flagged is None


# fixed before the first run; chains are seeded seed, seed + 1, ..., so the
# seeds lie 1,000 apart, beyond the 64 chains of a run, and no two runs
# share a chain
BIAS_NULL_SEEDS = tuple(20_000 + 1_000 * i for i in range(40))


def test_bias_flag_rarely_fires_without_bias():
    # f = x1 under the rotation drift: the Euler-Maruyama chain's variance is
    # 2 / (1 + k^2) at every dt, so halving the step moves nothing but noise.
    # At BIAS_Z = 3 an unbiased run flags with probability about 0.27 %, so
    # two flags in 40 runs would be a 0.5 % event; a rule of one stderr of
    # the first run flags 14 of these 40
    u = gaussian_potential(2)
    c = make_qgradu_drift(ROT, u)
    flags = 0
    for seed in BIAS_NULL_SEEDS:
        cfg = SimConfig(step_size=0.05, n_steps=4_000, initial_point=[0.0, 0.0],
                        burn_in_steps=200, seed=seed)
        est = replicated_clt(u, c, coord1, cfg, n_chains=64, check_bias=True)
        flags += est.bias_flagged
    assert flags <= 1
