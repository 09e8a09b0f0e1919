"""Euler-Maruyama stepping, trajectories, and the RNG contract."""

import tracemalloc

import numpy as np
import pytest
from numpy.random import Generator, Philox

from irrlangevin import sde_sim
from irrlangevin.errors import DivergenceError
from irrlangevin.model import (
    gaussian_potential,
    make_qgradu_drift,
    torus_cosine,
    zero_drift,
)
from irrlangevin.sde_sim import (
    SimConfig,
    chain_time_averages,
    simulate,
    step_em,
    trajectory_to_csv,
)

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


def coord1(x):
    return np.asarray(x)[..., 0]


def test_step_em_fixed_point():
    u = gaussian_potential(2)
    x = np.zeros(2)  # grad U(0) = 0
    out = step_em(x, u, zero_drift(2), k=0.0, dt=0.1, noise=np.zeros(2))
    np.testing.assert_array_equal(out, x)


def test_step_em_deterministic_euler_1d():
    u = gaussian_potential(1)
    out = step_em(np.array([1.0]), u, zero_drift(1), k=0.0, dt=0.1,
                  noise=np.zeros(1))
    assert out[0] == pytest.approx(0.9, abs=1e-15)


def test_step_em_with_skew_drift():
    # drift at (1,0) is -x + Qx = (-1, -1), so one step of 0.1 lands (0.9, -0.1)
    u = gaussian_potential(2)
    c = make_qgradu_drift(ROT, u)
    out = step_em(np.array([1.0, 0.0]), u, c, k=1.0, dt=0.1, noise=np.zeros(2))
    np.testing.assert_allclose(out, [0.9, -0.1], atol=1e-15)


def test_step_em_wraps_torus_coordinates():
    u = torus_cosine(2, 0.0)
    out = step_em(np.array([6.2, 0.05]), u, zero_drift(2), k=0.0, dt=0.25,
                  noise=np.array([1.0, -1.0]))
    assert np.all((out >= 0.0) & (out < 2 * np.pi))


def test_step_em_rejects_nonpositive_dt():
    u = gaussian_potential(1)
    with pytest.raises(ValueError):
        step_em(np.zeros(1), u, zero_drift(1), k=0.0, dt=0.0, noise=np.zeros(1))


def test_step_em_raises_on_overflow():
    u = gaussian_potential(1)
    with pytest.raises(DivergenceError):
        step_em(np.array([1e308]), u, zero_drift(1), k=0.0, dt=1e10,
                noise=np.zeros(1))


def test_simconfig_validation():
    with pytest.raises(ValueError):
        SimConfig(step_size=0.0, n_steps=10, initial_point=[0.0])
    with pytest.raises(ValueError):
        SimConfig(step_size=0.1, n_steps=10, initial_point=[0.0],
                  burn_in_steps=10)
    with pytest.raises(ValueError):
        SimConfig(step_size=0.1, n_steps=10, initial_point=[0.0], thin=0)


def test_zero_observable_gives_zero_running_mean():
    u = gaussian_potential(2)
    cfg = SimConfig(step_size=0.05, n_steps=200, initial_point=[1.0, 0.0],
                    seed=7)
    traj = simulate(u, zero_drift(2), lambda x: np.zeros(x.shape[:-1]), cfg)
    assert np.all(traj.observable_running_mean == 0.0)


def test_single_step_matches_step_em():
    u = gaussian_potential(2)
    c = make_qgradu_drift(ROT, u)
    cfg = SimConfig(step_size=0.05, n_steps=1, initial_point=[0.4, -0.2],
                    seed=11, perturbation_scale=1.0)
    traj = simulate(u, c, coord1, cfg)
    # the documented stream: Philox keyed by the seed, standard normals
    noise = Generator(Philox(key=11)).standard_normal((1, 2))
    expected = step_em(np.array([0.4, -0.2]), u, c, k=1.0, dt=0.05,
                       noise=noise[0])
    assert traj.states.shape == (2, 2)
    np.testing.assert_array_equal(traj.states[0], [0.4, -0.2])
    np.testing.assert_allclose(traj.states[1], expected, rtol=1e-15)


def test_simulate_is_deterministic():
    u = gaussian_potential(2)
    c = make_qgradu_drift(ROT, u)
    cfg = SimConfig(step_size=0.02, n_steps=500, initial_point=[0.0, 0.0],
                    burn_in_steps=50, seed=123, perturbation_scale=2.0)
    t1 = simulate(u, c, coord1, cfg)
    t2 = simulate(u, c, coord1, cfg)
    np.testing.assert_array_equal(t1.states, t2.states)
    np.testing.assert_array_equal(t1.times, t2.times)
    np.testing.assert_array_equal(t1.observable_running_mean,
                                  t2.observable_running_mean)


def test_zero_drift_scale_equivariance():
    u = gaussian_potential(2)
    cfg0 = SimConfig(step_size=0.02, n_steps=300, initial_point=[1.0, 1.0],
                     seed=5, perturbation_scale=0.0)
    cfg3 = SimConfig(step_size=0.02, n_steps=300, initial_point=[1.0, 1.0],
                     seed=5, perturbation_scale=3.0)
    t0 = simulate(u, zero_drift(2), coord1, cfg0)
    t3 = simulate(u, zero_drift(2), coord1, cfg3)
    np.testing.assert_array_equal(t0.states, t3.states)


def test_torus_states_stay_wrapped():
    u = torus_cosine(2, 1.0)
    c = make_qgradu_drift(ROT, u)
    cfg = SimConfig(step_size=0.05, n_steps=2000, initial_point=[0.1, 6.0],
                    seed=21)
    traj = simulate(u, c, coord1, cfg)
    assert np.all((traj.states >= 0.0) & (traj.states < 2 * np.pi))


def test_trajectory_bookkeeping():
    u = gaussian_potential(2)
    cfg = SimConfig(step_size=0.1, n_steps=40, initial_point=[0.5, 0.0],
                    burn_in_steps=10, seed=2)
    traj = simulate(u, zero_drift(2), coord1, cfg)
    assert len(traj.times) == len(traj.states) == 31  # steps 10..40 inclusive
    assert np.all(np.diff(traj.times) > 0)
    np.testing.assert_allclose(traj.times[0], 1.0)
    np.testing.assert_allclose(traj.total_time, 3.0)
    # running mean is the cumulative average over left endpoints
    values = coord1(traj.states[:-1])
    expected = np.concatenate([[values[0]],
                               np.cumsum(values) / np.arange(1, len(values) + 1)])
    np.testing.assert_allclose(traj.observable_running_mean, expected,
                               rtol=1e-12)


def test_thinning_subsamples_states():
    u = gaussian_potential(2)
    base = SimConfig(step_size=0.1, n_steps=60, initial_point=[0.5, 0.0],
                     burn_in_steps=10, seed=2)
    thin = SimConfig(step_size=0.1, n_steps=60, initial_point=[0.5, 0.0],
                     burn_in_steps=10, seed=2, thin=5)
    full = simulate(u, zero_drift(2), coord1, base)
    sub = simulate(u, zero_drift(2), coord1, thin)
    np.testing.assert_array_equal(sub.states, full.states[::5])
    np.testing.assert_array_equal(sub.times, full.times[::5])
    np.testing.assert_array_equal(sub.observable_running_mean,
                                  full.observable_running_mean[::5])


def test_block_boundary_continuity():
    # a horizon crossing the noise-block size must behave like any other;
    # 32 coordinates keep the default block short enough to cross quickly
    dim = 32
    block = sde_sim._block_steps(1, dim)
    n = block + 17
    u = gaussian_potential(dim)
    cfg = SimConfig(step_size=0.01, n_steps=n, initial_point=np.zeros(dim),
                    seed=3)
    traj = simulate(u, zero_drift(dim), coord1, cfg)
    assert len(traj.states) == n + 1
    assert np.all(np.isfinite(traj.states))
    # the increments, on both sides of the boundary, are the stream's draws
    # in step order (grad U(x) = x here)
    x = traj.states
    implied = (x[1:] - x[:-1] + 0.01 * x[:-1]) / np.sqrt(0.02)
    noise = Generator(Philox(key=3)).standard_normal((n, dim))
    np.testing.assert_allclose(implied, noise, atol=1e-9)


def _with_block_steps(monkeypatch, steps, n_chains, dim, run):
    """``run()`` at the default budget, then at ``steps`` steps per block."""
    default = run()
    monkeypatch.setattr(sde_sim, "NOISE_BLOCK_BYTES",
                        steps * 8 * (n_chains + 1) * dim)
    assert sde_sim._block_steps(n_chains, dim) == steps
    return default, run()


def test_block_size_never_changes_chain_averages(monkeypatch):
    u = gaussian_potential(2)
    c = make_qgradu_drift(ROT, u)
    cfg = SimConfig(step_size=0.05, n_steps=400, initial_point=[0.2, 0.1],
                    burn_in_steps=30, seed=60)
    default, small = _with_block_steps(
        monkeypatch, 7, 300, 2,
        lambda: chain_time_averages(u, c, coord1, cfg, n_chains=300)[0])
    np.testing.assert_array_equal(small, default)


def test_block_size_never_changes_a_trajectory(monkeypatch):
    u = torus_cosine(2, 1.0)
    c = make_qgradu_drift(ROT, u)
    cfg = SimConfig(step_size=0.05, n_steps=503, initial_point=[0.1, 6.0],
                    burn_in_steps=11, seed=21, thin=5)
    default, small = _with_block_steps(monkeypatch, 7, 1, 2,
                                       lambda: simulate(u, c, coord1, cfg))
    np.testing.assert_array_equal(small.states, default.states)
    np.testing.assert_array_equal(small.times, default.times)
    np.testing.assert_array_equal(small.observable_running_mean,
                                  default.observable_running_mean)


def test_block_size_never_changes_a_divergence(monkeypatch):
    u = gaussian_potential(2, cov=1e-4)
    cfg = SimConfig(step_size=0.1, n_steps=500, initial_point=[1.0, 1.0],
                    seed=44)

    def diverge():
        with pytest.raises(DivergenceError) as err:
            chain_time_averages(u, zero_drift(2), coord1, cfg, n_chains=5)
        return err.value

    default, small = _with_block_steps(monkeypatch, 7, 5, 2, diverge)
    assert small.step_index == default.step_index
    assert small.seed == default.seed
    np.testing.assert_array_equal(small.state, default.state)


def _traced_peak_mb(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_many_chain_memory_does_not_grow_with_horizon():
    # the noise of 512 chains x 6000 steps alone would be 49 MB
    u = gaussian_potential(2)
    c = make_qgradu_drift(ROT, u)
    cfg = SimConfig(step_size=0.01, n_steps=6_000, initial_point=[0.0, 0.0],
                    burn_in_steps=100, seed=5)
    peak = _traced_peak_mb(
        lambda: chain_time_averages(u, c, coord1, cfg, n_chains=512))
    assert peak <= 16.0


def test_stored_path_memory_is_preallocated():
    # 43,001 recorded states take 8 * (2 + 2) bytes each: 1.4 MB
    u = gaussian_potential(2)
    cfg = SimConfig(step_size=0.01, n_steps=43_000, initial_point=[0.0, 0.0],
                    seed=5)
    peak = _traced_peak_mb(lambda: simulate(u, zero_drift(2), coord1, cfg))
    assert peak <= 5.0


def test_long_run_mean_near_zero():
    # time average of x1 over T = 1e4; 3 sigma band from sigma2 = 2
    u = gaussian_potential(2)
    c = make_qgradu_drift(ROT, u)
    cfg = SimConfig(step_size=0.01, n_steps=1_000_000,
                    initial_point=[0.0, 0.0], seed=912)
    traj = simulate(u, c, coord1, cfg)
    band = 3.0 * np.sqrt(2.0 / 1e4)
    assert abs(traj.observable_running_mean[-1]) < band  # stochastic, seeded


def test_stationary_second_moments():
    # long thinned trajectory: empirical covariance within 5% (stochastic)
    u = gaussian_potential(2)
    cfg = SimConfig(step_size=0.02, n_steps=400_000,
                    initial_point=[0.0, 0.0], burn_in_steps=5_000, seed=77,
                    thin=10)
    traj = simulate(u, zero_drift(2), coord1, cfg)
    cov = traj.states.T @ traj.states / len(traj.states)
    np.testing.assert_allclose(np.diag(cov), [1.0, 1.0], rtol=0.05)
    assert abs(cov[0, 1]) < 0.05


def test_divergence_error_carries_step_and_seed():
    # inv cov 1e4 with dt 0.1 multiplies the state by -999 each step
    u = gaussian_potential(2, cov=1e-4)
    cfg = SimConfig(step_size=0.1, n_steps=500, initial_point=[1.0, 1.0],
                    seed=44)
    with pytest.raises(DivergenceError) as err:
        simulate(u, zero_drift(2), coord1, cfg)
    assert err.value.seed == 44
    assert 0 < err.value.step_index < 500
    assert np.all(np.isfinite(err.value.state))


def test_chain_time_averages_match_single_runs():
    u = gaussian_potential(2)
    c = make_qgradu_drift(ROT, u)
    cfg = SimConfig(step_size=0.05, n_steps=2_000, initial_point=[0.2, 0.1],
                    burn_in_steps=100, seed=60, perturbation_scale=1.0)
    averages, total = chain_time_averages(u, c, coord1, cfg, n_chains=3)
    assert total == pytest.approx(95.0)
    for i in range(3):
        solo_cfg = SimConfig(step_size=0.05, n_steps=2_000,
                             initial_point=[0.2, 0.1], burn_in_steps=100,
                             seed=60 + i, perturbation_scale=1.0)
        solo = simulate(u, c, coord1, solo_cfg)
        np.testing.assert_allclose(averages[i],
                                   solo.observable_running_mean[-1],
                                   rtol=1e-12)


def test_trajectory_csv_export(tmp_path):
    u = gaussian_potential(2)
    cfg = SimConfig(step_size=0.1, n_steps=20, initial_point=[0.3, -0.3],
                    seed=9)
    traj = simulate(u, zero_drift(2), coord1, cfg)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    text = path.read_text().splitlines()
    assert text[0] == "t,x1,x2,running_mean"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (21, 4)
    np.testing.assert_allclose(data[:, 0], traj.times)
    np.testing.assert_allclose(data[:, 1:3], traj.states)
