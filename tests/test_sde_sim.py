"""Euler-Maruyama stepping, trajectories, and the RNG contract."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import Generator, Philox

from irrlangevin import sde_sim
from irrlangevin.errors import DivergenceError
from irrlangevin.mc_variance import (
    batch_means,
    overlapping_batch_means,
    replicated_clt,
)
from irrlangevin.model import (
    DriftField,
    DriftKind,
    double_well_2d,
    gaussian_potential,
    make_qgradu_drift,
    torus_cosine,
    zero_drift,
)
from irrlangevin.observables import parse_observable
from irrlangevin.sde_sim import (
    SimConfig,
    chain_time_averages,
    simulate,
    trajectory_to_csv,
)

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


def coord1(x):
    return np.asarray(x)[..., 0]


def em_step(x, u, c, dt, noise):
    """One step of the simulator's Euler-Maruyama map, on ``noise`` scaled
    into a new increment."""
    return sde_sim._em_step(u, c, dt)(np.asarray(x, dtype=float),
                                      np.sqrt(2.0 * dt) * np.asarray(noise))


def test_step_em_fixed_point():
    u = gaussian_potential(2)
    x = np.zeros(2)  # grad U(0) = 0
    out = em_step(x, u, zero_drift(2), dt=0.1, noise=np.zeros(2))
    np.testing.assert_array_equal(out, x)


def test_step_em_deterministic_euler_1d():
    u = gaussian_potential(1)
    out = em_step(np.array([1.0]), u, zero_drift(1), dt=0.1, noise=np.zeros(1))
    assert out[0] == pytest.approx(0.9, abs=1e-15)


def test_step_em_with_skew_drift():
    # drift at (1,0) is -x + Qx = (-1, -1), so one step of 0.1 lands (0.9, -0.1)
    u = gaussian_potential(2)
    c = make_qgradu_drift(ROT, u)
    out = em_step(np.array([1.0, 0.0]), u, c, dt=0.1, noise=np.zeros(2))
    np.testing.assert_allclose(out, [0.9, -0.1], atol=1e-15)


def test_step_em_wraps_torus_coordinates():
    u = torus_cosine(2, 0.0)
    out = em_step(np.array([6.2, 0.05]), u, zero_drift(2), dt=0.25,
                  noise=np.array([1.0, -1.0]))
    assert np.all((out >= 0.0) & (out < 2 * np.pi))


def test_simconfig_validation():
    with pytest.raises(ValueError):
        SimConfig(step_size=0.0, n_steps=10, initial_point=[0.0])
    with pytest.raises(ValueError):
        SimConfig(step_size=0.1, n_steps=10, initial_point=[0.0],
                  burn_in_steps=10)
    with pytest.raises(ValueError):
        SimConfig(step_size=0.1, n_steps=10, initial_point=[0.0], thin=0)
    # a non-integer count or seed is refused up front, by name, not by a
    # TypeError from inside the run or Philox's message on its key
    for field, bad in (("n_steps", 100.0), ("thin", 2.5),
                       ("burn_in_steps", 1.5), ("seed", 3.0), ("seed", "3")):
        kwargs = {"n_steps": 10, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SimConfig(step_size=0.1, initial_point=[0.0], **kwargs)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        SimConfig(step_size=0.1, n_steps=10, initial_point=[0.0], seed=-1)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="step_size must be positive and finite"):
            SimConfig(step_size=bad, n_steps=10, initial_point=[0.0])
        with pytest.raises(ValueError, match="initial_point must be finite"):
            SimConfig(step_size=0.1, n_steps=10, initial_point=[bad, 0.0])


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
                    seed=11)
    traj = simulate(u, c, coord1, cfg)
    # the documented stream: Philox keyed by the seed, standard normals
    noise = Generator(Philox(key=11)).standard_normal((1, 2))
    expected = em_step(np.array([0.4, -0.2]), u, c, dt=0.05, noise=noise[0])
    assert traj.states.shape == (2, 2)
    np.testing.assert_array_equal(traj.states[0], [0.4, -0.2])
    np.testing.assert_allclose(traj.states[1], expected, rtol=1e-15)


def test_simulate_is_deterministic():
    u = gaussian_potential(2)
    c = make_qgradu_drift(2.0 * ROT, u)
    cfg = SimConfig(step_size=0.02, n_steps=500, initial_point=[0.0, 0.0],
                    burn_in_steps=50, seed=123)
    t1 = simulate(u, c, coord1, cfg)
    t2 = simulate(u, c, coord1, cfg)
    np.testing.assert_array_equal(t1.states, t2.states)
    np.testing.assert_array_equal(t1.times, t2.times)
    np.testing.assert_array_equal(t1.observable_running_mean,
                                  t2.observable_running_mean)


@pytest.mark.parametrize("u", [torus_cosine(2, 1.0), gaussian_potential(2)],
                         ids=["torus-loop", "gaussian-affine"])
def test_zero_scaled_rotation_is_the_zero_drift(u):
    # k = 0 is Q = 0: a zero-scaled rotation runs the reversible chain's bits
    cfg = SimConfig(step_size=0.02, n_steps=300, initial_point=[1.0, 1.0],
                    seed=5)
    scaled = simulate(u, make_qgradu_drift(0 * ROT, u), coord1, cfg)
    zero = simulate(u, zero_drift(2), coord1, cfg)
    np.testing.assert_array_equal(scaled.states, zero.states)
    np.testing.assert_array_equal(scaled.observable_running_mean,
                                  zero.observable_running_mean)


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


@pytest.mark.parametrize("case", ["gaussian affine", "torus loop"])
def test_thinning_coarser_than_a_block(monkeypatch, case):
    # thin = 5000 exceeds a lone chain's 4096-step block, so the block over
    # steps 20480-24575 holds no recorded row (rows at 20000 and 25000)
    if case == "gaussian affine":
        u, x0 = gaussian_potential(2), [0.5, 0.0]
    else:
        u, x0 = torus_cosine(2, 1.0), [0.1, 6.0]
    c = make_qgradu_drift(ROT, u)
    cfg = SimConfig(step_size=0.01, n_steps=30000, initial_point=x0, seed=8)
    taken = _spy_affine(monkeypatch)
    full = simulate(u, c, coord1, cfg)
    sub = simulate(u, c, coord1, replace(cfg, thin=5000))
    assert len(taken) == (2 if case == "gaussian affine" else 0)
    assert len(sub.states) == 7
    np.testing.assert_array_equal(sub.states, full.states[::5000])
    np.testing.assert_array_equal(sub.times, full.times[::5000])
    np.testing.assert_array_equal(sub.observable_running_mean,
                                  full.observable_running_mean[::5000])


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
                        steps * 8 * ((n_chains + 1) * dim + n_chains))
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


def test_block_size_never_changes_torus_chain_averages(monkeypatch):
    # the torus always runs on the loop, so this exercises its noise blocks
    u = torus_cosine(2, 1.0)
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


PATH_STEPS = 43_000


def _simulate_gaussian_path():
    cfg = SimConfig(step_size=0.01, n_steps=PATH_STEPS,
                    initial_point=[0.0, 0.0], seed=5)
    return simulate(gaussian_potential(2), zero_drift(2), coord1, cfg)


def test_stored_path_memory_is_preallocated():
    # 43,001 recorded states take 8 * (2 + 2) bytes each: 1.4 MB; a block or
    # chunk of the run may add 0.5 MB, not a horizon's worth of noise
    peak = _traced_peak_mb(_simulate_gaussian_path)
    assert peak <= 8 * (2 + 2) * (PATH_STEPS + 1) / 1e6 + 0.5


def test_overlapping_batch_means_holds_two_horizon_buffers():
    # the cumulative sums and the window means, 8 bytes a step each; coord1's
    # values are a view of the path
    traj = _simulate_gaussian_path()
    peak = _traced_peak_mb(lambda: overlapping_batch_means(traj, coord1))
    assert peak <= 2 * 8 * (PATH_STEPS + 1) / 1e6


def test_batch_means_of_a_parsed_coordinate_holds_one_horizon_array():
    # x1's values, 8 bytes a step (0.344 MB), built in one array; a product
    # started from np.ones held two (0.689 MB traced)
    traj = _simulate_gaussian_path()
    fn = parse_observable("x1", 2).fn
    assert _traced_peak_mb(lambda: batch_means(traj, fn)) <= 0.36


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
                    burn_in_steps=100, seed=60)
    averages, total = chain_time_averages(u, c, coord1, cfg, n_chains=3)
    assert total == pytest.approx(95.0)
    for i in range(3):
        solo_cfg = SimConfig(step_size=0.05, n_steps=2_000,
                             initial_point=[0.2, 0.1], burn_in_steps=100,
                             seed=60 + i)
        solo = simulate(u, c, coord1, solo_cfg)
        np.testing.assert_allclose(averages[i],
                                   solo.observable_running_mean[-1],
                                   rtol=1e-12)


def _single(u, c, f, cfg):
    return simulate(u, c, f, cfg)


def _many(u, c, f, cfg):
    return chain_time_averages(u, c, f, cfg, n_chains=16)


def _replicated(u, c, f, cfg):
    return replicated_clt(u, c, f, cfg, n_chains=16)


@pytest.mark.parametrize("entry", [_single, _many, _replicated],
                         ids=["simulate", "chain_time_averages",
                              "replicated_clt"])
@pytest.mark.parametrize("initial, drift_dim, match", [
    ([1.0], 2, r"initial_point has shape \(1,\), expected \(2,\)"),
    ([[1.0, 1.0]], 2, r"initial_point has shape \(1, 2\), expected \(2,\)"),
    ([1.0, 1.0], 3, "drift dim 3 != potential dim 2"),
], ids=["short-start", "stacked-start", "drift-dim"])
def test_every_entry_point_checks_dimensions(entry, initial, drift_dim, match):
    # on a 2-d torus a 1-d start would broadcast 1-d noise onto both axes
    u = torus_cosine(2, 1.0)
    c = make_qgradu_drift(ROT, u) if drift_dim == 2 else zero_drift(drift_dim)
    cfg = SimConfig(step_size=0.01, n_steps=50, initial_point=initial, seed=3)
    with pytest.raises(ValueError, match=match):
        entry(u, c, lambda x: x[..., 0] - x[..., 1], cfg)


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


# --- the affine path (constant Hessian, Q grad U drift) -----------------------


def _loop_and_affine(monkeypatch, run):
    """``run()`` on the affine path, then with the loop forced on."""
    affine = run()
    monkeypatch.setattr(sde_sim, "_affine_powers", lambda *args: None)
    return affine, run()


def _spy_affine(monkeypatch):
    """A list that gets one entry each time the driver runs the affine path."""
    taken = []
    run = sde_sim._drive

    def spy(*args, **kwargs):
        if args[5] is not None:
            taken.append(1)
        return run(*args, **kwargs)

    monkeypatch.setattr(sde_sim, "_drive", spy)
    return taken


def _rel_diff(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _random_antisymmetric(dim, seed):
    q = np.random.default_rng(seed).standard_normal((dim, dim))
    return q - q.T


CHUNK = sde_sim.AFFINE_CHUNK_STEPS


@pytest.mark.parametrize("u, q, k, thin", [
    (gaussian_potential(2), None, 0.0, 1),
    (gaussian_potential(2), ROT, 1.0, 1),
    (gaussian_potential(2), ROT, 2.0, 3),
    (gaussian_potential(2, cov=[[2.0, 0.6], [0.6, 0.5]]), ROT, 1.0, 1),
    (gaussian_potential(5, cov=np.linspace(0.5, 3.0, 5)),
     _random_antisymmetric(5, 8), 1.0, 4),
], ids=["zero-drift", "k1", "k2-thin3", "anisotropic-cov", "5d-random-q"])
def test_affine_path_matches_the_loop(monkeypatch, u, q, k, thin):
    # burn-in ends inside the second chunk; the horizon crosses two bounds
    c = zero_drift(u.dim) if q is None else make_qgradu_drift(k * q, u)
    assert sde_sim._affine_powers(u, c, 0.01) is not None
    x0 = np.linspace(1.0, -0.5, u.dim)
    cfg = SimConfig(step_size=0.01, n_steps=2 * CHUNK + 300,
                    initial_point=x0, burn_in_steps=CHUNK + 100, seed=31,
                    thin=thin)

    def energy(x):
        return np.sum(x * x, axis=-1)

    taken = _spy_affine(monkeypatch)
    affine, loop = _loop_and_affine(monkeypatch, lambda: (
        simulate(u, c, energy, cfg),
        chain_time_averages(u, c, energy, cfg, n_chains=3)[0]))
    assert len(taken) == 2
    np.testing.assert_array_equal(affine[0].times, loop[0].times)
    assert _rel_diff(affine[0].states, loop[0].states) <= 1e-12
    assert _rel_diff(affine[0].observable_running_mean,
                     loop[0].observable_running_mean) <= 1e-12
    assert _rel_diff(affine[1], loop[1]) <= 1e-12
    # one chain's average is the same whichever entry point ran it
    assert affine[1][0] == affine[0].observable_running_mean[-1]


def test_affine_chunk_boundary_keeps_the_stream_increments():
    # the increments, on both sides of a chunk boundary, are the stream's
    # draws in step order (grad U(x) = x here)
    n = CHUNK + 17
    u = gaussian_potential(2)
    cfg = SimConfig(step_size=0.01, n_steps=n, initial_point=[0.5, -0.5],
                    seed=3)
    traj = simulate(u, zero_drift(2), coord1, cfg)
    assert len(traj.states) == n + 1
    x = traj.states
    implied = (x[1:] - x[:-1] + 0.01 * x[:-1]) / np.sqrt(0.02)
    noise = Generator(Philox(key=3)).standard_normal((n, 2))
    np.testing.assert_allclose(implied, noise, atol=1e-9)


def test_unstable_affine_map_falls_back_to_the_loop(monkeypatch):
    # inv cov 1e4 with dt 0.1: A = -999 I has spectral radius above 1
    u = gaussian_potential(2, cov=1e-4)
    assert sde_sim._affine_powers(u, zero_drift(2), 0.1) is None
    cfg = SimConfig(step_size=0.1, n_steps=500, initial_point=[1.0, 1.0],
                    seed=44)

    def diverge():
        with pytest.raises(DivergenceError) as err:
            chain_time_averages(u, zero_drift(2), coord1, cfg, n_chains=5)
        return err.value

    default, loop = _loop_and_affine(monkeypatch, diverge)
    assert (default.step_index, default.seed) == (loop.step_index, loop.seed)
    np.testing.assert_array_equal(default.state, loop.state)


def test_affine_chunk_that_overflows_is_replayed_on_the_loop(monkeypatch):
    # A = [[0.99, -0.05], [5, 0]] is stable (spectral radius 0.5), but its
    # first step from (0, 1e308) overflows; the loop then locates it
    u = gaussian_potential(2, cov=[1.0, 0.01])
    c = make_qgradu_drift(5.0 * ROT, u)
    assert sde_sim._affine_powers(u, c, 0.01) is not None
    cfg = SimConfig(step_size=0.01, n_steps=50, initial_point=[0.0, 1e308],
                    seed=12)

    def diverge():
        with pytest.raises(DivergenceError) as err:
            chain_time_averages(u, c, coord1, cfg, n_chains=2)
        return err.value

    affine, loop = _loop_and_affine(monkeypatch, diverge)
    assert (affine.step_index, affine.seed) == (loop.step_index, loop.seed)
    np.testing.assert_array_equal(affine.state, loop.state)


class _PoisonedStream:
    """A seed's Philox normals, with an infinite one at a given step."""

    def __init__(self, key, bad_step, dim):
        self._rng = Generator(Philox(key=key))
        self._bad = bad_step * dim  # the poisoned normal, in draw order
        self._drawn = 0

    def standard_normal(self, size=None, out=None):
        draw = self._rng.standard_normal(size, out=out)
        at = self._bad - self._drawn
        if 0 <= at < draw.size:
            draw.flat[at] = np.inf
        self._drawn += draw.size
        return draw


def test_chains_that_diverge_apart_report_the_earliest_step(monkeypatch):
    # seed 70 overflows at step 900 and seed 71 at step 10: both paths name
    # seed 71 at step 10, the earliest step of any chain
    bad_step = {70: 900, 71: 10}
    monkeypatch.setattr(sde_sim, "Philox", lambda key: key)
    monkeypatch.setattr(sde_sim, "Generator",
                        lambda key: _PoisonedStream(key, bad_step[key], 2))
    u = gaussian_potential(2)
    c = make_qgradu_drift(ROT, u)
    cfg = SimConfig(step_size=0.01, n_steps=1000, initial_point=[0.5, -0.5],
                    seed=70)

    def diverge():
        with pytest.raises(DivergenceError) as err:
            chain_time_averages(u, c, coord1, cfg, n_chains=2)
        return err.value

    taken = _spy_affine(monkeypatch)
    affine, loop = _loop_and_affine(monkeypatch, diverge)
    assert len(taken) == 1
    assert (affine.step_index, affine.seed) == (loop.step_index, loop.seed)
    assert (loop.step_index, loop.seed) == (10, 71)
    np.testing.assert_array_equal(affine.state, loop.state)


@pytest.mark.parametrize("dim, n_chains, n_steps, affine", [
    (2, 4, 32, True),
    (2, 5, 32, False),
    (8, 1, 40, True),
    (9, 1, 40, False),
], ids=["8-steps-per-chain", "fewer-steps-per-chain", "dim-8", "dim-9"])
def test_affine_path_is_taken_only_where_it_pays(monkeypatch, dim, n_chains,
                                                 n_steps, affine):
    taken = _spy_affine(monkeypatch)
    u = gaussian_potential(dim)
    cfg = SimConfig(step_size=0.01, n_steps=n_steps,
                    initial_point=np.zeros(dim), seed=2)
    chain_time_averages(u, zero_drift(dim), coord1, cfg, n_chains=n_chains)
    assert bool(taken) == affine


def test_affine_chains_hold_no_chains_by_steps_noise(monkeypatch):
    # the loop's noise block for 1024 chains would take 4 MiB
    taken = _spy_affine(monkeypatch)
    u = gaussian_potential(2)
    c = make_qgradu_drift(ROT, u)
    cfg = SimConfig(step_size=0.01, n_steps=2 * CHUNK + 100,
                    initial_point=[0.0, 0.0], burn_in_steps=100, seed=5)
    peak = _traced_peak_mb(
        lambda: chain_time_averages(u, c, coord1, cfg, n_chains=1024))
    assert taken
    assert peak < 1.0


def test_loop_many_chain_memory_does_not_grow_with_horizon(monkeypatch):
    # the twins of the two memory tests above on the loop, which those
    # Gaussian chains no longer take but torus and double-well chains do
    monkeypatch.setattr(sde_sim, "_affine_powers", lambda *args: None)
    test_many_chain_memory_does_not_grow_with_horizon()


def test_loop_stored_path_memory_is_preallocated(monkeypatch):
    monkeypatch.setattr(sde_sim, "_affine_powers", lambda *args: None)
    test_stored_path_memory_is_preallocated()


def test_loop_evaluates_grad_once_per_step():
    # the Q grad U drift reuses the step's gradient instead of its own
    calls = []
    torus = torus_cosine(2, 1.0)

    def grad(x):
        calls.append(1)
        return torus.grad(x)

    u = replace(torus, grad=grad)
    cfg = SimConfig(step_size=0.05, n_steps=200, initial_point=[0.1, 6.0],
                    seed=21)
    chain_time_averages(u, make_qgradu_drift(2.0 * ROT, u), coord1, cfg,
                        n_chains=4)
    assert len(calls) == 200


# --- the loop's blocks against a step-by-step reference -----------------------


def _per_step_loop(u, c, f, x0, seeds, powers, *, dt, n_steps, burn_in, thin,
                   path):
    """The loop as it ran before its blocks were folded, kept as a reference
    for the driver on the loop (``powers`` None): ``f`` and the record on
    every step, and a diverged block replayed step by step from a copy of
    its entry state.  ``advance`` writes its step over the increment it is
    given, so the first pass hands it copies and the block stays intact for
    the replay."""
    assert powers is None
    x = np.tile(x0, (len(seeds), 1))
    advance = sde_sim._em_step(u, c, dt)
    fsum = np.zeros(len(seeds))
    rngs = [sde_sim.Generator(sde_sim.Philox(key=int(s))) for s in seeds]
    steps = sde_sim._block_steps(len(seeds), len(x0))

    def record(step, state):
        if path is not None and step >= burn_in and (step - burn_in) % thin == 0:
            states, times, running = path
            j = (step - burn_in) // thin
            states[j] = state[0]
            times[j] = step * dt
            if step == burn_in:
                running[j] = f(state)[0]
            else:
                running[j] = fsum[0] / (step - burn_in)

    for start in range(0, n_steps, steps):
        b = min(steps, n_steps - start)
        block = np.stack([r.standard_normal((b, len(x0))) for r in rngs], axis=1)
        block *= np.sqrt(2.0 * dt)
        x_entry = x.copy()
        for s in range(b):
            step = start + s
            record(step, x)
            if step >= burn_in:
                fsum += f(x)
            x = advance(x, block[s].copy())
        if not np.all(np.isfinite(x)):
            x = x_entry
            for s in range(b):
                new = advance(x, block[s])
                bad = ~np.all(np.isfinite(new), axis=-1)
                if np.any(bad):
                    i = int(np.argmax(bad))
                    raise DivergenceError(step_index=start + s,
                                          seed=int(seeds[i]), state=x[i])
                x = new
    record(n_steps, x)
    return fsum


def _swirl(k):
    """A custom (not Q grad U) 2-d drift of scale k, so the loop calls its
    ``eval``."""
    def drift(x):
        return np.sin(x[..., ::-1]) * np.array([k, -k])

    return DriftField(dim=2, eval=drift, kind=DriftKind.CUSTOM,
                      divergence=lambda x: np.zeros(np.shape(x)[:-1]))


LOOP_CASES = {  # (potential, the drift of scale k, initial point)
    "torus": (torus_cosine(2, 1.0), lambda u, k: make_qgradu_drift(k * ROT, u),
              [0.1, 6.0]),
    "double-well": (double_well_2d(),
                    lambda u, k: make_qgradu_drift(k * ROT, u), [1.0, 0.0]),
    "custom-drift": (double_well_2d(), lambda u, k: _swirl(k), [0.5, -0.5]),
}


def _wavy(x):
    return np.cos(x[..., 0]) + x[..., 1] ** 2


@pytest.mark.parametrize("thin", [1, 3])
@pytest.mark.parametrize("case", list(LOOP_CASES))
def test_loop_matches_the_per_step_loop(monkeypatch, case, thin):
    # burn-in ends inside the third 7-step block; 5 chains in lock-step
    u, drift, x0 = LOOP_CASES[case]
    runs = []
    for loop in (sde_sim._drive, _per_step_loop):
        monkeypatch.setattr(sde_sim, "_drive", loop)
        for bytes_ in (sde_sim.NOISE_BLOCK_BYTES,
                       7 * 8 * (6 * 2 + 5), 7 * 8 * (2 * 2 + 1)):
            monkeypatch.setattr(sde_sim, "NOISE_BLOCK_BYTES", bytes_)
            for k in (0.0, 1.0, 2.0):
                c = drift(u, k)
                cfg = SimConfig(step_size=0.05, n_steps=101, initial_point=x0,
                                burn_in_steps=17, seed=40, thin=thin)
                runs.append((simulate(u, c, _wavy, cfg),
                             chain_time_averages(u, c, _wavy, cfg, 5)[0]))
        monkeypatch.undo()
    half = len(runs) // 2
    for (traj, avg), (ref, ref_avg) in zip(runs[:half], runs[half:]):
        np.testing.assert_array_equal(traj.states, ref.states)
        np.testing.assert_array_equal(traj.times, ref.times)
        np.testing.assert_array_equal(traj.observable_running_mean,
                                      ref.observable_running_mean)
        np.testing.assert_array_equal(avg, ref_avg)


def test_loop_divergence_matches_the_per_step_loop(monkeypatch):
    # torus chains poisoned at steps 40 and 12 diverge inside 7-step blocks;
    # both loops name seed 71 at step 12 with the same state
    bad_step = {70: 40, 71: 12, 72: 12}
    monkeypatch.setattr(sde_sim, "NOISE_BLOCK_BYTES", 7 * 8 * (4 * 2 + 3))
    monkeypatch.setattr(sde_sim, "Philox", lambda key: key)
    monkeypatch.setattr(sde_sim, "Generator",
                        lambda key: _PoisonedStream(key, bad_step[key], 2))
    u = torus_cosine(2, 1.0)
    cfg = SimConfig(step_size=0.05, n_steps=60, initial_point=[0.1, 6.0],
                    seed=70)
    errors = []
    for loop in (sde_sim._drive, _per_step_loop):
        monkeypatch.setattr(sde_sim, "_drive", loop)
        with pytest.raises(DivergenceError) as err:
            chain_time_averages(u, make_qgradu_drift(ROT, u), coord1, cfg, 3)
        errors.append(err.value)
    new, ref = errors
    assert (new.step_index, new.seed) == (ref.step_index, ref.seed) == (12, 71)
    np.testing.assert_array_equal(new.state, ref.state)


def test_loop_evaluates_f_once_per_noise_block(monkeypatch):
    # 50 steps in 7-step blocks are 8 blocks, each with post-burn-in steps;
    # a step-by-step loop would call f 47 times
    calls = []

    def f(x):
        calls.append(x.shape)
        return coord1(x)

    monkeypatch.setattr(sde_sim, "NOISE_BLOCK_BYTES", 7 * 8 * (5 * 2 + 4))
    assert sde_sim._block_steps(4, 2) == 7
    u = torus_cosine(2, 1.0)
    cfg = SimConfig(step_size=0.05, n_steps=50, initial_point=[0.1, 6.0],
                    burn_in_steps=3, seed=21)
    chain_time_averages(u, make_qgradu_drift(ROT, u), f, cfg, n_chains=4)
    assert len(calls) == 8
    assert sum(shape[0] for shape in calls) == 47
