"""Euler-Maruyama simulation of Langevin dynamics with a skew drift.

Integrates

    dX_t = sqrt(2) dW_t - grad U(X_t) dt + k C(X_t) dt

and accumulates the time average (1/t) int_0^t f(X_s) ds by left-endpoint
quadrature, the rule matching the weak order of the Euler-Maruyama scheme.
No Metropolis correction is applied: the object of study is the
continuous-time diffusion, and the discretization bias is controlled by
step halving (see ``mc_variance.replicated_clt(check_bias=True)``).

RNG contract: every chain draws its Gaussian increments from a dedicated
counter-based Philox stream keyed by its seed; a chain's increments are its
stream's standard normals in step order.  The simulator draws them in blocks
to bound memory, but neither the block size nor the number of chains run
together is part of the stream.  Chains with seeds s, s+1, ... are therefore
statistically independent and each chain is bit-reproducible from its seed
alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .errors import DivergenceError
from .model import DriftField, DriftKind, Potential, SpaceKind

Array = np.ndarray
Observable = Callable[[Array], Array]

RNG_NAME = "philox4x64"
NOISE_BLOCK_BYTES = 4 * 2**20  # noise held at once; any value, same streams

TWO_PI = 2.0 * np.pi


@dataclass
class SimConfig:
    """Integration parameters; ``step_size * n_steps`` is the time horizon."""

    step_size: float
    n_steps: int
    initial_point: Sequence[float]
    burn_in_steps: int = 0
    seed: int = 0
    perturbation_scale: float = 1.0  # k, multiplies the drift field
    thin: int = 1  # store every thin-th state (quadrature still uses all steps)

    def __post_init__(self):
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be a positive integer")
        if not 0 <= self.burn_in_steps < self.n_steps:
            raise ValueError("burn_in_steps must satisfy 0 <= burn_in < n_steps")
        if self.perturbation_scale < 0:
            raise ValueError("perturbation_scale must be nonnegative")
        if self.thin < 1:
            raise ValueError("thin must be a positive integer")


@dataclass
class Trajectory:
    """Recorded path after burn-in, possibly thinned.

    ``states[j]`` is the state at ``times[j]``; ``observable_running_mean[j]``
    is the left-endpoint average of the observable over all steps from the
    end of burn-in up to ``times[j]`` (at the first entry, the observable at
    the window start).  The unthinned left-endpoint states are the states at
    all steps but the last; with ``thin == 1`` they are ``states[:-1]``.
    """

    times: Array
    states: Array
    observable_running_mean: Array
    step_size: float
    thin: int
    seed: int
    total_time: float  # post-burn-in horizon covered by the quadrature
    rng_name: str = RNG_NAME

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states lengths disagree")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


def _em_step(u: Potential, c: DriftField, k: float, dt: float):
    """The Euler-Maruyama map (state, noise) -> next state for fixed u, c, k, dt."""
    on_torus = u.space_kind is SpaceKind.FLAT_TORUS
    has_drift = k != 0.0 and c.kind is not DriftKind.ZERO
    grad = u.grad
    ceval = c.eval
    root = np.sqrt(2.0 * dt)

    def advance(state, noise):
        d = -grad(state)
        if has_drift:
            d = d + k * ceval(state)
        new = state + dt * d + root * noise
        if on_torus:
            new = np.mod(new, TWO_PI)
        return new

    return advance


def step_em(x: Array, u: Potential, c: DriftField, k: float, dt: float,
            noise: Array) -> Array:
    """One Euler-Maruyama step from ``x`` with the given standard-normal draw.

    Returns ``x + dt (-grad U(x) + k C(x)) + sqrt(2 dt) noise``; on the torus
    the coordinates are wrapped back into [0, 2pi).  Raises DivergenceError
    when the result is not finite.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _em_step(u, c, k, dt)(x, np.asarray(noise, dtype=float))
    if not np.all(np.isfinite(out)):
        raise DivergenceError(step_index=0, seed=None, state=x)
    return out


def _block_steps(n_chains: int, dim: int) -> int:
    """Steps per noise block, at least 1.

    The block plus one chain's draw, on its way into the block, fit in
    ``NOISE_BLOCK_BYTES``.
    """
    return max(1, NOISE_BLOCK_BYTES // (8 * (n_chains + 1) * dim))


def _noise_blocks(n_steps: int, dim: int, seeds: Sequence[int]):
    """Yield (start, noise of shape (block, n_chains, dim)) blocks.

    Every block is drawn into the same preallocated buffer, so a yielded
    block is valid only until the next one is requested.
    """
    rngs = [Generator(Philox(key=int(s))) for s in seeds]
    steps = min(n_steps, _block_steps(len(rngs), dim))
    buf = np.empty((steps, len(rngs), dim))
    done = 0
    while done < n_steps:
        b = min(steps, n_steps - done)
        for i, r in enumerate(rngs):
            buf[:b, i] = r.standard_normal((b, dim))
        yield done, buf[:b]
        done += b


def _run_chains(u: Potential, c: DriftField, f: Observable, *,
                dt: float, n_steps: int, burn_in: int, k: float,
                x0: Array, seeds: Sequence[int], thin: int = 1,
                store: bool = False):
    """Advance all chains in lock-step; the workhorse behind the public API.

    Returns ``(averages, states, times, running)`` where ``averages`` holds
    each chain's left-endpoint time average of ``f`` over the post-burn-in
    window; the last three are None unless ``store`` (single-chain use).
    Divergence is detected per block and located exactly by replaying the
    offending block step by step (the replay is deterministic, so the
    reported step index and state are exact).

    Memory does not grow with the horizon: the state and ``fsum`` take
    O(n_chains * dim), the noise takes at most ``NOISE_BLOCK_BYTES`` (or one
    step's noise, if that is larger), and the stored path is allocated up
    front at ``8 * (dim + 2)`` bytes per recorded state.
    """
    n_chains = len(seeds)
    x = np.tile(np.asarray(x0, dtype=float), (n_chains, 1))
    dim = x.shape[1]
    advance = _em_step(u, c, k, dt)

    fsum = np.zeros(n_chains)
    rows = (n_steps - burn_in) // thin + 1 if store else 0
    states = np.empty((rows, dim))
    times, running = np.empty(rows), np.empty(rows)

    def record(step, state):
        if store and step >= burn_in and (step - burn_in) % thin == 0:
            j = (step - burn_in) // thin
            states[j] = state[0]
            times[j] = step * dt
            if step == burn_in:
                running[j] = f(state)[0]
            else:
                running[j] = fsum[0] / (step - burn_in)

    with np.errstate(over="ignore", invalid="ignore"):
        # overflow is detected per block and located by replay, not raised
        for start, block in _noise_blocks(n_steps, dim, seeds):
            x_entry = x.copy()
            for s in range(block.shape[0]):
                step = start + s
                record(step, x)
                if step >= burn_in:
                    fsum += f(x)
                x = advance(x, block[s])
            if not np.all(np.isfinite(x)):
                x = x_entry
                for s in range(block.shape[0]):
                    new = advance(x, block[s])
                    bad = ~np.all(np.isfinite(new), axis=-1)
                    if np.any(bad):
                        i = int(np.argmax(bad))
                        raise DivergenceError(step_index=start + s,
                                              seed=int(seeds[i]), state=x[i])
                    x = new
    record(n_steps, x)

    averages = fsum / (n_steps - burn_in)
    if not store:
        return averages, None, None, None
    return averages, states, times, running


def simulate(u: Potential, c: DriftField, f: Observable,
             cfg: SimConfig) -> Trajectory:
    """Run one chain and return its recorded trajectory.

    Deterministic given ``cfg`` (including the seed): identical configs give
    bit-identical trajectories.
    """
    if c.dim != u.dim:
        raise ValueError(f"drift dim {c.dim} != potential dim {u.dim}")
    x0 = np.asarray(cfg.initial_point, dtype=float)
    if x0.shape != (u.dim,):
        raise ValueError(f"initial_point has shape {x0.shape}, expected ({u.dim},)")
    try:
        _, states, times, running = _run_chains(
            u, c, f, dt=cfg.step_size, n_steps=cfg.n_steps,
            burn_in=cfg.burn_in_steps, k=cfg.perturbation_scale,
            x0=x0, seeds=[cfg.seed], thin=cfg.thin, store=True,
        )
    except DivergenceError as err:
        raise DivergenceError(err.step_index, cfg.seed, err.state) from None
    total_time = (cfg.n_steps - cfg.burn_in_steps) * cfg.step_size
    return Trajectory(times=times, states=states,
                      observable_running_mean=running,
                      step_size=cfg.step_size, thin=cfg.thin, seed=cfg.seed,
                      total_time=total_time)


def chain_time_averages(u: Potential, c: DriftField, f: Observable,
                        cfg: SimConfig, n_chains: int) -> tuple[Array, float]:
    """Time averages of ``f`` for ``n_chains`` chains seeded seed, seed+1, ...

    Chains are advanced in lock-step for speed but their noise streams are
    the per-seed Philox streams, so the set of averages matches running the
    chains one at a time.  Returns (averages, post-burn-in horizon).
    """
    if n_chains < 1:
        raise ValueError("n_chains must be positive")
    x0 = np.asarray(cfg.initial_point, dtype=float)
    seeds = [cfg.seed + i for i in range(n_chains)]
    averages, _, _, _ = _run_chains(
        u, c, f, dt=cfg.step_size, n_steps=cfg.n_steps,
        burn_in=cfg.burn_in_steps, k=cfg.perturbation_scale,
        x0=x0, seeds=seeds, thin=1, store=False,
    )
    total_time = (cfg.n_steps - cfg.burn_in_steps) * cfg.step_size
    return averages, total_time


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write the trajectory as CSV with columns t, x1..xd, running_mean."""
    dim = traj.states.shape[1]
    header = "t," + ",".join(f"x{i + 1}" for i in range(dim)) + ",running_mean"
    data = np.column_stack([traj.times, traj.states,
                            traj.observable_running_mean])
    np.savetxt(path, data, delimiter=",", header=header, comments="")
