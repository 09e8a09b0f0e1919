"""Euler-Maruyama simulation of Langevin dynamics with a skew drift.

Integrates

    dX_t = sqrt(2) dW_t - grad U(X_t) dt + C(X_t) dt

and accumulates the time average (1/t) int_0^t f(X_s) ds by left-endpoint
quadrature, the rule matching the weak order of the Euler-Maruyama scheme.
The drift C carries its own scale: the paper's k Q grad U is the field
``make_qgradu_drift(k * q, u)``, and the reversible diffusion is Q = 0
(``zero_drift``).  No Metropolis correction is applied: the object of study
is the continuous-time diffusion, and the discretization bias is controlled
by step halving (see ``mc_variance.replicated_clt(check_bias=True)``).

One driver runs the scheme on two paths.  When U has a constant Hessian H
(a Gaussian target) and the drift is Q grad U, the step is the affine map
x -> x A + sqrt(2 dt) xi with A = I - dt H + dt H Q^T (row vectors).
If the spectral radius of A is below 1, d is at most ``AFFINE_MAX_DIM`` and
the horizon has at least ``AFFINE_MIN_STEPS_PER_CHAIN`` steps per chain,
chains then run one at a time, and a block's states come from a log-depth
prefix scan over A, A^2, A^4, ...  Every other case (the torus, nonlinear
U, custom drifts, an unstable A, many dimensions, many chains over a short
horizon) runs on the loop: all chains in lock-step, one Python step at a
time.  Either way a block of at most ``AFFINE_CHUNK_STEPS`` steps has its
scaled increments drawn at one site, is checked for finiteness once, and
is folded alike: f once on all its post-burn-in states, running sums added
in step order.  The paths agree to rounding, and the loop gives the bits
of a step-by-step loop.

RNG contract: every chain draws its Gaussian increments from a dedicated
counter-based Philox stream keyed by its seed (``RNG_NAME`` in the CLI's
reports); a chain's increments are its stream's standard normals in step
order.  The simulator draws them in blocks to bound memory, but
neither their size, the path, nor the number of chains run together is
part of the stream.  Chains with seeds s, s+1, ... are therefore
statistically independent and each chain is bit-reproducible from its seed
alone.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .errors import DivergenceError
from .model import DriftField, DriftKind, Potential, SpaceKind

Array = np.ndarray
ObservableFn = Callable[[Array], Array]

RNG_NAME = "philox4x64"
# bytes of a block's states, sums and draw held at once; any value, same streams
NOISE_BLOCK_BYTES = 4 * 2**20
# the most steps per block, a lone chain's block; any value, same streams
AFFINE_CHUNK_STEPS = 4096
# where the affine path is taken: its cost per chain-step grows like 12 dim^2
# flops against the loop's 2 dim^2, and it pays a fixed cost per chain
AFFINE_MAX_DIM = 8
AFFINE_MIN_STEPS_PER_CHAIN = 8  # n_steps >= this * n_chains

TWO_PI = 2.0 * np.pi


@dataclass
class SimConfig:
    """Integration parameters; ``step_size * n_steps`` is the time horizon."""

    step_size: float
    n_steps: int
    initial_point: Sequence[float]
    burn_in_steps: int = 0
    seed: int = 0
    thin: int = 1  # store every thin-th state (quadrature still uses all steps)

    def __post_init__(self):
        for name in ("n_steps", "burn_in_steps", "thin", "seed"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got "
                                 f"{getattr(self, name)!r}") from None
        if not (np.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError(
                f"step_size must be positive and finite, got {self.step_size!r}")
        if self.n_steps < 1:
            raise ValueError("n_steps must be a positive integer")
        if not 0 <= self.burn_in_steps < self.n_steps:
            raise ValueError("burn_in_steps must satisfy 0 <= burn_in < n_steps")
        if self.thin < 1:
            raise ValueError("thin must be a positive integer")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not np.all(np.isfinite(self.initial_point)):
            raise ValueError("initial_point must be finite, got "
                             f"{np.asarray(self.initial_point, dtype=float).tolist()}")


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

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states lengths disagree")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


def _em_step(u: Potential, c: DriftField, dt: float):
    """The Euler-Maruyama map (state, increment) -> next state.

    The increment is the step's scaled noise, ``sqrt(2 dt) xi``.  The map
    writes the next state, ``increment + (state + dt * drift)``, over
    ``increment`` and returns it.  That is the step's one addition with its
    operands swapped, so the bits are those of ``state + dt * drift +
    increment``, and no array is made for the state.  A caller that keeps
    its increment passes a copy.  A QGRADU drift is taken as Q grad U of
    this potential, so grad U is evaluated once per step: the drift
    ``-grad U + Q grad U`` is ``grad U @ (Q^T - I)``, and ``-grad U`` alone
    when Q = 0.
    """
    on_torus = u.space_kind is SpaceKind.FLAT_TORUS
    grad = u.grad
    if c.kind is DriftKind.CUSTOM:
        ceval = c.eval

        def drift(state):
            return -grad(state) + ceval(state)
    elif not np.any(c.q):
        def drift(state):
            return -grad(state)
    else:
        fused = c.q.T - np.eye(u.dim)

        def drift(state):
            return grad(state) @ fused

    def advance(state, increment):
        increment += state + dt * drift(state)
        if on_torus:
            np.mod(increment, TWO_PI, out=increment)
        return increment

    return advance


def _block_steps(width: int, dim: int) -> int:
    """Steps per block of ``width`` chains, from 1 to ``AFFINE_CHUNK_STEPS``.

    The block's rows (``width * dim`` per step), the fold's running sums
    (``width`` per step) and a draw scratch (``dim`` per step) fit in
    ``NOISE_BLOCK_BYTES``.  The cap bounds a block of few chains, whose
    budget would cover a whole horizon: a lone chain of dim <= 8, the
    affine path's group, gets 4096 steps, and in 2-d holds 96 KB of rows
    and sums (it draws into its rows), not 4 MiB.
    """
    budget = NOISE_BLOCK_BYTES // (8 * ((width + 1) * dim + width))
    return max(1, min(AFFINE_CHUNK_STEPS, budget))


def _affine_powers(u: Potential, c: DriftField, dt: float) -> list[Array] | None:
    """``[A, A^2, A^4, ..., A^AFFINE_CHUNK_STEPS]``, if the step is affine.

    The Euler-Maruyama step is ``x -> x A + sqrt(2 dt) xi`` when U has a
    constant Hessian H on R^d and the drift is Q grad U:
    ``A = I - dt H + dt H Q^T`` (row vectors).  Returns None when it is
    not, or when the spectral radius of ``A`` is not below 1.
    """
    h = u.constant_hessian
    if (h is None or u.space_kind is not SpaceKind.EUCLIDEAN
            or c.kind is not DriftKind.QGRADU):
        return None
    a = np.eye(u.dim) - dt * h + dt * (h @ c.q.T)
    squares = [a]  # A^(2^j) for j = 0, 1, ...
    with np.errstate(over="ignore", invalid="ignore"):
        # rho(A) < 1 exactly when some A^(2^j) has a norm below 1; squaring
        # needs no LAPACK, whose first call pages in most of a megabyte
        while not np.linalg.norm(squares[-1], np.inf) < 1.0:
            if len(squares) == 64:
                return None
            squares.append(squares[-1] @ squares[-1])
        while 1 << len(squares) <= AFFINE_CHUNK_STEPS:
            squares.append(squares[-1] @ squares[-1])
    return squares[:AFFINE_CHUNK_STEPS.bit_length()]


def _drive(u: Potential, c: DriftField, f: ObservableFn, x0: Array,
           seeds: Sequence[int], powers: list[Array] | None, *, dt: float,
           n_steps: int, burn_in: int, thin: int, path) -> Array:
    """Run the chains in groups, a block of steps at a time.

    Returns each chain's sum of ``f`` over the post-burn-in left endpoints,
    and fills ``path`` (None or ``(states, times, running)``) with the first
    chain's recorded states.  On the loop (``powers`` None) the one group is
    every chain in lock-step; on the affine path (``powers`` from
    :func:`_affine_powers`) each chain is a group.  A block's rows are its
    entry state and the states after each of its steps, the group's chains
    side by side: (b + 1, width, dim).  Each stream draws its normals into
    one scratch (a lone chain's own rows), and they enter rows 1.. scaled
    by sqrt(2 dt).  The loop writes each step's states over its increments
    in place; the affine path's Hillis-Steele scan adds
    ``rows[:-2^j] @ A^(2^j)`` to ``rows[2^j:]`` for j = 0, 1, ..., after
    which row t is ``x A^t + sum_s sqrt(2 dt) xi_s A^(t-1-s)``, the state
    after t steps.  :func:`_fold` then folds the block.

    On the loop a coordinate that is not finite stays so at every later
    step, so the last row is checked, and the first row holding one locates
    a divergence exactly: its step, the lowest-index chain there, and that
    chain's state before it.  The scan gives no such guarantee, so all of
    an affine block is checked, and a non-finite one reruns every chain on
    the loop, which reports the divergence as above.
    """
    dim = len(x0)
    width = len(seeds) if powers is None else 1
    steps = min(n_steps, _block_steps(width, dim))
    buf = np.empty((steps + 1, width, dim))
    sums = np.empty((steps + 1, width))
    # a lone chain draws straight into its rows, since they are contiguous
    draw = buf[1:, 0] if width == 1 else np.empty((steps, dim))
    root = np.sqrt(2.0 * dt)
    advance = _em_step(u, c, dt)
    fsum = np.empty(len(seeds))
    for g in range(0, len(seeds), width):
        rngs = [Generator(Philox(key=int(s))) for s in seeds[g:g + width]]
        buf[0] = x0
        total = np.zeros(width)
        for start in range(0, n_steps, steps):
            b = min(steps, n_steps - start)
            rows = buf[:b + 1]
            for i, rng in enumerate(rngs):
                rng.standard_normal(out=draw[:b])
                np.multiply(draw[:b], root, out=rows[1:, i])
            if powers is None:
                for s in range(b):
                    advance(rows[s], rows[s + 1])
            else:
                flat = rows.reshape(-1, dim)  # row t, chain i at t * width + i
                for j, power in enumerate(powers):
                    lag = width << j
                    if lag >= len(flat):
                        break
                    flat[lag:] += flat[:-lag] @ power
            if not np.all(np.isfinite(rows[-1] if powers is None else rows)):
                if powers is not None:
                    return _drive(u, c, f, x0, seeds, None, dt=dt,
                                  n_steps=n_steps, burn_in=burn_in,
                                  thin=thin, path=path)
                bad = ~np.all(np.isfinite(rows[1:]), axis=-1)
                s, i = np.unravel_index(np.argmax(bad), bad.shape)
                raise DivergenceError(step_index=start + int(s),
                                      seed=int(seeds[g + i]),
                                      state=rows[s, i].copy())
            total = _fold(f, rows, sums, total, start,
                          path if g == 0 else None, dt=dt, n_steps=n_steps,
                          burn_in=burn_in, thin=thin)
            buf[0] = rows[-1]
        fsum[g:g + width] = total
    return fsum


def _fold(f: ObservableFn, rows: Array, sums: Array, total, start: int, path,
          *, dt: float, n_steps: int, burn_in: int, thin: int):
    """Add ``f`` over a block's post-burn-in left endpoints; return the total.

    ``rows`` holds the states at steps ``start``, ``start + 1``, ... of a
    group of chains side by side, (b + 1, width, dim); ``total`` is each
    chain's sum so far.  ``f`` is evaluated once on the block, and
    ``sums[m]``, in a buffer of b + 1 rows or more, becomes the total over
    the endpoints before ``first + m``, added in step order.  Chain 0's
    recorded steps, and its last state when the block ends the run, go to
    ``path``.
    """
    b = len(rows) - 1
    first = max(start, burn_in)  # first post-burn-in left endpoint
    n = start + b - first
    if n <= 0:
        return total
    sums[0] = total
    sums[1:n + 1] = f(rows[first - start:b])
    np.cumsum(sums[:n + 1], axis=0, out=sums[:n + 1])
    if path is not None:
        stop = start + b + (start + b == n_steps)  # the last state, too
        _record_block(path, rows[:, 0], sums[:, 0], start, first, stop,
                      dt=dt, burn_in=burn_in, thin=thin)
    return sums[n].copy()


def _record_block(path, block: Array, sums: Array, start: int, first: int,
                  stop: int, *, dt: float, burn_in: int, thin: int) -> None:
    """Store the recorded steps among steps ``first..stop - 1`` of a block
    whose rows start at step ``start``."""
    states, times, running = path
    j0 = -(-(first - burn_in) // thin)  # the first row recorded here
    s0 = burn_in + j0 * thin
    if s0 >= stop:
        return
    rows = slice(j0, j0 + (stop - 1 - s0) // thin + 1)
    states[rows] = block[s0 - start:stop - start:thin]
    np.multiply(np.arange(s0, stop, thin), dt, out=times[rows])
    done = np.arange(s0 - burn_in, stop - burn_in, thin)  # since burn-in
    np.divide(sums[s0 - first:stop - first:thin], np.maximum(done, 1),
              out=running[rows])
    if s0 == burn_in:
        running[j0] = sums[1]  # the window start records f itself


def _run_chains(u: Potential, c: DriftField, f: ObservableFn, cfg: SimConfig,
                seeds: Sequence[int], store: bool = False):
    """Run the chains of ``cfg`` through :func:`_drive`, on the affine path
    or the loop; behind the public API.

    The chains start at ``cfg.initial_point`` with the streams of ``seeds``.
    Rejects a drift or an initial point whose dimension is not the
    potential's.

    Returns ``(averages, total_time, path)`` where ``averages`` holds each
    chain's left-endpoint time average of ``f`` over the post-burn-in
    window of length ``total_time``; ``path`` is None unless ``store``
    (single-chain use), and then ``(states, times, running)``.

    The affine path is taken for at most ``AFFINE_MAX_DIM`` coordinates and
    at least ``AFFINE_MIN_STEPS_PER_CHAIN`` steps per chain.  Below the
    steps bound the loop was timed faster (2-d, 64 chains, 4 steps each:
    221 against 423 ns per chain-step).  The dimension bound is not where
    the two paths cross: a lone chain was faster on the affine path at
    every d timed, up to 128 (3,944 against 338 ns at d = 9), while 64
    chains at d = 32 and 64 were 1.5-2.1 times faster on the loop.

    Memory does not grow with the horizon.  A block's rows, the fold's
    running sums and the draw scratch (none for a lone chain), allocated
    once per run and written in place, hold at most ``AFFINE_CHUNK_STEPS``
    steps of one group in ``NOISE_BLOCK_BYTES`` (or one step, if that is
    larger; see :func:`_block_steps`), plus ``f``'s output and temporaries
    on one block: an affine chain of dim 8 peaks at 0.6 MB traced, the
    scan's product included.  The stored path is allocated up front at
    ``8 * (dim + 2)`` bytes per recorded state.
    """
    if c.dim != u.dim:
        raise ValueError(f"drift dim {c.dim} != potential dim {u.dim}")
    x0 = np.asarray(cfg.initial_point, dtype=float)
    if x0.shape != (u.dim,):
        raise ValueError(f"initial_point has shape {x0.shape}, expected ({u.dim},)")
    dt, n_steps, burn_in = cfg.step_size, cfg.n_steps, cfg.burn_in_steps
    rows = (n_steps - burn_in) // cfg.thin + 1
    path = ((np.empty((rows, u.dim)), np.empty(rows), np.empty(rows))
            if store else None)
    affine = (u.dim <= AFFINE_MAX_DIM
              and n_steps >= AFFINE_MIN_STEPS_PER_CHAIN * len(seeds))
    powers = _affine_powers(u, c, dt) if affine else None
    with np.errstate(over="ignore", invalid="ignore"):
        # overflow is detected per block and located on the loop's rows
        fsum = _drive(u, c, f, x0, seeds, powers, dt=dt, n_steps=n_steps,
                      burn_in=burn_in, thin=cfg.thin, path=path)
    return fsum / (n_steps - burn_in), (n_steps - burn_in) * dt, path


def simulate(u: Potential, c: DriftField, f: ObservableFn,
             cfg: SimConfig) -> Trajectory:
    """Run one chain and return its recorded trajectory.

    Deterministic given ``cfg`` (including the seed): identical configs give
    bit-identical trajectories.
    """
    _, total_time, (states, times, running) = _run_chains(
        u, c, f, cfg, [cfg.seed], store=True)
    return Trajectory(times=times, states=states,
                      observable_running_mean=running,
                      step_size=cfg.step_size, thin=cfg.thin, seed=cfg.seed,
                      total_time=total_time)


def chain_time_averages(u: Potential, c: DriftField, f: ObservableFn,
                        cfg: SimConfig, n_chains: int) -> tuple[Array, float]:
    """Time averages of ``f`` for ``n_chains`` chains seeded seed, seed+1, ...

    Chains are advanced in lock-step (or, on the affine path, one after
    another) but their noise streams are the per-seed Philox streams, so the
    set of averages matches running the chains one at a time.  Returns
    (averages, post-burn-in horizon).
    """
    if n_chains < 1:
        raise ValueError("n_chains must be positive")
    averages, total_time, _ = _run_chains(
        u, c, f, cfg, [cfg.seed + i for i in range(n_chains)])
    return averages, total_time


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write the trajectory as CSV with columns t, x1..xd, running_mean."""
    dim = traj.states.shape[1]
    header = "t," + ",".join(f"x{i + 1}" for i in range(dim)) + ",running_mean"
    data = np.column_stack([traj.times, traj.states,
                            traj.observable_running_mean])
    np.savetxt(path, data, delimiter=",", header=header, comments="")
