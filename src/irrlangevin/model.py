"""Target potentials, skew drift fields, and growth-condition diagnostics.

The sampling target is the probability measure pi with density proportional
to e^{-U(x)}, for an energy U on R^d or on the flat torus [0, 2pi)^d.  A
drift perturbation C accelerates the reversible Langevin dynamics without
changing pi whenever it is weighted divergence-free, i.e.

    div(C e^{-U}) = 0,   equivalently   div C = C . grad U  pointwise.

The canonical construction is C = Q grad U for an antisymmetric matrix Q,
which satisfies the identity exactly: div(Q grad U) = tr(Q D2U) = 0 because
Q is antisymmetric and the Hessian D2U is symmetric, and (Q grad U).grad U
vanishes for the same reason.

All evaluators are vectorized over leading axes: ``eval`` maps (..., dim)
arrays to (...) energies, ``grad`` to (..., dim) and ``hess`` to
(..., dim, dim).  Instances are immutable after construction and safe to
share between concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

Array = np.ndarray

A4_EPSILONS = (0.01, 0.1, 1.0)  # the growth weights A4's margins are taken at
# A6 follows |grad U| out to RAY_RADII along RAYS directions drawn from RAY_SEED
RAYS = 8
RAY_RADII = np.geomspace(1.0, 50.0, 12)
RAY_SEED = 0
FD_STEP = 1e-4  # the central differences of the derivative checks
GRAD_RTOL = 1e-5
DIV_RTOL = 1e-5
HESS_SYM_RTOL = 1e-12


class SpaceKind(Enum):
    EUCLIDEAN = "euclidean"
    FLAT_TORUS = "flat_torus"


class DriftKind(Enum):
    """Q grad U, the reversible case Q = 0 included, or any other field."""

    QGRADU = "qgradu"
    CUSTOM = "custom"


@dataclass
class Potential:
    """Energy U with analytic gradient and Hessian.

    Analytic derivatives are required (the integrator and the grid oracle
    need them cheap and exact); finite differences are used only as
    cross-checks, see :func:`validate_potential`.  ``constant_hessian`` is
    the Hessian of a quadratic U, which does not depend on x, and None for
    any other U; the simulator then steps by an affine map.  When it is set
    the simulator may take grad U as ``x @ constant_hessian`` without
    calling ``grad``, so the two must agree.
    """

    dim: int
    eval: Callable[[Array], Array]
    grad: Callable[[Array], Array]
    hess: Callable[[Array], Array]
    space_kind: SpaceKind
    name: str = "custom"
    constant_hessian: Array | None = None

    def __post_init__(self):
        _check_dim(self.dim)


@dataclass
class DriftField:
    """Perturbation drift C with its analytic divergence and its scale: the
    paper's k Q grad U is ``make_qgradu_drift(k * q, u)``.

    For ``kind == DriftKind.QGRADU`` the stored ``q`` is exactly
    antisymmetric, ``divergence`` returns exactly zero, and ``q = 0`` is the
    reversible diffusion.  Such a drift means Q grad U of the potential it
    is simulated with: the simulator forms it from ``q`` and that
    potential's gradient, without calling ``eval``.
    """

    dim: int
    eval: Callable[[Array], Array]
    divergence: Callable[[Array], Array]
    kind: DriftKind
    q: Array | None = None
    name: str = "custom"

    def __post_init__(self):
        _check_dim(self.dim)


@dataclass
class AssumptionReport:
    """Probe-set diagnostics for the conditions the theory rests on.

    The checks are evaluated on a finite probe set (plus radial rays for the
    gradient-growth trend) and are therefore *probe-verified*, never proven.

    a3_residual
        max over probes of ``|div C - C . grad U|``; this equals
        ``e^U * |div(C e^{-U})|`` pointwise, so zero residual means the
        perturbation preserves pi.
    a4_margin
        for each epsilon of ``A4_EPSILONS``, the smallest constant c such that
        ``|C . grad U| + |D2U|_F <= eps |grad U|^2 + c`` on the probes
        (negative when the left side is dominated outright).
    a5_ratio
        sup over probes of ``|C| / (|grad U| + 1)``; finite K certifies the
        drift is dominated by the gradient.
    a6_trend
        True when ``|grad U|`` is non-decreasing along sampled outward rays
        (Euclidean spaces only; None on the torus where growth is vacuous).
    """

    a3_residual: float
    a4_margin: dict[float, float]
    a5_ratio: float
    a6_trend: bool | None
    probe_points: Array


def _check_dim(dim: int) -> None:
    if dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim}")


def antisymmetric_matrix(q: Array, dim: int) -> Array:
    """``q`` as a float (dim, dim) array; a nonzero q + q^T is rejected, not fixed."""
    q = np.asarray(q, dtype=float)
    if q.shape != (dim, dim):
        raise ValueError(f"q has shape {q.shape}, expected ({dim}, {dim})")
    if np.max(np.abs(q + q.T)) != 0.0:
        raise ValueError("q is not antisymmetric: q + q.T has a nonzero entry")
    return q


def _zero_divergence(x):
    x = np.asarray(x, dtype=float)
    return np.zeros(x.shape[:-1])


def make_qgradu_drift(q: Array, u: Potential) -> DriftField:
    """Build the drift C(x) = Q grad U(x) for an antisymmetric matrix Q.

    The divergence of this field is tr(Q D2U) which vanishes identically,
    so the returned field's ``divergence`` is exactly zero.  Rejects a
    matrix with any nonzero entry in Q + Q^T, and dimension mismatches.
    """
    q = antisymmetric_matrix(q, u.dim).copy()
    q.setflags(write=False)

    def _eval(x, _q=q, _grad=u.grad):
        return _grad(x) @ _q.T

    return DriftField(dim=u.dim, eval=_eval, divergence=_zero_divergence,
                      kind=DriftKind.QGRADU, q=q, name=f"qgradu({u.name})")


def zero_drift(dim: int) -> DriftField:
    """The trivial perturbation C = 0: Q grad U with Q = 0, for any U."""

    def _eval(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape)

    q = np.zeros((dim, dim))
    q.setflags(write=False)
    return DriftField(dim=dim, eval=_eval, divergence=_zero_divergence,
                      kind=DriftKind.QGRADU, q=q, name="zero")


def check_assumptions(u: Potential, c: DriftField,
                      probes: Array) -> AssumptionReport:
    """Evaluate the drift/growth diagnostics on a probe set.

    Purely diagnostic: the report never raises on an assumption failure,
    only on a dimension mismatch.
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if probes.shape[0] == 0:
        raise ValueError("probe set is empty")
    if probes.shape[1] != u.dim or c.dim != u.dim:
        raise ValueError(
            f"dimension mismatch: probes {probes.shape[1]}, U {u.dim}, C {c.dim}"
        )

    grad = u.grad(probes)
    cval = c.eval(probes)
    div = c.divergence(probes)
    hess = u.hess(probes)

    a3 = float(np.max(np.abs(div - np.sum(cval * grad, axis=-1))))

    grad_norm = np.linalg.norm(grad, axis=-1)
    hess_norm = np.linalg.norm(hess, axis=(-2, -1))  # Frobenius
    lhs = np.abs(np.sum(cval * grad, axis=-1)) + hess_norm
    a4 = {eps: float(np.max(lhs - eps * grad_norm**2)) for eps in A4_EPSILONS}

    a5 = float(np.max(np.linalg.norm(cval, axis=-1) / (grad_norm + 1.0)))

    if u.space_kind is SpaceKind.FLAT_TORUS:
        a6 = None  # compact space: gradient growth at infinity is vacuous
    else:
        rng = np.random.default_rng(RAY_SEED)
        dirs = rng.standard_normal((RAYS, u.dim))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        ok = True
        for d in dirs:
            along = np.linalg.norm(u.grad(np.outer(RAY_RADII, d)), axis=-1)
            if np.any(np.diff(along) < -1e-9 * (1.0 + np.max(along))):
                ok = False
                break
        a6 = ok

    return AssumptionReport(
        a3_residual=a3, a4_margin=a4, a5_ratio=a5, a6_trend=a6,
        probe_points=probes,
    )


def validate_potential(
    u: Potential,
    probes: Array | None = None,
    seed: int = 0,
) -> None:
    """Cross-check analytic derivatives against central finite differences.

    Raises ValueError when the gradient disagrees with the finite-difference
    gradient beyond ``GRAD_RTOL`` (relative, at step ``FD_STEP``) or when the
    Hessian fails symmetry at ``HESS_SYM_RTOL`` relative.
    """
    if probes is None:
        rng = np.random.default_rng(seed)
        if u.space_kind is SpaceKind.FLAT_TORUS:
            probes = rng.uniform(0.0, 2.0 * np.pi, size=(16, u.dim))
        else:
            probes = rng.standard_normal((16, u.dim))
    probes = np.atleast_2d(np.asarray(probes, dtype=float))

    hess = u.hess(probes)
    scale = np.maximum(np.linalg.norm(hess, axis=(-2, -1)), 1.0)
    asym = np.linalg.norm(hess - np.swapaxes(hess, -2, -1), axis=(-2, -1))
    if np.any(asym > HESS_SYM_RTOL * scale):
        raise ValueError(
            f"hessian asymmetry {np.max(asym / scale):.3e} exceeds {HESS_SYM_RTOL:.1e}"
        )

    grad = u.grad(probes)
    fd = np.empty_like(grad)
    for ax in range(u.dim):
        e = np.zeros(u.dim)
        e[ax] = FD_STEP
        fd[:, ax] = (u.eval(probes + e) - u.eval(probes - e)) / (2.0 * FD_STEP)
    denom = np.maximum(np.linalg.norm(grad, axis=-1), 1.0)
    err = np.linalg.norm(grad - fd, axis=-1) / denom
    if np.any(err > GRAD_RTOL):
        raise ValueError(
            f"gradient mismatch {np.max(err):.3e} vs finite differences "
            f"(rtol {GRAD_RTOL:.1e}, step {FD_STEP:.1e})"
        )


def validate_drift(c: DriftField, probes: Array) -> None:
    """Check the stored divergence against a finite-difference divergence
    (step ``FD_STEP``, relative tolerance ``DIV_RTOL``)."""
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    div = c.divergence(probes)
    fd = np.zeros(probes.shape[0])
    for ax in range(c.dim):
        e = np.zeros(c.dim)
        e[ax] = FD_STEP
        fd += (c.eval(probes + e)[:, ax] - c.eval(probes - e)[:, ax]) / (2.0 * FD_STEP)
    scale = np.maximum(np.abs(div), np.max(np.abs(fd)) + 1.0)
    if np.any(np.abs(div - fd) > DIV_RTOL * scale):
        raise ValueError(
            f"divergence mismatch {np.max(np.abs(div - fd) / scale):.3e} "
            f"vs finite differences (rtol {DIV_RTOL:.1e})"
        )


# --- built-in potential catalog -------------------------------------------

def gaussian_potential(dim: int, cov: Array | float | None = None) -> Potential:
    """Gaussian energy U(x) = x . inv(cov) x / 2, so pi = N(0, cov)."""
    _check_dim(dim)
    if cov is None:
        inv_cov = np.eye(dim)
    else:
        cov_arr = np.asarray(cov, dtype=float)
        if not np.all(np.isfinite(cov_arr)):
            raise ValueError(f"cov must be finite, got {cov_arr.tolist()}")
        if cov_arr.ndim == 0:
            cov_arr = float(cov_arr) * np.eye(dim)
        elif cov_arr.ndim == 1:
            cov_arr = np.diag(cov_arr)
        if cov_arr.shape != (dim, dim):
            raise ValueError(f"cov has shape {cov_arr.shape}, expected ({dim}, {dim})")
        if not np.array_equal(cov_arr, cov_arr.T):
            raise ValueError(f"cov must be symmetric, got {cov_arr.tolist()}")
        try:
            np.linalg.cholesky(cov_arr)
        except np.linalg.LinAlgError:
            raise ValueError(
                f"cov must be positive definite, got {cov_arr.tolist()}") from None
        inv_cov = np.linalg.inv(cov_arr)
        inv_cov = (inv_cov + inv_cov.T) / 2.0
    inv_cov.setflags(write=False)

    def _eval(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.sum((x @ inv_cov) * x, axis=-1)

    def _grad(x):
        x = np.asarray(x, dtype=float)
        return x @ inv_cov

    def _hess(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(inv_cov, x.shape[:-1] + (dim, dim)).copy()

    return Potential(dim=dim, eval=_eval, grad=_grad, hess=_hess,
                     space_kind=SpaceKind.EUCLIDEAN, name="gaussian",
                     constant_hessian=inv_cov)


def double_well_2d(barrier: float = 1.0) -> Potential:
    """Two-well energy U(x) = b (x1^2 - 1)^2 + x2^2 / 2 on R^2."""
    b = float(barrier)
    if not (np.isfinite(b) and b > 0):
        raise ValueError(f"barrier must be positive and finite, got {b!r}")

    def _eval(x):
        x = np.asarray(x, dtype=float)
        return b * (x[..., 0] ** 2 - 1.0) ** 2 + 0.5 * x[..., 1] ** 2

    def _grad(x):
        x = np.asarray(x, dtype=float)
        g = np.empty_like(x)
        g[..., 0] = 4.0 * b * x[..., 0] * (x[..., 0] ** 2 - 1.0)
        g[..., 1] = x[..., 1]
        return g

    def _hess(x):
        x = np.asarray(x, dtype=float)
        h = np.zeros(x.shape[:-1] + (2, 2))
        h[..., 0, 0] = 4.0 * b * (3.0 * x[..., 0] ** 2 - 1.0)
        h[..., 1, 1] = 1.0
        return h

    return Potential(dim=2, eval=_eval, grad=_grad, hess=_hess,
                     space_kind=SpaceKind.EUCLIDEAN, name="double_well_2d")


def torus_cosine(dim: int, amplitude: float | Sequence[float] = 1.0) -> Potential:
    """Cosine energy U(x) = sum_i a_i cos(x_i) on the flat torus [0, 2pi)^dim.

    ``amplitude`` may be a scalar (same on every axis) or one value per axis;
    a zero entry switches that axis off, e.g. ``amplitude=(1, 0)`` gives an
    energy depending on the first coordinate only.
    """
    _check_dim(dim)
    amp = np.broadcast_to(np.asarray(amplitude, dtype=float), (dim,)).copy()
    if not np.all(np.isfinite(amp)):
        raise ValueError(f"amplitude must be finite, got {amp.tolist()}")

    def _eval(x):
        x = np.asarray(x, dtype=float)
        return np.sum(amp * np.cos(x), axis=-1)

    def _grad(x):
        x = np.asarray(x, dtype=float)
        return -amp * np.sin(x)

    def _hess(x):
        x = np.asarray(x, dtype=float)
        h = np.zeros(x.shape[:-1] + (dim, dim))
        diag = -amp * np.cos(x)
        for i in range(dim):
            h[..., i, i] = diag[..., i]
        return h

    return Potential(dim=dim, eval=_eval, grad=_grad, hess=_hess,
                     space_kind=SpaceKind.FLAT_TORUS, name="torus_cosine")


POTENTIAL_CATALOG: Mapping[str, Callable[..., Potential]] = {
    "gaussian": gaussian_potential,
    "double_well_2d": double_well_2d,
    "torus_cosine": torus_cosine,
}


def make_potential(name: str, **params) -> Potential:
    """Instantiate a catalog potential by name (the CLI entry point)."""
    try:
        factory = POTENTIAL_CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown potential {name!r}; catalog: {sorted(POTENTIAL_CATALOG)}"
        ) from None
    return factory(**params)
