"""Exact finite-dimensional oracle for the variance-reduction inequality.

Two discretizations realize the operator triple (L, A, pi) on a finite
state space, with L the energy operator of the reversible dynamics, A the
skew drift operator, and pi the stationary weights:

* a flat-torus grid (dim 1 or 2), where L is a weighted-graph Laplacian
  with geometric-mean edge conductances e^{-(U_i+U_j)/2} -- symmetric in
  the pi-inner product by construction -- and A comes from centered
  differences of C.grad, explicitly projected to annihilate constants and
  pi-antisymmetrized;
* a Hermite-polynomial Galerkin basis for the standard Gaussian, where L
  is diagonal (eigenvalue = total polynomial degree) and the drift (Qx).grad
  maps each degree subspace to itself, so the truncation is exact for
  observables inside the span.

On the mean-zero subspace (constants removed via an explicit
pi-orthonormal basis), the asymptotic variance of a centered observable f
is computed by two independent routes:

* resolvent: solve (L - A) h = f and return 2 <f, h>_pi;
* spectral: with V = L^{-1/2} and the Hermitian B = i V A V, expand
  g = V f in the eigenbasis of B and return 2 sum_j w_j / (1 + y_j^2),
  where the atoms (y_j, w_j) form the spectral weight of g.

The reversible value is sigma2_rev = 2 |g|^2; since every weight is
nonnegative, the perturbed value never exceeds it.  Route agreement and
the operator-structure identities are the acceptance gates of the package,
not trusted by construction alone.

Every analysis goes through one solve path, the methods ``reduce``,
``solve``, ``kernel_residual`` and ``spectral_weight`` of
:class:`DiscretizedSystem`; the factorizations behind them stay private.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product as _iter_product
from math import comb, factorial
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .errors import DiscretizationDefectError
from .model import DriftField, Potential, SpaceKind, antisymmetric_matrix

Array = np.ndarray

# The dense build and report hold about ten n x n float64 arrays at once
# (1.33 GB peak measured at n = 4096); 7000 states keep that under 4 GB.
MAX_STATES = 7000
EIGENVALUE_MERGE_TOL = 1e-9  # absolute; degenerate clusters pool their weights
KERNEL_FLAG_RTOL = 1e-9


@dataclass
class TorusGrid:
    dim: int
    points_per_axis: int
    spacing: float


@dataclass
class GaussianLinear:
    dim: int
    q_matrix: Array


@dataclass
class SpectralMeasure:
    """Atoms of the spectral weight of a vector: sum_j w_j delta_{y_j}.

    ``total_mass`` equals the squared pi-norm of the vector; for vectors
    coming from real observables the weights are symmetric about zero.
    """

    locations: Array
    weights: Array
    total_mass: float


@dataclass
class VarianceReport:
    """Variances of a centered observable by both routes, plus diagnostics.

    ``sigma2_irr`` is the resolvent-route value; ``route_spectral`` must
    agree with it to about 1e-8 relative on a sound discretization.
    ``kernel_flag`` records whether L^{-1} f is (numerically) annihilated by
    the drift operator, the exact condition for equality of the variances.
    """

    sigma2_rev: float
    sigma2_irr: float
    route_resolvent: float
    route_spectral: float
    equality_gap: float
    kernel_flag: bool
    center_shift: float
    route_discrepancy: float
    measure: SpectralMeasure


@dataclass
class DiscretizedSystem:
    """pi-weighted matrix realization of (L, A) with a mean-zero basis.

    ``pi_weights`` are the inner-product weights: <f, g>_pi =
    sum_i pi_i f_i g_i.  ``const_vec`` holds the coordinates of the constant
    function 1 (the all-ones vector on the grid; the first basis vector in
    the Galerkin backend), normalized so <1, 1>_pi = 1.  The columns of
    ``mean_zero_basis`` are pi-orthonormal and span the complement of the
    constants.  Treat instances as immutable; derived factorizations are
    cached on first use and shared by all operations.
    """

    n: int
    pi_weights: Array
    l_matrix: Array
    a_matrix: Array
    mean_zero_basis: Array
    backend: TorusGrid | GaussianLinear
    const_vec: Array
    points: Array | None = None  # torus node coordinates, (n, dim)
    multi_indices: tuple | None = None  # Hermite exponents per basis vector
    antisym_correction: float = 0.0  # size of the discarded symmetric part of A

    # -- cached restrictions and factorizations --------------------------

    @cached_property
    def restricted(self) -> tuple[Array, Array]:
        """(L, A) compressed to the mean-zero basis; exactly (anti)symmetric."""
        b = self.mean_zero_basis
        pi = self.pi_weights
        lr = b.T @ (pi[:, None] * self.l_matrix) @ b
        ar = b.T @ (pi[:, None] * self.a_matrix) @ b
        lr = (lr + lr.T) / 2.0  # remove matmul rounding; restriction is symmetric
        ar = (ar - ar.T) / 2.0
        return lr, ar

    @cached_property
    def l_eigh(self) -> tuple[Array, Array]:
        """Eigendecomposition of the restricted L, checked positive definite."""
        lr, _ = self.restricted
        w, vec = np.linalg.eigh(lr)
        if w[0] <= 0.0:
            raise DiscretizationDefectError(
                "restricted energy operator is not positive definite: "
                f"smallest eigenvalue {w[0]:.6e}"
            )
        return w, vec

    @cached_property
    def v_matrix(self) -> Array:
        """V = L^{-1/2} on the mean-zero subspace (symmetric eigendecomposition)."""
        w, vec = self.l_eigh
        v = (vec / np.sqrt(w)) @ vec.T
        return (v + v.T) / 2.0

    @cached_property
    def b_operator(self) -> Array:
        """Hermitian conjugation i V A V of the skew part."""
        _, ar = self.restricted
        v = self.v_matrix
        m = v @ ar @ v
        m = (m - m.T) / 2.0
        return 1j * m

    @cached_property
    def _b_eigh(self) -> tuple[Array, Array]:
        return np.linalg.eigh(self.b_operator)

    @cached_property
    def _lc_lu(self):
        lr, ar = self.restricted
        return scipy.linalg.lu_factor(lr - ar)

    @cached_property
    def _l_lu(self):
        lr, _ = self.restricted
        return scipy.linalg.lu_factor(lr)

    # -- the solve path ----------------------------------------------------

    def reduce(self, f: Array) -> tuple[Array, float]:
        """(mean-zero coordinates of the centered real (n,) ``f``, removed shift)."""
        if np.iscomplexobj(f):
            raise ValueError("observable must be real")
        f = np.asarray(f, dtype=float)
        if f.shape != (self.n,):
            raise ValueError(f"observable has shape {f.shape}, expected ({self.n},)")
        f_centered, shift = self.center(f)
        return self.to_mean_zero(f_centered), shift

    def solve(self, rhs: Array) -> Array:
        """(L - A)^{-1} rhs in mean-zero coordinates; ``rhs`` a vector or matrix."""
        out = scipy.linalg.lu_solve(self._lc_lu, rhs)
        if not np.all(np.isfinite(out)):
            raise DiscretizationDefectError(
                "perturbed operator is singular on the mean-zero subspace"
            )
        return out

    def kernel_residual(self, fr: Array) -> tuple[Array, float]:
        """(h = L^{-1} fr, |A h| / |fr|); zero exactly when sigma2_irr = sigma2_rev."""
        h = scipy.linalg.lu_solve(self._l_lu, fr)
        _, ar = self.restricted
        fr_norm = float(np.linalg.norm(fr))
        return h, float(np.linalg.norm(ar @ h)) / max(fr_norm, 1e-300)

    def spectral_weight(self, fr: Array) -> tuple[Array, SpectralMeasure]:
        """(g = V fr, atoms of the spectral weight of g under B)."""
        g = self.v_matrix @ fr
        eigvals, eigvecs = self._b_eigh
        return g, _measure_from_eigh(eigvals, eigvecs, g)

    # -- coordinate helpers ----------------------------------------------

    def pi_inner(self, f: Array, g: Array) -> float:
        return float(np.sum(self.pi_weights * np.asarray(f) * np.asarray(g)))

    def center(self, f: Array) -> tuple[Array, float]:
        """Remove the pi-mean; returns (centered f, removed shift)."""
        shift = self.pi_inner(self.const_vec, f)
        return np.asarray(f, dtype=float) - shift * self.const_vec, shift

    def to_mean_zero(self, f: Array) -> Array:
        """Coordinates of a (centered) vector in the mean-zero basis."""
        return self.mean_zero_basis.T @ (self.pi_weights * np.asarray(f))

    def from_mean_zero(self, coords: Array) -> Array:
        return self.mean_zero_basis @ np.asarray(coords)


# --- torus grid backend -----------------------------------------------------


def _check_state_count(n: int, what: str) -> None:
    """The memory guard; called before a backend allocates or enumerates."""
    if n > MAX_STATES:
        raise ValueError(
            f"{what} with {n} states exceeds the memory guard ({MAX_STATES})"
        )


def _torus_nodes(dim: int, m: int) -> tuple[Array, Array]:
    h = 2.0 * np.pi / m
    axes = [np.arange(m) * h] * dim
    grids = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    index = np.arange(m**dim).reshape((m,) * dim)
    return points, index


def _mean_zero_basis_from_weights(pi: Array) -> Array:
    """pi-orthonormal basis of the mean-zero subspace via one Householder map.

    In the isometric coordinates f -> sqrt(pi) f the subspace is the
    orthogonal complement of the unit vector sqrt(pi); the reflector sending
    e_1 there provides an orthonormal basis of that complement in its
    remaining columns.
    """
    u = np.sqrt(pi)
    v = u.copy()
    v[0] += 1.0  # u_1 > 0, so this choice is cancellation-free
    h = np.eye(len(pi)) - (2.0 / (v @ v)) * np.outer(v, v)
    return h[:, 1:] / u[:, None]


def discretize_torus(u: Potential, c: DriftField,
                     points_per_axis: int) -> DiscretizedSystem:
    """Grid realization of (L, A, pi) on the flat torus, dim 1 or 2.

    The Laplacian part uses edge conductances e^{-(U_i+U_j)/2} between axis
    neighbors scaled by spacing^-2 and divided by the node weight, which
    makes pi L exactly symmetric as stored.  The drift matrix starts from
    centered differences of C.grad, is projected so its range is mean-zero,
    and is then pi-antisymmetrized; the norm of the discarded symmetric
    part is kept as ``antisym_correction`` (an O(spacing^2) discretization
    diagnostic for weighted-divergence-free fields).
    """
    if u.space_kind is not SpaceKind.FLAT_TORUS:
        raise ValueError("discretize_torus needs a flat-torus potential")
    if u.dim not in (1, 2):
        raise ValueError(f"torus grid supports dim 1 or 2, got {u.dim}")
    if c.dim != u.dim:
        raise ValueError(f"drift dim {c.dim} != potential dim {u.dim}")
    if points_per_axis < 8:
        raise ValueError("points_per_axis must be at least 8")
    n = points_per_axis**u.dim
    _check_state_count(n, "grid")

    m = points_per_axis
    h = 2.0 * np.pi / m
    points, index = _torus_nodes(u.dim, m)
    energy = u.eval(points)
    weight_unnorm = np.exp(-energy)
    pi = weight_unnorm / weight_unnorm.sum()

    w_edges = np.zeros((n, n))
    flat = index.ravel()
    for ax in range(u.dim):
        nb = np.roll(index, -1, axis=ax).ravel()
        cond = np.exp(-(energy[flat] + energy[nb]) / 2.0)
        w_edges[flat, nb] += cond
        w_edges[nb, flat] += cond
    degree = w_edges.sum(axis=1)
    l_matrix = ((np.diag(degree) - w_edges) / weight_unnorm[:, None]) / h**2

    cval = c.eval(points)
    a_raw = np.zeros((n, n))
    for ax in range(u.dim):
        fwd = np.roll(index, -1, axis=ax).ravel()
        bwd = np.roll(index, 1, axis=ax).ravel()
        a_raw[flat, fwd] += cval[:, ax] / (2.0 * h)
        a_raw[flat, bwd] -= cval[:, ax] / (2.0 * h)
    # project the range onto mean-zero (a_raw already kills constants row-wise)
    a_proj = a_raw - np.outer(np.ones(n), pi @ a_raw)
    a_adj = (a_proj.T * weight_unnorm[None, :]) / weight_unnorm[:, None]
    a_matrix = (a_proj - a_adj) / 2.0
    sym_part = (a_proj + a_adj) / 2.0
    denom = max(np.linalg.norm(a_proj), 1e-300)
    correction = float(np.linalg.norm(sym_part) / denom)

    return DiscretizedSystem(
        n=n, pi_weights=pi, l_matrix=l_matrix, a_matrix=a_matrix,
        mean_zero_basis=_mean_zero_basis_from_weights(pi),
        backend=TorusGrid(dim=u.dim, points_per_axis=m, spacing=h),
        const_vec=np.ones(n), points=points,
        antisym_correction=correction,
    )


# --- Gaussian / Hermite-Galerkin backend -------------------------------------


def hermite_indices(dim: int, degree: int) -> list[tuple[int, ...]]:
    """Multi-indices with total degree <= degree, graded by total degree.

    Within a degree shell the first axis carries the highest exponent first,
    so for dim 2 the linear shell reads (1, 0) then (0, 1), i.e. x1, x2.
    """
    out = []
    for total in range(degree + 1):
        shell = [alpha for alpha in _iter_product(range(total + 1), repeat=dim)
                 if sum(alpha) == total]
        out.extend(sorted(shell, reverse=True))
    return out


def discretize_gaussian_linear(q: Array, dim: int, degree: int) -> DiscretizedSystem:
    """Galerkin matrices for the standard Gaussian with drift C(x) = Q x.

    Basis: normalized probabilists' Hermite products up to the given total
    degree.  L is diagonal with eigenvalue equal to the total degree, and
    the drift operator moves weight only inside each degree shell

        (Qx).grad :  |beta>  ->  sum_{i != j} Q_ij sqrt(beta_i (beta_j + 1))
                                 |beta - e_i + e_j>,

    (the degree-lowering terms cancel pairwise by antisymmetry of Q), so the
    truncation is exact for observables inside the span.
    """
    q = antisymmetric_matrix(q, dim)
    if degree < 1:
        raise ValueError("degree must be at least 1")
    n = comb(dim + degree, dim)
    _check_state_count(n, "Hermite basis")

    idxs = hermite_indices(dim, degree)
    pos = {alpha: i for i, alpha in enumerate(idxs)}
    assert len(idxs) == n

    l_matrix = np.diag([float(sum(alpha)) for alpha in idxs])
    a_matrix = np.zeros((n, n))
    for col, beta in enumerate(idxs):
        for i in range(dim):
            if beta[i] == 0:
                continue
            for j in range(dim):
                if i == j or q[i, j] == 0.0:
                    continue
                target = list(beta)
                target[i] -= 1
                target[j] += 1
                row = pos.get(tuple(target))
                if row is not None:
                    a_matrix[row, col] += q[i, j] * np.sqrt(beta[i] * (beta[j] + 1))

    const = np.zeros(n)
    const[0] = 1.0
    return DiscretizedSystem(
        n=n, pi_weights=np.ones(n), l_matrix=l_matrix, a_matrix=a_matrix,
        mean_zero_basis=np.eye(n)[:, 1:],
        backend=GaussianLinear(dim=dim, q_matrix=q.copy()),
        const_vec=const, multi_indices=tuple(idxs),
    )


def hermite_coefficients(sys: DiscretizedSystem, func: Callable[[Array], Array],
                         poly_degree: int | None = None) -> Array:
    """Expand a polynomial observable in the Galerkin basis by quadrature.

    Exact (to rounding) when ``func`` is a polynomial of total degree at
    most ``poly_degree``; defaults to the basis degree.
    """
    if not isinstance(sys.backend, GaussianLinear):
        raise ValueError("hermite_coefficients needs the Gaussian backend")
    idxs = sys.multi_indices
    basis_degree = max(sum(a) for a in idxs)
    if poly_degree is None:
        poly_degree = basis_degree
    n_nodes = (poly_degree + basis_degree) // 2 + 1
    nodes, wts = np.polynomial.hermite_e.hermegauss(n_nodes)
    wts = wts / np.sqrt(2.0 * np.pi)

    dim = sys.backend.dim
    idx_grids = np.meshgrid(*([np.arange(n_nodes)] * dim), indexing="ij")
    node_idx = [g.ravel() for g in idx_grids]
    pts = np.stack([nodes[ni] for ni in node_idx], axis=-1)
    wgrid = np.ones(pts.shape[0])
    for ax in range(dim):
        wgrid *= wts[node_idx[ax]]
    fvals = np.asarray(func(pts), dtype=float)

    herm_1d = {}
    for k in range(basis_degree + 1):
        coeff = np.zeros(k + 1)
        coeff[k] = 1.0
        herm_1d[k] = np.polynomial.hermite_e.hermeval(nodes, coeff) / np.sqrt(
            factorial(k)
        )
    out = np.empty(sys.n)
    for i, alpha in enumerate(idxs):
        basis_vals = np.ones(pts.shape[0])
        for ax in range(dim):
            basis_vals *= herm_1d[alpha[ax]][node_idx[ax]]
        out[i] = np.sum(wgrid * basis_vals * fvals)
    return out


# --- operations ---------------------------------------------------------------


def _merge_atoms(eigvals: Array, weights: Array,
                 merge_tol: float) -> tuple[Array, Array]:
    locations, pooled = [], []
    start = 0
    for i in range(1, len(eigvals) + 1):
        if i == len(eigvals) or eigvals[i] - eigvals[i - 1] > merge_tol:
            locations.append(float(np.mean(eigvals[start:i])))
            pooled.append(float(np.sum(weights[start:i])))
            start = i
    return np.asarray(locations), np.asarray(pooled)


def _measure_from_eigh(eigvals: Array, eigvecs: Array, g: Array,
                       merge_tol: float = EIGENVALUE_MERGE_TOL) -> SpectralMeasure:
    weights = np.abs(eigvecs.conj().T @ g) ** 2
    locations, pooled = _merge_atoms(eigvals, weights, merge_tol)
    return SpectralMeasure(locations=locations, weights=pooled,
                           total_mass=float(np.sum(pooled)))


def spectral_measure(b: Array, g: Array,
                     merge_tol: float = EIGENVALUE_MERGE_TOL) -> SpectralMeasure:
    """Atoms of the spectral weight of ``g`` under the Hermitian matrix ``b``.

    Locations are the eigenvalues of ``b`` sorted ascending, with clusters
    closer than ``merge_tol`` pooled; each weight is the squared norm of the
    projection of ``g`` onto the corresponding eigenspace, so the total mass
    is |g|^2.
    """
    b = np.asarray(b)
    herm_defect = np.max(np.abs(b - b.conj().T)) if b.size else 0.0
    if herm_defect > 1e-8 * max(1.0, float(np.max(np.abs(b)))):
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
    eigvals, eigvecs = np.linalg.eigh(b)
    return _measure_from_eigh(eigvals, eigvecs, np.asarray(g), merge_tol)


def measure_symmetry_residual(measure: SpectralMeasure,
                              match_tol: float = 1e-7) -> float:
    """Largest mismatch between the masses at y and -y (0 for symmetric).

    Atoms are grouped by |location| at ``match_tol`` before comparing sides:
    inside an almost-degenerate cluster the individual weights are
    basis-dependent, but the side totals are not.
    """
    locs, wts = measure.locations, measure.weights
    order = np.argsort(np.abs(locs))
    abs_sorted = np.abs(locs)[order]
    residual = 0.0
    start = 0
    for i in range(1, len(order) + 1):
        if i == len(order) or abs_sorted[i] - abs_sorted[i - 1] > match_tol:
            members = order[start:i]
            if abs_sorted[start] > match_tol:  # the zero cluster self-mirrors
                pos = float(np.sum(wts[members[locs[members] > 0]]))
                neg = float(np.sum(wts[members[locs[members] < 0]]))
                residual = max(residual, abs(pos - neg))
            start = i
    return residual


def variance_report(sys: DiscretizedSystem, f: Array) -> VarianceReport:
    """Asymptotic variances of the observable ``f`` by both routes.

    ``f`` is given in state coordinates and is centered internally (the
    removed shift is recorded).  The resolvent route solves (L - A) h = f on
    the mean-zero subspace by direct dense factorization; the spectral route
    integrates (1 + y^2)^{-1} against the spectral weight of g = V f.
    """
    fr, shift = sys.reduce(f)
    route_resolvent = float(2.0 * fr @ sys.solve(fr))

    g, measure = sys.spectral_weight(fr)
    route_spectral = float(
        2.0 * np.sum(measure.weights / (1.0 + measure.locations**2))
    )

    sigma2_rev = float(2.0 * g @ g)
    _, residual = sys.kernel_residual(fr)
    kernel_flag = residual <= KERNEL_FLAG_RTOL

    scale = max(abs(route_resolvent), abs(route_spectral), 1e-300)
    return VarianceReport(
        sigma2_rev=sigma2_rev, sigma2_irr=route_resolvent,
        route_resolvent=route_resolvent, route_spectral=route_spectral,
        equality_gap=sigma2_rev - route_resolvent, kernel_flag=kernel_flag,
        center_shift=shift,
        route_discrepancy=abs(route_resolvent - route_spectral) / scale,
        measure=measure,
    )


def asymptotic_variances(sys: DiscretizedSystem, f: Array) -> tuple[float, float]:
    """(sigma2_rev, sigma2_irr) by direct solves only.

    Same values as :func:`variance_report` without the eigendecomposition of
    B; suitable for grid-refinement studies where only the numbers matter.
    """
    fr, _ = sys.reduce(f)
    h0, _ = sys.kernel_residual(fr)
    return float(2.0 * fr @ h0), float(2.0 * fr @ sys.solve(fr))


def generator_gaps(sys: DiscretizedSystem) -> tuple[float, float]:
    """(smallest eigenvalue of L, min real part of spec(L - A)), mean-zero.

    The perturbed real part can only move up: a perturbed eigenpair
    (mu, v) satisfies Re mu = <v, L v>/|v|^2 >= min eig(L).
    """
    w, _ = sys.l_eigh
    lr, ar = sys.restricted
    eigs = np.linalg.eigvals(lr - ar)
    return float(w[0]), float(eigs.real.min())
