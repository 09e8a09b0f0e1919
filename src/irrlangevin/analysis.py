"""Equality detection, worst-case comparison, and growing-drift sweeps.

Everything here is a consequence of the spectral form of the perturbed
variance: with atoms (y_j, w_j) of the spectral weight of g = L^{-1/2} f
under iM, where M = V A V is real antisymmetric and the atoms sit at the
singular values of M taken with both signs,

    sigma2_{k}(f) = 2 sum_j w_j / (1 + k^2 y_j^2),

which is non-increasing in the drift scale k, tends to twice the mass at
y = 0 (the kernel component of g), and equals the reversible value exactly
when the drift operator annihilates L^{-1} f.  The atoms come from the SVD
of F^{-T} A_E F^{-1}, with F the sparse factor of the grounded energy
matrix L_E = F^T F and A_E the grounded A, whose right singular vectors
the system caches as the Householder panels of their QR, in half an array
(:mod:`irrlangevin.spectral_oracle`).
``worst_case`` caches nothing of its own: it reads L's eigenvalues and its
lowest eigenspace from the system's cached tridiagonal reduction, finds the
part of that eigenspace that the drift annihilates by the equality
certificate's own rule, through one thin SVD of A on the eigenspace's few
columns (so the kernel of A is never computed), and takes the top
eigenvalue of the symmetrized resolvent off that intersection by Lanczos,
each product two solves with the invariant blocks' cached LUs of L - S,
so the resolvent is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DiscretizationDefectError
from .spectral_oracle import (
    KERNEL_FLAG_RTOL,
    DiscretizedSystem,
    SpectralMeasure,
)

Array = np.ndarray

WEIGHT_RTOL = 1e-12  # atoms lighter than this share of the mass carry none


@dataclass
class KSweepResult:
    """Variance of one observable across drift scales k.

    ``limit_prediction`` is twice the spectral mass at zero (the k -> inf
    value); ``b_gap`` is the distance from zero to the nearest atom carrying
    weight, or None when all weight sits at zero.
    """

    k_values: Array
    sigma2_values: Array
    limit_prediction: float
    b_gap: float | None
    measure: SpectralMeasure  # atoms at unit scale, reused for every k


@dataclass
class WorstCaseResult:
    """Suprema of the variances over unit-norm observables.

    ``sup_rev`` is 2 / lambda with lambda the smallest mean-zero eigenvalue
    of L.  ``sup_irr`` maximizes the quadratic form of the symmetrized
    resolvent; ``strict`` records a genuine gap.  The equality residuals
    |A v| / lambda along the right singular directions v of A on the
    lambda-eigenspace of L, ascending, are kept so borderline intersection
    counts can be audited.
    """

    sup_rev: float
    sup_irr: float
    strict: bool
    kernel_intersection_dim: int
    lambda_min: float
    l_eigenspace_dim: int
    eigenspace_residuals: Array


@dataclass
class EqualityCertificate:
    equal: bool
    witness: Array  # state-space solution of L h = f
    residual: float  # |A h|_pi relative to |f|_pi


def sweep_k(sys_builder: Callable[[float], DiscretizedSystem], f: Array,
            k_values: Sequence[float]) -> KSweepResult:
    """Evaluate sigma2_{k}(f) over drift scales by one SVD.

    ``sys_builder`` maps a drift scale to the discretized system; only the
    unit scale is built, because M scales linearly in k so every value
    follows from the same atoms.  ``k_values`` must be sorted ascending and
    start at 0 (whose entry reproduces the reversible variance), all finite.
    """
    k_arr = np.asarray(k_values, dtype=float)
    if k_arr.ndim != 1 or len(k_arr) == 0:
        raise ValueError("k_values must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(k_arr)):
        raise ValueError(f"k_values must be finite, got {k_arr.tolist()}")
    if np.any(np.diff(k_arr) <= 0):
        raise ValueError("k_values must be sorted strictly ascending")
    if k_arr[0] != 0.0:
        raise ValueError("k_values must include k = 0 as the first entry")

    sys = sys_builder(1.0)
    fr, _ = sys.reduce(f)
    measure = sys.spectral_weight(fr)

    locs, wts = measure.locations, measure.weights
    sigma2 = 2.0 * np.array(
        [np.sum(wts / (1.0 + (k * locs) ** 2)) for k in k_arr]
    )

    at_zero = locs == 0.0  # the zero cluster, pooled by spectral_weight
    limit = float(2.0 * np.sum(wts[at_zero]))

    carrying = (~at_zero) & (wts > WEIGHT_RTOL * max(measure.total_mass, 1e-300))
    b_gap = float(np.min(np.abs(locs[carrying]))) if np.any(carrying) else None

    return KSweepResult(k_values=k_arr, sigma2_values=sigma2,
                        limit_prediction=limit, b_gap=b_gap, measure=measure)


def worst_case(sys: DiscretizedSystem) -> WorstCaseResult:
    """Compare the worst observables of the two dynamics.

    For real f, sigma2_irr(f) = <(R + R*) f, f>_pi with R the inverse of the
    perturbed operator, so the supremum over unit-norm f is the largest
    eigenvalue of R + R^T in mean-zero coordinates.  On the lowest
    eigenspace of L, with orthonormal basis W, L^{-1} W = W / lambda, so
    the equality certificate of W v is |A W v| / lambda; the right singular
    directions of A W / lambda whose singular values pass
    ``KERNEL_FLAG_RTOL`` span the intersection of that eigenspace with the
    kernel of A.  R + R^T is exactly 2 / lambda there, and its largest
    eigenvalue on the complement is found by Lanczos (ARPACK) from a fixed
    start vector.  A run that does not converge raises
    :class:`DiscretizationDefectError`.
    """
    import scipy.linalg

    lam, l_space = sys._l_spectrum
    sup_rev = 2.0 / lam

    a_l = sys.to_mean_zero(sys.s_matrix @ sys.from_mean_zero(l_space)) / lam
    _, residuals, vt = scipy.linalg.svd(a_l, full_matrices=False)
    passing = residuals <= KERNEL_FLAG_RTOL
    intersection = int(np.sum(passing))

    # (L - A) v = lam v on the intersection, so R + R^T is 2 / lam there
    # exactly; Lanczos runs on the orthogonal complement, which R + R^T
    # maps to itself
    common = l_space @ vt[passing].T
    size = sys.n - 1

    def project(x: Array) -> Array:
        return x - common @ (common.T @ x)

    def sym(x: Array) -> Array:
        x = project(x)
        return project(sys.solve(x) + sys.solve(x, adjoint=True))

    sup_irr = sup_rev if intersection else -np.inf
    if intersection < size:  # every one-state mean-zero space is common
        from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

        start = project(np.random.default_rng(0).standard_normal(size))
        try:
            top = eigsh(LinearOperator((size, size), matvec=sym, dtype=float),
                        k=1, which="LA", tol=0, v0=start,
                        return_eigenvectors=False)[0]
        except ArpackNoConvergence as exc:
            raise DiscretizationDefectError(
                "Lanczos did not converge on the symmetrized resolvent") from exc
        sup_irr = max(sup_irr, float(top))

    return WorstCaseResult(
        sup_rev=sup_rev, sup_irr=sup_irr,
        strict=bool(sup_rev - sup_irr > 1e-9),
        kernel_intersection_dim=intersection, lambda_min=lam,
        l_eigenspace_dim=int(l_space.shape[1]),
        eigenspace_residuals=residuals[::-1],
    )


def equality_certificate(sys: DiscretizedSystem, f: Array) -> EqualityCertificate:
    """Decide sigma2_irr(f) = sigma2_rev(f) by testing A (L^{-1} f) = 0.

    Returns the solve h = L^{-1} f as the witness either way; ``equal`` is
    True when |A h|_pi <= KERNEL_FLAG_RTOL |f|_pi, as ``kernel_flag`` of
    :func:`irrlangevin.spectral_oracle.variance_report`.
    """
    fr, _ = sys.reduce(f)
    h, residual = sys.kernel_residual(fr)
    return EqualityCertificate(
        equal=bool(residual <= KERNEL_FLAG_RTOL),
        witness=sys.from_mean_zero(h),
        residual=residual,
    )
