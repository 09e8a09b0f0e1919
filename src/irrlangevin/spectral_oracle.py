"""Exact finite-dimensional oracle for the variance-reduction inequality.

Two discretizations realize the operator triple (L, A, pi) on a finite
state space, with L the energy operator of the reversible dynamics, A the
skew drift operator, and pi the stationary weights:

* a flat-torus grid in any dimension, where L is a weighted-graph Laplacian
  with geometric-mean edge conductances e^{-(U_i+U_j)/2} -- symmetric in
  the pi-inner product by construction -- and A comes from centered
  differences of C.grad, projected to annihilate constants and
  pi-antisymmetrized;
* a Hermite-polynomial Galerkin basis for the standard Gaussian, where L
  is diagonal (eigenvalue = total polynomial degree) and the drift (Qx).grad
  maps each degree subspace to itself, so the truncation is exact for
  observables inside the span.

Both store L and a pi-antisymmetric drift stencil S as ``scipy.sparse``
arrays in O(n) memory, with int32 indices, SuperLU's own index type, from
the stencil on: every array derived from them keeps it, and no
factorization copies them.  The drift operator is A = P S P, with P the
pi-orthogonal projection onto the mean-zero subspace, and the rank-one
parts that P adds vanish in every quantity taken on that subspace.  On it,
the asymptotic variance of a centered observable f is computed by two
independent routes:

* resolvent: solve (L - A) h = f and return 2 <f, h>_pi, through one
  sparse LU of L - S in the coordinates of the invariant blocks below,
  bordered by the mean-zero constraint in the block that holds the
  constants (O(n) memory), its columns ordered by minimum degree on a
  system with grid nodes;
* spectral: with V = L^{-1/2} and the real antisymmetric M = V A V,
  expand g = V f in the singular vectors of M and return
  2 sum_j w_j / (1 + y_j^2), where the atoms (y_j, w_j) form the spectral
  weight of g under iM.  The eigenvalues of iM are the singular values of
  M with both signs, and a real g puts equal weight on +s and -s, so the
  measure is built from one real SVD and is symmetric about 0 by
  construction.  Any factor F with F^T F = E^T pi L E, for a basis E of
  the mean-zero subspace, serves in place of V: the columns of
  O = V^{-1} E F^{-1} are pi-orthonormal, so F^{-T} (E^T pi A E) F^{-1} =
  O^T pi M O and F^{-T} E^T pi f = O^T pi g have the same atoms.  The
  route therefore needs a factor of L, not its eigendecomposition.

The reversible value is sigma2_rev = 2 <f, L^{-1} f>, by the spectral
route's factor of L; since every weight is nonnegative, the perturbed
value never exceeds it.  Route agreement and the operator-structure
identities are the acceptance gates of the package, not trusted by
construction alone.

Every analysis goes through one solve path, the methods ``reduce``,
``solve``, ``kernel_residual`` and ``spectral_weight`` of
:class:`DiscretizedSystem`; the factorizations behind them stay private,
and every sparse solve is a ``SuperLU.solve`` on a cached factor.  A is
never formed densely.

Every step works in the coordinates of the invariant blocks
(``_blocks``), each a subspace that L and S map to themselves, spanned by
the columns of a sparse basis B of its functions (:class:`_Block`): a
block function is B x, x its coordinates.  The Hermite degree shells are
blocks as they stand, B selecting each shell's states.  On a torus grid
whose pi, L and S commute with the inversion x -> -x (an even U with an
odd drift, such as Q grad U), the blocks are the even and the odd
functions, each column 1 at a node and +-1 at its mirror, or 1 at a
fixed node; ``discretize_torus`` makes the commutation exact where it
holds to rounding.  Anything else is one block, B = I on the states
themselves.  The mean-zero coordinates are the blocks' in turn; only the
block that holds the constants drops one, by a Householder reflector
applied in O(n).  So L, A, the factor of L and everything dense below are
block-diagonal with structural zeros, and each block runs the chain alone:
the cached atoms and eigenvalues are the union over the blocks, and a
dense step holds one block's arrays at a time.  ``solve`` takes one
bordered LU (``_lc_factor``) of the blocks' L - S stacked on the diagonal,
so it stays in the blocks' coordinates and its factors have no entry
between two blocks.

Every solve with L grounds one coordinate g of the block with the
constants, with (w c)_g != 0: E = P J projects that block's other unit
vectors onto the mean-zero subspace, so L_E = E^T pi L E = (w L)[keep, keep]
(L annihilates constants) and A_E = E^T pi A E is the same restriction of
w S plus two rank-one terms; every other block keeps all its
coordinates.  Each block's ``factor`` is SuperLU's L_E = P^T L D L^T P in
minimum-degree order with diagonal pivots; its U = D L^T becomes
F = D^{1/2} L^T in place, and SuperLU's factor of the triangular F, whose
L is the identity, makes the solves with F = D^{1/2} L^T P and F^T.  F is
sparse, and the diagonal sqrt(degree) on the Hermite basis.
``kernel_residual`` solves L h = f as h = E F^{-1} F^{-T} (w f)[keep], and
a zero or negative pivot refuses it as it refuses the spectral chain.  The
chain fills m = F^{-T} A_E F^{-1} a block of columns at a time by these
solves, reduces it to a skew-tridiagonal T = Q^T m Q (``_skew_tridiagonal``),
keeps Q's reflectors as compact-WY panels in half an array while it takes
the SVD of a bidiagonal matrix of half the size (``_bidiagonal_svd``),
applies them to the singular vectors, and keeps the Householder QR of that
basis O in panels of half an array (``_skew_svd``).  Each block caches
what its chain yields (``chain``): the singular values, those panels, so
the masses of the atoms are the squares of O^T F^{-T} b with
b = (w f)[keep], and max |m + m^T| of m as the solves left it, which the
acceptance matrix reads as its antisymmetry check.  Neither Q nor O is
formed.  A system caches the O(n) eigenvalues of L.
The eigenvalues of L and ``generator_gaps`` fill each block's dense
restriction, a block of columns at a time in O(n nnz) and without a dense
basis; A is never restricted densely.  ``worst_case`` reads L's lowest
eigenspace from that cache and applies A to its few columns alone, and
never forms the resolvent, whose transpose ``solve`` also applies.  Every
dense LAPACK call and level-3 product is scipy's, and each LAPACK call
overwrites its input, handed over as it is; ``scipy.linalg`` is imported
where it is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import DiscretizationDefectError
from .model import DriftField, Potential, SpaceKind, antisymmetric_matrix

# scipy.sparse and scipy.sparse.linalg are imported where sparse arrays are
# built, and scipy.linalg where dense matrices are decomposed, so
# simulation-only users of the package never load them.  After
# ``import irrlangevin.cli`` on a 2-core Xeon, in fresh interpreters,
# scipy.sparse took 115 to 195 ms and loaded 296 modules, then
# scipy.sparse.linalg, which loads scipy.linalg too, 100 to 150 ms more;
# scipy.linalg alone took 220 to 310 ms.
if TYPE_CHECKING:
    import scipy.sparse
    import scipy.sparse.linalg

Array = np.ndarray

# The build and the sparse solves are O(n), with int32 sparse indices (at
# n = 4096 the build grows RSS by 2.5 to 2.7 MB, and build and solves by 7.5
# to 9.3 MB, by glibc's mmap threshold).  The spectral route,
# worst_case's restriction of L and generator_gaps stay dense, one block at
# a time: at n = 4096 in two parity blocks variance_report (with
# generator_gaps) grows RSS by 96 MB and worst_case by 46 MB, so about
# 0.28 GB and 0.14 GB at this cap (extrapolated by n^2, not run); as one
# block they grew it by 265 MB and 161 MB.
MAX_STATES = 7000
EIGENVALUE_MERGE_TOL = 1e-9  # absolute; degenerate clusters pool their weights
KERNEL_FLAG_RTOL = 1e-9
_PANEL = 32  # reflectors per compact-WY panel of the cached singular basis
# pi, L and S of a torus grid that commute with x -> -x to this relative
# rounding are made to commute exactly (measured: 5e-16 on L at m = 24 to 40)
_MIRROR_RTOL = 1e-12


@dataclass
class SpectralMeasure:
    """Atoms of the spectral weight of a vector: sum_j w_j delta_{y_j}.

    Locations ascend; ``total_mass`` equals the squared norm of the vector.
    The weights at y and -y are equal, and a kernel component sits in one
    atom at 0.
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
    route_spectral: float
    equality_gap: float
    kernel_flag: bool
    center_shift: float
    route_discrepancy: float
    measure: SpectralMeasure


@dataclass(frozen=True)
class _EnergyFactor:
    """F = D^{1/2} L^T P with F^T F = P^T L D L^T P = L_E on one block's
    kept coordinates, and P x = x[argsort(perm)].

    ``triangular`` is SuperLU's factor of the upper triangular F itself,
    whose L is the identity and whose U is F, so both solves are SuperLU's.
    """

    keep: Array  # every coordinate of the block but the grounded one
    perm: Array
    triangular: scipy.sparse.linalg.SuperLU

    def solve(self, x: Array) -> Array:
        """F^{-1} x for the columns of the (N, k) ``x``."""
        return self.triangular.solve(x)[self.perm]

    def solve_t(self, x: Array) -> Array:
        """F^{-T} x for the columns of the (N, k) ``x``."""
        y = np.empty_like(x)
        y[self.perm] = x
        return self.triangular.solve(y, trans="T")


@dataclass
class _Block:
    """One invariant block: functions that L and S map to themselves, the
    columns of a sparse basis.

    Column k of ``basis`` (n rows, int32 indices) is the function that is 1
    at one state and +-1 at that state's mirror where the two differ, the
    state first, so x holds a block function's values at the first state
    of each column.  In these coordinates <x, y>_pi = sum_k w_k x_k y_k
    with w = ``weights`` = (B o B)^T pi; ``l_matrix`` and ``s_matrix`` are
    L and S, and ``const`` the coordinates of the constant function if the
    block holds it, else None.  Mean-zero coordinates are sqrt(w) x, less
    their first after the reflector sending e_1 to -sqrt(w) const where the
    block holds the constants; they are the system's from ``offset`` on.
    The block caches its sparse factor of L and its spectral chain.
    """

    basis: scipy.sparse.csc_array
    weights: Array
    const: Array | None
    l_matrix: scipy.sparse.sparray
    s_matrix: scipy.sparse.sparray
    offset: int

    @property
    def size(self) -> int:
        """The number of mean-zero coordinates."""
        return len(self.weights) - (self.const is not None)

    def gather(self, f: Array) -> Array:
        """Coordinates of the part in this block of the state vector(s) ``f``:
        B^T f over each column's entry count."""
        return ((self.basis.T @ f).T / np.diff(self.basis.indptr)).T

    def scatter_add(self, x: Array, out: Array) -> None:
        """Add the state vector(s) B x with coordinates ``x`` to ``out``."""
        out += self.basis @ x

    @cached_property
    def _householder(self) -> tuple[Array, Array | None, float]:
        """(sqrt(w), v, beta) of the reflector sending e_1 to -sqrt(w) const,
        v None where the block does not hold the constants.

        In the isometric coordinates x -> sqrt(w) x the mean-zero subspace is
        the orthogonal complement of the unit vector u = sqrt(w) const, which
        the reflector maps onto span(e_2, ...).  u_1 > 0 on both backends, so
        v = u + e_1 is cancellation-free.
        """
        root = np.sqrt(self.weights)
        if self.const is None:
            return root, None, 0.0
        v = root * self.const
        v[0] += 1.0
        return root, v, 2.0 / (v @ v)

    def to_mean_zero(self, x: Array) -> Array:
        """Mean-zero coordinates of the (k,) or (k, j) block coordinates ``x``."""
        root, v, beta = self._householder
        y = (root * np.asarray(x).T).T
        if v is None:
            return y
        y -= np.multiply.outer(v, beta * (v @ y))
        return y[1:]

    def from_mean_zero(self, coords: Array) -> Array:
        """Block coordinates with the given mean-zero coordinates."""
        root, v, beta = self._householder
        x = np.asarray(coords)
        if v is not None:
            x = np.concatenate([np.zeros((1,) + x.shape[1:]), x])
            x -= np.multiply.outer(v, beta * (v @ x))
        return (x.T / root).T

    def center(self, x: Array) -> Array:
        """``x`` less its pi-mean."""
        if self.const is None:
            return x
        return x - float(np.sum(self.weights * self.const * x)) * self.const

    def restrict(self, op, sign: float) -> Array:
        """The block operator ``op`` compressed to the mean-zero coordinates,
        in O(n nnz).

        One Fortran-ordered array is filled a block of columns at a time,
        column j being the mean-zero coordinates of ``op`` applied to basis
        vector j, so the dense basis is never formed.  It is then made
        exactly symmetric (``sign`` = 1) or antisymmetric (``sign`` = -1) in
        place, or left as it is (``sign`` = 0).
        """
        size = self.size
        out = _by_column_blocks(size, lambda j, k: self.to_mean_zero(
            op @ self.from_mean_zero(np.eye(size, k - j, -j))))
        if sign:
            _symmetrize(out, sign)
        return out

    def grounded_energy(self) -> tuple[Array, scipy.sparse.sparray]:
        """(keep, L_E): the kept coordinates and the grounded energy matrix
        L_E = (w L)[keep, keep].

        The grounded coordinate g has the largest w const^2, which keeps the
        Gram matrix of E furthest from singular; a block without the
        constants keeps every coordinate, since there E = I.
        """
        import scipy.sparse

        keep = np.arange(len(self.weights))
        if self.const is not None:
            keep = np.delete(keep, np.argmax(self.weights * self.const**2))
        pi_l = scipy.sparse.diags_array(self.weights) @ self.l_matrix
        return keep, pi_l.tocsr()[keep][:, keep]

    @cached_property
    def factor(self) -> _EnergyFactor | None:
        """Sparse F = D^{1/2} L^T P of the grounded L_E, None on a zero,
        negative or off-diagonal pivot.

        SuperLU orders by minimum degree and takes its pivots on the diagonal
        (``SymmetricMode`` with ``diag_pivot_thresh`` 0), so its row order is
        its column order and U = D L^T; its rows are scaled by D^{-1/2} in
        place, the diagonal set to sqrt(D) exactly, and the result factored
        again in its own order with diagonal pivots, which adds no entry.  A
        Hermite shell's L_E is diagonal, so its solves give the same bits in
        any order.
        """
        from scipy.sparse.linalg import splu

        keep, energy = self.grounded_energy()
        on_diagonal = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}
        try:
            lu = splu(energy.tocsc(), permc_spec="MMD_AT_PLUS_A", **on_diagonal)
        except RuntimeError:  # how SuperLU reports a zero pivot
            return None
        f = lu.U
        d = f.diagonal()
        if not (np.all(d > 0.0) and np.array_equal(lu.perm_r, lu.perm_c)):
            return None
        perm = lu.perm_c.copy()  # perm_c is a view that keeps lu alive
        del lu  # SuperLU's factors of L_E go before those of F are made
        root = np.sqrt(d, out=d)
        f.data /= root[f.indices]
        f.setdiag(root)
        return _EnergyFactor(keep, perm, splu(f, permc_spec="NATURAL", **on_diagonal))

    @cached_property
    def chain(self) -> tuple[Array, tuple[Array, list], float]:
        """:func:`_skew_svd` of m = F^{-T} A_E F^{-1} = O^T pi M O, with O
        pi-orthonormal: M's singular values, the panels of H with
        O^T = H diag(signs), about half the block's array, and m's residual;
        read once ``DiscretizedSystem._factored`` has checked ``factor``."""
        return _skew_svd(self.congruence())

    def congruence(self) -> Array:
        """m = F^{-T} A_E F^{-1} as the sparse solves leave it, filled a block
        of columns at a time.

        A_E = E^T pi A E = K + w t^T - t w^T, with K the grounded rows and
        columns of the antisymmetric part X of w S, t = X const and
        w = w const on the kept coordinates, and A_E = K in a block without
        the constants; X is exactly antisymmetric, so m is antisymmetric up
        to the rounding of the solves.
        """
        import scipy.sparse

        keep = self.factor.keep
        pi_s = scipy.sparse.diags_array(self.weights) @ self.s_matrix
        pi_s = ((pi_s - pi_s.T) / 2.0).tocsr()
        k_mat = pi_s[keep][:, keep]
        if self.const is not None:
            t = (pi_s @ self.const)[keep]
            w = (self.weights * self.const)[keep]
        size = self.size

        def columns(j: int, k: int) -> Array:
            x = self.factor.solve(np.eye(size, k - j, -j))
            y = k_mat @ x
            if self.const is not None:
                y += np.outer(w, t @ x)
                y -= np.outer(t, w @ x)
            del x
            return self.factor.solve_t(y)

        return _by_column_blocks(size, columns)

    def l_eigen(self, ceiling: float) -> tuple[Array, Array | None]:
        """(w, y): the restricted L's eigenvalues, ascending, and orthonormal
        eigenvectors of their lowest cluster, those within 1e-8 max(w[0], 1)
        of w[0], in mean-zero coordinates; y is None when w[0] <= 0 or
        w[0] > ``ceiling``, above which no vector is kept.

        ``dsytrd`` overwrites the restriction with T = Q^T L Q tridiagonal,
        keeping Q as reflectors where ``dgehrd`` keeps them; ``dsterf`` gives
        T's eigenvalues, ``dstebz`` and ``dstein`` the cluster's vectors,
        mapped back by :func:`_hessenberg_q_times`.
        """
        import scipy.linalg
        from scipy.linalg import lapack

        h, d, e, tau, _ = lapack.dsytrd(
            self.restrict(self.l_matrix, 1.0), lower=1, overwrite_a=1,
            lwork=int(lapack.dsytrd_lwork(self.size, lower=1)[0]))
        w = scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True,
                                          lapack_driver="sterf")
        if not 0.0 < w[0] <= ceiling:
            return w, None
        dim = int(np.sum(np.abs(w - w[0]) <= _cluster_tol(w[0])))
        _, y = scipy.linalg.eigh_tridiagonal(d, e, select="i",
                                             select_range=(0, dim - 1))
        return w, _hessenberg_q_times(h, tau, y)


def _cluster_tol(lowest: float) -> float:
    """The width of the lowest eigenvalue cluster of L."""
    return 1e-8 * max(lowest, 1.0)


def _function_basis(n: int, rep: Array, mirror: Array, sign: float):
    """The sparse n x len(rep) basis of a block (see :class:`_Block`): column
    k is 1 at state ``rep[k]`` and ``sign`` at ``mirror[k]`` where the two
    differ."""
    import scipy.sparse

    moved = np.flatnonzero(mirror != rep)
    return scipy.sparse.csc_array(
        (np.concatenate([np.ones(len(rep)), np.full(len(moved), sign)]),
         (np.concatenate([rep, mirror[moved]], dtype=np.int32),
          np.concatenate([np.arange(len(rep)), moved], dtype=np.int32))),
        shape=(n, len(rep)))


def _grid_mirror(dim: int, m: int) -> Array:
    """The index of the node -x for every node x of the m^dim torus grid."""
    flip = -np.arange(m) % m
    return np.arange(m**dim).reshape((m,) * dim)[np.ix_(*[flip] * dim)].ravel()


def _mirrored(op, mirror: Array):
    """R op R^T for the permutation R of ``mirror``, a sparse array."""
    return op.tocsr()[mirror][:, mirror]


@dataclass
class DiscretizedSystem:
    """pi-weighted sparse realization of (L, A) on a finite state space.

    ``pi_weights`` are the inner-product weights: <f, g>_pi =
    sum_i pi_i f_i g_i.  ``const_vec`` holds the coordinates of the constant
    function 1 (the all-ones vector on the grid; the first basis vector in
    the Galerkin backend), normalized so <1, 1>_pi = 1.  ``l_matrix`` is L
    and ``s_matrix`` a pi-antisymmetric stencil S of the drift, both
    ``scipy.sparse`` arrays with int32 indices, SuperLU's own index type, as
    the discretizers build them: a stored entry costs 12 bytes, and the
    folded blocks, the grounded L_E and the bordered L - S keep the type, so
    ``splu`` factors them without copying an index.  The drift operator is
    A = P S P with P = I - c (pi c)^T, the pi-orthogonal projection onto the
    mean-zero subspace; the rank-one parts of P S P vanish in every quantity
    taken on that subspace, so the solves use S itself and A is never
    densified.
    A torus system carries its grid nodes ``points`` and a Hermite system
    its ``multi_indices``; the nodes also tell the LU of L - S to order
    the states by minimum degree.  The dense steps run one invariant block
    at a time (``_blocks``), and the sparse solves in the blocks'
    coordinates: the LU of L - S (``_lc_factor``) stacks the blocks'
    folded L - S, so at torus m = 64 in two parity blocks its L + U hold
    141,344 entries against 218,566 on the whole state space (-35 %).
    Treat instances as immutable; derived factorizations are cached on
    first use and shared by all operations.
    """

    n: int
    pi_weights: Array
    l_matrix: scipy.sparse.sparray
    s_matrix: scipy.sparse.sparray
    const_vec: Array
    points: Array | None = None  # torus node coordinates, (n, dim)
    multi_indices: tuple | None = None  # Hermite exponents per basis vector
    antisym_correction: float = 0.0  # size of the discarded symmetric part of A

    # -- cached factorizations -------------------------------------------

    @cached_property
    def _blocks(self) -> tuple[_Block, ...]:
        """The invariant blocks that the dense steps run on one at a time,
        each with at least one mean-zero coordinate, in coordinate order.

        A Hermite basis whose L and S have no entry between two degree
        shells is cut into its shells.  A torus grid whose pi, constants, L
        and S commute exactly with the inversion x -> -x is cut into its
        even and odd functions: the even block holds each fixed node and
        one node of each mirror pair, the odd block one node of each pair.
        Anything else is one block, the states themselves.  Each block is
        the columns of its sparse basis B (:class:`_Block`), whatever the
        cut: L and S fold to (op B)[rep], rep the first state of each
        column, the weights are (B o B)^T pi and the constants' coordinates
        are gathered; only the block of all states keeps the system's L and
        S themselves, uncopied.
        """
        index = np.arange(self.n)
        groups = [(index, index, 1.0)]
        if self.multi_indices is not None:
            degree = np.array([sum(a) for a in self.multi_indices])
            if all(np.array_equal(degree[op.row], degree[op.col])
                   for op in (self.l_matrix.tocoo(), self.s_matrix.tocoo())):
                groups = [(shell, shell, 1.0) for shell in
                          (np.flatnonzero(degree == d) for d in np.unique(degree))]
        elif self.points is not None:
            dim = self.points.shape[1]
            mirror = _grid_mirror(dim, round(self.n ** (1.0 / dim)))
            if (len(mirror) == self.n
                    and np.array_equal(self.pi_weights[mirror], self.pi_weights)
                    and np.array_equal(self.const_vec[mirror], self.const_vec)
                    and all((_mirrored(op, mirror) != op).nnz == 0
                            for op in (self.l_matrix, self.s_matrix))):
                even = np.flatnonzero(index <= mirror)
                odd = np.flatnonzero(index < mirror)
                groups = [(even, mirror[even], 1.0), (odd, mirror[odd], -1.0)]
        blocks, offset = [], 0
        for rep, mirror, sign in groups:
            basis = _function_basis(self.n, rep, mirror, sign)
            folded = [op if len(rep) == self.n else (op @ basis).tocsr()[rep]
                      for op in (self.l_matrix, self.s_matrix)]
            block = _Block(basis, (basis * basis).T @ self.pi_weights, None,
                           *folded, offset)
            const = block.gather(self.const_vec)
            block.const = const if np.any(const) else None
            if block.size:
                blocks.append(block)
                offset += block.size
        return tuple(blocks)

    @cached_property
    def _l_spectrum(self) -> tuple[Array, Array]:
        """(w, vectors): the restricted L's eigenvalues, ascending and checked
        positive, and orthonormal eigenvectors of its lowest cluster, those
        within 1e-8 max(w[0], 1) of w[0], in mean-zero coordinates.

        Each block's ``dsytrd`` runs in turn (:meth:`_Block.l_eigen`); the
        eigenvalues are their union, and the cluster's vectors those of the
        blocks' own lowest clusters that fall within it.  A block forms its
        cluster's vectors only if its lowest eigenvalue is within the
        cluster's width of the lowest one so far, since no other can fall
        within it (Hermite d=5 degree 8 forms the 5 of its first shell, not
        the 1,286 of all eight).  A failed check raises on every access,
        since nothing is cached then.
        """
        parts, lowest = [], np.inf
        for block in self._blocks:
            parts.append(block.l_eigen(lowest + _cluster_tol(lowest)))
            lowest = min(lowest, parts[-1][0][0])
        w = np.sort(np.concatenate([part[0] for part in parts]))
        if w[0] <= 0.0:
            raise _not_positive_definite(w[0])
        dims = [0 if y is None else
                int(np.sum(np.abs(wb[:y.shape[1]] - w[0]) <= _cluster_tol(w[0])))
                for wb, y in parts]
        vectors = np.zeros((self.n - 1, sum(dims)))
        col = 0
        for block, (_, y), dim in zip(self._blocks, parts, dims):
            if dim:
                vectors[block.offset:block.offset + block.size,
                        col:col + dim] = y[:, :dim]
                col += dim
        return w, vectors

    @cached_property
    def _factored(self) -> tuple[_Block, ...]:
        """The blocks, once each has factored its grounded L_E
        (:attr:`_Block.factor`); a zero, negative or off-diagonal pivot in
        any raises :class:`DiscretizationDefectError` with the smallest
        eigenvalue of the restricted L."""
        if any(block.factor is None for block in self._blocks):
            raise _not_positive_definite(self._l_spectrum[0][0])
        return self._blocks

    @cached_property
    def _lc_factor(self) -> scipy.sparse.linalg.SuperLU:
        """Sparse LU of L - S in the blocks' coordinates, bordered by the
        mean-zero constraint in the block that holds the constants.

        The matrix stacks each block's l_matrix - s_matrix on the diagonal,
        the blocks' coordinates one after another in block order; the block
        with constant coordinates c adds the column c and the row (w c)^T.
        Its solution for [f; 0], f centered, is in that block the x with
        (w c)^T x = 0 and (L - S) x - f a multiple of c, which is
        (L - A)^{-1} f on the mean-zero subspace: there P S P and S differ
        only by a multiple of c, which the border absorbs; every other block
        is mean-zero as it stands.  No entry couples two blocks, so none is
        filled in between: at torus m = 32, 40 and 64 in two parity blocks
        L + U hold 26,678, 45,996 and 141,344 entries against 40,390, 71,158
        and 218,566 for the same LU on the whole state space, and the
        Hermite shells, or a torus that is one block, factor as before.  An
        exactly singular factor raises :class:`DiscretizationDefectError`.

        On a torus grid the columns are ordered by SuperLU's minimum degree
        on the pattern of B^T + B (B the bordered matrix), which cut the fill
        by 34 to 47 % against COLAMD on the whole state space (m = 16 to 83);
        the Hermite basis keeps COLAMD, since there minimum degree took 3 to
        7 times as long.
        """
        import scipy.sparse
        from scipy.sparse.linalg import splu

        bordered = scipy.sparse.block_diag(
            [block.l_matrix - block.s_matrix for block in self._blocks],
            format="csc")
        if self._border:
            c = np.concatenate([block.gather(self.const_vec) for block in self._blocks])
            w = np.concatenate([block.weights for block in self._blocks])
            bordered = scipy.sparse.bmat(
                [[bordered, scipy.sparse.csc_array(c[:, None])],
                 [scipy.sparse.csc_array((w * c)[None]), None]], format="csc")
        order = "COLAMD" if self.points is None else "MMD_AT_PLUS_A"
        try:
            return splu(bordered, permc_spec=order)
        except RuntimeError as exc:  # how SuperLU reports a zero pivot
            raise _perturbed_singular() from exc

    @cached_property
    def _border(self) -> int:
        """1 when a block holds the constants, so ``_lc_factor`` is
        bordered, else 0 (a Hermite basis drops its degree-0 shell)."""
        return int(any(block.const is not None for block in self._blocks))

    # -- the solve path ----------------------------------------------------

    def reduce(self, f: Array) -> tuple[Array, float]:
        """(mean-zero coordinates of the centered finite real (n,) ``f``, shift)."""
        if np.iscomplexobj(f):
            raise ValueError("observable must be real")
        f = np.asarray(f, dtype=float)
        if f.shape != (self.n,):
            raise ValueError(f"observable has shape {f.shape}, expected ({self.n},)")
        if not np.all(np.isfinite(f)):
            raise ValueError("observable must be finite")
        f_centered, shift = self.center(f)
        return self.to_mean_zero(f_centered), shift

    def solve(self, rhs: Array, adjoint: bool = False) -> Array:
        """(L - A)^{-1} rhs in mean-zero coordinates, or with ``adjoint`` its
        transpose (L + A)^{-1} rhs; ``rhs`` a vector or matrix.

        One solve with the bordered LU in the blocks' coordinates
        (``_lc_factor``), whose non-finite result is a defect: each block's
        part of ``rhs`` in its coordinates, stacked, padded by the border's
        zero.  In a block (L - S)^T = w (L + S) w^{-1}, so the adjoint is a
        transposed solve for the parts times w, divided by w."""
        rhs = np.asarray(rhs)
        parts = []
        for block in self._blocks:
            x = block.from_mean_zero(rhs[block.offset:block.offset + block.size])
            parts.append((block.weights * x.T).T if adjoint else x)
        parts.append(np.zeros((self._border,) + rhs.shape[1:]))
        h = self._lc_factor.solve(np.concatenate(parts),
                                  trans="T" if adjoint else "N")
        out = []
        for block, x in zip(self._blocks, np.split(
                h, np.cumsum([len(block.weights) for block in self._blocks]))):
            if adjoint:
                x = (x.T / block.weights).T
            if not np.all(np.isfinite(x)):
                raise _perturbed_singular()
            out.append(block.to_mean_zero(x))
        return np.concatenate(out)

    def kernel_residual(self, fr: Array) -> tuple[Array, float]:
        """(h = L^{-1} fr, |A h| / |fr|); zero exactly when sigma2_irr = sigma2_rev.

        Block by block, h = E x, centred, with x = F^{-1} F^{-T} (w f)[keep]
        by two SuperLU solves with the grounded factor's triangular F; a
        non-finite x raises :class:`DiscretizationDefectError`."""
        h_parts, a_parts = [], []
        for block in self._factored:
            factor = block.factor
            h = np.zeros(len(block.weights))
            f = block.from_mean_zero(fr[block.offset:block.offset + block.size])
            b = (block.weights * f)[factor.keep, None]
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                h[factor.keep] = factor.solve(factor.solve_t(b))[:, 0]
            if not np.all(np.isfinite(h)):
                raise DiscretizationDefectError(
                    "restricted energy operator is singular")
            h = block.center(h)
            h_parts.append(block.to_mean_zero(h))
            a_parts.append(block.to_mean_zero(block.s_matrix @ h))
        a_h = float(np.linalg.norm(np.concatenate(a_parts)))
        fr_norm = float(np.linalg.norm(fr))
        return np.concatenate(h_parts), a_h / max(fr_norm, 1e-300)

    def spectral_weight(self, fr: Array) -> SpectralMeasure:
        """Atoms of the spectral weight of g = V fr under iM.

        In each block the masses are the squares of H (signs F^{-T} b), with
        b = (w f)[keep] the grounded coordinates of the block's part f of
        ``fr``: one sparse solve, then the panels that the block's chain
        cached (:attr:`_Block.chain`), so V itself is never formed.  The
        atoms are the union over the blocks.

        Singular values of M closer than ``EIGENVALUE_MERGE_TOL`` are pooled.
        A pooled cluster at s > tol has mass sum (v_i . g)^2 over its right
        singular vectors, split evenly between atoms at -s and +s; the
        cluster at 0, if any, keeps its mass in one atom at 0.
        """
        values, masses = [], []
        for block in self._factored:
            s, (signs, panels), _ = block.chain
            f = block.from_mean_zero(fr[block.offset:block.offset + block.size])
            b = (block.weights * f)[block.factor.keep]
            x = _apply_panels(panels, (signs * block.factor.solve_t(b))[:, None])[:, 0]
            values.append(s)
            masses.append(x**2)
        values = np.concatenate(values)
        order = np.argsort(values, kind="stable")
        locs, mass = _merge_atoms(values[order], np.concatenate(masses)[order])
        k = int(locs[0] <= EIGENVALUE_MERGE_TOL)  # 1 when there is a zero cluster
        pos, half = locs[k:], mass[k:] / 2.0
        return SpectralMeasure(
            locations=np.concatenate([-pos[::-1], np.zeros(k), pos]),
            weights=np.concatenate([half[::-1], mass[:k], half]),
            total_mass=float(np.sum(mass)))

    # -- coordinate helpers ----------------------------------------------

    def pi_inner(self, f: Array, g: Array) -> float:
        return float(np.sum(self.pi_weights * np.asarray(f) * np.asarray(g)))

    def center(self, f: Array) -> tuple[Array, float]:
        """Remove the pi-mean; returns (centered f, removed shift)."""
        shift = self.pi_inner(self.const_vec, f)
        return np.asarray(f, dtype=float) - shift * self.const_vec, shift

    def to_mean_zero(self, f: Array) -> Array:
        """Mean-zero coordinates of a centered (n,) or (n, k) ``f``, in O(n k):
        each block's in turn."""
        f = np.asarray(f)
        return np.concatenate([block.to_mean_zero(block.gather(f))
                               for block in self._blocks])

    def from_mean_zero(self, coords: Array) -> Array:
        """State vector(s) with the given mean-zero coordinates, in O(n k)."""
        coords = np.asarray(coords)
        out = np.zeros((self.n,) + coords.shape[1:])
        for block in self._blocks:
            block.scatter_add(block.from_mean_zero(
                coords[block.offset:block.offset + block.size]), out)
        return out


# --- dense helpers -------------------------------------------------------------


def _column_blocks(size: int) -> list[tuple[int, int]]:
    """Bounds (j, k) of at most 16 consecutive blocks covering range(size)."""
    step = max(-(-size // 16), 1)
    return [(j, min(j + step, size)) for j in range(0, size, step)]


def _by_column_blocks(size: int, columns: Callable[[int, int], Array]) -> Array:
    """A Fortran-ordered (size, size) array whose columns j to k - 1 are
    ``columns(j, k)``, filled in at most 16 blocks."""
    out = np.empty((size, size), order="F")
    for j, k in _column_blocks(size):
        out[:, j:k] = columns(j, k)
    return out


def _symmetrize(a: Array, sign: float) -> float:
    """a = (a + sign a^T) / 2 in place, in at most 16 strips: rows j to k - 1
    from column j on, paired with columns j to k - 1 from row j on; returns
    max |a - sign a^T| of the input."""
    residual = 0.0
    for j, k in _column_blocks(len(a)):
        rows, cols = a[j:k, j:], a[j:, j:k]
        residual = max(residual, float(np.max(np.abs(rows - sign * cols.T))))
        half = (rows + sign * cols.T) / 2.0
        rows[...] = half
        cols[...] = sign * half.T
    return residual


def _perturbed_singular() -> DiscretizationDefectError:
    return DiscretizationDefectError(
        "perturbed operator is singular on the mean-zero subspace")


def _not_positive_definite(smallest: float) -> DiscretizationDefectError:
    return DiscretizationDefectError(
        "restricted energy operator is not positive definite (singular or "
        f"indefinite): smallest eigenvalue {smallest:.6e}")


def _skew_tridiagonal(m: Array) -> tuple[Array, Array, Array]:
    """(h, tau, e) with Q^T m Q = T skew-tridiagonal and T's subdiagonal e.

    LAPACK's Hessenberg reduction overwrites ``m`` with h, which keeps Q as
    Householder reflectors below its subdiagonal, scaled by ``tau``; e is
    read as (diag(H, -1) - diag(H, 1)) / 2.  Ward & Gray, ACM TOMS 4 (1978).
    """
    from scipy.linalg import lapack

    size = len(m)
    if size < 2:  # nothing to reduce, Q = I
        return m, np.zeros(0), np.zeros(0)
    h, tau, _ = lapack.dgehrd(m, lwork=int(lapack.dgehrd_lwork(size)[0]),
                              overwrite_a=True)
    return h, tau, (np.diagonal(h, -1) - np.diagonal(h, 1)) / 2.0


def _hessenberg_q_times(h: Array, tau: Array, y: Array) -> Array:
    """Q y for the few columns of ``y``, Q = diag(1, Q') left as the
    reflectors of ``dsytrd`` (lower), stored as :func:`_skew_tridiagonal`
    stores them: ``dormqr`` reads Q' from h[1:, :N - 2], handed over
    uncopied as h's Fortran buffer from offset 1."""
    from scipy.linalg import lapack

    size = len(h)
    if size < 3:  # no reflectors
        return y
    block = h.ravel(order="F")[1:1 + size * (size - 2)].reshape(
        (size, size - 2), order="F")
    tail, tau = y[1:], tau[:size - 2]
    lwork = int(lapack.dormqr("L", "N", block, tau, tail, -1)[1][0])
    return np.concatenate([y[:1], lapack.dormqr("L", "N", block, tau, tail,
                                                lwork)[0]])


def _bidiagonal_svd(e: Array) -> tuple[Array, Array, Array]:
    """(s, U, Vt): the singular values of the (N, N) skew-tridiagonal T with
    subdiagonal ``e``, and the factors of B = U diag(s) Vt (U full).

    Permuted to even then odd coordinates, T = [[0, B], [-B^T, 0]] with the
    ceil(N/2) x floor(N/2) bidiagonal B = T[0::2, 1::2], so T's right
    singular vectors hold U in their even rows and columns and Vt^T in
    their odd ones (:func:`_skew_svd`).  The singular values are s at the
    odd columns and [s, 0 if N is odd] at the even ones.
    """
    import scipy.linalg

    size = len(e) + 1
    if size < 2:
        return np.zeros(size), np.eye(size), np.eye(0)
    b = np.zeros(((size + 1) // 2, size // 2), order="F")
    np.fill_diagonal(b, -e[0::2])
    np.fill_diagonal(b[1:], e[1::2])
    u, s, vt = scipy.linalg.svd(b, overwrite_a=True)
    values = np.empty(size)
    values[0::2] = np.concatenate([s, np.zeros(size % 2)])
    values[1::2] = s
    return values, u, vt


def _wy_panels(a: Array, tau: Array, first: int) -> list[tuple[int, Array]]:
    """[(r, block), ...]: the reflectors I - tau_i v_i v_i^T that LAPACK left
    in ``a``, v_i being 1 in row first + i over a[first + i + 1:, i], in
    compact-WY panels (Schreiber & Van Loan, SIAM J. Sci. Stat. Comput. 10,
    1989).  Reflectors j to k - 1, acting from row r = first + j on, are
    I - V T V^T; their panel is a Fortran-ordered (N - r, k - j) block of one
    buffer of about N^2 / 2 entries, V below its implied unit diagonal and
    the triangular T, built as ``dlarft`` builds it, above."""
    from scipy.linalg import blas

    size = len(a)
    bounds = [(j, min(j + _PANEL, len(tau))) for j in range(0, len(tau), _PANEL)]
    buffer = np.empty(sum((size - first - j) * (k - j) for j, k in bounds))
    panels, start = [], 0
    for j, k in bounds:
        block = buffer[start:start + (size - first - j) * (k - j)].reshape(
            (size - first - j, k - j), order="F")
        start += block.size
        block[...] = a[first + j:, j:k]
        top, rest = np.tril(block[:k - j], -1), block[k - j:]
        np.fill_diagonal(top, 1.0)
        # the lower triangle of V^T V, all that T reads; dsyrk refuses an
        # empty rest
        gram = blas.dsyrk(1.0, top, trans=1, lower=1)
        if len(rest):
            gram += blas.dsyrk(1.0, rest, trans=1, lower=1)
        t = np.zeros((k - j, k - j))
        for i in range(k - j):
            t[:i, i] = -tau[j + i] * (t[:i, :i] @ gram[i, :i])
            t[i, i] = tau[j + i]
        upper = np.triu_indices(k - j)
        block[upper] = t[upper]
        panels.append((first + j, block))
    return panels


def _apply_panels(panels: list[tuple[int, Array]], c: Array,
                  right: bool = False) -> Array:
    """H c for one column ``c``, or c H^T for a Fortran-ordered ``c`` with
    ``right``, in place, H the product of the reflectors of the panels: each
    goes to ``dgemqrt`` with the contiguous slice of c from its row r on."""
    from scipy.linalg import lapack

    side, trans = ("R", "T") if right else ("L", "N")
    for row, block in panels[::-1]:
        lapack.dgemqrt(block, block[:block.shape[1]],
                       c[:, row:] if right else c[row:], side=side,
                       trans=trans, overwrite_c=1)
    return c


def _skew_svd(m: Array) -> tuple[Array, tuple[Array, list], float]:
    """(s, (signs, panels), residual): the singular values of the (N, N)
    ``m``, ascending, the QR O^T = H diag(signs) of a right singular basis
    O = Q W in that order, H as :func:`_wy_panels`, and max |m + m^T| before
    m is made antisymmetric.  W holds U in its even rows and Vt^T in its odd
    ones (:func:`_bidiagonal_svd`).  Q's panels are packed before B's SVD,
    and m is freed then if it was handed over with no other reference; W^T
    is filled from U and Vt, then multiplied by Q^T in place, which leaves
    O^T for ``dgeqrf``."""
    from scipy.linalg import lapack

    residual = _symmetrize(m, -1.0)
    h, tau, e = _skew_tridiagonal(m)
    del m
    q = _wy_panels(h, tau[:len(h) - 2], 1)
    del h
    s, u, vt = _bidiagonal_svd(e)
    order = np.argsort(s, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(s))
    o_t = np.zeros((len(s), len(s)), order="F")
    o_t[rank[0::2], 0::2] = u.T
    del u
    o_t[rank[1::2], 1::2] = vt
    del vt
    _apply_panels(q, o_t, right=True)
    del q
    o_t, tau, _, _ = lapack.dgeqrf(o_t, overwrite_a=1,
                                  lwork=int(lapack.dgeqrf_lwork(*o_t.shape)[0]))
    signs = np.copysign(1.0, np.diagonal(o_t))
    return s[order], (signs, _wy_panels(o_t, tau, 0)), residual


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
    index = np.arange(m**dim, dtype=np.int32).reshape((m,) * dim)
    return points, index


def _sym_part_ratio(r, adj, pi: Array) -> float:
    """|sym(P R)|_F / |P R|_F for the centred differences R, in O(nnz).

    P R = R - 1 q^T with q = R^T pi, and its pi-adjoint is
    D^{-1} R^T D - (q / pi) pi^T, where ``adj`` = D^{-1} R^T D and
    D = diag(pi).  Both Frobenius norms expand into sparse sums and rank-one
    corrections, so no dense matrix is formed.
    """
    n = len(pi)
    q = r.T @ pi
    qp = q / pi
    sym = ((r + adj) / 2.0).tocsr()
    sym_sq = (np.sum(sym.data**2) - sym.sum(axis=0) @ q - qp @ (sym @ pi)
              + (n * (q @ q) + 2.0 * np.sum(qp) * (q @ pi)
                 + (qp @ qp) * (pi @ pi)) / 4.0)
    r = r.tocsr()
    proj_sq = np.sum(r.data**2) - 2.0 * (r.sum(axis=0) @ q) + n * (q @ q)
    return float(np.sqrt(max(sym_sq, 0.0)) / max(np.sqrt(max(proj_sq, 0.0)), 1e-300))


def discretize_torus(u: Potential, c: DriftField,
                     points_per_axis: int) -> DiscretizedSystem:
    """Sparse grid realization of (L, A, pi) on the flat torus, any dimension.

    The Laplacian part uses edge conductances e^{-(U_i+U_j)/2} between axis
    neighbors scaled by spacing^-2 and divided by the node weight, which
    makes pi L exactly symmetric as stored.  The drift stencil is
    S = (R - D^{-1} R^T D) / 2, with R the centered differences of C.grad
    and D = diag(pi); A = P S P is the projected, pi-antisymmetrized R.  The
    relative norm of the symmetric part that the antisymmetrization
    discards is kept as ``antisym_correction`` (an O(spacing)
    discretization diagnostic for weighted-divergence-free fields).  Built axis
    by axis in any dimension, in O(n) memory: no n x n array is formed.

    Where pi, L and S commute with the grid inversion x -> -x up to
    rounding (``_MIRROR_RTOL``, relative to each one's largest entry), as
    for an even U with an odd C, each is replaced by the mean of itself and
    its mirror image, which commutes exactly; the system then splits into
    its even and odd functions (:class:`DiscretizedSystem`).
    """
    if u.space_kind is not SpaceKind.FLAT_TORUS:
        raise ValueError("discretize_torus needs a flat-torus potential")
    if c.dim != u.dim:
        raise ValueError(f"drift dim {c.dim} != potential dim {u.dim}")
    if points_per_axis < 8:
        raise ValueError("points_per_axis must be at least 8")
    n = points_per_axis**u.dim
    _check_state_count(n, "grid")
    import scipy.sparse

    m = points_per_axis
    h = 2.0 * np.pi / m
    points, index = _torus_nodes(u.dim, m)
    energy = u.eval(points)
    weight_unnorm = np.exp(-energy)
    pi = weight_unnorm / weight_unnorm.sum()

    flat = index.ravel()
    fwd = [np.roll(index, -1, axis=ax).ravel() for ax in range(u.dim)]
    bwd = [np.roll(index, 1, axis=ax).ravel() for ax in range(u.dim)]

    rows, cols, cond = [], [], []
    for nb in fwd:
        edge = np.exp(-(energy[flat] + energy[nb]) / 2.0)
        rows += [flat, nb]
        cols += [nb, flat]
        cond += [edge, edge]
    rows, cols, cond = (np.concatenate(x) for x in (rows, cols, cond))
    degree = np.bincount(rows, weights=cond, minlength=n)
    rows = np.concatenate([rows, flat])
    cols = np.concatenate([cols, flat])
    vals = np.concatenate([-cond, degree])
    l_matrix = scipy.sparse.coo_array(
        ((vals / weight_unnorm[rows]) / h**2, (rows, cols)), shape=(n, n)).tocsr()

    cval = c.eval(points)
    steps = [cval[:, ax] / (2.0 * h) for ax in range(u.dim)]
    rows = np.concatenate([flat] * (2 * u.dim))
    cols = np.concatenate(fwd + bwd)
    vals = np.concatenate(steps + [-s for s in steps])
    r_mat = scipy.sparse.coo_array((vals, (rows, cols)), shape=(n, n))
    adj = scipy.sparse.coo_array(((vals * pi[rows]) / pi[cols], (cols, rows)),
                                 shape=(n, n))  # D^{-1} R^T D
    s_matrix = ((r_mat - adj) / 2.0).tocsr()
    correction = _sym_part_ratio(r_mat, adj, pi)

    mirror = _grid_mirror(u.dim, m)
    ops = (l_matrix, s_matrix)
    mirrored = [_mirrored(op, mirror) for op in ops]
    gaps = [_relative_gap(pi[mirror], pi)]
    gaps += [_relative_gap(x, op) for x, op in zip(mirrored, ops)]
    if max(gaps) <= _MIRROR_RTOL:
        pi = (pi + pi[mirror]) / 2.0
        l_matrix, s_matrix = (((op + x) / 2.0).tocsr() for op, x in zip(ops, mirrored))

    return DiscretizedSystem(
        n=n, pi_weights=pi, l_matrix=l_matrix, s_matrix=s_matrix,
        const_vec=np.ones(n), points=points, antisym_correction=correction,
    )


def _relative_gap(a, b) -> float:
    """max |a - b| / max |b| for two arrays, or sparse arrays, of one shape."""
    return float(abs(a - b).max()) / max(float(abs(b).max()), 1e-300)


# --- Gaussian / Hermite-Galerkin backend -------------------------------------


def hermite_indices(dim: int, degree: int) -> list[tuple[int, ...]]:
    """Multi-indices with total degree <= degree, graded by total degree.

    Within a degree shell the first axis carries the highest exponent first,
    so for dim 2 the linear shell reads (1, 0) then (0, 1), i.e. x1, x2.
    """
    return [alpha for total in range(degree + 1) for alpha in _shell(dim, total)]


def _shell(dim: int, total: int):
    """Exponent tuples of length ``dim`` summing to ``total``, descending.

    The order is lexicographic: the first exponent runs from ``total`` down,
    and the rest follow the same order.
    """
    if dim == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for rest in _shell(dim - 1, total - first):
            yield (first, *rest)


def discretize_gaussian_linear(q: Array, dim: int, degree: int) -> DiscretizedSystem:
    """Galerkin matrices for the standard Gaussian with drift C(x) = Q x.

    Basis: normalized probabilists' Hermite products up to the given total
    degree.  L is diagonal with eigenvalue equal to the total degree, and
    the drift operator moves weight only inside each degree shell

        (Qx).grad :  |beta>  ->  sum_{i != j} Q_ij sqrt(beta_i (beta_j + 1))
                                 |beta - e_i + e_j>,

    (the degree-lowering terms cancel pairwise by antisymmetry of Q), so the
    truncation is exact for observables inside the span.  The shell
    structure also makes this stencil its own projection: S = A, stored
    sparse, as is the diagonal L.
    """
    q = antisymmetric_matrix(q, dim)
    if degree < 1:
        raise ValueError("degree must be at least 1")
    n = comb(dim + degree, dim)
    _check_state_count(n, "Hermite basis")
    import scipy.sparse

    idxs = hermite_indices(dim, degree)
    pos = {alpha: i for i, alpha in enumerate(idxs)}
    assert len(idxs) == n

    rows, cols, vals = [], [], []
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
                    rows.append(row)
                    cols.append(col)
                    vals.append(q[i, j] * np.sqrt(beta[i] * (beta[j] + 1)))
    s_matrix = scipy.sparse.coo_array(
        (vals, (np.array(rows, dtype=np.int32), np.array(cols, dtype=np.int32))),
        shape=(n, n)).tocsr()
    l_matrix = scipy.sparse.diags_array(
        np.array([float(sum(alpha)) for alpha in idxs]), format="csr")

    const = np.zeros(n)
    const[0] = 1.0
    return DiscretizedSystem(
        n=n, pi_weights=np.ones(n), l_matrix=l_matrix, s_matrix=s_matrix,
        const_vec=const, multi_indices=tuple(idxs),
    )


# --- operations ---------------------------------------------------------------


def _merge_atoms(values: Array, weights: Array) -> tuple[Array, Array]:
    """Pool ascending ``values`` whose gaps are at most EIGENVALUE_MERGE_TOL.

    Returns each cluster's mean location and summed weight, in one pass of
    ``np.add.reduceat`` over the cluster starts.
    """
    starts = np.flatnonzero(np.diff(values, prepend=-np.inf) > EIGENVALUE_MERGE_TOL)
    counts = np.diff(starts, append=len(values))
    return np.add.reduceat(values, starts) / counts, np.add.reduceat(weights, starts)


def variance_report(sys: DiscretizedSystem, f: Array) -> VarianceReport:
    """Asymptotic variances of the observable ``f`` by both routes.

    ``f`` is given in state coordinates and is centered internally (the
    removed shift is recorded).  The resolvent route solves (L - A) h = f on
    the mean-zero subspace by a sparse bordered LU in O(n) memory; the
    spectral route integrates (1 + y^2)^{-1} against the spectral weight of
    g = V f, which needs a sparse factor of L and the SVD of M.  sigma2_rev
    is 2 <f, L^{-1} f>, solved by that same factor, as in
    :func:`asymptotic_variances`.
    """
    fr, shift = sys.reduce(f)
    sigma2_irr = float(2.0 * fr @ sys.solve(fr))

    measure = sys.spectral_weight(fr)
    route_spectral = float(
        2.0 * np.sum(measure.weights / (1.0 + measure.locations**2))
    )

    h0, residual = sys.kernel_residual(fr)
    sigma2_rev = float(2.0 * fr @ h0)
    kernel_flag = residual <= KERNEL_FLAG_RTOL

    scale = max(abs(sigma2_irr), abs(route_spectral), 1e-300)
    return VarianceReport(
        sigma2_rev=sigma2_rev, sigma2_irr=sigma2_irr,
        route_spectral=route_spectral,
        equality_gap=sigma2_rev - sigma2_irr, kernel_flag=kernel_flag,
        center_shift=shift,
        route_discrepancy=abs(sigma2_irr - route_spectral) / scale,
        measure=measure,
    )


def asymptotic_variances(sys: DiscretizedSystem, f: Array) -> tuple[float, float]:
    """(sigma2_rev, sigma2_irr) by the sparse factors of L and L - S only.

    Same values as :func:`variance_report` without any dense matrix: O(n)
    memory, so suitable for grid-refinement studies where only the numbers
    matter.
    """
    fr, _ = sys.reduce(f)
    h0, _ = sys.kernel_residual(fr)
    return float(2.0 * fr @ h0), float(2.0 * fr @ sys.solve(fr))


def generator_gaps(sys: DiscretizedSystem) -> tuple[float, float]:
    """(smallest eigenvalue of L, min real part of spec(L - A)), mean-zero.

    The perturbed real part can only move up: a perturbed eigenpair
    (mu, v) satisfies Re mu = <v, L v>/|v|^2 >= min eig(L).  L - A maps
    each block to itself, so its spectrum is the union of the blocks'.
    """
    import scipy.linalg

    lam = float(sys._l_spectrum[0][0])
    min_real = min(
        float(scipy.linalg.eigvals(block.restrict(block.l_matrix - block.s_matrix, 0.0),
                                   overwrite_a=True).real.min())
        for block in sys._blocks)
    return lam, min_real
