"""Discretized operators, the antisymmetric M = V A V, and both variance routes.

Independent oracles used here
-----------------------------
* flat 1D grid: the circulant Laplacian has eigenvalues (2/h^2)(1 - cos(2 pi j / n)).
* Gaussian backend: matrix elements of the drift operator recomputed by
  Gauss-Hermite quadrature with exact polynomial derivatives (hermeder),
  fully independent of the raising/lowering construction; the closed-form
  Hermite coefficients of monomials checked against the same quadrature.
* spectral weight: atoms from the route through the sparse factor of the
  grounded L checked against the complex eigendecomposition of iM, with
  M = V A V and V = L^{-1/2} built from L's eigenpairs, and against a dense
  Cholesky congruence on the orthonormal mean-zero basis, both formed only
  here.
* structured skew SVD: singular values checked against numpy's dense SVD,
  the kernel from the tridiagonal form against scipy's ``null_space``, and
  the blockwise restriction against the dense mean-zero basis, also built
  only here.
* Gaussian benchmark: linear observables solve the perturbed Poisson
  equation in closed form, giving sigma2 = 2 v . (I + kQ)^{-1} v
  (docs/ou_variance_derivation.md); for v = e1, Q the rotation, this is
  2 / (1 + k^2).
"""

import os
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path
from math import comb, factorial

import numpy as np
import pytest
from scipy.sparse import csr_array

from irrlangevin.analysis import equality_certificate, sweep_k, worst_case
from irrlangevin.benchmark import OBSERVABLE_SEED, TOLERANCES
from irrlangevin.errors import DiscretizationDefectError
from irrlangevin.model import (
    DriftField,
    DriftKind,
    make_qgradu_drift,
    torus_cosine,
    zero_drift,
)
from irrlangevin.observables import observable_vector, parse_observable
from irrlangevin.spectral_oracle import (
    EIGENVALUE_MERGE_TOL,
    DiscretizedSystem,
    asymptotic_variances,
    discretize_gaussian_linear,
    discretize_torus,
    generator_gaps,
    hermite_indices,
    variance_report,
)
from irrlangevin.spectral_oracle import (
    _PANEL,
    _Block,
    _apply_panels,
    _hessenberg_q_times,
    _merge_atoms,
    _skew_svd,
    _skew_tridiagonal,
    _symmetrize,
    _wy_panels,
)

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])
Q3_CHAIN = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 0.0]])


def exp_u_field_1d():
    """C = e^{U} on the 1D cosine torus: weighted divergence-free exactly."""

    def _eval(x):
        x = np.asarray(x, dtype=float)
        return np.exp(np.cos(x))

    def _div(x):
        x = np.asarray(x, dtype=float)
        return (-np.sin(x) * np.exp(np.cos(x)))[..., 0]

    return DriftField(dim=1, eval=_eval, divergence=_div,
                      kind=DriftKind.CUSTOM, name="exp_u")


@pytest.fixture(scope="module")
def torus_sys():
    u = torus_cosine(2, 1.0)
    c = make_qgradu_drift(ROT, u)
    return discretize_torus(u, c, 24)


@pytest.fixture(scope="module")
def hermite_sys():
    return discretize_gaussian_linear(ROT, dim=2, degree=5)


# --- dense reference views ---------------------------------------------------
#
# Dense constructions that no route forms, kept here (and only here) as
# references: the drift operator A = P S P, the pi-orthonormal mean-zero
# basis, the grounded L, V = L^{-1/2} from L's eigenpairs and M = V A V.


def _dense_a(sys):
    """The drift operator A = P S P as a dense (n, n) array, with
    P = I - c (pi c)^T."""
    c, w = sys.const_vec, sys.pi_weights * sys.const_vec
    sc = sys.s_matrix @ c
    a = sys.s_matrix.toarray()
    a -= np.outer(c, sys.s_matrix.T @ w)
    a -= np.outer(sc - (w @ sc) * c, w)
    return a


def _mean_zero_basis(sys):
    """Dense (n, n - 1) pi-orthonormal basis of the mean-zero subspace, block
    by block: the block's basis B of state vectors times the columns of its
    Householder map from the second on, where the block holds the
    constants, divided row-wise by sqrt(w)."""
    columns = []
    for block in sys._blocks:
        root, v, beta = block._householder
        coords = np.eye(len(block.weights))
        if v is not None:
            coords = (coords - beta * np.outer(v, v))[:, 1:]
        columns.append(block.basis.toarray() @ (coords / root[:, None]))
    return np.hstack(columns)


def _restricted(sys, op, sign=0.0):
    """``op`` in mean-zero coordinates, dense, from the dense basis; made
    symmetric (``sign`` = 1) or antisymmetric (``sign`` = -1)."""
    b = _mean_zero_basis(sys)
    out = b.T @ (sys.pi_weights[:, None] * (op @ b))
    return (out + sign * out.T) / 2.0 if sign else out


def _grounded_energy(block, keep):
    """A block's grounded energy matrix L_E = (w L)[keep, keep], dense."""
    return (block.weights[:, None] * block.l_matrix.toarray())[np.ix_(keep, keep)]


def _dense_factor(factor):
    """The factor F = D^{1/2} L^T P of a block's grounded L_E = F^T F, dense."""
    return factor.triangular.U.toarray()[:, factor.perm]


def _raw_congruences(sys):
    """[(F, F^-T A_E F^-1)] for each block, the product as the sparse solves
    leave it, before it is made antisymmetric."""
    return [(_dense_factor(block.factor), block.congruence())
            for block in sys._blocks]


def _state_basis(sys):
    """Dense (n, n - 1) pi-orthonormal basis of the mean-zero subspace from
    one Householder reflector on the states, blind to the blocks: the
    columns of the reflector sending e_1 to -sqrt(pi) c from the second on,
    divided row-wise by sqrt(pi)."""
    root = np.sqrt(sys.pi_weights)
    v = root * sys.const_vec
    v[0] += 1.0
    basis = -(2.0 / (v @ v)) * np.outer(v, v[1:])
    cols = np.arange(sys.n - 1)
    basis[cols + 1, cols] += 1.0
    return basis / root[:, None]


def _state_restricted(sys, op, sign):
    """(``op`` in the coordinates of :func:`_state_basis`, made symmetric or
    antisymmetric by ``sign``, and the map from the system's mean-zero
    coordinates to these)."""
    b = _state_basis(sys)
    out = b.T @ (sys.pi_weights[:, None] * (op @ b))
    to_state = b.T @ (sys.pi_weights[:, None] * sys.from_mean_zero(np.eye(sys.n - 1)))
    return (out + sign * out.T) / 2.0, to_state


def _v_and_m(sys):
    """(V, M, C) with V = L^{-1/2} and M = V A V on the mean-zero subspace,
    in the coordinates of :func:`_state_basis`, and C the map to them from
    the system's mean-zero coordinates."""
    lr, to_state = _state_restricted(sys, sys.l_matrix, 1.0)
    w, vec = np.linalg.eigh(lr)
    v = (vec / np.sqrt(w)) @ vec.T
    v = (v + v.T) / 2.0
    m = v @ _state_restricted(sys, sys.s_matrix, -1.0)[0] @ v
    return v, (m - m.T) / 2.0, to_state


# --- torus construction -------------------------------------------------


def test_flat_1d_grid_is_circulant_laplacian():
    n = 16
    u = torus_cosine(1, 0.0)  # U = 0
    sys = discretize_torus(u, zero_drift(1), n)
    h = 2 * np.pi / n
    row = np.zeros(n)
    row[0] = 2.0 / h**2
    row[1] = row[-1] = -1.0 / h**2
    expected = np.array([np.roll(row, i) for i in range(n)])
    np.testing.assert_allclose(sys.l_matrix.toarray(), expected, atol=1e-12)
    eигs = np.sort(np.linalg.eigvalsh(sys.l_matrix.toarray()))
    gap_expected = (2.0 / h**2) * (1.0 - np.cos(2 * np.pi / n))
    assert eигs[1] == pytest.approx(gap_expected, rel=1e-12)
    assert abs(eигs[0]) < 1e-10


def test_zero_drift_gives_zero_a_matrix(torus_sys):
    u = torus_cosine(2, 1.0)
    sys = discretize_torus(u, zero_drift(2), 12)
    assert np.all(_dense_a(sys) == 0.0)
    assert sys.antisym_correction == 0.0


def test_weighted_divergence_free_columns():
    # exact pi-antisymmetrization forces the weighted column sums to vanish
    u = torus_cosine(1, 1.0)
    sys = discretize_torus(u, exp_u_field_1d(), 32)
    col_sums = (sys.pi_weights[:, None] * _dense_a(sys)).sum(axis=0)
    assert np.max(np.abs(col_sums)) <= 1e-10


def test_torus_guards():
    u = torus_cosine(2, 1.0)
    c = make_qgradu_drift(ROT, u)
    with pytest.raises(ValueError, match="at least 8"):
        discretize_torus(u, c, 4)
    with pytest.raises(ValueError, match="memory guard"):
        discretize_torus(u, c, 150)  # 22500 nodes
    with pytest.raises(ValueError, match="memory guard"):
        discretize_torus(u, c, 141)  # 19881 nodes, about 32 GB dense
    u3 = torus_cosine(3, 1.0)
    with pytest.raises(ValueError, match="memory guard"):
        discretize_torus(u3, make_qgradu_drift(Q3_CHAIN, u3), 20)  # 8000 nodes
    from irrlangevin.model import gaussian_potential
    g = gaussian_potential(2)
    with pytest.raises(ValueError, match="flat-torus"):
        discretize_torus(g, make_qgradu_drift(ROT, g), 8)


@pytest.mark.parametrize("m", [8, 12])
def test_3d_grid_of_a_1d_potential_gives_the_1d_variance(m):
    # U = cos x1 with Q rotating (x1, x2): C = sin(x1) e2, so L^{-1} cos x1,
    # a function of x1 alone, is the 1-d grid's solution and lies in the
    # kernel of A
    q = np.zeros((3, 3))
    q[:2, :2] = ROT
    u3 = torus_cosine(3, (1.0, 0.0, 0.0))
    sys3 = discretize_torus(u3, make_qgradu_drift(q, u3), m)
    rep3 = variance_report(sys3, observable_vector(sys3, parse_observable("cos1", 3)))
    u1 = torus_cosine(1, 1.0)
    sys1 = discretize_torus(u1, zero_drift(1), m)
    rep1 = variance_report(sys1, observable_vector(sys1, parse_observable("cos1", 1)))
    assert rep3.sigma2_rev == pytest.approx(rep1.sigma2_rev, rel=1e-13, abs=0.0)
    assert rep3.kernel_flag
    assert rep3.sigma2_irr == pytest.approx(rep3.sigma2_rev, rel=1e-13, abs=0.0)


def test_coupled_3d_grid_passes_the_release_gates():
    # U = cos x1 + cos x2 + cos x3 with Q coupling (x1, x2) and (x2, x3),
    # checked by the gates of C1, C3, C7 and C8 at their pinned tolerances
    u = torus_cosine(3, 1.0)
    sys = discretize_torus(u, make_qgradu_drift(Q3_CHAIN, u), 8)
    assert sys.n == 512
    rng = np.random.default_rng(OBSERVABLE_SEED)
    reports = [variance_report(sys, rng.standard_normal(sys.n))
               for _ in range(20)]
    slack = max(r.sigma2_irr - r.sigma2_rev for r in reports)
    assert slack <= TOLERANCES["C1_slack"]
    assert max(r.route_discrepancy for r in reports) <= TOLERANCES["C3_route"]
    gap_l, min_real = generator_gaps(sys)
    assert gap_l - min_real <= TOLERANCES["C8_gap"]
    res = worst_case(sys)
    assert res.kernel_intersection_dim == 0 and res.strict
    assert res.sup_rev - res.sup_irr > TOLERANCES["C7_margin"]


def test_antisym_correction_reported(torus_sys):
    # centered differencing of a weighted-divergence-free field leaves an
    # O(h) symmetric defect (0.143, 0.070 and 0.035 at m = 16, 32 and 64 for
    # the rotation drift); it must be recorded, small, and nonzero
    assert 0.0 < torus_sys.antisym_correction < 0.5


@pytest.mark.parametrize("sysname", ["torus", "hermite"])
def test_pi_structure(sysname, torus_sys, hermite_sys):
    sys = torus_sys if sysname == "torus" else hermite_sys
    pi_l = sys.pi_weights[:, None] * sys.l_matrix
    pi_a = sys.pi_weights[:, None] * _dense_a(sys)
    assert np.max(np.abs(pi_l - pi_l.T)) <= 1e-10
    assert np.max(np.abs(pi_a + pi_a.T)) <= 1e-10
    assert np.max(np.abs(sys.l_matrix @ sys.const_vec)) <= 1e-10
    assert np.max(np.abs(_dense_a(sys) @ sys.const_vec)) <= 1e-10
    # <1, 1>_pi = 1 and the mean-zero basis is pi-orthonormal and mean-free
    assert sys.pi_inner(sys.const_vec, sys.const_vec) == pytest.approx(1.0,
                                                                       abs=1e-14)
    b = _mean_zero_basis(sys)
    gram = b.T @ (sys.pi_weights[:, None] * b)
    np.testing.assert_allclose(gram, np.eye(sys.n - 1), atol=1e-12)
    means = sys.pi_weights @ (sys.const_vec[:, None] * b)
    assert np.max(np.abs(means)) <= 1e-12


@pytest.mark.parametrize("sysname", ["torus", "hermite"])
def test_bilinear_symmetry_random_vectors(sysname, torus_sys, hermite_sys):
    sys = torus_sys if sysname == "torus" else hermite_sys
    rng = np.random.default_rng(17)
    a = _dense_a(sys)
    for _ in range(20):
        f = rng.standard_normal(sys.n)
        g = rng.standard_normal(sys.n)
        norm = np.sqrt(sys.pi_inner(f, f) * sys.pi_inner(g, g))
        sym = sys.pi_inner(sys.l_matrix @ f, g) - sys.pi_inner(f, sys.l_matrix @ g)
        asym = sys.pi_inner(a @ f, g) + sys.pi_inner(f, a @ g)
        assert abs(sym) <= 1e-10 * max(norm, 1.0)
        assert abs(asym) <= 1e-10 * max(norm, 1.0)


def test_restricted_l_positive_definite(torus_sys, hermite_sys):
    for sys in (torus_sys, hermite_sys):
        for block in sys._blocks:
            lr = block.restrict(block.l_matrix, 1.0)
            assert np.linalg.eigvalsh(lr)[0] > 0.0


# --- Gaussian backend ----------------------------------------------------


def test_hermite_degree_one_blocks():
    sys = discretize_gaussian_linear(ROT, dim=2, degree=1)
    assert sys.multi_indices == ((0, 0), (1, 0), (0, 1))
    np.testing.assert_allclose(sys.l_matrix.toarray(), np.diag([0.0, 1.0, 1.0]))
    # drift acts on the linear span with coefficient matrix -Q
    np.testing.assert_allclose(_dense_a(sys)[1:, 1:], -ROT, atol=1e-15)


def test_hermite_zero_q():
    sys = discretize_gaussian_linear(np.zeros((2, 2)), dim=2, degree=3)
    assert np.all(_dense_a(sys) == 0.0)


def test_hermite_degree_two_shell_is_twice_identity():
    sys = discretize_gaussian_linear(ROT, dim=2, degree=2)
    shell = [i for i, a in enumerate(sys.multi_indices) if sum(a) == 2]
    np.testing.assert_allclose(
        sys.l_matrix.toarray()[np.ix_(shell, shell)], 2.0 * np.eye(len(shell)))


def test_hermite_rejects_bad_input():
    with pytest.raises(ValueError, match="antisymmetric"):
        discretize_gaussian_linear(np.eye(2), dim=2, degree=2)
    with pytest.raises(ValueError, match="degree"):
        discretize_gaussian_linear(ROT, dim=2, degree=0)
    with pytest.raises(ValueError, match="shape"):
        discretize_gaussian_linear(ROT, dim=3, degree=2)
    with pytest.raises(ValueError, match="memory guard"):
        discretize_gaussian_linear(np.zeros((8, 8)), dim=8, degree=10)


def test_hermite_drift_matrix_against_quadrature():
    # oracle: <h_gamma, (Qx).grad h_beta>_pi by exact Gauss-Hermite quadrature
    q = np.array([[0.0, 0.8], [-0.8, 0.0]])
    degree = 4
    sys = discretize_gaussian_linear(q, dim=2, degree=degree)
    idxs = sys.multi_indices
    herme = np.polynomial.hermite_e

    n_nodes = degree + 3  # integrands have degree <= 2*degree + 2
    nodes, wts = herme.hermegauss(n_nodes)
    wts = wts / np.sqrt(2 * np.pi)
    vals, ders = {}, {}
    for k in range(degree + 1):
        coeff = np.zeros(k + 1)
        coeff[k] = 1.0
        vals[k] = herme.hermeval(nodes, coeff) / np.sqrt(factorial(k))
        ders[k] = herme.hermeval(nodes, herme.hermeder(coeff)) / np.sqrt(
            factorial(k))

    oracle = np.zeros((sys.n, sys.n))
    w2 = np.outer(wts, wts)
    x_nodes = nodes[:, None] * np.ones_like(nodes)[None, :]
    y_nodes = np.ones_like(nodes)[:, None] * nodes[None, :]
    cx = q[0, 1] * y_nodes  # (Qx)_1 = q01 y
    cy = q[1, 0] * x_nodes  # (Qx)_2 = q10 x
    for col, beta in enumerate(idxs):
        af = (cx * np.outer(ders[beta[0]], vals[beta[1]])
              + cy * np.outer(vals[beta[0]], ders[beta[1]]))
        for row, gam in enumerate(idxs):
            basis = np.outer(vals[gam[0]], vals[gam[1]])
            oracle[row, col] = np.sum(w2 * basis * af)
    np.testing.assert_allclose(_dense_a(sys), oracle, atol=1e-12)


def test_hermite_indices_count():
    assert len(hermite_indices(2, 6)) == 28
    assert len(hermite_indices(3, 2)) == 10
    assert hermite_indices(1, 3) == [(0,), (1,), (2,), (3,)]


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_hermite_indices_follow_the_sort_rule(dim):
    # graded by total degree; inside a shell, lexicographically descending
    degree = 5
    shells = [sorted((a for a in product(range(total + 1), repeat=dim)
                      if sum(a) == total), reverse=True)
              for total in range(degree + 1)]
    assert hermite_indices(dim, degree) == [a for shell in shells for a in shell]


def test_hermite_indices_scale_with_the_basis_not_the_box():
    # (2 + 1)^20 = 3.5e9 candidate tuples in the degree-2 shell alone
    idxs = hermite_indices(20, 2)
    assert len(idxs) == comb(22, 2) == 231
    assert len(set(idxs)) == 231


# --- Hermite coefficients of monomials ----------------------------------------


def _quadrature_coefficients(sys, func, poly_degree):
    """Reference expansion of a polynomial in the Galerkin basis.

    Tensor Gauss-Hermite quadrature, exact (to rounding) when ``func`` has
    total degree at most ``poly_degree``; it needs n_nodes^dim nodes.
    """
    idxs = sys.multi_indices
    basis_degree = max(sum(a) for a in idxs)
    n_nodes = (poly_degree + basis_degree) // 2 + 1
    nodes, wts = np.polynomial.hermite_e.hermegauss(n_nodes)
    wts = wts / np.sqrt(2.0 * np.pi)
    dim = len(idxs[0])
    node_idx = [g.ravel() for g in np.meshgrid(*([np.arange(n_nodes)] * dim),
                                               indexing="ij")]
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
            factorial(k))
    out = np.empty(sys.n)
    for i, alpha in enumerate(idxs):
        basis_vals = np.ones(pts.shape[0])
        for ax in range(dim):
            basis_vals *= herm_1d[alpha[ax]][node_idx[ax]]
        out[i] = np.sum(wgrid * basis_vals * fvals)
    return out


def test_observable_powers():
    assert parse_observable("x1^2*x3", 3).powers == (2, 0, 1)
    assert parse_observable("x2*x2", 2).powers == (0, 2)
    assert parse_observable("cos1", 2).powers is None


def test_monomial_values_are_a_fresh_product():
    # the product starts from the first factor, not from ones: the same bits,
    # in an array of its own even for a bare coordinate
    x = np.random.default_rng(2).standard_normal((5, 3))
    values = parse_observable("x1", 3).fn(x)
    assert not np.shares_memory(values, x)
    np.testing.assert_array_equal(values, x[:, 0])
    np.testing.assert_array_equal(parse_observable("x1^2*x3", 3).fn(x),
                                  np.ones(5) * x[:, 0] ** 2 * x[:, 2])


def test_hermite_coefficients_coordinate_and_square(hermite_sys):
    coeffs = observable_vector(hermite_sys, parse_observable("x1", 2))
    expected = np.zeros(hermite_sys.n)
    expected[hermite_sys.multi_indices.index((1, 0))] = 1.0
    np.testing.assert_array_equal(coeffs, expected)
    # x1^2 = sqrt(2) h_(2,0) + h_(0,0)
    coeffs = observable_vector(hermite_sys, parse_observable("x1^2", 2))
    expected = np.zeros(hermite_sys.n)
    expected[hermite_sys.multi_indices.index((0, 0))] = 1.0
    expected[hermite_sys.multi_indices.index((2, 0))] = np.sqrt(2.0)
    np.testing.assert_allclose(coeffs, expected, atol=1e-15)


def test_hermite_coefficients_round_trip(hermite_sys):
    # the expansion, summed back at random points, is the monomial itself
    pts = np.random.default_rng(4).standard_normal((40, 2))
    herme = np.polynomial.hermite_e
    basis = np.ones((40, hermite_sys.n))
    for i, alpha in enumerate(hermite_sys.multi_indices):
        for ax, k in enumerate(alpha):
            c1 = np.zeros(k + 1)
            c1[k] = 1.0
            basis[:, i] *= herme.hermeval(pts[:, ax], c1) / np.sqrt(factorial(k))
    for spec in ("x1", "x2^3", "x1^2*x2^2", "x1*x2^4", "x2^5"):
        obs = parse_observable(spec, 2)
        np.testing.assert_allclose(basis @ observable_vector(hermite_sys, obs),
                                   obs.fn(pts), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dim,degree,spec", [
    (2, 6, "x1"), (2, 6, "x1^2*x2"), (3, 5, "x1*x2^2*x3^2"),
    (5, 8, "x1^3*x3^2"), (4, 6, "x2^4"),
])
def test_hermite_closed_form_matches_quadrature(dim, degree, spec):
    sys = discretize_gaussian_linear(np.zeros((dim, dim)), dim, degree)
    obs = parse_observable(spec, dim)
    reference = _quadrature_coefficients(sys, obs.fn, sum(obs.powers))
    np.testing.assert_allclose(observable_vector(sys, obs), reference,
                               atol=1e-13)


def test_hermite_observable_vector_needs_no_grid():
    # the quadrature took 2^18 nodes here: a 113 MB traced peak and 4 s on
    # a 2-core machine
    dim = 18
    sys = discretize_gaussian_linear(np.zeros((dim, dim)), dim, 2)
    obs = parse_observable("x1", dim)
    out = []
    assert _traced_peak_bytes(lambda: out.append(observable_vector(sys, obs))) < 1e6
    expected = np.zeros(sys.n)
    expected[sys.multi_indices.index((1,) + (0,) * (dim - 1))] = 1.0
    np.testing.assert_array_equal(out[0], expected)


def test_hermite_observable_rejects_high_degree_and_fourier(hermite_sys):
    with pytest.raises(ValueError, match="exceeds the basis degree"):
        observable_vector(hermite_sys, parse_observable("x1^3*x2^3", 2))
    with pytest.raises(ValueError, match="not polynomial"):
        observable_vector(hermite_sys, parse_observable("cos1", 2))


# --- the antisymmetric M = V A V and its spectral weight ------------------------


def _centered_random(sys, seed):
    f, _ = sys.center(np.random.default_rng(seed).standard_normal(sys.n))
    return sys.to_mean_zero(f)


def _reversible_mass(sys, fr):
    """|g|^2 = <fr, L^{-1} fr> for g = V fr, by the sparse solve."""
    return float(fr @ sys.kernel_residual(fr)[0])


def test_m_operator_zero_drift():
    u = torus_cosine(2, 1.0)
    sys = discretize_torus(u, zero_drift(2), 12)
    for block in sys._blocks:
        s, _, residual = block.chain
        assert np.max(np.abs(block.congruence())) == 0.0
        assert np.max(s) == 0.0
        assert residual == 0.0


def test_m_operator_ou_singular_values():
    a = 0.7
    sys = discretize_gaussian_linear(a * ROT, dim=2, degree=1)
    values = np.concatenate([block.chain[0] for block in sys._blocks])
    np.testing.assert_allclose(np.sort(values), [a, a], atol=1e-12)


@pytest.mark.parametrize("sysname", ["torus", "hermite"])
def test_m_antisymmetric_and_vlv_identity(sysname, torus_sys, hermite_sys):
    # each block's congruence with its grounded L_E = F^T F: F^-T L_E F^-1
    # = I, and F^-T A_E F^-1 = O^T pi M O (O pi-orthonormal) is
    # antisymmetric before it is made so, exactly after; over the blocks,
    # with the singular values of M = V A V
    sys = torus_sys if sysname == "torus" else hermite_sys
    values = []
    for block, (f, m) in zip(sys._blocks, _raw_congruences(sys)):
        assert m.dtype == np.float64
        assert np.max(np.abs(m + m.T)) <= 1e-14 * max(np.max(np.abs(m)), 1e-300)
        _symmetrize(m, -1.0)
        assert np.max(np.abs(m + m.T)) == 0.0
        f_inv = np.linalg.inv(f)
        flf = f_inv.T @ _grounded_energy(block, block.factor.keep) @ f_inv
        np.testing.assert_allclose(flf, np.eye(block.size), atol=1e-10)
        values.append(np.linalg.svd(m, compute_uv=False))
    _, m_ref, _ = _v_and_m(sys)
    np.testing.assert_allclose(np.sort(np.concatenate(values))[::-1],
                               np.linalg.svd(m_ref, compute_uv=False),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", ["torus m25", "torus m32", "hermite"])
def test_chain_records_raw_antisymmetry_residual(case, hermite_sys):
    # the residual each block's chain keeps beside its panels is
    # max |m + m^T| of its raw product, bit for bit, and C4 reads the
    # largest instead of forming m again
    if case == "hermite":
        sys = hermite_sys
    else:
        u = torus_cosine(2, 1.0)
        sys = discretize_torus(u, make_qgradu_drift(ROT, u), int(case[-2:]))
    from irrlangevin.benchmark import _structure_residuals

    residuals = [np.max(np.abs(m + m.T)) for _, m in _raw_congruences(sys)]
    assert [block.chain[2] for block in sys._blocks] == residuals
    assert (dict(_structure_residuals(sys))["F^-T A F^-1 antisymmetric"]
            == max(residuals))


@pytest.mark.parametrize("case", ["torus m12", "torus m25", "hermite"])
def test_grounded_factor_reproduces_grounded_energy(case, hermite_sys):
    # in each block P^T L D L^T P = L_E = (w L)[keep, keep] to rounding, and
    # the residual C4 takes from the factors is as small.  The torus grounds
    # the heaviest coordinate of its even block, which holds the constants,
    # and keeps every coordinate of its odd block; at m = 25 the heaviest
    # states form mirror pairs, and the only fixed node is the origin.  On
    # the Hermite basis each shell keeps every coordinate, and its factor is
    # the diagonal sqrt(degree)
    from irrlangevin.benchmark import _structure_residuals

    if case == "hermite":
        sys = hermite_sys
    else:
        u = torus_cosine(2, 1.0)
        sys = discretize_torus(u, make_qgradu_drift(ROT, u), int(case[-2:]))
    for block in sys._blocks:
        keep = np.arange(len(block.weights))
        if block.const is not None:
            keep = np.delete(keep, np.argmax(block.weights * block.const**2))
        assert np.array_equal(block.factor.keep, keep)
        energy = _grounded_energy(block, keep)
        f = _dense_factor(block.factor)
        assert np.max(np.abs(f.T @ f - energy)) <= 1e-13 * np.max(np.abs(energy))
    assert dict(_structure_residuals(sys))["grounded L = F^T F"] <= 1e-13
    if case == "hermite":
        degree = np.array([sum(a) for a in sys.multi_indices])
        for block in sys._blocks:
            assert block.const is None
            np.testing.assert_array_equal(
                block.factor.triangular.U.toarray(),
                np.diag(np.sqrt(degree[block.basis.indices])))
    else:
        even, odd = sys._blocks
        np.testing.assert_array_equal(even.const, np.ones(len(even.weights)))
        assert odd.const is None
        grounded = np.argmax(even.weights)
        if case == "torus m25":
            entries = np.diff(even.basis.indptr)
            assert entries[grounded] == 2 and np.sum(entries == 1) == 1


def test_m_operator_rejects_indefinite_restriction():
    # hand-built defective system: symmetric, kills constants, but indefinite
    l_bad = 3.0 * np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0],
                            [0.0, 0.0, 0.0]])
    pi = np.full(3, 1.0 / 3.0)
    sys = DiscretizedSystem(
        n=3, pi_weights=pi, l_matrix=csr_array(l_bad),
        s_matrix=csr_array((3, 3)),
        const_vec=np.ones(3),
    )
    # the sparse route refuses by its factor's pivot, the dense routes by
    # the smallest eigenvalue they compute anyway
    with pytest.raises(DiscretizationDefectError,
                       match="not positive definite.*pivot"):
        sys.spectral_weight(np.ones(2))
    with pytest.raises(DiscretizationDefectError, match="smallest eigenvalue"):
        generator_gaps(sys)
    with pytest.raises(DiscretizationDefectError, match="smallest eigenvalue"):
        worst_case(sys)


def test_spectral_measure_zero_matrix():
    # zero drift: M = 0, so the whole of g sits in one atom at 0
    u = torus_cosine(2, 1.0)
    sys = discretize_torus(u, zero_drift(2), 12)
    fr = _centered_random(sys, 3)
    m = sys.spectral_weight(fr)
    np.testing.assert_array_equal(m.locations, [0.0])
    assert m.weights[0] == pytest.approx(_reversible_mass(sys, fr), rel=1e-14)
    assert m.total_mass == m.weights[0]


def test_spectral_measure_parseval(torus_sys, hermite_sys):
    for sys in (torus_sys, hermite_sys):
        fr = _centered_random(sys, 9)
        m = sys.spectral_weight(fr)
        assert m.total_mass == pytest.approx(_reversible_mass(sys, fr), rel=1e-12)
        assert np.sum(m.weights) == pytest.approx(m.total_mass, rel=1e-12)
        assert np.all(m.weights >= 0.0)
        assert np.all(np.diff(m.locations) > 0)


def test_spectral_measure_ou_atoms():
    # the singular values of M are [a, a]: one cluster, atoms at -a and +a
    a = 0.9
    sys = discretize_gaussian_linear(a * ROT, dim=2, degree=1)
    f = np.array([0.0, 1.0, 0.0])  # x1
    m = sys.spectral_weight(sys.to_mean_zero(f))
    np.testing.assert_allclose(m.locations, [-a, a], atol=1e-12)
    np.testing.assert_allclose(m.weights, [0.5, 0.5], atol=1e-12)


def test_spectral_measure_merges_degenerate_clusters():
    # on shell k, M = A / k and the rotation has frequencies k, k - 2, ...;
    # the singular value a comes from shells 1, 2 and 3 and pools into one
    # pair, a / 3 from shell 3, and 0 from shell 2.  x1^3 = sqrt(6) h_3 +
    # 3 h_1, so g = sqrt(2) h_3 + 3 h_1, and h_3 puts 1/4 of its mass on
    # frequency 3 and 3/4 on frequency 1.
    a = 0.6
    sys = discretize_gaussian_linear(a * ROT, dim=2, degree=3)
    f = observable_vector(sys, parse_observable("x1^3", 2))
    m = sys.spectral_weight(sys.reduce(f)[0])
    np.testing.assert_allclose(m.locations, [-a, -a / 3, 0.0, a / 3, a],
                               atol=1e-12)
    np.testing.assert_allclose(m.weights, [4.75, 0.75, 0.0, 0.75, 4.75],
                               atol=1e-12)


def test_measure_symmetric_for_real_observables(torus_sys):
    # the pairing is by construction: equal weights at -y and y, bit for bit
    for seed in range(5):
        m = torus_sys.spectral_weight(_centered_random(torus_sys, 23 + seed))
        np.testing.assert_array_equal(m.locations, -m.locations[::-1])
        np.testing.assert_array_equal(m.weights, m.weights[::-1])


def _complex_eigh_atoms(sys, fr):
    """(locations, weights, |M|_2) from the eigendecomposition of the
    Hermitian iM, M = V A V, pooled as the route pools."""
    v, m, to_state = _v_and_m(sys)
    y, z = np.linalg.eigh(1j * m)
    w = np.abs(z.conj().T @ (v @ (to_state @ fr))) ** 2
    cuts = np.flatnonzero(np.diff(y) > EIGENVALUE_MERGE_TOL) + 1
    locations = np.array([np.mean(c) for c in np.split(y, cuts)])
    weights = np.array([np.sum(c) for c in np.split(w, cuts)])
    return locations, weights, float(np.max(np.abs(y)))


@pytest.mark.parametrize("sysname", ["torus", "hermite"])
def test_spectral_weight_matches_complex_eigh(sysname, torus_sys, hermite_sys):
    # torus m=24 has N = n - 1 = 575 (odd, one singular value 0 from the
    # bidiagonal SVD), the Hermite basis N = 20 (even)
    sys = torus_sys if sysname == "torus" else hermite_sys
    fr = _centered_random(sys, 31)
    m = sys.spectral_weight(fr)
    locations, weights, _ = _complex_eigh_atoms(sys, fr)
    np.testing.assert_allclose(m.locations, locations, rtol=0, atol=1e-12)
    np.testing.assert_allclose(m.weights, weights, rtol=0,
                               atol=1e-12 * m.total_mass)


def test_spectral_weight_matches_complex_eigh_at_even_torus_size():
    # torus m=25 has N = 624 (even).  Its spectrum is nearly degenerate near
    # 0: the zero cluster holds singular values up to 3e-10 and the next
    # atoms sit at 4.9e-8 and 6.4e-8.  There any route, like the reference,
    # fixes a weight only to first order in the rounding, eps |M| / gap of
    # the total mass (a route through V from L's eigenpairs missed the
    # reference by 6e-12 at the zero atom, this one by 9e-12); atoms at
    # least 1e-6 from their neighbours, and the variances, which are smooth
    # in the atoms, keep the tight bounds
    u = torus_cosine(2, 1.0)
    sys = discretize_torus(u, make_qgradu_drift(ROT, u), 25)
    fr = _centered_random(sys, 31)
    m = sys.spectral_weight(fr)
    locations, weights, norm = _complex_eigh_atoms(sys, fr)
    np.testing.assert_allclose(m.locations, locations, rtol=0, atol=1e-12)
    gaps = np.minimum(np.diff(locations, prepend=-np.inf),
                      np.diff(locations, append=np.inf))
    error = np.abs(m.weights - weights) / m.total_mass
    assert np.all(error <= np.finfo(float).eps * norm / gaps)
    assert np.max(error[gaps >= 1e-6]) <= 1e-12
    for k in (0.5, 1.0, 2.0, 8.0):
        got = np.sum(m.weights / (1.0 + (k * m.locations) ** 2))
        ref = np.sum(weights / (1.0 + (k * locations) ** 2))
        assert got == pytest.approx(ref, rel=1e-13)


def _panel_width_cases():
    # 1-d torus grids of m states under an even drift, one block of
    # N = m - 1, around the panel width; Hermite bases with N <= 2, and one
    # of dim 3 whose three shells run as three blocks
    for points in (_PANEL, _PANEL + 1, _PANEL + 2):
        yield f"torus N={points - 1}", lambda points=points: discretize_torus(
            torus_cosine(1, 1.0), exp_u_field_1d(), points)
    yield "hermite N=1", lambda: discretize_gaussian_linear(np.zeros((1, 1)), 1, 1)
    yield "hermite N=2", lambda: discretize_gaussian_linear(0.8 * ROT, 2, 1)
    q = np.array([[0.0, 1.0, -0.5], [-1.0, 0.0, 0.3], [0.5, -0.3, 0.0]])
    yield "hermite dim 3", lambda: discretize_gaussian_linear(q, 3, 3)


@pytest.mark.parametrize("name,build", list(_panel_width_cases()),
                         ids=[name for name, _ in _panel_width_cases()])
def test_spectral_weight_matches_complex_eigh_across_panel_width(name, build):
    sys = build()
    fr = _centered_random(sys, 7)
    m = sys.spectral_weight(fr)
    locations, weights, _ = _complex_eigh_atoms(sys, fr)
    np.testing.assert_allclose(m.locations, locations, rtol=0, atol=1e-12)
    np.testing.assert_allclose(m.weights, weights, rtol=0,
                               atol=1e-12 * m.total_mass)
    if name == "hermite dim 3":  # the chain runs one degree shell at a time
        assert [block.basis.shape[1] for block in sys._blocks] == [3, 6, 10]


def _dense_cholesky_atoms(sys, frs):
    """[(locations, masses)]: for each mean-zero observable of ``frs``, the
    pooled singular values of R^-T A R^-1 and their masses, with the
    restricted L = R^T R on the block-blind basis, from numpy's dense SVD:
    the congruence the route replaced."""
    import scipy.linalg

    lr, to_state = _state_restricted(sys, sys.l_matrix, 1.0)
    r = scipy.linalg.cholesky(lr)
    x = scipy.linalg.solve_triangular(
        r, _state_restricted(sys, sys.s_matrix, -1.0)[0], trans="T")
    m = scipy.linalg.solve_triangular(r, x.T, trans="T").T
    _, s, vt = np.linalg.svd((m - m.T) / 2.0)
    order = np.argsort(s, kind="stable")
    return [_merge_atoms(s[order], ((vt @ scipy.linalg.solve_triangular(
        r, to_state @ fr, trans="T")) ** 2)[order]) for fr in frs]


@pytest.mark.parametrize("points", [24, 25])
def test_sweep_atoms_match_dense_cholesky_route(points):
    # the even grid m = 24 (N odd) and the odd grid m = 25 (N even), whose
    # zero cluster sits 4.9e-8 from the next atom: the grounded factor
    # gives the same atoms and zero atom as the dense Cholesky congruence,
    # and the k -> inf limit to first order in the rounding, eps |M| / gap
    # of the total mass
    u = torus_cosine(2, 1.0)

    def build(scale):
        return discretize_torus(u, make_qgradu_drift(scale * ROT, u), points)

    sys = build(1.0)
    for seed in (5, 31):
        f = np.random.default_rng(seed).standard_normal(sys.n)
        result = sweep_k(build, f, [0.0, 1.0])
        ((locs, mass),) = _dense_cholesky_atoms(sys, [sys.reduce(f)[0]])
        assert locs[0] <= EIGENVALUE_MERGE_TOL < locs[1]
        measure = result.measure
        assert len(measure.locations) == 2 * len(locs) - 1
        assert np.sum(measure.locations == 0.0) == 1
        np.testing.assert_allclose(measure.locations[len(locs):], locs[1:],
                                   rtol=0, atol=1e-12)
        bound = np.finfo(float).eps * locs[-1] / locs[1]
        assert (abs(result.limit_prediction - 2.0 * mass[0])
                <= bound * measure.total_mass)


# --- structured skew SVD, blockwise restriction, atom pooling ------------------


def _skew_cases():
    rng = np.random.default_rng(41)
    for size in (1, 2, 3, 8, 9):
        g = rng.standard_normal((size, size))
        yield f"random {size}", g - g.T
    yield "zero 6", np.zeros((6, 6))
    # an exact 3-dimensional kernel: a random 7 x 7 skew matrix of rank 4,
    # rotated by a random orthogonal matrix
    core = np.zeros((7, 7))
    g = rng.standard_normal((4, 4))
    core[:4, :4] = g - g.T
    q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    yield "kernel 3", q @ core @ q.T
    # one reflector panel short of full, full, and one or two over
    for size in (_PANEL - 1, _PANEL, _PANEL + 1, _PANEL + 2, 2 * _PANEL + 5):
        g = rng.standard_normal((size, size))
        yield f"random {size}", g - g.T


def _reflector_product(a, tau, first):
    """H_0 H_1 ... as a dense product, H_i = I - tau_i v_i v_i^T with v_i 1
    in row first + i and a[first + i + 1:, i] below: the reflectors as
    LAPACK defines them, multiplied out one at a time."""
    size = len(a)
    out = np.eye(size)
    for i, t in enumerate(tau):
        v = np.zeros(size)
        v[first + i] = 1.0
        v[first + i + 1:] = a[first + i + 1:, i]
        out -= t * np.outer(out @ v, v)
    return out


@pytest.mark.parametrize("name,m", list(_skew_cases()),
                         ids=[name for name, _ in _skew_cases()])
def test_skew_svd_against_dense_svd(name, m):
    size = len(m)
    scale = max(np.linalg.norm(m, 2), 1.0)
    s, (signs, panels), residual = _skew_svd(np.array(m, order="F"))
    o_t = np.asfortranarray(np.diag(signs))  # O^T = H diag(signs), formed
    for j in range(size):
        _apply_panels(panels, o_t[:, j:j + 1])
    v = o_t.T
    assert residual == np.max(np.abs(m + m.T), initial=0.0)
    assert s.shape == (size,) and v.shape == (size, size)
    assert np.all(np.diff(s) >= 0.0)
    np.testing.assert_allclose(s[::-1], np.linalg.svd(m, compute_uv=False),
                               rtol=0, atol=1e-13 * scale)
    np.testing.assert_allclose(v.T @ v, np.eye(size), rtol=0, atol=1e-13)
    np.testing.assert_allclose(np.linalg.norm(m @ v, axis=0), s,
                               rtol=0, atol=1e-13 * scale)
    # m v_j lies in the span of the columns with the same value
    for value in s:
        same = np.abs(s - value) <= 1e-13 * scale
        proj = v[:, same] @ (v[:, same].T @ (m @ v[:, np.argmax(same)]))
        np.testing.assert_allclose(proj, m @ v[:, np.argmax(same)], rtol=0,
                                   atol=1e-12 * scale)
    if name == "kernel 3":
        assert np.sum(s <= 1e-10 * s.max()) == 3


@pytest.mark.parametrize("name,m", list(_skew_cases()),
                         ids=[name for name, _ in _skew_cases()])
def test_reflectors_apply_q_without_forming_it(name, m):
    size = len(m)
    h, tau, _ = _skew_tridiagonal(np.array(m, order="F"))
    y = np.random.default_rng(size).standard_normal((size, 3))
    got = _hessenberg_q_times(h, tau, y)
    q = _reflector_product(h, tau[:max(size - 2, 0)], 1)
    np.testing.assert_allclose(got, q @ y, rtol=0, atol=1e-14 * size)


@pytest.mark.parametrize("name,m", list(_skew_cases()),
                         ids=[name for name, _ in _skew_cases()])
def test_packed_reflectors_form_the_same_q(name, m):
    # the panels of m's Hessenberg (from row 1) and QR (from row 0)
    # reflectors hold each vector and a T per panel in one buffer of about
    # half an array, and apply the product of the reflectors from the left
    # and, transposed, from the right
    import scipy.linalg

    size = len(m)
    rng = np.random.default_rng(size)
    h, tau, _ = _skew_tridiagonal(np.array(m, order="F"))
    qr, tau_qr, _, _ = scipy.linalg.lapack.dgeqrf(m)
    for a, t, first in ((h, tau[:max(size - 2, 0)], 1), (qr, tau_qr, 0)):
        panels = _wy_panels(a, t, first)
        assert len({id(_buffer_owner(block)) for _, block in panels}) <= 1
        widths = [min(_PANEL, len(t) - j) for j in range(0, len(t), _PANEL)]
        assert (sum(block.size for _, block in panels)
                == sum(size - first - i for i in range(len(t)))
                + sum(w * (w - 1) // 2 for w in widths))
        q = _reflector_product(a, t, first)
        y = rng.standard_normal((size, 3))
        left = [_apply_panels(panels, y[:, [j]].copy())[:, 0] for j in range(3)]
        np.testing.assert_allclose(np.column_stack(left), q @ y, rtol=0,
                                   atol=1e-14 * size)
        np.testing.assert_allclose(
            _apply_panels(panels, np.array(y.T, order="F"), right=True),
            y.T @ q.T, rtol=0, atol=1e-14 * size)


def test_restriction_matches_dense_basis(torus_sys, hermite_sys):
    # each block's restriction, filled a block of columns at a time, equals
    # its diagonal block of b^T (pi o (op b)) with the dense basis, and the
    # dense restriction has no entry between two blocks
    for sys in (torus_sys, hermite_sys):
        assert len(sys._blocks) > 1
        for op, sign in ((sys.l_matrix, 1.0), (sys.s_matrix, -1.0),
                         (sys.l_matrix - sys.s_matrix, 0.0)):
            ref = _restricted(sys, op, sign)
            scale = np.max(np.abs(ref))
            inside = np.zeros(ref.shape, dtype=bool)
            for block in sys._blocks:
                part = slice(block.offset, block.offset + block.size)
                inside[part, part] = True
                block_op = {1.0: block.l_matrix, -1.0: block.s_matrix,
                            0.0: block.l_matrix - block.s_matrix}[sign]
                got = block.restrict(block_op, sign)
                assert got.flags.f_contiguous
                np.testing.assert_allclose(got, ref[part, part], rtol=0,
                                           atol=1e-13 * scale)
            assert np.max(np.abs(ref[~inside])) <= 1e-13 * scale


def _merge_atoms_loop(values, weights):
    locations, pooled, start = [], [], 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > EIGENVALUE_MERGE_TOL:
            locations.append(float(np.mean(values[start:i])))
            pooled.append(float(np.sum(weights[start:i])))
            start = i
    return np.asarray(locations), np.asarray(pooled)


def test_merge_atoms_matches_loop():
    # random clusters of 1 to 4 values within the tolerance, a singleton at
    # each end
    rng = np.random.default_rng(12)
    for _ in range(20):
        centers = np.sort(rng.uniform(0.0, 10.0, 30))
        values = [[centers[0]]]
        for c in centers[1:-1]:
            values.append(c + rng.uniform(0.0, 0.3 * EIGENVALUE_MERGE_TOL,
                                          rng.integers(1, 5)))
        values.append([centers[-1] + 1.0])
        values = np.sort(np.concatenate(values))
        weights = rng.uniform(0.0, 1.0, len(values))
        locs, mass = _merge_atoms(values, weights)
        ref_locs, ref_mass = _merge_atoms_loop(values, weights)
        assert locs[0] == values[0] and locs[-1] == values[-1]
        assert mass[0] == weights[0] and mass[-1] == weights[-1]
        np.testing.assert_allclose(locs, ref_locs, rtol=1e-15, atol=0)
        np.testing.assert_allclose(mass, ref_mass, rtol=1e-14, atol=0)


# --- variance reports -----------------------------------------------------


def test_variance_report_zero_drift_equality():
    u = torus_cosine(2, 1.0)
    sys = discretize_torus(u, zero_drift(2), 12)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(sys.n)
    rep = variance_report(sys, f)
    assert rep.sigma2_irr == pytest.approx(rep.sigma2_rev, rel=1e-12)
    assert abs(rep.equality_gap) <= 1e-10 * rep.sigma2_rev
    assert rep.kernel_flag is True


@pytest.mark.parametrize("k,expected", [(0.0, 2.0), (1.0, 1.0), (2.0, 0.4),
                                        (4.0, 2.0 / 17.0)])
def test_variance_report_ou_closed_form(k, expected):
    sys = discretize_gaussian_linear(k * ROT, dim=2, degree=4)
    f = np.zeros(sys.n)
    f[sys.multi_indices.index((1, 0))] = 1.0
    rep = variance_report(sys, f)
    assert rep.sigma2_rev == pytest.approx(2.0, abs=1e-12)
    assert rep.sigma2_irr == pytest.approx(expected, abs=1e-12)
    assert rep.route_spectral == pytest.approx(expected, abs=1e-12)
    assert rep.kernel_flag == (k == 0.0)


def test_variance_report_centers_observable(hermite_sys):
    f = np.zeros(hermite_sys.n)
    f[hermite_sys.multi_indices.index((1, 0))] = 1.0
    shifted = f + 3.0 * hermite_sys.const_vec
    rep = variance_report(hermite_sys, shifted)
    assert rep.center_shift == pytest.approx(3.0, rel=1e-14)
    base = variance_report(hermite_sys, f)
    assert rep.sigma2_irr == pytest.approx(base.sigma2_irr, rel=1e-12)


def test_variance_report_random_observables_inequality(torus_sys):
    rng = np.random.default_rng(5)
    for _ in range(25):
        f = rng.standard_normal(torus_sys.n)
        rep = variance_report(torus_sys, f)
        assert rep.sigma2_irr <= rep.sigma2_rev + 1e-10
        assert rep.route_discrepancy <= 1e-8
        assert rep.kernel_flag is False  # random vectors miss the kernel
        assert rep.equality_gap > 1e-9


def test_variance_report_input_validation(hermite_sys):
    entry_points = [
        variance_report,
        asymptotic_variances,
        equality_certificate,
        lambda sys, f: sweep_k(lambda scale: sys, f, [0.0, 1.0]),
    ]
    n = hermite_sys.n
    for entry in entry_points:
        with pytest.raises(ValueError, match="real"):
            entry(hermite_sys, np.ones(n) * 1j)
        for bad in (np.ones(3), np.ones((n, 1))):
            with pytest.raises(ValueError, match="shape"):
                entry(hermite_sys, bad)
        for value in (np.nan, np.inf):
            bad = np.ones(n)
            bad[1] = value
            with pytest.raises(ValueError, match="finite"):
                entry(hermite_sys, bad)


def _zero_operator_system():
    # hand-built defective system: L = 0 and S = 0 on three uniform states
    return DiscretizedSystem(
        n=3, pi_weights=np.full(3, 1.0 / 3.0), l_matrix=csr_array((3, 3)),
        s_matrix=csr_array((3, 3)),
        const_vec=np.ones(3),
    )


def test_variance_report_singular_operator_is_a_defect():
    # a skew perturbation of a positive definite operator is never singular,
    # so a singular solve can only mean the invariants were violated
    sys = _zero_operator_system()
    with pytest.raises(DiscretizationDefectError, match="singular"):
        variance_report(sys, np.array([1.0, -2.0, 1.0]))


@pytest.mark.parametrize("entry", [equality_certificate, asymptotic_variances])
def test_singular_energy_operator_is_a_defect(entry):
    # both solves of the resolvent route refuse a singular L instead of
    # returning NaN variances, residuals or witnesses
    with pytest.raises(DiscretizationDefectError, match="singular"):
        entry(_zero_operator_system(), np.array([1.0, -2.0, 1.0]))


@pytest.mark.parametrize("entry", [equality_certificate, asymptotic_variances])
def test_negative_definite_energy_operator_is_a_defect(entry):
    # L = -(graph Laplacian) is symmetric and kills constants, but a solve
    # with it would give sigma2_rev < 0; the grounded factor refuses it, as
    # the spectral chain does
    lap = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
    sys = DiscretizedSystem(
        n=3, pi_weights=np.full(3, 1.0 / 3.0), l_matrix=csr_array(-lap),
        s_matrix=csr_array((3, 3)),
        const_vec=np.ones(3),
    )
    with pytest.raises(DiscretizationDefectError, match="not positive definite"):
        entry(sys, np.array([1.0, -2.0, 1.0]))


# fixed before the first run: an eighth of one parity block's dense
# restriction of L at m = 64 (2048^2 doubles, 33.5 MB)
REFUSAL_PEAK_BYTES = 4 * 2**20


@pytest.mark.parametrize("case", ["parity torus", "one-block torus"])
def test_sparse_route_refuses_a_negated_l_by_its_pivot(case, monkeypatch):
    # -L is negative definite, so the grounded factor's first pivot is
    # negative: every sparse entry point refuses by it, in O(n) memory, and
    # never solves the dense restriction of L for an eigenvalue
    from dataclasses import replace

    import scipy.sparse.linalg  # noqa: F401  (imported before tracing)

    def spy(*args, **kwargs):
        raise AssertionError("the dense restriction of L was solved")

    monkeypatch.setattr(_Block, "l_eigen", spy)
    u = torus_cosine(2, 1.0)
    drift = (make_qgradu_drift(ROT, u) if case == "parity torus"
             else _flux_drift(u, (1.0, np.sqrt(2.0))))
    sound = discretize_torus(u, drift, 64)
    f = observable_vector(sound, parse_observable("cos1", 2))
    for entry in (asymptotic_variances, equality_certificate, variance_report):
        defective = replace(sound, l_matrix=-sound.l_matrix)
        tracemalloc.start()
        try:
            with pytest.raises(DiscretizationDefectError,
                               match=r"not positive definite .*: pivot 1 of "
                                     r"\d+ of L D L\^T is -"):
                entry(defective, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= REFUSAL_PEAK_BYTES, (entry.__name__, peak)
        assert len(defective._blocks) == (2 if case == "parity torus" else 1)


def test_variance_report_factors_l_once(monkeypatch):
    # in each of the two parity blocks, one sparse LU of L - S for the
    # resolvent, on the block's coordinates and the border where the block
    # holds the constants, and one L D L^T of the grounded L for every solve
    # with L, the chain's included; the only other factorization is
    # SuperLU's of each block's triangular F, in its own order
    import scipy.sparse
    import scipy.sparse.linalg

    calls = []
    splu = scipy.sparse.linalg.splu

    def counting(a, permc_spec, **kwargs):
        triangular = scipy.sparse.tril(a, -1).nnz == 0
        calls.append((a.shape[0], permc_spec, triangular))
        return splu(a, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting)
    u = torus_cosine(2, 1.0)
    sys = discretize_torus(u, make_qgradu_drift(ROT, u), 12)
    variance_report(sys, np.cos(sys.points[:, 0]))
    sizes = [block.size for block in sys._blocks]
    assert sorted(sizes) == [70, 73] and sum(sizes) == sys.n - 1
    assert sorted(calls) == sorted(
        [(size, order, order == "NATURAL") for size in sizes
         for order in ("MMD_AT_PLUS_A", "NATURAL")]
        + [(len(block.weights) + (block.const is not None), "MMD_AT_PLUS_A",
            False) for block in sys._blocks])
    for block in sys._blocks:
        assert block.factor.triangular.L.nnz == block.size


@pytest.mark.parametrize("case", ["torus", "hermite"])
def test_sparse_solves_use_no_triangular_solver(case, hermite_sys, monkeypatch):
    # every sparse solve is SuperLU's on a cached factor: the values are
    # those of the spsolve_triangular route to rounding, and that route is
    # never taken
    import scipy.sparse.linalg

    def refuse(*args, **kwargs):
        raise AssertionError("spsolve_triangular called")

    monkeypatch.setattr(scipy.sparse.linalg, "spsolve_triangular", refuse)
    if case == "hermite":
        sys, f = hermite_sys, np.arange(hermite_sys.n) % 5 - 1.5
        expected = (28.775, 18.379555116466655, 18.37955511646666)
    else:
        u = torus_cosine(2, 1.0)
        sys = discretize_torus(u, make_qgradu_drift(ROT, u), 12)
        f = np.cos(sys.points[:, 0]) + np.sin(sys.points[:, 1]) ** 2
        expected = (0.6820637650986611, 0.6322410721816273, 0.6322410721816282)
    report = variance_report(sys, f)
    np.testing.assert_allclose(
        [report.sigma2_rev, report.sigma2_irr, report.route_spectral],
        expected, rtol=1e-13, atol=0)
    np.testing.assert_allclose(asymptotic_variances(sys, f), expected[:2],
                               rtol=1e-13, atol=0)


@pytest.mark.parametrize("case", ["torus m12", "torus m25", "hermite"])
def test_triangular_factor_adds_no_fill(case, hermite_sys):
    # in each block SuperLU's factor of F has the identity as its L and F as
    # its U, and F's diagonal is the square root of the L D L^T pivots bit
    # for bit
    import scipy.sparse
    from scipy.sparse.linalg import splu

    if case == "hermite":
        sys = hermite_sys
    else:
        u = torus_cosine(2, 1.0)
        sys = discretize_torus(u, make_qgradu_drift(ROT, u), int(case[-2:]))
    for block in sys._blocks:
        keep = block.factor.keep
        pi_l = scipy.sparse.diags_array(block.weights) @ block.l_matrix
        energy = pi_l.tocsr()[keep][:, keep].tocsc()
        u_ldl = splu(energy, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True}).U
        triangular = block.factor.triangular
        assert triangular.L.nnz == block.size
        assert triangular.U.nnz == u_ldl.nnz
        assert np.array_equal(triangular.U.diagonal(), np.sqrt(u_ldl.diagonal()))
        if case == "hermite":
            assert np.array_equal(
                triangular.U.diagonal(),
                np.sqrt([sum(sys.multi_indices[i]) for i in block.basis.indices]))


@pytest.mark.parametrize("case", ["torus", "hermite"])
def test_each_block_factors_and_runs_its_chain_once(case, monkeypatch):
    # a block caches its grounded factor, its chain and its resolvent: two
    # reports, a sweep, a certificate, the variances and C4's residuals make
    # each block's L D L^T, triangular F and LU of L - S once, every one but
    # F in minimum-degree order, run its chain once, and factor no system
    # stacked from two blocks
    import scipy.sparse.linalg

    from irrlangevin import spectral_oracle
    from irrlangevin.benchmark import _structure_residuals

    factored, chains = [], []
    splu, skew_svd = scipy.sparse.linalg.splu, spectral_oracle._skew_svd

    def splu_spy(a, permc_spec, **kwargs):
        factored.append((a.shape[0], permc_spec))
        return splu(a, permc_spec=permc_spec, **kwargs)

    def chain_spy(m):
        chains.append(len(m))
        return skew_svd(m)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", splu_spy)
    monkeypatch.setattr(spectral_oracle, "_skew_svd", chain_spy)
    if case == "torus":
        u = torus_cosine(2, 1.0)
        sys = discretize_torus(u, make_qgradu_drift(ROT, u), 16)
    else:
        sys = discretize_gaussian_linear(Q3_CHAIN, dim=3, degree=5)
    f = np.random.default_rng(5).standard_normal(sys.n)
    variance_report(sys, f)
    variance_report(sys, np.roll(f, 1))
    sweep_k(lambda _: sys, f, [0.0, 1.0, 4.0])
    equality_certificate(sys, f)
    asymptotic_variances(sys, f)
    _structure_residuals(sys)
    sizes = [block.size for block in sys._blocks]
    assert len(sizes) == {"torus": 2, "hermite": 5}[case]
    assert sorted(chains) == sorted(sizes)
    # the grounded L_E and F of each block, and its LU of L - S, bordered
    # where it holds the constants
    resolvents = [len(block.weights) + (block.const is not None)
                  for block in sys._blocks]
    assert sorted(factored) == sorted(
        [(size, "MMD_AT_PLUS_A") for size in sizes + resolvents]
        + [(size, "NATURAL") for size in sizes])


def test_column_order_never_reaches_a_hermite_solve():
    # a shell's grounded L_E is diagonal, so its factor in minimum-degree
    # order solves with F and F^T to the same bits as one in its own order
    import scipy.sparse.linalg

    from irrlangevin.spectral_oracle import _EnergyFactor

    q = np.diag(np.ones(4), 1)
    sys = discretize_gaussian_linear(q - q.T, dim=5, degree=8)
    on_diagonal = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}
    rng = np.random.default_rng(11)
    assert len(sys._blocks) == 8
    for block in sys._blocks:
        keep, energy = block.grounded_energy()
        lu = scipy.sparse.linalg.splu(energy.tocsc(), permc_spec="NATURAL",
                                      **on_diagonal)
        f = lu.U
        root = np.sqrt(f.diagonal())
        f.data /= root[f.indices]
        f.setdiag(root)
        natural = _EnergyFactor(keep, lu.perm_c.copy(), scipy.sparse.linalg.splu(
            f, permc_spec="NATURAL", **on_diagonal))
        x = rng.standard_normal((len(keep), 3))
        assert np.array_equal(block.factor.solve(x), natural.solve(x))
        assert np.array_equal(block.factor.solve_t(x), natural.solve_t(x))


TRIANGLE = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
CYCLE = 0.7 * np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])


@pytest.mark.parametrize("changes, named", [
    # pi summing to 3 gave sigma2_rev 3.93 for the true 1.33
    ({"pi_weights": np.ones(3)}, "pi-normalized"),
    # (1, 1, 0) gave sigma2_irr 1.150 > sigma2_rev 0.858
    ({"const_vec": np.array([1.0, 1.0, 0.0])}, "pi-normalized"),
    ({"const_vec": np.sqrt(1.5) * np.array([1.0, 1.0, 0.0])}, "annihilate"),
    ({"pi_weights": np.array([0.5, 0.5, 0.0])}, "finite and positive"),
    ({"pi_weights": np.array([0.5, np.nan, 0.5])}, "finite and positive"),
    ({"n": 4}, "shapes"),
    ({"const_vec": np.ones(4)}, "shapes"),
    ({"s_matrix": csr_array((2, 2))}, "shapes"),
], ids=["pi-sums-to-3", "const-110", "const-110-normalized", "pi-zero",
        "pi-nan", "n", "const-length", "s-shape"])
def test_system_refuses_what_it_cannot_represent(changes, named):
    # the triangle Laplacian and a 3-cycle circulation on uniform states
    fields = {"n": 3, "pi_weights": np.full(3, 1.0 / 3.0),
              "l_matrix": csr_array(TRIANGLE), "s_matrix": csr_array(CYCLE),
              "const_vec": np.ones(3)}
    DiscretizedSystem(**fields)
    with pytest.raises(ValueError, match=named):
        DiscretizedSystem(**{**fields, **changes})


@pytest.mark.parametrize("build", [
    lambda: discretize_torus(torus_cosine(2, 1.0),
                             make_qgradu_drift(ROT, torus_cosine(2, 1.0)), 8),
    lambda: discretize_torus(torus_cosine(2, 1.0),
                             make_qgradu_drift(ROT, torus_cosine(2, 1.0)), 83),
    lambda: discretize_torus(torus_cosine(3, 1.0),
                             make_qgradu_drift(Q3_CHAIN, torus_cosine(3, 1.0)), 19),
    lambda: discretize_gaussian_linear(np.diag(np.ones(4), 1)
                                       - np.diag(np.ones(4), -1), 5, 8),
], ids=["torus m8", "torus m83", "3-d m19", "hermite d5 deg8"])
def test_every_discretizer_passes_the_system_checks(build):
    # built, so accepted; the checks' quantities sit far below their bound
    sys = build()
    c = sys.const_vec
    assert abs(np.sum(sys.pi_weights * c * c) - 1.0) <= 1e-15
    assert np.max(np.abs(sys.l_matrix @ c)) <= 1e-15 * abs(sys.l_matrix).max()


def test_non_finite_solution_is_a_defect():
    # L factors (its pivots are small but normal), yet the solution for an
    # observable of size 1e300 overflows
    l_tiny = 1e-10 * np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0],
                               [0.0, -1.0, 1.0]])
    sys = DiscretizedSystem(
        n=3, pi_weights=np.full(3, 1.0 / 3.0), l_matrix=csr_array(l_tiny),
        s_matrix=csr_array((3, 3)),
        const_vec=np.ones(3),
    )
    with pytest.raises(DiscretizationDefectError, match="singular"):
        asymptotic_variances(sys, np.array([1e300, -2e300, 1e300]))


def test_singular_resolvent_is_a_defect():
    # L = S = 0 passes the system checks; a direct solve is the one caller
    # that meets the bordered LU of L - S before L's own factor, and SuperLU
    # reports its zero pivot
    sys = DiscretizedSystem(
        n=3, pi_weights=np.full(3, 1.0 / 3.0), l_matrix=csr_array((3, 3)),
        s_matrix=csr_array((3, 3)), const_vec=np.ones(3),
    )
    with pytest.raises(DiscretizationDefectError, match="perturbed operator is "
                       "singular on the mean-zero subspace"):
        sys.solve(np.ones(2))


def test_asymptotic_variances_match_report(torus_sys):
    rng = np.random.default_rng(11)
    f = rng.standard_normal(torus_sys.n)
    rep = variance_report(torus_sys, f)
    rev, irr = asymptotic_variances(torus_sys, f)
    assert rev == pytest.approx(rep.sigma2_rev, rel=1e-12)
    assert irr == pytest.approx(rep.sigma2_irr, rel=1e-12)


def test_generator_gaps_ou():
    sys = discretize_gaussian_linear(ROT, dim=2, degree=5)
    gap_l, min_real = generator_gaps(sys)
    assert gap_l == pytest.approx(1.0, abs=1e-12)
    # L and the drift commute here, so the real parts are exactly the degrees
    assert min_real == pytest.approx(1.0, abs=1e-10)


def test_generator_gaps_torus_hwang_inequality(torus_sys):
    gap_l, min_real = generator_gaps(torus_sys)
    assert gap_l > 0.0
    assert min_real >= gap_l - 1e-10


def test_mesh_consistency_1d():
    # second-order convergence: successive sigma2 differences shrink ~4x
    u = torus_cosine(1, 1.0)
    c = exp_u_field_1d()

    def sigma_at(m):
        sys = discretize_torus(u, c, m)
        f = np.cos(sys.points[:, 0])
        return asymptotic_variances(sys, f)

    values = {m: sigma_at(m) for m in (16, 32, 64)}
    for route in (0, 1):
        d1 = values[16][route] - values[32][route]
        d2 = values[32][route] - values[64][route]
        assert 3.0 <= d1 / d2 <= 5.0


# --- independent dense reference ---------------------------------------------
#
# The dense construction the sparse oracle replaced, kept here (and only here)
# as an oracle: the full-space drift matrix is built by projecting the raw
# centred differences and pi-antisymmetrizing them, and the mean-zero subspace
# is spanned by an explicit Householder basis.


def _dense_householder_basis(pi):
    u = np.sqrt(pi)
    v = u.copy()
    v[0] += 1.0
    h = np.eye(len(pi)) - (2.0 / (v @ v)) * np.outer(v, v)
    return h[:, 1:] / u[:, None]


def _dense_torus(u, c, m):
    n = m**u.dim
    h = 2.0 * np.pi / m
    axes = [np.arange(m) * h] * u.dim
    points = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                      axis=-1)
    index = np.arange(n).reshape((m,) * u.dim)
    energy = u.eval(points)
    weight = np.exp(-energy)
    pi = weight / weight.sum()
    flat = index.ravel()
    w_edges = np.zeros((n, n))
    for ax in range(u.dim):
        nb = np.roll(index, -1, axis=ax).ravel()
        cond = np.exp(-(energy[flat] + energy[nb]) / 2.0)
        w_edges[flat, nb] += cond
        w_edges[nb, flat] += cond
    l_mat = ((np.diag(w_edges.sum(axis=1)) - w_edges) / weight[:, None]) / h**2
    cval = c.eval(points)
    a_raw = np.zeros((n, n))
    for ax in range(u.dim):
        fwd = np.roll(index, -1, axis=ax).ravel()
        bwd = np.roll(index, 1, axis=ax).ravel()
        a_raw[flat, fwd] += cval[:, ax] / (2.0 * h)
        a_raw[flat, bwd] -= cval[:, ax] / (2.0 * h)
    a_proj = a_raw - np.outer(np.ones(n), pi @ a_raw)
    a_adj = (a_proj.T * weight[None, :]) / weight[:, None]
    a_mat = (a_proj - a_adj) / 2.0
    correction = np.linalg.norm((a_proj + a_adj) / 2.0) / np.linalg.norm(a_proj)
    return pi, l_mat, a_mat, _dense_householder_basis(pi), float(correction)


def _dense_hermite(q, dim, degree):
    idxs = hermite_indices(dim, degree)
    pos = {alpha: i for i, alpha in enumerate(idxs)}
    n = len(idxs)
    a_mat = np.zeros((n, n))
    for col, beta in enumerate(idxs):
        for i in range(dim):
            for j in range(dim):
                if i == j or beta[i] == 0:
                    continue
                target = list(beta)
                target[i] -= 1
                target[j] += 1
                a_mat[pos[tuple(target)], col] += q[i, j] * np.sqrt(
                    beta[i] * (beta[j] + 1))
    l_mat = np.diag([float(sum(alpha)) for alpha in idxs])
    return np.ones(n), l_mat, a_mat, np.eye(n)[:, 1:], 0.0


def _dense_variances(pi, l_mat, a_mat, basis, f):
    """(sigma2_rev, sigma2_irr, kernel residual, spectral route) densely."""
    fr = basis.T @ (pi * f)  # the basis is pi-orthogonal to the constants
    lr = basis.T @ (pi[:, None] * l_mat) @ basis
    ar = basis.T @ (pi[:, None] * a_mat) @ basis
    lr, ar = (lr + lr.T) / 2.0, (ar - ar.T) / 2.0
    h0 = np.linalg.solve(lr, fr)
    rev = 2.0 * fr @ h0
    irr = 2.0 * fr @ np.linalg.solve(lr - ar, fr)
    residual = np.linalg.norm(ar @ h0) / np.linalg.norm(fr)
    w, vec = np.linalg.eigh(lr)
    v = (vec / np.sqrt(w)) @ vec.T
    y, z = np.linalg.eigh(1j * (v @ ar @ v))
    g = v @ fr
    spectral = 2.0 * np.sum(np.abs(z.conj().T @ g) ** 2 / (1.0 + y**2))
    return rev, irr, residual, spectral


def _torus_case(dim, amplitude, m, field=None):
    def build():
        u = torus_cosine(dim, amplitude)
        c = field() if field else make_qgradu_drift(ROT, u)
        return discretize_torus(u, c, m), _dense_torus(u, c, m)
    return build


def _hermite_case():
    q = np.array([[0.0, 1.0, 0.4], [-1.0, 0.0, 0.7], [-0.4, -0.7, 0.0]])
    return discretize_gaussian_linear(q, 3, 4), _dense_hermite(q, 3, 4)


DENSE_CASES = {
    "torus m12 amp 1": _torus_case(2, 1.0, 12),
    "torus m16 amp 1": _torus_case(2, 1.0, 16),
    "torus m12 amp (1, 0)": _torus_case(2, (1.0, 0.0), 12),
    "torus m16 amp (1, 0)": _torus_case(2, (1.0, 0.0), 16),
    "torus 1-d exp_u m32": _torus_case(1, 1.0, 32, exp_u_field_1d),
    "hermite dim 3 degree 4": _hermite_case,
}


@pytest.mark.parametrize("case", list(DENSE_CASES))
def test_sparse_oracle_matches_dense_reference(case):
    sys, (pi, l_mat, a_mat, basis, correction) = DENSE_CASES[case]()
    for got, ref in ((sys.l_matrix.toarray(), l_mat), (_dense_a(sys), a_mat)):
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    # U = cos x1 makes the grid field exactly divergence-free, so both
    # corrections are rounding noise there; 1e-15 is that noise floor
    assert sys.antisym_correction == pytest.approx(correction, rel=1e-12,
                                                   abs=1e-15)
    rng = np.random.default_rng(31)
    for _ in range(3):
        f = rng.standard_normal(sys.n)
        rev, irr, residual, spectral = _dense_variances(pi, l_mat, a_mat,
                                                        basis, f)
        rep = variance_report(sys, f)
        solved = asymptotic_variances(sys, f)
        cert = equality_certificate(sys, f)
        for got, ref in ((rep.sigma2_rev, rev), (solved[0], rev),
                         (rep.sigma2_irr, irr), (solved[1], irr),
                         (cert.residual, residual),
                         (rep.route_spectral, spectral)):
            assert got == pytest.approx(ref, rel=1e-12)


def test_c4_stencil_rows_agree_with_dense_a():
    # C4 reads A = P S P on its stencil: D A = P^T (D S) P with D = diag(pi),
    # and A 1 = P S P 1.  A symmetric defect B in D S must fail the
    # pi-antisymmetry row exactly when it fails on the dense A
    from dataclasses import replace

    from irrlangevin.benchmark import _structure_residuals

    u = torus_cosine(2, 1.0)
    sound = discretize_torus(u, make_qgradu_drift(ROT, u), 12)
    b = csr_array(([1e-6, 1e-6], ([5, 40], [40, 5])), shape=(sound.n, sound.n))
    broken = replace(sound, s_matrix=sound.s_matrix
                     + csr_array(b / sound.pi_weights[:, None]))
    for sys, defect in ((sound, False), (broken, True)):
        rows = dict(_structure_residuals(sys))
        a = _dense_a(sys)
        pi_a = sys.pi_weights[:, None] * a
        assert (rows["pi-antisymmetry of A"] > 1e-10) == defect
        assert (np.max(np.abs(pi_a + pi_a.T)) > 1e-10) == defect
        assert rows["A annihilates constants"] <= 1e-10
        assert np.max(np.abs(a @ sys.const_vec)) <= 1e-10


def test_mean_zero_coordinates_are_the_householder_basis(torus_sys, hermite_sys):
    # the O(n) reflector maps agree with the dense basis, and in the Hermite
    # basis they drop or prepend coordinate 0 exactly
    rng = np.random.default_rng(3)
    for sys in (torus_sys, hermite_sys):
        b = _mean_zero_basis(sys)
        f, _ = sys.center(rng.standard_normal(sys.n))
        coords = rng.standard_normal((sys.n - 1, 2))
        np.testing.assert_allclose(sys.to_mean_zero(f),
                                   b.T @ (sys.pi_weights * f), atol=1e-12)
        np.testing.assert_allclose(sys.from_mean_zero(coords), b @ coords,
                                   atol=1e-12)
        np.testing.assert_allclose(sys.to_mean_zero(sys.from_mean_zero(coords)),
                                   coords, atol=1e-12)
    f = rng.standard_normal(hermite_sys.n)
    np.testing.assert_array_equal(hermite_sys.to_mean_zero(f), f[1:])
    np.testing.assert_array_equal(hermite_sys.from_mean_zero(f[1:]),
                                  np.concatenate([[0.0], f[1:]]))
    np.testing.assert_array_equal(_mean_zero_basis(hermite_sys),
                                  np.eye(hermite_sys.n)[:, 1:])


# --- invariant blocks --------------------------------------------------------


def _flux_drift(u, c):
    """C = e^U c for a constant vector c: pi-divergence-free, since C e^{-U}
    = c, and even under x -> -x on an even U."""
    c = np.asarray(c, dtype=float)

    def _eval(x):
        return np.exp(u.eval(x))[..., None] * c

    def _div(x):
        return np.exp(u.eval(x)) * (u.grad(x) @ c)

    return DriftField(dim=u.dim, eval=_eval, divergence=_div,
                      kind=DriftKind.CUSTOM, name="flux")


@pytest.mark.parametrize("dim,points", [(2, 24), (2, 25), (3, 8)],
                         ids=["m24", "m25", "3-d m8"])
def test_parity_blocks_match_the_dense_reference(dim, points):
    # an odd drift on an even U splits the grid into its even and odd
    # functions; over C1's observables the blocked chain gives the atoms,
    # the variances and the zero atom of the dense Cholesky congruence on
    # the block-blind basis.  At m = 25 the zero cluster sits 4.9e-8 from
    # the next atom, so there any route fixes its mass only to first
    # order in the rounding, eps |M| / gap of the total mass
    u = torus_cosine(dim, 1.0)
    sys = discretize_torus(u, make_qgradu_drift(ROT if dim == 2 else Q3_CHAIN, u),
                           points)
    even, odd = sys._blocks
    fixed = np.sum(np.diff(even.basis.indptr) == 1)
    assert np.all(even.basis.data == 1.0)
    assert np.array_equal(np.unique(odd.basis.data), [-1.0, 1.0])
    assert fixed == (2**dim if points % 2 == 0 else 1)
    assert (even.size, odd.size) == ((sys.n + fixed) // 2 - 1, (sys.n - fixed) // 2)
    rng = np.random.default_rng(OBSERVABLE_SEED)
    observables = [rng.standard_normal(sys.n) for _ in range(20)]
    references = _dense_cholesky_atoms(sys, [sys.reduce(f)[0] for f in observables])
    for f, (locs, mass) in zip(observables, references):
        report = variance_report(sys, f)
        rev = 2.0 * np.sum(mass)
        spectral = 2.0 * np.sum(mass / (1.0 + locs**2))
        assert report.sigma2_rev == pytest.approx(rev, rel=1e-12, abs=0)
        assert report.route_spectral == pytest.approx(spectral, rel=1e-12, abs=0)
        assert report.sigma2_irr == pytest.approx(spectral, rel=1e-12, abs=0)
        measure = report.measure
        assert locs[0] <= EIGENVALUE_MERGE_TOL < locs[1]
        assert len(measure.locations) == 2 * len(locs) - 1
        np.testing.assert_allclose(measure.locations[len(locs):], locs[1:],
                                   rtol=0, atol=1e-12)
        gaps = np.minimum(np.diff(locs, prepend=-np.inf),
                          np.diff(locs, append=np.inf))[1:]
        error = np.abs(2.0 * measure.weights[len(locs):] - mass[1:])
        assert np.max(error[gaps >= 1e-6]) <= 1e-12 * measure.total_mass
        zero = measure.weights[len(locs) - 1]
        if points == 25:
            bound = np.finfo(float).eps * locs[-1] / locs[1]
            assert abs(zero - mass[0]) <= bound * measure.total_mass
        else:
            assert zero == pytest.approx(mass[0], rel=1e-12, abs=0)


def test_a_drift_that_is_not_odd_runs_as_one_block():
    # the flux drift e^U c is even, so its S anticommutes with the
    # inversion: the grid is one block, the states themselves, with the
    # system's own operators and weights, and the values are those of the
    # chain before it was blocked
    u = torus_cosine(2, 1.0)
    sys = discretize_torus(u, _flux_drift(u, (1.0, np.sqrt(2.0))), 16)
    (block,) = sys._blocks
    np.testing.assert_array_equal(block.basis.toarray(), np.eye(sys.n))
    assert block.offset == 0
    assert block.l_matrix is sys.l_matrix and block.s_matrix is sys.s_matrix
    np.testing.assert_array_equal(block.weights, sys.pi_weights)
    f = np.cos(sys.points[:, 0])
    report = variance_report(sys, f)
    res = worst_case(sys)
    values = [report.sigma2_rev, report.sigma2_irr, report.route_spectral,
              *generator_gaps(sys), res.sup_rev, res.sup_irr]
    expected = [0.6007739527218545, 0.38681176447210003, 0.3868117644720999,
                1.144844006310638, 1.373015766427169, 1.7469628953600225,
                1.229369957469373]
    np.testing.assert_allclose(values, expected, rtol=1e-13, atol=0)


def test_hermite_shells_are_the_blocks():
    # L and S have no entry between two degree shells, the chain runs one
    # shell at a time, and its atoms, variances, gaps and worst case are
    # those of the same system run as one block
    from dataclasses import replace

    q = np.array([[0.0, 1.0, -0.5], [-1.0, 0.0, 0.3], [0.5, -0.3, 0.0]])
    sys = discretize_gaussian_linear(q, 3, 5)
    degree = np.array([sum(a) for a in sys.multi_indices])
    for op in (sys.l_matrix, sys.s_matrix):
        dense = op.toarray()
        assert np.all(dense[degree[:, None] != degree[None, :]] == 0.0)
    assert [block.basis.indices.tolist() for block in sys._blocks] == [
        np.flatnonzero(degree == d).tolist() for d in range(1, 6)]
    whole = replace(sys, multi_indices=None)
    assert len(whole._blocks) == 1
    rng = np.random.default_rng(OBSERVABLE_SEED)
    for _ in range(20):
        f = rng.standard_normal(sys.n)
        got, ref = variance_report(sys, f), variance_report(whole, f)
        for key in ("sigma2_rev", "sigma2_irr", "route_spectral"):
            assert getattr(got, key) == pytest.approx(getattr(ref, key), rel=1e-12)
        np.testing.assert_allclose(got.measure.locations, ref.measure.locations,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.measure.weights, ref.measure.weights,
                                   rtol=0, atol=1e-12 * ref.measure.total_mass)
    np.testing.assert_allclose(generator_gaps(sys), generator_gaps(whole),
                               rtol=1e-12)
    got, ref = worst_case(sys), worst_case(whole)
    assert got.l_eigenspace_dim == ref.l_eigenspace_dim == 3
    assert got.kernel_intersection_dim == ref.kernel_intersection_dim
    assert got.sup_irr == pytest.approx(ref.sup_irr, rel=1e-12)
    assert got.sup_rev == ref.sup_rev


@pytest.mark.parametrize("case", ["parity torus m12", "parity torus m13",
                                  "3-d torus", "hermite shells",
                                  "one-block torus"])
def test_block_bases_are_pi_orthogonal_and_gather_inverts_scatter(case):
    # the blocks' sparse bases, side by side, have a diagonal Gram matrix
    # B^T diag(pi) B whose diagonal is each block's weights, exactly (the
    # mirror pairs share their pi); gathering a scattered x returns x bit
    # for bit, one vector or several
    u = torus_cosine(2, 1.0)
    if case.startswith("parity torus"):
        sys = discretize_torus(u, make_qgradu_drift(ROT, u), int(case[-2:]))
    elif case == "3-d torus":
        u = torus_cosine(3, 1.0)
        sys = discretize_torus(u, make_qgradu_drift(Q3_CHAIN, u), 8)
    elif case == "hermite shells":
        q = np.array([[0.0, 1.0, -0.5], [-1.0, 0.0, 0.3], [0.5, -0.3, 0.0]])
        sys = discretize_gaussian_linear(q, 3, 5)
    else:
        sys = discretize_torus(u, _flux_drift(u, (1.0, np.sqrt(2.0))), 12)
    assert len(sys._blocks) == {"hermite shells": 5,
                                "one-block torus": 1}.get(case, 2)
    basis = np.hstack([block.basis.toarray() for block in sys._blocks])
    gram = basis.T @ (sys.pi_weights[:, None] * basis)
    np.testing.assert_array_equal(
        gram, np.diag(np.concatenate([block.weights for block in sys._blocks])))
    rng = np.random.default_rng(11)
    for block in sys._blocks:
        assert block.basis.indices.dtype == np.int32
        for shape in ((len(block.weights),), (len(block.weights), 3)):
            x = rng.standard_normal(shape)
            out = np.zeros((sys.n,) + shape[1:])
            block.scatter_add(x, out)
            np.testing.assert_array_equal(block.gather(out), x)


@pytest.mark.parametrize("case", ["one-block torus", "parity torus",
                                  "hermite shells"])
def test_resolvent_solve_matches_the_dense_reference(case):
    # the blocks' LUs solve (L - A) h = f and, with adjoint, (L - A)^T h = f
    # on the mean-zero subspace: a torus whose drift is not odd is one
    # block, an odd drift on an even U splits into parity blocks with the
    # border in the even one, and the Hermite shells drop the degree-0
    # shell and with it the border
    u = torus_cosine(2, 1.0)
    if case == "one-block torus":
        sys = discretize_torus(u, _flux_drift(u, (1.0, np.sqrt(2.0))), 12)
    elif case == "parity torus":
        sys = discretize_torus(u, make_qgradu_drift(ROT, u), 13)
    else:
        q = np.array([[0.0, 1.0, -0.5], [-1.0, 0.0, 0.3], [0.5, -0.3, 0.0]])
        sys = discretize_gaussian_linear(q, 3, 5)
    blocks = len(sys._blocks)
    assert blocks == {"one-block torus": 1, "parity torus": 2,
                      "hermite shells": 5}[case]
    border = [int(block.const is not None) for block in sys._blocks]
    assert sum(border) == (case != "hermite shells")
    for block, extra in zip(sys._blocks, border):
        size = len(block.weights) + extra
        assert block.resolvent.shape == (size, size)
    basis = _mean_zero_basis(sys)
    resolvent = basis.T @ (sys.pi_weights[:, None]
                           * ((sys.l_matrix - _dense_a(sys)) @ basis))
    rhs = np.random.default_rng(5).standard_normal((sys.n - 1, 3))
    for adjoint, dense in ((False, resolvent), (True, resolvent.T)):
        expected = np.linalg.solve(dense, rhs)
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(sys.solve(rhs, adjoint=adjoint), expected,
                                   rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(sys.solve(rhs[:, 0], adjoint=adjoint),
                                   expected[:, 0], rtol=0, atol=1e-12 * scale)


def test_resolvent_factor_fills_no_entry_between_blocks():
    # at torus m = 32 the two parity blocks' LUs hold 26,678 entries in L + U
    # together; the same LU on the whole state space held 40,390
    from irrlangevin.benchmark import torus_benchmark_system

    sys = torus_benchmark_system(1.0, 32)
    assert len(sys._blocks) == 2
    assert sum(block.resolvent.shape[0] for block in sys._blocks) == sys.n + 1
    assert sum(block.resolvent.L.nnz + block.resolvent.U.nnz
               for block in sys._blocks) <= 27_000


def test_hermite_shells_fill_in_minimum_degree_order():
    # on Hermite d=5 degree 8 with the chain rotation the eight shells' LUs
    # of L - S hold 39,916 entries in minimum-degree order; in COLAMD order
    # they held 60,094, and one LU of the shells stacked 60,088
    q = np.diag(np.ones(4), 1)
    sys = discretize_gaussian_linear(q - q.T, dim=5, degree=8)
    assert len(sys._blocks) == 8
    assert all(block.const is None for block in sys._blocks)
    assert sum(block.resolvent.L.nnz + block.resolvent.U.nnz
               for block in sys._blocks) == 39_916


# (n, seed) of the random reversible generators, fixed before their first run
RANDOM_GENERATORS = [(5, 1701), (5, 1702), (17, 1703), (17, 1704),
                     (60, 1705), (60, 1706), (200, 1707), (200, 1708)]


def _random_generator_system(n, seed):
    """A pi-reversible generator plus a pi-preserving drift on n states.

    pi is uniform on [0.2, 1], normalized; L = diag(pi)^{-1} (D - W) for the
    random conductances W of a ring plus 2n random chords; S =
    diag(pi)^{-1} J, with J a sum of n circulations of random strength
    around random triangles, antisymmetric with zero row sums, so S kills
    the constants and keeps pi.  Such a system is neither a grid nor a
    Hermite basis: it is one block, B = I on the states themselves.
    """
    rng = np.random.default_rng(seed)
    pi = rng.uniform(0.2, 1.0, n)
    pi /= pi.sum()
    chords = rng.integers(0, n, (2, 2 * n))
    chords = chords[:, chords[0] != chords[1]]
    heads = np.concatenate([np.arange(n), chords[0]])
    tails = np.concatenate([(np.arange(n) + 1) % n, chords[1]])
    w = np.zeros((n, n))
    np.add.at(w, (heads, tails), rng.uniform(0.5, 2.0, len(heads)))
    w += w.T
    circulation = np.zeros((n, n))
    for _ in range(n):
        a, b, c = rng.choice(n, 3, replace=False)
        strength = rng.uniform(0.5, 2.0)
        for x, y in ((a, b), (b, c), (c, a)):
            circulation[x, y] += strength
            circulation[y, x] -= strength
    return DiscretizedSystem(
        n=n, pi_weights=pi,
        l_matrix=csr_array((np.diag(w.sum(axis=1)) - w) / pi[:, None]),
        s_matrix=csr_array(circulation / pi[:, None]), const_vec=np.ones(n))


def _dense_bordered_reference(sys, fs):
    """sigma2_rev and sigma2_irr of each centred column of ``fs``, from the
    dense bordered systems [[op, 1], [pi^T, 0]]; then sup_rev, sup_irr,
    the smallest mean-zero eigenvalue of L and min Re spec(L - A), in a
    pi-orthonormal basis of the mean-zero subspace."""
    import scipy.linalg

    n, pi = sys.n, sys.pi_weights
    l_dense, s_dense = sys.l_matrix.toarray(), sys.s_matrix.toarray()
    fc = fs - pi @ fs
    variances = []
    for op in (l_dense, l_dense - s_dense):
        bordered = np.block([[op, np.ones((n, 1))], [pi[None], np.zeros((1, 1))]])
        h = np.linalg.solve(bordered, np.vstack([fc, np.zeros((1, fc.shape[1]))]))
        variances.append(2.0 * np.sum(pi[:, None] * fc * h[:n], axis=0))
    root = np.sqrt(pi)
    basis = scipy.linalg.null_space(root[None]) / root[:, None]
    l_r = basis.T @ (pi[:, None] * (l_dense @ basis))
    lc_r = l_r - basis.T @ (pi[:, None] * (s_dense @ basis))
    lam = np.linalg.eigvalsh((l_r + l_r.T) / 2.0)[0]
    resolvent = np.linalg.inv(lc_r)
    return (*variances, 2.0 / lam,
            np.linalg.eigvalsh(resolvent + resolvent.T)[-1], lam,
            np.linalg.eigvals(lc_r).real.min())


@pytest.mark.parametrize("n, seed", RANDOM_GENERATORS)
def test_random_generator_matches_the_dense_bordered_reference(n, seed):
    # one block whose basis is the states themselves: both variances by
    # both routes, worst_case and generator_gaps agree with dense bordered
    # solves and eigen-solves
    sys = _random_generator_system(n, seed)
    assert len(sys._blocks) == 1
    block = sys._blocks[0]
    assert block.l_matrix is sys.l_matrix and block.s_matrix is sys.s_matrix
    for op in (sys.l_matrix, sys.s_matrix):
        assert (op.indices.dtype, op.indptr.dtype) == (np.int32, np.int32)
    fs = np.random.default_rng(seed).standard_normal((n, 3))
    rev, irr, sup_rev, sup_irr, lam, min_real = _dense_bordered_reference(sys, fs)
    for col in range(fs.shape[1]):
        report = variance_report(sys, fs[:, col])
        np.testing.assert_allclose(
            [report.sigma2_rev, report.sigma2_irr, report.route_spectral,
             *asymptotic_variances(sys, fs[:, col])],
            [rev[col], irr[col], irr[col], rev[col], irr[col]], rtol=1e-12, atol=0)
    result = worst_case(sys)
    assert result.strict and result.kernel_intersection_dim == 0
    np.testing.assert_allclose([result.sup_rev, result.sup_irr, result.lambda_min],
                               [sup_rev, sup_irr, lam], rtol=1e-12, atol=0)
    np.testing.assert_allclose(generator_gaps(sys), [lam, min_real],
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("n, seed", RANDOM_GENERATORS)
def test_random_generator_keeps_the_inequality(n, seed):
    # C1 on a system that is neither a grid nor a shell: the drift never
    # raises the variance, over as many observables as C1 scans
    from irrlangevin.benchmark import SCAN_OBSERVABLES

    sys = _random_generator_system(n, seed)
    rng = np.random.default_rng(OBSERVABLE_SEED)
    slack = max(report.sigma2_irr - report.sigma2_rev for report in (
        variance_report(sys, rng.standard_normal(n))
        for _ in range(SCAN_OBSERVABLES)))
    assert slack <= TOLERANCES["C1_slack"]


@pytest.mark.parametrize("case", ["parity torus", "one-block torus",
                                  "3-d torus", "hermite shells"])
def test_sparse_indices_are_superlus_int32(case, monkeypatch):
    # SuperLU indexes with C int: every sparse array a system holds carries
    # int32 indices from the stencil on, so none is upcast on its way and
    # splu copies none of them; with numpy's default int64 a stored entry
    # cost 16 bytes instead of 12
    import scipy.sparse.linalg

    handed = []
    splu = scipy.sparse.linalg.splu

    def spy(a, *args, **kwargs):
        handed.append(a)
        return splu(a, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
    if case == "parity torus":
        u = torus_cosine(2, 1.0)
        sys = discretize_torus(u, make_qgradu_drift(ROT, u), 16)
    elif case == "one-block torus":
        u = torus_cosine(2, 1.0)
        sys = discretize_torus(u, _flux_drift(u, (1.0, np.sqrt(2.0))), 12)
    elif case == "3-d torus":
        u = torus_cosine(3, 1.0)
        sys = discretize_torus(u, make_qgradu_drift(Q3_CHAIN, u), 8)
    else:
        q = np.diag(np.ones(4), 1)
        sys = discretize_gaussian_linear(q - q.T, dim=5, degree=8)
    blocks = sys._blocks
    assert len(blocks) == {"parity torus": 2, "one-block torus": 1,
                           "3-d torus": 2, "hermite shells": 8}[case]
    f = np.random.default_rng(3).standard_normal(sys.n)
    asymptotic_variances(sys, f)
    # the grounded factor, its triangular F and the LU of L - S per block
    assert len(handed) == 3 * len(blocks)
    held = [sys.l_matrix, sys.s_matrix]
    for block in blocks:
        held += [block.l_matrix, block.s_matrix, block.grounded_energy()[1]]
    for a in held + handed:
        assert (a.indices.dtype, a.indptr.dtype) == (np.int32, np.int32)


def test_scipy_modules_of_the_sparse_route():
    # discretize_torus and asymptotic_variances load no scipy module beyond
    # those that scipy.sparse, scipy.sparse.linalg and scipy.linalg load
    # themselves: finding the blocks needs no scipy.sparse.csgraph, which
    # would add to the start-up and the peak of a run that only simulates
    # beside its reference values
    import irrlangevin

    src = str(Path(irrlangevin.__file__).resolve().parents[1])
    loaded = "print(*(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    baseline = subprocess.run(
        [sys.executable, "-c", "import sys, scipy.sparse, scipy.sparse.linalg, "
         "scipy.linalg; " + loaded], check=True, capture_output=True,
        text=True).stdout
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import numpy as np; "
        "from irrlangevin import *; "
        "u = make_potential('torus_cosine', dim=2); "
        "s = discretize_torus(u, make_qgradu_drift("
        "np.array([[0.0, 1.0], [-1.0, 0.0]]), u), 16); "
        "asymptotic_variances(s, np.cos(s.points[:, 0])); " + loaded)
    out = subprocess.run([sys.executable, "-c", probe, src], check=True,
                         capture_output=True, text=True).stdout
    modules = set(out.split())
    assert "scipy.sparse.csgraph" not in modules
    assert "scipy.sparse.linalg" in modules
    assert modules <= set(baseline.split())


# --- memory ------------------------------------------------------------------
#
# tracemalloc sees every numpy and scipy.sparse array; the LU factors held
# inside SuperLU are allocated outside its view (a few MB at n = 4096).


def _traced_peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_torus_build_allocates_no_n_by_n_array():
    u = torus_cosine(2, 1.0)
    c = make_qgradu_drift(ROT, u)
    peak = _traced_peak_bytes(lambda: discretize_torus(u, c, 40))
    # one dense float64 (n, n) array is 20.5 MB; the dense construction
    # peaked at 205 MB, the sparse one at 1.45 MB with int64 indices and at
    # 1.10 MB with int32
    assert peak <= 1.15e6


def test_resolvent_route_memory_at_n_4096():
    # the dense construction peaked at 1343 MB traced here; the sparse
    # build, the bordered LUs of L - S and the grounded L D L^T of L at 7.7 MB
    # with the imports traced; with the imports outside the trace, the LU
    # on the whole state space and the parity blocks' factors of L at 3.83
    # MB, the LU in the blocks' coordinates at 3.77 MB, and with int32
    # sparse indices throughout at 2.98 MB
    u = torus_cosine(2, 1.0)
    c = make_qgradu_drift(ROT, u)
    small = discretize_torus(u, c, 8)  # imports land outside the trace
    asymptotic_variances(small, np.cos(small.points[:, 0]))

    def run():
        sys = discretize_torus(u, c, 64)
        asymptotic_variances(sys, np.cos(sys.points[:, 0]))

    assert _traced_peak_bytes(run) <= 3.1e6


def test_sparse_routes_memory_on_a_3d_grid():
    # m = 19, n = 6,859: the build and both sparse routes traced 14.32 MB
    # with int64 sparse indices and 13.40 MB with int32; the peak is the
    # grounded factor of L, whose U, with its 3-d fill, is copied out of
    # SuperLU to be scaled into F
    u = torus_cosine(3, 1.0)
    c = make_qgradu_drift(Q3_CHAIN, u)
    small = discretize_torus(u, c, 8)  # imports land outside the trace
    asymptotic_variances(small, np.cos(small.points[:, 0]))

    def run():
        sys = discretize_torus(u, c, 19)
        asymptotic_variances(sys, np.cos(sys.points[:, 0]))

    assert _traced_peak_bytes(run) <= 14.0e6


def test_l_spectrum_forms_only_the_lowest_cluster():
    # every Hermite shell is degenerate (L = degree I), so each block's own
    # lowest cluster is the whole shell: d=5 degree 8 formed all 1,286
    # eigenvectors to keep the 5 of the first shell, and traced 4.74
    # arrays of the largest shell (495 functions).  A block past the lowest
    # cluster so far forms none: the kept vectors are the first shell's
    # own, the eigenvalue the least of every block's, and the trace stays
    # near one restriction of the largest shell (1.23)
    import scipy.linalg  # noqa: F401 -- imports land outside the trace

    q = np.diag(np.ones(4), 1)
    sys = discretize_gaussian_linear(q - q.T, dim=5, degree=8)
    blocks = sys._blocks
    largest = max(block.size for block in blocks)
    peak = _traced_peak_bytes(lambda: sys._l_spectrum)
    lam, vectors = sys._l_spectrum
    assert vectors.shape == (sys.n - 1, 5)
    own = [block.l_eigen(np.inf) for block in blocks]
    assert lam == min(p[0][0] for p in own)
    np.testing.assert_array_equal(vectors[:blocks[0].size], own[0][1])
    assert not np.any(vectors[blocks[0].size:])
    assert sum(p[1].shape[1] for p in own) == sys.n - 1
    assert peak <= 1.6 * 8 * largest**2


def test_spectral_route_memory_at_m_32():
    # in dense (n - 1)^2 float64 arrays; the complex route (B = iM and its
    # eigenvectors) peaked at 86.3 MB traced here, a full SVD of M at 7.2
    # arrays, the structured skew SVD in L's eigenbasis at 3.65, the
    # Cholesky congruence at 2.54 to 2.65, the sparse factor of the grounded
    # L at 2.22, the whole chain with the singular basis in panels at 2.05,
    # and the chain run one parity block at a time at 0.70
    u = torus_cosine(2, 1.0)
    c = make_qgradu_drift(ROT, u)
    n = 32**2

    def run():
        sys = discretize_torus(u, c, 32)
        variance_report(sys, np.cos(sys.points[:, 0]))

    assert _traced_peak_bytes(run) <= 0.73 * 8 * (n - 1) ** 2


def test_worst_case_memory_at_m_32():
    # the null space of the restricted A is taken while nothing else is
    # alive, and the resolvent is filled into one preallocated array a block
    # of columns at a time; with the identity, the resolvent and its
    # symmetric part alive during the SVD it peaked at 11.2 arrays traced
    # here, with null_space's full SVD first at 6.0, with skew_svd at 3.1,
    # with skew_svd's vectors formed over its input and no eigenvectors of
    # L but those of its lowest eigenspace at 2.53, with the kernel of A
    # from the zero window of its tridiagonal form and no SVD at 1.36 (1.85
    # once the resolvent was filled beside the tridiagonal form of L); with
    # sup_irr by Lanczos through the bordered LU and no resolvent at 1.55
    # (1.29 with the modules it imports loaded before tracing); with no
    # kernel of A, only A applied to L's lowest eigenspace, at 1.23 (1.48
    # with the imports traced); with L restricted one parity block at a
    # time, at 0.365
    u = torus_cosine(2, 1.0)
    c = make_qgradu_drift(ROT, u)
    n = 32**2
    worst_case(discretize_torus(u, c, 8))  # imports land outside the trace

    def run():
        worst_case(discretize_torus(u, c, 32))

    assert _traced_peak_bytes(run) <= 0.38 * 8 * (n - 1) ** 2


# tracemalloc does not see the workspace that numpy.linalg allocates itself
# (nor its copies of every input): a report through numpy's full SVD traced
# 7.1 arrays while its RSS grew by 12.7.  So the dense chain is also bounded
# by the peak RSS (VmHWM) of a fresh process, measured from after the imports.
# The package imports scipy.linalg (8 MB of RSS) and scipy.sparse where it
# first uses them, so the probe imports both before its baseline.  An op
# naming criteria ("C4,C5,C7") runs them through the acceptance matrix,
# whose benchmark systems are the torus at m = 32 and small Hermite ones.
_HWM_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import scipy.linalg
import scipy.sparse
from irrlangevin.analysis import worst_case
from irrlangevin.benchmark import run_benchmark
from irrlangevin.model import make_qgradu_drift, torus_cosine
from irrlangevin.spectral_oracle import (discretize_torus, generator_gaps,
                                         variance_report)

def hwm():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return 1024 * int(line.split()[1])

u = torus_cosine(2, 1.0)
c = make_qgradu_drift(np.array([[0.0, 1.0], [-1.0, 0.0]]), u)
base = hwm()
if sys.argv[2] == "report":
    built = discretize_torus(u, c, 32)
    variance_report(built, np.cos(built.points[:, 0]))
    generator_gaps(built)
elif sys.argv[2] == "worst_case":
    worst_case(discretize_torus(u, c, 32))
else:
    assert run_benchmark(sys.argv[2].split(","))[1]
print((hwm() - base) / (8 * (32**2 - 1) ** 2))
"""


def _peak_rss_growth(op: str) -> float:
    import irrlangevin

    src = str(Path(irrlangevin.__file__).resolve().parents[1])
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="1048576")
    out = subprocess.run([sys.executable, "-c", _HWM_PROBE, src, op], env=env,
                         check=True, capture_output=True, text=True).stdout
    return float(out)


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="VmHWM is read from /proc/self/status")
@pytest.mark.parametrize("op", ["report", "worst_case"])
def test_dense_chain_peak_rss_at_m_32(op):
    # growth in (n - 1)^2 float64 arrays; caching the restrictions, V and a
    # full SVD grew it by 13.4 (report and gaps) and 12.1 (worst case), a
    # lean chain through a full SVD and a dense basis by 7.7 and 6.5, the
    # blockwise restriction and structured skew SVD by 5.1 and 4.0, the
    # Cholesky congruence with the vectors formed over Q by 4.0 and 3.2;
    # worst_case's kernel of A without an SVD by 3.0 (2.5 later); the report
    # through the sparse factor of the grounded L, with Q's reflectors packed
    # during the bidiagonal SVD, by 3.6 (4.16 through the Cholesky
    # congruence); worst_case with sup_irr by Lanczos and no resolvent by
    # 1.95, its kernel restriction being the peak; the report, keeping the
    # singular basis as Householder panels of half an array instead of Z,
    # by 2.98 to 3.02 against 3.33 to 3.35; worst_case with no kernel of A,
    # only A applied to L's lowest eigenspace, by 1.44 to 1.45 against 1.95
    # to 1.96, the restriction of L being the peak; with every dense step
    # run one parity block at a time, the report by 1.70 to 1.73 and
    # worst_case by 0.83 to 0.85; with the LU of L - S in the blocks'
    # coordinates, by 1.66 to 1.69 and 0.77 to 0.82
    assert _peak_rss_growth(op) <= {"report": 1.77, "worst_case": 0.86}[op]


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="VmHWM is read from /proc/self/status")
@pytest.mark.parametrize("criteria", ["C5", "C4,C5,C7", "C1"])
def test_release_gate_peak_rss_at_m_32(criteria):
    # growth in (n - 1)^2 float64 arrays, n = 32^2; C5 through the spectral
    # route, which cached a dense array it never read, grew it by 3.9 and
    # C4, C5 and C7 with full temporaries and an SVD for ker A by 5.6; C5
    # by the sparse solves alone by 0.65, and the three by 3.8 to 4.4; with
    # the sparse factor of the grounded L and Q's reflectors packed during
    # the bidiagonal SVD, the three by 3.9 to 4.05 (3.77 to 3.85 later), and
    # C1 by 3.3 to 3.5 against 4.2; with C7's sup_irr by Lanczos and no
    # resolvent, the three by 3.48 to 3.51; with the singular basis kept as
    # Householder panels of half an array, the three by 3.07 to 3.09 and C1
    # by 3.00 to 3.02 against 3.07; with every dense step run one invariant
    # block at a time, C5 by 0.66, the three by 1.65 to 1.68 and C1 by 1.74
    # to 1.76; with the LU of L - S in the blocks' coordinates, C5 by 0.57
    # to 0.60 against 0.64 to 0.67, the three by 1.62 to 1.64 and C1 by 1.68
    # to 1.71
    bound = {"C5": 0.625, "C4,C5,C7": 1.72, "C1": 1.80}[criteria]
    assert _peak_rss_growth(criteria) <= bound


def _buffer_owner(array):
    while isinstance(getattr(array, "base", None), np.ndarray):
        array = array.base
    return array


def _held_arrays(value):
    """The numpy buffers reachable from ``value`` through tuples, lists and
    the system's blocks."""
    if isinstance(value, _Block):
        value = list(vars(value).values())
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _held_arrays(item)
    elif isinstance(value, np.ndarray):
        yield _buffer_owner(value)


def test_dense_chain_caches_half_an_array():
    # after a report, the gaps and worst_case the system holds no (n - 1)^2
    # array: each parity block's right singular basis is kept as the
    # compact-WY panels of its Householder QR, one buffer per block, with
    # 32-wide panels; at N = 575 they held 0.528 arrays as one block, and
    # the two hold 0.278 beside O(n) arrays, 0.302 in all
    u = torus_cosine(2, 1.0)
    sys = discretize_torus(u, make_qgradu_drift(ROT, u), 24)
    variance_report(sys, np.cos(sys.points[:, 0]))
    generator_gaps(sys)
    worst_case(sys)
    held = {id(a): a for value in sys.__dict__.values()
            for a in _held_arrays(value)}.values()
    array = 8 * (sys.n - 1) ** 2
    assert max(a.nbytes for a in held) < array
    assert sum(a.nbytes for a in held) <= 0.31 * array
    buffers = [{id(_buffer_owner(block)) for _, block in panels}
               for _, (_, panels), _ in (block.chain for block in sys._blocks)]
    largest = sorted(held, key=lambda a: a.nbytes)[-len(buffers):]
    assert [len(b) for b in buffers] == [1, 1]
    assert set.union(*buffers) == {id(a) for a in largest}


def test_package_import_loads_no_sparse_module():
    # scipy.sparse is imported where sparse arrays are built, and
    # scipy.linalg where dense matrices are decomposed, keeping both out of
    # the start-up cost of every command that never builds an operator; the
    # acceptance matrix and the CLI, imported at start-up too, follow suit
    import irrlangevin

    src = str(Path(irrlangevin.__file__).resolve().parents[1])
    probe = ("import importlib, sys; sys.path.insert(0, sys.argv[1]); "
             "importlib.import_module(sys.argv[2]); "
             "print(sorted(m for m in sys.modules "
             "if m in ('scipy.sparse', 'scipy.linalg') "
             "or m.startswith(('scipy.sparse.', 'scipy.linalg.'))))")
    for module in ("irrlangevin", "irrlangevin.benchmark", "irrlangevin.cli"):
        out = subprocess.run([sys.executable, "-c", probe, src, module],
                             check=True, capture_output=True, text=True).stdout
        assert out.strip() == "[]", module


def test_sampler_loads_no_scipy_module():
    # a torus chain, its batch-means and OBM estimates and a replicated CLT
    # run on numpy alone: scipy.sparse would add 14 MB of RSS, and
    # scipy.sparse.linalg 24 MB; so do a Gaussian chain and replicated CLT,
    # which take the affine path
    import irrlangevin

    src = str(Path(irrlangevin.__file__).resolve().parents[1])
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import numpy as np; "
        "from irrlangevin import *; "
        "u = make_potential('torus_cosine', dim=2); "
        "c = make_qgradu_drift(np.array([[0.0, 1.0], [-1.0, 0.0]]), u); "
        "f = parse_observable('cos1', 2).fn; "
        "cfg = SimConfig(step_size=0.05, n_steps=8_200, "
        "initial_point=[0.5, 0.5], burn_in_steps=100, seed=3); "
        "traj = simulate(u, c, f, cfg); batch_means(traj, f); "
        "overlapping_batch_means(traj, f); replicated_clt(u, c, f, cfg, 4); "
        "g = make_potential('gaussian', dim=2); "
        "cg = make_qgradu_drift(np.array([[0.0, 1.0], [-1.0, 0.0]]), g); "
        "fg = parse_observable('x1', 2).fn; "
        "simulate(g, cg, fg, cfg); replicated_clt(g, cg, fg, cfg, 4); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe, src], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
