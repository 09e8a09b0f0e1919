"""Equality certificates, worst-case suprema, and growing-drift sweeps."""

import numpy as np
import pytest

from irrlangevin.analysis import (
    equality_certificate,
    sweep_k,
    worst_case,
)
from irrlangevin.errors import DiscretizationDefectError
from irrlangevin.model import make_qgradu_drift, torus_cosine, zero_drift
from irrlangevin.spectral_oracle import (
    KERNEL_FLAG_RTOL,
    discretize_gaussian_linear,
    discretize_torus,
    variance_report,
)

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _restricted(sys, op):
    """``op`` in mean-zero coordinates, dense: the reference the blockwise
    restrictions of the oracle replaced."""
    return sys.to_mean_zero(op @ sys.from_mean_zero(np.eye(sys.n - 1)))


def hermite_builder(scale):
    return discretize_gaussian_linear(scale * ROT, dim=2, degree=5)


def hermite_x1(sys):
    f = np.zeros(sys.n)
    f[sys.multi_indices.index((1, 0))] = 1.0
    return f


@pytest.fixture(scope="module")
def torus_benchmark():
    u = torus_cosine(2, 1.0)
    c = make_qgradu_drift(ROT, u)
    return discretize_torus(u, c, 24)


@pytest.fixture(scope="module")
def torus_axis_sys():
    # U = cos x1 only; the drift (0, sin x1) slides along the x2 axis and
    # annihilates every function of x1 exactly, grid included
    u = torus_cosine(2, (1.0, 0.0))
    c = make_qgradu_drift(ROT, u)
    return discretize_torus(u, c, 24)


# --- sweep_k ---------------------------------------------------------------


def test_sweep_matches_ou_closed_form():
    ks = [0.0, 1.0, 2.0, 4.0, 8.0]
    sys = hermite_builder(1.0)
    res = sweep_k(hermite_builder, hermite_x1(sys), ks)
    np.testing.assert_allclose(res.sigma2_values,
                               [2.0 / (1.0 + k**2) for k in ks], atol=1e-12)
    assert res.limit_prediction == pytest.approx(0.0, abs=1e-12)
    assert res.b_gap == pytest.approx(1.0, abs=1e-10)


def test_sweep_k_zero_entry_reproduces_reversible_value(torus_benchmark):
    u = torus_cosine(2, 1.0)

    def builder(scale):
        return discretize_torus(u, make_qgradu_drift(scale * ROT, u), 24)

    f = np.cos(torus_benchmark.points[:, 0])
    res = sweep_k(builder, f, [0.0, 1.0, 3.0])
    rep = variance_report(torus_benchmark, f)
    assert res.sigma2_values[0] == pytest.approx(rep.sigma2_rev, rel=1e-10)
    assert res.sigma2_values[1] == pytest.approx(rep.sigma2_irr, rel=1e-8)


def test_sweep_monotone_with_floor(torus_benchmark):
    u = torus_cosine(2, 1.0)

    def builder(scale):
        return discretize_torus(u, make_qgradu_drift(scale * ROT, u), 24)

    rng = np.random.default_rng(3)
    ks = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0]
    for _ in range(5):
        f = rng.standard_normal(torus_benchmark.n)
        res = sweep_k(builder, f, ks)
        diffs = np.diff(res.sigma2_values)
        assert np.all(diffs <= 1e-10)
        assert np.all(res.sigma2_values >= res.limit_prediction - 1e-9)


def test_sweep_limit_law_quantitative():
    # off-kernel mass decays at least as fast as the nearest carrying atom:
    # sigma2_k - limit <= 2 total_mass / (1 + k^2 b_gap^2); tight for the
    # rotation benchmark where all mass sits exactly at +-1
    sys = hermite_builder(1.0)
    res = sweep_k(hermite_builder, hermite_x1(sys), [0.0, 64.0, 128.0])
    assert res.b_gap is not None and res.b_gap > 0
    for k, value in zip(res.k_values[1:], res.sigma2_values[1:]):
        bound = max(1e-6, 2.0 * res.measure.total_mass / (
            1.0 + k**2 * res.b_gap**2))
        assert value - res.limit_prediction <= bound * (1.0 + 1e-12)


def test_sweep_constant_for_kernel_observable():
    # x1^2 + x2^2 is rotation invariant, so the drift never sees it:
    # the sweep is flat and the limit equals the reversible value
    sys = hermite_builder(1.0)
    f = np.zeros(sys.n)
    f[sys.multi_indices.index((2, 0))] = np.sqrt(2.0)
    f[sys.multi_indices.index((0, 2))] = np.sqrt(2.0)
    res = sweep_k(hermite_builder, f, [0.0, 1.0, 4.0, 16.0])
    np.testing.assert_allclose(res.sigma2_values, res.sigma2_values[0],
                               rtol=1e-12)
    assert res.limit_prediction == pytest.approx(res.sigma2_values[0],
                                                 rel=1e-12)
    assert res.b_gap is None  # every atom carrying weight sits at zero


def test_sweep_input_validation():
    sys = hermite_builder(1.0)
    f = hermite_x1(sys)
    with pytest.raises(ValueError, match="k = 0"):
        sweep_k(hermite_builder, f, [1.0, 2.0])
    with pytest.raises(ValueError, match="ascending"):
        sweep_k(hermite_builder, f, [0.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="nonempty"):
        sweep_k(hermite_builder, f, [])
    for bad in ([0.0, np.nan], [0.0, np.inf], [0.0, 1.0, np.inf]):
        with pytest.raises(ValueError, match="k_values must be finite"):
            sweep_k(hermite_builder, f, bad)


# --- worst_case --------------------------------------------------------------


def test_worst_case_zero_drift():
    sys = discretize_gaussian_linear(np.zeros((2, 2)), dim=2, degree=4)
    res = worst_case(sys)
    assert res.lambda_min == pytest.approx(1.0, abs=1e-12)
    assert res.sup_rev == pytest.approx(2.0, abs=1e-12)
    assert res.sup_irr == pytest.approx(2.0, abs=1e-10)
    assert res.strict is False
    # the kernel of A = 0 is everything, so the whole eigenspace intersects
    assert res.kernel_intersection_dim == res.l_eigenspace_dim == 2


def test_worst_case_ou_rotation():
    sys = discretize_gaussian_linear(ROT, dim=2, degree=5)
    res = worst_case(sys)
    assert res.lambda_min == pytest.approx(1.0, abs=1e-12)
    assert res.sup_rev == pytest.approx(2.0, abs=1e-12)
    assert res.sup_irr == pytest.approx(1.0, abs=1e-9)
    assert res.kernel_intersection_dim == 0
    assert res.strict is True


def test_worst_case_finds_exact_intersection_in_odd_dimension():
    # an antisymmetric Q in dim 3 has a kernel vector omega, so omega . x
    # lies both in the degree-1 eigenspace of L and in the kernel of A
    q = np.random.default_rng(1).standard_normal((3, 3))
    res = worst_case(discretize_gaussian_linear(q - q.T, dim=3, degree=5))
    assert res.l_eigenspace_dim == 3
    assert res.kernel_intersection_dim == 1
    # |A v| / lambda along the singular directions: omega . x is annihilated
    # to rounding, and A rotates the plane orthogonal to omega at the rate
    # |omega| = 2.30 (read 2.3e-17, 2.30, 2.30)
    low, mid, high = res.eigenspace_residuals
    assert low <= 1e-15
    assert mid == pytest.approx(high, rel=1e-12)
    assert mid == pytest.approx(np.linalg.norm([q[0, 1] - q[1, 0],
                                                q[0, 2] - q[2, 0],
                                                q[1, 2] - q[2, 1]]), rel=1e-12)


def test_worst_case_supremum_attained(torus_benchmark):
    res = worst_case(torus_benchmark)
    # random unit observables never exceed the supremum
    rng = np.random.default_rng(8)
    best = 0.0
    for _ in range(200):
        f = rng.standard_normal(torus_benchmark.n)
        fc, _ = torus_benchmark.center(f)
        norm = np.sqrt(torus_benchmark.pi_inner(fc, fc))
        rep = variance_report(torus_benchmark, fc / norm)
        best = max(best, rep.sigma2_irr)
        assert rep.sigma2_irr <= res.sup_irr + 1e-8
    assert best <= res.sup_irr + 1e-8
    # the top eigenvector of the symmetrized resolvent attains it
    m = np.linalg.inv(_restricted(
        torus_benchmark, torus_benchmark.l_matrix - torus_benchmark.s_matrix))
    _, vecs = np.linalg.eigh((m + m.T) / 2.0)
    f_star = torus_benchmark.from_mean_zero(vecs[:, -1])
    rep = variance_report(torus_benchmark, f_star)
    assert rep.sigma2_irr == pytest.approx(res.sup_irr, abs=1e-8)


def test_worst_case_strict_on_benchmark(torus_benchmark):
    res = worst_case(torus_benchmark)
    assert res.sup_irr <= res.sup_rev + 1e-10
    if res.kernel_intersection_dim == 0:
        assert res.strict
        assert res.sup_irr < res.sup_rev - 1e-9


def test_worst_case_intersection_reported_not_asserted(torus_axis_sys):
    # functions of x1 alone are drift-invariant; when the slow mode of the
    # energy lives there, the worst observable cannot be improved
    res = worst_case(torus_axis_sys)
    assert res.sup_irr <= res.sup_rev + 1e-10
    # A has a kernel here, and cos x1 certifies it
    cos1 = np.cos(torus_axis_sys.points[:, 0])
    assert equality_certificate(torus_axis_sys, cos1).equal
    assert res.kernel_intersection_dim == int(
        np.sum(res.eigenspace_residuals <= KERNEL_FLAG_RTOL))
    assert res.strict == (res.sup_rev - res.sup_irr > 1e-9)
    if res.kernel_intersection_dim == 0:
        assert res.strict


@pytest.mark.parametrize("case", ["hermite_q", "axis"])
def test_worst_case_intersection_is_the_equality_certificate(case, request):
    # along each right singular direction v of A on L's lowest eigenspace,
    # the observable W v passes equality_certificate exactly when its
    # residual passes KERNEL_FLAG_RTOL, and the residual is the certificate's
    sys = (_hermite_random_q(3, 5, 1) if case == "hermite_q"
           else request.getfixturevalue("torus_axis_sys"))
    res = worst_case(sys)
    lam, l_space = sys._l_spectrum
    a_l = sys.to_mean_zero(sys.s_matrix @ sys.from_mean_zero(l_space)) / lam
    _, _, vt = np.linalg.svd(a_l, full_matrices=False)
    for v, residual in zip(vt, res.eigenspace_residuals[::-1]):
        cert = equality_certificate(sys, sys.from_mean_zero(l_space @ v))
        assert cert.equal == (residual <= KERNEL_FLAG_RTOL)
        assert cert.residual == pytest.approx(residual, rel=1e-7, abs=1e-14)
    assert res.kernel_intersection_dim == {"hermite_q": 1, "axis": 0}[case]


def _dense_sup_irr(sys):
    r = np.linalg.inv(_restricted(sys, sys.l_matrix - sys.s_matrix))
    return 2.0 * np.linalg.eigvalsh((r + r.T) / 2.0)[-1]


def _hermite_random_q(dim, degree, seed):
    q = np.random.default_rng(seed).standard_normal((dim, dim))
    return discretize_gaussian_linear(q - q.T, dim=dim, degree=degree)


@pytest.mark.parametrize("case", ["torus24", "torus25", "axis", "hermite_q",
                                  "hermite_zero"])
def test_worst_case_sup_irr_matches_dense_resolvent(case, request):
    # the zero-drift Hermite resolvent is L^{-1}, whose top eigenvalue 1 is
    # degenerate; on the axis torus A annihilates every function of x1; the
    # random Q in dim 3 has a kernel vector, so there the kernels meet
    u = torus_cosine(2, 1.0)
    sys = {
        "torus24": lambda: request.getfixturevalue("torus_benchmark"),
        "torus25": lambda: discretize_torus(u, make_qgradu_drift(ROT, u), 25),
        "axis": lambda: request.getfixturevalue("torus_axis_sys"),
        "hermite_q": lambda: _hermite_random_q(3, 5, 1),
        "hermite_zero": lambda: discretize_gaussian_linear(
            np.zeros((3, 3)), dim=3, degree=4),
    }[case]()
    assert worst_case(sys).sup_irr == pytest.approx(_dense_sup_irr(sys),
                                                    rel=1e-12)


def test_worst_case_repeats_bit_for_bit(torus_benchmark):
    # the Lanczos start vector is fixed, so a second call on the same system
    # gives the same bits
    first = worst_case(torus_benchmark).sup_irr
    assert worst_case(torus_benchmark).sup_irr == first


@pytest.mark.parametrize("degree", [3, 8])
def test_worst_case_exact_intersection_gives_sup_rev_exactly(degree):
    # the chain rotation in dim 5 has a kernel vector omega, so omega . x is
    # a common eigenvector; Lanczos over the whole space put sup_irr a few
    # ulp above sup_rev = 2 at both degrees
    q = np.diag(np.ones(4), 1)
    res = worst_case(discretize_gaussian_linear(q - q.T, dim=5, degree=degree))
    assert res.kernel_intersection_dim == 1
    assert res.sup_irr == res.sup_rev == 2.0
    assert res.strict is False


def test_worst_case_on_a_one_state_mean_zero_space():
    # Hermite dim 1 degree 1 leaves only x in the mean-zero space, too small
    # for ARPACK and wholly in the intersection
    res = worst_case(discretize_gaussian_linear(np.zeros((1, 1)), dim=1,
                                                degree=1))
    assert res.sup_irr == res.sup_rev == 2.0


def test_worst_case_lanczos_failure_is_a_defect(monkeypatch):
    import scipy.sparse.linalg

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "ARPACK error -1: No convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    with pytest.raises(DiscretizationDefectError, match="did not converge"):
        worst_case(hermite_builder(1.0))


@pytest.mark.parametrize("case", ["torus", "hermite"])
def test_adjoint_solve_is_the_transpose(case, torus_benchmark):
    # y . R x = x . R^T y in mean-zero coordinates, R = (L - A)^{-1}
    sys = torus_benchmark if case == "torus" else _hermite_random_q(3, 5, 2)
    x, y = np.random.default_rng(4).standard_normal((2, sys.n - 1))
    assert y @ sys.solve(x) == pytest.approx(x @ sys.solve(y, adjoint=True),
                                             rel=1e-12)
    np.testing.assert_allclose(
        sys.solve(np.stack([x, y], axis=1), adjoint=True),
        np.stack([sys.solve(x, adjoint=True), sys.solve(y, adjoint=True)],
                 axis=1), rtol=1e-13, atol=1e-13)


def test_adjoint_solve_keeps_the_finiteness_check():
    # the stub has only solve: solve sizes each block's border itself
    class NanFactor:
        def solve(self, b, trans="N"):
            return np.full_like(b, np.nan)

    sys = hermite_builder(1.0)
    for block in sys._blocks:
        block.resolvent = NanFactor()
    for adjoint in (False, True):
        with pytest.raises(DiscretizationDefectError,
                           match="perturbed operator is singular on the "
                                 "mean-zero subspace"):
            sys.solve(np.ones(sys.n - 1), adjoint=adjoint)


# --- equality_certificate ----------------------------------------------------


def test_certificate_zero_drift_always_equal():
    u = torus_cosine(2, 1.0)
    sys = discretize_torus(u, zero_drift(2), 16)
    rng = np.random.default_rng(0)
    for _ in range(5):
        f = rng.standard_normal(sys.n)
        cert = equality_certificate(sys, f)
        assert cert.equal is True
        # witness solves the unperturbed equation: L h = centered f
        fc, _ = sys.center(f)
        np.testing.assert_allclose(sys.l_matrix @ cert.witness, fc,
                                   atol=1e-8)


def test_certificate_ou_linear_observable_not_equal():
    sys = discretize_gaussian_linear(ROT, dim=2, degree=4)
    cert = equality_certificate(sys, hermite_x1(sys))
    assert cert.equal is False
    # h = L^{-1} x1 = x1 and the drift moves it with speed |Q e1| = 1
    assert cert.residual == pytest.approx(1.0, abs=1e-10)


def test_certificate_kernel_observable_on_torus(torus_axis_sys):
    sys = torus_axis_sys
    for g in (lambda v: v, lambda v: v**2, np.sin):
        phi = g(np.cos(sys.points[:, 0]))  # a function of U alone
        f = sys.l_matrix @ phi
        cert = equality_certificate(sys, f)
        assert cert.equal is True
        rep = variance_report(sys, f)
        assert rep.kernel_flag is True
        assert abs(rep.equality_gap) <= 1e-9


def test_certificate_consistent_with_report(torus_benchmark):
    rng = np.random.default_rng(2)
    for _ in range(5):
        f = rng.standard_normal(torus_benchmark.n)
        cert = equality_certificate(torus_benchmark, f)
        rep = variance_report(torus_benchmark, f)
        assert cert.equal == rep.kernel_flag
        assert cert.equal == (abs(rep.equality_gap) <= 1e-9)
