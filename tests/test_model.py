"""Potentials, drift fields, and the assumption diagnostics."""

import numpy as np
import pytest

from irrlangevin.model import (
    DriftField,
    DriftKind,
    SpaceKind,
    check_assumptions,
    double_well_2d,
    gaussian_potential,
    make_potential,
    make_qgradu_drift,
    torus_cosine,
    validate_drift,
    validate_potential,
    zero_drift,
)

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


@pytest.mark.parametrize("factory,kwargs", [
    (gaussian_potential, {"dim": 2}),
    (gaussian_potential, {"dim": 3, "cov": np.diag([1.0, 2.0, 0.5])}),
    (gaussian_potential, {"dim": 2, "cov": np.array([[2.0, 0.3], [0.3, 1.0]])}),
    (double_well_2d, {"barrier": 1.5}),
    (torus_cosine, {"dim": 2, "amplitude": 1.0}),
    (torus_cosine, {"dim": 2, "amplitude": (1.0, 0.0)}),
    (torus_cosine, {"dim": 1, "amplitude": 0.7}),
])
def test_catalog_derivatives_match_finite_differences(factory, kwargs):
    validate_potential(factory(**kwargs), seed=3)


def test_catalog_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown potential"):
        make_potential("lennard_jones")
    # a non-finite parameter is refused where it enters, by name
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="cov must be finite"):
            make_potential("gaussian", dim=2, cov=bad)
        with pytest.raises(ValueError, match="amplitude must be finite"):
            make_potential("torus_cosine", dim=2, amplitude=(1.0, bad))


def test_catalog_refuses_targets_that_are_not_probability_measures():
    for bad in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="barrier"):
            double_well_2d(barrier=bad)
    for cov, rule in ((-1.0, "positive definite"),
                      ([[1.0, 2.0], [2.0, 1.0]], "positive definite"),
                      ([[1.0, 0.5], [0.0, 1.0]], "symmetric")):
        with pytest.raises(ValueError, match=f"cov must be {rule}"):
            gaussian_potential(2, cov)
    # a valid covariance keeps the bits of its symmetrized inverse
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    inv = np.linalg.inv(cov)
    assert np.array_equal(gaussian_potential(2, cov).constant_hessian,
                          (inv + inv.T) / 2.0)


def test_make_potential_dispatches():
    u = make_potential("torus_cosine", dim=2, amplitude=1.0)
    assert u.space_kind is SpaceKind.FLAT_TORUS
    assert u.dim == 2


def test_qgradu_zero_matrix_gives_zero_field():
    u = gaussian_potential(2)
    c = make_qgradu_drift(np.zeros((2, 2)), u)
    x = np.array([0.3, -1.2])
    assert np.all(c.eval(x) == 0.0)
    assert c.divergence(x) == 0.0


def test_qgradu_gaussian_example():
    # grad U = x, so C = Q x; at (1, 0) the rotation gives (0, -1)
    u = gaussian_potential(2)
    c = make_qgradu_drift(ROT, u)
    np.testing.assert_allclose(c.eval(np.array([1.0, 0.0])), [0.0, -1.0])


def test_qgradu_torus_example():
    u = torus_cosine(2, 1.0)
    c = make_qgradu_drift(ROT, u)
    x = np.array([np.pi / 2.0, 0.0])
    np.testing.assert_allclose(c.eval(x), [0.0, 1.0], atol=1e-15)


def test_qgradu_divergence_is_exactly_zero():
    u = double_well_2d()
    c = make_qgradu_drift(ROT, u)
    pts = np.random.default_rng(0).standard_normal((50, 2))
    assert np.all(c.divergence(pts) == 0.0)
    validate_drift(c, pts)


def test_qgradu_rejects_non_antisymmetric():
    u = gaussian_potential(2)
    with pytest.raises(ValueError, match="antisymmetric"):
        make_qgradu_drift(np.array([[0.0, 1.0], [-1.0 + 1e-14, 0.0]]), u)
    with pytest.raises(ValueError, match="antisymmetric"):
        make_qgradu_drift(np.eye(2), u)


def test_qgradu_rejects_dimension_mismatch():
    u = gaussian_potential(3)
    with pytest.raises(ValueError, match="shape"):
        make_qgradu_drift(ROT, u)


def test_qgradu_stored_matrix_stays_antisymmetric():
    u = gaussian_potential(2)
    c = make_qgradu_drift(ROT, u)
    assert np.max(np.abs(c.q + c.q.T)) == 0.0
    assert c.kind is DriftKind.QGRADU


def test_qgradu_orthogonal_to_gradient():
    # (Q grad U) . grad U vanishes; float tolerance grows with |x|^2
    u = gaussian_potential(2, cov=np.array([[2.0, 0.4], [0.4, 1.0]]))
    c = make_qgradu_drift(ROT, u)
    pts = 3.0 * np.random.default_rng(1).standard_normal((200, 2))
    dots = np.abs(np.sum(c.eval(pts) * u.grad(pts), axis=-1))
    bound = 1e-12 * (1.0 + np.sum(pts**2, axis=-1))
    assert np.all(dots <= bound)


def test_check_assumptions_qgradu_gaussian():
    u = gaussian_potential(2)
    c = make_qgradu_drift(ROT, u)
    probes = np.random.default_rng(2).standard_normal((64, 2)) * 2.0
    report = check_assumptions(u, c, probes)
    assert report.a3_residual <= 1e-10
    # |C| = |Q grad U| <= ||Q||_2 |grad U|, so the ratio stays below ||Q||_2
    assert report.a5_ratio <= np.linalg.norm(ROT, 2) + 1e-12
    assert report.a6_trend is True
    assert report.probe_points.shape == (64, 2)


def test_check_assumptions_zero_field():
    u = gaussian_potential(2)
    report = check_assumptions(u, zero_drift(2), np.ones((5, 2)))
    assert report.a3_residual == 0.0
    assert report.a5_ratio == 0.0


def constant_field(dim, vector):
    vector = np.asarray(vector, dtype=float)

    def _eval(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(vector, x.shape).copy()

    def _div(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1])

    return DriftField(dim=dim, eval=_eval, divergence=_div,
                      kind=DriftKind.CUSTOM, name="constant")


def test_check_assumptions_constant_field_violates_a3():
    # div C = 0 but C . grad U = C . x != 0 away from the origin
    u = gaussian_potential(2)
    c = constant_field(2, [1.0, 0.0])
    probes = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, -1.0]])
    report = check_assumptions(u, c, probes)
    assert report.a3_residual > 0.1
    # finite-difference cross-check of the residual definition at one probe
    x = probes[0]
    eps = 1e-6
    fd_div = sum(
        (c.eval(x + eps * e)[ax] - c.eval(x - eps * e)[ax]) / (2 * eps)
        for ax, e in enumerate(np.eye(2))
    )
    expected = abs(fd_div - c.eval(x) @ u.grad(x))
    assert report.a3_residual >= expected - 1e-8


def test_a4_margin_matches_definition():
    u = gaussian_potential(2)
    c = make_qgradu_drift(ROT, u)
    probes = np.random.default_rng(5).standard_normal((32, 2)) * 1.5
    report = check_assumptions(u, c, probes)
    grad = u.grad(probes)
    lhs = (np.abs(np.sum(c.eval(probes) * grad, axis=-1))
           + np.linalg.norm(u.hess(probes), axis=(-2, -1)))
    assert list(report.a4_margin) == [0.01, 0.1, 1.0]
    for eps in (0.01, 0.1, 1.0):
        expected = np.max(lhs - eps * np.sum(grad**2, axis=-1))
        assert report.a4_margin[eps] == pytest.approx(expected, rel=1e-12)


def test_a6_trend_none_on_torus():
    u = torus_cosine(2, 1.0)
    c = make_qgradu_drift(ROT, u)
    probes = np.random.default_rng(0).uniform(0, 2 * np.pi, (8, 2))
    report = check_assumptions(u, c, probes)
    assert report.a6_trend is None


def test_check_assumptions_rejects_empty_and_mismatched_probes():
    u = gaussian_potential(2)
    c = zero_drift(2)
    with pytest.raises(ValueError, match="empty"):
        check_assumptions(u, c, np.empty((0, 2)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        check_assumptions(u, c, np.ones((4, 3)))


def test_validate_potential_catches_wrong_gradient():
    u = gaussian_potential(2)
    bad = gaussian_potential(2)
    bad = type(bad)(dim=2, eval=u.eval, grad=lambda x: 1.01 * u.grad(x),
                    hess=u.hess, space_kind=u.space_kind)
    with pytest.raises(ValueError, match="gradient mismatch"):
        validate_potential(bad, seed=0)


def test_validate_drift_catches_wrong_divergence():
    c = constant_field(2, [1.0, 0.0])
    bad = DriftField(dim=2, eval=c.eval,
                     divergence=lambda x: np.ones(np.asarray(x).shape[:-1]),
                     kind=DriftKind.CUSTOM)
    with pytest.raises(ValueError, match="divergence mismatch"):
        validate_drift(bad, np.ones((4, 2)))


def test_double_well_shape():
    u = double_well_2d(barrier=2.0)
    # wells at (+-1, 0) are degenerate minima, barrier at the origin
    assert u.eval(np.array([1.0, 0.0])) == 0.0
    assert u.eval(np.array([-1.0, 0.0])) == 0.0
    assert u.eval(np.array([0.0, 0.0])) == 2.0
    np.testing.assert_allclose(u.grad(np.array([1.0, 0.0])), [0.0, 0.0])
