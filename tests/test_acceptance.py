"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test runs its criterion from the shared benchmark matrix (the same
code behind ``irrlangevin reproduce-benchmark``) and prints one pass/fail
line; run with ``pytest -s tests/test_acceptance.py`` to see the lines.
Key closed-form anchors are asserted directly here as well, so a wrong
expected value inside the matrix cannot self-certify.  Each test also
checks that every system its runner built is unreachable once the runner
returns: a criterion's systems live only as long as the criterion.

Criteria
--------
C1   variance never increases: 200 random observables per backend, 1e-10
C2   gaussian rotation closed form: sigma2 = 2/(1+k^2) at k = 0,1,2,4, 1e-9
C3   resolvent and spectral routes agree to 1e-8 relative on the C1 set
C4   operator structure (symmetries, kernels, the sparse factor F of the
     grounded L, antisymmetric F^-T A F^-1), 1e-10
C5   equality exactly on drift-invariant observables; strict gap for x1
C6   growing drift: monotone decay to twice the kernel mass
C7   worst-case suprema: strict gain when the kernels are disjoint
C8   the perturbation never shrinks the spectral gap (1e-10 slack)
C9   Monte Carlo replicated-CLT estimates match the oracle within 25%
C10  torus oracle converges at second order (ratio in [3, 5])
"""

import gc
import weakref

import pytest

from irrlangevin import benchmark as bench
from irrlangevin.benchmark import (
    TOLERANCES,
    gaussian_benchmark_system,
    run_benchmark,
)
from irrlangevin.observables import observable_vector, parse_observable
from irrlangevin.spectral_oracle import variance_report


@pytest.fixture
def builds(monkeypatch):
    """(builder name, weak reference) for each system the matrix builds."""
    built = []
    for name in ("discretize_torus", "discretize_gaussian_linear"):
        def recording(*args, _real=getattr(bench, name), _name=name, **kwargs):
            sys = _real(*args, **kwargs)
            built.append((_name, weakref.ref(sys)))
            return sys
        monkeypatch.setattr(bench, name, recording)
    return built


def _alive(builds):
    gc.collect()
    return [name for name, ref in builds if ref() is not None]


def _run(criterion, builds):
    rows, _ = run_benchmark(only=[criterion])
    for row in rows:
        verdict = "pass" if row.passed else "FAIL"
        print(f"{row.criterion} {verdict}: {row.case} "
              f"(observed {row.observed:.4e}, tolerance {row.tolerance:.4e})")
    failed = [r for r in rows if not r.passed]
    assert not failed, f"{criterion}: {len(failed)} checks failed: " + "; ".join(
        f"{r.case} observed={r.observed:.4e} tol={r.tolerance:.4e}"
        for r in failed)
    if criterion not in ("C3", "C9"):  # C3 reads C1's scan; C9 simulates
        assert builds, f"{criterion} built no system"
    assert not _alive(builds), f"{criterion} kept a system alive"
    return rows


def test_c01_main_inequality(builds):
    bench._inequality_scan.cache_clear()  # build the scan's systems here
    rows = _run("C1", builds)
    assert len(rows) == 2  # both backends scanned


def test_c02_closed_form_rotation_benchmark(builds):
    _run("C2", builds)
    # anchor the matrix against the hand derivation, independently
    for k in (0.0, 1.0, 2.0, 4.0):
        sys = gaussian_benchmark_system(k)
        rep = variance_report(sys, observable_vector(sys, parse_observable("x1", 2)))
        assert rep.sigma2_rev == pytest.approx(2.0, abs=1e-9)
        assert rep.sigma2_irr == pytest.approx(2.0 / (1.0 + k**2), abs=1e-9)


def test_c03_route_agreement(builds):
    _run("C3", builds)


def test_c04_operator_structure(builds):
    rows = _run("C4", builds)
    assert len(rows) == 14  # 7 structural checks on each backend


def test_c05_equality_characterization(builds):
    rows = _run("C5", builds)
    gap_row = next(r for r in rows if "gaussian f = x1, q rotation" in r.case)
    assert gap_row.observed == pytest.approx(1.0, abs=1e-9)  # gap is 2 - 1


def test_c06_growing_perturbation(builds):
    _run("C6", builds)


def test_c06_builds_each_unit_system_once(builds):
    # one system per backend serves both its observable and its sweep
    assert all(row.passed for row in bench.run_c6(TOLERANCES))
    assert sorted(name for name, _ in builds) == [
        "discretize_gaussian_linear", "discretize_torus"]


def test_c07_worst_case(builds):
    _run("C7", builds)


def test_c08_spectral_gap_not_reduced(builds):
    _run("C8", builds)


def test_c09_monte_carlo_consistency(builds):
    rows = _run("C9", builds)
    drop = next(r for r in rows if "reduction" in r.case)
    assert drop.observed > drop.tolerance  # k=1 beats k=0 beyond noise


def test_c10_mesh_convergence(builds):
    rows = _run("C10", builds)
    for row in rows:
        assert TOLERANCES["C10_low"] <= row.observed <= TOLERANCES["C10_high"]


def test_c10_drops_each_grid_before_the_next(builds, monkeypatch):
    # the n = 4,096 grid is built after the m = 16 and 32 grids are dropped
    alive_at_64 = []
    recording = bench.discretize_torus

    def checked(u, drift, points_per_axis):
        if points_per_axis == 64:
            alive_at_64.append(_alive(builds))
        return recording(u, drift, points_per_axis)

    monkeypatch.setattr(bench, "discretize_torus", checked)
    assert all(row.passed for row in bench.run_c10(TOLERANCES))
    assert len(builds) == 3 and alive_at_64 == [[]]
