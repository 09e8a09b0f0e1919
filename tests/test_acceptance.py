"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test runs its criterion from the shared benchmark matrix (the same
code behind ``irrlangevin reproduce-benchmark``) and prints one pass/fail
line; run with ``pytest -s tests/test_acceptance.py`` to see the lines.
Key closed-form anchors are asserted directly here as well, so a wrong
expected value inside the matrix cannot self-certify.

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

import numpy as np
import pytest

from irrlangevin import benchmark as bench
from irrlangevin.benchmark import (
    TOLERANCES,
    gaussian_benchmark_system,
    run_benchmark,
    torus_benchmark_system,
)
from irrlangevin.observables import observable_vector, parse_observable
from irrlangevin.spectral_oracle import variance_report


def _run(criterion):
    rows, _ = run_benchmark(only=[criterion])
    for row in rows:
        verdict = "pass" if row.passed else "FAIL"
        print(f"{row.criterion} {verdict}: {row.case} "
              f"(observed {row.observed:.4e}, tolerance {row.tolerance:.4e})")
    failed = [r for r in rows if not r.passed]
    assert not failed, f"{criterion}: {len(failed)} checks failed: " + "; ".join(
        f"{r.case} observed={r.observed:.4e} tol={r.tolerance:.4e}"
        for r in failed)
    return rows


def test_c01_main_inequality():
    rows = _run("C1")
    assert len(rows) == 2  # both backends scanned


def test_c02_closed_form_rotation_benchmark():
    _run("C2")
    # anchor the matrix against the hand derivation, independently
    for k in (0.0, 1.0, 2.0, 4.0):
        sys = gaussian_benchmark_system(k)
        rep = variance_report(sys, observable_vector(sys, parse_observable("x1", 2)))
        assert rep.sigma2_rev == pytest.approx(2.0, abs=1e-9)
        assert rep.sigma2_irr == pytest.approx(2.0 / (1.0 + k**2), abs=1e-9)


def test_c03_route_agreement():
    _run("C3")


def test_c04_operator_structure():
    rows = _run("C4")
    assert len(rows) == 14  # 7 structural checks on each backend


def test_c05_equality_characterization():
    rows = _run("C5")
    gap_row = next(r for r in rows if "gaussian f = x1, q rotation" in r.case)
    assert gap_row.observed == pytest.approx(1.0, abs=1e-9)  # gap is 2 - 1


def test_c06_growing_perturbation():
    _run("C6")


def test_c06_sweeps_the_cached_systems(monkeypatch):
    # C6 sweeps the unit-scale systems that C1-C5 and C7 use; it builds none
    torus_benchmark_system(1.0)
    gaussian_benchmark_system(1.0)

    def no_build(*args, **kwargs):
        raise AssertionError("C6 built a system")

    monkeypatch.setattr(bench, "discretize_torus", no_build)
    monkeypatch.setattr(bench, "discretize_gaussian_linear", no_build)
    assert all(row.passed for row in bench.run_c6(TOLERANCES))


def test_c10_reuses_the_cached_m32_system(monkeypatch):
    # the m = 32 row of C10 is the system C1, C4 and C6-C8 use
    torus_benchmark_system(1.0)
    real = bench.discretize_torus
    meshes = []

    def recording(*args):
        meshes.append(args[2])
        return real(*args)

    monkeypatch.setattr(bench, "discretize_torus", recording)
    assert all(row.passed for row in bench.run_c10(TOLERANCES))
    assert 32 not in meshes


def test_c07_worst_case():
    _run("C7")


def test_c08_spectral_gap_not_reduced():
    _run("C8")


def test_c09_monte_carlo_consistency():
    rows = _run("C9")
    drop = next(r for r in rows if "reduction" in r.case)
    assert drop.observed > drop.tolerance  # k=1 beats k=0 beyond noise


def test_c10_mesh_convergence():
    rows = _run("C10")
    for row in rows:
        assert TOLERANCES["C10_low"] <= row.observed <= TOLERANCES["C10_high"]
