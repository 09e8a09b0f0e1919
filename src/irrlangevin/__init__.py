"""Irreversible Langevin sampling and its variance-reduction oracle.

Simulate the reversible overdamped Langevin diffusion and its perturbation
by a stationarity-preserving skew drift, estimate asymptotic variances of
time averages from trajectories, and verify the variance reduction exactly
on finite-dimensional discretizations (flat-torus grids and a
Hermite-Galerkin basis for the Gaussian).
"""

from .analysis import (
    EqualityCertificate,
    KSweepResult,
    WorstCaseResult,
    equality_certificate,
    sweep_k,
    worst_case,
)
from .errors import DiscretizationDefectError, DivergenceError
from .mc_variance import (
    EstimatorMethod,
    VarianceEstimate,
    batch_means,
    overlapping_batch_means,
    replicated_clt,
)
from .model import (
    AssumptionReport,
    DriftField,
    DriftKind,
    Potential,
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
from .observables import Observable, observable_vector, parse_observable
from .sde_sim import (
    SimConfig,
    Trajectory,
    chain_time_averages,
    simulate,
    trajectory_to_csv,
)
from .spectral_oracle import (
    DiscretizedSystem,
    SpectralMeasure,
    VarianceReport,
    asymptotic_variances,
    discretize_gaussian_linear,
    discretize_torus,
    generator_gaps,
    hermite_indices,
    variance_report,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport",
    "DiscretizationDefectError",
    "DiscretizedSystem",
    "DivergenceError",
    "DriftField",
    "DriftKind",
    "EqualityCertificate",
    "EstimatorMethod",
    "KSweepResult",
    "Observable",
    "Potential",
    "SimConfig",
    "SpaceKind",
    "SpectralMeasure",
    "Trajectory",
    "VarianceEstimate",
    "VarianceReport",
    "WorstCaseResult",
    "asymptotic_variances",
    "batch_means",
    "chain_time_averages",
    "check_assumptions",
    "discretize_gaussian_linear",
    "discretize_torus",
    "double_well_2d",
    "equality_certificate",
    "gaussian_potential",
    "generator_gaps",
    "hermite_indices",
    "make_potential",
    "make_qgradu_drift",
    "observable_vector",
    "overlapping_batch_means",
    "parse_observable",
    "replicated_clt",
    "simulate",
    "sweep_k",
    "torus_cosine",
    "trajectory_to_csv",
    "validate_drift",
    "validate_potential",
    "variance_report",
    "worst_case",
    "zero_drift",
]
