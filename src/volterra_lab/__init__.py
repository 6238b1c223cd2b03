"""Numerical laboratory for forced convolution summation recursions.

Solves x(n+1) = sum_{j<=n} k(n-j) x(j) + H(n+1) exactly at finite horizons
(in plain or log-magnitude arithmetic), decides resolvent summability from
characteristic roots, classifies growth and fluctuation of solutions
against reference scales, and verifies the package's asymptotic identities
on deterministic and seeded stochastic forcing.
"""

__version__ = "0.1.0"

from .asymptotics import (
    ConvexFunctional,
    LimsupEstimate,
    PeriodicExtraction,
    ScalingModel,
    estimate_lambda,
    estimate_limsup,
    extract_almost_periodic,
    make_phi,
    phi_average_bounds,
    predict_H_over_a,
    predict_x_over_a,
    residual_tail_sup,
    time_average,
    verify_growth2,
)
from .config import ExperimentConfig, Report
from .core import (
    Kernel,
    Nonlinearity,
    make_nonlinearity,
    recover_forcing,
    resolvent,
    solve_by_representation,
    solve_linear,
    solve_nonlinear,
)
from .exceptions import (
    ConfigError,
    InputError,
    NonlinearityError,
    ParameterError,
    SingularMultiplierError,
    TrajectoryOverflowError,
    UndefinedRatioError,
    VolterraLabError,
)
from .growth_catalogue import catalogue_entry
from .series import LogTrajectory, Trajectory, ratio_series
from .spectral import SpectralReport, characteristic_roots, multiplier_L, symbol
from .stochastic import (
    EnsembleResult,
    EnsembleSpec,
    EnvelopeReport,
    ForcingGenerator,
    StatisticSpec,
    TailClassification,
    classify_tail,
    ensemble_verify,
    envelope_sums,
    forcing_entry,
    generate,
    make_factor,
    make_tail_model,
)

__all__ = [name for name in dir() if not name.startswith("_")]
