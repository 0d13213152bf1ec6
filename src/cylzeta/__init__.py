"""Zeta-regularized determinants on finite cylinders over model spectra.

The package is organised around one pipeline: a tangential spectrum model
(`spectral_models`) feeds per-mode one-dimensional boundary problems
(`mode_problems`), which assemble into regularized cylinder determinants
(`cylinder_dets`); the boundary layer (`gluing`) carries cap operators,
Dirichlet-to-Neumann eigenvalues, and adiabatic limits, while
`asymptotics` continues the Robin-boundary determinant along complex rays
and fits its large-shift expansion.  `cli` exposes the whole pipeline as
auditable JSON/CSV reports.
"""

from .errors import (
    BracketError,
    ContinuationError,
    ConvergenceError,
    DomainError,
    FitConditioningError,
    InsufficientRootsError,
    KernelModeError,
    PoleError,
    SpectralError,
    TailFitError,
)
from .spectral_models import (
    EigenLine,
    TangentialModel,
    ZetaValue,
    enumerate_modes,
    hurwitz_zeta,
    hurwitz_zeta_sderiv,
    hurwitz_zeta_zero_deriv,
    load_model,
    log_gamma,
    logdet_sq,
    zeta_abs,
    zeta_sq,
)

__version__ = "0.1.0"
