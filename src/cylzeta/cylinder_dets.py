"""Regularized log-determinants of full cylinders over a model spectrum.

The boundary pair at the two ends of the cylinder [0, r] x cross-section
is projected mode by mode: a spectral-projection (APS) interface acts as
Dirichlet on the sign modes its first projector kills and as the Robin
condition on the complementary modes (Neumann on a surviving kernel);
the two cylinder orientations are reduced to one canonical mode problem
by reflection, which is exact per magnitude for symmetric spectra.

Assembly sums the per-mode closed forms and regularizes the divergent
parts through the model's zeta invariants.  Per magnitude a Dirichlet
mode gives lam r - log lam + log(1 - e^(-2 lam r)) and a Robin mode
log 2 + lam r.  Writing f for the share of the signed modes that
``mode_bc_projection`` sends to Dirichlet, logdet_sq for the regularized
log-determinant of the squared spectrum, Z1 for the magnitude zeta at -1,
Z0 for the squared zeta at 0, T(r) for the convergent sum of
m log(1 - e^(-2 lam r)) over the signed spectrum and k for the kernel
dimension: the spectrum is symmetric by construction, so a share f of
the signed modes carries the share f of each invariant, and every pair
assembles as

    r Z1 - (f/2) logdet_sq + log2 (1 - f) Z0 + f T(r) + k logdet(kernel mode)

The five rows are

    (D, D)        f = 1:    r Z1 - logdet_sq/2 + T(r) + k log(2r)
    (D, P<)       f = 1/2:  r Z1 - logdet_sq/4 + (log2/2) Z0 + T(r)/2 + k log 2
    (P>=, D)      f = 1/2:  r Z1 - logdet_sq/4 + (log2/2) Z0 + T(r)/2 + k log(2r)
    (P>, D)       f = 1/2:  as (P>=, D) with kernel term k log 2
    (D, RobinAbs) f = 0:    r Z1 + log2 Z0 + k log 2

Every piece is recorded in the returned RegScalar; for finite models the
assembly telescopes exactly to the plain sum of per-mode closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum

from .errors import DomainError
from .gluing import RegScalar, exp_correction_sum, robin_dtn_logdet
from .mode_problems import ModeBC, ModeProblem, mode_logdet_gy
from .spectral_models import TangentialModel, zeta_abs, zeta_sq, zeta_sq_deriv0

__all__ = [
    "CylinderBC",
    "DD",
    "D_PLT",
    "PGE_D",
    "PGT_D",
    "D_ROBIN",
    "parse_bc",
    "mode_bc_projection",
    "mode_problem_for",
    "cylinder_logdet",
    "explicit_mode_sum",
    "gluing_identity_residual",
]

_LOG2 = math.log(2.0)

_ALLOWED = {
    ("D", "D"),
    ("D", "P<"),
    ("P>=", "D"),
    ("P>", "D"),
    ("D", "RobinAbsB"),
}


@dataclass(frozen=True)
class CylinderBC:
    """Boundary pair at the two cylinder ends; only configurations that
    occur in the gluing identities are accepted."""

    left: str
    right: str

    def __post_init__(self):
        if (self.left, self.right) not in _ALLOWED:
            raise DomainError(
                f"unsupported boundary pair ({self.left!r}, {self.right!r}); "
                f"allowed: {sorted(_ALLOWED)}"
            )

    @property
    def label(self) -> str:
        return f"{self.left},{self.right}"


DD = CylinderBC("D", "D")
D_PLT = CylinderBC("D", "P<")
PGE_D = CylinderBC("P>=", "D")
PGT_D = CylinderBC("P>", "D")
D_ROBIN = CylinderBC("D", "RobinAbsB")


def parse_bc(label: str) -> CylinderBC:
    parts = label.split(",")
    if len(parts) != 2:
        raise DomainError(f"boundary label must be 'left,right', got {label!r}")
    return CylinderBC(parts[0].strip(), parts[1].strip())


def mode_bc_projection(bc: CylinderBC, lam_signed: float) -> ModeBC:
    """Interface condition seen by one signed mode, in the canonical
    orientation (far end Dirichlet).

    The projector side of an APS pair kills its own sign modes
    (Dirichlet); the complementary derivative condition makes the others
    Robin, with Neumann on a kernel the projector excludes.
    """
    key = bc.left if bc.left != "D" else bc.right
    if key == "D":
        return ModeBC.DIRICHLET
    if key == "RobinAbsB":
        return ModeBC.ROBIN_ABS if lam_signed != 0.0 else ModeBC.NEUMANN
    if key == "P<":
        if lam_signed < 0.0:
            return ModeBC.DIRICHLET
        return ModeBC.ROBIN_ABS if lam_signed > 0.0 else ModeBC.NEUMANN
    if key == "P>=":
        return ModeBC.DIRICHLET if lam_signed >= 0.0 else ModeBC.ROBIN_ABS
    # P>
    if lam_signed > 0.0:
        return ModeBC.DIRICHLET
    return ModeBC.ROBIN_ABS if lam_signed < 0.0 else ModeBC.NEUMANN


def mode_problem_for(bc: CylinderBC, lam_signed: float, r: float) -> ModeProblem:
    return ModeProblem(abs(lam_signed), r, right=mode_bc_projection(bc, lam_signed))


def explicit_mode_sum(model: TangentialModel, r: float, bc: CylinderBC) -> float:
    """Plain sum of per-mode closed forms over a finite model (the
    route-independence oracle for the assembly)."""
    if not model.is_finite:
        raise DomainError("plain mode sums require a finite explicit model")
    terms = []
    for lam, m in model.modes():
        for sgn in (lam, -lam):
            terms.append(m * mode_logdet_gy(mode_problem_for(bc, sgn, r)))
    for _ in range(model.kernel_dim):
        terms.append(mode_logdet_gy(mode_problem_for(bc, 0.0, r)))
    return fsum(terms)


def cylinder_logdet(model: TangentialModel, r: float, bc: CylinderBC) -> RegScalar:
    """Zeta-regularized log-determinant of the cylinder with boundary pair
    ``bc``, assembled from the model's spectral invariants with the
    coefficients of its per-mode projections (see the module docstring).
    est_error collects the invariant errors and the truncation bound of the
    exponential sum; a pair without Dirichlet modes has no T(r) piece."""
    # share of the signed modes that see Dirichlet at the interface
    f = sum(mode_bc_projection(bc, lam) is ModeBC.DIRICHLET for lam in (1.0, -1.0)) / 2.0
    z1 = zeta_abs(model, -1.0)
    z0 = zeta_sq(model, 0.0)
    dz, dz_err = zeta_sq_deriv0(model)  # zeta_sq'(0); -logdet_sq
    parts = {
        "linear_in_r": (r, z1.value.real, z1.est_error),
        "log_part": (f / 2.0, dz, dz_err),
        "count_part": (_LOG2 * (1.0 - f), z0.value.real, z0.est_error),
        "kernel_part": (float(model.kernel_dim),
                        mode_logdet_gy(mode_problem_for(bc, 0.0, r)), 0.0),
    }
    if f:  # T(r) enters only through the Dirichlet modes
        parts["convergent_tail"] = (f, *exp_correction_sum(model, r))
    return RegScalar.assemble(parts)


def gluing_identity_residual(model: TangentialModel, r: float) -> float:
    """Residual of the determinant gluing identity

        [logdet(D,P<) + logdet(P>=,D) - 2 logdet(D,D)] - robin_dtn_logdet,

    assembled through per-mode projections on the left and the closed
    Robin-map assembly on the right.  Zero in exact arithmetic; the
    numerical value is bounded by the combined est_error."""
    lhs = (
        cylinder_logdet(model, r, D_PLT).value.real
        + cylinder_logdet(model, r, PGE_D).value.real
        - 2.0 * cylinder_logdet(model, r, DD).value.real
    )
    return lhs - robin_dtn_logdet(model, r).value.real
