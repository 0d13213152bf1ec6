"""Shifted Robin-map determinants along complex rays and their asymptotics.

For a complex shift z = alpha t with |alpha| = 1 and t > 0 the per-mode
eigenvalue of the Robin-boundary map becomes

    w + lam + 2 w e^(-2 w r) / (1 - e^(-2 w r)),    w = sqrt(lam^2 + z),

with the principal square root (cut on the negative real axis).  The ray
set used for degree-m factorizations of the shifted operator is
theta_k = pi (2k - m + 1) / m, k = 0..m-1, mirror-symmetric so the angles
sum to exactly zero.

The regularized log-determinant splits into

    log 2 * zeta_sq(0) + logdet_sq/2                 (shift-free part)
  + sum over signed modes of m log((w + lam)/(2 lam))  (convergent)
  + sum over signed modes of m log(1 + correction)     (exponentially small)

where the middle sum, convergent but slow for large |z|, is accelerated
with the Euler-Maclaurin formula in the mode index; its integral term has
the closed antiderivative y log(sqrt(y^2+z)+y) - sqrt(y^2+z).  This keeps
every contribution O(sqrt t): no large-power cancellations enter, so the
samples stay fit-grade up to t ~ 1e6.

As t grows the determinant expands over {t^(1/2), log t, 1, t^(-1/2),
t^(-1), ...}; the constant-term coefficient extracted by least squares is
compared against (i/2) theta * (zeta_sq(0) + kernel_dim).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import fsum, pi

import numpy as np

from .errors import DomainError, FitConditioningError
from .gluing import RegScalar, robin_dtn_limit
from .spectral_models import TangentialModel, zeta_sq

__all__ = [
    "Ray",
    "AsymptoticFit",
    "FitConstant",
    "ray_angles",
    "make_ray",
    "mode_robin_dtn_shifted",
    "shifted_robin_logdet",
    "heat_trace_constant",
    "fit_constant_term",
    "default_t_grid",
    "RayConstantScan",
    "ray_constants_sum",
]

_MIN_CUT_ANGLE = 0.15  # reject shifts closer than this to the branch cut


def ray_angles(m: int) -> list[float]:
    """The m ray angles pi (2k - m + 1)/m, built as exact mirror pairs so
    that fsum over the list is exactly zero."""
    if m < 2:
        raise DomainError(f"ray construction needs m >= 2, got {m}")
    half = [pi * j / m for j in range(m - 1, 0, -2)]
    angles = [-x for x in half]
    if m % 2 == 1:
        angles.append(0.0)
    angles.extend(reversed(half))
    return angles


@dataclass(frozen=True)
class Ray:
    """One admissible direction alpha = e^(i theta) of the shift."""

    m: int
    k: int
    theta: float

    @property
    def alpha(self) -> complex:
        return complex(math.cos(self.theta), math.sin(self.theta))


def make_ray(m: int, k: int) -> Ray:
    angles = ray_angles(m)
    if not 0 <= k < m:
        raise DomainError(f"ray index k must lie in 0..{m - 1}, got {k}")
    return Ray(m=m, k=k, theta=angles[k])


def mode_robin_dtn_shifted(lam: float, r: float, z: complex) -> complex:
    """Shifted Robin-map eigenvalue w + lam + 2 w e^(-2wr)/(1 - e^(-2wr)).

    lam = 0 reduces to w coth(w r) (value 1/r as z -> 0); raises on shifts
    that land on the branch cut.
    """
    if r <= 0.0 or lam < 0.0:
        raise DomainError("need r > 0 and lam >= 0")
    z = complex(z)
    v = lam * lam + z
    if v == 0.0:
        return complex(1.0 / r)
    if v.imag == 0.0 and v.real <= 0.0:
        raise DomainError(f"shifted mass {v} lies on the branch cut")
    w = cmath.sqrt(v)
    e = cmath.exp(-2.0 * w * r)
    return w + lam + 2.0 * w * e / (1.0 - e)


def heat_trace_constant(model: TangentialModel) -> float:
    """Constant-order heat coefficient of the squared spectrum:
    zeta_sq(0) + kernel_dim."""
    return zeta_sq(model, 0.0).value.real + model.kernel_dim


def _check_admissible(model: TangentialModel, z: complex) -> None:
    lam0 = model.lambda_min()
    v = lam0 * lam0 + z
    if pi - abs(cmath.phase(v)) < _MIN_CUT_ANGLE:
        raise DomainError(
            f"shift {z} places the lowest mode within {_MIN_CUT_ANGLE} rad "
            "of the branch cut; rejected rather than approximated"
        )


def _em_shift_tail(y: float, d: float, z: complex):
    """Euler-Maclaurin tail of sum_{n>=N} g(d(n+a)) for
    g(y) = log((sqrt(y^2+z)+y)/(2y)), evaluated at y = d(N+a).

    Returns (tail, error_estimate); uses the closed integral
    int g = y g(y) - sqrt(y^2+z) + y and endpoint derivatives up to g^(5).
    """
    w2 = y * y + z
    w = np.sqrt(np.complex128(w2))
    g = np.log((w + y) / (2.0 * y))
    integral = (w - y - y * g) / d
    iw = 1.0 / w
    iw2 = iw * iw
    g1 = iw - 1.0 / y
    g3 = -iw * iw2 + 3.0 * y * y * iw2 * iw2 * iw - 2.0 / y**3
    g5 = (9.0 * iw2 * iw2 * iw - 90.0 * y * y * iw2 * iw2 * iw2 * iw
          + 105.0 * y**4 * iw2 * iw2 * iw2 * iw2 * iw - 24.0 / y**5)
    tail = (integral + 0.5 * g - (d / 12.0) * g1 + (d**3 / 720.0) * g3
            - (d**5 / 30240.0) * g5)
    err = abs(d**5 / 30240.0 * g5)  # last correction as the error scale
    return complex(tail), err


def shifted_robin_logdet(model: TangentialModel, r: float, ray: Ray, t: float) -> RegScalar:
    """Regularized log-determinant of the Robin-boundary map with complex
    shift z = alpha t.

    Arithmetic models must have constant multiplicity (the subtraction
    scheme relies on linear mode growth); explicit models are plain sums.
    The value is continuous at t -> 0 with the unshifted assembly.
    """
    if t <= 0.0:
        raise DomainError("need t > 0")
    if r <= 0.0:
        raise DomainError("need r > 0")
    z = ray.alpha * t
    _check_admissible(model, z)

    if model.is_finite:
        terms = [2.0 * m * cmath.log(mode_robin_dtn_shifted(lam, r, z))
                 for lam, m in model.modes()]
        if model.kernel_dim:
            terms.append(model.kernel_dim * cmath.log(mode_robin_dtn_shifted(0.0, r, z)))
        value = complex(fsum(x.real for x in terms), fsum(x.imag for x in terms))
        pieces = {"direct_sum": (1.0, value)}
        return RegScalar(value=value, pieces=pieces,
                         est_error=4e-16 * (fsum(abs(x) for x in terms) + 1.0))

    if model.mult_degree != 0:
        raise DomainError(
            "shifted determinants support constant multiplicity only "
            "(super-linear mode growth has no convergent subtraction here)"
        )
    c0 = float(model.mult_coeffs[0])
    a, d = model.a, model.d

    # mode block: lam_n = d(n+a) for n < N with lam_N >= max(4 sqrt|z|, lam_40)
    lam_target = max(4.0 * math.sqrt(abs(z)), d * (40.0 + a))
    n_split = int(math.ceil(lam_target / d - a))
    n = np.arange(n_split)
    lam = d * (n + a)
    w = np.sqrt(lam * lam + np.complex128(z))
    g = np.log((w + lam) / (2.0 * lam))
    head = complex(np.sum(g))

    y_split = d * (n_split + a)
    em_tail, em_err = _em_shift_tail(y_split, d, z)
    shift_series = 2.0 * c0 * (head + em_tail)

    # exponentially small cylinder correction, absolutely convergent
    ee = np.exp(-2.0 * w * r)
    corr = 2.0 * w * ee / ((1.0 - ee) * (w + lam))
    exp_part = 2.0 * c0 * complex(np.sum(np.log(1.0 + corr)))
    exp_err = 2.0 * c0 * abs(corr[-1]) if len(corr) else 0.0

    limit, limit_err = robin_dtn_limit(model)
    kernel_term = complex(0.0)
    if model.kernel_dim:
        kernel_term = model.kernel_dim * cmath.log(mode_robin_dtn_shifted(0.0, r, z))

    pieces = {
        "limit": (1.0, limit),
        "shift_series": (1.0, shift_series),
        "convergent_tail": (1.0, exp_part),
        "kernel_part": (1.0, kernel_term),
    }
    value = limit + shift_series + exp_part + kernel_term
    est = limit_err + 2.0 * c0 * em_err + exp_err + 4e-16 * (abs(value) + 1.0)
    return RegScalar(value=value, pieces=pieces, est_error=est)


# ---------------------------------------------------------------------------
# asymptotic fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticFit:
    """Least-squares expansion over {t^(1/2), log t, 1, t^(-1/2), t^(-1)}."""

    labels: tuple[str, ...]
    coefficients: tuple[complex, ...]
    residual_norm: float
    condition: float

    def coefficient(self, label: str) -> complex:
        return self.coefficients[self.labels.index(label)]


@dataclass(frozen=True)
class FitConstant:
    """Constant term extracted from samples, with its predicted value."""

    pi0: complex
    predicted: complex
    residual_norm: float
    fit: AsymptoticFit


_BASIS = (
    ("t^1/2", lambda t: math.sqrt(t)),
    ("log t", math.log),
    ("1", lambda t: 1.0),
    ("t^-1/2", lambda t: 1.0 / math.sqrt(t)),
    ("t^-1", lambda t: 1.0 / t),
)


def fit_constant_term(samples, model: TangentialModel, ray: Ray) -> FitConstant:
    """Fit sampled (t, logdet) pairs and return the constant coefficient
    together with the predicted value (i/2) theta (zeta_sq(0) + k).

    Requires >= 8 samples spanning >= 2 decades; raises on design
    matrices with condition number above 1e10.
    """
    pts = sorted((float(t), complex(v)) for t, v in samples)
    if len(pts) < 8:
        raise DomainError(f"need at least 8 samples, got {len(pts)}")
    ts = [t for t, _ in pts]
    if ts[0] <= 0.0:
        raise DomainError("sample positions must be positive")
    if ts[-1] / ts[0] < 99.5:
        raise DomainError("samples must span at least two decades in t")
    design = np.array([[f(t) for _, f in _BASIS] for t in ts], dtype=float)
    rhs = np.array([v for _, v in pts], dtype=complex)
    cond = float(np.linalg.cond(design))
    if cond > 1e10:
        raise FitConditioningError(f"design matrix condition {cond:.3e} exceeds 1e10")
    coeffs, _, _, _ = np.linalg.lstsq(design, rhs, rcond=None)
    residual = float(np.linalg.norm(design @ coeffs - rhs))
    fit = AsymptoticFit(
        labels=tuple(name for name, _ in _BASIS),
        coefficients=tuple(complex(c) for c in coeffs),
        residual_norm=residual,
        condition=cond,
    )
    predicted = 0.5j * ray.theta * heat_trace_constant(model)
    return FitConstant(pi0=fit.coefficient("1"), predicted=predicted,
                       residual_norm=residual, fit=fit)


def default_t_grid(t_min: float = 1e3, t_max: float = 1e5, steps: int = 12) -> list[float]:
    if not (0.0 < t_min < t_max) or steps < 2:
        raise DomainError("need 0 < t_min < t_max and steps >= 2")
    return [float(x) for x in np.geomspace(t_min, t_max, steps)]


@dataclass(frozen=True)
class RayConstantScan:
    """Per-ray fitted constants and their sum over a full angle set."""

    rays: tuple[Ray, ...]
    constants: tuple[complex, ...]
    predicted: tuple[complex, ...]
    theta_sum: float

    @property
    def total(self) -> complex:
        return complex(fsum(c.real for c in self.constants),
                       fsum(c.imag for c in self.constants))


def ray_constants_sum(model: TangentialModel, m: int, r: float,
                      t_grid=None) -> RayConstantScan:
    """Fit the constant term on every ray of the degree-m angle set and sum.

    The angle set is mirror-symmetric, so the angles sum to exactly zero
    and the fitted constants of conjugate rays cancel.
    """
    if t_grid is None:
        t_grid = default_t_grid()
    rays = tuple(make_ray(m, k) for k in range(m))
    theta_sum = fsum(ray.theta for ray in rays)
    constants = []
    predicted = []
    for ray in rays:
        samples = [(t, shifted_robin_logdet(model, r, ray, t).value) for t in t_grid]
        res = fit_constant_term(samples, model, ray)
        constants.append(res.pi0)
        predicted.append(res.predicted)
    return RayConstantScan(rays=rays, constants=tuple(constants),
                           predicted=tuple(predicted), theta_sum=theta_sum)
