"""Cap operators, cylinder Dirichlet-to-Neumann eigenvalues, adiabatic limits.

The two compact pieces glued to the cylinder enter every identity checked
here only through their boundary maps, modelled as diagonal
:class:`CapOperator` instances: an eigenvalue function mu(lam) >= 0 on
each magnitude pair plus a separate value on the kernel.  The restricted
family mu(lam) = lam + c (1 + lam^2)^(-beta) (or the degenerate zero cap)
keeps every relative determinant absolutely convergent, which is checked
against the model's growth before use.

Four DtN variants are evaluated per mode: with a Dirichlet interface both
sides read mu + lam coth(lam r), while the spectral-projection (APS)
interface flattens its own sign side to mu + lam exactly.  Absolute
log-determinants of these operators are never formed; only

* differences of two variants over the same cap (absolutely convergent,
  decaying like e^(-2 lam r)),
* the Robin-boundary map determinant, regularized as
  log 2 * zeta_sq(0) + logdet_sq/2 - sum m log(1 - e^(-2 lam r)) + k log(1/r),
* the adiabatic bracket combining both, whose r -> infinity limit is
  -(log 2 * zeta_sq(0) + logdet_sq/2),

plus the coupled two-sided blocks whose minimum eigenvalue certifies
injectivity of the glued boundary operator, and the detector for modes
annihilated by cap + magnitude (the obstruction to all of the above).

Every convergent sum here (T(r), the Robin-map envelope, the variant
differences) has terms within m times the envelope 2 e^(-2 lam r) / (1 -
e^(-2 lam r)).  On an arithmetic model d(n + a) with multiplicity p(n),
envelope terms past index n shrink by at most rho = e^(-2 d r) ((n+1)/n)^deg p,
so the sum stops before the first n where the term at n over 1 - rho is within
1e-17 and returns that bound as its tail.  The cutoff is fixed before summing,
and one past 2,000,000 modes (here or in the block scan) raises ConvergenceError.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from math import fsum

from .errors import ConvergenceError, DomainError, KernelModeError
from .spectral_models import TangentialModel, zeta_sq, zeta_sq_deriv0

__all__ = [
    "CapOperator",
    "DtNVariant",
    "Block2x2",
    "RegScalar",
    "dtn_eigenvalue",
    "exp_correction_sum",
    "robin_dtn_logdet",
    "robin_dtn_limit",
    "robin_dtn_limit_bound",
    "dtn_difference_logdet",
    "adiabatic_bracket",
    "blocks_min_eig",
    "extended_solution_detect",
    "validate_cap_for_model",
    "load_cap",
    "cap_to_json_dict",
    "fit_exp_decay",
]

_LOG2 = math.log(2.0)
_MAX_MODES = 2_000_000
_TAIL_TOL = 1e-17  # omitted-tail bound: a fortieth of the est_error rounding floor 4e-16


@dataclass(frozen=True)
class RegScalar:
    """A regularized number together with its assembly decomposition.

    ``pieces`` maps a part name to (coefficient, invariant); the value is
    the sum of the products, re-assertable via :meth:`recombine`.
    """

    value: complex
    pieces: dict
    est_error: float

    @classmethod
    def assemble(cls, parts: dict) -> "RegScalar":
        """Real assembly from ``{name: (coefficient, invariant, error)}``.

        The value is the fsum of coefficient * invariant; est_error adds
        |coefficient| * error piece by piece, in order, plus a rounding
        allowance of 4e-16 (|value| + 1).
        """
        value = fsum(c * v for c, v, _ in parts.values())
        est = 0.0
        for c, _, err in parts.values():
            est += abs(c) * err
        est += 4e-16 * (abs(value) + 1.0)
        return cls(value=complex(value),
                   pieces={name: (c, v) for name, (c, v, _) in parts.items()},
                   est_error=est)

    def recombine(self) -> complex:
        terms = [complex(c) * complex(v) for c, v in self.pieces.values()]
        return complex(fsum(t.real for t in terms), fsum(t.imag for t in terms))

    @property
    def real(self) -> float:
        return self.value.real

    def to_json_dict(self) -> dict:
        def enc(x):
            x = complex(x)
            return x.real if x.imag == 0.0 else [x.real, x.imag]

        return {
            "value": enc(self.value),
            "pieces": {k: [enc(c), enc(v)] for k, (c, v) in self.pieces.items()},
            "est_error": self.est_error,
        }


# ---------------------------------------------------------------------------
# cap operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CapOperator:
    """Diagonal model of a compact piece's boundary map.

    ``mu(lam)`` acts on the magnitude pair; ``kernel_value`` on zero
    modes.  kind "absB_plus" is lam + c (1 + lam^2)^(-beta); kind "zero"
    is the degenerate constant 0.
    """

    kind: str = "absB_plus"
    pert_c: float = 0.0
    pert_beta: float = 1.0
    kernel_value: float = 0.0

    def __post_init__(self):
        if self.kind not in ("absB_plus", "zero"):
            raise DomainError(f"unknown cap kind {self.kind!r}")
        if self.pert_c != 0.0 and self.pert_beta < 1.0:
            raise DomainError(f"perturbation exponent must be >= 1, got {self.pert_beta!r}")
        if not math.isfinite(self.kernel_value) or self.kernel_value < 0.0:
            raise DomainError(f"kernel_value must be >= 0, got {self.kernel_value!r}")

    def mu(self, lam: float) -> float:
        if self.kind == "zero":
            return 0.0
        if self.pert_c == 0.0:
            return lam
        return lam + self.pert_c * (1.0 + lam * lam) ** (-self.pert_beta)

    def perturbation(self, lam: float) -> float:
        """mu(lam) - lam, the deviation from the pure magnitude cap."""
        return self.mu(lam) - lam


def validate_cap_for_model(cap: CapOperator, model: TangentialModel) -> None:
    """Enforce the cap invariants against a model: mu >= 0 on all modes and
    sum m |mu - lam| / lam finite for the model's growth."""
    if model.kind == "arithmetic":
        if cap.kind == "zero":
            raise DomainError("zero cap is not summable against an infinite model")
        # |p(lam)|/lam ~ |c| lam^(-1-2 beta): need growth < 1 + 2 beta
        if cap.pert_c != 0.0 and model.spectral_growth >= 1.0 + 2.0 * cap.pert_beta:
            raise DomainError(
                f"cap perturbation decay beta={cap.pert_beta} too slow for "
                f"model growth {model.spectral_growth}"
            )
    bound = abs(cap.pert_c) + 1.0
    for lam, _ in model.modes(lam_max=bound):
        if cap.mu(lam) < 0.0:
            raise DomainError(f"cap eigenvalue mu({lam}) = {cap.mu(lam)} is negative")


class DtNVariant(str, Enum):
    M1_DIRICHLET = "M1_Dirichlet"
    M2_DIRICHLET = "M2_Dirichlet"
    M1_APS = "M1_APS"
    M2_APS = "M2_APS"


@dataclass(frozen=True)
class Block2x2:
    """Symmetric per-mode block of the two-sided boundary operator."""

    a: float
    b: float
    c: float

    def eigenvalues(self) -> tuple[float, float]:
        mean = 0.5 * (self.a + self.c)
        rad = math.hypot(0.5 * (self.a - self.c), self.b)
        return mean - rad, mean + rad


def _coth_minus_one(x: float) -> float:
    """coth(x) - 1 = 2 e^(-2x) / (1 - e^(-2x)), stable for large x."""
    e = math.exp(-2.0 * x)
    return 2.0 * e / (1.0 - e)


def dtn_eigenvalue(cap: CapOperator, lam_signed: float, r: float,
                   variant: DtNVariant) -> float:
    """Per-mode eigenvalue of one cylinder DtN variant at signed lam != 0.

    Dirichlet variants give mu + |lam| coth(|lam| r); an APS interface
    flattens its own sign side to mu + |lam| exactly and keeps the coth
    on the other side.
    """
    if lam_signed == 0.0:
        raise KernelModeError("DtN variants are defined on nonzero modes only")
    if r <= 0.0:
        raise DomainError("need r > 0")
    al = abs(lam_signed)
    flat = (variant is DtNVariant.M1_APS and lam_signed > 0.0) or (
        variant is DtNVariant.M2_APS and lam_signed < 0.0)
    extra = 0.0 if flat else al * _coth_minus_one(al * r)
    return cap.mu(al) + al + extra


# ---------------------------------------------------------------------------
# convergent mode sums
# ---------------------------------------------------------------------------

def _envelope_tail(model: TangentialModel, r: float, n: int) -> float:
    """Geometric bound on the envelope terms of an arithmetic model from index
    n >= 1 on (see the module docstring); inf while rho >= 1, then decreasing."""
    rho = math.exp(-2.0 * model.d * r) * ((n + 1) / n) ** model.mult_degree
    if rho >= 1.0:
        return math.inf
    y = 2.0 * model.d * (n + model.a) * r
    return 4.0 * model.multiplicity(n) * math.exp(-y) / -math.expm1(-y) / (1.0 - rho)


def _cutoff_index(model: TangentialModel, r: float) -> int:
    """First index n of an arithmetic model whose envelope tail bound is
    within _TAIL_TOL.  Past index 0, p >= 1, so no index whose 2 lam r lies
    below y_tol qualifies; the search doubles from there and bisects."""
    y_tol = math.log(4.0 / _TAIL_TOL)
    hi = _MAX_MODES  # when even there 2 lam r < y_tol, the budget cannot hold the sum
    if 2.0 * model.d * (_MAX_MODES + model.a) * r >= y_tol:
        hi = max(1, math.ceil(y_tol / (2.0 * model.d * r) - model.a))
    lo = hi - 1
    while _envelope_tail(model, r, hi) > _TAIL_TOL:
        if hi >= _MAX_MODES:
            raise ConvergenceError(
                f"convergent mode sum at r = {r!r} needs more than {_MAX_MODES} modes")
        lo, hi = hi, min(2 * hi, _MAX_MODES)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _envelope_tail(model, r, mid) > _TAIL_TOL:
            lo = mid
        else:
            hi = mid
    return hi


def _envelope_sum(model: TangentialModel, r: float, term) -> tuple[float, float]:
    """sum over the signed nonzero spectrum of m * term(lam), |term| within the
    envelope, cut off as the module docstring says; returns (value, tail bound)."""
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"need a finite r > 0, got {r!r}")
    lam_max, tail = None, 0.0
    if not model.is_finite:
        n = _cutoff_index(model, r)
        lam_max, tail = model.d * (n - 1 + model.a), _envelope_tail(model, r, n)
    return fsum(2.0 * m * term(lam) for lam, m in model.modes(lam_max=lam_max)), tail


def exp_correction_sum(model: TangentialModel, r: float) -> tuple[float, float]:
    """sum over the signed spectrum of m log(1 - e^(-2 lam r)), with tail bound."""
    return _envelope_sum(model, r, lambda lam: math.log1p(-math.exp(-2.0 * lam * r)))


def robin_dtn_limit(model: TangentialModel) -> tuple[float, float]:
    """r -> infinity limit of the Robin-map determinant:
    log 2 * zeta_sq(0) + logdet_sq / 2, with error estimate."""
    z0 = zeta_sq(model, 0.0)
    dz, dz_err = zeta_sq_deriv0(model)
    value = _LOG2 * z0.value.real - 0.5 * dz
    return value, _LOG2 * z0.est_error + 0.5 * dz_err


def robin_dtn_limit_bound(model: TangentialModel, r: float) -> float:
    """Explicit envelope sum m e^(-2 lam r) / (1 - e^(-2 lam_min r)) bounding
    the distance of the Robin-map determinant from its limit."""
    lam_min = model.lambda_min()
    value, tail = _envelope_sum(model, r, lambda lam: math.exp(-2.0 * lam * r))
    return (value + 2.0 * tail) / (1.0 - math.exp(-2.0 * lam_min * r))


def robin_dtn_logdet(model: TangentialModel, r: float) -> RegScalar:
    """Regularized log-determinant of the Robin-boundary map at length r.

    Assembled as log 2 * zeta_sq(0) + logdet_sq/2 - sum_{lam != 0} m
    log(1 - e^(-2 lam r)) + k log(1/r); every piece is recorded.
    """
    z0 = zeta_sq(model, 0.0)
    dz, dz_err = zeta_sq_deriv0(model)
    tail_sum, tail_err = exp_correction_sum(model, r)
    return RegScalar.assemble({
        "count_part": (_LOG2, z0.value.real, z0.est_error),
        "log_part": (-0.5, dz, dz_err),
        "convergent_tail": (-1.0, tail_sum, tail_err),
        "kernel_part": (float(model.kernel_dim), -math.log(r), 0.0),
    })


def dtn_difference_logdet(model: TangentialModel, cap: CapOperator, r: float,
                          variant_a: DtNVariant, variant_b: DtNVariant) -> float:
    """sum over signed modes of m log(eig_a / eig_b): the relative
    determinant of two DtN variants over the same cap.  Absolutely
    convergent; no regularization enters."""
    validate_cap_for_model(cap, model)

    def term(lam: float) -> float:
        # average of the two signed modes of this magnitude
        out = 0.0
        for sgn in (lam, -lam):
            ea = dtn_eigenvalue(cap, sgn, r, variant_a)
            eb = dtn_eigenvalue(cap, sgn, r, variant_b)
            out += 0.5 * math.log1p((ea - eb) / eb)
        return out

    return _envelope_sum(model, r, term)[0]


def adiabatic_bracket(model: TangentialModel, cap1: CapOperator, cap2: CapOperator,
                      r: float) -> float:
    """The r-dependent bracket of the adiabatic decomposition, written with
    convergent differences:

        -robin_dtn_logdet(r) + [M1 Dirichlet vs APS] + [M2 Dirichlet vs APS].

    Tends to -(log 2 * zeta_sq(0) + logdet_sq/2) as r -> infinity.
    Requires a trivial kernel."""
    if model.kernel_dim != 0:
        raise KernelModeError("adiabatic bracket requires a model with trivial kernel")
    d1 = dtn_difference_logdet(model, cap1, r, DtNVariant.M1_DIRICHLET, DtNVariant.M1_APS)
    d2 = dtn_difference_logdet(model, cap2, r, DtNVariant.M2_DIRICHLET, DtNVariant.M2_APS)
    return -robin_dtn_logdet(model, r).value.real + d1 + d2


def blocks_min_eig(model: TangentialModel, cap1: CapOperator, cap2: CapOperator,
                   r: float) -> tuple[float, float]:
    """Global minimum eigenvalue over all per-mode 2x2 blocks of the
    two-sided boundary operator, and the magnitude where it occurs.

    Block at magnitude lam: [[mu1 + lam + A e^(-2 r lam), -A],
    [-A, mu2 + lam + A e^(-2 r lam)]] with A = 2 lam / (e^(2 r lam) -
    e^(-2 r lam)).  A positive result certifies injectivity at this r;
    a crossing is reported, not raised."""
    if model.kernel_dim != 0:
        raise KernelModeError("two-sided blocks are defined for trivial kernels")
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"need a finite r > 0, got {r!r}")

    def lower(lam: float) -> float:
        e2 = math.exp(-2.0 * r * lam)
        amp = 2.0 * lam * e2 / (1.0 - e2 * e2)
        diag = amp * e2
        return Block2x2(a=cap1.mu(lam) + lam + diag, b=-amp,
                        c=cap2.mu(lam) + lam + diag).eigenvalues()[0]

    # lower eigenvalue >= lam + min(mu) - A >= lam - |c| - 1/(2r): none past lam_stop undercuts
    lam_stop = (lower(model.lambda_min()) + max(abs(cap1.pert_c), abs(cap2.pert_c))
                + 0.5 / r)
    if not model.is_finite and lam_stop / model.d - model.a > _MAX_MODES:
        raise ConvergenceError(f"block scan at r = {r!r} needs more than {_MAX_MODES} modes")
    best = math.inf
    best_lam = math.nan
    for lam, _ in model.modes(lam_max=lam_stop):
        lo = lower(lam)
        if lo < best:
            best, best_lam = lo, lam
    return best, best_lam


def extended_solution_detect(model: TangentialModel, cap1: CapOperator,
                             cap2: CapOperator) -> list[dict]:
    """Modes annihilated by cap + magnitude, the obstruction to the
    adiabatic identities: nonzero modes with mu_i(lam) + lam = 0 within
    1e-12, plus kernel modes whose cap value vanishes."""
    offending = []
    for idx, cap in ((1, cap1), (2, cap2)):
        # mu + lam >= 2 lam - |c|: nothing to scan past (|c| + 1)/2
        lam_stop = 0.5 * (abs(cap.pert_c) + 1.0) + 1.0
        for lam, _ in model.modes(lam_max=lam_stop):
            if cap.mu(lam) + lam <= 1e-12:
                offending.append({"cap": idx, "lam": lam, "kernel": False})
        if model.kernel_dim > 0 and cap.kernel_value <= 1e-12:
            offending.append({"cap": idx, "lam": 0.0, "kernel": True})
    return offending


# ---------------------------------------------------------------------------
# utilities
# ---------------------------------------------------------------------------

def fit_exp_decay(rs, values) -> tuple[float, float]:
    """Least-squares fit of log|v| = logC - rate * r; returns (rate, logC)."""
    pts = [(r, abs(v)) for r, v in zip(rs, values) if abs(v) > 0.0]
    if len(pts) < 2:
        raise DomainError("need at least two nonzero samples for a decay fit")
    n = len(pts)
    xs = [p[0] for p in pts]
    ys = [math.log(p[1]) for p in pts]
    xbar = fsum(xs) / n
    ybar = fsum(ys) / n
    sxx = fsum((x - xbar) ** 2 for x in xs)
    sxy = fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return -slope, ybar - slope * xbar


def cap_to_json_dict(cap: CapOperator) -> dict:
    data = {"mu": cap.kind, "kernel_value": cap.kernel_value}
    if cap.pert_c != 0.0:
        data["pert"] = {"c": cap.pert_c, "beta": cap.pert_beta}
    return data


def cap_from_json_dict(data: dict) -> CapOperator:
    if not isinstance(data, dict) or "mu" not in data:
        raise DomainError("cap file must be a JSON object with a 'mu' field")
    pert = data.get("pert") or {}
    try:
        return CapOperator(
            kind=str(data["mu"]),
            pert_c=float(pert.get("c", 0.0)),
            pert_beta=float(pert.get("beta", 1.0)),
            kernel_value=float(data.get("kernel_value", 0.0)),
        )
    except (TypeError, ValueError) as exc:
        raise DomainError(f"malformed cap file: {exc}") from exc


def load_cap(source) -> CapOperator:
    """Build a cap from a JSON file path, JSON text, or a parsed dict."""
    if isinstance(source, dict):
        return cap_from_json_dict(source)
    text = source
    if not str(source).lstrip().startswith("{"):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DomainError(f"cannot read cap file {source!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON in cap file: {exc}") from exc
    return cap_from_json_dict(data)
