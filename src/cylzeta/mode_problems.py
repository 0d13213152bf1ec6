"""One-dimensional boundary problems for a single tangential mode.

Each mode of magnitude ``lam`` reduces the cylinder operator to
``-phi'' + lam^2 phi`` on [0, r].  The far end (u = 0 in the canonical
orientation used throughout) always carries a Dirichlet condition; the
interface end carries Dirichlet, the Robin condition ``phi' + lam phi = 0``,
or its lam = 0 degeneration (Neumann).

The module provides two independent routes to the regularized
log-determinant of each problem and several boundary-value quantities:

* closed forms normalised Gelfand-Yaglom style (``mode_logdet_gy``),
  with the boundary-functional normalisation constant fixed to 2,
  validated by the lam = 0 zeta computations (det(D,D) = 2r,
  det(D,Neumann) = 2);
* a numerical zeta continuation over the actual eigenvalue sequence
  (``mode_logdet_zeta``), which subtracts a Hurwitz-expressible model
  sequence and sums the convergent residual;
* the Dirichlet-to-Neumann value of the cylinder Poisson problem
  (``mode_poisson_dtn``), in closed form with an independent
  fourth-order shooting check;
* the per-mode eigenvalue of the Robin-boundary map
  (``mode_robin_dtn``), 2 lam / (1 - e^(-2 lam r)) with value 1/r on the
  kernel.

Robin-type eigenvalues are the roots mu > lam^2 of

    sqrt(mu - lam^2) cos(sqrt(mu - lam^2) r) + lam sin(sqrt(mu - lam^2) r) = 0,

bracketed one per interval ((l+1/2) pi / r, (l+1) pi / r) and bisected to
floating-point convergence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from math import fsum, pi

from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    InsufficientRootsError,
    TailFitError,
)
from .spectral_models import hurwitz_zeta, hurwitz_zeta_zero_deriv

__all__ = [
    "ModeBC",
    "ModeProblem",
    "RootSequence",
    "dirichlet_mode_eigen",
    "dirichlet_root_sequence",
    "robin_mode_roots",
    "mode_logdet_gy",
    "mode_logdet_zeta",
    "mode_poisson_dtn",
    "shoot_poisson_dtn",
    "mode_robin_dtn",
]

FAMILY_ROBIN = "robin"
FAMILY_DIRICHLET = "dirichlet"


class ModeBC(str, Enum):
    DIRICHLET = "D"
    ROBIN_ABS = "RobinAbs"
    NEUMANN = "N"


@dataclass(frozen=True)
class ModeProblem:
    """-phi'' + lam^2 phi on [0, r], Dirichlet at 0, ``right`` at r."""

    lam: float
    r: float
    right: ModeBC = ModeBC.DIRICHLET

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 0.0):
            raise DomainError(f"cylinder length must be > 0, got {self.r!r}")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise DomainError(f"mode magnitude must be >= 0, got {self.lam!r}")
        if self.right is ModeBC.NEUMANN and self.lam != 0.0:
            raise DomainError("Neumann only arises as the lam = 0 limit of RobinAbs")
        if self.right is ModeBC.ROBIN_ABS and self.lam == 0.0:
            raise DomainError("RobinAbs with lam = 0 should be stated as Neumann")


@dataclass(frozen=True)
class RootSequence:
    """Ascending eigenvalues mu_l of one mode problem plus tail data.

    ``tail_c1`` is the fitted coefficient of 1/nu in the expansion
    nu_l r = (l + 1/2) pi + c1/nu_l + O(nu_l^-3); for Robin families it
    should match lam.
    """

    lam: float
    r: float
    family: str
    roots: tuple[float, ...]
    tail_c1: float

    def __post_init__(self):
        if self.family not in (FAMILY_ROBIN, FAMILY_DIRICHLET):
            raise DomainError(f"unknown root family {self.family!r}")
        if any(b <= a for a, b in zip(self.roots, self.roots[1:])):
            raise DomainError("roots must be strictly increasing")

    @property
    def count(self) -> int:
        return len(self.roots)

    def nu(self, idx: int) -> float:
        return math.sqrt(self.roots[idx] - self.lam * self.lam)

    def to_json_dict(self) -> dict:
        return {"lambda": self.lam, "r": self.r, "family": self.family,
                "roots": list(self.roots), "tail_c1": self.tail_c1}

    @classmethod
    def from_json_dict(cls, data: dict) -> "RootSequence":
        try:
            return cls(lam=float(data["lambda"]), r=float(data["r"]),
                       family=str(data["family"]), roots=tuple(float(x) for x in data["roots"]),
                       tail_c1=float(data.get("tail_c1", data["lambda"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed root sequence: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RootSequence":
        return cls.from_json_dict(json.loads(text))


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def dirichlet_mode_eigen(lam: float, r: float, count: int) -> list[float]:
    """Dirichlet-Dirichlet eigenvalues lam^2 + (k pi / r)^2, k = 1..count."""
    if count < 1:
        raise DomainError("count must be >= 1")
    if r <= 0.0 or lam < 0.0:
        raise DomainError("need r > 0 and lam >= 0")
    return [lam * lam + (k * pi / r) ** 2 for k in range(1, count + 1)]


def dirichlet_root_sequence(lam: float, r: float, count: int) -> RootSequence:
    """The Dirichlet family packaged for the zeta continuation."""
    roots = tuple(dirichlet_mode_eigen(lam, r, count))
    return RootSequence(lam=lam, r=r, family=FAMILY_DIRICHLET, roots=roots, tail_c1=0.0)


def _robin_equation(nu: float, lam: float, r: float) -> float:
    return nu * math.cos(nu * r) + lam * math.sin(nu * r)


def _bisect_robin_root(lam: float, r: float, l: int) -> float:
    lo = (l + 0.5) * pi / r
    hi = (l + 1.0) * pi / r
    flo = _robin_equation(lo, lam, r)
    fhi = _robin_equation(hi, lam, r)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketError(
            f"no sign change in bracket l={l} for lam={lam}, r={r}; "
            "the Robin root equation requires lam > 0"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = _robin_equation(mid, lam, r)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def robin_mode_roots(lam: float, r: float, count: int) -> RootSequence:
    """First ``count`` Robin-type eigenvalues mu > lam^2 for lam > 0.

    Each root is bisected to floating-point convergence inside its
    bracket; the scaled equation residual |f(nu)| / (1 + nu r + lam r)
    is asserted below 1e-12.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise DomainError(f"robin_mode_roots requires lam > 0, got {lam!r}")
    if r <= 0.0:
        raise DomainError(f"requires r > 0, got {r!r}")
    if count < 1:
        raise DomainError("count must be >= 1")
    nus = []
    for l in range(count):
        nu = _bisect_robin_root(lam, r, l)
        resid = abs(_robin_equation(nu, lam, r)) / (1.0 + nu * r + lam * r)
        if resid > 1e-12:
            raise ConvergenceError(f"root residual {resid:.2e} above 1e-12 at l={l}")
        nus.append(nu)
    fits = [(nu * r - (l + 0.5) * pi) * nu for l, nu in enumerate(nus[-5:], start=len(nus) - 5)]
    tail_c1 = fsum(fits) / len(fits) if fits else lam
    roots = tuple(lam * lam + nu * nu for nu in nus)
    return RootSequence(lam=lam, r=r, family=FAMILY_ROBIN, roots=roots, tail_c1=tail_c1)


def _robin_root_refined(lam: float, r: float, l: int) -> float:
    """High-index Robin root by fixed-point iteration of
    nu r = (l+1/2) pi + arctan(lam/nu); contraction for nu well above lam."""
    nu = (l + 0.5) * pi / r
    for _ in range(60):
        nxt = ((l + 0.5) * pi + math.atan2(lam, nu)) / r
        if abs(nxt - nu) <= 1e-15 * nu:
            return nxt
        nu = nxt
    return nu


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def mode_logdet_gy(problem: ModeProblem) -> float:
    """Closed-form regularized log-determinant of one mode problem.

    (D, D): log(2 sinh(lam r)/lam), value log(2r) at lam = 0;
    (D, RobinAbs): log(2 e^(lam r)); (D, Neumann): log 2.
    """
    lam, r = problem.lam, problem.r
    if problem.right is ModeBC.DIRICHLET:
        if lam == 0.0:
            return math.log(2.0 * r)
        return lam * r + math.log1p(-math.exp(-2.0 * lam * r)) - math.log(lam)
    if problem.right is ModeBC.ROBIN_ABS:
        return math.log(2.0) + lam * r
    return math.log(2.0)  # Neumann


def mode_logdet_zeta(seq: RootSequence, extend_to: int = 600) -> float:
    """Zeta continuation of -zeta'(0) over an eigenvalue sequence.

    Subtracts from mu_l^(-s) the model sequence built on the reference
    exponents z_l = (l + a) pi / r (a = 1/2 Robin, a = 1 Dirichlet) with
    the two correction orders of the root expansion, continues the model
    with Hurwitz zetas, and sums the O(z_l^-6) residual; explicit roots
    are extended past ``seq.count`` by the asymptotic fixed point.
    Target absolute accuracy 1e-4 (tail continuation error dominates).
    """
    if seq.count < 30:
        raise InsufficientRootsError(f"need >= 30 explicit roots, got {seq.count}")
    lam, r = seq.lam, seq.r
    if seq.family == FAMILY_ROBIN:
        a = 0.5
        b = lam * lam + 2.0 * lam / r
        c2 = -((lam / r) ** 2) - 2.0 * lam**3 / (3.0 * r)
    else:
        a = 1.0
        b = lam * lam
        c2 = 0.0
    zfac = pi / r
    quart = c2 - 0.5 * b * b

    def residual(l: int, mu: float) -> float:
        z = (l + a) * zfac
        z2 = z * z
        return -math.log(mu) + 2.0 * math.log(z) + b / z2 + quart / (z2 * z2)

    res = [residual(l, mu) for l, mu in enumerate(seq.roots)]
    for l in range(seq.count, extend_to):
        if seq.family == FAMILY_ROBIN:
            nu = _robin_root_refined(lam, r, l)
            mu = lam * lam + nu * nu
        else:
            mu = lam * lam + ((l + 1) * pi / r) ** 2
        res.append(residual(l, mu))

    late = [abs(x) for x in res[-20:]]
    early = [abs(x) for x in res[-40:-20]]
    if fsum(late) > fsum(early) + 1e-15 * len(late):
        raise TailFitError("model-sequence residuals do not decay")

    # continuation of the subtracted model sequence at s = 0
    lrp = math.log(r / pi)
    model_deriv = (
        2.0 * hurwitz_zeta_zero_deriv(a)
        + 2.0 * lrp * hurwitz_zeta(0.0, a).value.real
        - b * (r / pi) ** 2 * hurwitz_zeta(2.0, a).value.real
        - quart * (r / pi) ** 4 * hurwitz_zeta(4.0, a).value.real
    )
    return -model_deriv - fsum(res)


# ---------------------------------------------------------------------------
# boundary values
# ---------------------------------------------------------------------------

def shoot_poisson_dtn(mass: float, r: float, steps: int | None = None) -> float:
    """Outward boundary derivative of the Poisson solution by RK4 shooting.

    Integrates y'' = mass * y from the far end with y = 0, y' = 1 and
    returns y'(r)/y(r); step size at most r / 10^4.
    """
    if steps is None:
        steps = 10_000
    h = r / steps
    y, p = 0.0, 1.0
    m = mass
    for _ in range(steps):
        k1y, k1p = p, m * y
        y2, p2 = y + 0.5 * h * k1y, p + 0.5 * h * k1p
        k2y, k2p = p2, m * y2
        y3, p3 = y + 0.5 * h * k2y, p + 0.5 * h * k2p
        k3y, k3p = p3, m * y3
        y4, p4 = y + h * k3y, p + h * k3p
        k4y, k4p = p4, m * y4
        y += h * (k1y + 2 * k2y + 2 * k3y + k4y) / 6.0
        p += h * (k1p + 2 * k2p + 2 * k3p + k4p) / 6.0
    return p / y


def mode_poisson_dtn(lam: float, r: float, verify: bool = True) -> float:
    """Outward normal derivative at the interface of the cylinder Poisson
    solution with value 1 there and Dirichlet at the far end.

    Closed form lam coth(lam r) (1/r on the kernel).  With ``verify`` the
    value is cross-checked against the RK4 shooting integrator to 1e-8.
    """
    if r <= 0.0 or lam < 0.0:
        raise DomainError("need r > 0 and lam >= 0")
    closed = lam / math.tanh(lam * r) if lam > 0.0 else 1.0 / r
    if verify and lam * r < 300.0:
        shot = shoot_poisson_dtn(lam * lam, r)
        if abs(shot - closed) > 1e-8 * max(1.0, abs(closed)):
            raise ConvergenceError(
                f"shooting check failed: closed {closed!r} vs integrator {shot!r}"
            )
    return closed


def mode_robin_dtn(lam: float, r: float) -> float:
    """Eigenvalue of the Robin-boundary map on the mode pair of magnitude lam:
    2 lam / (1 - e^(-2 lam r)); the kernel value is 1/r."""
    if r <= 0.0 or lam < 0.0:
        raise DomainError("need r > 0 and lam >= 0")
    if lam == 0.0:
        return 1.0 / r
    return 2.0 * lam / (-math.expm1(-2.0 * lam * r))
