"""Model tangential spectra and their zeta invariants.

A :class:`TangentialModel` describes the eigenvalues of a self-adjoint
first-order operator on a closed cross-section.  The symmetry
``lambda <-> -lambda`` is built in: lines are stored as magnitudes with
per-sign multiplicities, and zero modes are kept apart in ``kernel_dim``
(zeta functions never include them).  Two kinds are supported:

* ``explicit``   -- a finite list of (magnitude, multiplicity) lines;
* ``arithmetic`` -- magnitudes ``d*(n+a)`` for n = 0, 1, 2, ... with a
  polynomial multiplicity ``sum_p c_p n^p`` of degree <= 3.

Every spectral invariant used downstream (the zeta function of the
squared spectrum, its s-derivative at 0, the zeta function of the
magnitude spectrum) reduces for arithmetic models to finite linear
combinations of Hurwitz zeta values

    zeta_H(s, a) = sum_{n>=0} (n + a)^(-s),

so this module also houses the Hurwitz engine.  Values and s-derivatives
are continued with the Euler-Maclaurin formula, truncated adaptively so
the recorded ``est_error`` stays below 1e-12 on the working region
(|s| <= 10, a in [0.1, 10]); a self-contained Stirling log-gamma supplies
the closed form of the s-derivative at 0.  All complex powers take the
principal branch, with the cut on the negative real axis.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from math import comb, fsum

from .errors import ConvergenceError, DomainError, PoleError

__all__ = [
    "EigenLine",
    "TangentialModel",
    "ZetaValue",
    "log_gamma",
    "hurwitz_zeta",
    "hurwitz_zeta_sderiv",
    "hurwitz_zeta_zero_deriv",
    "zeta_sq",
    "zeta_abs",
    "logdet_sq",
    "zeta_sq_deriv0",
    "enumerate_modes",
    "load_model",
    "model_to_json_dict",
]

SCHEME_EULER_MACLAURIN = "euler-maclaurin"
SCHEME_CLOSED_HURWITZ = "closed-form-hurwitz"
SCHEME_DIRECT_SUM = "direct-sum"

_LOG_2PI = math.log(2.0 * math.pi)

# Bernoulli numbers B_2, B_4, ..., B_32 (exact ratios).
_BERN2 = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
    8553103.0 / 6.0,
    -23749461029.0 / 870.0,
    8615841276005.0 / 14322.0,
    -7709321041217.0 / 510.0,
)


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def log_gamma(x: float) -> float:
    """log Gamma(x) for real x > 0 to ~1e-14 relative accuracy.

    Stirling's series with Bernoulli corrections after raising the
    argument above 12.  Kept self-contained so it can anchor the
    s-derivative of the Hurwitz engine independently of any library
    gamma implementation.
    """
    if not (isinstance(x, (int, float)) and math.isfinite(x)) or x <= 0.0:
        raise DomainError(f"log_gamma requires finite x > 0, got {x!r}")
    shift = 0.0
    y = float(x)
    while y < 12.0:
        shift += math.log(y)
        y += 1.0
    series = 0.0
    ypow = y
    y2 = y * y
    for j in range(1, 9):
        series += _BERN2[j - 1] / ((2 * j) * (2 * j - 1) * ypow)
        ypow *= y2
    return (y - 0.5) * math.log(y) - y + 0.5 * _LOG_2PI + series - shift


def _cfsum(terms) -> complex:
    """Exactly rounded sum of complex terms (fsum on each component)."""
    items = list(terms)
    return complex(fsum(t.real for t in items), fsum(t.imag for t in items))


def _pochhammer_with_deriv(s: complex, q: int) -> tuple[complex, complex]:
    """(s)_q = s(s+1)...(s+q-1) together with its derivative in s."""
    p = complex(1.0)
    dp = complex(0.0)
    for i in range(q):
        dp = dp * (s + i) + p
        p = p * (s + i)
    return p, dp


def _em_hurwitz(s: complex, a: float, n_terms: int, j_terms: int):
    """One Euler-Maclaurin pass: zeta_H(s,a), d/ds zeta_H(s,a), error bounds.

    The truncation error is bounded by the first omitted Bernoulli term
    times |s+2J+1|/(Re s + 2J+1); the derivative bound is a scaled
    estimate of the same term.
    """
    head = []
    dhead = []
    real_s = s.imag == 0.0
    for n in range(n_terms):
        base = n + a
        lg = math.log(base)
        p = complex(base ** (-s.real)) if real_s else cmath.exp(-s * lg)
        head.append(p)
        dhead.append(-lg * p)
    w = n_terms + a
    lw = math.log(w)
    ws = cmath.exp(-s * lw)  # w^(-s)
    sm1 = s - 1.0
    integral = w * ws / sm1
    dintegral = w * ws * (-lw / sm1 - 1.0 / (sm1 * sm1))
    half = 0.5 * ws
    dhalf = -0.5 * lw * ws

    corr = []
    dcorr = []
    wpow = ws / w  # w^(-s-1)
    for j in range(1, j_terms + 1):
        b = _BERN2[j - 1] / math.factorial(2 * j)
        p, dp = _pochhammer_with_deriv(s, 2 * j - 1)
        corr.append(b * p * wpow)
        dcorr.append(b * (dp - p * lw) * wpow)
        wpow /= w * w
    # wpow is now w^(-s-2J-1), the power of the first omitted term
    b_next = _BERN2[j_terms] / math.factorial(2 * j_terms + 2)
    p_next, _ = _pochhammer_with_deriv(s, 2 * j_terms + 1)
    sigma = s.real + 2 * j_terms + 1
    if sigma <= 0.0:
        err = math.inf
    else:
        err = abs(b_next) * abs(p_next) * abs(wpow) * (abs(s + 2 * j_terms + 1) / sigma)
    derr = err * (lw + 4.0)

    value = _cfsum(head + [integral, half] + corr)
    deriv = _cfsum(dhead + [dintegral, dhalf] + dcorr)
    # rounding floor: the head sum and integral term can cancel
    scale = fsum(abs(t) for t in head) + abs(integral) + 1.0
    dscale = fsum(abs(t) for t in dhead) + abs(dintegral) + 1.0
    return value, deriv, err, derr, 4e-16 * scale, 4e-16 * dscale


def _check_hurwitz_args(s: complex, a: float) -> None:
    if not (isinstance(a, (int, float)) and math.isfinite(a)) or a <= 0.0:
        raise DomainError(f"Hurwitz zeta requires a > 0, got a={a!r}")
    if abs(s - 1.0) < 1e-8:
        raise PoleError(f"Hurwitz zeta has a pole at s=1 (got s={s})")


def _hurwitz_core(s: complex, a: float, tol: float):
    """Adaptive Euler-Maclaurin evaluation shared by value and derivative."""
    j_terms = 15
    result = None
    # A split point w = N + a of ~12 suffices for |s| <= 10 and keeps the
    # head sum's rounding scale down at negative Re s; escalate only when
    # the Bernoulli-tail bound demands it (large |s| or |Im s|).
    for mult in (1, 2, 4, 8, 16, 32, 64):
        target_w = max(12.0, 1.2 * abs(s)) * mult
        n_terms = max(0, math.ceil(target_w - a), math.ceil(0.5 * abs(s.imag)))
        result = _em_hurwitz(s, a, n_terms, j_terms)
        if result[2] <= tol:
            break
    value, deriv, trunc, dtrunc, round_err, round_derr = result
    if not math.isfinite(trunc) or trunc > 1e-9:
        raise ConvergenceError(
            f"Euler-Maclaurin truncation bound {trunc:.3e} too large at s={s}, a={a}"
        )
    return value, deriv, trunc + round_err, dtrunc + round_derr


def hurwitz_zeta(s, a: float, *, tol: float = 1e-13) -> "ZetaValue":
    """Analytically continued zeta_H(s, a) = sum_{n>=0} (n+a)^(-s), s != 1.

    Euler-Maclaurin with adaptive split point; the returned est_error is
    the truncation bound of the Bernoulli tail plus rounding.
    """
    s = complex(s)
    _check_hurwitz_args(s, a)
    value, _, err, _ = _hurwitz_core(s, a, tol)
    est = max(err, 8e-16 * (abs(value) + 1.0))
    return ZetaValue(s=s, value=value, scheme=SCHEME_EULER_MACLAURIN, est_error=est)


def hurwitz_zeta_sderiv(s, a: float, *, tol: float = 1e-13) -> "ZetaValue":
    """d/ds zeta_H(s, a), continued by the differentiated Euler-Maclaurin sum."""
    s = complex(s)
    _check_hurwitz_args(s, a)
    _, deriv, _, derr = _hurwitz_core(s, a, tol)
    est = max(derr, 8e-16 * (abs(deriv) + 1.0))
    return ZetaValue(s=s, value=deriv, scheme=SCHEME_EULER_MACLAURIN, est_error=est)


def hurwitz_zeta_zero_deriv(a: float) -> float:
    """Closed form of d/ds zeta_H(s,a) at s = 0: log Gamma(a) - log(2 pi)/2."""
    if not (isinstance(a, (int, float)) and math.isfinite(a)) or a <= 0.0:
        raise DomainError(f"requires a > 0, got a={a!r}")
    return log_gamma(a) - 0.5 * _LOG_2PI


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZetaValue:
    """A zeta value at a point, tagged with how it was computed."""

    s: complex
    value: complex
    scheme: str
    est_error: float

    def __post_init__(self):
        if not math.isfinite(self.est_error) or self.est_error < 0.0:
            raise DomainError(f"est_error must be finite and >= 0, got {self.est_error!r}")

    @property
    def real(self) -> float:
        return self.value.real


@dataclass(frozen=True)
class EigenLine:
    """One magnitude line of a symmetric spectrum.

    ``mult`` is carried by each of +lam and -lam separately; the mirrored
    line is implied and never stored.
    """

    lam: float
    mult: int

    def __post_init__(self):
        if not math.isfinite(self.lam) or self.lam < 0.0:
            raise DomainError(f"eigenvalue magnitude must be finite and >= 0, got {self.lam!r}")
        if not isinstance(self.mult, int) or self.mult < 1:
            raise DomainError(f"multiplicity must be a positive integer, got {self.mult!r}")


_MAX_MULT_DEGREE = 3


@dataclass(frozen=True)
class TangentialModel:
    """Symmetric model spectrum with a separately tracked kernel dimension."""

    kind: str
    kernel_dim: int = 0
    lines: tuple[EigenLine, ...] = ()
    a: float = 0.0
    d: float = 0.0
    mult_coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        if not isinstance(self.kernel_dim, int) or self.kernel_dim < 0:
            raise DomainError(f"kernel_dim must be an integer >= 0, got {self.kernel_dim!r}")
        if self.kind == "explicit":
            for line in self.lines:
                if line.lam <= 0.0:
                    raise DomainError(
                        "explicit lines must have lam > 0; zero modes belong in kernel_dim"
                    )
            lams = [line.lam for line in self.lines]
            if len(set(lams)) != len(lams):
                raise DomainError("explicit lines must have distinct magnitudes")
        elif self.kind == "arithmetic":
            if not (math.isfinite(self.a) and 0.0 < self.a <= 1.0):
                raise DomainError(f"offset a must lie in (0, 1], got {self.a!r}")
            if not (math.isfinite(self.d) and self.d > 0.0):
                raise DomainError(f"gap d must be > 0, got {self.d!r}")
            if not self.mult_coeffs or all(c == 0 for c in self.mult_coeffs):
                raise DomainError("multiplicity coefficients must not all vanish")
            if any((not isinstance(c, int)) or c < 0 for c in self.mult_coeffs):
                raise DomainError("multiplicity coefficients must be integers >= 0")
            if len(self.mult_coeffs) - 1 > _MAX_MULT_DEGREE:
                raise DomainError(
                    f"multiplicity degree {len(self.mult_coeffs) - 1} exceeds "
                    f"the supported maximum {_MAX_MULT_DEGREE}"
                )
        else:
            raise DomainError(f"unknown model kind {self.kind!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def explicit(cls, lines, kernel_dim: int = 0) -> "TangentialModel":
        eig = tuple(
            line if isinstance(line, EigenLine) else EigenLine(float(line[0]), int(line[1]))
            for line in lines
        )
        eig = tuple(sorted(eig, key=lambda e: e.lam))
        return cls(kind="explicit", kernel_dim=kernel_dim, lines=eig)

    @classmethod
    def arithmetic(cls, a: float, d: float, mult_coeffs=(1,), kernel_dim: int = 0) -> "TangentialModel":
        return cls(
            kind="arithmetic",
            kernel_dim=kernel_dim,
            a=float(a),
            d=float(d),
            mult_coeffs=tuple(int(c) for c in mult_coeffs),
        )

    # -- structure ---------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.kind == "explicit"

    @property
    def mult_degree(self) -> int:
        if self.kind != "arithmetic":
            return 0
        return max(p for p, c in enumerate(self.mult_coeffs) if c != 0)

    @property
    def spectral_growth(self) -> float:
        """Smallest sigma with sum m(lam) lam^(-sigma) finite (0 for finite models)."""
        if self.kind == "explicit":
            return 0.0
        return float(self.mult_degree + 1)

    def multiplicity(self, n: int) -> int:
        return sum(c * n**p for p, c in enumerate(self.mult_coeffs))

    def modes(self, lam_max: float | None = None, max_count: int | None = None):
        """Yield (lam, mult) over positive magnitudes, ascending.

        Arithmetic models skip indices with vanishing multiplicity; at
        least one of lam_max / max_count must bound the iteration for
        infinite models.
        """
        if self.kind == "explicit":
            for line in self.lines:
                if lam_max is not None and line.lam > lam_max:
                    break
                yield line.lam, line.mult
            return
        if lam_max is None and max_count is None:
            raise DomainError("infinite model iteration requires lam_max or max_count")
        n = 0
        emitted = 0
        while True:
            lam = self.d * (n + self.a)
            if lam_max is not None and lam > lam_max:
                return
            m = self.multiplicity(n)
            if m > 0:
                yield lam, m
                emitted += 1
                if max_count is not None and emitted >= max_count:
                    return
            n += 1

    def lambda_min(self) -> float:
        """Smallest positive eigenvalue magnitude."""
        for lam, _ in self.modes(max_count=1, lam_max=None if self.kind == "arithmetic" else math.inf):
            return lam
        raise DomainError("model has no positive modes")


def enumerate_modes(model: TangentialModel, lambda_max: float) -> list[EigenLine]:
    """All magnitude lines with lam <= lambda_max, ascending.

    The kernel is reported separately via ``model.kernel_dim``.
    """
    if not (math.isfinite(lambda_max) and lambda_max > 0.0):
        raise DomainError(f"lambda_max must be > 0, got {lambda_max!r}")
    return [EigenLine(lam, m) for lam, m in model.modes(lam_max=lambda_max)]


# ---------------------------------------------------------------------------
# model zeta functions
# ---------------------------------------------------------------------------

def _arith_coefficients(model: TangentialModel):
    """Expand sum_p c_p n^p over the basis (n+a)^j: returns {j: coeff}.

    n^p = sum_j C(p,j) (n+a)^j (-a)^(p-j), so each multiplicity block
    contributes Hurwitz zetas at shifted arguments.
    """
    coeffs: dict[int, float] = {}
    a = model.a
    for p, c in enumerate(model.mult_coeffs):
        if c == 0:
            continue
        for j in range(p + 1):
            coeffs[j] = coeffs.get(j, 0.0) + c * comb(p, j) * (-a) ** (p - j)
    return coeffs


def zeta_sq(model: TangentialModel, s) -> ZetaValue:
    """zeta of the squared spectrum: sum over nonzero modes of m (lam^2)^(-s).

    Arithmetic models are assembled as 2 d^(-2s) sum_j beta_j zeta_H(2s-j, a);
    explicit models are plain finite sums valid at every s.
    """
    s = complex(s)
    if model.kind == "explicit":
        terms = [2.0 * m * cmath.exp(-2.0 * s * math.log(lam)) for lam, m in model.modes()]
        value = _cfsum(terms)
        est = 8e-16 * (fsum(abs(t) for t in terms) + 1.0)
        return ZetaValue(s=s, value=value, scheme=SCHEME_DIRECT_SUM, est_error=est)

    coeffs = _arith_coefficients(model)
    for j in coeffs:
        if abs(2.0 * s - j - 1.0) < 1e-8:
            raise PoleError(
                f"zeta of the squared spectrum has a pole at s={(j + 1) / 2} "
                f"for multiplicity degree {model.mult_degree}"
            )
    front = 2.0 * cmath.exp(-2.0 * s * math.log(model.d))
    total = complex(0.0)
    est = 0.0
    parts = []
    for j, beta in sorted(coeffs.items()):
        hz = hurwitz_zeta(2.0 * s - j, model.a)
        parts.append(beta * hz.value)
        est += abs(beta) * hz.est_error
    total = front * _cfsum(parts)
    est = abs(front) * est + 8e-16 * (abs(total) + 1.0)
    return ZetaValue(s=s, value=total, scheme=SCHEME_CLOSED_HURWITZ, est_error=est)


def zeta_abs(model: TangentialModel, s) -> ZetaValue:
    """zeta of the magnitude spectrum; identically zeta_sq at s/2.

    Sharing the code path makes zeta_abs(2s) == zeta_sq(s) bit-identical.
    """
    s = complex(s)
    inner = zeta_sq(model, s * 0.5)
    return ZetaValue(s=s, value=inner.value, scheme=inner.scheme, est_error=inner.est_error)


def zeta_sq_deriv0(model: TangentialModel) -> tuple[float, float]:
    """(d/ds zeta_sq at s=0, error estimate).

    The j = 0 block uses the closed log-gamma form of the Hurwitz
    s-derivative; higher blocks use the Euler-Maclaurin derivative.
    """
    if model.kind == "explicit":
        val = -fsum(2.0 * m * math.log(lam * lam) for lam, m in model.modes())
        return val, 8e-16 * (abs(val) + 1.0)
    coeffs = _arith_coefficients(model)
    f0_parts, f0_errs = [], []
    f1_parts, f1_errs = [], []
    for j, beta in sorted(coeffs.items()):
        hz = hurwitz_zeta(-float(j), model.a)
        f0_parts.append(beta * hz.value.real)
        f0_errs.append(abs(beta) * hz.est_error)
        if j == 0:
            f1_parts.append(beta * hurwitz_zeta_zero_deriv(model.a))
            f1_errs.append(abs(beta) * 1e-14)
        else:
            dz = hurwitz_zeta_sderiv(-float(j), model.a)
            f1_parts.append(beta * dz.value.real)
            f1_errs.append(abs(beta) * dz.est_error)
    f0 = fsum(f0_parts)
    f1 = fsum(f1_parts)
    value = -4.0 * math.log(model.d) * f0 + 4.0 * f1
    err = 4.0 * abs(math.log(model.d)) * fsum(f0_errs) + 4.0 * fsum(f1_errs)
    return value, err + 8e-16 * (abs(value) + 1.0)


def logdet_sq(model: TangentialModel) -> float:
    """Regularized log-determinant of the squared spectrum: -zeta_sq'(0).

    Zero modes are excluded; for finite models this is the plain sum of
    m log(lam^2) over the signed spectrum.
    """
    value, _ = zeta_sq_deriv0(model)
    return -value


# ---------------------------------------------------------------------------
# JSON model files
# ---------------------------------------------------------------------------

def _reject_nonfinite(token: str):
    raise DomainError(f"non-finite number {token!r} not accepted in model files")


def model_from_json_dict(data: dict) -> TangentialModel:
    if not isinstance(data, dict) or "kind" not in data:
        raise DomainError("model file must be a JSON object with a 'kind' field")
    kind = data["kind"]
    kernel = data.get("kernel", 0)
    if not isinstance(kernel, int) or isinstance(kernel, bool):
        raise DomainError(f"kernel must be an integer, got {kernel!r}")
    if kind == "arithmetic":
        try:
            return TangentialModel.arithmetic(
                a=float(data["a"]), d=float(data["d"]),
                mult_coeffs=tuple(data["mult"]), kernel_dim=kernel,
            )
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed arithmetic model: {exc}") from exc
    if kind == "explicit":
        try:
            lines = tuple((float(lam), int(m)) for lam, m in data["lines"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed explicit model: {exc}") from exc
        return TangentialModel.explicit(lines, kernel_dim=kernel)
    raise DomainError(f"unknown model kind {kind!r}")


def model_to_json_dict(model: TangentialModel) -> dict:
    if model.kind == "arithmetic":
        return {"kind": "arithmetic", "a": model.a, "d": model.d,
                "mult": list(model.mult_coeffs), "kernel": model.kernel_dim}
    return {"kind": "explicit",
            "lines": [[line.lam, line.mult] for line in model.lines],
            "kernel": model.kernel_dim}


def load_model(source) -> TangentialModel:
    """Build a model from a JSON file path, JSON text, or a parsed dict."""
    if isinstance(source, dict):
        return model_from_json_dict(source)
    text = source
    if not str(source).lstrip().startswith("{"):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DomainError(f"cannot read model file {source!r}: {exc}") from exc
    try:
        data = json.loads(text, parse_constant=_reject_nonfinite)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON in model file: {exc}") from exc
    return model_from_json_dict(data)
