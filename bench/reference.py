"""Independent reference values for the benchmark's correctness check.

Nothing here imports cylzeta: models and caps are read from the dicts
the generator wrote, the spectral invariants come from mpmath's Hurwitz
zeta at 30 digits, and the convergent mode sums are direct numpy sums
taken until ``2 lam r >= 745`` (where ``e^(-2 lam r)`` underflows), each
with an explicit bound on its own rounding.

:func:`check` compares the values one CLI report states against these
references.  A value is wrong when it differs from the reference by
more than its reported ``est_error`` plus the reference's own bound.
Values the report gives without an ``est_error`` (the adiabatic-scan
rows, block minima, ray constants) are held to ``UNREPORTED_TOL``
relative to ``1 + |value|``; the program computes all of them in double
precision from absolutely convergent sums, so this leaves room only for
rounding, not for a wrong assembly.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp
import numpy as np

mp.mp.dps = 30

EPS = np.finfo(float).eps
UNREPORTED_TOL = 1e-10
_UNDERFLOW_X = 745.0  # e^(-x) is 0.0 in double precision beyond this
LOG2 = math.log(2.0)


def _key(model: dict) -> tuple:
    if model["kind"] == "explicit":
        return ("explicit", tuple(tuple(line) for line in model["lines"]), model["kernel"])
    return ("arithmetic", model["a"], model["d"], tuple(model["mult"]), model["kernel"])


def _model(key: tuple) -> dict:
    if key[0] == "explicit":
        return {"kind": "explicit", "lines": [list(x) for x in key[1]], "kernel": key[2]}
    return {"kind": "arithmetic", "a": key[1], "d": key[2], "mult": list(key[3]), "kernel": key[4]}


# ---------------------------------------------------------------------------
# spectral invariants (mpmath)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def invariants(key: tuple) -> dict:
    """zeta_sq(0), zeta_sq'(0) and zeta_abs(-1) of a model, to 30 digits.

    Arithmetic models d(n+a) with multiplicity sum_p c_p n^p are expanded
    in powers of x = n + a, n^p = sum_j C(p,j) x^j (-a)^(p-j), giving
    zeta_sq(s) = 2 d^(-2s) sum_j beta_j zeta_H(2s - j, a).
    """
    model = _model(key)
    if model["kind"] == "explicit":
        lam = [mp.mpf(x) for x, _ in model["lines"]]
        mult = [m for _, m in model["lines"]]
        z0 = 2 * sum(mult)
        dz = -mp.fsum(2 * m * mp.log(x * x) for x, m in zip(lam, mult))
        z1 = 2 * mp.fsum(m * x for x, m in zip(lam, mult))
    else:
        a, d = mp.mpf(model["a"]), mp.mpf(model["d"])
        beta = {}
        for p, c in enumerate(model["mult"]):
            for j in range(p + 1):
                beta[j] = beta.get(j, 0) + c * mp.binomial(p, j) * (-a) ** (p - j)
        h0 = mp.fsum(b * mp.zeta(-j, a) for j, b in beta.items())
        h1 = mp.fsum(b * mp.zeta(-j, a, 1) for j, b in beta.items())
        z0 = 2 * h0
        dz = 2 * (-2 * mp.log(d) * h0 + 2 * h1)
        z1 = 2 * d * mp.fsum(b * mp.zeta(-1 - j, a) for j, b in beta.items())
    return {"z0": float(z0), "dz": float(dz), "z1": float(z1)}


# ---------------------------------------------------------------------------
# convergent mode sums (numpy)
# ---------------------------------------------------------------------------

def _modes(key: tuple, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Magnitudes and per-sign multiplicities with 2 lam r < 745 (all of an
    explicit model); every omitted term is below 1e-300 in size."""
    model = _model(key)
    if model["kind"] == "explicit":
        lines = np.array(model["lines"], dtype=float).reshape(-1, 2)
        return lines[:, 0], lines[:, 1]
    a, d = model["a"], model["d"]
    count = int(math.ceil(_UNDERFLOW_X / (2.0 * d * r) - a)) + 2
    n = np.arange(count, dtype=float)
    mult = sum(c * n**p for p, c in enumerate(model["mult"]))
    keep = mult > 0
    return (d * (n + a))[keep], mult[keep]


def _sum(terms: np.ndarray) -> tuple[float, float]:
    """Correctly rounded sum of computed terms, with a bound of a few ulp
    per term for their own rounding plus the omitted underflowed tail."""
    return math.fsum(terms), 4.0 * EPS * math.fsum(np.abs(terms)) + 1e-290


@lru_cache(maxsize=4096)
def exp_sum(key: tuple, r: float) -> tuple[float, float]:
    """T(r) = sum over the signed spectrum of m log(1 - e^(-2 lam r))."""
    lam, mult = _modes(key, r)
    with np.errstate(under="ignore"):
        return _sum(2.0 * mult * np.log1p(-np.exp(-2.0 * lam * r)))


def _mu(lam: np.ndarray, cap: dict) -> np.ndarray:
    pert = cap.get("pert") or {}
    return lam + pert.get("c", 0.0) * (1.0 + lam * lam) ** (-pert.get("beta", 1.0))


def dtn_difference(key: tuple, cap: dict, r: float) -> tuple[float, float]:
    """sum over magnitudes of m log((mu + lam coth(lam r)) / (mu + lam)): the
    Dirichlet-vs-APS difference of one side; only the side's own sign of
    each magnitude pair differs between the two variants."""
    lam, mult = _modes(key, r)
    with np.errstate(under="ignore"):
        e = np.exp(-2.0 * lam * r)
        excess = lam * 2.0 * e / (1.0 - e)
        return _sum(mult * np.log1p(excess / (_mu(lam, cap) + lam)))


def blocks_min(key: tuple, cap1: dict, cap2: dict, r: float) -> tuple[float, float]:
    """Minimum over magnitudes of the lower eigenvalue of
    [[mu1 + lam + A e, -A], [-A, mu2 + lam + A e]], e = e^(-2 r lam),
    A = lam / sinh(2 r lam) <= 1/(2r).  Blocks with lam beyond
    lo(lam_min) + max|c| + 1/(2r) cannot go lower (mu >= lam - |c|)."""
    model = _model(key)
    floor = max(abs((cap.get("pert") or {}).get("c", 0.0)) for cap in (cap1, cap2))

    def lower(lam):
        with np.errstate(under="ignore"):
            e2 = np.exp(-2.0 * r * lam)
            amp = 2.0 * lam * e2 / (1.0 - e2 * e2)
        diag = amp * e2
        a = _mu(lam, cap1) + lam + diag
        c = _mu(lam, cap2) + lam + diag
        lo = 0.5 * (a + c) - np.hypot(0.5 * (a - c), amp)
        return lo, 8.0 * EPS * (np.abs(a) + np.abs(c) + amp)

    if model["kind"] == "explicit":
        lam = np.array([x for x, _ in model["lines"]], dtype=float)
    else:
        n0 = 0 if model["mult"][0] > 0 else 1
        lam0 = model["d"] * (n0 + model["a"])
        first, _ = lower(np.array([lam0]))
        lam_stop = first[0] + floor + 0.5 / r
        count = max(1, int(math.ceil(lam_stop / model["d"] - model["a"])) + 2)
        lam = model["d"] * (np.arange(n0, n0 + count, dtype=float) + model["a"])
    lo, bound = lower(lam)
    i = int(np.argmin(lo))
    return float(lo[i]), float(bound[i])


# ---------------------------------------------------------------------------
# assemblies
# ---------------------------------------------------------------------------

# (coefficient of r Z1, of logdet_sq, of Z0, of T(r)) and the kernel term,
# from the five closed assemblies of the regularized cylinder determinants
_ASSEMBLY = {
    "D,D": (1.0, -0.5, 0.0, 1.0, lambda r: math.log(2.0 * r)),
    "D,P<": (1.0, -0.25, 0.5 * LOG2, 0.5, lambda r: LOG2),
    "P>=,D": (1.0, -0.25, 0.5 * LOG2, 0.5, lambda r: math.log(2.0 * r)),
    "P>,D": (1.0, -0.25, 0.5 * LOG2, 0.5, lambda r: LOG2),
    "D,RobinAbsB": (1.0, 0.0, LOG2, 0.0, lambda r: LOG2),
}


def cylinder_logdet(key: tuple, r: float, bc: str) -> tuple[float, float]:
    inv = invariants(key)
    c_lin, c_log, c_cnt, c_tail, kernel = _ASSEMBLY[bc]
    tail, tail_err = exp_sum(key, r) if c_tail else (0.0, 0.0)
    value = (c_lin * r * inv["z1"] - c_log * inv["dz"] + c_cnt * inv["z0"]
             + c_tail * tail + key[-1] * kernel(r))
    return value, c_tail * tail_err


def robin_logdet(key: tuple, r: float) -> tuple[float, float]:
    """log 2 Z0 + logdet_sq / 2 - T(r) - k log r."""
    inv = invariants(key)
    tail, tail_err = exp_sum(key, r)
    return LOG2 * inv["z0"] - 0.5 * inv["dz"] - tail - key[-1] * math.log(r), tail_err


# ---------------------------------------------------------------------------
# comparison against one report
# ---------------------------------------------------------------------------

def _excess(reported, reference: float, allowed: float) -> float:
    """|reported - reference| / allowed; above 1 the value is wrong."""
    return float(abs(float(reported) - reference) / allowed)


def _loose(value) -> float:
    return UNREPORTED_TOL * (1.0 + abs(float(value)))


def check(op, report: dict) -> dict:
    """Reported values that disagree with the reference, each mapped to its
    deviation as a multiple of the allowed error (always above 1)."""
    key = _key(op.model)
    found = {}

    def compare(name, reported, ref, allowed):
        excess = _excess(reported, ref, allowed)
        if not excess <= 1.0:
            found[name] = excess

    if op.command == "zeta":
        inv = invariants(key)
        errs = report["est_errors"]
        for name, ref, err in (("zeta_sq_0", inv["z0"], errs["zeta_sq_0"]),
                               ("zeta_sq_prime_0", inv["dz"], errs["zeta_sq_prime_0"]),
                               ("logdet_sq", -inv["dz"], errs["zeta_sq_prime_0"]),
                               ("zeta_abs_minus1", inv["z1"], errs["zeta_abs_minus1"]),
                               ("heat_trace_constant", inv["z0"] + key[-1], errs["zeta_sq_0"])):
            compare(name, report[name], ref, err + EPS * (1.0 + abs(ref)))
    elif op.command == "cylinder-det":
        ref, bound = cylinder_logdet(key, report["r"], op.params["bc"])
        compare("logdet", report["logdet"], ref,
                report["est_error"] + bound + 4 * EPS * (1.0 + abs(ref)))
    elif op.command == "adiabatic-scan":
        cap1, cap2 = op.caps
        for row in report["rows"]:
            r = row["r"]
            q, q_err = robin_logdet(key, r)
            d1, d1_err = dtn_difference(key, cap1, r)
            d2, d2_err = dtn_difference(key, cap2, r)
            bracket = -q + d1 + d2
            compare(f"q_logdet@{r!r}", row["q_logdet"], q, _loose(q) + q_err)
            compare(f"bracket@{r!r}", row["bracket"], bracket,
                    _loose(bracket) + q_err + d1_err + d2_err)
    elif op.command == "blocks-threshold":
        for row in report["rows"]:
            ref, bound = blocks_min(key, op.caps[0], op.caps[1], row["r"])
            compare(f"min_eig@{row['r']!r}", row["min_eig"], ref, _loose(ref) + bound)
    elif op.command == "asym-const":
        const = invariants(key)["z0"] + key[-1]
        compare("heat_trace_constant", report["heat_trace_constant"], const, _loose(const))
        m = op.params["m"]
        for row in report["rays"]:
            theta = math.pi * (2 * row["k"] - m + 1) / m
            predicted = 0.5 * theta * const
            re, im = row["predicted"]
            compare(f"theta@{row['k']}", row["theta"], theta, 4 * EPS * math.pi)
            compare(f"predicted.re@{row['k']}", re, 0.0, EPS)
            compare(f"predicted.im@{row['k']}", im, predicted, _loose(predicted))
    return found
