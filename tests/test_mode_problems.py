import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylzeta import DomainError, InsufficientRootsError
from cylzeta.mode_problems import (
    FAMILY_ROBIN,
    ModeBC,
    ModeProblem,
    RootSequence,
    dirichlet_mode_eigen,
    dirichlet_root_sequence,
    mode_logdet_gy,
    mode_logdet_zeta,
    mode_poisson_dtn,
    mode_robin_dtn,
    robin_mode_roots,
    shoot_poisson_dtn,
)

GRID = [(lam, r) for lam in (0.5, 1.0, 2.0) for r in (0.5, 1.0, 2.0)]


def oracle_first_robin_root(lam, r, l=0, grid=20000):
    """Independent dense-scan + bisection root of nu cos(nu r) + lam sin(nu r)."""
    f = lambda nu: nu * math.cos(nu * r) + lam * math.sin(nu * r)
    lo = (l + 0.5) * math.pi / r
    hi = (l + 1.0) * math.pi / r
    xs = [lo + (hi - lo) * i / grid for i in range(grid + 1)]
    for x0, x1 in zip(xs, xs[1:]):
        if f(x0) == 0.0:
            return x0
        if (f(x0) > 0) != (f(x1) > 0):
            lo, hi = x0, x1
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if (f(mid) > 0) == (f(lo) > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- spectra -------------------------------------------------------------------

def test_dirichlet_mode_eigen_examples():
    assert dirichlet_mode_eigen(0.0, math.pi, 3) == pytest.approx([1.0, 4.0, 9.0])
    assert dirichlet_mode_eigen(1.0, math.pi, 1) == pytest.approx([2.0])
    assert dirichlet_mode_eigen(2.0, 1.0, 2) == pytest.approx(
        [4.0 + math.pi**2, 4.0 + 4.0 * math.pi**2])
    with pytest.raises(DomainError):
        dirichlet_mode_eigen(1.0, 1.0, 0)


def test_robin_first_root_against_scan_oracle():
    seq = robin_mode_roots(1.0, 1.0, 1)
    nu_ref = oracle_first_robin_root(1.0, 1.0)
    assert seq.nu(0) == pytest.approx(nu_ref, abs=1e-10)
    # frozen from the oracle: first positive solution of tan x = -x
    assert seq.nu(0) == pytest.approx(2.028757838110434, abs=1e-9)
    assert seq.roots[0] == pytest.approx(5.115858365694522, abs=1e-8)


def test_robin_roots_brackets_and_residuals():
    for lam, r in GRID:
        seq = robin_mode_roots(lam, r, 40)
        for l in range(seq.count):
            nu = seq.nu(l)
            assert (l + 0.5) * math.pi / r < nu < (l + 1.0) * math.pi / r
            resid = abs(nu * math.cos(nu * r) + lam * math.sin(nu * r))
            assert resid / (1.0 + nu * r + lam * r) <= 1e-12
        assert all(b > a for a, b in zip(seq.roots, seq.roots[1:]))


def test_robin_roots_small_lam_limit():
    seq = robin_mode_roots(1e-9, 1.0, 5)
    for l in range(5):
        assert seq.nu(l) == pytest.approx((l + 0.5) * math.pi, abs=1e-8)


def test_robin_root_asymptotic_rate():
    # nu_l r - (l+1/2) pi - lam/nu_l = -lam^3/(3 nu_l^3) + O(nu^-5)
    lam, r = 1.0, 1.0
    seq = robin_mode_roots(lam, r, 41)
    for l in (20, 30, 40):
        nu = seq.nu(l)
        dev = nu * r - (l + 0.5) * math.pi - lam / nu
        assert dev * nu**3 == pytest.approx(-(lam**3) / 3.0, rel=5e-3)
    assert seq.tail_c1 == pytest.approx(lam, abs=1e-4)


def test_robin_roots_rejects_nonpositive_lam():
    with pytest.raises(DomainError):
        robin_mode_roots(0.0, 1.0, 3)
    with pytest.raises(DomainError):
        robin_mode_roots(-1.0, 1.0, 3)


# -- closed-form determinants ----------------------------------------------------

def test_mode_logdet_gy_values():
    assert mode_logdet_gy(ModeProblem(0.0, 3.0)) == pytest.approx(math.log(6.0), abs=1e-14)
    assert mode_logdet_gy(ModeProblem(1.0, 1.0)) == pytest.approx(
        math.log(2.0 * math.sinh(1.0)), abs=1e-14)
    assert mode_logdet_gy(ModeProblem(1.0, 1.0, right=ModeBC.ROBIN_ABS)) == pytest.approx(
        1.0 + math.log(2.0), abs=1e-14)
    assert mode_logdet_gy(ModeProblem(0.0, 2.0, right=ModeBC.NEUMANN)) == pytest.approx(
        math.log(2.0), abs=1e-14)


@given(st.floats(min_value=0.05, max_value=4.0), st.floats(min_value=0.2, max_value=4.0))
@settings(max_examples=50, deadline=None)
def test_gy_ratio_is_robin_dtn_value(lam, r):
    # det(D,RobinAbs)/det(D,D) equals the Robin-map eigenvalue, per mode
    gap = mode_logdet_gy(ModeProblem(lam, r, right=ModeBC.ROBIN_ABS)) - mode_logdet_gy(
        ModeProblem(lam, r))
    assert math.exp(gap) == pytest.approx(mode_robin_dtn(lam, r), rel=1e-12)


def test_gy_ratio_kernel_case():
    gap = mode_logdet_gy(ModeProblem(0.0, 4.0, right=ModeBC.NEUMANN)) - mode_logdet_gy(
        ModeProblem(0.0, 4.0))
    assert math.exp(gap) == pytest.approx(mode_robin_dtn(0.0, 4.0), rel=1e-14)


# -- zeta-route determinants -----------------------------------------------------

def test_mode_logdet_zeta_dirichlet_grid():
    for lam, r in GRID:
        seq = dirichlet_root_sequence(lam, r, 40)
        gy = mode_logdet_gy(ModeProblem(lam, r))
        assert mode_logdet_zeta(seq) == pytest.approx(gy, abs=1e-4)


def test_mode_logdet_zeta_robin_grid():
    for lam, r in GRID:
        seq = robin_mode_roots(lam, r, 40)
        gy = mode_logdet_gy(ModeProblem(lam, r, right=ModeBC.ROBIN_ABS))
        assert mode_logdet_zeta(seq) == pytest.approx(gy, abs=1e-4)


def test_mode_logdet_zeta_lam_zero_families():
    d0 = dirichlet_root_sequence(0.0, 3.0, 40)
    assert mode_logdet_zeta(d0) == pytest.approx(math.log(6.0), abs=1e-6)
    neu = RootSequence(lam=0.0, r=1.0, family=FAMILY_ROBIN,
                       roots=tuple(((l + 0.5) * math.pi) ** 2 for l in range(40)),
                       tail_c1=0.0)
    assert mode_logdet_zeta(neu) == pytest.approx(math.log(2.0), abs=1e-6)


def test_mode_logdet_zeta_needs_enough_roots():
    with pytest.raises(InsufficientRootsError):
        mode_logdet_zeta(dirichlet_root_sequence(1.0, 1.0, 10))


def test_mode_logdet_zeta_unit_product():
    # lam r = 1 gives log(2 e)
    seq = robin_mode_roots(2.0, 0.5, 40)
    assert mode_logdet_zeta(seq) == pytest.approx(1.0 + math.log(2.0), abs=1e-4)


# -- boundary values --------------------------------------------------------------

def test_poisson_dtn_closed_vs_shooting():
    for lam, r in GRID:
        closed = mode_poisson_dtn(lam, r, verify=True)
        assert closed == pytest.approx(lam / math.tanh(lam * r), rel=1e-13)
        assert abs(shoot_poisson_dtn(lam * lam, r) - closed) <= 1e-8 * max(1.0, closed)


def test_poisson_dtn_kernel_and_asymptote():
    assert mode_poisson_dtn(0.0, 2.0) == pytest.approx(0.5, abs=1e-14)
    assert mode_poisson_dtn(2.0, 100.0, verify=False) == pytest.approx(2.0, abs=1e-12)


def test_robin_dtn_values():
    assert mode_robin_dtn(1.0, 1.0) == pytest.approx(2.0 / (1.0 - math.exp(-2.0)), rel=1e-14)
    assert mode_robin_dtn(1.0, 400.0) == pytest.approx(2.0, abs=1e-14)
    assert mode_robin_dtn(0.0, 4.0) == pytest.approx(0.25, abs=1e-15)


@given(st.floats(min_value=0.01, max_value=8.0), st.floats(min_value=0.05, max_value=8.0))
@settings(max_examples=60, deadline=None)
def test_robin_dtn_positivity_and_poisson_identity(lam, r):
    q = mode_robin_dtn(lam, r)
    assert q > 0.0
    # |lam| coth(|lam| r) + |lam| = 2 |lam| / (1 - e^(-2 lam r))
    assert q == pytest.approx(mode_poisson_dtn(lam, r, verify=False) + lam, rel=1e-12)


# -- structure ---------------------------------------------------------------------

def test_mode_problem_validation():
    with pytest.raises(DomainError):
        ModeProblem(1.0, -1.0)
    with pytest.raises(DomainError):
        ModeProblem(1.0, 1.0, right=ModeBC.NEUMANN)
    with pytest.raises(DomainError):
        ModeProblem(0.0, 1.0, right=ModeBC.ROBIN_ABS)


def test_root_sequence_json_round_trip():
    seq = robin_mode_roots(1.5, 0.7, 32)
    again = RootSequence.from_json(seq.to_json())
    assert again == seq
    with pytest.raises(DomainError):
        RootSequence.from_json_dict({"lambda": 1.0})
