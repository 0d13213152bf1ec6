import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylzeta import ConvergenceError, DomainError, KernelModeError, TangentialModel
from cylzeta.gluing import (
    Block2x2,
    CapOperator,
    DtNVariant,
    adiabatic_bracket,
    blocks_min_eig,
    cap_to_json_dict,
    dtn_difference_logdet,
    dtn_eigenvalue,
    exp_correction_sum,
    extended_solution_detect,
    fit_exp_decay,
    load_cap,
    robin_dtn_limit,
    robin_dtn_limit_bound,
    robin_dtn_logdet,
    validate_cap_for_model,
)
from cylzeta.mode_problems import mode_poisson_dtn, mode_robin_dtn

HALF = TangentialModel.arithmetic(0.5, 1.0)
PAIR = TangentialModel.explicit([(1.0, 1)])
KER = TangentialModel.explicit([(1.0, 1)], kernel_dim=1)
ABS_CAP = CapOperator()
PERT_CAP = CapOperator(pert_c=0.5, pert_beta=1.0)


# -- DtN eigenvalues ---------------------------------------------------------

def test_dtn_eigenvalue_examples():
    # Dirichlet interface: mu + lam coth(lam r); oracle through the Poisson
    # boundary derivative
    got = dtn_eigenvalue(ABS_CAP, 1.0, 1.0, DtNVariant.M1_DIRICHLET)
    assert got == pytest.approx(1.0 + mode_poisson_dtn(1.0, 1.0), rel=1e-12)
    assert got == pytest.approx(1.0 + 1.0 / math.tanh(1.0), rel=1e-12)
    # APS flattens its own sign side exactly
    assert dtn_eigenvalue(ABS_CAP, 1.0, 1.0, DtNVariant.M1_APS) == pytest.approx(2.0)
    assert dtn_eigenvalue(ABS_CAP, -1.0, 1.0, DtNVariant.M2_APS) == pytest.approx(2.0)
    # r -> infinity limit is mu + lam for every variant
    for v in DtNVariant:
        assert dtn_eigenvalue(ABS_CAP, 1.0, 500.0, v) == pytest.approx(2.0, abs=1e-12)


def test_dtn_eigenvalue_kernel_rejected():
    with pytest.raises(KernelModeError):
        dtn_eigenvalue(ABS_CAP, 0.0, 1.0, DtNVariant.M1_DIRICHLET)


@given(st.floats(min_value=0.05, max_value=5.0), st.floats(min_value=0.2, max_value=6.0))
@settings(max_examples=50, deadline=None)
def test_dtn_matches_robin_map_for_magnitude_cap(lam, r):
    # mu = |lam| cap: Dirichlet-variant eigenvalue equals the Robin-map value
    got = dtn_eigenvalue(ABS_CAP, lam, r, DtNVariant.M1_DIRICHLET)
    assert got == pytest.approx(mode_robin_dtn(lam, r), rel=1e-12)


def test_dtn_monotone_in_r():
    rs = [0.5, 1.0, 2.0, 4.0, 8.0]
    dirichlet = [dtn_eigenvalue(ABS_CAP, 1.0, r, DtNVariant.M1_DIRICHLET) for r in rs]
    assert all(b < a for a, b in zip(dirichlet, dirichlet[1:]))
    flat = [dtn_eigenvalue(ABS_CAP, 1.0, r, DtNVariant.M1_APS) for r in rs]
    assert all(a == b for a, b in zip(flat, flat[1:]))


# -- Robin-map determinant ------------------------------------------------------

def test_robin_dtn_logdet_finite():
    got = robin_dtn_logdet(PAIR, 1.0)
    expect = 2.0 * math.log(mode_robin_dtn(1.0, 1.0))
    assert got.value.real == pytest.approx(expect, abs=1e-12)
    assert abs(got.value - got.recombine()) <= 1e-13


def test_robin_dtn_logdet_tail_against_truncated_sum():
    # the assembly minus its regularized limit is the convergent sum
    # -sum m log(1 - e^(-2 lam r)); check against a direct truncation
    r = 1.0
    reg = robin_dtn_logdet(HALF, r).value.real
    limit, _ = robin_dtn_limit(HALF)
    direct = -math.fsum(
        2.0 * math.log1p(-math.exp(-2.0 * (n + 0.5) * r)) for n in range(60))
    assert reg - limit == pytest.approx(direct, abs=1e-13)


def test_robin_dtn_limit_value():
    limit, err = robin_dtn_limit(HALF)
    assert limit == pytest.approx(math.log(2.0), abs=1e-10)
    assert err < 1e-10


def test_robin_dtn_monotone_decreasing_to_limit():
    limit, _ = robin_dtn_limit(HALF)
    values = [robin_dtn_logdet(HALF, r).value.real for r in (1.0, 2.0, 4.0, 8.0)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert all(v > limit for v in values)


def test_robin_dtn_limit_envelope():
    for r in (1.0, 2.0, 4.0, 8.0):
        gap = robin_dtn_logdet(HALF, r).value.real - robin_dtn_limit(HALF)[0]
        assert 0.0 < gap <= robin_dtn_limit_bound(HALF, r)


def test_exp_correction_sum_kernel_free():
    val, tail = exp_correction_sum(PAIR, 1.0)
    assert val == pytest.approx(2.0 * math.log1p(-math.exp(-2.0)), abs=1e-14)
    assert tail == 0.0


@pytest.mark.parametrize("r", [1e-4, 4e-3, 0.1, 0.5])
def test_exp_correction_sum_matches_eta_closed_form(r):
    # on n + 1/2 the sum is 2 log prod (1 - e^(-(2n+1) r)); the Dedekind-eta
    # transformation gives -pi^2/(6r) + log 2 - r/12 up to O(e^(-2 pi^2 / r))
    value, tail = exp_correction_sum(HALF, r)
    closed = -math.pi ** 2 / (6.0 * r) + math.log(2.0) - r / 12.0
    assert 0.0 < tail <= 1e-17
    assert abs(value - closed) <= tail + 4e-16 * abs(closed)


@pytest.mark.parametrize("r", [0.05, 0.5, 2.0])
def test_robin_dtn_limit_bound_matches_geometric_series(r):
    # sum over n + 1/2 of 2 e^(-(2n+1) r) is 1/sinh(r); lam_min = 1/2
    got = robin_dtn_limit_bound(HALF, r)
    closed = 1.0 / (math.sinh(r) * -math.expm1(-r))
    # the returned value adds twice the tail bound (at most 1e-17) to the sum
    assert abs(got - closed) <= 3e-17 / -math.expm1(-r) + 4e-16 * closed


def test_convergent_sums_fail_fast_past_the_mode_budget():
    # d r below about 1.28e-5 needs more than 2,000,000 modes: refused
    # before summing, and a non-finite r is a domain error, not a long sum;
    # the block scan keeps the same mode budget
    with pytest.raises(ConvergenceError):
        exp_correction_sum(HALF, 1e-5)
    with pytest.raises(ConvergenceError):  # blocks reach lam ~ 1/(2r) = 5e6
        blocks_min_eig(HALF, ABS_CAP, ABS_CAP, 1e-7)
    for bad in (math.nan, math.inf, 0.0, -1.0):
        for call in (lambda r: exp_correction_sum(HALF, r),
                     lambda r: robin_dtn_limit_bound(HALF, r),
                     lambda r: blocks_min_eig(HALF, ABS_CAP, ABS_CAP, r)):
            with pytest.raises(DomainError):
                call(bad)


# -- differences and the adiabatic bracket ---------------------------------------

def test_dtn_difference_finite_value():
    got = dtn_difference_logdet(PAIR, ABS_CAP, 1.0,
                                DtNVariant.M1_DIRICHLET, DtNVariant.M1_APS)
    assert got == pytest.approx(math.log((1.0 + 1.0 / math.tanh(1.0)) / 2.0), abs=1e-12)


def test_dtn_difference_same_variant_zero():
    got = dtn_difference_logdet(HALF, ABS_CAP, 1.0,
                                DtNVariant.M1_DIRICHLET, DtNVariant.M1_DIRICHLET)
    assert got == 0.0


def test_dtn_difference_decays_with_envelope():
    values = []
    for r in (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0):
        v = dtn_difference_logdet(HALF, ABS_CAP, r,
                                  DtNVariant.M1_DIRICHLET, DtNVariant.M1_APS)
        assert 0.0 < v <= robin_dtn_limit_bound(HALF, r)
        values.append(v)
    rate, _ = fit_exp_decay((2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0), values)
    assert rate == pytest.approx(2.0 * 0.5, rel=0.05)


def test_zero_cap_rejected_against_infinite_model():
    zero = CapOperator(kind="zero")
    with pytest.raises(DomainError):
        dtn_difference_logdet(HALF, zero, 1.0,
                              DtNVariant.M1_DIRICHLET, DtNVariant.M1_APS)
    # but fine against a finite model
    val = dtn_difference_logdet(PAIR, zero, 1.0,
                                DtNVariant.M1_DIRICHLET, DtNVariant.M1_APS)
    assert val == pytest.approx(math.log(1.0 / math.tanh(1.0)), abs=1e-12)


def test_adiabatic_bracket_limits():
    # magnitude caps cancel the r-dependence exactly; the limit is
    # -(log 2 * zeta_sq(0) + logdet_sq/2)
    assert adiabatic_bracket(HALF, ABS_CAP, ABS_CAP, 8.0) == pytest.approx(
        -math.log(2.0), abs=1e-4)
    assert adiabatic_bracket(PAIR, ABS_CAP, ABS_CAP, 8.0) == pytest.approx(
        -2.0 * math.log(2.0), abs=1e-4)


def test_adiabatic_bracket_perturbed_caps_decay():
    limit = -robin_dtn_limit(HALF)[0]
    rs = (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
    devs = [adiabatic_bracket(HALF, PERT_CAP, PERT_CAP, r) - limit for r in rs]
    lam_min = 0.5
    for r, dev in zip(rs, devs):
        assert abs(dev) <= 4.0 * math.exp(-2.0 * lam_min * r)
    rate, _ = fit_exp_decay(rs, devs)
    assert rate == pytest.approx(2.0 * lam_min, rel=0.05)


def test_adiabatic_bracket_rejects_kernel():
    with pytest.raises(KernelModeError):
        adiabatic_bracket(KER, ABS_CAP, ABS_CAP, 2.0)


# -- blocks and extended solutions ------------------------------------------------

def test_blocks_min_eig_positive_and_limit():
    lo, lam = blocks_min_eig(HALF, ABS_CAP, ABS_CAP, 1.0)
    assert lo > 0.0
    assert lam == 0.5
    # closed 2x2 form at the lowest mode dominates the global minimum
    r = 10.0
    lo10, _ = blocks_min_eig(HALF, ABS_CAP, ABS_CAP, r)
    amp = 2.0 * 0.5 / (math.exp(2.0 * r * 0.5) - math.exp(-2.0 * r * 0.5))
    predict = 1.0 + amp * math.exp(-2.0 * r * 0.5) - amp
    assert lo10 == pytest.approx(predict, rel=1e-12)
    # vanishing coupling: minimum tends to min(mu_i + lam) = 1
    lo_inf, _ = blocks_min_eig(HALF, ABS_CAP, ABS_CAP, 1000.0)
    assert lo_inf == pytest.approx(1.0, abs=1e-12)


def test_blocks_min_eig_matches_brute_force_at_small_r():
    # at r = 1e-3 the coupling A ~ 1/(2r) = 500 is alive up to lam ~ 500, and
    # large perturbations put the minimum past the lowest mode (at lam = 2.5)
    r = 1e-3
    caps = (CapOperator(pert_c=10.0, pert_beta=1.0), CapOperator(pert_c=8.0, pert_beta=1.5))
    lo, lam = blocks_min_eig(HALF, *caps, r)
    brute = []
    for n in range(20_000):
        x = n + 0.5
        e2 = math.exp(-2.0 * r * x)
        amp = 2.0 * x * e2 / (1.0 - e2 * e2)
        block = Block2x2(a=caps[0].mu(x) + x + amp * e2, b=-amp, c=caps[1].mu(x) + x + amp * e2)
        brute.append((block.eigenvalues()[0], x))
    assert lam > 0.5
    assert (lo, lam) == min(brute)


def test_blocks_degenerate_caps_reported_not_raised():
    zero = CapOperator(kind="zero")
    lo, _ = blocks_min_eig(PAIR, zero, zero, 0.05)
    assert lo < 0.1  # near-singular, reported as a number
    # a cap allowed by construction but negative on low modes crosses zero
    neg = CapOperator(pert_c=-0.9, pert_beta=1.0)
    lo_neg, lam_neg = blocks_min_eig(HALF, neg, neg, 0.05)
    assert math.isfinite(lo_neg)


def test_block2x2_eigenvalues():
    b = Block2x2(a=2.0, b=-1.0, c=2.0)
    lo, hi = b.eigenvalues()
    assert (lo, hi) == pytest.approx((1.0, 3.0))


def test_extended_solution_detect():
    assert extended_solution_detect(HALF, ABS_CAP, ABS_CAP) == []
    flagged = extended_solution_detect(KER, CapOperator(kernel_value=0.0),
                                       CapOperator(kernel_value=0.5))
    assert flagged == [{"cap": 1, "lam": 0.0, "kernel": True}]


# -- caps and files ---------------------------------------------------------------

def test_cap_validation():
    with pytest.raises(DomainError):
        CapOperator(kind="weird")
    with pytest.raises(DomainError):
        CapOperator(pert_c=1.0, pert_beta=0.5)
    with pytest.raises(DomainError):
        CapOperator(kernel_value=-1.0)
    # negative perturbation dipping mu below zero is rejected against a model
    with pytest.raises(DomainError):
        validate_cap_for_model(CapOperator(pert_c=-0.9), HALF)


def test_cap_perturbation_summability_guard():
    cubic = TangentialModel.arithmetic(1.0, 1.0, (0, 0, 0, 1))  # growth 4
    with pytest.raises(DomainError):
        validate_cap_for_model(PERT_CAP, cubic)


def test_cap_json_round_trip(tmp_path):
    for cap in (ABS_CAP, PERT_CAP, CapOperator(kind="zero", kernel_value=0.25)):
        assert load_cap(cap_to_json_dict(cap)) == cap
    path = tmp_path / "cap.json"
    path.write_text('{"mu":"absB_plus","pert":{"c":1.0,"beta":1.0},"kernel_value":0.0}')
    assert load_cap(str(path)) == CapOperator(pert_c=1.0, pert_beta=1.0)
    with pytest.raises(DomainError):
        load_cap('{"no_mu": 1}')


def test_fit_exp_decay_recovers_rate():
    rs = [1.0, 2.0, 3.0, 4.0]
    vals = [3.0 * math.exp(-1.7 * r) for r in rs]
    rate, logc = fit_exp_decay(rs, vals)
    assert rate == pytest.approx(1.7, rel=1e-10)
    assert logc == pytest.approx(math.log(3.0), rel=1e-9)
