import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylzeta import (
    DomainError,
    EigenLine,
    PoleError,
    TangentialModel,
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
from cylzeta.spectral_models import model_to_json_dict, zeta_sq_deriv0

HALF = TangentialModel.arithmetic(0.5, 1.0)          # magnitudes n + 1/2
INTS = TangentialModel.arithmetic(1.0, 1.0)          # magnitudes n + 1
PAIR = TangentialModel.explicit([(1.0, 1), (2.0, 1)])


def brute_hurwitz(s, a, n=200_000):
    """Truncated direct sum plus integral tail; valid for Re s > 1."""
    head = math.fsum((k + a) ** (-s.real) for k in range(n)) if s.imag == 0 else None
    if head is None:
        head = sum((k + a) ** (-s) for k in range(n))
    w = n + a
    return head + w ** (1 - s) / (s - 1) + 0.5 * w ** (-s)


# -- log-gamma ---------------------------------------------------------------

def test_log_gamma_matches_lgamma_on_grid():
    for x in (0.01, 0.1, 0.5, 1.0, 1.5, 2.0, 4.2, 11.9, 25.0, 150.0):
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-12, abs=1e-13)


@given(st.floats(min_value=0.005, max_value=80.0))
@settings(max_examples=60, deadline=None)
def test_log_gamma_matches_lgamma_property(x):
    assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-12, abs=1e-12)


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-1.5)


# -- Hurwitz engine ----------------------------------------------------------

def test_hurwitz_convergent_region_vs_direct_sum():
    # pi^2/6 is the classical value at (2, 1); others against the truncated
    # sum with integral tail.
    assert hurwitz_zeta(2, 1).value.real == pytest.approx(math.pi**2 / 6, abs=1e-12)
    for s, a in ((complex(2.0), 0.5), (complex(3.7), 1.3), (complex(2.2, 1.1), 0.9)):
        ref = brute_hurwitz(s, a)
        got = hurwitz_zeta(s, a).value
        assert abs(got - ref) <= 1e-8 * abs(ref)


def test_hurwitz_zero_identity_grid():
    # zeta_H(0, a) = 1/2 - a
    for i in range(20):
        a = 0.1 + i * 0.1
        z = hurwitz_zeta(0, a)
        assert abs(z.value.real - (0.5 - a)) <= 1e-10
        assert abs(z.value.imag) <= z.est_error


def test_hurwitz_minus_one_identity_grid():
    # zeta_H(-1, a) = -(a^2 - a + 1/6)/2
    for i in range(20):
        a = 0.1 + i * 0.1
        z = hurwitz_zeta(-1, a)
        assert abs(z.value.real - (-(a * a - a + 1.0 / 6.0) / 2.0)) <= 1e-10
    assert hurwitz_zeta(-1, 1).value.real == pytest.approx(-1.0 / 12.0, abs=1e-12)


@given(st.floats(min_value=0.05, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_hurwitz_bernoulli_identities_property(a):
    # closed forms at non-positive integers: -B_{n+1}(a)/(n+1)
    b3 = a**3 - 1.5 * a**2 + 0.5 * a
    b4 = a**4 - 2.0 * a**3 + a**2 - 1.0 / 30.0
    assert hurwitz_zeta(0, a).value.real == pytest.approx(0.5 - a, abs=2e-11)
    assert hurwitz_zeta(-2, a).value.real == pytest.approx(-b3 / 3.0, abs=2e-11)
    assert hurwitz_zeta(-3, a).value.real == pytest.approx(-b4 / 4.0, abs=2e-11)


def test_hurwitz_pole_and_domain_errors():
    with pytest.raises(PoleError):
        hurwitz_zeta(1.0, 0.5)
    with pytest.raises(PoleError):
        hurwitz_zeta(1.0 + 1e-9, 0.5)
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, 0.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, -1.0)


def test_hurwitz_real_s_gives_real_value():
    for s in (-3.0, -1.5, 0.0, 0.5, 2.0, 7.0):
        z = hurwitz_zeta(s, 0.7)
        assert z.value.imag == 0.0
        assert z.est_error > 0.0


def test_hurwitz_zero_deriv_closed_forms():
    # log Gamma(a) - log(2 pi)/2 at a = 1, 1/2, 2
    assert hurwitz_zeta_zero_deriv(1.0) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-13)
    assert hurwitz_zeta_zero_deriv(0.5) == pytest.approx(-0.5 * math.log(2.0), abs=1e-13)
    assert hurwitz_zeta_zero_deriv(2.0) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-13)
    with pytest.raises(DomainError):
        hurwitz_zeta_zero_deriv(-0.2)


def central_sderiv(s, a, h=1e-3):
    """Richardson-extrapolated central difference of the engine in s."""
    f1 = (hurwitz_zeta(s + h, a).value - hurwitz_zeta(s - h, a).value) / (2 * h)
    f2 = (hurwitz_zeta(s + 2 * h, a).value - hurwitz_zeta(s - 2 * h, a).value) / (4 * h)
    return ((4.0 * f1 - f2) / 3.0).real


def test_sderiv_vs_finite_differences():
    for s, a in ((0.0, 0.5), (0.0, 1.0), (-1.0, 0.5), (-2.0, 0.3), (-3.0, 1.0)):
        d = hurwitz_zeta_sderiv(s, a).value.real
        assert d == pytest.approx(central_sderiv(s, a), abs=5e-9)


def test_sderiv_literature_values():
    # zeta'(-1) = 1/12 - log A (Glaisher-Kinkelin), zeta'(-2) = -zeta(3)/(4 pi^2)
    glaisher = 1.2824271291006226
    assert hurwitz_zeta_sderiv(-1, 1).value.real == pytest.approx(
        1.0 / 12.0 - math.log(glaisher), abs=1e-12)
    zeta3 = 1.2020569031595943
    assert hurwitz_zeta_sderiv(-2, 1).value.real == pytest.approx(
        -zeta3 / (4 * math.pi**2), abs=5e-12)
    # closed log-gamma route agrees with the Euler-Maclaurin derivative at 0
    for a in (0.25, 0.5, 1.0, 1.7):
        assert hurwitz_zeta_sderiv(0, a).value.real == pytest.approx(
            hurwitz_zeta_zero_deriv(a), abs=1e-12)


# -- model zeta functions ------------------------------------------------------

def test_zeta_sq_at_zero():
    assert zeta_sq(HALF, 0).value.real == pytest.approx(0.0, abs=1e-12)
    assert zeta_sq(INTS, 0).value.real == pytest.approx(-1.0, abs=1e-12)
    assert zeta_sq(PAIR, 0).value.real == pytest.approx(4.0, abs=1e-14)


def test_zeta_sq_convergent_region_vs_truncated_sum():
    for model in (HALF, INTS, TangentialModel.arithmetic(1.0, 1.0, (1, 1))):
        s = 2.0
        direct = 0.0
        n = 0
        while True:
            lam = model.d * (n + model.a)
            m = model.multiplicity(n)
            term = 2.0 * m * lam ** (-2 * s)
            direct += term
            n += 1
            if n > 100 and term < 1e-13 * direct:
                break
        # integral tail bound on the dropped part
        tail = 2.0 * model.multiplicity(n) * (model.d * (n + model.a)) ** (1 - 2 * s)
        got = zeta_sq(model, s).value.real
        assert abs(got - direct) <= max(tail, 1e-8 * abs(direct))


def test_zeta_sq_pole_for_poly_multiplicity():
    lin = TangentialModel.arithmetic(1.0, 1.0, (0, 1))
    with pytest.raises(PoleError):
        zeta_sq(lin, 1.0)  # 2s - 1 = 1 is the divergence of sum n * lam^-2s


def test_logdet_sq_values():
    assert logdet_sq(HALF) == pytest.approx(2 * math.log(2), abs=1e-12)
    assert logdet_sq(INTS) == pytest.approx(2 * math.log(2 * math.pi), abs=1e-12)
    assert logdet_sq(PAIR) == pytest.approx(math.log(16.0), abs=1e-12)


def test_logdet_explicit_equals_plain_sum():
    model = TangentialModel.explicit([(0.5, 2), (1.7, 1), (3.1, 3)])
    plain = math.fsum(2 * m * math.log(lam * lam) for lam, m in model.modes())
    assert abs(logdet_sq(model) - plain) <= 1e-12


def test_logdet_sq_finite_difference_oracle():
    # -zeta_sq'(0) against Richardson central differences of zeta_sq
    for model in (HALF, INTS, PAIR, TangentialModel.arithmetic(0.5, 2.0, (2,))):
        h = 1e-3
        f1 = (zeta_sq(model, h).value.real - zeta_sq(model, -h).value.real) / (2 * h)
        f2 = (zeta_sq(model, 2 * h).value.real - zeta_sq(model, -2 * h).value.real) / (4 * h)
        fd = (4.0 * f1 - f2) / 3.0
        assert logdet_sq(model) == pytest.approx(-fd, abs=5e-9)


def test_zeta_abs_values():
    assert zeta_abs(HALF, -1).value.real == pytest.approx(1.0 / 12.0, abs=1e-12)
    assert zeta_abs(PAIR, -1).value.real == pytest.approx(6.0, abs=1e-13)


def test_zeta_abs_is_zeta_sq_bit_identical():
    for model in (HALF, INTS, PAIR):
        for s in (-1.0, 0.0, 3.0, complex(1.0, 2.0)):
            assert zeta_abs(model, 2 * complex(s)).value == zeta_sq(model, s).value


def test_est_error_populated():
    vals = [zeta_sq(HALF, 0), zeta_abs(PAIR, -1), hurwitz_zeta(0, 0.5)]
    for z in vals:
        assert z.est_error > 0.0
    v, e = zeta_sq_deriv0(HALF)
    assert e > 0.0


# -- model structure and files -------------------------------------------------

def test_enumerate_modes_examples():
    lines = enumerate_modes(HALF, 2.0)
    assert [(l.lam, l.mult) for l in lines] == [(0.5, 1), (1.5, 1)]
    lines = enumerate_modes(PAIR, 1.5)
    assert [(l.lam, l.mult) for l in lines] == [(1.0, 1)]
    tri = TangentialModel.arithmetic(1.0, 1.0, (1, 1))
    lines = enumerate_modes(tri, 3.0)
    assert [(l.lam, l.mult) for l in lines] == [(1.0, 1), (2.0, 2), (3.0, 3)]


def test_model_validation():
    with pytest.raises(DomainError):
        TangentialModel.arithmetic(0.0, 1.0)
    with pytest.raises(DomainError):
        TangentialModel.arithmetic(1.5, 1.0)
    with pytest.raises(DomainError):
        TangentialModel.arithmetic(0.5, -1.0)
    with pytest.raises(DomainError):
        TangentialModel.arithmetic(0.5, 1.0, (0, 0))
    with pytest.raises(DomainError):
        TangentialModel.arithmetic(0.5, 1.0, (1, 0, 0, 0, 2))  # degree 4
    with pytest.raises(DomainError):
        TangentialModel.explicit([(0.0, 1)])
    with pytest.raises(DomainError):
        EigenLine(1.0, 0)


def test_model_json_round_trip(tmp_path):
    for model in (HALF, PAIR, TangentialModel.explicit([(1.0, 1)], kernel_dim=1)):
        data = model_to_json_dict(model)
        again = load_model(data)
        assert again == model
    path = tmp_path / "m.json"
    path.write_text('{"kind":"arithmetic","a":0.5,"d":1.0,"mult":[1],"kernel":0}')
    assert load_model(str(path)) == HALF
    path.write_text('{"kind":"explicit","lines":[[1.0,1],[2.0,1]],"kernel":0}')
    assert load_model(str(path)) == PAIR


def test_model_json_rejects_bad_input(tmp_path):
    with pytest.raises(DomainError):
        load_model('{"kind":"arithmetic","a":NaN,"d":1.0,"mult":[1],"kernel":0}')
    with pytest.raises(DomainError):
        load_model('{"kind":"weird"}')
    with pytest.raises(DomainError):
        load_model('{"no_kind": 1}')
    with pytest.raises(DomainError):
        load_model('not json at all')


def test_spectral_growth():
    assert HALF.spectral_growth == 1.0
    assert TangentialModel.arithmetic(1.0, 1.0, (1, 0, 1)).spectral_growth == 3.0
    assert PAIR.spectral_growth == 0.0
