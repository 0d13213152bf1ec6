import math

import pytest

from cylzeta import DomainError, TangentialModel
from cylzeta.cylinder_dets import (
    DD,
    D_PLT,
    D_ROBIN,
    PGE_D,
    PGT_D,
    CylinderBC,
    cylinder_logdet,
    explicit_mode_sum,
    gluing_identity_residual,
    mode_bc_projection,
    parse_bc,
)
from cylzeta.asymptotics import make_ray, shifted_robin_logdet
from cylzeta.gluing import robin_dtn_logdet
from cylzeta.mode_problems import ModeBC
from cylzeta.spectral_models import zeta_abs

HALF = TangentialModel.arithmetic(0.5, 1.0)
PAIR = TangentialModel.explicit([(1.0, 1)])
TWO = TangentialModel.explicit([(1.0, 1), (2.0, 1)])
KER = TangentialModel.explicit([(1.0, 1)], kernel_dim=1)
ALL_BCS = (DD, D_PLT, PGE_D, PGT_D, D_ROBIN)


# -- projections ----------------------------------------------------------------

def test_mode_bc_projection_examples():
    assert mode_bc_projection(D_PLT, -1.0) is ModeBC.DIRICHLET
    assert mode_bc_projection(D_PLT, 1.0) is ModeBC.ROBIN_ABS
    assert mode_bc_projection(D_PLT, 0.0) is ModeBC.NEUMANN
    assert mode_bc_projection(PGE_D, 0.0) is ModeBC.DIRICHLET
    assert mode_bc_projection(PGE_D, -2.0) is ModeBC.ROBIN_ABS
    assert mode_bc_projection(PGE_D, 2.0) is ModeBC.DIRICHLET
    assert mode_bc_projection(PGT_D, 0.0) is ModeBC.NEUMANN
    assert mode_bc_projection(DD, 1.0) is ModeBC.DIRICHLET
    assert mode_bc_projection(D_ROBIN, 0.0) is ModeBC.NEUMANN


def test_bc_validation_and_parse():
    with pytest.raises(DomainError):
        CylinderBC("P<", "P>")
    with pytest.raises(DomainError):
        CylinderBC("D", "X")
    assert parse_bc("D,P<") == D_PLT
    assert parse_bc(" P>= , D ") == PGE_D
    with pytest.raises(DomainError):
        parse_bc("D")


# -- assemblies -----------------------------------------------------------------

def test_explicit_model_values():
    # two modes of magnitude 1: both ends Dirichlet
    got = cylinder_logdet(PAIR, 1.0, DD).value.real
    assert got == pytest.approx(2.0 * math.log(2.0 * math.sinh(1.0)), abs=1e-12)
    # negative mode Dirichlet-type, positive mode Robin-type
    got = cylinder_logdet(PAIR, 1.0, D_PLT).value.real
    assert got == pytest.approx(math.log(2.0 * math.sinh(1.0)) + 1.0 + math.log(2.0),
                                abs=1e-12)


def test_route_independence_for_finite_models():
    for model in (PAIR, TWO, KER):
        for bc in ALL_BCS:
            for r in (0.5, 1.0, 2.0):
                assembled = cylinder_logdet(model, r, bc).value.real
                plain = explicit_mode_sum(model, r, bc)
                assert abs(assembled - plain) <= 1e-12


def test_explicit_mode_sum_rejects_infinite_models():
    with pytest.raises(DomainError):
        explicit_mode_sum(HALF, 1.0, DD)


def test_mirror_symmetry_trivial_kernel():
    for model in (HALF, PAIR, TWO):
        for r in (0.5, 1.0, 2.0):
            left = cylinder_logdet(model, r, D_PLT).value.real
            right = cylinder_logdet(model, r, PGE_D).value.real
            assert abs(left - right) <= 1e-12


def test_kernel_breaks_mirror_by_log_r():
    # Neumann (log 2) vs Dirichlet (log 2r) on the kernel mode
    r = 3.0
    gap = cylinder_logdet(KER, r, PGE_D).value.real - cylinder_logdet(KER, r, D_PLT).value.real
    assert gap == pytest.approx(math.log(r), abs=1e-12)


def test_arithmetic_dd_assembly_pieces():
    # r * zeta_abs(-1) - logdet/2 + tail; for magnitudes n + 1/2 the pieces
    # are 1/12 and log 2
    r = 1.0
    reg = cylinder_logdet(HALF, r, DD)
    coeff, z1 = reg.pieces["linear_in_r"]
    assert coeff == r
    assert z1 == pytest.approx(1.0 / 12.0, abs=1e-12)
    coeff, dz = reg.pieces["log_part"]
    assert coeff == 0.5
    assert dz == pytest.approx(-2.0 * math.log(2.0), abs=1e-12)
    assert abs(reg.value - reg.recombine()) == 0.0


def test_derived_rows_match_the_docstring_table():
    # (log_part, count_part, convergent_tail, kernel value) per boundary pair,
    # as tabulated in the cylinder_dets module docstring; None for no piece
    r = 0.7
    log2 = math.log(2.0)
    table = {
        DD: (0.5, 0.0, 1.0, math.log(2.0 * r)),
        D_PLT: (0.25, 0.5 * log2, 0.5, log2),
        PGE_D: (0.25, 0.5 * log2, 0.5, math.log(2.0 * r)),
        PGT_D: (0.25, 0.5 * log2, 0.5, log2),
        D_ROBIN: (0.0, log2, None, log2),
    }
    model = TangentialModel.arithmetic(0.5, 1.0, kernel_dim=2)
    for bc, (log_c, count_c, tail_c, kernel_value) in table.items():
        pieces = cylinder_logdet(model, r, bc).pieces
        assert pieces["linear_in_r"][0] == r
        assert pieces["log_part"][0] == log_c
        assert pieces["count_part"][0] == count_c
        if tail_c is None:
            assert "convergent_tail" not in pieces
        else:
            assert pieces["convergent_tail"][0] == tail_c
        assert pieces["kernel_part"] == (2.0, kernel_value)
    robin = robin_dtn_logdet(model, r)
    assert "linear_in_r" not in robin.pieces
    assert robin.recombine() == robin.value
    shifted = shifted_robin_logdet(model, r, make_ray(4, 1), 1e3)
    assert abs(shifted.recombine() - shifted.value) <= 1e-13


def test_robin_route_consistency():
    # (D, RobinAbsB) assembly equals (D, D) plus the Robin-map determinant
    for model in (HALF, TWO, KER):
        for r in (0.5, 1.0, 4.0):
            lhs = cylinder_logdet(model, r, D_ROBIN).value.real
            rhs = cylinder_logdet(model, r, DD).value.real + robin_dtn_logdet(
                model, r).value.real
            assert abs(lhs - rhs) <= 1e-12


def test_gluing_identity_residual_grid():
    for r in (0.5, 1.0, 2.0, 4.0):
        assert abs(gluing_identity_residual(HALF, r)) <= 1e-8
    for model in (PAIR, TWO, KER):
        assert abs(gluing_identity_residual(model, 1.0)) <= 1e-10


def test_gluing_identity_residual_no_constant_offset():
    # a nonzero additive constant would show up identically at every r
    residuals = [gluing_identity_residual(HALF, r) for r in (0.5, 1.0, 2.0, 4.0)]
    assert max(abs(x) for x in residuals) <= 1e-8


def test_gluing_identity_kernel_bookkeeping():
    # hand-assembled three-mode computation: Neumann log 2, Dirichlet log 2r,
    # Robin-map kernel value log(1/r)
    r = 1.3
    sinh_part = math.log(2.0 * math.sinh(r))
    lhs = (
        (sinh_part + (math.log(2.0) + r) + math.log(2.0))
        + ((math.log(2.0) + r) + sinh_part + math.log(2.0 * r))
        - 2.0 * (2.0 * sinh_part + math.log(2.0 * r))
    )
    rhs = 2.0 * math.log(2.0 / (1.0 - math.exp(-2.0 * r))) + math.log(1.0 / r)
    hand = lhs - rhs
    assert hand == pytest.approx(0.0, abs=1e-12)
    assert gluing_identity_residual(KER, r) == pytest.approx(hand, abs=1e-10)


def test_ddr_consistency():
    # d/dr of the (D,D) assembly: zeta_abs(-1) + sum m 2 lam e^(-2 lam r)
    # / (1 - e^(-2 lam r)) + k/r
    def formula(model, r):
        s = 0.0
        for lam, m in model.modes(max_count=400,
                                  lam_max=math.inf if model.is_finite else None):
            x = math.exp(-2.0 * lam * r)
            s += 2.0 * m * 2.0 * lam * x / (1.0 - x)
        return zeta_abs(model, -1.0).value.real + s + model.kernel_dim / r

    for model in (HALF, TWO, KER):
        r, h = 1.0, 1e-5
        fd = (cylinder_logdet(model, r + h, DD).value.real
              - cylinder_logdet(model, r - h, DD).value.real) / (2.0 * h)
        assert fd == pytest.approx(formula(model, r), abs=1e-6)


def test_regscalar_reporting():
    reg = cylinder_logdet(HALF, 1.0, D_PLT)
    assert reg.est_error > 0.0
    assert abs(reg.value - reg.recombine()) <= 1e-13
    data = reg.to_json_dict()
    assert set(data) == {"value", "pieces", "est_error"}
    assert set(data["pieces"]) == {
        "linear_in_r", "log_part", "count_part", "convergent_tail", "kernel_part"}


def test_cylinder_logdet_rejects_bad_r():
    with pytest.raises(DomainError):
        cylinder_logdet(HALF, 0.0, DD)
