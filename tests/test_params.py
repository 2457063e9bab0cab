import math
import sys

import pytest

from dunkl import DunklParams


def test_constants_at_zero():
    p = DunklParams(0.0)
    assert p.c_kappa == pytest.approx(0.5)
    assert p.b_kappa == pytest.approx(0.5)


def test_classical_constants():
    p = DunklParams(-0.5, classical=True)
    assert p.c_kappa == pytest.approx(1.0 / math.sqrt(2.0 * math.pi))
    assert p.b_kappa == pytest.approx(math.sqrt(2.0 / math.pi))


@pytest.mark.parametrize("kappa", [-0.25, 0.0, 0.5, 1.5, 3.0])
def test_ball_constant_relation(kappa):
    p = DunklParams(kappa)
    assert p.c_kappa > 0
    assert p.b_kappa > 0
    assert p.b_kappa == pytest.approx(p.c_kappa / (kappa + 1.0), rel=1e-15)


def test_rejects_below_range():
    with pytest.raises(ValueError):
        DunklParams(-0.6)
    with pytest.raises(ValueError):
        DunklParams(float("nan"))


def test_classical_needs_flag():
    with pytest.raises(ValueError):
        DunklParams(-0.5)
    DunklParams(-0.5, classical=True)


@pytest.mark.parametrize("kappa", [-0.25, 0.0, 0.5, 1.5])
def test_classical_flag_only_at_minus_half(kappa):
    # the flag switches translation to the classical shift, which is wrong
    # anywhere but kappa = -1/2
    with pytest.raises(ValueError, match=f"kappa = {kappa}"):
        DunklParams(kappa, classical=True)


@pytest.mark.parametrize("kappa", [150.0, 171.0, 200.0, 1e6])
def test_rejects_a_kappa_whose_constants_leave_the_float_range(kappa):
    # b_kappa is subnormal at 150 and math.gamma overflows from 171 on;
    # either way the error names kappa
    with pytest.raises(ValueError, match=f"kappa = {kappa}"):
        DunklParams(kappa)


def test_largest_accepted_kappa_has_normal_constants():
    p = DunklParams(148.0)
    assert p.b_kappa >= sys.float_info.min
    assert p.c_kappa >= sys.float_info.min
