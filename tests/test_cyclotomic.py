import random

import pytest

from asreg2.rationals import RAT, R0
from asreg2.cyclotomic import (
    Cyclotomic,
    cyc,
    cyclotomic_polynomial,
    euler_phi,
    multiplicative_order,
    primitive_root,
    zeta,
)


def poly_mul(a, b):
    out = [R0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def poly_divide_exact(num, den):
    # independent long division used as the oracle for Phi_6
    num = list(num)
    dn = len(den) - 1
    quo = [R0] * (len(num) - dn)
    for k in range(len(num) - 1, dn - 1, -1):
        q = num[k] / den[-1]
        quo[k - dn] = q
        for i, d in enumerate(den):
            num[k - dn + i] -= q * d
    assert all(c == 0 for c in num)
    return quo


def test_euler_phi_small():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomial_trivial_cases():
    assert cyclotomic_polynomial(1) == (RAT(-1), RAT(1))
    assert cyclotomic_polynomial(4) == (RAT(1), RAT(0), RAT(1))


def test_cyclotomic_polynomial_rejects_nonpositive_n():
    for n in (0, -2):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(n)


def test_cyclotomic_polynomial_phi6_against_division_oracle():
    # Phi_6 = (t^6 - 1) / (Phi_1 * Phi_2 * Phi_3), computed here from scratch
    phi1 = [RAT(-1), RAT(1)]
    phi2 = poly_divide_exact([RAT(-1), RAT(0), RAT(1)], phi1)
    phi3 = poly_divide_exact([RAT(-1), RAT(0), RAT(0), RAT(1)], phi1)
    t6m1 = [RAT(-1)] + [RAT(0)] * 5 + [RAT(1)]
    expected = poly_divide_exact(t6m1, poly_mul(poly_mul(phi1, phi2), phi3))
    assert expected == [RAT(1), RAT(-1), RAT(1)]
    assert cyclotomic_polynomial(6) == tuple(expected)


def test_phi_relation_zeta3():
    z = zeta(3)
    assert (z * z + z + 1).is_zero()


def test_zeta4_squares_to_minus_one():
    i = zeta(4)
    assert i * i == -1


def test_inverse_of_zeta5():
    z = zeta(5)
    assert z.inverse() == z ** 4
    assert (z * z.inverse()).is_one()


def test_primitive_root_edge_cases():
    assert primitive_root(1).is_one()
    assert primitive_root(2) == -1


def test_primitive_root_order_by_repeated_multiplication():
    z = primitive_root(6)
    power = cyc(1)
    orders = []
    for k in range(1, 25):
        power = power * z
        if power.is_one():
            orders.append(k)
    assert orders == [6, 12, 18, 24]
    assert multiplicative_order(z) == 6


def test_root_of_unity_divisibility():
    for n in (1, 2, 3, 4, 5, 6, 8, 12):
        z = primitive_root(n)
        for k in range(1, 4 * n + 1):
            assert (z ** k).is_one() == (k % n == 0)


def test_division_by_zero_raises():
    try:
        cyc(1) / Cyclotomic(0)
    except ZeroDivisionError:
        pass
    else:
        raise AssertionError("expected ZeroDivisionError")


def test_mixed_conductor_arithmetic():
    # zeta_2 = -1 inside any even conductor
    assert zeta(2) == cyc(-1)
    assert zeta(6) ** 3 == -1
    assert zeta(12) ** 3 == zeta(4)
    v = zeta(3) + zeta(4)
    assert v - zeta(4) == zeta(3)


def test_field_axioms_randomized():
    rng = random.Random(20240)
    pool = [cyc(0), cyc(1), cyc(-2), cyc(RAT(1, 2)), zeta(3), zeta(4), zeta(6),
            zeta(3) + 1, zeta(4) - zeta(3), cyc(RAT(-3, 5)) * zeta(6)]
    for _ in range(150):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert (a * a.inverse()).is_one()


def test_reduction_is_canonical_regardless_of_operation_order():
    z = zeta(5)
    phi_at_z = sum((c * z ** k for k, c in enumerate(cyclotomic_polynomial(5))), cyc(0))
    assert phi_at_z.is_zero()
    a = (z + 1) * (z - 1)
    b = z * z - 1
    assert a == b
    assert ((z ** 7) * (z ** 9)) == z ** 16 == z


def test_str_is_deterministic():
    v = cyc(RAT(2, 3)) - zeta(5) + cyc(2) * zeta(5) ** 3
    assert str(v) == "2/3 - zeta(5) + 2*zeta(5)^3"
    assert str(cyc(0)) == "0"
    assert str(zeta(2)) == "-1"
