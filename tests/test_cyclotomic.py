import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import asreg2.cyclotomic
from asreg2.rationals import RAT, R0, R1, rat, rat_str
from asreg2.cyclotomic import (
    Cyclotomic,
    cyc,
    cyclotomic_polynomial,
    euler_phi,
    primitive_root,
    zeta,
)


def poly_mul(a, b):
    out = [R0] * (len(a) + len(b) - 1)
    bnz = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in bnz:
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


def multiplicative_order(z, bound=None):
    """Smallest k >= 1 with z^k = 1, or None if none up to the bound."""
    if bound is None:
        bound = 4 * max(z.conductor, 1)
    power = cyc(1)
    for k in range(1, bound + 1):
        power = power * z
        if power.is_one():
            return k
    return None


# --- oracle: Q(zeta_n) as a tuple of Fractions, the library's former kernel ---

_oracle_phi_cache = {}


def oracle_cyclotomic_polynomial(n):
    """Phi_n = (t^n - 1) / prod_{d | n, d < n} Phi_d, as Fractions."""
    if n not in _oracle_phi_cache:
        num = [-R1] + [R0] * (n - 1) + [R1]
        den = [R1]
        for d in range(1, n):
            if n % d == 0:
                den = poly_mul(den, oracle_cyclotomic_polynomial(d))
        quo, rem = _poly_divmod(num, den)
        assert not any(rem)
        _oracle_phi_cache[n] = tuple(quo)
    return _oracle_phi_cache[n]


def _poly_divmod(num, den):
    num = list(num)
    while num and num[-1] == 0:
        num.pop()
    den = list(den)
    while den and den[-1] == 0:
        den.pop()
    dn = len(den) - 1
    if len(num) - 1 < dn:
        return [R0], num or [R0]
    quo = [R0] * (len(num) - dn)
    for k in range(len(num) - 1, dn - 1, -1):
        q = num[k] / den[-1]
        quo[k - dn] = q
        for i, d in enumerate(den):
            num[k - dn + i] -= q * d
    rem = num[:dn]
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem or [R0]


def _poly_sub(a, b):
    out = list(a) + [R0] * max(0, len(b) - len(a))
    for i, bi in enumerate(b):
        out[i] -= bi
    return out


def _reduce_coeffs(n, coeffs):
    """Reduce a coefficient list of any length mod Phi_n; a tuple of length phi(n)."""
    mod = oracle_cyclotomic_polynomial(n)
    phi_n = len(mod) - 1
    work = list(coeffs) + [R0] * (phi_n - len(coeffs))
    tail = [(i, m) for i, m in enumerate(mod[:phi_n]) if m]
    for k in range(len(work) - 1, phi_n - 1, -1):
        c = work[k]
        if c:
            for i, m in tail:
                work[k - phi_n + i] -= c * m
    return tuple(work[:phi_n])


class OracleCyclotomic:
    """An element of Q(zeta_n) as a tuple of Fractions reduced mod Phi_n."""

    def __init__(self, n, coeffs):
        # drop to Q when every zeta coordinate vanishes, as the library does
        if n > 1 and not any(coeffs[1:]):
            n, coeffs = 1, coeffs[:1]
        self.n, self.c = n, tuple(coeffs)

    @classmethod
    def of(cls, value):
        return value if isinstance(value, cls) else cls(1, (rat(value),))

    @classmethod
    def from_terms(cls, n, terms):
        """sum of c * zeta_n^k over the (k, c) pairs."""
        coeffs = [R0] * n
        for k, c in terms:
            coeffs[k % n] += rat(c)
        return cls(n, _reduce_coeffs(n, coeffs))

    def _embed(self, m):
        step = m // self.n
        raised = [R0] * ((len(self.c) - 1) * step + 1)
        for k, ck in enumerate(self.c):
            raised[k * step] = ck
        return _reduce_coeffs(m, raised)

    def _pair(self, other):
        other = OracleCyclotomic.of(other)
        m = self.n * other.n // gcd(self.n, other.n)
        return m, self._embed(m), other._embed(m)

    def __add__(self, other):
        m, a, b = self._pair(other)
        return OracleCyclotomic(m, tuple(x + y for x, y in zip(a, b)))

    def __neg__(self):
        return OracleCyclotomic(self.n, tuple(-x for x in self.c))

    def __sub__(self, other):
        return self + (-OracleCyclotomic.of(other))

    def __mul__(self, other):
        m, a, b = self._pair(other)
        return OracleCyclotomic(m, _reduce_coeffs(m, poly_mul(a, b)))

    def inverse(self):
        assert not self.is_zero()
        # extended Euclid in Q[t]: u*self + v*Phi_n = 1
        r0, r1 = list(oracle_cyclotomic_polynomial(self.n)), list(self.c)
        s0, s1 = [R0], [R1]
        while any(x != 0 for x in r1):
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, poly_mul(q, s1))
        lead = next(x for x in r0 if x != 0)
        return OracleCyclotomic(self.n, _reduce_coeffs(self.n, [x / lead for x in s0]))

    def __eq__(self, other):
        _, a, b = self._pair(other)
        return a == b

    def is_zero(self):
        return all(x == 0 for x in self.c)

    def is_one(self):
        return self.c[0] == 1 and all(x == 0 for x in self.c[1:])

    def rational_value(self):
        assert self.n == 1
        return self.c[0]

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, ck in enumerate(self.c):
            if ck == 0:
                continue
            if k == 0:
                parts.append(rat_str(ck))
                continue
            zk = "zeta(%d)" % self.n if k == 1 else "zeta(%d)^%d" % (self.n, k)
            if ck == 1:
                term = zk
            elif ck == -1:
                term = "-" + zk
            else:
                term = rat_str(ck) + "*" + zk
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        return out


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


def test_pow_equals_repeated_products_with_few_squarings(monkeypatch):
    # square-and-multiply squares only while bits of k remain and starts
    # from the lowest set bit's power: bit_length(k) - 1 squarings and
    # bit_count(k) - 1 products, so at most 2*bit_length(k) - 1, none for k = 0
    real_mul = Cyclotomic.__mul__
    calls = []

    def counted(self, other):
        calls.append(None)
        return real_mul(self, other)

    for n in (1, 3, 5, 12):
        base = zeta(n) * 2 - cyc(RAT(1, 3))
        expected = cyc(1)
        for k in range(21):
            calls.clear()
            monkeypatch.setattr(Cyclotomic, "__mul__", counted)
            power = base ** k
            monkeypatch.undo()
            assert len(calls) <= max(0, 2 * k.bit_length() - 1), (n, k, len(calls))
            assert len(calls) == (k.bit_length() + k.bit_count() - 2 if k else 0), (n, k, len(calls))
            assert (power.conductor, power.num, power.den) == (
                expected.conductor, expected.num, expected.den), (n, k)
            expected = expected * base


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


# --- the integer kernel against the Fraction-tuple oracle ---

CONDUCTORS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 20, 21, 35)


def build(n, terms):
    """The library value and the oracle value of sum c * zeta_n^k over (k, c)."""
    value = sum((cyc(c) * zeta(n, k) for k, c in terms), cyc(0))
    return value, OracleCyclotomic.from_terms(n, terms)


def oracle_zeta(n):
    return OracleCyclotomic.from_terms(n, [(1, 1)])


def assert_same(z, o):
    assert z.conductor == o.n
    assert z.coeffs == o.c
    assert all(type(c) is Fraction for c in z.coeffs)
    # normal form: integer numerators over one positive denominator, lowest terms
    assert z.den > 0 and gcd(z.den, *z.num) == 1
    assert len(z.num) == euler_phi(z.conductor)


def assert_ops_match_oracle(a, oa, b, ob):
    assert_same(a, oa)
    assert_same(b, ob)
    assert_same(a + b, oa + ob)
    assert_same(a - b, oa - ob)
    assert_same(a * b, oa * ob)
    assert_same(-a, -oa)
    assert (a == b) == (oa == ob)
    assert (b == a) == (ob == oa)
    assert str(a) == str(oa)
    assert a.is_one() == oa.is_one()
    assert a.is_zero() == oa.is_zero()
    if a.is_rational():
        assert a.rational_value() == oa.rational_value()
    if not a.is_zero():
        inv, oinv = a.inverse(), oa.inverse()
        assert_same(inv, oinv)
        assert_same(b / a, ob * oinv)
        assert (a * inv).is_one() and (oa * oinv).is_one()


def test_cyclotomic_polynomial_matches_old_construction():
    for n in range(1, 121):
        phi = cyclotomic_polynomial(n)
        assert all(type(c) is int for c in phi)
        assert phi == oracle_cyclotomic_polynomial(n)
    assert len(cyclotomic_polynomial(5040)) == euler_phi(5040) + 1


def test_kernel_matches_oracle_sweep():
    rng = random.Random(60606)

    def random_terms(n):
        return [(rng.randrange(n), RAT(rng.randrange(-12, 13), rng.randrange(1, 7)))
                for _ in range(rng.randrange(0, 5))]

    for _ in range(300):
        a, oa = build(rng.choice(CONDUCTORS), random_terms(rng.choice(CONDUCTORS)))
        if rng.random() < 0.25:
            # the same value re-embedded at a larger conductor
            m = rng.choice(CONDUCTORS)
            b, ob = (a + zeta(m)) - zeta(m), (oa + oracle_zeta(m)) - oracle_zeta(m)
        else:
            b, ob = build(rng.choice(CONDUCTORS), random_terms(rng.choice(CONDUCTORS)))
        assert_ops_match_oracle(a, oa, b, ob)


TERMS = st.lists(st.tuples(st.integers(0, 19), st.builds(RAT, st.integers(-12, 12), st.integers(1, 8))), max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CONDUCTORS), TERMS, st.sampled_from(CONDUCTORS), TERMS,
       st.sampled_from(CONDUCTORS) | st.none())
def test_kernel_matches_oracle_property(n, terms_a, m, terms_b, embed):
    a, oa = build(n, terms_a)
    if embed is None:
        b, ob = build(m, terms_b)
    else:
        b, ob = (a + zeta(embed)) - zeta(embed), (oa + oracle_zeta(embed)) - oracle_zeta(embed)
    assert_ops_match_oracle(a, oa, b, ob)


def test_normal_form():
    assert zeta(3) == zeta(6) ** 2
    assert zeta(6) ** 2 == zeta(3)
    # one value, built at conductor 3 and at conductor 15
    at3 = cyc(RAT(2, 3)) + cyc(RAT(-5, 2)) * zeta(3) + cyc(4) * zeta(3, 2)
    at15 = cyc(RAT(2, 3)) + cyc(RAT(-5, 2)) * zeta(15, 5) + cyc(4) * zeta(15, 10)
    assert (at3.conductor, at15.conductor) == (3, 15)
    assert at3 == at15 and at15 == at3
    assert at3 != at15 + zeta(15)
    i2 = zeta(4) * zeta(4)
    assert i2.conductor == 1 and i2 == -1
    assert Cyclotomic(RAT(2, 4)).coeffs == (RAT(1, 2),)
    for zero in (Cyclotomic(0), zeta(5) - zeta(5), cyc(RAT(3, 7)) * zeta(12) * 0):
        assert zero.coeffs == (0,) and zero.conductor == 1 and zero.is_zero()
    for value in (cyc(-2).inverse(), cyc(RAT(-3, 4)) * zeta(5), (zeta(5) - 2).inverse(),
                  -zeta(12) / 6, cyc(RAT(1, 3)) - cyc(RAT(1, 2))):
        assert value.den > 0
        assert gcd(value.den, *value.num) == 1


def test_inverse_forms_no_fraction(monkeypatch):
    # the norm route inverts with integer products and one rational
    # reciprocal, on sparse and dense values alike
    rng = random.Random(3535)
    cases = []
    for n in range(3, 36):
        dense = [(k, RAT(rng.randrange(-9, 10), rng.randrange(1, 5))) for k in range(euler_phi(n))]
        for terms in ([(1, 1), (0, -2)], [(rng.randrange(n), rng.randrange(1, 6)) for _ in range(3)], dense):
            value, oracle = build(n, terms)
            if not oracle.is_zero():
                cases.append((value, oracle))

    def no_fraction(*args):
        raise AssertionError("inverse formed a Fraction")

    monkeypatch.setattr(asreg2.cyclotomic, "Fraction", no_fraction)
    inverses = [value.inverse() for value, _ in cases]
    monkeypatch.undo()
    assert len(cases) > 90
    for inv, (_, oracle) in zip(inverses, cases):
        assert_same(inv, oracle.inverse())
