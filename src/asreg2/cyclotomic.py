"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are represented as polynomials in zeta_n reduced modulo the n-th
cyclotomic polynomial Phi_n, i.e. inside Q[t]/(Phi_n), which is a field.
Mixed conductors are handled by embedding both operands into the lcm
conductor (zeta_m -> zeta_n^(n/m) for m | n), so conductors stay small.

A value is stored as integer numerators over one positive integer
denominator with no common factor, so the arithmetic runs on Python ints;
``Fraction`` appears only at the boundary (``coeffs``, ``rational_value``,
construction from a rational).  Phi_n is monic with integer coefficients,
so reduction mod Phi_n never leaves the integers.

Inverses come from the field norm: the product of x with its other Galois
conjugates x(zeta^k), gcd(k, n) = 1, is a nonzero rational N(x), so x^-1 is
the product of the other conjugates over N(x).  Each conjugate is a
permutation of the numerators followed by one reduction mod Phi_n, so
inversion is integer products and one rational reciprocal.

Division by zero raises ZeroDivisionError.  Values are immutable.  No
attempt is made to find the minimal conductor of a value beyond dropping
to Q when all zeta coordinates vanish; general number fields are out of
scope.
"""

from fractions import Fraction
from math import gcd, lcm

from .rationals import rat, rat_str


def _prime_divisors(n):
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


def euler_phi(n):
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result = n
    for p in _prime_divisors(n):
        result -= result // p
    return result


_phi_cache = {}


def cyclotomic_polynomial(n):
    """Phi_n as a tuple of ints, ascending, monic of degree phi(n)."""
    if n < 1:
        raise ValueError("cyclotomic_polynomial needs n >= 1")
    if n not in _phi_cache:
        # Phi_n = prod_{d | n} (t^d - 1)^mu(n/d); only squarefree n/d = s
        # count, with mu(s) = (-1)^(number of primes in s)
        factors = [(n, 1)]
        for p in _prime_divisors(n):
            factors += [(d // p, -mu) for d, mu in factors]
        poly = [1]
        for d, mu in factors:
            if mu == 1:  # times (t^d - 1)
                prod = [0] * (len(poly) + d)
                for k, c in enumerate(poly):
                    prod[k] -= c
                    prod[k + d] += c
                poly = prod
        for d, mu in factors:
            if mu == -1:  # exact division by (t^d - 1): q_k = q_{k-d} - p_k
                quo = []
                for k, c in enumerate(poly):
                    quo.append((quo[k - d] if k >= d else 0) - c)
                if any(quo[len(poly) - d:]):
                    raise ArithmeticError("Phi_%d: t^%d - 1 does not divide exactly" % (n, d))
                poly = quo[:len(poly) - d]
        _phi_cache[n] = tuple(poly)
    return _phi_cache[n]


def _reduce(n, num):
    """Reduce an integer coefficient list of any length mod Phi_n; a list of length phi(n)."""
    mod = cyclotomic_polynomial(n)
    phi_n = len(mod) - 1
    if len(num) <= phi_n:
        return num + [0] * (phi_n - len(num))
    tail = [(i, m) for i, m in enumerate(mod[:phi_n]) if m]
    # long division by the monic Phi_n, top coefficient first
    for k in range(len(num) - 1, phi_n - 1, -1):
        c = num[k]
        if c:
            base = k - phi_n
            for i, m in tail:
                num[base + i] -= c * m
    del num[phi_n:]
    return num


def _make(n, num, den):
    z = object.__new__(Cyclotomic)
    z.n = n
    z.num = num
    z.den = den
    return z


def _normal(n, num, den):
    """Lowest terms over den > 0, dropping to Q when every zeta coordinate vanishes."""
    g = gcd(den, *num)
    if g != 1:
        den //= g
        num = [x // g for x in num]
    if n > 1 and not any(num[1:]):
        return _make(1, (num[0],), den)
    return _make(n, tuple(num), den)


class Cyclotomic:
    """An element of Q(zeta_n): integer numerators mod Phi_n over one denominator.  Immutable."""

    __slots__ = ("n", "num", "den")

    def __init__(self, value=0):
        if isinstance(value, Cyclotomic):
            self.n, self.num, self.den = value.n, value.num, value.den
            return
        q = rat(value)
        self.n = 1
        self.num = (q.numerator,)
        self.den = q.denominator

    @property
    def conductor(self):
        return self.n

    @property
    def coeffs(self):
        return tuple(Fraction(x, self.den) for x in self.num)

    def _embed(self, m):
        """Embed into Q(zeta_m), n | m, via zeta_n -> zeta_m^(m/n); not normalised."""
        if m == self.n:
            return self
        step = m // self.n
        raised = [0] * ((len(self.num) - 1) * step + 1)
        for k, x in enumerate(self.num):
            raised[k * step] = x
        return _make(m, _reduce(m, raised), self.den)

    def _pair(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic(other)
        if self.n == other.n:
            return self, other
        m = lcm(self.n, other.n)
        return self._embed(m), other._embed(m)

    def __add__(self, other):
        a, b = self._pair(other)
        if a.den == b.den:
            return _normal(a.n, [x + y for x, y in zip(a.num, b.num)], a.den)
        den = lcm(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        return _normal(a.n, [x * fa + y * fb for x, y in zip(a.num, b.num)], den)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.n, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic(other)
        return self + (-other)

    def __rsub__(self, other):
        return Cyclotomic(other) - self

    def __mul__(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic(other)
        # scalar fast paths keep rational-by-cyclotomic products cheap
        if self.n == 1:
            s = self.num[0]
            return _normal(other.n, [s * x for x in other.num], self.den * other.den)
        if other.n == 1:
            s = other.num[0]
            return _normal(self.n, [s * x for x in self.num], self.den * other.den)
        a, b = self._pair(other)
        bnz = [(j, y) for j, y in enumerate(b.num) if y]
        conv = [0] * (len(a.num) + len(b.num) - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in bnz:
                    conv[i + j] += x * y
        return _normal(a.n, _reduce(a.n, conv), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_%d)" % self.n)
        if self.n == 1:
            x = self.num[0]
            return _make(1, (self.den if x > 0 else -self.den,), abs(x))
        # the norm route of the module docstring; x(zeta^k) moves numerator i to exponent i*k mod n
        n = self.n
        others = ONE
        for k in range(2, n):
            if gcd(k, n) == 1:
                raised = [0] * n
                for i, x in enumerate(self.num):
                    raised[i * k % n] = x
                others = others * _normal(n, _reduce(n, raised), self.den)
        norm = self * others
        if not norm.is_rational():
            raise ArithmeticError("norm of %s in Q(zeta_%d) is not rational" % (self, n))
        return others * norm.inverse()

    def __truediv__(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Cyclotomic(other) * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        if not k:
            return Cyclotomic(1)
        # square only while bits remain, and take the lowest set bit's power
        # as the first factor: at most 2*bit_length(k) - 2 products
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if self.n == other.n:  # the normal form is unique at one conductor
            return self.num == other.num and self.den == other.den
        # cross-multiply, so equality does not rest on embedding keeping lowest terms
        a, b = self._pair(other)
        return all(x * b.den == y * a.den for x, y in zip(a.num, b.num))

    __hash__ = None  # equal values may live at different conductors

    def is_zero(self):
        return not any(self.num)

    def is_one(self):
        return self.n == 1 and self.num[0] == 1 and self.den == 1

    def is_rational(self):
        return self.n == 1

    def rational_value(self):
        if self.n != 1:
            raise ValueError("not a rational value")
        return Fraction(self.num[0], self.den)

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, ck in enumerate(self.coeffs):
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

    __repr__ = __str__


def cyc(value):
    """Coerce ints, rationals and Cyclotomic values to Cyclotomic."""
    return value if isinstance(value, Cyclotomic) else Cyclotomic(value)


ZERO = Cyclotomic(0)
ONE = Cyclotomic(1)


def zeta(n, k=1):
    """zeta_n^k as a reduced Cyclotomic."""
    if n < 1:
        raise ValueError("conductor must be >= 1")
    k %= n
    return _normal(n, _reduce(n, [0] * k + [1]), 1)


def primitive_root(n):
    """A primitive n-th root of unity (zeta_n itself)."""
    return zeta(n)

