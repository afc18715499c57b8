"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are represented as polynomials in zeta_n reduced modulo the n-th
cyclotomic polynomial Phi_n, i.e. inside Q[t]/(Phi_n), which is a field.
Mixed conductors are handled by embedding both operands into the lcm
conductor (zeta_m -> zeta_n^(n/m) for m | n), so conductors stay small.

Division by zero raises ZeroDivisionError.  Values are immutable.  No
attempt is made to find the minimal conductor of a value beyond dropping
to Q when all zeta coordinates vanish; general number fields are out of
scope.
"""

from fractions import Fraction
from math import gcd

from .rationals import R0, R1, rat, rat_str


def euler_phi(n):
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


_phi_cache = {}


def cyclotomic_polynomial(n):
    """Phi_n as a tuple of rationals, ascending, monic of degree phi(n)."""
    if n < 1:
        raise ValueError("cyclotomic_polynomial needs n >= 1")
    if n not in _phi_cache:
        # Phi_n = (t^n - 1) / prod_{d | n, d < n} Phi_d; the divisor is monic
        num = [-R1] + [R0] * (n - 1) + [R1]
        den = [R1]
        for d in range(1, n):
            if n % d == 0:
                den = _poly_mul(den, cyclotomic_polynomial(d))
        quo, rem = _poly_divmod(num, den)
        if any(rem):
            raise ArithmeticError("t^%d - 1 is not divisible by its proper cyclotomic factors" % n)
        _phi_cache[n] = tuple(quo)
    return _phi_cache[n]


def _reduce_coeffs(n, coeffs):
    """Reduce a coefficient list of any length mod Phi_n; a tuple of length phi(n)."""
    mod = cyclotomic_polynomial(n)
    phi_n = len(mod) - 1
    work = list(coeffs) + [R0] * (phi_n - len(coeffs))
    # long division by the monic Phi_n, top coefficient first
    for k in range(len(work) - 1, phi_n - 1, -1):
        c = work[k]
        if c == 0:
            continue
        for i in range(phi_n):
            if mod[i]:
                work[k - phi_n + i] -= c * mod[i]
    return tuple(work[:phi_n])


class Cyclotomic:
    """An element of Q(zeta_n), reduced mod Phi_n.  Immutable."""

    __slots__ = ("n", "c")

    def __init__(self, value=0):
        if isinstance(value, Cyclotomic):
            self.n = value.n
            self.c = value.c
            return
        self.n = 1
        self.c = (rat(value),)

    @staticmethod
    def _raw(n, coeffs):
        z = Cyclotomic.__new__(Cyclotomic)
        if n > 1 and all(coeffs[i] == 0 for i in range(1, len(coeffs))):
            z.n = 1
            z.c = (coeffs[0],)
        else:
            z.n = n
            z.c = coeffs
        return z

    @staticmethod
    def _full(n, coeffs):
        # like _raw but keeps the stated conductor; only _pair uses it so
        # that both operands have coefficient vectors of equal length
        z = Cyclotomic.__new__(Cyclotomic)
        z.n = n
        z.c = coeffs
        return z

    @property
    def conductor(self):
        return self.n

    @property
    def coeffs(self):
        return self.c

    def _embed(self, m):
        """Embed into Q(zeta_m), n | m, via zeta_n -> zeta_m^(m/n)."""
        if m == self.n:
            phi_m = euler_phi(m)
            if len(self.c) == phi_m:
                return self
            return Cyclotomic._full(m, self.c + (R0,) * (phi_m - len(self.c)))
        step = m // self.n
        raised = [R0] * ((len(self.c) - 1) * step + 1)
        for k, ck in enumerate(self.c):
            raised[k * step] = ck
        return Cyclotomic._full(m, _reduce_coeffs(m, raised))

    def _pair(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic(other)
        if self.n == other.n:
            return self, other
        m = self.n * other.n // gcd(self.n, other.n)
        return self._embed(m), other._embed(m)

    def __add__(self, other):
        a, b = self._pair(other)
        return Cyclotomic._raw(a.n, tuple(x + y for x, y in zip(a.c, b.c)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._raw(self.n, tuple(-x for x in self.c))

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
            s = self.c[0]
            return Cyclotomic._raw(other.n, tuple(s * x for x in other.c))
        if other.n == 1:
            s = other.c[0]
            return Cyclotomic._raw(self.n, tuple(s * x for x in self.c))
        a, b = self._pair(other)
        la, lb = len(a.c), len(b.c)
        conv = [R0] * (la + lb - 1)
        for i, ai in enumerate(a.c):
            if ai != 0:
                for j, bj in enumerate(b.c):
                    if bj != 0:
                        conv[i + j] += ai * bj
        return Cyclotomic._raw(a.n, _reduce_coeffs(a.n, conv))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_%d)" % self.n)
        if self.n == 1:
            return Cyclotomic._raw(1, (R1 / self.c[0],))
        # extended Euclid in Q[t]: u*self + v*Phi_n = 1
        r0, r1 = list(cyclotomic_polynomial(self.n)), list(self.c)
        s0, s1 = [R0], [R1]
        while any(x != 0 for x in r1):
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        # r0 is a nonzero constant gcd (Phi_n is irreducible)
        lead = next(x for x in r0 if x != 0)
        inv = [x / lead for x in s0]
        return Cyclotomic._raw(self.n, _reduce_coeffs(self.n, inv))

    def __truediv__(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Cyclotomic(other) * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = Cyclotomic(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._pair(other)
        return a.c == b.c

    __hash__ = None  # equal values may live at different conductors

    def is_zero(self):
        return all(x == 0 for x in self.c)

    def is_one(self):
        return self.c[0] == 1 and all(x == 0 for x in self.c[1:])

    def is_rational(self):
        return self.n == 1

    def rational_value(self):
        if self.n != 1:
            raise ValueError("not a rational value")
        return self.c[0]

    def __bool__(self):
        return not self.is_zero()

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
    coeffs = [R0] * (k + 1)
    coeffs[k] = R1
    return Cyclotomic._raw(n, _reduce_coeffs(n, coeffs))


def primitive_root(n):
    """A primitive n-th root of unity (zeta_n itself)."""
    return zeta(n)


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


def _poly_divmod(num, den):
    num = list(num)
    while num and num[-1] == 0:
        num.pop()
    den = list(den)
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    dn = len(den) - 1
    lead = den[-1]
    if len(num) - 1 < dn:
        return [R0], num or [R0]
    quo = [R0] * (len(num) - dn)
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k]
        if c == 0:
            continue
        q = c / lead
        quo[k - dn] = q
        for i, d in enumerate(den):
            num[k - dn + i] -= q * d
    rem = num[:dn]
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem or [R0]


def _poly_mul(a, b):
    out = [R0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai != 0:
            for j, bj in enumerate(b):
                if bj != 0:
                    out[i + j] += ai * bj
    return out


def _poly_sub(a, b):
    out = list(a) + [R0] * max(0, len(b) - len(a))
    for i, bi in enumerate(b):
        out[i] -= bi
    return out
