"""Normal-form arithmetic in S = k<x,y>/(f) for the two dimension-2 families.

A spec fixes coprime generator weights (w_x, w_y) and the relation family:

  quantum(alpha):  x*y = alpha * y*x          (alpha nonzero)
  jordan:          x*y = y*x + x^(q+1)        (w_x = 1, q = w_y)

The monomial basis is y^a x^b, written as pairs (a, b); every product is
rewritten to that normal form by moving x's rightward.  Rewriting is
degree preserving, so homogeneous inputs give homogeneous outputs.  The
x^b y^a normal forms are memoized per spec, keyed on (b, a).

SparseElement is the one kernel for elements of S, S*G, nabla(S) and
Lambda: a dict of basis keys to coefficients with a structure-constant
product.  Elements are immutable by convention; nothing here mutates term
dicts after construction, so values can be shared freely across threads.
"""

from dataclasses import dataclass, field
from math import gcd
from typing import NamedTuple

from .cyclotomic import Cyclotomic, ONE, cyc


class SpecError(ValueError):
    """Invalid algebra description; .code is one of 'gcd', 'alpha', 'jordan-weight'."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class Monomial(NamedTuple):
    a: int  # exponent of y
    b: int  # exponent of x


MONO_ONE = Monomial(0, 0)


@dataclass(eq=False)
class AlgebraSpec:
    w_x: int
    w_y: int
    family: str  # "quantum" | "jordan"
    alpha: Cyclotomic | None = None
    _memo: dict = field(default_factory=dict, repr=False)
    _alpha_powers: dict = field(default_factory=dict, repr=False)

    @property
    def ell(self):
        """Gorenstein parameter, the sum of the generator weights."""
        return self.w_x + self.w_y

    @property
    def q(self):
        return self.w_y

    def describe(self):
        if self.family == "quantum":
            return "quantum(alpha=%s), weights (%d, %d)" % (self.alpha, self.w_x, self.w_y)
        return "jordan(q=%d), weights (%d, %d)" % (self.q, self.w_x, self.w_y)

    def degree(self, mono):
        return mono[0] * self.w_y + mono[1] * self.w_x

    def alpha_power(self, k):
        pw = self._alpha_powers
        if k not in pw:
            pw[k] = self.alpha ** k
        return pw[k]


def quantum_spec(w_x, w_y, alpha):
    spec = AlgebraSpec(w_x, w_y, "quantum", cyc(alpha))
    validate_spec(spec)
    return spec


def jordan_spec(q):
    spec = AlgebraSpec(1, q, "jordan")
    validate_spec(spec)
    return spec


def validate_spec(spec):
    if spec.w_x < 1 or spec.w_y < 1:
        raise SpecError("gcd", "weights must be positive")
    if gcd(spec.w_x, spec.w_y) != 1:
        raise SpecError("gcd", "weights must be coprime, got (%d, %d)" % (spec.w_x, spec.w_y))
    if spec.family == "quantum":
        if spec.alpha is None or cyc(spec.alpha).is_zero():
            raise SpecError("alpha", "quantum family needs a nonzero alpha")
    elif spec.family == "jordan":
        if spec.w_x != 1:
            raise SpecError("jordan-weight", "jordan family needs w_x = 1")
    else:
        raise SpecError("gcd", "unknown family %r" % spec.family)
    return spec


def _xy_normal(spec, b, a):
    """Normal form of x^b * y^a as {Monomial: Cyclotomic}."""
    if b == 0 or a == 0:
        return {Monomial(a, b): ONE}
    if spec.family == "quantum":
        # moving each x past each y contributes one alpha
        return {Monomial(a, b): spec.alpha_power(a * b)}
    key = (b, a)
    memo = spec._memo
    hit = memo.get(key)
    if hit is not None:
        return hit
    q = spec.q
    out = {}
    if a == 1:
        if b == 1:
            # the single rewrite step x*y = y*x + x^(q+1)
            out = {Monomial(1, 1): ONE, Monomial(0, q + 1): ONE}
        else:
            # x^b y = x^(b-1) (x y) = (x^(b-1) y) x + x^(b-1) x^(q+1)
            for (aa, bb), c in _xy_normal(spec, b - 1, 1).items():
                _accumulate(out, Monomial(aa, bb + 1), c)
            _accumulate(out, Monomial(0, b + q), ONE)
    else:
        # peel one y: x^b y^a = (x^b y) y^(a-1)
        for (aa, bb), c in _xy_normal(spec, b, 1).items():
            for (a2, b2), c2 in _xy_normal(spec, bb, a - 1).items():
                _accumulate(out, Monomial(aa + a2, b2), c * c2)
    memo[key] = out
    return out


def _accumulate(terms, key, coeff):
    cur = terms.get(key)
    nxt = coeff if cur is None else cur + coeff
    if nxt.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = nxt


def monomial_product(spec, m1, m2):
    """Normal form of the product m1 * m2 of two monomials, {Monomial: coeff}."""
    (a1, b1), (a2, b2) = m1, m2
    return {Monomial(a1 + am, bm + b2): cm for (am, bm), cm in _xy_normal(spec, b1, a2).items()}


class SparseElement:
    """A finite k-linear combination of basis keys with exact coefficients.

    ctx is the algebra the element lives in (a spec or a group action).  A
    subclass fixes the basis with two static methods: _key(ctx, key)
    normalises a key, and _basis_mul(ctx, k1, k2) returns the product of two
    basis keys as {key: coeff} with nonzero coefficients ({} for zero).
    Every subclass shares this one product loop and its linear structure.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        clean = {}
        if terms:
            for k, c in terms.items():
                c = cyc(c)
                if not c.is_zero():
                    clean[self._key(ctx, k)] = c
        self.terms = clean

    @classmethod
    def zero(cls, ctx):
        return cls(ctx)

    def is_zero(self):
        return not self.terms

    def _wrap(self, terms):
        e = object.__new__(type(self))
        e.ctx = self.ctx
        e.terms = terms
        return e

    def scale(self, c):
        c = cyc(c)
        if c.is_zero():
            return self._wrap({})
        return self._wrap({k: c * v for k, v in self.terms.items()})

    def __add__(self, other):
        assert self.ctx is other.ctx
        out = dict(self.terms)
        for k, c in other.terms.items():
            _accumulate(out, k, c)
        return self._wrap(out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._wrap({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, SparseElement):
            return self.scale(other)
        ctx = self.ctx
        basis_mul = self._basis_mul
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                prod = basis_mul(ctx, k1, k2)
                if prod:
                    c = c1 * c2
                    for k, cm in prod.items():
                        _accumulate(out, k, c * cm)
        return self._wrap(out)

    __rmul__ = scale

    def __eq__(self, other):
        if not isinstance(other, SparseElement):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None


class AlgebraElement(SparseElement):
    """A finite k-linear combination of normal-form monomials y^a x^b."""

    __slots__ = ()

    @staticmethod
    def _key(spec, m):
        return Monomial(*m)

    _basis_mul = staticmethod(monomial_product)

    @staticmethod
    def one(spec):
        return AlgebraElement(spec, {MONO_ONE: ONE})

    @staticmethod
    def monomial(spec, mono, coeff=ONE):
        return AlgebraElement(spec, {mono: coeff})

    @staticmethod
    def gen_x(spec):
        return AlgebraElement(spec, {Monomial(0, 1): ONE})

    @staticmethod
    def gen_y(spec):
        return AlgebraElement(spec, {Monomial(1, 0): ONE})

    def coeff(self, mono):
        return self.terms.get(Monomial(*mono), Cyclotomic(0))

    def __pow__(self, k):
        out = AlgebraElement.one(self.ctx)
        for _ in range(k):
            out = out * self
        return out

    def degree(self):
        """Degree of a homogeneous element (None for 0, error if mixed)."""
        degs = {self.ctx.degree(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("element is not homogeneous: degrees %s" % sorted(degs))
        return degs.pop()

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms):
            c = self.terms[m]
            name = _mono_str(m)
            cs = str(c)
            if name == "1":
                bits.append(cs)
            elif cs == "1":
                bits.append(name)
            elif cs == "-1":
                bits.append("-" + name)
            elif " " in cs:
                bits.append("(%s)*%s" % (cs, name))
            else:
                bits.append("%s*%s" % (cs, name))
        return " + ".join(bits)

    __repr__ = __str__


def _mono_str(m):
    a, b = m
    if a == 0 and b == 0:
        return "1"
    parts = []
    if a:
        parts.append("y" if a == 1 else "y^%d" % a)
    if b:
        parts.append("x" if b == 1 else "x^%d" % b)
    return "*".join(parts)


def reduce_product(u, v, spec):
    """Product in S of elements u, v of spec, rewritten to the y^a x^b normal form."""
    return u * v


def graded_basis(spec, d):
    """All monomials of degree d, ordered lexicographically by (a, b)."""
    if d < 0:
        return []
    out = []
    for a in range(d // spec.w_y + 1):
        rest = d - a * spec.w_y
        if rest % spec.w_x == 0:
            out.append(Monomial(a, rest // spec.w_x))
    return out


def hilbert_dims(spec, D):
    """dim S_d for d = 0..D."""
    return [len(graded_basis(spec, d)) for d in range(D + 1)]


def veronese_dim(spec, r, shift, d):
    """dim of (S(shift)^(r))_d, i.e. dim S_(r*d + shift)."""
    if r < 1:
        raise ValueError("Veronese parameter must be >= 1")
    idx = r * d + shift
    if idx < 0:
        return 0
    return len(graded_basis(spec, idx))


def quasi_veronese_dim(spec, r, d):
    """dim of the r-th quasi-Veronese in degree d: sum of the r*r entry dims."""
    return sum(veronese_dim(spec, r, j - i, d) for i in range(r) for j in range(r))
