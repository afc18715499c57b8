"""Normal-form arithmetic in S = k<x,y>/(f) for the two dimension-2 families.

A spec fixes coprime generator weights (w_x, w_y) and the relation family:

  quantum(alpha):  x*y = alpha * y*x          (alpha nonzero)
  jordan:          x*y = y*x + x^(q+1)        (w_x = 1, q = w_y)

The monomial basis is y^a x^b, written as the plain pair (a, b) of
exponents, a tuple and no class of its own; monomial_product puts every
product in that normal form by a closed form.  It is degree preserving,
so homogeneous inputs give homogeneous outputs.

Memos live on the spec, so each spec object (one per CLI job) computes a
piece of work once and nothing leaks between specs: the monomial products
keyed on (m1, m2) and the graded bases keyed on the degree.  Product dicts
are shared from the memo and never mutated; graded_basis hands out a fresh
list per call.

SparseElement is the one kernel for elements of S (AlgebraElement) and of
Lambda (beilinson.LambdaElement), and for the tests' element classes of
S*G and nabla(S): a dict of basis keys to coefficients with a
structure-constant product.  Elements are immutable by convention; nothing
here mutates term dicts after construction, so values can be shared freely
across threads.
"""

from dataclasses import dataclass, field
from math import gcd

from .cyclotomic import Cyclotomic, ONE, cyc

MONO_ONE = (0, 0)  # the unit monomial y^0 x^0


@dataclass(eq=False)
class AlgebraSpec:
    """S, checked on construction (a ValueError names the first rule broken);
    wy_inv is w_y^-1 mod w_x, which fixes each degree's y-exponents."""

    w_x: int
    w_y: int
    family: str  # "quantum" | "jordan"
    alpha: Cyclotomic | None = None
    wy_inv: int = field(init=False, repr=False)
    _products: dict = field(default_factory=dict, repr=False)
    _bases: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.family == "jordan":
            if self.w_x != 1:
                raise ValueError("jordan family needs w_x = 1")
            if self.alpha is not None:
                raise ValueError("jordan family takes no alpha")
        if self.w_x < 1 or self.w_y < 1:
            raise ValueError("weights must be positive")
        if gcd(self.w_x, self.w_y) != 1:
            raise ValueError("weights must be coprime, got (%d, %d)" % (self.w_x, self.w_y))
        if self.family == "quantum":
            if self.alpha is None or cyc(self.alpha).is_zero():
                raise ValueError("quantum family needs a nonzero alpha")
        elif self.family != "jordan":
            raise ValueError("unknown family %r" % self.family)
        self.wy_inv = pow(self.w_y, -1, self.w_x)

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


def quantum_spec(w_x, w_y, alpha):
    return AlgebraSpec(w_x, w_y, "quantum", cyc(alpha))


def _accumulate(terms, key, coeff):
    cur = terms.get(key)
    nxt = coeff if cur is None else cur + coeff
    if nxt.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = nxt


def monomial_product(spec, m1, m2):
    """Normal form of the product m1 * m2 of two monomials, {(a, b): coeff}.

    (y^a1 x^b1)(y^a2 x^b2) = y^a1 (x^b1 y^a2) x^b2 is y^(a1+a2) x^(b1+b2)
    with coefficient 1 if b1 = 0 or a2 = 0, else alpha^(a2 b1) times it on
    the quantum plane.  On the Jordan plane

      x^b y^a = sum_{k=0..a} C(a, k) b (b+q) ... (b+(k-1)q) y^(a-k) x^(b+kq):

    x^b y = y x^b + b x^(b+q) by induction on b from xy = yx + x^(q+1), as
    x^(q+1) commutes with x; then induct on a, multiplying on the right by
    y and collecting terms by Pascal's rule.  The coefficients are c_0 = 1
    and c_(k+1) = c_k (a-k)(b+kq) / (k+1), an exact division, positive for
    b >= 1.  So every product leads with y^(a1+a2) x^(b1+b2), with a
    nonzero coefficient, and its other terms have fewer y's.

    Memoized on the spec; the returned dict is shared and must not be mutated."""
    key = (m1, m2)
    memo = spec._products
    hit = memo.get(key)
    if hit is None:
        (a1, b1), (a2, b2) = m1, m2
        if not b1 or not a2:
            hit = {(a1 + a2, b1 + b2): ONE}
        elif spec.family == "quantum":
            hit = {(a1 + a2, b1 + b2): spec.alpha ** (a2 * b1)}
        else:
            q, c, hit = spec.q, 1, {}
            for k in range(a2 + 1):
                hit[a1 + a2 - k, b1 + k * q + b2] = Cyclotomic(c)
                c = c * (a2 - k) * (b1 + k * q) // (k + 1)
        memo[key] = hit
    return hit


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
        if self.ctx is not other.ctx:
            raise ValueError("cannot add elements of different algebras")
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
        a, b = m
        return (a, b)

    _basis_mul = staticmethod(monomial_product)

    @staticmethod
    def gen_x(spec):
        return AlgebraElement(spec)._wrap({(0, 1): ONE})

    @staticmethod
    def gen_y(spec):
        return AlgebraElement(spec)._wrap({(1, 0): ONE})


def reduce_product(u, v):
    """Product in S of elements u, v, rewritten to the y^a x^b normal form."""
    return u * v


def _y_exponents(spec, d):
    """The a of the degree-d monomials y^a x^b, b = (d - a w_y) / w_x, as a range.

    As the weights are coprime, a w_y = d (mod w_x) fixes a mod w_x.
    """
    wx = spec.w_x
    return range(d * spec.wy_inv % wx, d // spec.w_y + 1, wx)


def graded_basis(spec, d):
    """All monomials of degree d, ordered lexicographically by (a, b).

    Built once per degree and spec; every call returns a fresh list."""
    basis = spec._bases.get(d)
    if basis is None:
        wx, wy = spec.w_x, spec.w_y
        basis = spec._bases[d] = [(a, (d - a * wy) // wx) for a in _y_exponents(spec, d)]
    return list(basis)


def hilbert_dims(spec, D):
    """dim S_d for d = 0..D, the lengths of the _y_exponents ranges."""
    return [len(_y_exponents(spec, d)) for d in range(D + 1)]
