"""Graded automorphisms of S, homological determinants, cyclic group actions.

hdet_table decides a map by the automorphism test and then gives its
homological determinant by one closed formula for every classified form
(general linear, diagonal, antidiagonal, triangular).  The tests keep two
independent routes as its oracle: the recursion through the normal element
x and, for weights (1,1), the transposed action on the quadratic dual.

Cyclic actions are generated by diag(xi^px, xi^py) with xi a primitive
r-th root of unity; make_cyclic_group holds the canonical hdet-one choice
of the exponents.  make_diagonal_action checks an action by its exponents
alone (py = q px mod r on the Jordan plane); its docstring proves that
this is the automorphism test, and make_cyclic_group's that its choice has
hdet one wherever it is admitted.
"""

from dataclasses import dataclass, field

from .cyclotomic import Cyclotomic, ONE, zeta
from .algebra import AlgebraElement, Monomial, graded_basis
from .linalg import Echelon


class NotTabulatedError(ValueError):
    """The map is not a graded automorphism of the algebra."""


@dataclass
class GradedAutomorphism:
    image_x: AlgebraElement
    image_y: AlgebraElement


def diagonal_automorphism(spec, a, d):
    return GradedAutomorphism(
        AlgebraElement.gen_x(spec).scale(a), AlgebraElement.gen_y(spec).scale(d)
    )


def linear_automorphism(spec, a, b, c, d):
    """x -> a x + b y, y -> c x + d y; weights (1,1) only."""
    if (spec.w_x, spec.w_y) != (1, 1):
        raise ValueError("linear form needs weights (1, 1)")
    x, y = AlgebraElement.gen_x(spec), AlgebraElement.gen_y(spec)
    return GradedAutomorphism(x.scale(a) + y.scale(b), x.scale(c) + y.scale(d))


def triangular_automorphism(spec, a, c, d):
    """x -> a x, y -> c x^q + d y, for weights (1, q)."""
    if spec.w_x != 1:
        raise ValueError("triangular form needs w_x = 1")
    q = spec.w_y
    img_y = AlgebraElement.gen_y(spec).scale(d) + AlgebraElement.monomial(spec, Monomial(0, q), c)
    return GradedAutomorphism(AlgebraElement.gen_x(spec).scale(a), img_y)


def apply_automorphism(sigma, u, spec):
    """Substitute generator images and reduce to normal form."""
    ix, iy = sigma.image_x, sigma.image_y
    powers_x = {0: AlgebraElement.one(spec)}
    powers_y = {0: AlgebraElement.one(spec)}

    def power(target, cache, k):
        while k not in cache:
            top = max(cache)
            cache[top + 1] = cache[top] * target
        return cache[k]

    out = AlgebraElement.zero(spec)
    for (a, b), coeff in u.terms.items():
        term = power(iy, powers_y, a) * power(ix, powers_x, b)
        out = out + term.scale(coeff)
    return out


def relation_image(sigma, spec):
    """sigma applied to the defining relation, reduced in S (must be 0)."""
    u, v = sigma.image_x, sigma.image_y
    if spec.family == "quantum":
        return u * v - (v * u).scale(spec.alpha)
    return u * v - v * u - u ** (spec.q + 1)


def _restriction_invertible(sigma, spec, d):
    basis = graded_basis(spec, d)
    ech = Echelon()
    for m in basis:
        ech.add(apply_automorphism(sigma, AlgebraElement.monomial(spec, m), spec).terms)
    return ech.rank == len(basis)


def is_graded_automorphism(sigma, spec):
    """Degree check, relation preservation, and invertibility on generators."""
    try:
        dx, dy = sigma.image_x.degree(), sigma.image_y.degree()
    except ValueError:
        return False
    if dx != spec.w_x or dy != spec.w_y:
        return False
    if not relation_image(sigma, spec).is_zero():
        return False
    if not _restriction_invertible(sigma, spec, spec.w_x):
        return False
    if not _restriction_invertible(sigma, spec, spec.w_y):
        return False
    return True


def _coefficients(sigma, spec):
    """(A, B, C, D): x-image coeffs on (x, y), y-image coeffs on (x^w_y, y)."""
    A = sigma.image_x.coeff(Monomial(0, 1))
    B = sigma.image_x.coeff(Monomial(1, 0)) if spec.w_y == spec.w_x else Cyclotomic(0)
    C = sigma.image_y.coeff(Monomial(0, spec.w_y)) if spec.w_x == 1 else Cyclotomic(0)
    D = sigma.image_y.coeff(Monomial(1, 0))
    return A, B, C, D


def hdet_table(sigma, spec):
    """hdet of a graded automorphism (else NotTabulatedError), by its closed form.

    The test admits the classified forms: x -> a x, y -> c x^q + a^q y on the
    Jordan plane, hdet a^(q+1); on xy + yx the diagonal maps and x -> b y,
    y -> c x, hdet b c (not the determinant); elsewhere A D - B C, which is a d
    off weights (1, 1), where _coefficients reads B = 0 (so x -> a x + e y^q
    at weights (q, 1) has hdet a d too).
    """
    if not is_graded_automorphism(sigma, spec):
        raise NotTabulatedError("not a graded automorphism of this algebra")
    A, B, C, D = _coefficients(sigma, spec)
    if spec.family == "jordan":
        return A ** (spec.q + 1)
    if spec.alpha == -1 and A.is_zero():
        return B * C
    return A * D - B * C


@dataclass(eq=False)
class CyclicGroupAction:
    """G = <diag(xi^px, xi^py)> acting on S, xi a primitive r-th root of unity."""

    spec: object
    r: int
    xi: Cyclotomic
    px: int
    py: int
    _xi_powers: list = field(default_factory=lambda: [ONE], repr=False)

    def __post_init__(self):
        self.px %= self.r
        self.py %= self.r

    def xi_power(self, k):
        """xi^(k mod r), from a table grown by one product with xi per entry:
        entry 0 is 1 and entry k + 1 is entry k times xi, so entry k is xi^k
        for 0 <= k < r by construction.  That xi^(k mod r) is xi^k needs xi^r
        = 1, which skew.rho_system certifies."""
        k %= self.r
        pw = self._xi_powers
        while len(pw) <= k:
            pw.append(pw[-1] * self.xi)
        return pw[k]

    def char(self, mono):
        """Exponent c with g(y^a x^b) = xi^c y^a x^b."""
        a, b = mono
        return (b * self.px + a * self.py) % self.r

    def is_hsl_action(self):
        return (self.px + self.py) % self.r == 0

    def describe(self):
        return "r=%d, generator diag(xi^%d, xi^%d)" % (self.r, self.px, self.py)


# the exponents (px, py) of the canonical action, read by make_cyclic_group
# and by the ample help text
DEFAULT_POWERS = (1, -1)


def make_cyclic_group(spec, r):
    """The canonical hdet-one action diag(xi, xi^-1) of order r.

    By make_diagonal_action, the hdet of diag(xi^px, xi^py) is xi^(px + py),
    and xi^(px (q+1)) on the Jordan plane.  For (px, py) = (1, -1) that is
    xi^0 = 1 on the quantum plane, and xi^(q+1) = 1 on the Jordan plane,
    where the test says r | q + 1.  The tests re-run this through
    is_graded_automorphism and hdet_table.
    """
    return make_diagonal_action(spec, r, *DEFAULT_POWERS)


def make_diagonal_action(spec, r, px, py):
    """The action of diag(xi^px, xi^py), xi = zeta(r), checked by its exponents.

    Its generator g: x -> a x, y -> d y, with a = xi^px and d = xi^py, is a
    graded automorphism exactly when the Jordan test below holds.  As a, d
    != 0, g keeps degrees and is invertible on every S_d.  On the quantum
    plane g(x y - alpha y x) = a d (x y - alpha y x).  On the Jordan plane
    g(x y - y x - x^(q+1)) = a d (x y - y x) - a^(q+1) x^(q+1), which is
    (a d - a^(q+1)) x^(q+1) in S, so g preserves the relation iff d = a^q,
    i.e. iff py = q px (mod r), as xi is primitive.  hdet_table gives a
    diagonal automorphism the hdet a d (a^(q+1) = a d on the Jordan plane).
    The tests re-run both facts through is_graded_automorphism and
    hdet_table.
    """
    if r < 1:
        raise ValueError("group order must be >= 1")
    if spec.family == "jordan" and (py - spec.q * px) % r != 0:
        raise ValueError(
            "jordan relation needs xi^py = xi^(q*px); for the hdet-one action "
            "this means r must divide q+1 (q=%d, r=%d)" % (spec.q, r)
        )
    return CyclicGroupAction(spec, r, zeta(r), px, py)
