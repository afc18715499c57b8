"""Graded automorphisms of S, homological determinants, cyclic group actions.

hdet decides a map of the CLI's forms (general linear at weights (1,1),
triangular at (1,q), diagonal elsewhere) by closed forms on its
coefficients, and then gives its homological determinant by one formula
for every classified form.  The tests keep the element-level automorphism
test and its elimination as the oracle of the decision, and two independent
routes to the value: the recursion through the normal element x and, for
weights (1,1), the transposed action on the quadratic dual.

Cyclic actions are generated by diag(xi^px, xi^py) with xi a primitive
r-th root of unity; make_cyclic_group holds the canonical hdet-one choice
of the exponents.  make_diagonal_action checks an action by its exponents
alone (py = q px mod r on the Jordan plane); its docstring proves that
this is the automorphism test, and make_cyclic_group's that its choice has
hdet one wherever it is admitted.
"""

from dataclasses import dataclass, field

from .cyclotomic import Cyclotomic, ONE, zeta


class NotTabulatedError(ValueError):
    """The map is not a graded automorphism of the algebra."""


def hdet(spec, a, b, c, d):
    """The hdet of sigma: x -> a x + b y, y -> c x^q + d y (q = w_y), or
    NotTabulatedError when sigma is no graded automorphism of S.

    b y has degree w_y and c x^q degree w_x w_y, so sigma keeps degrees only
    if b = 0 off weights (1, 1) and c = 0 off w_x = 1; the CLI's three forms
    (linear at (1, 1), triangular at (1, q), diagonal elsewhere) are these.
    Then sigma is an automorphism iff it is invertible on S_(w_x) and S_(w_y),
    which hold the generators, and maps the relation f into (f), i.e. to 0 in
    S.  By the normal forms xy = alpha yx, resp. xy = yx + x^(q+1):

    - Weights (1, 1), quantum: sigma has determinant a d - b c on
      S_1 = <x, y>, and sigma(x)sigma(y) - alpha sigma(y)sigma(x) is
      (1-alpha) a c x^2 + (1-alpha^2) b c yx + (1-alpha) b d y^2.
    - Weights (1, 1), Jordan: sigma(x)sigma(y) - sigma(y)sigma(x) - sigma(x)^2
      is (a d - b c - a^2 - a b) x^2 - 2 a b yx - b^2 y^2.  That is 0 iff
      b = 0 and a (d - a) = 0, so with a d - b c != 0 the map is an
      automorphism iff b = 0 and d = a != 0.
    - Weights (1, q), q >= 2, b = 0: sigma scales S_1 = <x> by a and is
      triangular on S_q = <x^q, y> with diagonal a^q, d, so it is
      invertible iff a, d != 0.
      The relation goes to (1-alpha) a c x^(q+1) + a d (xy - alpha yx) =
      (1-alpha) a c x^(q+1) on the quantum plane, and to a d (xy - yx) -
      a^(q+1) x^(q+1) = (a d - a^(q+1)) x^(q+1), so d = a^q, on the Jordan one.
    - Other weights, b = c = 0: sigma scales y^i x^j by d^i a^j, so it is
      invertible iff a, d != 0, and it scales the quantum relation by a d
      (the Jordan plane has w_x = 1).

    With b = 0, and c = 0 off w_x = 1, the (1, 1) quantum conditions reduce
    to the triangular and the diagonal ones, and d = a^q != 0 covers both
    Jordan cases; so two tests decide every form.  The maps admitted are the
    classified forms, and the hdet is a^(q+1) on the Jordan plane, b c for an
    antidiagonal map x -> b y, y -> c x of xy + yx (not the determinant), and
    a d - b c otherwise (a d off weights (1, 1)).  The tests keep the element
    test (the relation's image by products, invertibility by elimination)
    and the table it feeds as the oracle.
    """
    if spec.family == "jordan":
        if b or not a or d != a ** spec.q:
            raise NotTabulatedError("not a graded automorphism of this algebra")
        return a ** (spec.q + 1)
    alpha = spec.alpha
    if ((b and spec.w_y != spec.w_x) or (c and spec.w_x != 1) or not a * d - b * c
            or (1 - alpha) * a * c or (1 - alpha) * b * d or (1 - alpha * alpha) * b * c):
        raise NotTabulatedError("not a graded automorphism of this algebra")
    return b * c if alpha == -1 and not a else a * d - b * c


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
    where the test says r | q + 1.  The tests re-run this through their
    element-level automorphism test and hdet table.
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
    i.e. iff py = q px (mod r), as xi is primitive.  hdet gives a diagonal
    automorphism the hdet a d (a^(q+1) = a d on the Jordan plane).  The
    tests re-run both facts through their element-level automorphism test
    and hdet table.
    """
    if r < 1:
        raise ValueError("group order must be >= 1")
    if spec.family == "jordan" and (py - spec.q * px) % r != 0:
        raise ValueError(
            "jordan relation needs xi^py = xi^(q*px); for the hdet-one action "
            "this means r must divide q+1 (q=%d, r=%d)" % (spec.q, r)
        )
    return CyclicGroupAction(spec, r, zeta(r), px, py)
