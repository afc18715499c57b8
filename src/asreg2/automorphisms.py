"""Graded automorphisms of S, homological determinants, cyclic group actions.

Three independent routes to the homological determinant are provided and
cross-checked in the tests:

  * hdet_table        - the closed formula attached to each family of
                        automorphisms (general linear, diagonal,
                        antidiagonal, triangular);
  * hdet_normal_rec   - peel off the normal element x: when sigma(x) = a*x,
                        hdet_S(sigma) = a * hdet_(S/(x))(sigma), and on the
                        one-variable quotient k[y] the hdet of y -> d*y is d;
  * hdet_koszul       - for weights (1,1) the algebra is Koszul quadratic;
                        the transposed map acts on the one-dimensional
                        quadratic part of the dual algebra by the hdet.

Cyclic actions are generated by diag(xi^px, xi^py) with xi a primitive
r-th root of unity; the canonical hdet-one choice is (px, py) = (1, -1).
Other diagonal powers are accepted for exploratory runs only.
"""

from dataclasses import dataclass, field

from .cyclotomic import Cyclotomic, ONE, primitive_root
from .algebra import AlgebraElement, Monomial, graded_basis
from .linalg import Echelon, linear_solve


class NotTabulatedError(ValueError):
    """Automorphism does not match any classified parametric form."""


class NotApplicableError(ValueError):
    """Method preconditions (normal element form / Koszul weights) not met."""


@dataclass(eq=False)
class GradedAutomorphism:
    image_x: AlgebraElement
    image_y: AlgebraElement

    def __eq__(self, other):
        return self.image_x == other.image_x and self.image_y == other.image_y


def diagonal_automorphism(spec, a, d):
    return GradedAutomorphism(
        AlgebraElement.gen_x(spec).scale(a), AlgebraElement.gen_y(spec).scale(d)
    )


def identity_automorphism(spec):
    return diagonal_automorphism(spec, 1, 1)


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


def compose(sigma, tau, spec):
    """sigma after tau."""
    return GradedAutomorphism(
        apply_automorphism(sigma, tau.image_x, spec),
        apply_automorphism(sigma, tau.image_y, spec),
    )


def relation_image(sigma, spec):
    """sigma applied to the defining relation, reduced in S (must be 0)."""
    u, v = sigma.image_x, sigma.image_y
    if spec.family == "quantum":
        return u * v - (v * u).scale(spec.alpha)
    return u * v - v * u - u ** (spec.q + 1)


def _restriction_invertible(sigma, spec, d):
    basis = graded_basis(spec, d)
    ech = Echelon()
    count = 0
    for m in basis:
        img = apply_automorphism(sigma, AlgebraElement.monomial(spec, m), spec)
        if ech.add(dict(img.terms)):
            count += 1
    return count == len(basis)


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


def _solve_preimage(sigma, spec, target):
    """u in the degree of target with sigma(u) = target, or None."""
    d = target.degree()
    basis = graded_basis(spec, d)
    columns = [
        dict(apply_automorphism(sigma, AlgebraElement.monomial(spec, m), spec).terms)
        for m in basis
    ]
    coeffs = linear_solve(columns, dict(target.terms))
    if coeffs is None:
        return None
    return AlgebraElement(spec, {m: c for m, c in zip(basis, coeffs)})


def inverse_automorphism(sigma, spec):
    """The inverse, obtained by solving for generator preimages."""
    pre_x = _solve_preimage(sigma, spec, AlgebraElement.gen_x(spec))
    pre_y = _solve_preimage(sigma, spec, AlgebraElement.gen_y(spec))
    if pre_x is None or pre_y is None:
        raise ValueError("map is not invertible on the generator degrees")
    tau = GradedAutomorphism(pre_x, pre_y)
    check = compose(sigma, tau, spec)
    assert check == identity_automorphism(spec)
    return tau


def _coefficients(sigma, spec):
    """(A, B, C, D): x-image coeffs on (x, y), y-image coeffs on (x^w_y, y)."""
    A = sigma.image_x.coeff(Monomial(0, 1))
    B = sigma.image_x.coeff(Monomial(1, 0)) if spec.w_y == spec.w_x else Cyclotomic(0)
    C = sigma.image_y.coeff(Monomial(0, spec.w_y)) if spec.w_x == 1 else Cyclotomic(0)
    D = sigma.image_y.coeff(Monomial(1, 0))
    return A, B, C, D


def hdet_table(sigma, spec):
    """Classified-form homological determinant."""
    if not is_graded_automorphism(sigma, spec):
        raise NotTabulatedError("not a graded automorphism of this algebra")
    A, B, C, D = _coefficients(sigma, spec)
    wx, wy = spec.w_x, spec.w_y
    if spec.family == "jordan":
        # x -> a x, y -> c x^q + a^q y
        if B:
            raise NotTabulatedError("jordan automorphisms fix the line through x")
        return A ** (spec.q + 1)
    alpha = spec.alpha
    if (wx, wy) == (1, 1):
        if alpha.is_one():
            # commutative plane: all of GL_2 acts
            return A * D - B * C
        if alpha == -1:
            if B.is_zero() and C.is_zero():
                return A * D
            if A.is_zero() and D.is_zero():
                return B * C
            raise NotTabulatedError("xy+yx only admits diagonal or antidiagonal maps")
        if B.is_zero() and C.is_zero():
            return A * D
        raise NotTabulatedError("generic quantum plane only admits diagonal maps")
    if wx == 1:
        # weights (1, q), q >= 2: triangular for alpha = 1, diagonal otherwise
        if alpha.is_one() or C.is_zero():
            return A * D
        raise NotTabulatedError("x^q term in sigma(y) needs the commutative relation")
    # weights (p, q) with p, q >= 2: homogeneity already forces diagonal maps
    return A * D


def hdet_normal_recursion(sigma, spec):
    """hdet via the regular normal element x; needs sigma(x) = a*x."""
    terms = sigma.image_x.terms
    if list(terms.keys()) != [Monomial(0, 1)]:
        raise NotApplicableError("sigma(x) is not a scalar multiple of x")
    a = terms[Monomial(0, 1)]
    # on S/(x) = k[y], sigma sends y to d*y with d the y-coefficient mod x
    d = sigma.image_y.coeff(Monomial(1, 0))
    return a * d


def hdet_koszul(sigma, spec):
    """hdet via the transposed action on the quadratic dual; weights (1,1) only."""
    if (spec.w_x, spec.w_y) != (1, 1):
        raise NotApplicableError("Koszul route needs weights (1, 1)")
    if not is_graded_automorphism(sigma, spec):
        raise ValueError("not a graded automorphism")
    # M[i][j]: coefficient of basis_i in sigma(basis_j), basis = (x, y)
    M = [
        [sigma.image_x.coeff(Monomial(0, 1)), sigma.image_y.coeff(Monomial(0, 1))],
        [sigma.image_x.coeff(Monomial(1, 0)), sigma.image_y.coeff(Monomial(1, 0))],
    ]
    # relation tensor f in V (x) V, coordinates f[k][l] on basis k (x) basis l
    zero = Cyclotomic(0)
    if spec.family == "quantum":
        f = [[zero, ONE], [-spec.alpha, zero]]
    else:
        f = [[-ONE, ONE], [-ONE, zero]]
    # value of (sigma^t (x) sigma^t)(e_i* (x) e_j*) at f
    lam = None
    pending = []
    for i in range(2):
        for j in range(2):
            v = sum(
                (M[i][k] * M[j][l] * f[k][l] for k in range(2) for l in range(2)),
                Cyclotomic(0),
            )
            c = f[i][j]
            if c.is_zero():
                pending.append(v)
            else:
                cand = v / c
                if lam is not None and cand != lam:
                    raise ValueError("transpose does not preserve the dual relation space")
                lam = cand
    for v in pending:
        if not v.is_zero():
            raise ValueError("transpose does not preserve the dual relation space")
    return lam


def hdet(sigma, spec):
    """Table value when the form is classified, else the normal-element route."""
    try:
        return hdet_table(sigma, spec)
    except NotTabulatedError:
        return hdet_normal_recursion(sigma, spec)


def is_hsl(sigma, spec):
    return hdet(sigma, spec).is_one()


@dataclass(eq=False)
class CyclicGroupAction:
    """G = <diag(xi^px, xi^py)> acting on S, xi a primitive r-th root of unity."""

    spec: object
    r: int
    xi: Cyclotomic
    px: int = 1
    py: int = -1
    _xi_powers: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.px %= self.r
        self.py %= self.r

    def xi_power(self, k):
        k %= self.r
        pw = self._xi_powers
        if k not in pw:
            pw[k] = self.xi ** k
        return pw[k]

    def char(self, mono):
        """Exponent c with g(y^a x^b) = xi^c y^a x^b."""
        a, b = mono
        return (b * self.px + a * self.py) % self.r

    def generator(self):
        return diagonal_automorphism(
            self.spec, self.xi_power(self.px), self.xi_power(self.py)
        )

    def is_hsl_action(self):
        return (self.px + self.py) % self.r == 0

    def describe(self):
        return "r=%d, generator diag(xi^%d, xi^%d)" % (self.r, self.px, self.py)


def make_cyclic_group(spec, r):
    """The canonical hdet-one action diag(xi, xi^-1) of order r."""
    action = make_diagonal_action(spec, r, 1, -1)
    g = action.generator()
    assert hdet(g, spec).is_one()
    return action


def make_diagonal_action(spec, r, px, py):
    """Generic diagonal action; non-HSL choices are for exploratory runs."""
    if r < 1:
        raise ValueError("group order must be >= 1")
    if spec.family == "jordan" and (py - spec.q * px) % r != 0:
        raise ValueError(
            "jordan relation needs xi^py = xi^(q*px); for the hdet-one action "
            "this means r must divide q+1 (q=%d, r=%d)" % (spec.q, r)
        )
    action = CyclicGroupAction(spec, r, primitive_root(r), px, py)
    g = action.generator()
    if not is_graded_automorphism(g, spec):
        raise ValueError("diagonal images do not define an automorphism")
    return action
