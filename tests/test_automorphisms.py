"""Graded automorphisms and their hdet, with the element-level oracle.

automorphisms.hdet decides a map by closed forms on its coefficients.  Its
oracle lives here: the maps as pairs of generator images, substituted into
elements of S by products; the automorphism test (degrees, the relation's
image, invertibility on the generator degrees by exact elimination); and
the hdet table that reads the value off the images after that test.  The
normal-element recursion and the Koszul-dual transpose are two independent
routes to the value.
"""

import itertools
import random
import weakref
from dataclasses import dataclass
from fractions import Fraction

import pytest

import asreg2.algebra

from asreg2.cyclotomic import ONE, Cyclotomic, cyc, zeta
from asreg2.linalg import Echelon
from asreg2.algebra import (
    MONO_ONE,
    AlgebraElement,
    AlgebraSpec,
    graded_basis,
    quantum_spec,
)
from asreg2.automorphisms import (
    CyclicGroupAction,
    NotTabulatedError,
    hdet,
    make_cyclic_group,
    make_diagonal_action,
)


# ---------------------------------------------------------------------------
# elements of S: the constructors and readers that only the oracle uses


def monomial(spec, mono, coeff=ONE):
    return AlgebraElement(spec, {mono: coeff})


def one(spec):
    return monomial(spec, MONO_ONE)


def coeff(u, mono):
    return u.terms.get(tuple(mono), Cyclotomic(0))


def power(u, k):
    out = one(u.ctx)
    for _ in range(k):
        out = out * u
    return out


def degree(u):
    """Degree of a homogeneous element (None for 0, error if mixed)."""
    spec = u.ctx
    degs = {a * spec.w_y + b * spec.w_x for a, b in u.terms}
    if not degs:
        return None
    if len(degs) > 1:
        raise ValueError("element is not homogeneous: degrees %s" % sorted(degs))
    return degs.pop()


# ---------------------------------------------------------------------------
# the element-level automorphism test and hdet table: the oracle of hdet


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
    img_y = AlgebraElement.gen_y(spec).scale(d) + monomial(spec, (0, spec.w_y), c)
    return GradedAutomorphism(AlgebraElement.gen_x(spec).scale(a), img_y)


def apply_automorphism(sigma, u, spec):
    """Substitute generator images and reduce to normal form."""
    ix, iy = sigma.image_x, sigma.image_y
    powers_x = {0: one(spec)}
    powers_y = {0: one(spec)}

    def power_of(target, cache, k):
        while k not in cache:
            top = max(cache)
            cache[top + 1] = cache[top] * target
        return cache[k]

    out = AlgebraElement(spec)
    for (a, b), c in u.terms.items():
        term = power_of(iy, powers_y, a) * power_of(ix, powers_x, b)
        out = out + term.scale(c)
    return out


def relation_image(sigma, spec):
    """sigma applied to the defining relation, by products of the generator
    images, reduced in S (must be 0)."""
    u, v = sigma.image_x, sigma.image_y
    if spec.family == "quantum":
        return u * v - (v * u).scale(spec.alpha)
    return u * v - v * u - power(u, spec.q + 1)


def _restriction_invertible(sigma, spec, d):
    """Rank of sigma on S_d by exact elimination of the images of its basis."""
    basis = graded_basis(spec, d)
    ech = Echelon()
    for m in basis:
        ech.add(apply_automorphism(sigma, monomial(spec, m), spec).terms)
    return ech.rank == len(basis)


def is_graded_automorphism(sigma, spec):
    """Degree check, relation preservation, and invertibility on generators."""
    try:
        dx, dy = degree(sigma.image_x), degree(sigma.image_y)
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
    A = coeff(sigma.image_x, (0, 1))
    B = coeff(sigma.image_x, (1, 0)) if spec.w_y == spec.w_x else Cyclotomic(0)
    C = coeff(sigma.image_y, (0, spec.w_y)) if spec.w_x == 1 else Cyclotomic(0)
    D = coeff(sigma.image_y, (1, 0))
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


def jordan_spec(q):
    """The Jordan plane x*y = y*x + x^(q+1), weights (1, q)."""
    return AlgebraSpec(1, q, "jordan")


COMM = quantum_spec(1, 1, 1)
ANTI = quantum_spec(1, 1, -1)          # xy + yx as quantum(-1)
QGEN = quantum_spec(1, 1, zeta(5))
Q13 = quantum_spec(1, 3, 1)
Q13G = quantum_spec(1, 3, zeta(3))
Q23 = quantum_spec(2, 3, cyc(2))
J1 = jordan_spec(1)
J3 = jordan_spec(3)

UNITS = [cyc(1), cyc(-1), cyc(2), cyc(Fraction(1, 2)), cyc(Fraction(-3, 2)), zeta(3), zeta(4), zeta(6),
         zeta(3) * 2, zeta(6) ** 5]


class NotApplicableError(ValueError):
    """Method preconditions (normal element form / Koszul weights) not met."""


def hdet_normal_recursion(sigma, spec):
    """hdet via the regular normal element x; needs sigma(x) = a*x."""
    terms = sigma.image_x.terms
    if list(terms.keys()) != [(0, 1)]:
        raise NotApplicableError("sigma(x) is not a scalar multiple of x")
    a = terms[(0, 1)]
    # on S/(x) = k[y], sigma sends y to d*y with d the y-coefficient mod x
    d = coeff(sigma.image_y, (1, 0))
    return a * d


def hdet_koszul(sigma, spec):
    """hdet via the transposed action on the quadratic dual; weights (1,1) only."""
    if (spec.w_x, spec.w_y) != (1, 1):
        raise NotApplicableError("Koszul route needs weights (1, 1)")
    if not is_graded_automorphism(sigma, spec):
        raise ValueError("not a graded automorphism")
    # M[i][j]: coefficient of basis_i in sigma(basis_j), basis = (x, y)
    M = [
        [coeff(sigma.image_x, (0, 1)), coeff(sigma.image_y, (0, 1))],
        [coeff(sigma.image_x, (1, 0)), coeff(sigma.image_y, (1, 0))],
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
                cand = v * c.inverse()
                if lam is not None and cand != lam:
                    raise ValueError("transpose does not preserve the dual relation space")
                lam = cand
    for v in pending:
        if not v.is_zero():
            raise ValueError("transpose does not preserve the dual relation space")
    return lam


def is_hsl(sigma, spec):
    return hdet_table(sigma, spec).is_one()


# each action's table of powers of xi, kept while the action lives
_XI_TABLES = weakref.WeakKeyDictionary()


def xi_power(action, k):
    """xi^(k mod r), from a table grown by one product with xi per entry:
    entry 0 is 1 and entry k + 1 is entry k times xi, so entry k is xi^k
    for 0 <= k < r by construction.  That xi^(k mod r) is xi^k needs xi^r
    = 1, which skew.rho_system certifies.  The oracles read the powers of
    xi here, by a route that shares no product with Cyclotomic.__pow__."""
    k %= action.r
    table = _XI_TABLES.setdefault(action, [ONE])
    while len(table) <= k:
        table.append(table[-1] * action.xi)
    return table[k]


def generator(action):
    """The generator diag(xi^px, xi^py) of a cyclic action, as a map."""
    return diagonal_automorphism(
        action.spec, xi_power(action, action.px), xi_power(action, action.py)
    )


def identity_automorphism(spec):
    return diagonal_automorphism(spec, 1, 1)


def compose(sigma, tau, spec):
    """sigma after tau."""
    return GradedAutomorphism(
        apply_automorphism(sigma, tau.image_x, spec),
        apply_automorphism(sigma, tau.image_y, spec),
    )


def _solve_preimage(sigma, spec, target):
    """u in the degree of target with sigma(u) = target, or None."""
    basis = graded_basis(spec, degree(target))
    # rows (sigma(m_k), unit k): reducing (target, 0) leaves (0, -u) exactly
    # when target lies in the span of the sigma(m_k)
    ech = Echelon()
    for k, m in enumerate(basis):
        img = apply_automorphism(sigma, monomial(spec, m), spec)
        row = {(0,) + key: c for key, c in img.terms.items()}
        row[(1, k)] = ONE
        ech.add(row)
    res = ech.residue({(0,) + key: c for key, c in target.terms.items()})
    if any(key[0] == 0 for key in res):
        return None
    return AlgebraElement(spec, {basis[k]: -c for (_, k), c in res.items()})


def inverse_automorphism(sigma, spec):
    """The inverse, obtained by solving for generator preimages."""
    pre_x = _solve_preimage(sigma, spec, AlgebraElement.gen_x(spec))
    pre_y = _solve_preimage(sigma, spec, AlgebraElement.gen_y(spec))
    if pre_x is None or pre_y is None:
        raise ValueError("map is not invertible on the generator degrees")
    tau = GradedAutomorphism(pre_x, pre_y)
    if compose(sigma, tau, spec) != identity_automorphism(spec):
        raise ArithmeticError("generator preimages do not invert the map")
    return tau


def test_identity_hdet_everywhere():
    for spec in (COMM, ANTI, QGEN, Q13, Q23, J1, J3):
        sigma = identity_automorphism(spec)
        assert hdet_table(sigma, spec).is_one()
        assert hdet_normal_recursion(sigma, spec).is_one()
        assert is_hsl(sigma, spec)


def test_hdet_refuses_a_non_automorphism():
    # x -> 2x, y -> y/2 on the q = 3 Jordan plane breaks the relation (it
    # needs d = a^3), though the normal-element route would give 2 * 1/2 = 1
    sigma = diagonal_automorphism(J3, 2, Fraction(1, 2))
    assert not is_graded_automorphism(sigma, J3)
    assert hdet_normal_recursion(sigma, J3).is_one()
    for route in (hdet_table, is_hsl):
        with pytest.raises(NotTabulatedError):
            route(sigma, J3)


def hdet_classified(sigma, spec):
    """The homological determinant by family and weight branches, each form
    of the classification on its own; the oracle of hdet_table's one formula."""
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
    # the other weights: diagonal, or x -> a x + e y^p at weights (p, 1), alpha = 1
    return A * D


def _sweep_maps():
    """(spec, sigma) for every map of a few forms over a small value set."""
    values = [cyc(0), cyc(1), cyc(-1), cyc(2), zeta(3)]
    for alpha in (cyc(1), cyc(-1), cyc(2), zeta(3)):
        spec = quantum_spec(1, 1, alpha)
        for a, b, c, d in itertools.product(values, repeat=4):
            yield spec, linear_automorphism(spec, a, b, c, d)
    for a, b, c, d in itertools.product(values, repeat=4):
        yield J1, linear_automorphism(J1, a, b, c, d)
    for spec in (quantum_spec(1, 2, 1), quantum_spec(1, 2, -1), quantum_spec(1, 3, 1),
                 quantum_spec(1, 3, zeta(3)), jordan_spec(2), J3):
        for a, c, d in itertools.product(values, repeat=3):
            yield spec, triangular_automorphism(spec, a, c, d)
    q31 = quantum_spec(3, 1, 1)
    for spec in (Q23, q31):
        for a, d in itertools.product(values, repeat=2):
            yield spec, diagonal_automorphism(spec, a, d)
    # x -> a x + e y^3 at weights (3, 1)
    x, y = AlgebraElement.gen_x(q31), AlgebraElement.gen_y(q31)
    for a, e, d in itertools.product(values, repeat=3):
        yield q31, GradedAutomorphism(x.scale(a) + power(y, 3).scale(e), y.scale(d))


def test_table_equals_classified_oracle_sweep():
    seen = {True: 0, False: 0}
    antidiagonal = 0
    for spec, sigma in _sweep_maps():
        if not is_graded_automorphism(sigma, spec):
            for route in (hdet_table, is_hsl):
                with pytest.raises(NotTabulatedError):
                    route(sigma, spec)
            seen[False] += 1
            continue
        seen[True] += 1
        value = hdet_table(sigma, spec)
        assert value == hdet_classified(sigma, spec), (spec.describe(), sigma)
        assert is_hsl(sigma, spec) == value.is_one()
        if (spec.w_x, spec.w_y) == (1, 1):
            assert value == hdet_koszul(sigma, spec), (spec.describe(), sigma)
        try:
            assert value == hdet_normal_recursion(sigma, spec), (spec.describe(), sigma)
        except NotApplicableError:
            antidiagonal += spec.family == "quantum" and spec.alpha == -1
    assert seen[True] > 500 and seen[False] > 1000 and antidiagonal, (seen, antidiagonal)


def general_map(spec, a, b, c, d):
    """x -> a x + b y, y -> c x^(w_y) + d y, the map hdet reads, at any weights."""
    x, y = AlgebraElement.gen_x(spec), AlgebraElement.gen_y(spec)
    return GradedAutomorphism(x.scale(a) + y.scale(b),
                              monomial(spec, (0, spec.w_y), c) + y.scale(d))


def test_hdet_closed_form_equals_element_oracle_sweep():
    # the verdict and the value (its printed bytes too) of the closed forms
    # against the element-level test and table, on the three forms of both
    # planes: every map over a small value set with zeros, then seeded draws,
    # and maps off the form (b y or c x^q of another degree than the image's)
    small = [cyc(0), cyc(1), cyc(-1), cyc(2), zeta(3)]
    units = [cyc(1), cyc(-1), cyc(2), cyc(Fraction(1, 2)), cyc(Fraction(-3, 2)), zeta(3), zeta(4),
             zeta(6) ** 5, zeta(5, 2) * 2, zeta(8)]
    pool = units + [cyc(0)] * 3
    zero = [cyc(0)]
    rng = random.Random(3232)
    forms = {  # form: (specs, map builder, b free, c free)
        "linear": ([quantum_spec(1, 1, alpha) for alpha in (1, -1, 2, zeta(3), zeta(4), -zeta(6))]
                   + [J1], linear_automorphism, True, True),
        "triangular": ([quantum_spec(1, 2, 1), quantum_spec(1, 2, -1), quantum_spec(1, 3, zeta(3)),
                        quantum_spec(1, 4, zeta(4)), jordan_spec(2), J3],
                       lambda spec, a, b, c, d: triangular_automorphism(spec, a, c, d), False, True),
        "diagonal": ([Q23, quantum_spec(3, 1, 1), quantum_spec(2, 1, -1),
                      quantum_spec(3, 5, zeta(5)), quantum_spec(4, 3, zeta(6))],
                     lambda spec, a, b, c, d: diagonal_automorphism(spec, a, d), False, False),
    }
    seen, antidiagonal = set(), 0
    for form, (specs, build, b_free, c_free) in forms.items():
        for spec in specs:
            maps = [(m, True) for m in itertools.product(
                small, small if b_free else zero, small if c_free else zero, small)]
            for _ in range(120):
                a, b, c, d = (rng.choice(pool) for _ in range(4))
                maps.append(((a, b if b_free else 0, c if c_free else 0, d), True))
                # the Jordan condition d = a^q, hit on purpose
                if spec.family == "jordan":
                    maps.append(((a, 0, c, a ** spec.q), True))
                a, b, c, d = (rng.choice(units) for _ in range(4))
                if not b_free:
                    maps.append(((a, b, c if c_free else 0, d), False))
                if not c_free:
                    maps.append(((a, 0, c, d), False))
            for coefficients, in_form in maps:
                a, b, c, d = map(cyc, coefficients)
                sigma = build(spec, a, b, c, d) if in_form else general_map(spec, a, b, c, d)
                try:
                    expected = hdet_table(sigma, spec)
                except NotTabulatedError:
                    with pytest.raises(NotTabulatedError):
                        hdet(spec, a, b, c, d)
                    seen.add((form, spec.family, in_form, False))
                    continue
                value = hdet(spec, a, b, c, d)
                assert value == expected and str(value) == str(expected), (
                    spec.describe(), a, b, c, d)
                seen.add((form, spec.family, in_form, True))
                antidiagonal += spec.family == "quantum" and spec.alpha == -1 and a.is_zero()
    planes = {"linear": ("quantum", "jordan"), "triangular": ("quantum", "jordan"),
              "diagonal": ("quantum",)}
    assert seen == ({(form, family, True, ok) for form, families in planes.items()
                     for family in families for ok in (True, False)}
                    | {("triangular", family, False, False) for family in ("quantum", "jordan")}
                    | {("diagonal", "quantum", False, False)}), seen
    assert antidiagonal


def test_table_general_linear_on_commutative_plane():
    sigma = linear_automorphism(COMM, 1, 2, 3, 4)
    assert hdet_table(sigma, COMM) == cyc(4) - cyc(6)
    assert hdet_koszul(sigma, COMM) == cyc(-2)


def test_table_antidiagonal_on_anticommutative_plane():
    sigma = linear_automorphism(ANTI, 0, 2, 3, 0)
    assert is_graded_automorphism(sigma, ANTI)
    assert hdet_table(sigma, ANTI) == cyc(6)
    assert hdet_koszul(sigma, ANTI) == cyc(6)
    with pytest.raises(NotApplicableError):
        hdet_normal_recursion(sigma, ANTI)


def test_mixed_linear_not_tabulated_on_quantum_plane():
    bad = linear_automorphism(QGEN, 1, 1, 0, 1)
    assert not is_graded_automorphism(bad, QGEN)
    with pytest.raises(NotTabulatedError):
        hdet_table(bad, QGEN)


def test_jordan_triangular_hdet():
    # x -> 2x, y -> 5 x^3 + 2^3 y on the q=3 jordan algebra
    sigma = triangular_automorphism(J3, 2, 5, 8)
    assert is_graded_automorphism(sigma, J3)
    assert hdet_table(sigma, J3) == cyc(16)
    assert hdet_normal_recursion(sigma, J3) == cyc(16)
    # wrong y-coefficient breaks the relation
    bad = triangular_automorphism(J3, 2, 5, 7)
    assert not is_graded_automorphism(bad, J3)


def test_jordan_q1_koszul_agrees():
    sigma = triangular_automorphism(J1, 3, Fraction(1, 2), 3)
    assert hdet_koszul(sigma, J1) == cyc(9)
    assert hdet_normal_recursion(sigma, J1) == cyc(9)
    assert hdet_table(sigma, J1) == cyc(9)


def test_three_way_agreement_randomized():
    rng = random.Random(1234)
    for _ in range(20):
        a, b, c, d = (rng.choice(UNITS) for _ in range(4))
        # row 1: commutative plane, any invertible linear map
        if not (a * d - b * c).is_zero():
            sigma = linear_automorphism(COMM, a, b, c, d)
            assert hdet_table(sigma, COMM) == hdet_koszul(sigma, COMM)
        # rows 2 and 4: diagonal maps, both (1,1) methods apply
        for spec in (ANTI, QGEN):
            sigma = diagonal_automorphism(spec, a, d)
            v = hdet_table(sigma, spec)
            assert v == hdet_koszul(sigma, spec) == hdet_normal_recursion(sigma, spec)
        # row 3: antidiagonal on xy+yx
        sigma = linear_automorphism(ANTI, 0, b, c, 0)
        assert hdet_table(sigma, ANTI) == hdet_koszul(sigma, ANTI) == b * c
        # rows 5-7: triangular / diagonal in higher weights
        sigma = triangular_automorphism(Q13, a, c, d)
        assert hdet_table(sigma, Q13) == hdet_normal_recursion(sigma, Q13) == a * d
        sigma = diagonal_automorphism(Q13G, a, d)
        assert hdet_table(sigma, Q13G) == hdet_normal_recursion(sigma, Q13G)
        sigma = diagonal_automorphism(Q23, a, d)
        assert hdet_table(sigma, Q23) == hdet_normal_recursion(sigma, Q23)
        # row 8: jordan families
        for spec in (J1, J3):
            sigma = triangular_automorphism(spec, a, c, a ** spec.q)
            assert hdet_table(sigma, spec) == hdet_normal_recursion(sigma, spec)


def test_hdet_is_multiplicative():
    rng = random.Random(77)
    for _ in range(15):
        a, b, c, d = (rng.choice(UNITS) for _ in range(4))
        a2, b2, c2, d2 = (rng.choice(UNITS) for _ in range(4))
        if (a * d - b * c).is_zero() or (a2 * d2 - b2 * c2).is_zero():
            continue
        s = linear_automorphism(COMM, a, b, c, d)
        t = linear_automorphism(COMM, a2, b2, c2, d2)
        st = compose(s, t, COMM)
        assert hdet_table(st, COMM) == hdet_table(s, COMM) * hdet_table(t, COMM)
        # antidiagonal times antidiagonal is diagonal
        s = linear_automorphism(ANTI, 0, b, c, 0)
        t = linear_automorphism(ANTI, 0, b2, c2, 0)
        st = compose(s, t, ANTI)
        assert hdet_table(st, ANTI) == (b * c) * (b2 * c2)
        # jordan composition stays triangular
        s = triangular_automorphism(J3, a, c, a ** 3)
        t = triangular_automorphism(J3, a2, c2, a2 ** 3)
        st = compose(s, t, J3)
        assert hdet_table(st, J3) == hdet_table(s, J3) * hdet_table(t, J3)


def test_apply_preserves_relation_and_degree():
    rng = random.Random(5)
    for spec in (COMM, QGEN, J1, Q13):
        if spec.family == "jordan":
            sigma = triangular_automorphism(spec, 2, 3, 2 ** spec.q)
        elif spec is Q13:
            sigma = triangular_automorphism(spec, 2, 3, 5)
        else:
            sigma = diagonal_automorphism(spec, rng.choice(UNITS), rng.choice(UNITS))
        assert relation_image(sigma, spec).is_zero()
        for d in range(5):
            for m in graded_basis(spec, d):
                img = apply_automorphism(sigma, monomial(spec, m), spec)
                assert img.is_zero() or degree(img) == d


def test_apply_is_multiplicative_and_functorial():
    rng = random.Random(31)
    spec = J1
    s = triangular_automorphism(spec, 2, 1, 2)
    t = triangular_automorphism(spec, 3, -1, 3)
    st = compose(s, t, spec)
    for _ in range(10):
        m1 = (rng.randrange(3), rng.randrange(3))
        m2 = (rng.randrange(3), rng.randrange(3))
        u = monomial(spec, m1)
        v = monomial(spec, m2)
        assert apply_automorphism(s, u * v, spec) == (
            apply_automorphism(s, u, spec) * apply_automorphism(s, v, spec)
        )
        assert apply_automorphism(s, apply_automorphism(t, u, spec), spec) == (
            apply_automorphism(st, u, spec)
        )


def test_diagonal_action_on_monomials():
    action = make_cyclic_group(COMM, 3)
    g = generator(action)
    for a in range(4):
        for b in range(4):
            m = monomial(COMM, (a, b))
            img = apply_automorphism(g, m, COMM)
            expected = m.scale(xi_power(action, b - a))
            assert img == expected


def test_generator_order():
    for spec, r in ((COMM, 4), (Q13, 5), (J1, 2), (J3, 4)):
        action = make_cyclic_group(spec, r)
        g = generator(action)
        power = identity_automorphism(spec)
        hits = []
        for k in range(1, r + 1):
            power = compose(g, power, spec)
            if power == identity_automorphism(spec):
                hits.append(k)
        assert hits == [r]


def test_make_cyclic_group_validation():
    with pytest.raises(ValueError):
        make_cyclic_group(J1, 3)  # 3 does not divide q+1 = 2
    make_cyclic_group(J3, 4)      # 4 divides q+1 = 4
    with pytest.raises(ValueError):
        make_cyclic_group(COMM, 0)


def restriction_invertible_diagonal(sigma, spec, d):
    """The closed form for x -> sx x, y -> sy y, which scales y^i x^j by sy^i sx^j."""
    sx, sy = coeff(sigma.image_x, (0, 1)), coeff(sigma.image_y, (1, 0))
    return all((sx or not b) and (sy or not a) for a, b in graded_basis(spec, d))


def test_restriction_invertible_diagonal_equals_echelon():
    specs = [COMM, ANTI, QGEN, Q13, Q13G, Q23, J1, J3, quantum_spec(2, 5, zeta(4))]
    scalars = [cyc(1), cyc(-1), cyc(Fraction(2, 3)), zeta(3), zeta(5, 2), cyc(0)]
    seen = set()
    for spec in specs:
        for a in scalars:
            for d in scalars:
                sigma = diagonal_automorphism(spec, a, d)
                for deg in range(7):
                    echelon = _restriction_invertible(sigma, spec, deg)
                    assert echelon == restriction_invertible_diagonal(sigma, spec, deg), (
                        spec.describe(), a, d, deg)
                    seen.add(echelon)
    assert seen == {True, False}
    # the first map is singular (1*4 - 2*2 = 0), the other two invertible
    singular = linear_automorphism(COMM, 1, 2, 2, 4)
    assert not _restriction_invertible(singular, COMM, 1)
    assert _restriction_invertible(linear_automorphism(ANTI, 0, 2, 3, 0), ANTI, 1)
    assert all(_restriction_invertible(triangular_automorphism(J3, 2, 5, 8), J3, deg)
               for deg in range(4))


def relation_image_closed(spec, a, b, c, d):
    """The image of the relation under x -> a x + b y, y -> c x^q + d y, with
    b = 0 unless q = 1, by the closed forms of automorphisms.hdet's docstring:
    (1-alpha) a c x^(q+1) + (1-alpha^2) b c yx + (1-alpha) b d y^2 on the
    quantum plane and (a d - b c - a^(q+1) - a b) x^(q+1) - 2 a b yx - b^2 y^2
    on the Jordan plane."""
    q = spec.w_y
    if spec.family == "quantum":
        alpha = spec.alpha
        terms = {(0, q + 1): (1 - alpha) * a * c,
                 (1, 1): (1 - alpha * alpha) * b * c, (2, 0): (1 - alpha) * b * d}
    else:
        terms = {(0, q + 1): a * d - b * c - a ** (q + 1) - a * b,
                 (1, 1): -2 * a * b, (2, 0): -b * b}
    return AlgebraElement(spec, terms)


def test_relation_image_diagonal_equals_products():
    specs = [COMM, ANTI, QGEN, Q13, Q13G, Q23, J1, J3, jordan_spec(2)]
    scalars = [cyc(1), cyc(-1), cyc(Fraction(2, 3)), zeta(3), zeta(5, 2), zeta(4) * 2, cyc(0)]
    jordan_zero = set()
    for spec in specs:
        for a in scalars:
            for d in scalars + [a ** spec.w_y]:
                sigma = diagonal_automorphism(spec, a, d)
                image = relation_image(sigma, spec)
                assert image == relation_image_closed(spec, a, 0, 0, d), (spec.describe(), a, d)
                if spec.family == "jordan":
                    jordan_zero.add(image.is_zero())
    # the Jordan sweep has automorphisms (sy = sx^q) and non-automorphisms
    assert jordan_zero == {True, False}
    assert not relation_image(diagonal_automorphism(J3, 2, 4), J3).is_zero()
    # the linear and triangular forms, zero coefficients included
    values = [cyc(0), cyc(1), cyc(-1), cyc(2), zeta(3)]
    for spec in (COMM, ANTI, QGEN, J1):
        for a, b, c, d in itertools.product(values, repeat=4):
            sigma = linear_automorphism(spec, a, b, c, d)
            assert relation_image(sigma, spec) == relation_image_closed(spec, a, b, c, d), (
                spec.describe(), a, b, c, d)
    for spec in (Q13, Q13G, jordan_spec(2), J3):
        for a, c, d in itertools.product(values, repeat=3):
            sigma = triangular_automorphism(spec, a, c, d)
            assert relation_image(sigma, spec) == relation_image_closed(spec, a, 0, c, d), (
                spec.describe(), a, c, d)


def test_make_cyclic_group_checks_exponents_only(monkeypatch):
    # the exponent test is the whole validation: no element product and no
    # elimination runs
    calls = []
    monkeypatch.setattr(asreg2.algebra.SparseElement, "__mul__",
                        lambda u, v: calls.append("mul"))
    monkeypatch.setattr(Echelon, "add", lambda ech, vec: calls.append("add"))
    for spec, r in ((COMM, 4), (Q13, 5), (J1, 2), (J3, 4)):
        make_cyclic_group(spec, r)
        make_diagonal_action(spec, r, 2, 2 * spec.q)
    assert calls == []


def test_exponent_check_equals_automorphism_test_sweep():
    # make_diagonal_action accepts exactly the (r, px, py) whose generator is
    # a graded automorphism, and (1, -1) mod r then has hdet one
    specs = [COMM, ANTI, QGEN, Q13, Q13G, Q23, quantum_spec(3, 5, zeta(5, 2)),
             J1, jordan_spec(2), J3, jordan_spec(5)]
    accepted_seen, hsl_seen = set(), 0
    for spec in specs:
        for r in range(1, 7):
            xi = zeta(r)
            for px in range(-r, 2 * r):
                for py in range(-r, 2 * r):
                    g = generator(CyclicGroupAction(spec, r, xi, px, py))
                    try:
                        action = make_diagonal_action(spec, r, px, py)
                    except ValueError:
                        action = None
                    accepted = action is not None
                    assert accepted == is_graded_automorphism(g, spec), (
                        spec.describe(), r, px, py)
                    accepted_seen.add(accepted)
                    if accepted and (px - 1) % r == (py + 1) % r == 0:
                        assert generator(action) == g
                        assert hdet_table(g, spec).is_one(), (spec.describe(), r, px, py)
                        hsl_seen += 1
    assert accepted_seen == {True, False} and hsl_seen > 100


def test_inverse_automorphism():
    cases = [
        (COMM, linear_automorphism(COMM, 1, 2, 3, 4)),
        (ANTI, linear_automorphism(ANTI, 0, 2, 3, 0)),
        (J3, triangular_automorphism(J3, 2, 5, 8)),
        (Q13, triangular_automorphism(Q13, 2, 3, 5)),
        (QGEN, diagonal_automorphism(QGEN, zeta(3), cyc(2))),
    ]
    for spec, sigma in cases:
        tau = inverse_automorphism(sigma, spec)
        assert compose(sigma, tau, spec) == identity_automorphism(spec)
        assert compose(tau, sigma, spec) == identity_automorphism(spec)


def test_hsl_membership_examples():
    action = make_cyclic_group(COMM, 5)
    assert is_hsl(generator(action), COMM)
    assert action.is_hsl_action()
    skew = make_diagonal_action(COMM, 5, 1, 0)
    assert not skew.is_hsl_action()
    assert not is_hsl(generator(skew), COMM)
    rot = linear_automorphism(COMM, 0, 1, -1, 0)
    assert is_hsl(rot, COMM)
