import itertools
import random

import pytest

import asreg2.automorphisms

from asreg2.cyclotomic import ONE, Cyclotomic, cyc, zeta
from asreg2.linalg import Echelon
from asreg2.rationals import RAT
from asreg2.algebra import (
    AlgebraElement,
    Monomial,
    graded_basis,
    jordan_spec,
    quantum_spec,
)
from asreg2.automorphisms import (
    _coefficients,
    CyclicGroupAction,
    GradedAutomorphism,
    NotTabulatedError,
    apply_automorphism,
    diagonal_automorphism,
    hdet_table,
    is_graded_automorphism,
    linear_automorphism,
    make_cyclic_group,
    make_diagonal_action,
    relation_image,
    triangular_automorphism,
)

COMM = quantum_spec(1, 1, 1)
ANTI = quantum_spec(1, 1, -1)          # xy + yx as quantum(-1)
QGEN = quantum_spec(1, 1, zeta(5))
Q13 = quantum_spec(1, 3, 1)
Q13G = quantum_spec(1, 3, zeta(3))
Q23 = quantum_spec(2, 3, cyc(2))
J1 = jordan_spec(1)
J3 = jordan_spec(3)

UNITS = [cyc(1), cyc(-1), cyc(2), cyc(RAT(1, 2)), cyc(RAT(-3, 2)), zeta(3), zeta(4), zeta(6),
         zeta(3) * 2, zeta(6) ** 5]


class NotApplicableError(ValueError):
    """Method preconditions (normal element form / Koszul weights) not met."""


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


def is_hsl(sigma, spec):
    return hdet_table(sigma, spec).is_one()


def generator(action):
    """The generator diag(xi^px, xi^py) of a cyclic action, as a map."""
    return diagonal_automorphism(
        action.spec, action.xi_power(action.px), action.xi_power(action.py)
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
    basis = graded_basis(spec, target.degree())
    # rows (sigma(m_k), unit k): reducing (target, 0) leaves (0, -u) exactly
    # when target lies in the span of the sigma(m_k)
    ech = Echelon()
    for k, m in enumerate(basis):
        img = apply_automorphism(sigma, AlgebraElement.monomial(spec, m), spec)
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
    sigma = diagonal_automorphism(J3, 2, RAT(1, 2))
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
        yield q31, GradedAutomorphism(x.scale(a) + (y ** 3).scale(e), y.scale(d))


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
    sigma = triangular_automorphism(J1, 3, RAT(1, 2), 3)
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
                img = apply_automorphism(sigma, AlgebraElement.monomial(spec, m), spec)
                assert img.is_zero() or img.degree() == d


def test_apply_is_multiplicative_and_functorial():
    rng = random.Random(31)
    spec = J1
    s = triangular_automorphism(spec, 2, 1, 2)
    t = triangular_automorphism(spec, 3, -1, 3)
    st = compose(s, t, spec)
    for _ in range(10):
        m1 = Monomial(rng.randrange(3), rng.randrange(3))
        m2 = Monomial(rng.randrange(3), rng.randrange(3))
        u = AlgebraElement.monomial(spec, m1)
        v = AlgebraElement.monomial(spec, m2)
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
            m = AlgebraElement.monomial(COMM, Monomial(a, b))
            img = apply_automorphism(g, m, COMM)
            expected = m.scale(action.xi_power(b - a))
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


def restriction_invertible_echelon(sigma, spec, d):
    """Rank of sigma on S_d by exact elimination of the images of its basis."""
    basis = graded_basis(spec, d)
    ech = Echelon()
    for m in basis:
        ech.add(apply_automorphism(sigma, AlgebraElement.monomial(spec, m), spec).terms)
    return ech.rank == len(basis)


def restriction_invertible_diagonal(sigma, spec, d):
    """The closed form for x -> sx x, y -> sy y, which scales y^i x^j by sy^i sx^j."""
    sx, sy = sigma.image_x.coeff(Monomial(0, 1)), sigma.image_y.coeff(Monomial(1, 0))
    return all((sx or not m.b) and (sy or not m.a) for m in graded_basis(spec, d))


def test_restriction_invertible_diagonal_equals_echelon():
    specs = [COMM, ANTI, QGEN, Q13, Q13G, Q23, J1, J3, quantum_spec(2, 5, zeta(4))]
    scalars = [cyc(1), cyc(-1), cyc(RAT(2, 3)), zeta(3), zeta(5, 2), cyc(0)]
    seen = set()
    for spec in specs:
        for a in scalars:
            for d in scalars:
                sigma = diagonal_automorphism(spec, a, d)
                for deg in range(7):
                    fast = asreg2.automorphisms._restriction_invertible(sigma, spec, deg)
                    assert fast == restriction_invertible_echelon(sigma, spec, deg) == (
                        restriction_invertible_diagonal(sigma, spec, deg)), (
                        spec.describe(), a, d, deg)
                    seen.add(fast)
    assert seen == {True, False}
    # linear and triangular maps; the first map is singular (1*4 - 2*2 = 0)
    singular = linear_automorphism(COMM, 1, 2, 2, 4)
    for spec, sigma in ((COMM, singular), (ANTI, linear_automorphism(ANTI, 0, 2, 3, 0)),
                        (J3, triangular_automorphism(J3, 2, 5, 8))):
        for deg in range(4):
            assert (asreg2.automorphisms._restriction_invertible(sigma, spec, deg)
                    == restriction_invertible_echelon(sigma, spec, deg))
    assert not asreg2.automorphisms._restriction_invertible(singular, COMM, 1)


def relation_image_products(sigma, spec):
    """relation_image by products of the generator images, for every map."""
    u, v = sigma.image_x, sigma.image_y
    if spec.family == "quantum":
        return u * v - (v * u).scale(spec.alpha)
    return u * v - v * u - u ** (spec.q + 1)


def relation_image_diagonal(sigma, spec):
    """The closed form for x -> sx x, y -> sy y: sx sy times the relation, which
    is 0, resp. (sx sy - sx^(q+1)) x^(q+1) on the Jordan plane."""
    if spec.family == "quantum":
        return AlgebraElement.zero(spec)
    sx, sy = sigma.image_x.coeff(Monomial(0, 1)), sigma.image_y.coeff(Monomial(1, 0))
    return AlgebraElement.monomial(spec, Monomial(0, spec.q + 1), sx * sy - sx ** (spec.q + 1))


def test_relation_image_diagonal_equals_products():
    specs = [COMM, ANTI, QGEN, Q13, Q13G, Q23, J1, J3, jordan_spec(2)]
    scalars = [cyc(1), cyc(-1), cyc(RAT(2, 3)), zeta(3), zeta(5, 2), zeta(4) * 2, cyc(0)]
    jordan_zero = set()
    for spec in specs:
        for a in scalars:
            for d in scalars + [a ** spec.w_y]:
                sigma = diagonal_automorphism(spec, a, d)
                image = relation_image(sigma, spec)
                assert image == relation_image_products(sigma, spec) == (
                    relation_image_diagonal(sigma, spec)), (spec.describe(), a, d)
                if spec.family == "jordan":
                    jordan_zero.add(image.is_zero())
    # the Jordan sweep has automorphisms (sy = sx^q) and non-automorphisms
    assert jordan_zero == {True, False}
    assert not relation_image(diagonal_automorphism(J3, 2, 4), J3).is_zero()
    # non-diagonal maps
    for spec, sigma in ((COMM, linear_automorphism(COMM, 1, 2, 3, 4)),
                        (J3, triangular_automorphism(J3, 2, 5, 8)),
                        (J3, triangular_automorphism(J3, 2, 5, 3))):
        assert relation_image(sigma, spec) == relation_image_products(sigma, spec)


def test_make_cyclic_group_checks_exponents_only(monkeypatch):
    # the exponent test is the whole validation: no automorphism check runs
    calls = []
    monkeypatch.setattr(asreg2.automorphisms, "is_graded_automorphism",
                        lambda sigma, spec: calls.append(sigma))
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
