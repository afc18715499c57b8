import random
from fractions import Fraction
from math import gcd

import pytest

from asreg2.cyclotomic import cyc, zeta
from asreg2.algebra import (
    _y_exponents,
    AlgebraElement,
    AlgebraSpec,
    Monomial,
    graded_basis,
    hilbert_dims,
    monomial_product,
    quantum_spec,
    reduce_product,
)
from test_automorphisms import degree, jordan_spec, monomial, one as element_one, power


# --- independent single-step rewriting oracle ---------------------------
#
# Words over {"x","y"} with coefficients; one rewrite step replaces the
# leftmost "xy" factor, exhaustively until normal form.  Slow but obviously
# correct, used to pin down reduce_product.

def oracle_normal_form(spec, word, coeff=None):
    coeff = cyc(1) if coeff is None else coeff
    result = {}
    stack = [(word, coeff)]
    while stack:
        w, c = stack.pop()
        pos = w.find("xy")
        if pos < 0:
            a = w.count("y")
            b = w.count("x")
            key = Monomial(a, b)
            cur = result.get(key, cyc(0))
            result[key] = cur + c
            continue
        head, tail = w[:pos], w[pos + 2:]
        if spec.family == "quantum":
            stack.append((head + "yx" + tail, c * spec.alpha))
        else:
            stack.append((head + "yx" + tail, c))
            stack.append((head + "x" * (spec.q + 1) + tail, c))
    return {m: c for m, c in result.items() if not c.is_zero()}


def mono_word(m):
    return "y" * m.a + "x" * m.b


def elem_from_dict(spec, d):
    return AlgebraElement(spec, d)


COMM = quantum_spec(1, 1, 1)
QUANT5 = quantum_spec(1, 1, zeta(5))
J1 = jordan_spec(1)
J2 = jordan_spec(2)
W13 = quantum_spec(1, 3, 1)
W35 = quantum_spec(3, 5, cyc(Fraction(2, 1)))


def test_validate_spec():
    # a spec checks itself on construction, so no invalid one exists; each
    # refusal names the first rule broken, Jordan's own rules first
    for args, message in (
            ((2, 4, "quantum", cyc(1)), "weights must be coprime, got (2, 4)"),
            ((0, 1, "quantum", cyc(1)), "weights must be positive"),
            ((1, -3, "jordan"), "weights must be positive"),
            ((2, 4, "quantum", cyc(0)), "weights must be coprime, got (2, 4)"),
            ((1, 1, "quantum", cyc(0)), "quantum family needs a nonzero alpha"),
            ((1, 1, "quantum"), "quantum family needs a nonzero alpha"),
            ((2, 3, "jordan"), "jordan family needs w_x = 1"),
            ((0, 0, "jordan", "zz"), "jordan family needs w_x = 1"),
            ((1, 2, "jordan", cyc(2)), "jordan family takes no alpha"),
            ((1, 2, "cubic", cyc(1)), "unknown family 'cubic'")):
        with pytest.raises(ValueError) as e:
            AlgebraSpec(*args)
        assert str(e.value) == message, args
    # the inverse of w_y mod w_x that fixes each degree's y-exponents
    assert AlgebraSpec(1, 1, "quantum", cyc(1)).wy_inv == 0
    assert [quantum_spec(5, wy, 1).wy_inv * wy % 5 for wy in (1, 2, 3, 4)] == [1] * 4


def test_quantum_single_rewrite():
    x, y = AlgebraElement.gen_x(QUANT5), AlgebraElement.gen_y(QUANT5)
    prod = x * y
    assert prod.terms == {Monomial(1, 1): zeta(5)}


def test_identity_element():
    one = element_one(W13)
    v = AlgebraElement(W13, {Monomial(2, 1): cyc(3), Monomial(0, 4): cyc(-1)})
    assert one * v == v
    assert v * one == v


def test_jordan_x2_y_against_oracle():
    x, y = AlgebraElement.gen_x(J1), AlgebraElement.gen_y(J1)
    got = (x * x) * y
    expected = oracle_normal_form(J1, "xxy")
    assert got.terms == expected
    # matches y x^2 + 2 x^3
    assert got.terms == {Monomial(1, 2): cyc(1), Monomial(0, 3): cyc(2)}


def test_jordan_relation_holds():
    for spec in (J1, J2):
        x, y = AlgebraElement.gen_x(spec), AlgebraElement.gen_y(spec)
        lhs = x * y - y * x - power(x, spec.q + 1)
        assert lhs.is_zero()


def test_quantum_commutation_exact():
    x, y = AlgebraElement.gen_x(QUANT5), AlgebraElement.gen_y(QUANT5)
    assert x * y == (y * x).scale(zeta(5))
    xc, yc = AlgebraElement.gen_x(COMM), AlgebraElement.gen_y(COMM)
    assert xc * yc == yc * xc


def test_random_products_against_oracle():
    rng = random.Random(7)
    for spec in (J1, J2, QUANT5):
        for _ in range(25):
            m1 = Monomial(rng.randrange(3), rng.randrange(3))
            m2 = Monomial(rng.randrange(3), rng.randrange(3))
            got = reduce_product(
                monomial(spec, m1), monomial(spec, m2), spec
            )
            expected = oracle_normal_form(spec, mono_word(m1) + mono_word(m2))
            assert got.terms == expected


def test_monomial_product_closed_form_against_oracle():
    # the x^b y^a junction of (y^a1 x^b)(y^a x^b2), on both planes: the
    # closed form against word rewriting, and the leading term of the
    # leading-term counts
    specs = [jordan_spec(q) for q in range(1, 5)] + [QUANT5, W35]
    for spec in specs:
        for a in range(5):
            for b in range(5):
                for a1, b2 in ((0, 0), (1, 2)):
                    m1, m2 = Monomial(a1, b), Monomial(a, b2)
                    got = monomial_product(spec, m1, m2)
                    expected = oracle_normal_form(spec, mono_word(m1) + mono_word(m2))
                    assert got == expected, (spec.describe(), m1, m2)
                    assert max(got) == Monomial(a1 + a, b + b2)


def random_homogeneous(rng, spec, d):
    basis = graded_basis(spec, d)
    terms = {}
    for m in basis:
        if rng.random() < 0.7:
            terms[m] = cyc(rng.choice([1, -1, 2, Fraction(1, 2), 3]))
    if not terms and basis:
        terms[basis[0]] = cyc(1)
    return AlgebraElement(spec, terms)


def test_memos_are_scoped_to_their_spec():
    # three specs with the weights (1, 2), products interleaved among them:
    # each spec's answers are those a fresh spec gives on its first call
    makers = (lambda: quantum_spec(1, 2, 2), lambda: quantum_spec(1, 2, 3), lambda: jordan_spec(2))
    shared = [make() for make in makers]
    monos = [Monomial(a, b) for a in range(4) for b in range(4)]
    pairs = [(m1, m2) for m1 in monos for m2 in monos]
    random.Random(11).shuffle(pairs)
    got = {}
    for _ in range(2):  # the second pass reads the memos
        for m1, m2 in pairs:
            for k, spec in enumerate(shared):
                got.setdefault((k, m1, m2), []).append(monomial_product(spec, m1, m2))
    for (k, m1, m2), answers in got.items():
        first = monomial_product(makers[k](), m1, m2)
        assert answers == [first, first], (k, m1, m2)
        assert first == oracle_normal_form(shared[k], mono_word(m1) + mono_word(m2))
    # a list from graded_basis is the caller's to keep and change
    for spec in shared:
        basis = graded_basis(spec, 6)
        expected = list(basis)
        basis.append(Monomial(9, 9))
        basis[0] = Monomial(7, 7)
        assert graded_basis(spec, 6) == expected == graded_basis(makers[0](), 6)


def test_associativity_randomized():
    rng = random.Random(99)
    for spec in (COMM, QUANT5, J1, J2, W35):
        for _ in range(8):
            # products reach degree 12
            du, dv, dw = rng.randrange(5), rng.randrange(5), rng.randrange(5)
            u = random_homogeneous(rng, spec, du)
            v = random_homogeneous(rng, spec, dv)
            w = random_homogeneous(rng, spec, dw)
            assert (u * v) * w == u * (v * w)


def test_degree_additivity():
    rng = random.Random(4242)
    for spec in (QUANT5, J2, W13, W35):
        for _ in range(10):
            du, dv = rng.randrange(1, 7), rng.randrange(1, 7)
            u = random_homogeneous(rng, spec, du)
            v = random_homogeneous(rng, spec, dv)
            p = u * v
            if u.is_zero() or v.is_zero():
                continue
            assert degree(p) == (degree(u) or 0) + (degree(v) or 0)


def test_graded_basis_examples():
    assert graded_basis(COMM, 2) == [Monomial(0, 2), Monomial(1, 1), Monomial(2, 0)]
    assert graded_basis(W13, 3) == [Monomial(0, 3), Monomial(1, 0)]
    assert graded_basis(W13, 0) == [Monomial(0, 0)]
    assert graded_basis(W35, 8) == [Monomial(1, 1)]


def series_dims(w_x, w_y, D):
    # coefficient-of-t^d oracle for 1/((1-t^w_x)(1-t^w_y))
    gx = [1 if d % w_x == 0 else 0 for d in range(D + 1)]
    gy = [1 if d % w_y == 0 else 0 for d in range(D + 1)]
    return [sum(gx[i] * gy[d - i] for i in range(d + 1)) for d in range(D + 1)]


def test_hilbert_dims_examples_and_series():
    assert hilbert_dims(COMM, 3) == [1, 2, 3, 4]
    assert hilbert_dims(W13, 4) == [1, 1, 1, 2, 2]
    assert hilbert_dims(W35, 8) == [1, 0, 0, 1, 0, 1, 1, 0, 1]
    for spec in (COMM, W13, W35, J2):
        assert hilbert_dims(spec, 30) == series_dims(spec.w_x, spec.w_y, 30)


def test_hilbert_dims_and_graded_basis_by_enumeration():
    # w_x = 5 is the first weight where w_y^-1 mod w_x differs from w_y
    for wx in range(1, 6):
        for wy in range(1, 6):
            if gcd(wx, wy) != 1:
                continue
            spec = quantum_spec(wx, wy, 1)
            assert graded_basis(spec, -1) == []
            for d, n in enumerate(hilbert_dims(spec, 60)):
                basis = graded_basis(spec, d)
                assert n == len(basis), (wx, wy, d)
                assert basis == [Monomial(a, b) for a in range(d + 1) for b in range(d + 1)
                                 if a * wy + b * wx == d], (wx, wy, d)


def veronese_dim(spec, r, shift, d):
    """dim of (S(shift)^(r))_d, i.e. dim S_(r*d + shift)."""
    if r < 1:
        raise ValueError("Veronese parameter must be >= 1")
    return len(_y_exponents(spec, r * d + shift))


def test_veronese_dims():
    assert veronese_dim(COMM, 2, 0, 1) == 3  # dim S_2
    for d in range(6):
        assert veronese_dim(W13, 1, 0, d) == len(graded_basis(W13, d))
    assert veronese_dim(COMM, 3, -7, 1) == 0
    with pytest.raises(ValueError):
        veronese_dim(COMM, 0, 0, 1)


def quasi_veronese_dim(spec, r, d):
    """dim of the r-th quasi-Veronese in degree d: sum of the r*r entry dims."""
    return sum(veronese_dim(spec, r, j - i, d) for i in range(r) for j in range(r))


def test_quasi_veronese_entrywise():
    # sum over the 9 shifted-Veronese entries, checked entry by entry
    spec = COMM
    total = 0
    for i in range(3):
        for j in range(3):
            total += veronese_dim(spec, 3, j - i, 1)
    assert quasi_veronese_dim(spec, 3, 1) == total == 36
    # the (0,0) corner entry is the plain Veronese
    for d in range(5):
        assert veronese_dim(spec, 3, 0, d) == len(graded_basis(spec, 3 * d))
