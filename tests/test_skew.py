import random
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import asreg2.automorphisms
import asreg2.skew

from asreg2.cyclotomic import ONE, Cyclotomic, cyc, zeta
from asreg2.rationals import RAT
from asreg2.algebra import (
    MONO_ONE,
    Monomial,
    SparseElement,
    graded_basis,
    hilbert_dims,
    jordan_spec,
    monomial_product,
    quantum_spec,
    reduce_product,
)
from asreg2.linalg import Echelon
from asreg2.automorphisms import (
    CyclicGroupAction,
    make_cyclic_group,
    make_diagonal_action,
)
from asreg2.skew import (
    _walked_quotient_dims,
    ampleness_report,
    corner_dimension_checks,
    default_window,
    fixed_ring_dims,
    ideal_e_dims,
    min_phi_degree,
    molien_dims,
    rho_system,
    skew_dim,
    skew_mul_basis,
)
from test_automorphisms import generator, hdet_table, monomial

COMM = quantum_spec(1, 1, 1)
QUANT5 = quantum_spec(1, 1, zeta(5))
W13 = quantum_spec(1, 3, 1)
J1 = jordan_spec(1)


# ---------------------------------------------------------------------------
# S*G on the g-basis of its definition: the oracle for the rho-eigenbasis


def g_skew_mul_basis(action, k1, k2):
    """(a*g^s)(b*g^t) = a g^s(b) * g^(s+t) with the diagonal action."""
    (m1, s), (m2, t) = k1, k2
    # g^s scales the monomial m2 by xi^(s * char(m2))
    c = action.xi_power(s * action.char(m2))
    gexp = (s + t) % action.r
    return {(m, gexp): c * cm for m, cm in monomial_product(action.spec, m1, m2).items()}


class GSkewElement(SparseElement):
    """Finite combination of (y^a x^b, g^s) with exact coefficients."""

    __slots__ = ()

    @staticmethod
    def _key(action, key):
        m, s = key
        return (Monomial(*m), s % action.r)

    _basis_mul = staticmethod(g_skew_mul_basis)

    @staticmethod
    def one(action):
        return GSkewElement(action, {(MONO_ONE, 0): ONE})

    @staticmethod
    def basis_element(action, mono, s, coeff=ONE):
        return GSkewElement(action, {(mono, s): coeff})


def g_idempotent_e(action):
    """e = (1/r) sum_s 1*g^s in the g-basis."""
    w = cyc(RAT(1, action.r))
    return GSkewElement(action, {(MONO_ONE, s): w for s in range(action.r)})


class SkewElement(SparseElement):
    """Finite combination of (y^a x^b, rho_w) with exact coefficients: S*G on
    the rho-eigenbasis, with the product of skew_mul_basis."""

    __slots__ = ()

    @staticmethod
    def _key(action, key):
        m, w = key
        return (Monomial(*m), w % action.r)

    _basis_mul = staticmethod(skew_mul_basis)

    @staticmethod
    def one(action):
        return SkewElement(action, {(MONO_ONE, w): ONE for w in range(action.r)})

    @staticmethod
    def basis_element(action, mono, w, coeff=ONE):
        return SkewElement(action, {(mono, w): coeff})


def idempotent_e(action):
    """e = (1/r) sum_s g^s = rho_0, a unit vector of the basis."""
    return SkewElement.basis_element(action, MONO_ONE, 0)


def rho_idempotents(action):
    """rho_j = (1/r) sum_s xi^(j s) g^s, the unit vectors of the basis; rho_0 = e."""
    return [SkewElement.basis_element(action, MONO_ONE, j) for j in range(action.r)]


def to_g_basis(u, g_cls):
    """T(k rho_w) = (1/r) sum_s xi^(w s) k g^s, for k the rest of a basis key.

    Maps an eigenbasis element u (of S*G or of Lambda, whose keys end in w)
    to the g-basis class g_cls.
    """
    action = u.ctx
    r = action.r
    terms = {}
    for (*rest, w), c in u.terms.items():
        for s in range(r):
            key = (*rest, s)
            terms[key] = terms.get(key, cyc(0)) + c * cyc(RAT(1, r)) * action.xi_power(w * s)
    return g_cls(action, terms)


def assert_g_basis_link(action, keys, cls, g_cls):
    """T is bijective on the span of keys and T(a)T(b) = T(ab) on all pairs.

    keys holds every w with each rest, so the g-basis keys of the same
    rests span a space of the same dimension as the keys.
    """
    basis = {k: cls(action, {k: ONE}) for k in keys}
    image = {k: to_g_basis(u, g_cls) for k, u in basis.items()}
    ech = Echelon()
    for t in image.values():
        ech.add(dict(t.terms))
    assert ech.rank == len(keys)
    for a in keys:
        for b in keys:
            assert image[a] * image[b] == to_g_basis(basis[a] * basis[b], g_cls), (a, b)


LINK_CASES = ((COMM, 3), (W13, 4), (J1, 2), (QUANT5, 3))


def ideal_e_dims_blocked(spec, action, D):
    """dim (e)_d by exact elimination in every (c, w) character block.

    Reference for ideal_e_dims: block (c, w) of degree d is the span of the
    products u v of monomials with deg u + deg v = d, char v = w and
    char(u v) = c, reduced with one Echelon per block from every pair.
    """
    r = action.r
    out = []
    basis = [[(action.char(m), monomial(spec, m)) for m in graded_basis(spec, d)]
             for d in range(D + 1)]
    for d in range(D + 1):
        capacity = Counter(c for c, _ in basis[d])
        blocks = {}
        full = set()
        total = 0
        for i in range(d + 1):
            for c1, u in basis[i]:
                for w, v in basis[d - i]:
                    c = (c1 + w) % r
                    key = (c, w)
                    if key in full:
                        continue
                    ech = blocks.get(key)
                    if ech is None:
                        ech = blocks[key] = Echelon()
                    if ech.add(reduce_product(u, v, spec).terms):
                        total += 1
                        if ech.rank == capacity[c]:
                            full.add(key)
        out.append(total)
    return out


def _skew_basis(action, d):
    return [(m, s) for m in graded_basis(action.spec, d) for s in range(action.r)]


def ideal_e_dims_naive(spec, action, D):
    """Literal spanning-set rank of { u e v } over all g-basis pairs; slow reference."""
    e = g_idempotent_e(action)
    out = []
    for d in range(D + 1):
        ech = Echelon()
        for i in range(d + 1):
            for (m1, a) in _skew_basis(action, i):
                u = GSkewElement.basis_element(action, m1, a)
                ue = u * e
                for (m2, b) in _skew_basis(action, d - i):
                    v = GSkewElement.basis_element(action, m2, b)
                    uev = ue * v
                    ech.add(dict(uev.terms))
        out.append(ech.rank)
    return out


def phi_injectivity_oracle(spec, action, D):
    """Injectivity of s*g -> [t -> s g(t)] on (S*G)_{<=D} by exact elimination.

    Maps every basis element of (S*G)_{<=D} to its operator on S_{<=D}
    (with outputs in S_{<=2D}) and checks the combined matrix has full row
    rank.
    """
    ech = Echelon()
    count = 0
    for deg in range(D + 1):
        for (m, s) in _skew_basis(action, deg):
            row = {}
            for dt in range(D + 1):
                for t in graded_basis(spec, dt):
                    scal = action.xi_power(s * action.char(t))
                    for mono, c in monomial_product(spec, m, t).items():
                        row[(dt, t, mono)] = scal * c
            count += 1
            ech.add(row)
    return ech.rank == count


def test_skew_mul_convention():
    action = make_cyclic_group(COMM, 3)
    x = GSkewElement.basis_element(action, Monomial(0, 1), 1)   # x * g
    y = GSkewElement.basis_element(action, Monomial(1, 0), 0)   # y * 1
    prod = x * y
    # x g(y) * g = xi^-1 * yx * g
    assert prod.terms == {(Monomial(1, 1), 1): action.xi_power(-1)}


def test_skew_unit_and_group_law():
    action = make_cyclic_group(W13, 4)
    one = GSkewElement.one(action)
    v = GSkewElement(action, {(Monomial(1, 2), 3): cyc(5), (Monomial(0, 1), 0): zeta(3)})
    assert one * v == v
    assert v * one == v
    for s in range(4):
        for t in range(4):
            gs = GSkewElement.basis_element(action, Monomial(0, 0), s)
            gt = GSkewElement.basis_element(action, Monomial(0, 0), t)
            assert (gs * gt).terms == {(Monomial(0, 0), (s + t) % 4): cyc(1)}


def test_skew_mul_associative_randomized():
    rng = random.Random(11)
    for spec, r in ((COMM, 3), (J1, 2), (W13, 2)):
        action = make_cyclic_group(spec, r)
        pool = []
        for d in range(4):
            for m in graded_basis(spec, d):
                for s in range(r):
                    pool.append(SkewElement.basis_element(action, m, s, rng.choice([1, 2, -1])))
        for _ in range(20):
            u, v, w = (rng.choice(pool) for _ in range(3))
            assert (u * v) * w == u * (v * w)


def test_idempotent_e():
    for spec, r in ((COMM, 1), (COMM, 2), (COMM, 3), (J1, 2)):
        action = make_cyclic_group(spec, r)
        e = g_idempotent_e(action)
        assert e * e == e
        # the library's e is the unit vector rho_0, whose image is this e
        assert idempotent_e(action) == SkewElement.basis_element(action, MONO_ONE, 0)
        assert to_g_basis(idempotent_e(action), GSkewElement) == e
        if r == 1:
            assert e == GSkewElement.one(action)
        if r == 2:
            half = cyc(1) / cyc(2)
            assert e.terms == {(Monomial(0, 0), 0): half, (Monomial(0, 0), 1): half}


def test_rho_idempotents_orthogonal_complete():
    for spec, r in ((COMM, 1), (COMM, 3), (W13, 4), (J1, 2)):
        action = make_cyclic_group(spec, r)
        rhos = rho_idempotents(action)
        assert rhos[0] == idempotent_e(action)
        assert rho_system(action) is True
        total = SkewElement(action)
        for i, ri in enumerate(rhos):
            total = total + ri
            for j, rj in enumerate(rhos):
                prod = ri * rj
                if i == j:
                    assert prod == ri
                else:
                    assert prod.is_zero()
        assert total == SkewElement.one(action)
        assert to_g_basis(total, GSkewElement) == GSkewElement.one(action)


def test_skew_eigenbasis_linked_to_g_basis():
    # every basis pair of S*G up to degree 3
    for spec, r in LINK_CASES:
        action = make_cyclic_group(spec, r)
        keys = [k for d in range(4) for k in _skew_basis(action, d)]
        assert_g_basis_link(action, keys, SkewElement, GSkewElement)


def test_skew_dims():
    action = make_cyclic_group(W13, 5)
    for d in range(8):
        assert skew_dim(action, d) == 5 * len(graded_basis(W13, d))


def fixed_ring_basis(action, d):
    """Monomials of degree d fixed by the action (character zero)."""
    return [m for m in graded_basis(action.spec, d) if action.char(m) == 0]


def test_fixed_ring_basis_example():
    action = make_cyclic_group(COMM, 3)
    assert fixed_ring_basis(action, 3) == [Monomial(0, 3), Monomial(3, 0)]
    assert fixed_ring_dims(action, 6) == [1, 0, 1, 2, 1, 2, 3]
    # trivial group keeps everything
    triv = make_cyclic_group(COMM, 1)
    for d in range(5):
        assert fixed_ring_basis(triv, d) == graded_basis(COMM, d)


def test_fixed_ring_multiplicatively_closed():
    action = make_cyclic_group(W13, 3)
    for d1 in range(5):
        for m1 in fixed_ring_basis(action, d1):
            for d2 in range(5):
                for m2 in fixed_ring_basis(action, d2):
                    prod = monomial(W13, m1) * monomial(W13, m2)
                    for m in prod.terms:
                        assert action.char(m) == 0


def test_fixed_ring_matches_classical_hypersurface_series():
    # for the commutative plane and the order-r hdet-one action the fixed
    # ring is generated by u = x^r, v = x y, w = y^r with one relation
    # u w = v^r, so its Hilbert series is (1 - t^(2r)) / ((1-t^r)^2 (1-t^2));
    # expand that independently and compare
    D = 20
    for r in range(2, 7):
        series = [0] * (D + 1)
        for a in range(0, D // 2 + 1):          # powers of v
            for b in range(0, D // r + 1):      # powers of u
                for c in range(0, D // r + 1):  # powers of w
                    if b and c:
                        continue  # u w reduces via the relation
                    d = 2 * a + r * b + r * c
                    if d <= D:
                        series[d] += 1
        action = make_cyclic_group(COMM, r)
        assert fixed_ring_dims(action, D) == series, r


def test_molien_check():
    for spec, r in ((COMM, 3), (COMM, 1), (W13, 2), (W13, 6), (J1, 2), (QUANT5, 3)):
        action = make_cyclic_group(spec, r)
        assert molien_dims(action, 12) == fixed_ring_dims(action, 12)


def test_molien_against_local_recomputation():
    # recompute the trace average here, independently of molien_dims
    spec, r = COMM, 4
    action = make_cyclic_group(spec, r)
    for d in range(8):
        total = cyc(0)
        for s in range(r):
            for m in graded_basis(spec, d):
                total = total + zeta(r) ** (s * ((m.b - m.a) % r))
        avg = total * cyc(1) / cyc(r)
        assert avg == cyc(molien_dims(action, d)[d])


def molien_dims_per_degree(spec, action, D):
    """molien_dims by the trace loop of its definition: in every degree, r *
    #chars roots of unity summed over the group elements s and the
    characters c.  The oracle of molien_dims."""
    r = action.r
    out = []
    for d in range(D + 1):
        counts = Counter(map(action.char, graded_basis(spec, d)))
        total = cyc(0)
        for s in range(r):
            for c, n in counts.items():
                total = total + action.xi_power(s * c) * n
        avg = total * cyc(RAT(1, r))
        assert avg.is_rational() and avg.rational_value().denominator == 1
        out.append(int(avg.rational_value().numerator))
    return out


def _diagonal_actions(spec, r, rng):
    """Every admissible diagonal action of order r for r <= 6, else six at random."""
    pairs = [(px, py) for px in range(r) for py in range(r)]
    if r > 6:
        pairs = rng.sample(pairs, 6) + [(1, r - 1)]
    for px, py in pairs:
        if spec.family == "jordan" and (py - spec.q * px) % r:
            continue
        yield make_diagonal_action(spec, r, px, py)


def test_molien_dims_against_per_degree_trace_loop():
    # HSL and non-HSL diagonal actions, r up to 12
    rng = random.Random(5)
    checked = hsl = 0
    for spec in (COMM, QUANT5, W13, quantum_spec(2, 3, 2), J1, jordan_spec(2)):
        for r in range(1, 13):
            for action in _diagonal_actions(spec, r, rng):
                D = 10
                assert molien_dims(action, D) == molien_dims_per_degree(spec, action, D), \
                    (spec.describe(), action.describe())
                checked += 1
                hsl += action.is_hsl_action()
    assert checked > 300 and 0 < hsl < checked


def test_molien_dims_work_is_one_power_sum_per_character(monkeypatch):
    # one cyclotomic_sum of r/g table entries per distinct g = gcd(c, r) over
    # the characters c, no field addition, and no field product after the
    # power sums: the per-degree combination is in integers, where the
    # per-degree loop made r additions per (degree, character)
    events, powers = [], [0]
    add, mul = Cyclotomic.__add__, Cyclotomic.__mul__
    xi_power = asreg2.automorphisms.CyclicGroupAction.xi_power
    cyclotomic_sum = asreg2.skew.cyclotomic_sum

    def counted_sum(values):
        total = cyclotomic_sum(values)
        events.append("sum")
        return total

    def counted_add(self, other):
        events.append("add")
        return add(self, other)

    def counted_mul(self, other):
        events.append("mul")
        return mul(self, other)

    def counted_power(self, k):
        powers[0] += 1
        return xi_power(self, k)

    spec, r, D = QUANT5, 12, 30
    action = make_diagonal_action(spec, r, 1, 2)
    per_degree = [{action.char(m) for m in graded_basis(spec, d)} for d in range(D + 1)]
    gcds = {gcd(c, r) for c in set().union(*per_degree)}
    assert len(gcds) > 1
    monkeypatch.setattr(Cyclotomic, "__add__", counted_add)
    monkeypatch.setattr(Cyclotomic, "__mul__", counted_mul)
    monkeypatch.setattr(asreg2.automorphisms.CyclicGroupAction, "xi_power", counted_power)
    monkeypatch.setattr(asreg2.skew, "cyclotomic_sum", counted_sum)
    dims = molien_dims(action, D)
    last_sum = len(events) - events[::-1].index("sum")
    monkeypatch.undo()
    assert dims == fixed_ring_dims(action, D)
    assert events.count("sum") == len(gcds) and "add" not in events
    assert powers[0] == sum(r // g for g in gcds) < r * len(gcds)
    assert "mul" not in events[last_sum:]


def molien_dims_counter(action, D):
    """molien_dims as it counted before the progression: the characters by a
    Counter over graded_basis, and each power sum T(g) as r field additions.
    The oracle of the progression count and of the r/g-entry power sums."""
    r = action.r
    power_sums = {}
    out = []
    for d in range(D + 1):
        total = 0
        for c, n in Counter(map(action.char, graded_basis(action.spec, d))).items():
            g = gcd(c, r)
            if g not in power_sums:
                t = sum((action.xi_power(s * g) for s in range(r)), cyc(0))
                if not t.is_rational() or t.rational_value().denominator != 1:
                    raise ArithmeticError("power sum of xi^%d must be an integer" % g)
                power_sums[g] = t.rational_value().numerator
            total += n * power_sums[g]
        if total % r:
            raise ArithmeticError("trace average must be an integer")
        out.append(total // r)
    return out


def test_progression_count_equals_counter_sweep():
    # the characters of S_d as a progression, in graded_basis order, and the
    # trace average on them, against the Counter over the monomials; every
    # diagonal action of order <= 12 on four quantum planes and two Jordan
    # planes, non-faithful ones included
    checked = 0
    for spec in (COMM, quantum_spec(1, 2, 1), quantum_spec(2, 3, zeta(5)), quantum_spec(3, 2, -1),
                 J1, jordan_spec(3)):
        for r in range(1, 13):
            for px in range(r):
                for py in range(r):
                    if spec.family == "jordan" and (py - spec.q * px) % r:
                        continue
                    action = make_diagonal_action(spec, r, px, py)
                    for d in range(13):
                        assert asreg2.skew._characters(action, d) == [
                            action.char(m) for m in graded_basis(spec, d)], (action, d)
                    assert molien_dims(action, 12) == molien_dims_counter(action, 12), action
                    checked += 1
    assert checked == 4 * 650 + 2 * 78
    for xi in (ONE + zeta(5), cyc(2)):
        with pytest.raises(ArithmeticError):
            molien_dims_counter(CyclicGroupAction(COMM, 4, xi, 1, -1), 3)


@pytest.mark.parametrize("xi", [ONE + zeta(5), cyc(2)], ids=["1+zeta(5)", "2"])
def test_molien_dims_refuses_a_non_root_of_unity(xi):
    # 1 + zeta(5) has irrational power sums; 2 has integer power sums
    # (T(1) = 1 + 2 + 4 + 8) but the degree-1 average 2 T(1) / 4 is no integer
    action = CyclicGroupAction(COMM, 4, xi, 1, -1)
    with pytest.raises(ArithmeticError):
        molien_dims(action, 3)


def corner_dimension_checks_echelon(spec, action, D):
    """corner_dimension_checks by exact Echelon ranks of the element products."""
    e = idempotent_e(action)
    rows = []
    for d in range(D + 1):
        ece, se, es = Echelon(), Echelon(), Echelon()
        for m, w in _skew_basis(action, d):
            u = SkewElement.basis_element(action, m, w)
            ue = u * e
            se.add(dict(ue.terms))
            es.add(dict((e * u).terms))
            ece.add(dict((e * ue).terms))
        dim_s = len(graded_basis(spec, d))
        dim_fixed = len(fixed_ring_basis(action, d))
        row = {"d": d, "corner_eSGe": ece.rank, "fixed": dim_fixed,
               "SGe": se.rank, "eSG": es.rank, "dim_S": dim_s}
        row["ok"] = ece.rank == dim_fixed and se.rank == dim_s and es.rank == dim_s
        rows.append(row)
    return {"ok": all(row["ok"] for row in rows), "rows": rows}


def corner_dimension_checks_per_character(spec, action, D):
    """corner_dimension_checks with every product formed at every (m, w),
    w in Z/r, zero ones included: its oracle for the products it skips."""
    e = (MONO_ONE, 0)
    rows = []
    for d in range(D + 1):
        basis = graded_basis(spec, d)
        ece, se, es = [], [], []
        for u in [(m, w) for m in basis for w in range(action.r)]:
            ue = asreg2.skew.skew_mul_basis(action, u, e)
            se.append(ue)
            es.append(asreg2.skew.skew_mul_basis(action, e, u))
            ece += [asreg2.skew.skew_mul_basis(action, e, k) for k in ue]
        single = all(len(p) <= 1 and all(p.values()) for p in ece + se + es)
        n_ece, n_se, n_es = (len(set().union(*prods)) for prods in (ece, se, es))
        dim_s, dim_fixed = len(basis), len(fixed_ring_basis(action, d))
        row = {"d": d, "corner_eSGe": n_ece, "fixed": dim_fixed,
               "SGe": n_se, "eSG": n_es, "dim_S": dim_s}
        row["ok"] = single and (n_ece, n_se, n_es) == (dim_fixed, dim_s, dim_s)
        rows.append(row)
    return {"ok": all(row["ok"] for row in rows), "rows": rows}


def test_corner_dimension_checks_equal_per_character_loop():
    # every diagonal action of order r <= 6, non-faithful ones included, on
    # the quantum planes of five weight pairs and the Jordan planes q <= 5
    rng = random.Random(7)
    specs = [quantum_spec(wx, wy, alpha) for (wx, wy), alpha in (
        ((1, 1), zeta(5)), ((1, 2), 1), ((2, 3), RAT(2, 3)), ((3, 5), -1), ((2, 1), 1))]
    specs += [jordan_spec(q) for q in range(1, 6)]
    checked = faithful = 0
    for spec in specs:
        for r in range(1, 7):
            for action in _diagonal_actions(spec, r, rng):
                report = corner_dimension_checks(action, 6)
                assert report == corner_dimension_checks_per_character(spec, action, 6), \
                    (spec.describe(), action.describe())
                checked += 1
                faithful += gcd(action.px, action.py, r) == 1
    assert checked == 5 * 91 + 5 * 21 and 0 < faithful < checked


def test_corner_dimension_checks():
    for spec, r in ((COMM, 2), (COMM, 1), (W13, 6), (J1, 2)):
        action = make_cyclic_group(spec, r)
        report = corner_dimension_checks(action, 8)
        assert report["ok"], report


def test_corner_dimension_checks_equal_echelon_ranks():
    # whole rows, on the hdet-one sweep and on non-HSL actions
    actions = [make_cyclic_group(spec, r) for spec, r in _sweep_cases()]
    actions += [make_diagonal_action(COMM, 6, 2, 3), make_diagonal_action(W13, 4, 1, 0),
                make_diagonal_action(J1, 3, 1, 1)]
    for action in actions:
        spec = action.spec
        assert corner_dimension_checks(action, 6) == corner_dimension_checks_echelon(
            spec, action, 6), (spec.describe(), action.describe())


def test_corner_dimension_checks_reject_products_of_two_terms(monkeypatch):
    # a rank read off keys needs single-term products: a second term fails the row
    real = asreg2.skew.skew_mul_basis

    def two_terms(action, k1, k2):
        prod = real(action, k1, k2)
        if k2 == (MONO_ONE, 0) and k1[0] == Monomial(0, 2):
            prod[(Monomial(1, 1), 0)] = ONE
        return prod

    monkeypatch.setattr(asreg2.skew, "skew_mul_basis", two_terms)
    action = make_cyclic_group(COMM, 3)
    rows = corner_dimension_checks(action, 3)["rows"]
    assert [row["ok"] for row in rows] == [True, True, False, True]


def ideal_e_dims_window(spec, action, D):
    """ideal_e_dims extended by r dim S_d past its stop to the window 0..D.

    Asserts the prefix contract: the walk ends exactly h = max(w_x, w_y)
    full degrees after the last degree that is not full, or at D + 1.
    """
    prefix = ideal_e_dims(action, D)
    dims = hilbert_dims(spec, D)
    r, h = action.r, max(spec.w_x, spec.w_y)
    last_not_full = max((d for d, n in enumerate(prefix) if n != r * dims[d]), default=-1)
    assert len(prefix) == min(last_not_full + 1 + h, D + 1), (
        spec.describe(), action.describe(), D, len(prefix))
    return prefix + [r * n for n in dims[len(prefix):]]


def test_ideal_dims_blocked_equals_naive():
    for spec, r in ((COMM, 3), (W13, 2), (J1, 2), (QUANT5, 2)):
        action = make_cyclic_group(spec, r)
        assert ideal_e_dims_window(spec, action, 6) == ideal_e_dims_naive(spec, action, 6)
    # non-hdet-one diagonal action goes through the same reduction
    action = make_diagonal_action(COMM, 3, 1, 0)
    assert ideal_e_dims_window(COMM, action, 6) == ideal_e_dims_naive(COMM, action, 6)


QUANTUM_WEIGHTS = [(wx, wy) for wx in range(1, 4) for wy in range(1, 6) if gcd(wx, wy) == 1]
JORDAN_CASES = [(q, r) for r in range(2, 5) for q in range(1, 8) if (q + 1) % r == 0]
ALPHA_KINDS = ("1", "-1", "2/3", "zeta3", "zeta5")


def _alpha(kind, k):
    """A quantum parameter: 1, -1, 2/3, zeta(3)^k or zeta(5)^k."""
    return {"1": cyc(1), "-1": cyc(-1), "2/3": cyc(RAT(2, 3)),
            "zeta3": zeta(3, k), "zeta5": zeta(5, k)}[kind]


def _assert_count_matches_oracle(spec, action):
    D = 2 * spec.ell * action.r
    assert ideal_e_dims_window(spec, action, D) == ideal_e_dims_blocked(spec, action, D), (
        spec.describe(), action.describe())


def _sweep_cases():
    """(spec, r) of the hdet-one sweep: seeded weights for every alpha kind, and the Jordan cases."""
    rng = random.Random(20140)
    cases = []
    for kind in ALPHA_KINDS:
        for r in range(2, 6):
            wx, wy = rng.choice(QUANTUM_WEIGHTS)
            cases.append((quantum_spec(wx, wy, _alpha(kind, rng.randrange(1, 5))), r))
    return cases + [(jordan_spec(q), r) for q, r in JORDAN_CASES]


def _count_cases():
    """(spec, action) of the count's oracle sweep, quantum and Jordan."""
    cases = [(spec, make_cyclic_group(spec, r)) for spec, r in _sweep_cases()]
    # r = 1: one-bit masks
    cases.append((W13, make_cyclic_group(W13, 1)))
    # non-HSL diagonal actions diag(xi^px, xi^py): px = 0 or py = 0; gcd(px, r)
    # and gcd(py, r) > 1, with every W(m) in the subgroup <2> of Z/6 or not
    spec = quantum_spec(2, 3, zeta(5, 2))
    cases += [(spec, make_diagonal_action(spec, r, px, py))
              for r, px, py in ((4, 1, 0), (5, 0, 2), (6, 2, 4), (6, 4, 3))]
    cases.append((COMM, make_diagonal_action(COMM, 6, 2, 3)))
    # every Jordan action diag(xi^px, xi^(q px)) with q <= 4 and r <= 5, ample or not
    cases += [(spec, make_diagonal_action(spec, r, px, q * px))
              for q in range(1, 5) for spec in (jordan_spec(q),)
              for r in range(1, 6) for px in range(r)]
    return cases


def test_sub_char_masks_in_degree_order():
    # each mask is one step from smaller ones, asked for in any degree order
    rng = random.Random(7)
    for r in range(1, 8):
        for px in range(r):
            for py in range(r):
                mask = asreg2.skew._sub_char_masks(r, px, py)
                wx, wy = rng.choice(QUANTUM_WEIGHTS)
                keys = [(a, b) for a in range(r + 2) for b in range(r + 2)]
                rng.shuffle(keys)
                for a, b in sorted(keys, key=lambda ab: ab[0] * wy + ab[1] * wx):
                    chars = {(i * py + j * px) % r for i in range(a + 1) for j in range(b + 1)}
                    assert mask(a, b) == sum(1 << c for c in chars), (r, px, py, a, b)


def test_ideal_dims_count_equals_blocked_sweep(monkeypatch):
    cases = _count_cases()
    windows = [2 * spec.ell * action.r for spec, action in cases]
    expected = [ideal_e_dims_blocked(spec, action, D) for (spec, action), D in zip(cases, windows)]

    def no_echelon(self):
        raise AssertionError("ideal_e_dims built an Echelon")

    # the count is exact on both planes: no elimination at all
    monkeypatch.setattr(Echelon, "__init__", no_echelon)
    for (spec, action), D, dims in zip(cases, windows, expected):
        assert ideal_e_dims_window(spec, action, D) == dims, (spec.describe(), action.describe())
    assert {spec.family for spec, _ in cases} == {"quantum", "jordan"}


def test_ideal_dims_refuses_action_off_the_relation():
    # only py = q px (mod r) respects x*y = y*x + x^(q+1); the validated
    # constructors refuse the rest, a hand-built action reaches the count
    spec = jordan_spec(2)
    for r, px, py in ((3, 1, 1), (4, 1, 0), (5, 2, 1)):
        action = CyclicGroupAction(spec, r, zeta(r), px, py)
        with pytest.raises(ArithmeticError):
            ideal_e_dims(action, 4)
        with pytest.raises(ArithmeticError):
            ampleness_report(action)


# (spec, r, px, py) whose quotient vanishes h = max(w_x, w_y) > 1 degrees
# running well inside the window 0..2*ell*r: HSL and non-HSL actions, and
# runs through the empty degrees 1 of weights (2, 3) and 7 of (3, 5)
STOP_CASES = [
    (quantum_spec(2, 3, zeta(5, 2)), 2, 1, 1),
    (quantum_spec(2, 3, zeta(5, 2)), 4, 1, 3),
    (quantum_spec(2, 3, zeta(5, 2)), 5, 2, 2),
    (quantum_spec(3, 5, -1), 3, 1, 2),
    (quantum_spec(3, 5, -1), 3, 1, 1),
    (quantum_spec(3, 5, 1), 4, 3, 1),
    (jordan_spec(3), 4, 1, 3),
    (jordan_spec(2), 5, 1, 2),
    (jordan_spec(3), 5, 2, 1),
]


def test_ideal_dims_stop_mid_window_equals_blocked(monkeypatch):
    keys = []  # the (min(a, r-1), min(b, r-1)) whose masks the count asks for
    real = asreg2.skew._sub_char_masks

    def recorded(r, px, py):
        mask = real(r, px, py)

        def spied(a, b):
            keys.append((min(a, r - 1), min(b, r - 1)))
            return mask(a, b)

        return spied

    monkeypatch.setattr(asreg2.skew, "_sub_char_masks", recorded)
    empty_in_run = set()
    for spec, r, px, py in STOP_CASES:
        action = make_diagonal_action(spec, r, px, py)
        h, D = max(spec.w_x, spec.w_y), 2 * spec.ell * r
        keys.clear()
        dims = ideal_e_dims_window(spec, action, D)
        assert dims == ideal_e_dims_blocked(spec, action, D), (spec.describe(), r, px, py)
        # the first run of h full degrees, read off the oracle's numbers
        full = [n == r * len(graded_basis(spec, d)) for d, n in enumerate(dims)]
        N = next(n for n in range(D) if all(full[n:n + h]))
        assert N + h - 1 < D - h, (spec.describe(), r, px, py)
        empty_in_run.update(d for d in range(N, N + h) if not graded_basis(spec, d))

        def walked(top):
            return {(min(m.a, r - 1), min(m.b, r - 1))
                    for d in range(top + 1) for m in graded_basis(spec, d)}

        # the count walks the monomials up to the end of the run and no further
        assert set(keys) == walked(N + h - 1) != walked(D), (spec.describe(), r, px, py)
    assert empty_in_run == {1, 7}


def test_ideal_dims_every_window_is_a_prefix():
    # the tail fill at each window top: before, at and after the degree
    # where the count stops, on HSL quantum actions and Jordan ones (py = q
    # px, non-HSL where r does not divide q + 1)
    cases = [(spec, make_cyclic_group(spec, r))
             for spec in (COMM, quantum_spec(2, 3, 1), W13) for r in range(2, 5)]
    cases += [(spec, make_diagonal_action(spec, r, 1, spec.q))
              for spec in (jordan_spec(3), jordan_spec(5)) for r in range(2, 5)]
    for spec, action in cases:
        top = default_window(action)
        long = ideal_e_dims_window(spec, action, top)
        assert long == ideal_e_dims_blocked(spec, action, top), (spec.describe(), action.describe())
        for D in range(top + 1):
            assert ideal_e_dims_window(spec, action, D) == long[:D + 1], (
                spec.describe(), action.describe(), D)


def test_make_cyclic_group_hdet_equals_table_sweep():
    # make_cyclic_group checks exponents only: the hdet-one fact that its
    # docstring proves, re-run through the table on every swept action
    for spec, r in _sweep_cases():
        g = generator(make_cyclic_group(spec, r))
        assert hdet_table(g, spec).is_one(), (spec.describe(), r)


CONFIGS = st.one_of(
    st.builds(lambda w, kind, k, r: (quantum_spec(*w, _alpha(kind, k)), r),
              st.sampled_from(QUANTUM_WEIGHTS), st.sampled_from(ALPHA_KINDS),
              st.integers(1, 4), st.integers(2, 5)),
    st.sampled_from(JORDAN_CASES).map(lambda qr: (jordan_spec(qr[0]), qr[1])),
)


@settings(max_examples=12, deadline=None)
@given(CONFIGS)
def test_ideal_dims_count_equals_blocked_property(config):
    spec, r = config
    _assert_count_matches_oracle(spec, make_cyclic_group(spec, r))


def _random_skew(action, rng, degree, n_terms):
    monos = [m for d in range(degree + 1) for m in graded_basis(action.spec, d)]
    return SkewElement(action, {(rng.choice(monos), rng.randrange(action.r)):
                                rng.choice([cyc(1), cyc(-2), cyc(RAT(1, 3)), zeta(3)])
                                for _ in range(n_terms)})


@settings(max_examples=15, deadline=None)
@given(CONFIGS, st.randoms(use_true_random=False))
def test_skew_eigenbasis_link_property(config, rng):
    spec, r = config
    action = make_cyclic_group(spec, r)
    u, v = (_random_skew(action, rng, 4, rng.randrange(1, 4)) for _ in range(2))
    assert (to_g_basis(u, GSkewElement) * to_g_basis(v, GSkewElement)
            == to_g_basis(u * v, GSkewElement))


def quotient_by_ideal_e_dims(spec, action, D):
    """dim (S*G/(e))_d for d = 0..D.

    Past the degrees ideal_e_dims walks, (e)_d = (S*G)_d by the tail lemma,
    so those degrees are 0 without any per-degree work.
    """
    walked = _walked_quotient_dims(action, D)
    return walked + [0] * (D + 1 - len(walked))


def test_quotient_dims_trivial_group():
    action = make_cyclic_group(W13, 1)
    assert quotient_by_ideal_e_dims(W13, action, 10) == [0] * 11


def test_quotient_dims_free_action_closed_form():
    # for the (1,1) quantum families the quotient dims are
    # (d+1) * max(0, r - d - 1); derived by counting reachable characters
    for spec, r, D in ((COMM, 2, 4), (COMM, 3, 6), (COMM, 4, 8), (QUANT5, 3, 6),
                       (COMM, 200, None)):
        action = make_cyclic_group(spec, r)
        if D is None:
            # the default ample window 4*ell*r; the quotient is 0 from degree r - 1 on
            D = default_window(action)
        dims = quotient_by_ideal_e_dims(spec, action, D)
        expected = [(d + 1) * max(0, r - d - 1) for d in range(D + 1)]
        assert dims == expected


def test_quotient_dims_extended_regressions():
    # package-computed regression values for cases beyond the acceptance list
    from asreg2.algebra import jordan_spec

    cases = [
        (quantum_spec(3, 5, 1), 4, [0, 3, 5, 6, 8, 10], 10),
        (jordan_spec(3), 4, [0, 1, 2, 3, 4, 6], 10),
        (jordan_spec(2), 3, [0, 1, 2], 4),
    ]
    for spec, r, nonzero_expected, total_expected in cases:
        action = make_cyclic_group(spec, r)
        D = 2 * spec.ell * r
        dims = quotient_by_ideal_e_dims(spec, action, D)
        nonzero = [d for d, v in enumerate(dims) if v]
        assert nonzero == nonzero_expected
        assert sum(dims) == total_expected


def test_quotient_dims_monotone_under_window():
    action = make_cyclic_group(COMM, 3)
    short = quotient_by_ideal_e_dims(COMM, action, 5)
    longer = quotient_by_ideal_e_dims(COMM, action, 9)
    assert longer[:6] == short


def test_quotient_dims_equal_full_window_route_sweep():
    # r dim S_d - dim (e)_d over the whole window, with the ideal by
    # elimination, is the oracle of the prefix and its zero padding: on
    # non-ample actions (gcd(px, r) or gcd(py, r) > 1, never a stop), on
    # windows that end before the stop and at D = 0
    rng = random.Random(2026)
    cases = []
    for _ in range(40):
        r = rng.randrange(1, 6)
        px = rng.randrange(r)
        if rng.random() < 0.3:
            spec = jordan_spec(rng.randrange(1, 5))
            py = spec.q * px
        else:
            wx, wy = rng.choice(QUANTUM_WEIGHTS[:6])
            spec = quantum_spec(wx, wy, _alpha(rng.choice(ALPHA_KINDS), rng.randrange(1, 5)))
            py = rng.randrange(r)
        top = 2 * spec.ell * r
        for D in (0, rng.randrange(top + 1), top):
            cases.append((spec, make_diagonal_action(spec, r, px, py), D))
    seen = set()
    for spec, action, D in cases:
        ideal = ideal_e_dims_blocked(spec, action, D)
        expected = [action.r * n - i for n, i in zip(hilbert_dims(spec, D), ideal)]
        assert quotient_by_ideal_e_dims(spec, action, D) == expected, (
            spec.describe(), action.describe(), D)
        r, px, py = action.r, action.px, action.py
        ample = gcd(px, r) == gcd(py, r) == 1
        walked_all = len(ideal_e_dims(action, D)) == D + 1
        seen.add((ample, walked_all, D == 0))
        if not ample:
            assert walked_all, (spec.describe(), action.describe(), D)
    # non-ample actions (which walk the whole window), ample windows shorter
    # than the stop and past it, and D = 0 on both kinds of action
    assert {(False, True, False), (True, True, False), (True, False, False),
            (False, True, True), (True, True, True)} <= seen, seen


def test_ampleness_report_finite():
    action = make_cyclic_group(COMM, 2)
    rep = ampleness_report(action, 16)
    assert rep.verdict == "FINITE-UP-TO-16"
    assert rep.first_zero_degree == 1
    assert rep.total_dim == 1


def test_ampleness_report_trivial_group():
    action = make_cyclic_group(COMM, 1)
    rep = ampleness_report(action)
    assert rep.verdict.startswith("FINITE")
    assert rep.total_dim == 0


def test_ampleness_exploratory_non_hsl():
    action = make_diagonal_action(COMM, 2, 1, 0)
    rep = ampleness_report(action, 8)
    assert rep.verdict == "EXPLORATORY-REPORT-ONLY"
    assert not rep.hsl
    # the quotient stays visibly nonzero for this pinned action
    assert all(v > 0 for v in rep.dims)


def min_phi_degree_scan(action):
    """min_phi_degree as it scanned before the shortest path: the characters
    of S_d in order of degree until all r are met, up to degree (r-1)*ell,
    by which a faithful action meets all of them in the y^a x^b with a, b <
    r; None past it.  The oracle of Dial's bucket queue."""
    spec = action.spec
    asreg2.skew._check_leading_term(spec)
    seen = set()
    for d in range((action.r - 1) * spec.ell + 1):
        seen.update(map(action.char, graded_basis(spec, d)))
        if len(seen) == action.r:
            return d
    return None


def test_min_phi_degree_shortest_path_equals_scan_sweep():
    # 4 290 actions: quantum weights (1,1), (1,2), (2,3), (1,3), (3,5) and
    # (2,1) at r <= 12 with every (px, py), and the Jordan planes q <= 5 at
    # r <= 12 with every admissible (px, q px); non-faithful ones return None
    actions = [make_diagonal_action(quantum_spec(*w, 1), r, px, py)
               for w in ((1, 1), (1, 2), (2, 3), (1, 3), (3, 5), (2, 1))
               for r in range(1, 13) for px in range(r) for py in range(r)]
    actions += [make_diagonal_action(jordan_spec(q), r, px, q * px)
                for q in range(1, 6) for r in range(1, 13) for px in range(r)]
    assert len(actions) == 4290
    outcomes = Counter()
    for action in actions:
        d_phi = min_phi_degree(action)
        assert d_phi == min_phi_degree_scan(action), action
        outcomes[d_phi is None] += 1
    assert outcomes[True] and outcomes[False], outcomes


def phi_injective(spec, action, D):
    """Injective on (S*G)_{<=D} from min_phi_degree on (never if it is None);
    a window below degree 0 is vacuous."""
    d_phi = min_phi_degree(action)
    return D < 0 or (d_phi is not None and d_phi <= D)


def test_phi_injectivity():
    for spec, r, D in ((COMM, 2, 4), (COMM, 1, 4), (W13, 2, 4), (J1, 2, 4)):
        action = make_cyclic_group(spec, r)
        assert phi_injective(spec, action, D)


def test_phi_injectivity_threshold():
    # below the character-coverage threshold the truncated representation
    # has a genuine kernel; from the threshold on it is faithful
    spec = quantum_spec(2, 3, 1)
    action = make_cyclic_group(spec, 6)
    d_min = min_phi_degree(action)
    assert d_min == 6
    assert not phi_injective(spec, action, 3)
    assert phi_injective(spec, action, d_min)


PHI_WEIGHTS = [(1, 1), (1, 2), (1, 3), (2, 3), (3, 4), (2, 5)]
PHI_JORDAN = [(q, r) for q in range(1, 8) for r in range(1, q + 2) if (q + 1) % r == 0]


def _phi_windows(spec, action):
    """0, 1, 2 and the windows around min_phi_degree (around r if it never comes)."""
    d_phi = min_phi_degree(action)
    mid = action.r if d_phi is None else d_phi
    return sorted({0, 1, 2, mid - 1, mid, mid + 1})


def _assert_phi_matches_oracle(spec, action, D):
    value = phi_injective(spec, action, D)
    assert value == phi_injectivity_oracle(spec, action, D), (
        spec.describe(), action.describe(), D)
    return value


def test_phi_injectivity_count_equals_oracle_sweep():
    rng = random.Random(4045)
    actions = []
    for w in PHI_WEIGHTS:
        # alpha in {1, 2/3, -1} and one power of zeta(5) per weight pair
        for kind in ("1", "2/3", "-1", "zeta5"):
            spec = quantum_spec(*w, _alpha(kind, rng.randrange(1, 5)))
            actions.extend(make_cyclic_group(spec, r) for r in range(1, 6))
    actions.extend(make_cyclic_group(jordan_spec(q), r) for q, r in PHI_JORDAN)
    # faithful: every character occurs by degree (r-1)*ell, inside min_phi_degree's scan
    for action in actions:
        assert min_phi_degree(action) <= (action.r - 1) * action.spec.ell
    # non-faithful diagonal actions: some character never occurs
    non_faithful = [make_diagonal_action(COMM, 4, 2, 0),
                    make_diagonal_action(quantum_spec(1, 2, RAT(2, 3)), 4, 2, 2),
                    make_diagonal_action(J1, 4, 2, 2),
                    make_diagonal_action(quantum_spec(2, 3, zeta(5)), 3, 0, 0)]
    for action in non_faithful:
        assert min_phi_degree(action) is None
    outcomes = Counter(
        _assert_phi_matches_oracle(action.spec, action, D)
        for action in actions + non_faithful for D in _phi_windows(action.spec, action))
    assert sum(outcomes.values()) > 600 and outcomes[True] and outcomes[False], outcomes


PHI_CONFIGS = st.one_of(
    st.builds(lambda w, kind, k, r: make_cyclic_group(quantum_spec(*w, _alpha(kind, k)), r),
              st.sampled_from(PHI_WEIGHTS), st.sampled_from(ALPHA_KINDS),
              st.integers(1, 4), st.integers(1, 5)),
    st.sampled_from(PHI_JORDAN).map(lambda qr: make_cyclic_group(jordan_spec(qr[0]), qr[1])),
)


@settings(max_examples=25, deadline=None)
@given(PHI_CONFIGS, st.integers(-1, 1))
def test_phi_injectivity_count_equals_oracle_property(action, offset):
    D = min_phi_degree(action) + offset
    _assert_phi_matches_oracle(action.spec, action, D)
