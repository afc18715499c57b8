import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from math import gcd

import pytest

from asreg2.cyclotomic import Cyclotomic, ONE, cyc, zeta
from asreg2.algebra import (
    MONO_ONE,
    Monomial,
    SparseElement,
    graded_basis,
    monomial_product,
    quantum_spec,
)
import asreg2.beilinson
from asreg2 import quivers
from asreg2.automorphisms import CyclicGroupAction, make_cyclic_group, make_diagonal_action
from asreg2.beilinson import (
    LambdaElement,
    gabriel_quiver_oracle,
    lambda_mul_basis,
    nabla_basis,
    nabla_dim,
    nabla_of_skew_mul,
    nabla_skew_structure_check,
)
from asreg2.linalg import Echelon
from asreg2.quivers import (
    Quiver,
    covering_quiver,
    path_count,
    quiver_isomorphic,
    quiver_qs,
    quiver_qsg,
)
from asreg2.skew import molien_dims, rho_system
from test_automorphisms import jordan_spec, xi_power
from test_skew import (
    GSkewElement,
    LINK_CASES,
    _power_products,
    assert_g_basis_link,
    molien_dims_table,
    to_g_basis,
)

S11 = quantum_spec(1, 1, 1)
S12 = quantum_spec(1, 2, 1)
S13 = quantum_spec(1, 3, 1)
S23 = quantum_spec(2, 3, 1)
J1 = jordan_spec(1)


def nabla_mul_basis(spec, t1, t2):
    """Product of basis triples; {} or {(k, j, monomial): coeff}."""
    (i, j, m), (k, l, n) = t1, t2
    if l != i:
        return {}
    return {(k, j, mono): c for mono, c in monomial_product(spec, m, n).items()}


class NablaElement(SparseElement):
    """Sparse element of nabla(S): {(i, j, monomial): coefficient}."""

    __slots__ = ()

    @staticmethod
    def _key(spec, key):
        i, j, m = key
        return (i, j, Monomial(*m))

    _basis_mul = staticmethod(nabla_mul_basis)


def nabla_unit(spec, i):
    return NablaElement(spec, {(i, i, MONO_ONE): ONE})


def nabla_algebra(spec):
    """Convenience bundle: basis, dimension, units."""
    basis = nabla_basis(spec)
    return {
        "basis": basis,
        "dim": len(basis),
        "units": [nabla_unit(spec, i) for i in range(spec.ell)],
    }


# ---------------------------------------------------------------------------
# Lambda on the g-basis (i, j, monomial, g^s): the oracle for the eigenbasis


def g_lambda_mul_basis(action, t1, t2):
    """Product of g-basis elements; {} or {(k, j, monomial, g exponent): coeff}."""
    (i, j, m, s), (k, l, n, t) = t1, t2
    if l != i:
        return {}
    # the group acts entrywise: g^s scales n by xi^(s char(n))
    c = xi_power(action, s * action.char(n))
    gexp = (s + t) % action.r
    return {(k, j, mono, gexp): c * cm for mono, cm in monomial_product(action.spec, m, n).items()}


class GLambdaElement(SparseElement):
    """Sparse element of (nabla S)*G: {(i, j, monomial, s): coefficient}."""

    __slots__ = ()

    @staticmethod
    def _key(action, key):
        i, j, m, s = key
        return (i, j, Monomial(*m), s % action.r)

    _basis_mul = staticmethod(g_lambda_mul_basis)


def lambda_idempotent(action, i, j):
    """e_i^j = e_i * rho_j with rho_j = (1/r) sum_s xi^(j s) g^s."""
    r = action.r
    w = cyc(Fraction(1, r))
    return GLambdaElement(
        action, {(i, i, MONO_ONE, s): w * xi_power(action, j * s) for s in range(r)}
    )


def lambda_idempotents(action):
    return {
        (i, j): lambda_idempotent(action, i, j)
        for i in range(action.spec.ell)
        for j in range(action.r)
    }


def lambda_unit(action):
    return GLambdaElement(
        action, {(i, i, MONO_ONE, 0): ONE for i in range(action.spec.ell)}
    )


def tau_corner_dims_generic(action):
    """Corner dimensions of J computed in the g-basis, for cross-checking.

    Projects every positive-degree g-basis element through the idempotent
    pair and collects exact ranks per corner; slow but free of the
    rho-eigenbasis bookkeeping.
    """
    idem = lambda_idempotents(action)
    dims = Counter()
    ech = {}
    positive = [(i, j, m, s) for (i, j, m) in nabla_basis(action.spec) if i < j
                for s in range(action.r)]
    for key in positive:
        w = GLambdaElement(action, {key: ONE})
        for a in idem:
            for b in idem:
                proj = idem[b] * w * idem[a]
                if proj.is_zero():
                    continue
                corner = (a, b)
                e = ech.get(corner)
                if e is None:
                    e = ech[corner] = Echelon()
                if e.add(dict(proj.terms)):
                    dims[corner] += 1
    return dims


def tau_j_basis(action):
    """Positive-degree basis of Lambda with its corner data, one entry per
    character: gabriel_quiver_oracle's loop over every w, kept as its oracle.

    Entries (i, j, mono, w) stand for M(i->j; mono) * rho_w; the source
    vertex is (i, w) and the target is (j, (w - char mono) mod r).
    """
    r = action.r
    return [((i, j, m, w), (i, w), (j, (w - action.char(m)) % r))
            for (i, j, m) in nabla_basis(action.spec) if i < j for w in range(r)]


def tau_corner_dims_fast(action):
    """Corner dimensions of J read off the rho-eigenbasis: one per basis element."""
    dims = Counter()
    for (_, src, dst) in tau_j_basis(action):
        dims[(src, dst)] += 1
    return dims


def test_nabla_dims_examples():
    assert nabla_dim(S11) == 4
    assert nabla_dim(S13) == 11
    for spec in (S11, S12, S13, S23):
        assert nabla_dim(spec) == path_count(quiver_qs(spec))
        assert nabla_dim(spec) == len(nabla_basis(spec))


def test_nabla_units_and_multiplication():
    alg = nabla_algebra(S13)
    units = alg["units"]
    for i, ei in enumerate(units):
        for j, ej in enumerate(units):
            prod = ei * ej
            if i == j:
                assert prod == ei
            else:
                assert prod.is_zero()
    # unit sandwich picks the right corner: e_j * M(i->j) * e_i = M(i->j)
    m = NablaElement(S13, {(0, 1, (0, 1)): cyc(1)})
    assert (units[1] * m) * units[0] == m
    assert (units[0] * m).is_zero()
    assert (m * units[1]).is_zero()


def test_nabla_associativity_sampled():
    rng = random.Random(12)
    for spec in (S13, J1):
        basis = nabla_basis(spec)
        pool = [NablaElement(spec, {t: cyc(rng.choice([1, -1, 2]))}) for t in basis]
        for _ in range(40):
            u, v, w = (rng.choice(pool) for _ in range(3))
            assert (u * v) * w == u * (v * w)


def lambda_dim(action):
    """dim Lambda = dim (nabla S)*G, by counting its basis M(i->j; m) rho_w."""
    return len(nabla_basis(action.spec)) * action.r


def test_lambda_dim_and_structure():
    for spec, r in ((S11, 3), (S13, 2), (J1, 2)):
        action = make_cyclic_group(spec, r)
        assert lambda_dim(action) == r * nabla_dim(spec)
        assert path_count(quiver_qsg(action)) == lambda_dim(action)
        assert nabla_skew_structure_check(action)


def all_paths(q):
    """Every path of an acyclic quiver as (start, arrows), found by walking
    its named arrows out of each vertex; a trivial path has no arrows."""
    out = {}
    for arrow in q.arrows:
        out.setdefault(arrow[0], []).append(arrow)
    paths, stack = [], [(v, ()) for v in q.vertices]
    while stack:
        start, arrows = stack.pop()
        paths.append((start, arrows))
        stack += [(start, arrows + (a,)) for a in out.get(arrows[-1][1] if arrows else start, ())]
    return paths


def test_lambda_basis_is_the_path_basis_of_qsg():
    # the Cartan step of beilinson's docstring: M(i->j; m) rho_w goes to the
    # path of Q_{S,G} from (i, -w) spelled by m, found by walking the arrows;
    # the map is a bijection onto the paths, and lambda_mul_basis is
    # concatenation, on every diagonal action of order r <= 4 the planes
    # admit, non-faithful ones included
    specs = [quantum_spec(wx, wy, alpha) for alpha in (1, zeta(5))
             for wx, wy in ((1, 1), (1, 2), (2, 3), (3, 5))]
    specs += [jordan_spec(q) for q in range(1, 5)]
    actions = pairs = 0
    for spec in specs:
        for r in range(1, 5):
            for px, py in itertools.product(range(r), repeat=2):
                if spec.family == "jordan" and (py - spec.q * px) % r:
                    continue
                action = make_diagonal_action(spec, r, px, py)
                qsg = quiver_qsg(action)
                label = qsg.vertices  # (i, s) at position i*r + s
                step = {(src, tag): dst for src, dst, tag in qsg.arrows}
                path = {}
                for (i, j, m) in nabla_basis(spec):
                    assert 0 in m  # a pure power y^a or x^b
                    tag = "y" if m.a else "x"
                    for w in range(r):
                        v = start = label[i * r + -w % r]
                        arrows = []
                        for _ in range(m.a + m.b):
                            arrows.append((v, step[(v, tag)], tag))
                            v = arrows[-1][1]
                        assert v == label[j * r + (action.char(m) - w) % r]
                        path[(i, j, m, w)] = (start, tuple(arrows), v)
                key_of = {(start, arrows): key for key, (start, arrows, _) in path.items()}
                assert len(key_of) == len(path) == path_count(qsg)
                assert sorted(key_of) == sorted(all_paths(qsg))
                for t1, (start1, arrows1, _) in path.items():
                    for t2, (start2, arrows2, end2) in path.items():
                        if t2[1] != t1[0]:
                            continue
                        expected = {key_of[(start2, arrows2 + arrows1)]: ONE} if end2 == start1 else {}
                        assert lambda_mul_basis(action, t1, t2) == expected, (action, t1, t2)
                        pairs += 1
                actions += 1
    assert actions == 8 * 30 + 4 * 10 and pairs > 10000


def idempotent_system_oracle(action):
    """check's "Lambda idempotent system basic" by brute force in Lambda.

    Forms all (ell*r)^2 products of the e_i^j and, for each e_i^j, the
    sandwiches e_i^j w e_i^j over the degree-zero basis w: True when the
    e_i^j are orthogonal, complete and basic.
    """
    idem = lambda_idempotents(action)
    keys = sorted(idem)
    ok = True
    total = GLambdaElement(action)
    for a in keys:
        ea = idem[a]
        total = total + ea
        for b in keys:
            prod = ea * idem[b]
            if a == b:
                ok = ok and prod == ea
            else:
                ok = ok and prod.is_zero()
    ok = ok and total == lambda_unit(action)
    corners_one_dim = True
    for a in keys:
        ech = Echelon()
        for i in range(action.spec.ell):
            for s in range(action.r):
                w = GLambdaElement(action, {(i, i, MONO_ONE, s): ONE})
                proj = idem[a] * w * idem[a]
                if not proj.is_zero():
                    ech.add(dict(proj.terms))
        if ech.rank != 1:
            corners_one_dim = False
            break
    no_loops = all(src != dst for (_, src, dst) in tau_j_basis(action))
    return ok and corners_one_dim and no_loops


def swept_actions():
    """The hdet-one actions, then every diagonal action these planes admit
    for r <= 4, non-HSL ones included."""
    actions = [make_cyclic_group(spec, r)
               for spec, r in ((S11, 3), (S12, 2), (S13, 2), (J1, 2), (S11, 1))]
    specs = [quantum_spec(w_x, w_y, alpha) for alpha in (1, -1, zeta(3))
             for (w_x, w_y) in ((1, 1), (1, 2), (2, 3))] + [jordan_spec(1), jordan_spec(2)]
    for spec in specs:
        for r in range(1, 5):
            for px in range(r):
                for py in range(r):
                    try:
                        actions.append(make_diagonal_action(spec, r, px, py))
                    except ValueError:
                        pass
    assert len(actions) == 5 + 290
    return actions


# xi of order 2, 3 and 1 below r, a root of order 5 that is no r-th root,
# and two values of infinite order, one rational and one not
NON_PRIMITIVE = ((4, zeta(4) ** 2), (6, zeta(3)), (2, cyc(1)), (3, zeta(5)), (4, cyc(2)),
                 (3, ONE + zeta(5)))


def test_lambda_idempotent_system():
    # check's Lambda line is the rho certificate; rho_system's docstring
    # proves that it implies the brute-force facts
    for action in swept_actions():
        assert rho_system(action) is idempotent_system_oracle(action) is True, action


def test_idempotent_system_rejects_non_primitive_roots():
    for r, xi in NON_PRIMITIVE:
        action = CyclicGroupAction(S11, r, xi, 1, -1)
        assert rho_system(action) is idempotent_system_oracle(action) is False, (r, xi)


def rho_system_g_basis(action):
    """rho_system's certificate as O(r^2) products on the g-basis of S*G.

    Checks (1) g rho_w = xi^(-w) rho_w, (2) xi^r = 1 and xi^k != 1 for
    0 < k < r, (3) sum_w rho_w = 1 and (4) rho_w n = n rho_(w + char n)
    for n = x, y.
    """
    r, xi = action.r, partial(xi_power, action)
    inv_r = cyc(Fraction(1, r))
    rho = [GSkewElement(action, {(MONO_ONE, s): inv_r * xi(w * s) for s in range(r)})
           for w in range(r)]
    g = GSkewElement.basis_element(action, MONO_ONE, 1)
    ok = all(g * rho[w] == rho[w].scale(xi(-w)) for w in range(r))
    ok = ok and action.xi ** r == 1 and all(xi(k) != 1 for k in range(1, r))
    ok = ok and sum(rho, GSkewElement(action)) == GSkewElement.one(action)
    for n in (Monomial(0, 1), Monomial(1, 0)):
        gn = GSkewElement.basis_element(action, n, 0)
        ok = ok and all(rho[w] * gn == gn * rho[(w + action.char(n)) % r] for w in range(r))
    return ok


def test_rho_system_equals_g_basis_certificate():
    for action in swept_actions():
        assert rho_system(action) is rho_system_g_basis(action) is True, action
    for r, xi in NON_PRIMITIVE:
        action = CyclicGroupAction(S11, r, xi, 1, -1)
        assert rho_system(action) is rho_system_g_basis(action) is False, (r, xi)


def rho_system_products(action):
    """rho_system as it certified fact (0) before: xi(0) = 1 and xi(k) xi =
    xi(k + 1) for k < r, repeating the xi_power table's own products, and
    xi(k) != 1 for 0 < k < r.  The oracle of the r + 1 product certificate."""
    r, xi = action.r, partial(xi_power, action)
    return (xi(0) == 1 and all(xi(k) * action.xi == xi(k + 1) for k in range(r))
            and all(xi(k) != 1 for k in range(1, r)))


def test_rho_system_equals_product_chain_and_g_basis_sweep():
    # primitive and non-primitive roots of unity of every order up to 12,
    # values that are no root of unity, and rationals, at r <= 8
    values = [zeta(m, k) for m in range(1, 13) for k in range(m)]
    values += [-zeta(7), ONE + zeta(5), cyc(2), cyc(Fraction(1, 2)), cyc(-1)]
    outcomes = Counter()
    for r in range(1, 9):
        for xi in values:
            action = CyclicGroupAction(S11, r, xi, 1, -1)
            ok = rho_system(action)
            assert ok is rho_system_products(action) is rho_system_g_basis(action), (r, xi)
            outcomes[ok] += 1
    # the certificate holds exactly when xi has order r: zeta(m, k) has
    # order m / gcd(k, m), -1 order 2, and the other values no finite order
    # up to 8 (-zeta(7) has order 14)
    assert outcomes[True] == 1 + sum(1 for r in range(1, 9) for m in range(1, 13)
                                     for k in range(m) if m // gcd(k, m) == r)
    assert outcomes[False] > 500


def test_table_routes_equal_order_test_and_doubling():
    # the r-entry xi_power certificate and the r/g-entry power sums, which
    # rho_system and molien_dims replaced by the order test and the
    # geometric sums by doubling: the same verdicts and dims, or the same
    # refusal, on the swept actions and on the xi that are not primitive
    actions = swept_actions() + [CyclicGroupAction(S11, r, xi, 1, -1) for r, xi in NON_PRIMITIVE]
    refused = 0
    for action in actions:
        assert rho_system(action) is rho_system_products(action), action
        outcomes = []
        for route in (molien_dims, molien_dims_table):
            try:
                outcomes.append(route(action, 8))
            except ArithmeticError:
                outcomes.append(ArithmeticError)
        assert outcomes[0] == outcomes[1], action
        refused += outcomes[0] is ArithmeticError
    # zeta(5) and 1 + zeta(5) at r = 3 have irrational power sums, and 2 at
    # r = 4 a degree-1 average 2 (1 + 2 + 4 + 8) / 4 that is no integer
    assert refused == 3


def idempotent_structure_full(action):
    """e_i^w e_k^v = [(i, w) = (k, v)] e_i^w by lambda_mul_basis, over every pair."""
    grid = [(i, w) for i in range(action.spec.ell) for w in range(action.r)]
    return all(
        lambda_mul_basis(action, (i, i, MONO_ONE, w), (k, k, MONO_ONE, v))
        == ({(i, i, MONO_ONE, w): ONE} if (i, w) == (k, v) else {})
        for (i, w) in grid for (k, v) in grid
    )


def nabla_skew_structure_full(action):
    """nabla_skew_structure_check over every pair of basis elements."""
    basis = [(i, j, m, w) for (i, j, m) in nabla_basis(action.spec) for w in range(action.r)]
    return lambda_dim(action) == path_count(quiver_qsg(action)) and all(
        lambda_mul_basis(action, t1, t2) == nabla_of_skew_mul(action, t1, t2)
        for t1 in basis for t2 in basis
    )


# (spec, r, px, py) small enough for the full-square loops
SMALL_ACTIONS = ((S11, 3, 1, -1), (S12, 2, 1, 1), (S13, 2, 1, -1), (J1, 2, 1, -1),
                 (S23, 3, 1, 2), (quantum_spec(1, 1, zeta(5)), 4, 1, 2))


def test_structure_checks_per_corner_equal_full_square(monkeypatch):
    # the Lambda_0 products that rho_system's docstring reads off the
    # guards of lambda_mul_basis, for any xi
    actions = swept_actions() + [CyclicGroupAction(S11, r, xi, 1, -1) for r, xi in NON_PRIMITIVE]
    for action in actions:
        assert idempotent_structure_full(action), action
    small = [make_diagonal_action(spec, r, px, py) for spec, r, px, py in SMALL_ACTIONS]
    for action in small:
        assert nabla_skew_structure_check(action) is nabla_skew_structure_full(action) is True
    # a wrong coefficient on the composable pairs out of rho_1 fails both loops
    real = asreg2.beilinson.lambda_mul_basis

    def faulty(action, t1, t2):
        prod = real(action, t1, t2)
        return {k: c + ONE for k, c in prod.items()} if t1[3] == 1 else prod

    monkeypatch.setattr(asreg2.beilinson, "lambda_mul_basis", faulty)
    monkeypatch.setitem(globals(), "lambda_mul_basis", faulty)
    for action in small:
        assert not idempotent_structure_full(action)
        assert nabla_skew_structure_check(action) is nabla_skew_structure_full(action) is False


def test_products_vanish_off_composable_pairs():
    # the per-corner loops skip exactly the pairs (i -> j; w), (k -> l; n, v)
    # with l != i or w + char n != v (mod r)
    for spec, r, px, py in SMALL_ACTIONS:
        action = make_diagonal_action(spec, r, px, py)
        basis = [(i, j, m, w) for (i, j, m) in nabla_basis(spec) for w in range(r)]
        for t1 in basis:
            for t2 in basis:
                if t2[1] != t1[0] or (t1[3] + action.char(t2[2])) % r != t2[3]:
                    assert lambda_mul_basis(action, t1, t2) == {}
                    assert nabla_of_skew_mul(action, t1, t2) == {}


def test_idempotent_system_work_is_linear(monkeypatch):
    # the certificate behind check's rho and Lambda lines is the order
    # test: the cyclotomic products of xi^r and of xi^(r/p) for each prime
    # p | r, by powering, and no product of elements; the xi_power table
    # it read before took r products
    counts = Counter()

    def counting(name, method):
        def counted(*args):
            counts[name] += 1
            return method(*args)
        return counted

    monkeypatch.setattr(Cyclotomic, "__mul__", counting("cyc", Cyclotomic.__mul__))
    monkeypatch.setattr(SparseElement, "__mul__", counting("elem", SparseElement.__mul__))
    monkeypatch.setattr(LambdaElement, "__mul__", counting("elem", LambdaElement.__mul__))
    for r in (40, 997, 4800):
        counts.clear()
        action = CyclicGroupAction(S11, r, zeta(r), 1, -1)
        assert rho_system(action) is True
        primes = [p for p in range(2, r + 1) if r % p == 0 and all(p % q for q in range(2, p))]
        assert counts["elem"] == 0
        assert counts["cyc"] == _power_products(r) + sum(_power_products(r // p) for p in primes)
        assert counts["cyc"] <= 2 * r.bit_length() * (1 + len(primes)) < r


def test_lambda_eigenbasis_linked_to_g_basis():
    # every basis pair of Lambda
    for spec, r in LINK_CASES:
        action = make_cyclic_group(spec, r)
        keys = [(i, j, m, w) for (i, j, m) in nabla_basis(spec) for w in range(r)]
        assert_g_basis_link(action, keys, LambdaElement, GLambdaElement)
    # the e_i^j are the unit vectors M(i->i; 1) rho_j
    action = make_cyclic_group(S12, 2)
    for (i, j), e in lambda_idempotents(action).items():
        assert to_g_basis(LambdaElement(action, {(i, i, MONO_ONE, j): ONE}), GLambdaElement) == e


def test_corner_dims_fast_equals_generic():
    action = make_cyclic_group(S11, 3)
    fast = tau_corner_dims_fast(action)
    generic = tau_corner_dims_generic(action)
    assert fast == generic
    action = make_cyclic_group(S12, 2)
    assert tau_corner_dims_fast(action) == tau_corner_dims_generic(action)


def test_full_corners_are_lines_generically():
    # e_a * Lambda * e_a across every degree is one-dimensional: the unit
    # line plus nothing from J (verified by brute projection, small cases)
    for spec, r in ((S11, 3), (S12, 2)):
        action = make_cyclic_group(spec, r)
        idem = lambda_idempotents(action)
        basis = [
            (i, j, m, s)
            for i in range(spec.ell)
            for j in range(i, spec.ell)
            for m in graded_basis(spec, j - i)
            for s in range(r)
        ]
        for a, ea in idem.items():
            ech = Echelon()
            for key in basis:
                w = GLambdaElement(action, {key: ONE})
                proj = ea * w * ea
                if not proj.is_zero():
                    ech.add(dict(proj.terms))
            assert ech.rank == 1, (spec.describe(), r, a)


def test_oracle_matches_worked_example():
    action = make_cyclic_group(S11, 3)
    oracle = gabriel_quiver_oracle(action)
    assert quiver_isomorphic(oracle, quiver_qsg(action)) is not None


def test_oracle_trivial_group_gives_qs():
    for spec in (S11, S13, S23):
        action = make_cyclic_group(spec, 1)
        oracle = gabriel_quiver_oracle(action)
        assert quiver_isomorphic(oracle, quiver_qs(spec)) is not None


def test_oracle_small_cases():
    for spec, r in ((S13, 2), (S12, 3), (J1, 2), (quantum_spec(1, 1, zeta(5)), 2)):
        action = make_cyclic_group(spec, r)
        oracle = gabriel_quiver_oracle(action)
        assert quiver_isomorphic(oracle, quiver_qsg(action)) is not None


def quiver_qs_loop(spec):
    """quiver_qs as its own loop built it before grid_quiver."""
    ell = spec.ell
    arrows = []
    for i in range(ell):
        if i + spec.w_x < ell:
            arrows.append(("v%d" % i, "v%d" % (i + spec.w_x), "x"))
        if i + spec.w_y < ell:
            arrows.append(("v%d" % i, "v%d" % (i + spec.w_y), "y"))
    return Quiver(["v%d" % i for i in range(ell)], arrows)


def lift_loop(spec, n, shifts):
    """quivers._lift as its own loop built it before grid_quiver."""
    ell = spec.ell
    label = [["v%d_%d" % (i, s) for s in range(n)] for i in range(ell)]
    arrows = []
    for i in range(ell):
        for w, tag, shift in zip((spec.w_x, spec.w_y), "xy", shifts):
            if i + w < ell:
                src, dst = label[i], label[i + w]
                arrows += [(src[s], dst[(s + shift) % n], tag) for s in range(n)]
    return Quiver([v for row in label for v in row], arrows)


def test_qsg_lift_is_the_oracle_on_every_diagonal_action():
    # Q_{S,G} lifted by the action's exponents (px, py) against the quiver of
    # Lambda, on every diagonal action of order r <= 7 that the planes admit,
    # non-faithful ones included; each is also equal, vertex for vertex and
    # parallel arrow for parallel arrow, to the loop that built it before
    # grid_quiver
    specs = [quantum_spec(wx, wy, 1)
             for wx, wy in ((1, 1), (1, 2), (2, 1), (1, 3), (2, 3), (3, 5), (3, 4))]
    specs += [quantum_spec(1, 1, -1), quantum_spec(1, 1, zeta(5))]
    specs += [jordan_spec(q) for q in range(1, 6)]
    checked = faithful = parallel = 0
    for spec in specs:
        for r in range(1, 8):
            for px in range(r):
                for py in range(r):
                    if spec.family == "jordan" and (py - spec.q * px) % r:
                        continue
                    action = make_diagonal_action(spec, r, px, py)
                    qsg, oracle = quiver_qsg(action), gabriel_quiver_oracle(action)
                    assert qsg == (quiver_qs_loop(spec) if r == 1 else lift_loop(spec, r, (px, py)))
                    assert oracle == gabriel_quiver_per_corner_expansion(action)
                    assert quiver_isomorphic(qsg, oracle) is not None, \
                        (spec.describe(), action.describe())
                    checked += 1
                    faithful += gcd(px, py, r) == 1
                    parallel += len(set(oracle.arrows)) < len(oracle.arrows)
    assert checked == 9 * 140 + 5 * 28 and 0 < faithful < checked and parallel > 0
    # Q_S, its lift at every pair of level shifts and the covering quiver, on
    # every pair of coprime weights up to 7 and up to 6 levels
    lifts = 0
    for wx in range(1, 8):
        for wy in range(1, 8):
            if gcd(wx, wy) > 1:
                continue
            spec = quantum_spec(wx, wy, 1)
            assert quiver_qs(spec) == covering_quiver(spec, 1) == quiver_qs_loop(spec)
            for n in range(2, 7):
                assert covering_quiver(spec, n) == lift_loop(spec, n, quivers._cover_shifts(spec))
                for shifts in itertools.product(range(n), repeat=2):
                    assert quivers._lift(spec, n, shifts) == lift_loop(spec, n, shifts)
                    lifts += 1
    assert lifts == 35 * 90


def gabriel_quiver_elimination(action):
    """gabriel_quiver_oracle with the rank of every J^2 corner found by exact
    elimination of its products, not by counting their keys."""
    basis = tau_j_basis(action)
    j_corner, by_src, by_dst = Counter(), {}, {}
    for (key, src, dst) in basis:
        j_corner[(src, dst)] += 1
        by_src.setdefault(src, []).append((key, dst))
        by_dst.setdefault(dst, []).append((key, src))
    jj_rank, echelons = Counter(), {}
    for mid in set(by_src) & set(by_dst):
        for (lk, dst) in by_src[mid]:
            for (rk, src) in by_dst[mid]:
                prod = lambda_mul_basis(action, lk, rk)
                if prod and echelons.setdefault((src, dst), Echelon()).add(prod):
                    jj_rank[(src, dst)] += 1
    label = _grid_labels(action)
    arrows = [(label[src[0]][src[1]], label[dst[0]][dst[1]], "")
              for (src, dst), size in sorted(j_corner.items())
              for _ in range(size - jj_rank[(src, dst)])]
    return Quiver([v for row in label for v in row], arrows)


def test_oracle_key_count_matches_elimination(monkeypatch):
    actions = swept_actions() + [make_diagonal_action(spec, r, px, py) for spec, r, px, py in (
        (S13, 6, 1, 5), (S23, 5, 2, 3), (jordan_spec(3), 4, 1, 3), (S13, 8, 1, 2),
        # not faithful: characters in a proper subgroup of Z/r
        (S11, 6, 2, 4), (S13, 6, 3, 0), (S23, 4, 2, 2), (jordan_spec(3), 6, 2, 0))]
    expected = [gabriel_quiver_elimination(action) for action in actions]

    def no_echelon(self):
        raise AssertionError("gabriel_quiver_oracle built an Echelon")

    monkeypatch.setattr(Echelon, "__init__", no_echelon)
    for action, quiver in zip(actions, expected):
        assert gabriel_quiver_oracle(action) == quiver, action
    # a J^2 product of two keys breaks the proof, and the oracle says so
    real = asreg2.beilinson.lambda_mul_basis

    def two_keys(action, t1, t2):
        prod = real(action, t1, t2)
        return {**prod, (0, 0, MONO_ONE, 0): ONE} if prod else prod

    monkeypatch.setattr(asreg2.beilinson, "lambda_mul_basis", two_keys)
    action = make_cyclic_group(S13, 2)
    with pytest.raises(ArithmeticError):
        gabriel_quiver_oracle(action)


def test_oracle_forms_one_product_per_monomial_pair(monkeypatch):
    # one lambda_mul_basis call per (0 < d2 < d < ell, m in S_(d-d2), n in
    # S_(d2)), at the grid position (0, d2, d), w = 0 and v = char n,
    # whatever r is
    calls = []
    real = asreg2.beilinson.lambda_mul_basis

    def recorded(action, t1, t2):
        calls.append((t1, t2))
        return real(action, t1, t2)

    monkeypatch.setattr(asreg2.beilinson, "lambda_mul_basis", recorded)
    for spec in (S11, S12, S13, S23, quantum_spec(3, 5, 1), J1, jordan_spec(4)):
        ell = spec.ell
        for r in range(1, 8):
            for px, py in ((1, -1), (1, spec.q), (2, 2 * spec.q), (0, 0)):
                try:
                    action = make_diagonal_action(spec, r, px, py)
                except ValueError:
                    continue
                calls.clear()
                gabriel_quiver_oracle(action)
                expected = [((d2, d, m, 0), (0, d2, n, action.char(n)))
                            for d in range(ell) for d2 in range(1, d)
                            for m in graded_basis(spec, d - d2) for n in graded_basis(spec, d2)]
                assert sorted(calls) == sorted(expected), (spec.describe(), action.describe())
    # the heaviest check-suite job: 55 products, where one per grid triple
    # k < i < j of the 12 grid vertices made C(12, 3) = 220
    calls.clear()
    gabriel_quiver_oracle(make_cyclic_group(jordan_spec(11), 3))
    assert len(calls) == 55


def per_grid_triple_counts(action):
    """The arrow count of every (i, j, c), i < j, from (i, s) to (j, s - c):
    the J corner's size less its J^2 keys, with the J^2 products formed one
    per (k < i < j, m, n) at w = 0 and the corners keyed by their grid
    vertices, as gabriel_quiver_oracle formed them before."""
    r, ell = action.r, action.spec.ell
    graded = [[(m, action.char(m)) for m in graded_basis(action.spec, d)] for d in range(ell)]
    j_corner = Counter((i, j, c) for i in range(ell) for j in range(i + 1, ell)
                       for _, c in graded[j - i])
    jj_keys = {}
    for k in range(ell):
        for i in range(k + 1, ell):
            for n, cn in graded[i - k]:
                for j in range(i + 1, ell):
                    for m, cm in graded[j - i]:
                        prod = lambda_mul_basis(action, (i, j, m, 0), (k, i, n, cn))
                        assert len(prod) == 1
                        (_, _, mono, _), = prod
                        jj_keys.setdefault((k, j, (cm + cn) % r), set()).add(mono)
    return {key: size - len(jj_keys.get(key, ())) for key, size in j_corner.items()}


def _grid_labels(action):
    """The label rule written out: v<i>_<w> at row i and column w of the grid,
    and v<i> when it has one column (r = 1)."""
    if action.r == 1:
        return [["v%d" % i] for i in range(action.spec.ell)]
    return [["v%d_%d" % (i, w) for w in range(action.r)] for i in range(action.spec.ell)]


def gabriel_quiver_per_grid_triple(action):
    """gabriel_quiver_oracle from the per_grid_triple_counts, each expanded
    over the source characters: the oracle of the one product per degree
    pair."""
    r, label = action.r, _grid_labels(action)
    arrows = []
    for (i, j, c), count in per_grid_triple_counts(action).items():
        for s in range(r):
            arrows += [(label[i][s], label[j][(s - c) % r], "")] * count
    return Quiver([v for row in label for v in row], arrows)


def gabriel_quiver_per_corner_expansion(action):
    """gabriel_quiver_oracle as its own loop expanded its arrows before
    grid_quiver: the count of each (d, c), read here at grid source 0, over
    every grid row i < ell - d and source character s."""
    r, label = action.r, _grid_labels(action)
    arrows = []
    for (i0, d, c), count in per_grid_triple_counts(action).items():
        if i0 == 0 and count:
            for i in range(len(label) - d):
                src, dst = label[i], label[i + d]
                for s in range(r):
                    arrows += [(src[s], dst[(s - c) % r], "")] * count
    return Quiver([v for row in label for v in row], arrows)


def test_oracle_equals_per_grid_triple_route_sweep():
    # the swept actions, the heaviest check-suite job (Jordan q = 11, r = 3)
    # and larger weights, where one product per degree pair stands for
    # ell - d of them
    actions = swept_actions() + [make_cyclic_group(jordan_spec(11), 3),
                                 make_cyclic_group(quantum_spec(3, 5, -1), 4),
                                 make_diagonal_action(quantum_spec(4, 7, zeta(3)), 5, 2, 1),
                                 make_diagonal_action(jordan_spec(6), 7, 3, 4)]
    for action in actions:
        assert gabriel_quiver_oracle(action) == gabriel_quiver_per_grid_triple(action), action


def test_oracle_has_no_vertex_cap():
    # ell*r = 80, 100 and 72: past the 64 vertices the oracle once refused
    for spec, r in ((S11, 40), (S23, 20), (quantum_spec(3, 5, 1), 9)):
        action = make_cyclic_group(spec, r)
        oracle = gabriel_quiver_oracle(action)
        assert len(oracle.vertices) == spec.ell * r > 64
        assert quiver_isomorphic(oracle, quiver_qsg(action)) is not None
