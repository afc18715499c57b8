"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values marked as regression values were computed by this
package once and frozen; everything else is pinned by construction or by
an independent oracle in the module tests.
"""

import random
import time
from fractions import Fraction
from math import gcd, lcm

from asreg2.cyclotomic import cyc, zeta
from asreg2.algebra import graded_basis, quantum_spec
from asreg2.automorphisms import hdet, make_cyclic_group
from asreg2.skew import (
    corner_dimension_checks,
    fixed_ring_dims,
    molien_dims,
    rho_system,
)
from asreg2.quivers import (
    Quiver,
    bgp_reflect,
    covering_quiver,
    make_canonical_quiver,
    path_count,
    quiver_isomorphic,
    quiver_qs,
    quiver_qsg,
)
from asreg2.beilinson import (
    gabriel_quiver_oracle,
    nabla_dim,
)
from test_automorphisms import (
    compose,
    degree,
    diagonal_automorphism,
    hdet_koszul,
    hdet_normal_recursion,
    hdet_table,
    jordan_spec,
    linear_automorphism,
    monomial,
    triangular_automorphism,
)
from test_beilinson import idempotent_structure_full, lambda_dim, tau_j_basis
from test_quivers import canonical_type, components_oracle, is_sink, is_source, search_to
from test_skew import SkewElement, quotient_by_ideal_e_dims


class Stopwatch:
    def __init__(self, label, limit):
        self.label = label
        self.limit = limit

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            status = "PASS" if elapsed < self.limit else "PASS (over time budget!)"
            print("ACCEPT %-52s %s (%.2fs < %ds)" % (self.label, status, elapsed, self.limit))
            assert elapsed < self.limit, "time budget exceeded: %.2fs" % elapsed
        else:
            print("ACCEPT %-52s FAIL (%.2fs)" % (self.label, elapsed))
        return False


WEIGHTS = [(1, 1), (1, 2), (1, 3), (2, 3), (3, 5)]


def sweep_specs(wx, wy):
    specs = [quantum_spec(wx, wy, 1)]
    if wx == 1:
        specs.append(jordan_spec(wy))
    return specs


def action_admissible(spec, r):
    return spec.family != "jordan" or (spec.q + 1) % r == 0


# --- criterion 1: classification table, three-way hdet agreement -----------

RANK1_UNITS = [cyc(1), cyc(-1), cyc(2), cyc(-2), cyc(Fraction(1, 2)), cyc(Fraction(3, 2)),
               zeta(3), zeta(3) ** 2, zeta(4), zeta(6), zeta(6) ** 5]


def test_criterion_01_hdet_table_rows():
    rng = random.Random(2026)

    def pick():
        return rng.choice(RANK1_UNITS)

    def table(sigma, spec, a, b, c, d):
        # the shipped closed forms give the table's value
        value = hdet_table(sigma, spec)
        assert hdet(spec, a, b, c, d) == value
        return value

    with Stopwatch("01 hdet table vs independent methods", 1):
        s11 = quantum_spec(1, 1, 1)
        s11m = quantum_spec(1, 1, -1)
        s11g = quantum_spec(1, 1, cyc(2))
        s1q_comm = quantum_spec(1, 3, 1)
        s1q_gen = quantum_spec(1, 2, zeta(3))
        spq = quantum_spec(2, 3, cyc(Fraction(-1, 2)))
        j1, j3 = jordan_spec(1), jordan_spec(3)
        for _ in range(20):
            a, b, c, d = pick(), pick(), pick(), pick()
            # row 1: xy - yx, sigma in GL_2
            if not (a * d - b * c).is_zero():
                sigma = linear_automorphism(s11, a, b, c, d)
                assert table(sigma, s11, a, b, c, d) == hdet_koszul(sigma, s11) == a * d - b * c
            # row 2: xy + yx, diagonal
            sigma = diagonal_automorphism(s11m, a, d)
            assert table(sigma, s11m, a, 0, 0, d) == hdet_koszul(sigma, s11m) == a * d
            assert hdet_normal_recursion(sigma, s11m) == a * d
            # row 3: xy + yx, antidiagonal
            sigma = linear_automorphism(s11m, 0, b, c, 0)
            assert table(sigma, s11m, 0, b, c, 0) == hdet_koszul(sigma, s11m) == b * c
            # row 4: xy - alpha yx (alpha not 0, +-1), diagonal
            sigma = diagonal_automorphism(s11g, a, d)
            assert table(sigma, s11g, a, 0, 0, d) == hdet_koszul(sigma, s11g) == a * d
            assert hdet_normal_recursion(sigma, s11g) == a * d
            # row 5: (1, q) commutative, triangular
            sigma = triangular_automorphism(s1q_comm, a, c, d)
            assert table(sigma, s1q_comm, a, 0, c, d) == hdet_normal_recursion(sigma, s1q_comm) == a * d
            # row 6: (1, q) quantum, diagonal
            sigma = diagonal_automorphism(s1q_gen, a, d)
            assert table(sigma, s1q_gen, a, 0, 0, d) == hdet_normal_recursion(sigma, s1q_gen) == a * d
            # row 7: (p, q) quantum, diagonal
            sigma = diagonal_automorphism(spq, a, d)
            assert table(sigma, spq, a, 0, 0, d) == hdet_normal_recursion(sigma, spq) == a * d
            # row 8: jordan, x -> a x, y -> c x^q + a^q y
            for spec in (j1, j3):
                sigma = triangular_automorphism(spec, a, c, a ** spec.q)
                expected = a ** (spec.q + 1)
                assert table(sigma, spec, a, 0, c, a ** spec.q) == expected
                assert hdet_normal_recursion(sigma, spec) == expected
                if spec.q == 1:
                    assert hdet_koszul(sigma, spec) == expected


# --- criterion 2: the worked six-vertex skew quiver -------------------------

GOLDEN_QSG_11_3 = Quiver(
    ["v0_0", "v0_1", "v0_2", "v1_0", "v1_1", "v1_2"],
    [
        ("v0_2", "v1_0", "x"), ("v0_0", "v1_1", "x"), ("v0_1", "v1_2", "x"),
        ("v0_1", "v1_0", "y"), ("v0_2", "v1_1", "y"), ("v0_0", "v1_2", "y"),
    ],
)


def test_criterion_02_worked_six_vertex_quiver():
    with Stopwatch("02 six-vertex skew quiver matches golden copy", 1):
        q = quiver_qsg(make_cyclic_group(quantum_spec(1, 1, 1), 3))
        assert len(q.vertices) == 6 and len(q.arrows) == 6
        assert quiver_isomorphic(q, GOLDEN_QSG_11_3, respect_tags=True) is not None


# --- criterion 3: disjoint copies of Q_S ------------------------------------

def test_criterion_03_disjoint_copy_decompositions():
    with Stopwatch("03 skew quiver splits into copies of Q_S", 5):
        spec = quantum_spec(1, 3, 1)
        comps = components_oracle(quiver_qsg(make_cyclic_group(spec, 2)))
        assert len(comps) == 2
        assert all(quiver_isomorphic(c, quiver_qs(spec), respect_tags=True) for c in comps)
        spec = quantum_spec(3, 5, 1)
        comps = components_oracle(quiver_qsg(make_cyclic_group(spec, 4)))
        assert len(comps) == 4
        assert all(quiver_isomorphic(c, quiver_qs(spec), respect_tags=True) for c in comps)


# --- criterion 4: covering decomposition for weights (1,3), r = 6 -----------

def test_criterion_04_covering_decomposition():
    with Stopwatch("04 (1,3) r=6 splits into two 3-coverings", 5):
        spec = quantum_spec(1, 3, 1)
        assert lcm(spec.ell, 6) == 12 and gcd(spec.ell, 6) == 2
        comps = components_oracle(quiver_qsg(make_cyclic_group(spec, 6)))
        assert len(comps) == 2
        cover = covering_quiver(spec, 3)
        assert all(quiver_isomorphic(c, cover, respect_tags=True) for c in comps)


# --- criterion 5: full decomposition sweep ----------------------------------

def test_criterion_05_decomposition_sweep():
    with Stopwatch("05 decomposition sweep over weights and orders", 10):
        for (wx, wy) in WEIGHTS:
            for spec in sweep_specs(wx, wy):
                ell = spec.ell
                for r in range(1, 7):
                    if not action_admissible(spec, r):
                        continue
                    m = lcm(ell, r)
                    c = m // ell
                    comps = components_oracle(quiver_qsg(make_cyclic_group(spec, r)))
                    assert len(comps) == gcd(ell, r)
                    cover = covering_quiver(spec, c)
                    for comp in comps:
                        assert quiver_isomorphic(comp, cover, respect_tags=True) is not None
                        assert canonical_type(comp) == (c * wx, c * wy)


# --- criterion 6: reflection path to the canonical quiver -------------------

def test_criterion_06_reflection_path():
    with Stopwatch("06 reflections from the 3-covering to canonical (3,9)", 30):
        source = covering_quiver(quantum_spec(1, 3, 1), 3)
        target = make_canonical_quiver(3, 9)
        seq = search_to(source, target)
        assert seq is not None
        state = source
        for v in seq:
            state = bgp_reflect(state, v)
        assert quiver_isomorphic(state, target) is not None


# --- criterion 7: idempotent system of Lambda -------------------------------

def test_criterion_07_idempotent_system():
    # weight pairs spanning every Gorenstein parameter from 2 through 8
    pairs = WEIGHTS + [(1, 4), (1, 5), (2, 5)]
    with Stopwatch("07 Lambda idempotents orthogonal, complete, basic", 120):
        for (wx, wy) in pairs:
            for spec in sweep_specs(wx, wy):
                if spec.ell > 8:
                    continue
                for r in range(1, 7):
                    if not action_admissible(spec, r):
                        continue
                    action = make_cyclic_group(spec, r)
                    # check's Lambda line reads the rho certificate, whose
                    # docstring proves the other two facts
                    assert rho_system(action), (spec.describe(), r)
                    assert idempotent_structure_full(action), (spec.describe(), r)
                    assert all(src != dst for (_, src, dst) in tau_j_basis(action))


# --- criterion 8: operational ampleness test --------------------------------

# first all-zero degree d0 and total dimension of S*G/(e): regression values
# computed by this package (exact ranks) and frozen on first run
AMPLENESS_CASES = [
    ("quantum", (1, 1), 1, 2, 1, 1),
    ("quantum", (1, 1), 1, 3, 2, 4),
    ("quantum", (1, 1), 1, 4, 3, 10),
    ("quantum-zeta5", (1, 1), None, 2, 1, 1),
    ("quantum-zeta5", (1, 1), None, 3, 2, 4),
    ("quantum", (1, 3), 1, 2, 1, 1),
    ("quantum", (1, 3), 1, 6, 13, 35),
    ("jordan", (1, 1), None, 2, 1, 1),
]


def test_criterion_08_ampleness_windows():
    with Stopwatch("08 S*G/(e) finite with recorded vanishing degrees", 300):
        for (family, (wx, wy), alpha, r, d0_expected, total_expected) in AMPLENESS_CASES:
            if family == "jordan":
                spec = jordan_spec(wy)
            elif family == "quantum-zeta5":
                spec = quantum_spec(wx, wy, zeta(5))
            else:
                spec = quantum_spec(wx, wy, alpha)
            action = make_cyclic_group(spec, r)
            D = 4 * spec.ell * r
            dims = quotient_by_ideal_e_dims(spec, action, D)
            nonzero = [d for d, v in enumerate(dims) if v]
            last = nonzero[-1] if nonzero else -1
            assert D - last >= spec.ell * r, "zero tail too short for %s r=%d" % (
                spec.describe(), r)
            d0 = last + 1
            assert d0 == d0_expected, (spec.describe(), r, d0)
            assert sum(dims) == total_expected, (spec.describe(), r, sum(dims))


# --- criterion 9: fixed-ring data -------------------------------------------

def test_criterion_09_fixed_ring_data():
    with Stopwatch("09 fixed dims equal trace averages up to degree 20", 120):
        cases = [
            (quantum_spec(1, 1, 1), 2), (quantum_spec(1, 1, 1), 3),
            (quantum_spec(1, 1, 1), 4), (quantum_spec(1, 1, zeta(5)), 3),
            (quantum_spec(1, 3, 1), 2), (quantum_spec(1, 3, 1), 6),
            (quantum_spec(2, 3, 1), 5), (quantum_spec(3, 5, 1), 4),
            (jordan_spec(1), 2), (jordan_spec(3), 4),
        ]
        for spec, r in cases:
            action = make_cyclic_group(spec, r)
            assert molien_dims(action, 20) == fixed_ring_dims(action, 20)
        action = make_cyclic_group(quantum_spec(1, 1, 1), 3)
        assert fixed_ring_dims(action, 6) == [1, 0, 1, 2, 1, 2, 3]


# --- criterion 10: Gabriel quiver oracle ------------------------------------

def test_criterion_10_gabriel_oracle():
    with Stopwatch("10 Gabriel oracle agrees with the skew quiver", 120):
        for (wx, wy) in WEIGHTS:
            for spec in sweep_specs(wx, wy):
                for r in range(1, 7):
                    if spec.ell * r > 36 or not action_admissible(spec, r):
                        continue
                    action = make_cyclic_group(spec, r)
                    oracle = gabriel_quiver_oracle(action)
                    assert quiver_isomorphic(oracle, quiver_qsg(action)) is not None, (
                        spec.describe(), r)


# --- criterion 11: property suites ------------------------------------------

def test_criterion_11_property_suites():
    rng = random.Random(11)
    with Stopwatch("11 property suites", 180):
        # field axioms on a random sample
        pool = [cyc(1), cyc(-2), cyc(Fraction(2, 3)), zeta(3), zeta(4), zeta(6) + 1]
        for _ in range(60):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert (a * a.inverse()).is_one()

        # associativity and degree additivity in S and S*G
        spec = jordan_spec(2)
        action = make_cyclic_group(spec, 3)
        basis_pool = [
            SkewElement.basis_element(action, m, s)
            for d in range(4) for m in graded_basis(spec, d) for s in range(3)
        ]
        for _ in range(15):
            u, v, w = (rng.choice(basis_pool) for _ in range(3))
            assert (u * v) * w == u * (v * w)
        for _ in range(10):
            d1, d2 = rng.randrange(1, 6), rng.randrange(1, 6)
            m1 = rng.choice(graded_basis(spec, d1))
            m2 = rng.choice(graded_basis(spec, d2))
            prod = monomial(spec, m1) * monomial(spec, m2)
            assert degree(prod) == d1 + d2

        # hdet is a homomorphism on composable classified forms
        s11 = quantum_spec(1, 1, 1)
        for _ in range(10):
            a, b, c, d, a2, b2, c2, d2 = (rng.choice(RANK1_UNITS) for _ in range(8))
            if (a * d - b * c).is_zero() or (a2 * d2 - b2 * c2).is_zero():
                continue
            s = linear_automorphism(s11, a, b, c, d)
            t = linear_automorphism(s11, a2, b2, c2, d2)
            assert hdet_table(compose(s, t, s11), s11) == hdet_table(s, s11) * hdet_table(t, s11)

        # BGP involution and canonical-type invariance on all constructions
        # with at most 12 vertices
        small = []
        for (wx, wy) in WEIGHTS:
            spec = quantum_spec(wx, wy, 1)
            for c in range(1, 7):
                if c * spec.ell <= 12:
                    small.append(covering_quiver(spec, c))
            for r in range(1, 7):
                if spec.ell * r <= 12:
                    small.extend(components_oracle(quiver_qsg(make_cyclic_group(spec, r))))
        assert len(small) > 20
        for q in small:
            base = canonical_type(q)
            for v in q.vertices:
                if is_sink(q, v) or is_source(q, v):
                    refl = bgp_reflect(q, v)
                    assert bgp_reflect(refl, v) == q
                    assert canonical_type(refl) == base

        # corner dimension identities up to degree 10
        for spec, r in ((quantum_spec(1, 1, 1), 2), (quantum_spec(1, 3, 1), 6),
                        (jordan_spec(1), 2)):
            action = make_cyclic_group(spec, r)
            assert corner_dimension_checks(action, 10)["ok"]

        # dimension identities for the Beilinson algebra and its skew version
        for (wx, wy) in WEIGHTS:
            spec = quantum_spec(wx, wy, 1)
            assert nabla_dim(spec) == path_count(quiver_qs(spec))
            for r in (1, 2, 3):
                action = make_cyclic_group(spec, r)
                assert lambda_dim(action) == r * nabla_dim(spec)
                assert path_count(quiver_qsg(action)) == lambda_dim(action)
