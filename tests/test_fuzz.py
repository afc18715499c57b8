"""Randomized cross-checks of the exact kernels against independent oracles.

Floats and sympy appear here only as test oracles; the library itself is
exact everywhere.
"""

import cmath
import itertools
import random
from fractions import Fraction

import pytest
import sympy

from asreg2.algebra import jordan_spec, quantum_spec
from asreg2.cyclotomic import cyc, cyclotomic_polynomial, zeta
from asreg2.linalg import Echelon
from asreg2.quivers import Quiver, quiver_isomorphic
from asreg2.rationals import RAT
from test_automorphisms import (
    compose,
    identity_automorphism,
    inverse_automorphism,
    is_graded_automorphism,
    linear_automorphism,
    triangular_automorphism,
)
from test_cyclotomic import multiplicative_order
from test_quivers import backtracking_isomorphic


def test_cyclotomic_polynomials_against_sympy():
    t = sympy.symbols("t")
    for n in range(1, 31):
        ours = cyclotomic_polynomial(n)
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, t), t).all_coeffs()[::-1]
        assert [Fraction(int(c)) for c in theirs] == [Fraction(int(c.numerator), int(c.denominator)) for c in ours]


def numeric(z):
    root = cmath.exp(2j * cmath.pi / z.conductor)
    return sum(complex(Fraction(int(c.numerator), int(c.denominator))) * root ** k
               for k, c in enumerate(z.coeffs))


def random_element(rng, conductors=(1, 3, 4, 5, 6, 8, 9, 12)):
    n = rng.choice(conductors)
    z = cyc(0)
    for _ in range(rng.randrange(1, 4)):
        coeff = cyc(RAT(rng.randrange(-4, 5), rng.randrange(1, 4)))
        z = z + coeff * zeta(n, rng.randrange(n))
    return z


def test_arithmetic_matches_numeric_evaluation():
    rng = random.Random(515)
    for _ in range(200):
        a = random_element(rng)
        b = random_element(rng)
        for exact, approx in (
            (a + b, numeric(a) + numeric(b)),
            (a * b, numeric(a) * numeric(b)),
            (a - b, numeric(a) - numeric(b)),
        ):
            assert abs(numeric(exact) - approx) < 1e-9
        if not a.is_zero():
            assert abs(numeric(a.inverse()) - 1 / numeric(a)) < 1e-9


def test_multiplicative_order_formula():
    from math import gcd

    for n in (1, 2, 3, 4, 6, 8, 10, 12):
        for k in range(n):
            z = zeta(n, k)
            expected = n // gcd(n, k) if k else 1
            assert multiplicative_order(z, 4 * n) == expected


def random_quiver(rng, n, arrows):
    vertices = ["v%d" % i for i in range(n)]
    out = []
    for _ in range(arrows):
        out.append((rng.choice(vertices), rng.choice(vertices),
                    rng.choice(["x", "y", ""])))
    return Quiver(vertices, out)


def relabel(q, perm):
    mapping = dict(zip(q.vertices, perm))
    return Quiver(list(mapping.values()),
                  [(mapping[s], mapping[t], tag) for (s, t, tag) in q.arrows])


def brute_force_isomorphic(q1, q2, respect_tags):
    if len(q1.vertices) != len(q2.vertices) or len(q1.arrows) != len(q2.arrows):
        return False
    strip = (lambda a: a) if respect_tags else (lambda a: (a[0], a[1], ""))
    a2 = sorted(strip(a) for a in q2.arrows)
    for perm in itertools.permutations(q2.vertices):
        mapping = dict(zip(q1.vertices, perm))
        mapped = sorted(strip((mapping[s], mapping[t], tag)) for (s, t, tag) in q1.arrows)
        if mapped == a2:
            return True
    return False


def test_quiver_isomorphism_against_brute_force():
    rng = random.Random(99)
    for trial in range(60):
        n = rng.randrange(2, 6)
        q1 = random_quiver(rng, n, rng.randrange(1, 2 * n))
        if trial % 2:
            # positive case: a shuffled relabeling
            perm = list(q1.vertices)
            rng.shuffle(perm)
            q2 = relabel(q1, perm)
        else:
            q2 = random_quiver(rng, n, rng.randrange(1, 2 * n))
        for tags in (False, True):
            got = backtracking_isomorphic(q1, q2, respect_tags=tags) is not None
            assert got == brute_force_isomorphic(q1, q2, tags), (q1.arrows, q2.arrows, tags)


def test_found_isomorphisms_are_valid_bijections():
    rng = random.Random(123)
    for _ in range(30):
        n = rng.randrange(2, 6)
        q1 = random_quiver(rng, n, rng.randrange(1, 2 * n))
        perm = list(q1.vertices)
        rng.shuffle(perm)
        q2 = relabel(q1, perm)
        mapping = backtracking_isomorphic(q1, q2, respect_tags=True)
        assert mapping is not None
        assert sorted(mapping) == list(q1.vertices)
        assert sorted(mapping.values()) == sorted(q2.vertices)
        mapped = sorted((mapping[s], mapping[t], tag) for (s, t, tag) in q1.arrows)
        assert mapped == sorted(q2.arrows)


def random_cycle_union(rng, sizes):
    """Disjoint cycles of these lengths under shuffled labels, each arrow
    pointing either way round and tagged x, y or "" at random; a 2-cycle
    has two arrows between one pair of vertices, parallel or opposite."""
    labels = ["v%d" % i for i in range(sum(sizes))]
    rng.shuffle(labels)
    arrows = []
    start = 0
    for size in sizes:
        cycle = labels[start:start + size]
        start += size
        for k in range(size):
            s, t = cycle[k], cycle[(k + 1) % size]
            if rng.random() < 0.5:
                s, t = t, s
            arrows.append((s, t, rng.choice(["x", "y", ""])))
    return Quiver(labels, arrows)


def random_cycle_sizes(rng, n):
    sizes = []
    while n - sum(sizes) >= 4 and rng.random() < 0.6:
        sizes.append(rng.randrange(2, n - sum(sizes) - 1))
    return sizes + [n - sum(sizes)]


def test_cycle_union_isomorphism_against_brute_force():
    rng = random.Random(2024)
    for trial in range(90):
        sizes = random_cycle_sizes(rng, rng.randrange(2, 8))
        q1 = random_cycle_union(rng, sizes)
        if trial % 3 == 0:
            perm = list(q1.vertices)
            rng.shuffle(perm)
            q2 = relabel(q1, perm)
        elif trial % 3 == 1:
            # the same cycle lengths, fresh orientations and tags
            q2 = random_cycle_union(rng, rng.sample(sizes, len(sizes)))
        else:
            q2 = random_cycle_union(rng, random_cycle_sizes(rng, len(q1.vertices)))
        for tags in (False, True):
            got = quiver_isomorphic(q1, q2, respect_tags=tags) is not None
            assert got == brute_force_isomorphic(q1, q2, tags), (q1.arrows, q2.arrows, tags)


def test_cycle_union_isomorphisms_are_valid_bijections():
    rng = random.Random(321)
    for _ in range(40):
        q1 = random_cycle_union(rng, random_cycle_sizes(rng, rng.randrange(2, 10)))
        perm = list(q1.vertices)
        rng.shuffle(perm)
        q2 = relabel(q1, perm)
        mapping = quiver_isomorphic(q1, q2, respect_tags=True)
        assert mapping is not None
        assert sorted(mapping) == sorted(q1.vertices)
        assert sorted(mapping.values()) == sorted(q2.vertices)
        mapped = sorted((mapping[s], mapping[t], tag) for (s, t, tag) in q1.arrows)
        assert mapped == sorted(q2.arrows)


def dense_rank_oracle(rows, ncols):
    # plain Fraction Gaussian elimination on dense matrices
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    col = 0
    while rank < len(mat) and col < ncols:
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col] / mat[rank][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank


def test_echelon_rank_against_dense_oracle():
    rng = random.Random(2718)
    for _ in range(40):
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
        rows = [[rng.randrange(-3, 4) for _ in range(ncols)] for _ in range(nrows)]
        ech = Echelon()
        for row in rows:
            ech.add({j: cyc(v) for j, v in enumerate(row) if v})
        assert ech.rank == dense_rank_oracle(rows, ncols)


def test_inverse_automorphism_round_trip():
    comm, anti = quantum_spec(1, 1, 1), quantum_spec(1, 1, -1)
    q13 = quantum_spec(1, 3, 1)
    rng = random.Random(31415)

    def scalar(nonzero=False):
        while True:
            value = cyc(RAT(rng.randrange(-4, 5), rng.randrange(1, 4)))
            if rng.random() < 0.3:
                value = value * zeta(rng.choice((3, 4, 5)), rng.randrange(1, 6))
            if not (nonzero and value.is_zero()):
                return value

    cases = []
    for _ in range(25):
        a, b, c, d = (scalar() for _ in range(4))
        if not (a * d - b * c).is_zero():
            cases.append((comm, linear_automorphism(comm, a, b, c, d)))
        # xy + yx only admits diagonal and antidiagonal maps
        p, q = scalar(True), scalar(True)
        cases.append((anti, linear_automorphism(anti, p, 0, 0, q) if rng.random() < 0.5
                      else linear_automorphism(anti, 0, p, q, 0)))
        jordan = jordan_spec(rng.randrange(1, 4))
        a = scalar(True)
        cases.append((jordan, triangular_automorphism(jordan, a, scalar(), a ** jordan.q)))
        cases.append((q13, triangular_automorphism(q13, scalar(True), scalar(), scalar(True))))
    for spec, sigma in cases:
        assert is_graded_automorphism(sigma, spec)
        tau = inverse_automorphism(sigma, spec)
        assert compose(sigma, tau, spec) == identity_automorphism(spec)
        assert compose(tau, sigma, spec) == identity_automorphism(spec)
    # a singular map: x lies outside the span of the images
    with pytest.raises(ValueError):
        inverse_automorphism(linear_automorphism(comm, 1, 2, 2, 4), comm)
