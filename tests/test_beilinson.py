import random
from collections import Counter

from asreg2.cyclotomic import ONE, cyc, zeta
from asreg2.rationals import RAT
from asreg2.algebra import (
    MONO_ONE,
    Monomial,
    SparseElement,
    graded_basis,
    jordan_spec,
    monomial_product,
    quantum_spec,
)
from asreg2.automorphisms import CyclicGroupAction, make_cyclic_group, make_diagonal_action
from asreg2.beilinson import (
    LambdaElement,
    NablaElement,
    _tau_j_basis,
    gabriel_quiver_oracle,
    idempotent_system_report,
    lambda_dim,
    nabla_basis,
    nabla_dim,
    nabla_skew_dim_formula,
    nabla_skew_structure_check,
)
from asreg2.linalg import Echelon
from asreg2.quivers import path_count, quiver_isomorphic, quiver_qs, quiver_qsg
from asreg2.skew import SkewElement, _GSkew, rho_system
from test_skew import LINK_CASES, assert_g_basis_link, to_g_basis

S11 = quantum_spec(1, 1, 1)
S12 = quantum_spec(1, 2, 1)
S13 = quantum_spec(1, 3, 1)
S23 = quantum_spec(2, 3, 1)
J1 = jordan_spec(1)


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
    c = action.xi_power(s * action.char(n))
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
    w = cyc(RAT(1, r))
    return GLambdaElement(
        action, {(i, i, MONO_ONE, s): w * action.xi_power(j * s) for s in range(r)}
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


def tau_corner_dims_fast(action):
    """Corner dimensions of J read off the rho-eigenbasis: one per basis element."""
    dims = Counter()
    for (_, src, dst) in _tau_j_basis(action):
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


def test_lambda_dim_and_structure():
    for spec, r in ((S11, 3), (S13, 2), (J1, 2)):
        action = make_cyclic_group(spec, r)
        assert lambda_dim(action) == r * nabla_dim(spec)
        assert nabla_skew_dim_formula(action) == lambda_dim(action)
        assert nabla_skew_structure_check(action)


def idempotent_system_oracle(action):
    """idempotent_system_report by brute force in Lambda.

    Forms all (ell*r)^2 products of the e_i^j and, for each e_i^j, the
    sandwiches e_i^j w e_i^j over the degree-zero basis w.
    """
    idem = lambda_idempotents(action)
    keys = sorted(idem)
    ok = True
    total = GLambdaElement.zero(action)
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
    no_loops = all(src != dst for (_, src, dst) in _tau_j_basis(action))
    # the rho_j are the e_i^j of one vertex i, so brute force checks them with the rest
    return {"ok": ok and corners_one_dim and no_loops, "idempotents": len(keys),
            "rho_certificate": ok, "orthogonal_complete": ok,
            "basic": corners_one_dim, "diagonal_corners_trivial": no_loops}


def test_lambda_idempotent_system():
    # the hdet-one actions, then every diagonal action these planes admit for
    # r <= 4, non-HSL ones included
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
    for action in actions:
        report = idempotent_system_report(action)
        assert report["ok"], (action, report)
        assert report["idempotents"] == action.spec.ell * action.r
        assert report == idempotent_system_oracle(action), action


def test_idempotent_system_rejects_non_primitive_roots():
    # xi of order 2, 3 and 1 below r, and a root of order 5 that is no r-th root
    for r, xi in ((4, zeta(4) ** 2), (6, zeta(3)), (2, cyc(1)), (3, zeta(5))):
        action = CyclicGroupAction(S11, r, xi)
        assert rho_system(action) is False, (r, xi)
        report = idempotent_system_report(action)
        assert not report["basic"] and not report["ok"], (r, xi)


def test_idempotent_system_work_is_quadratic(monkeypatch):
    # the report runs the certificate's O(r^2) g-basis products and no
    # eigenbasis product: the corner lines are read off the certificate
    counts = Counter()

    def counting(name, basis_mul):
        def counted(action, k1, k2):
            counts[name] += 1
            return basis_mul(action, k1, k2)
        return staticmethod(counted)

    monkeypatch.setattr(SkewElement, "_basis_mul", counting("eigen", SkewElement._basis_mul))
    monkeypatch.setattr(_GSkew, "_basis_mul", counting("g", _GSkew._basis_mul))
    r = 40
    assert idempotent_system_report(make_cyclic_group(S11, r))["ok"]
    assert counts["eigen"] == 0
    assert 0 < counts["g"] <= 6 * r * r


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
    oracle = gabriel_quiver_oracle(S11, action)
    assert quiver_isomorphic(oracle, quiver_qsg(S11, 3)) is not None


def test_oracle_trivial_group_gives_qs():
    for spec in (S11, S13, S23):
        action = make_cyclic_group(spec, 1)
        oracle = gabriel_quiver_oracle(spec, action)
        assert quiver_isomorphic(oracle, quiver_qs(spec)) is not None


def test_oracle_small_cases():
    for spec, r in ((S13, 2), (S12, 3), (J1, 2), (quantum_spec(1, 1, zeta(5)), 2)):
        action = make_cyclic_group(spec, r)
        oracle = gabriel_quiver_oracle(spec, action)
        assert quiver_isomorphic(oracle, quiver_qsg(spec, r)) is not None


def test_oracle_scale_guard():
    import pytest

    spec = quantum_spec(3, 5, 1)
    with pytest.raises(ValueError):
        gabriel_quiver_oracle(spec, make_cyclic_group(spec, 9))
