import random

from asreg2.cyclotomic import ONE, cyc, zeta
from asreg2.algebra import MONO_ONE, jordan_spec, quantum_spec
from asreg2.automorphisms import make_cyclic_group
from asreg2.beilinson import (
    LambdaElement,
    NablaElement,
    _tau_j_basis,
    gabriel_quiver_oracle,
    idempotent_system_report,
    lambda_dim,
    lambda_idempotents,
    lambda_unit,
    nabla_algebra,
    nabla_basis,
    nabla_dim,
    nabla_skew_dim_formula,
    nabla_skew_structure_check,
    tau_corner_dims_fast,
    tau_corner_dims_generic,
)
from asreg2.linalg import Echelon
from asreg2.quivers import path_count, quiver_isomorphic, quiver_qs, quiver_qsg

S11 = quantum_spec(1, 1, 1)
S12 = quantum_spec(1, 2, 1)
S13 = quantum_spec(1, 3, 1)
S23 = quantum_spec(2, 3, 1)
J1 = jordan_spec(1)


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
    total = LambdaElement.zero(action)
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
                w = LambdaElement(action, {(i, i, MONO_ONE, s): ONE})
                proj = idem[a] * w * idem[a]
                if not proj.is_zero():
                    ech.add(dict(proj.terms))
        if ech.rank != 1:
            corners_one_dim = False
            break
    no_loops = all(src != dst for (_, src, dst) in _tau_j_basis(action))
    return {"ok": ok and corners_one_dim and no_loops, "idempotents": len(keys),
            "orthogonal_complete": ok, "basic": corners_one_dim,
            "diagonal_corners_trivial": no_loops}


def test_lambda_idempotent_system():
    for spec, r in ((S11, 3), (S12, 2), (S13, 2), (J1, 2), (S11, 1)):
        action = make_cyclic_group(spec, r)
        report = idempotent_system_report(action)
        assert report["ok"], report
        assert report["idempotents"] == spec.ell * r
        assert report == idempotent_system_oracle(action)


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
    from asreg2.algebra import MONO_ONE, graded_basis
    from asreg2.beilinson import lambda_idempotents
    from asreg2.cyclotomic import ONE
    from asreg2.linalg import Echelon

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
                w = LambdaElement(action, {key: ONE})
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
