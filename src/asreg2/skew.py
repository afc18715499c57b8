"""The skew group algebra S*G for a diagonal cyclic action.

Elements are combinations of pairs (monomial, group exponent) with the
product (a*g^s)(b*g^t) = a g^s(b) * g^(s+t); the group part carries degree
zero.  On top of the raw arithmetic this module provides the averaging
idempotent e, the eigen-idempotents rho_j, fixed-ring bases, the trace
averaging cross-check for fixed dimensions, the corner identifications
of S with (S*G)e and e(S*G), the graded dimensions of the two-sided ideal
(e) (the operational ampleness test), and an injectivity check for the
map sending s*g to the operator t -> s g(t).

Degreewise computations are independent of one another; everything here
works on immutable inputs and returns fresh values.
"""

from collections import Counter
from dataclasses import dataclass

from .cyclotomic import Cyclotomic, ONE, cyc
from .rationals import RAT
from .algebra import (
    AlgebraElement,
    MONO_ONE,
    Monomial,
    SparseElement,
    graded_basis,
    monomial_product,
    reduce_product,
)
from .linalg import Echelon


def skew_mul_basis(action, k1, k2):
    """(a*g^s)(b*g^t) = a g^s(b) * g^(s+t) with the diagonal action."""
    (m1, s), (m2, t) = k1, k2
    # g^s scales the monomial m2 by xi^(s * char(m2))
    c = action.xi_power(s * action.char(m2))
    gexp = (s + t) % action.r
    return {(m, gexp): c * cm for m, cm in monomial_product(action.spec, m1, m2).items()}


class SkewElement(SparseElement):
    """Finite combination of (y^a x^b, g^s) with exact coefficients."""

    __slots__ = ()

    @staticmethod
    def _key(action, key):
        m, s = key
        return (Monomial(*m), s % action.r)

    _basis_mul = staticmethod(skew_mul_basis)

    @staticmethod
    def one(action):
        return SkewElement(action, {(MONO_ONE, 0): ONE})

    @staticmethod
    def basis_element(action, mono, s, coeff=ONE):
        return SkewElement(action, {(mono, s): coeff})

    def degree(self):
        spec = self.ctx.spec
        degs = {spec.degree(m) for (m, _) in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("element is not homogeneous: degrees %s" % sorted(degs))
        return degs.pop()

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for (m, s) in sorted(self.terms):
            c = self.terms[(m, s)]
            mono = "*".join(p for p in ("y^%d" % m.a if m.a else "", "x^%d" % m.b if m.b else "") if p) or "1"
            gp = "g^%d" % s if s else "1"
            bits.append("(%s)*%s#%s" % (c, mono, gp))
        return " + ".join(bits)

    __repr__ = __str__


def skew_mul(u, v, action):
    """Product in S*G of elements u, v of the skew group algebra of action."""
    return u * v


def idempotent_e(action):
    """e = (1/r) sum_s 1*g^s, with e^2 = e checked on construction."""
    r = action.r
    w = cyc(RAT(1, r))
    e = SkewElement(action, {(MONO_ONE, s): w for s in range(r)})
    assert skew_mul(e, e, action) == e
    return e


def rho_idempotents(action):
    """rho_j = (1/r) sum_s xi^(j s) g^s; rho_0 = e.

    rho_system checks that they are orthogonal idempotents summing to 1.
    """
    r = action.r
    w = cyc(RAT(1, r))
    return [SkewElement(action, {(MONO_ONE, s): w * action.xi_power(j * s) for s in range(r)})
            for j in range(r)]


def rho_system(action):
    """The rho_j, and whether they are orthogonal idempotents summing to 1.

    Returns (rhos, ok); each product rho_i rho_j is formed once.
    """
    rhos = rho_idempotents(action)
    zero = SkewElement.zero(action)
    ok = all(
        skew_mul(ri, rj, action) == (ri if i == j else zero)
        for i, ri in enumerate(rhos) for j, rj in enumerate(rhos)
    )
    return rhos, ok and sum(rhos, zero) == SkewElement.one(action)


def skew_dim(action, d):
    return action.r * len(graded_basis(action.spec, d))


def fixed_ring_basis(spec, action, d):
    """Monomials of degree d fixed by the action (character zero)."""
    return [m for m in graded_basis(spec, d) if action.char(m) == 0]


def fixed_ring_dims(spec, action, D):
    return [len(fixed_ring_basis(spec, action, d)) for d in range(D + 1)]


def molien_dims(spec, action, D):
    """Fixed-space dimensions by averaging traces of the group elements."""
    r = action.r
    out = []
    for d in range(D + 1):
        total = Cyclotomic(0)
        for s in range(r):
            trace = Cyclotomic(0)
            for m in graded_basis(spec, d):
                trace = trace + action.xi_power(s * action.char(m))
            total = total + trace
        avg = total * cyc(RAT(1, r))
        if not avg.is_rational():
            raise ArithmeticError("trace average must be rational")
        value = avg.rational_value()
        if value.denominator != 1:
            raise ArithmeticError("trace average must be an integer")
        out.append(int(value.numerator))
    return out


def molien_check(spec, action, D):
    """Trace averaging against direct enumeration, degree by degree."""
    return molien_dims(spec, action, D) == fixed_ring_dims(spec, action, D)


def _skew_basis(action, d):
    return [(m, s) for m in graded_basis(action.spec, d) for s in range(action.r)]


def corner_dimension_checks(spec, action, D):
    """Graded dimension identities for the corners cut out by e.

    Per degree d <= D, computes exact ranks of the images of
    e*(S*G)_d*e, ((S*G)e)_d and (e(S*G))_d and compares them against
    dim (S^G)_d, dim S_d and dim S_d respectively.
    """
    e = idempotent_e(action)
    rows = []
    ok = True
    for d in range(D + 1):
        ece, se, es = Echelon(), Echelon(), Echelon()
        for (m, s) in _skew_basis(action, d):
            u = SkewElement.basis_element(action, m, s)
            ue = skew_mul(u, e, action)
            eu = skew_mul(e, u, action)
            eue = skew_mul(e, ue, action)
            se.add(dict(ue.terms))
            es.add(dict(eu.terms))
            ece.add(dict(eue.terms))
        dim_s = len(graded_basis(spec, d))
        dim_fixed = len(fixed_ring_basis(spec, action, d))
        row = {
            "d": d,
            "corner_eSGe": ece.rank,
            "fixed": dim_fixed,
            "SGe": se.rank,
            "eSG": es.rank,
            "dim_S": dim_s,
        }
        row["ok"] = ece.rank == dim_fixed and se.rank == dim_s and es.rank == dim_s
        ok = ok and row["ok"]
        rows.append(row)
    return {"ok": ok, "rows": rows}


def ideal_e_dims(spec, action, D):
    """dim (e)_d for d = 0..D, where (e) is the two-sided ideal generated by e.

    (e)_d is spanned by u e v over monomial basis elements u, v of S*G with
    deg u + deg v = d.  For a diagonal action, u e v with arbitrary group
    exponents is a nonzero scalar multiple of (m1 m2) * rho_(char m2), so it
    suffices to span over the exponent-zero pairs; the character grading
    splits the rank computation into r*r independent blocks.  The literal
    spanning-set computation lives in ideal_e_dims_naive and the two are
    cross-checked in the tests.
    """
    r = action.r
    out = []
    # (character, monomial element) for each basis monomial, by degree
    basis = [[(action.char(m), AlgebraElement.monomial(spec, m)) for m in graded_basis(spec, d)]
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


def ideal_e_dims_naive(spec, action, D):
    """Literal spanning-set rank of { u e v } over all basis pairs; slow reference."""
    e = idempotent_e(action)
    out = []
    for d in range(D + 1):
        ech = Echelon()
        for i in range(d + 1):
            for (m1, a) in _skew_basis(action, i):
                u = SkewElement.basis_element(action, m1, a)
                ue = skew_mul(u, e, action)
                for (m2, b) in _skew_basis(action, d - i):
                    v = SkewElement.basis_element(action, m2, b)
                    uev = skew_mul(ue, v, action)
                    ech.add(dict(uev.terms))
        out.append(ech.rank)
    return out


def quotient_by_ideal_e_dims(spec, action, D):
    """dim (S*G/(e))_d for d = 0..D."""
    ideal = ideal_e_dims(spec, action, D)
    return [skew_dim(action, d) - ideal[d] for d in range(D + 1)]


@dataclass
class AmplenessReport:
    spec_text: str
    action_text: str
    hsl: bool
    D: int
    dims: list
    verdict: str
    first_zero_degree: int | None
    total_dim: int
    nonzero_degrees: list

    def lines(self):
        out = [
            "algebra: %s" % self.spec_text,
            "action: %s" % self.action_text,
            "window: degrees 0..%d" % self.D,
            "quotient dims: %s" % self.dims,
            "total dimension up to window: %d" % self.total_dim,
        ]
        if self.first_zero_degree is not None:
            out.append("zero from degree %d on (within the window)" % self.first_zero_degree)
        out.append("verdict: %s" % self.verdict)
        return out


def default_window(spec, action):
    return 4 * spec.ell * action.r


def ampleness_report(spec, action, D=None):
    """Semi-decision for dim_k S*G/(e) < infinity, certified up to degree D.

    The verdict FINITE-UP-TO-D requires the dims to vanish on the whole top
    half of the window and on a tail of length at least ell*r.  Nonzero
    entries near the top yield UNDECIDED; infinite-dimensionality is never
    claimed.  Non-HSL actions get a data-only report.
    """
    if D is None:
        D = default_window(spec, action)
    dims = quotient_by_ideal_e_dims(spec, action, D)
    nonzero = [d for d, v in enumerate(dims) if v]
    last_nonzero = nonzero[-1] if nonzero else -1
    first_zero = last_nonzero + 1
    tail = D - last_nonzero
    need = spec.ell * action.r
    if not action.is_hsl_action():
        verdict = "EXPLORATORY-REPORT-ONLY"
    elif first_zero <= D // 2 + 1 and tail >= need:
        verdict = "FINITE-UP-TO-%d" % D
    else:
        verdict = "UNDECIDED-NONZERO-AT-%s" % (nonzero[-5:],)
    return AmplenessReport(
        spec_text=spec.describe(),
        action_text=action.describe(),
        hsl=action.is_hsl_action(),
        D=D,
        dims=dims,
        verdict=verdict,
        first_zero_degree=first_zero if tail > 0 else None,
        total_dim=sum(dims),
        nonzero_degrees=nonzero,
    )


def min_phi_degree(spec, action, cap=None):
    """Smallest D whose monomials of degree <= D realize every character.

    Below this threshold the truncated operator representation genuinely
    has a kernel (too few characters to separate the group elements), so
    phi_injectivity_check can only be expected to hold from here on.
    Returns None when the window cap is reached (non-faithful actions).
    """
    if cap is None:
        cap = 2 * spec.ell * action.r
    needed = set(range(action.r))
    seen = set()
    for d in range(cap + 1):
        for m in graded_basis(spec, d):
            seen.add(action.char(m))
        if seen >= needed:
            return d
    return None


def phi_injectivity_check(spec, action, D):
    """Trivial kernel test for s*g -> [t -> s g(t)] on truncations.

    Maps every basis element of (S*G)_{<=D} to its operator on S_{<=D}
    (with outputs in S_{<=2D}) and checks the combined matrix has full row
    rank.  This is a necessary condition for the operator map to be an
    isomorphism; it holds once D reaches min_phi_degree (the algebra is a
    domain, so a kernel element would force a vanishing character mix).
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
