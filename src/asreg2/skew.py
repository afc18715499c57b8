"""The skew group algebra S*G for a diagonal cyclic action.

Elements are combinations of pairs (monomial m, character w) standing for
m * rho_w, where rho_w = (1/r) sum_s xi^(w s) g^s are the eigen-idempotents
of the group; the group part carries degree zero.  In this basis the product
is (m rho_w)(n rho_v) = [w + char n = v (mod r)] (m n) rho_v, the averaging
idempotent e = rho_0 and every rho_j are unit vectors, and the corners they
cut out are coordinate subspaces.  rho_system certifies the basis against
the g-basis m * g^s of the definition.  The module also provides fixed-ring
bases, the trace averaging cross-check for fixed dimensions, the corner
identifications of S with (S*G)e and e(S*G), the graded dimensions of the
two-sided ideal (e) (the operational ampleness test), and the degree from
which the map sending s*g to the operator t -> s g(t) is injective.

Degreewise computations are independent of one another; everything here
works on immutable inputs and returns fresh values.
"""

import itertools
from collections import Counter
from dataclasses import dataclass
from math import gcd

from .cyclotomic import Cyclotomic, ONE, cyc
from .rationals import RAT
from .algebra import (
    AlgebraElement,
    MONO_ONE,
    Monomial,
    SparseElement,
    _y_exponents,
    graded_basis,
    hilbert_dims,
    monomial_product,
    reduce_product,
)


def skew_mul_basis(action, k1, k2):
    """(m rho_w)(n rho_v) = [w + char n = v (mod r)] (m n) rho_v; see rho_system."""
    (m1, w), (m2, v) = k1, k2
    if (w + action.char(m2)) % action.r != v:
        return {}
    return {(m, v): cm for m, cm in monomial_product(action.spec, m1, m2).items()}


class SkewElement(SparseElement):
    """Finite combination of (y^a x^b, rho_w) with exact coefficients."""

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


def rho_system(action):
    """Certificate of the basis m rho_w and of skew_mul_basis, in O(r) steps.

    rho_w = (1/r) sum_s xi^(w s) g^s is read off the xi_power table, whose
    exponents are taken mod r.  The certificate checks two facts:

    (0) the table is the power sequence of xi: xi(0) = 1 and xi(k) xi =
        xi(k + 1) for k = 0..r-1, so xi(k) = xi^k for 0 <= k < r and the
        step at k = r-1 gives xi^r = 1, whence xi(k) = xi^k for every k;
    (2) xi is primitive: xi(k) != 1 for 0 < k < r, whence sum_s xi^(k s) =
        r [k = 0] for k mod r, since (xi^k - 1) sum_s xi^(k s) = xi^(k r)
        - 1 = 0 in a field.

    Given these, the defining identities hold in the g-basis m g^s of S*G,
    coefficient by coefficient, as identities of exponents mod r:

    (1) g rho_w = xi^(-w) rho_w: the coefficient of g^s on the left is
        (1/r) xi^(w (s - 1)) = xi^(-w) (1/r) xi^(w s);
    (3) sum_w rho_w = 1: the coefficient of g^s is (1/r) sum_w xi^(w s) =
        [s = 0] by (2);
    (4) rho_w n = n rho_(w + char n) for a monomial n: g^s n = xi^(s char n)
        n g^s, so the coefficient of n g^s on the left is (1/r) xi^(w s +
        s char n) and on the right (1/r) xi^((w + char n) s).

    By (1), g^s rho_w = xi^(-w s) rho_w, so rho_v rho_w = (1/r) sum_s
    xi^((v - w) s) rho_w = [v = w] rho_w by (2): the rho_w are orthogonal
    idempotents.  Multiplying (3) by g^s gives g^s = sum_w xi^(-w s) rho_w,
    so the m rho_w span S*G; there are r dim S_d of them in degree d, so
    they are a basis.  By (4), (m rho_w)(n rho_v) = m n rho_(w + char n)
    rho_v = [w + char n = v] (m n) rho_v, which is skew_mul_basis.  The
    tests re-run (1), (3) and (4) as g-basis products.

    The same certificate makes the idempotent system of Lambda = nabla(S)*G
    orthogonal, complete and basic, so check reads both lines off one run.
    Lambda_0 has the basis e_i^w = M(i->i; 1) rho_w, and the guards [l = i]
    and [w + char 1 = v] of beilinson.lambda_mul_basis give e_i^w e_k^v =
    [i = k][w = v] e_i^w: the e_i^j are orthogonal idempotents, one copy of
    the rho_j per vertex i, and they sum to the unit as the rho_j do by
    (3).  By (1) and (3), g^s = sum_w xi^(-w s) rho_w, so rho_j g^s rho_j =
    xi^(-j s) rho_j != 0 and every corner e_i^j Lambda_0 e_i^j is the line
    k e_i^j.  No positive-degree basis element M(i->j; m) rho_w lies in a
    diagonal corner, as it has i < j.  The tests re-run all of this by
    brute force in Lambda.
    """
    r, xi = action.r, action.xi_power
    return (xi(0) == 1 and all(xi(k) * action.xi == xi(k + 1) for k in range(r))
            and all(xi(k) != 1 for k in range(1, r)))


def skew_dim(action, d):
    return action.r * len(_y_exponents(action.spec, d))


def fixed_ring_basis(spec, action, d):
    """Monomials of degree d fixed by the action (character zero)."""
    return [m for m in graded_basis(spec, d) if action.char(m) == 0]


def fixed_ring_dims(spec, action, D):
    return [len(fixed_ring_basis(spec, action, d)) for d in range(D + 1)]


def molien_dims(spec, action, D):
    """Fixed-space dimensions by averaging traces of the group elements.

    The trace of g^s on S_d is sum_c count_d(c) xi^(s c), over the
    characters c of the degree-d monomials and their numbers count_d(c).
    Summed over s first, the average is (1/r) sum_c count_d(c) T(c) with the
    power sum T(c) = sum_s xi^(s c), and T(c) = T(gcd(c, r)): with g =
    gcd(c, r), the map s -> s c on Z/r has image the multiples of g and
    kernel of size g, as has s -> s g, so s c and s g run over the same
    multiset mod r.  The xi_power table reads exponents mod r, so this rests
    on no property of xi (not the primitivity rho_system certifies), and
    each T(g) is still summed in the field, once per divisor g = gcd(c, r).
    """
    r = action.r
    inv_r = cyc(RAT(1, r))
    power_sums = {}
    out = []
    for d in range(D + 1):
        counts = Counter(map(action.char, graded_basis(spec, d)))
        total = Cyclotomic(0)
        for c, n in counts.items():
            g = gcd(c, r)
            t = power_sums.get(g)
            if t is None:
                t = Cyclotomic(0)
                for s in range(r):
                    t = t + action.xi_power(s * g)
                power_sums[g] = t
            total = total + t * n
        avg = total * inv_r
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


def corner_dimension_checks(spec, action, D):
    """Graded dimension identities for the corners cut out by e.

    Per degree d <= D, computes the ranks of the images of e*(S*G)_d*e,
    ((S*G)e)_d and (e(S*G))_d and compares them against dim (S^G)_d,
    dim S_d and dim S_d respectively.  With e = rho_0 and u = m rho_w, the
    products u e, e u and e u e are zero or one nonzero term (skew_mul_basis
    multiplies by the unit monomial), so each rank is the number of distinct
    keys; a product with more than one term makes its row not ok.
    """
    e = (MONO_ONE, 0)
    rows = []
    for d in range(D + 1):
        basis = graded_basis(spec, d)
        ece, se, es = [], [], []
        for u in itertools.product(basis, range(action.r)):
            ue = skew_mul_basis(action, u, e)
            se.append(ue)
            es.append(skew_mul_basis(action, e, u))
            # e (c k) = c (e k) with c != 0
            ece += [skew_mul_basis(action, e, k) for k in ue]
        single = all(len(p) <= 1 and all(p.values()) for p in ece + se + es)
        n_ece, n_se, n_es = (len(set().union(*prods)) for prods in (ece, se, es))
        dim_s, dim_fixed = len(basis), len(fixed_ring_basis(spec, action, d))
        row = {"d": d, "corner_eSGe": n_ece, "fixed": dim_fixed,
               "SGe": n_se, "eSG": n_es, "dim_S": dim_s}
        row["ok"] = single and (n_ece, n_se, n_es) == (dim_fixed, dim_s, dim_s)
        rows.append(row)
    return {"ok": all(row["ok"] for row in rows), "rows": rows}


def _check_leading_term(spec):
    """The leading-term hypothesis of the counts below: x*y leads with y*x,
    the case a = b = 1 of the formula for x^b y^a in monomial_product."""
    x, y = AlgebraElement.gen_x(spec), AlgebraElement.gen_y(spec)
    if max(reduce_product(x, y, spec).terms) != Monomial(1, 1):
        raise ArithmeticError("x*y must have the leading monomial y*x for the leading-term count")


def _sub_char_masks(r, px, py):
    """W(a, b), the r-bit mask of the characters i py + j px (mod r) with i <= a
    and j <= b, as a memoized function of (min(a, r-1), min(b, r-1)).

    Each mask is one step from smaller ones: W(0, j) = W(0, j-1) | bit(j px)
    and W(i, j) = W(i-1, j) | W(0, j) rotated by i py.  So W(a, b) must be
    asked for after every W(a', b') with a' <= a, b' <= b, as a walk through
    the monomials y^a x^b in order of degree does.
    """
    full = (1 << r) - 1
    masks = {(0, 0): 1}

    def mask(a, b):
        key = (a if a < r else r - 1, b if b < r else r - 1)
        found = masks.get(key)
        if found is None:
            i, j = key
            if i:
                row, s = masks[0, j], i * py % r
                found = masks[i - 1, j] | (row << s | row >> (r - s)) & full
            else:
                found = masks[0, j - 1] | 1 << (j * px % r)
            masks[key] = found
        return found

    return mask


def ideal_e_dims(spec, action, D):
    """dim (e)_d for the degrees d = 0, 1, ... that the count walks, where (e)
    is the two-sided ideal generated by e.

    The walk ends at the tail-lemma stop below, after h = max(w_x, w_y)
    full degrees in a row, or at D.  Every later degree up to D is full,
    (e)_d = (S*G)_d of dimension r dim S_d, and is not listed.

    (e)_d is spanned by u e v over basis elements u, v of S*G with deg u +
    deg v = d.  For a diagonal action u e v is a nonzero multiple of
    (m1 m2) * rho_(char m2), so (e)_d splits into blocks w: the span of the
    products m1 m2 of monomials with char m2 = w, deg m1 + deg m2 = d.
    Let W(m) be the characters of the sub-monomials y^i x^j (i <= a, j <= b)
    of m = y^a x^b, an r-bit mask that depends on (min(a, r-1), min(b,
    r-1)) alone.  In both families dim (e)_d is the sum over the degree-d
    monomials m of #W(m): block w is spanned by the monomials m with w in
    W(m).  Two hypotheses carry the proof, and the count raises without
    them: x*y leads with y*x (_check_leading_term), and every term of x*y
    has the character of y*x, as an action that respects the relation does.

    Quantum plane: m1 m2 is a nonzero scalar times the one monomial
    y^(a1+a2) x^(b1+b2), and m lies in block w exactly when it factors as
    m1 m2 with char m2 = w, i.e. w in W(m).

    Jordan plane: the second hypothesis is py = q px (mod r), so
    char(y^a x^b) = px (a q + b) = px deg, and block w is the sum of
    S_(d-k) S_k over the k with px k = w.  By monomial_product,
    (y^a1 x^b1)(y^a2 x^b2) leads with y^(a1+a2) x^(b1+b2), coefficient 1,
    and its other terms have fewer y's; in degree d the monomial
    y^a x^(d-aq) is fixed by a.  So S_(d-k) S_k lies in the span of the
    monomials with a <= A_k = floor((d-k)/q) + floor(k/q), and each of them
    leads one of its products, so it is that span.  Now y^a x^b has a
    sub-monomial y^i x^j of degree k (i <= a, j = k - i q <= b) exactly
    when some i lies in [a - floor((d-k)/q), floor(k/q)], i.e. when
    a <= A_k, and that sub-monomial has character px k.  So block w is
    spanned by the m with w in W(m) here too.

    Tail lemma: let h = max(w_x, w_y).  A degree whose count reaches
    dim (S*G)_d = r dim S_d is full: (e)_d = (S*G)_d (so is a degree with
    S_d = 0).  If the degrees N..N+h-1 are full, so is every degree >= N.
    Let m = y^a x^b have degree >= N.  Its left factors 1, y, ..., y^a,
    y^a x, ..., y^a x^b rise in steps of w_y or w_x, at most h, from 0 to
    deg m, so one of them, m1, has degree in [N, N+h).  With m = m1 m2 no
    x passes a y, so monomial_product gives m1 m2 = m with coefficient 1,
    and m rho_w = (m1 rho_(w - char m2))(m2 rho_w) lies in (e), as
    m1 rho_(w - char m2) does.  So after h full degrees in a row the count
    stops.

    The tests cross-check this against elimination in every block and
    against the literal spanning set.
    """
    _check_leading_term(spec)
    if {action.char(m) for m in monomial_product(spec, (0, 1), (1, 0))} != {action.char((1, 1))}:
        raise ArithmeticError("every term of x*y must have the character of y*x for the count"
                              " (on the Jordan plane, py = q*px mod r)")
    r, wx, wy = action.r, spec.w_x, spec.w_y
    h = max(wx, wy)
    mask = _sub_char_masks(r, action.px, action.py)
    out = []
    run = 0  # the number of full degrees just below d
    for d in range(D + 1):
        if run >= h:
            break
        ys = _y_exponents(spec, d)
        count = sum(mask(a, (d - a * wy) // wx).bit_count() for a in ys)
        out.append(count)
        run = run + 1 if count == r * len(ys) else 0
    return out


def _walked_quotient_dims(spec, action, D):
    """dim (S*G/(e))_d over the degrees ideal_e_dims walks; 0 up to D after."""
    ideal = ideal_e_dims(spec, action, D)
    return [action.r * n - i for n, i in zip(hilbert_dims(spec, len(ideal) - 1), ideal)]


def quotient_by_ideal_e_dims(spec, action, D):
    """dim (S*G/(e))_d for d = 0..D.

    Past the degrees ideal_e_dims walks, (e)_d = (S*G)_d by the tail lemma,
    so those degrees are 0 without any per-degree work.
    """
    walked = _walked_quotient_dims(spec, action, D)
    return walked + [0] * (D + 1 - len(walked))


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
    need: int  # the zero tail, ell*r degrees, that a FINITE verdict requires

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
        if self.hsl and self.D + 1 < self.need:
            out.append("window too short to certify: FINITE needs %d zero degrees, the window has %d"
                       % (self.need, self.D + 1))
        out.append("verdict: %s" % self.verdict)
        return out


def default_window(spec, action):
    return 4 * spec.ell * action.r


def ampleness_report(spec, action, D=None):
    """Semi-decision for dim_k S*G/(e) < infinity, certified up to degree D.

    The verdict FINITE-UP-TO-D requires the dims to vanish on the whole top
    half of the window and on a tail of length at least ell*r.  Nonzero
    entries near the top, or a window shorter than ell*r, yield UNDECIDED;
    infinite-dimensionality is never claimed.  Non-HSL actions get data only.
    """
    if D is None:
        D = default_window(spec, action)
    # the unwalked degrees are 0, so they add no nonzero degree and no dimension
    walked = _walked_quotient_dims(spec, action, D)
    nonzero = [d for d, v in enumerate(walked) if v]
    last_nonzero = nonzero[-1] if nonzero else -1
    first_zero = last_nonzero + 1
    tail = D - last_nonzero
    need = spec.ell * action.r
    if not action.is_hsl_action():
        verdict = "EXPLORATORY-REPORT-ONLY"
    elif D + 1 < need:
        verdict = "UNDECIDED-WINDOW-SHORTER-THAN-%d" % need
    elif first_zero <= D // 2 + 1 and tail >= need:
        verdict = "FINITE-UP-TO-%d" % D
    else:
        verdict = "UNDECIDED-NONZERO-AT-%s" % (nonzero[-5:],)
    return AmplenessReport(
        spec_text=spec.describe(),
        action_text=action.describe(),
        hsl=action.is_hsl_action(),
        D=D,
        dims=walked + [0] * (D + 1 - len(walked)),
        verdict=verdict,
        first_zero_degree=first_zero if tail > 0 else None,
        total_dim=sum(walked),
        need=need,
    )


def min_phi_degree(spec, action):
    """Least D from which s*g -> [t -> s g(t)] is injective on truncations.

    The map is injective on (S*G)_{<=D} exactly when the operators on
    S_{<=D} of the basis elements m*g^s are linearly independent.  Their
    rank is a count:

    * The row of m*g^s holds xi^(s char t) (m t) at t, for the monomials t
      of S_{<=D}.  By monomial_product, m t leads with y^(a+a') x^(b+b')
      and its other terms have fewer y's.  So the leading entries
      (t, lead(m t)) of m vanish in the rows of every other m' with no
      more y's than m: the matrix is block-triangular by m.
    * The block of m is the character matrix [xi^(s char t)] times nonzero
      column scalars, of rank #chars (distinct characters among the t, at
      most r) by Vandermonde; the rows of m lie in the span of the #chars
      sums over t of one character, so they add no more than that.

    Hence rank = #m * min(r, #chars), full exactly when every character
    occurs in S_{<=D}: from the degree returned here on (a window below 0 is
    vacuous).  A faithful action realises every character among the y^a x^b
    with a, b < r, of degree at most (r-1)*ell, where the scan stops; None
    means a non-faithful action.  The tests cross-check this against the
    exact elimination.  The count needs _check_leading_term, run here.
    """
    _check_leading_term(spec)
    seen = set()
    for d in range((action.r - 1) * spec.ell + 1):
        seen.update(map(action.char, graded_basis(spec, d)))
        if len(seen) == action.r:
            return d
    return None
