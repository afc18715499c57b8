"""The skew group algebra S*G for a diagonal cyclic action.

Elements are combinations of pairs (monomial m, character w) standing for
m * rho_w, where rho_w = (1/r) sum_s xi^(w s) g^s are the eigen-idempotents
of the group; the group part carries degree zero.  In this basis the product
is (m rho_w)(n rho_v) = [w + char n = v (mod r)] (m n) rho_v, the averaging
idempotent e = rho_0 and every rho_j are unit vectors, and the corners they
cut out are coordinate subspaces.  rho_system certifies the basis against
the g-basis m * g^s of the definition.  The module also provides fixed-ring
dimensions, the trace averaging cross-check for them, the corner
identifications of S with (S*G)e and e(S*G), the graded dimensions of the
two-sided ideal (e) (the operational ampleness test), and the degree from
which the map sending s*g to the operator t -> s g(t) is injective.

Degreewise computations are independent of one another; everything here
works on immutable inputs and returns fresh values.
"""

import heapq
from math import gcd

from .cyclotomic import ONE, _prime_divisors
from .algebra import (
    AlgebraElement,
    MONO_ONE,
    _y_exponents,
    graded_basis,
    hilbert_dims,
    monomial_product,
    reduce_product,
)


def skew_mul_basis(action, k1, k2):
    """(m rho_w)(n rho_v) = [w + char n = v (mod r)] (m n) rho_v; see rho_system.

    monomial_product's terms, in order, re-keyed into a fresh dict (not the memo's)."""
    (m1, w), (m2, v) = k1, k2
    if (w + action.char(m2)) % action.r != v:
        return {}
    out = {}
    for m, cm in monomial_product(action.spec, m1, m2).items():
        out[m, v] = cm
    return out


def rho_system(action):
    """Certificate of the basis m rho_w and of skew_mul_basis by the order
    test xi^r = 1, xi^(r/p) != 1 for each prime p | r, each power by
    Cyclotomic.__pow__ in at most 2 log2 r products.  It gives two facts:

    (0) xi^r = 1, whence every exponent below is read mod r;
    (2) xi is primitive: its order divides r by (0), and an order below r
        divides some r/p.  So sum_s xi^(k s) = r [k = 0] for k mod r, as
        (xi^k - 1) sum_s xi^(k s) = xi^(k r) - 1 = 0 in a field.

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
    so the r dim S_d elements m rho_w of degree d span (S*G)_d: a basis.
    By (4), (m rho_w)(n rho_v) = m n rho_(w + char n) rho_v = [w + char n
    = v] (m n) rho_v, which is skew_mul_basis.  The tests re-run (1), (3)
    and (4) as g-basis products, and (0) and (2) on a table of xi^k, k < r.

    The same certificate makes the idempotent system of Lambda = nabla(S)*G
    orthogonal, complete and basic, so check reads both lines off one run.
    On the basis e_i^w = M(i->i; 1) rho_w of Lambda_0, the guards [l = i]
    and [w + char 1 = v] of beilinson.lambda_mul_basis give e_i^w e_k^v =
    [i = k][w = v] e_i^w, and the e_i^j sum to the unit as the rho_j do by
    (3).  By (1) and (3), rho_j g^s rho_j = xi^(-j s) rho_j != 0, so every
    corner e_i^j Lambda_0 e_i^j is the line k e_i^j.  No positive-degree
    basis element M(i->j; m) rho_w lies in a diagonal corner, as i < j.
    The tests re-run all of this by brute force in Lambda.
    """
    r, xi = action.r, action.xi
    return xi ** r == ONE and all(xi ** (r // p) != ONE for p in _prime_divisors(r))


def fixed_ring_dims(action, D):
    """dim (S^G)_d for d = 0..D: the monomials of degree d of character zero."""
    return [sum(action.char(m) == 0 for m in graded_basis(action.spec, d))
            for d in range(D + 1)]


def _geometric_sum(z, n):
    """S_n = sum_(k<n) z^k for n >= 1, over the bits of n below the top one:
    S_2k = S_k (1 + z^k) and S_(k+1) = S_k + z^k, at most 3 products a bit."""
    s, zk = ONE, z  # S_1 and z^1
    for bit in bin(n)[3:]:
        s, zk = s * (zk + ONE), zk * zk
        if bit == "1":
            s, zk = s + zk, zk * z
    return s


def molien_dims(action, D):
    """Fixed-space dimensions by averaging traces of the group elements.

    The trace of g^s on S_d is sum_m xi^(s char m), over the degree-d
    monomials m.  Summed over s first, the average is (1/r) sum_m T(char
    m) with the power sum T(c) = sum_s xi^(s c), and T(c) = T(gcd(c, r)):
    with g = gcd(c, r), the map s -> s c on Z/r has image the multiples of
    g and kernel of size g, as has s -> s g, so s c and s g run over the
    same multiset mod r.  That multiset meets each multiple k g (k < r/g)
    g times, so T(g) = g S(g) with S(g) = sum_(k < r/g) xi^(k g).  This
    takes xi^r = 1, not the primitivity that rho_system certifies.

    The characters are read off graded_basis, which fixed_ring_dims and
    corner_dimension_checks have built for the same degrees.  Each S(g) is
    formed once per divisor g < r met (S(r) = 1), as the geometric sum of
    r/g powers of xi^g in O(log r) products, and certified an integer
    through rational_value(): a rational sum of roots of unity is an
    algebraic integer, so an integer.  An xi that is no root of unity may
    give an irrational S(g) or a fraction, and both raise ArithmeticError.
    Then N_d = sum_m T(gcd(char m, r)) is formed in Python ints, and N_d / r
    must be an integer, or ArithmeticError: the field does no work per
    degree.
    """
    r = action.r
    power_sums = {}  # g -> T(g)
    out = []
    for d in range(D + 1):
        total = 0
        for c in map(action.char, graded_basis(action.spec, d)):
            g = gcd(c, r)
            t = power_sums.get(g)
            if t is None:
                s = _geometric_sum(action.xi ** g, r // g) if g < r else ONE  # S(r) = 1
                if not s.is_rational() or s.rational_value().denominator != 1:
                    raise ArithmeticError("power sum of xi^%d must be an integer" % g)
                t = power_sums[g] = g * s.rational_value().numerator
            total += t
        if total % r:
            raise ArithmeticError("trace average must be an integer")
        out.append(total // r)
    return out


def _add_keys(keys, p):
    """Add the keys of p to keys; True if p is zero or one nonzero term."""
    keys.update(p)
    return len(p) <= 1 and all(p.values())


def corner_dimension_checks(action, D):
    """Graded dimension identities for the corners cut out by e.

    Per degree d <= D, computes the ranks of the images of e*(S*G)_d*e,
    ((S*G)e)_d and (e(S*G))_d and compares them against dim (S^G)_d,
    dim S_d and dim S_d respectively.  With e = rho_0 and u = m rho_w, the
    products u e, e u and e u e are zero or one nonzero term (skew_mul_basis
    multiplies by the unit monomial), so each rank is the number of distinct
    keys; a product with more than one term makes its row not ok.

    Each product is formed once per monomial m, not once per character w:
    the guard [w + char n = v] of skew_mul_basis makes u e = (m rho_w)
    (1 rho_0) zero unless w = 0, and e u = (1 rho_0)(m rho_w) zero unless
    w = char m.  A zero product adds no key and is no product of two
    terms.  e (u e) is the sum of c_k (e k), c_k != 0, over the keys k of
    u e, and for the key (m, 0) of a correct unit law e k = (1 rho_0)(m
    rho_0) is zero unless char m = 0, by the same guard, and then it is e u
    itself.  So u e and e u are formed per monomial, and e k only for a key
    that a faulty unit law gives.  The tests run every (m, w) and all three
    products as the oracle.  The same walk counts dim (S^G)_d, the
    monomials of character zero, which check's trace-average line reads.
    """
    e = (MONO_ONE, 0)
    rows = []
    for d in range(D + 1):
        basis = graded_basis(action.spec, d)
        ece, se, es = set(), set(), set()
        single = True
        dim_fixed = 0
        for m in basis:
            w = action.char(m)
            dim_fixed += w == 0
            ue = skew_mul_basis(action, (m, 0), e)
            eu = skew_mul_basis(action, e, (m, w))
            single &= _add_keys(se, ue) & _add_keys(es, eu)
            for k in ue:
                if k != (m, 0):
                    single &= _add_keys(ece, skew_mul_basis(action, e, k))
                elif w == 0:
                    single &= _add_keys(ece, eu)
        dim_s = len(basis)
        row = {"d": d, "corner_eSGe": len(ece), "fixed": dim_fixed,
               "SGe": len(se), "eSG": len(es), "dim_S": dim_s}
        row["ok"] = single and (len(ece), len(se), len(es)) == (dim_fixed, dim_s, dim_s)
        rows.append(row)
    return {"ok": all(row["ok"] for row in rows), "rows": rows}


def _check_leading_term(spec):
    """The leading-term hypothesis of the counts below: x*y leads with y*x,
    the case a = b = 1 of the formula for x^b y^a in monomial_product."""
    x, y = AlgebraElement.gen_x(spec), AlgebraElement.gen_y(spec)
    if max(reduce_product(x, y).terms) != (1, 1):
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


def ideal_e_dims(action, D):
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
    spec = action.spec
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


def _walked_quotient_dims(action, D):
    """dim (S*G/(e))_d over the degrees ideal_e_dims walks; 0 up to D after."""
    ideal = ideal_e_dims(action, D)
    return [action.r * n - i for n, i in zip(hilbert_dims(action.spec, len(ideal) - 1), ideal)]


def default_window(action):
    return 4 * action.spec.ell * action.r


def ampleness_report(action, D=None):
    """Semi-decision for dim_k S*G/(e) < infinity, certified up to degree D.

    The verdict FINITE-UP-TO-D requires the dims to vanish on the whole top
    half of the window and on a tail of length at least ell*r.  Nonzero
    entries near the top, or a window shorter than ell*r, yield UNDECIDED;
    infinite-dimensionality is never claimed.  Non-HSL actions get data only.
    Returns (D, dims, verdict, first zero degree): dims are dim (S*G/(e))_d
    for d = 0..D, and the first zero degree, from which they vanish up to
    D, is None when dims[D] != 0.
    """
    if D is None:
        D = default_window(action)
    # the unwalked degrees are 0, so they add no nonzero degree and no dimension
    walked = _walked_quotient_dims(action, D)
    nonzero = [d for d, v in enumerate(walked) if v]
    last_nonzero = nonzero[-1] if nonzero else -1
    first_zero = last_nonzero + 1
    tail = D - last_nonzero
    need = action.spec.ell * action.r
    if not action.is_hsl_action():
        verdict = "EXPLORATORY-REPORT-ONLY"
    elif D + 1 < need:
        verdict = "UNDECIDED-WINDOW-SHORTER-THAN-%d" % need
    elif first_zero <= D // 2 + 1 and tail >= need:
        verdict = "FINITE-UP-TO-%d" % D
    else:
        verdict = "UNDECIDED-NONZERO-AT-%s" % (nonzero[-5:],)
    return D, walked + [0] * (D + 1 - len(walked)), verdict, first_zero if tail > 0 else None


def min_phi_degree(action):
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
    occurs in S_{<=D}: from D = max_w delta(w) on, delta(w) the least degree
    of a monomial of character w (a window below 0 is vacuous), and never
    when some character occurs in no degree (a non-faithful action), which
    returns None.  The count needs _check_leading_term, run here.

    delta(w) is the distance from 0 to w in the Cayley graph of Z/r whose
    steps are +px at cost w_x and +py at cost w_y.  A path from 0 with a
    py-steps and b px-steps, in any order, ends at a py + b px = char(y^a
    x^b) and costs a w_y + b w_x = deg(y^a x^b); every monomial y^a x^b is
    the multiset of steps of such a path.  So the costs of the paths to w
    are the degrees of the monomials of character w, and their least is
    delta(w).  Dijkstra's search settles the vertices in order of distance.
    The tests cross-check this against the scan of S_d by degree and
    against the exact elimination.
    """
    spec = action.spec
    _check_leading_term(spec)
    r = action.r
    steps = ((action.px, spec.w_x), (action.py, spec.w_y))
    dist = [None] * r
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, v = heapq.heappop(heap)
        if d != dist[v]:
            continue  # a stale entry: v was settled from a shorter path
        for step, cost in steps:
            u = (v + step) % r
            if dist[u] is None or d + cost < dist[u]:
                dist[u] = d + cost
                heapq.heappush(heap, (d + cost, u))
    return None if None in dist else max(dist)
