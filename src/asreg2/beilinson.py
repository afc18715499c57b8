"""The Beilinson algebra of S, its skew version, and the Gabriel quiver oracle.

nabla(S) is the ell x ell grid with the degree-(j-i) part of S in entry
(i, j) and the multiplication (a_ij)(b_ij) = (sum_k a_kj b_ik), i.e. a
basis element placed at (i -> j) composes with one at (k -> l) exactly
when l = i, landing at (k -> j) with the S-parts multiplied.  Under that
convention the diagonal units e_i satisfy e_j * M(i->j) * e_i = M(i->j).

Lambda = nabla(S) * G carries the skew product with the group acting
entrywise.  Its degree-zero part splits into ell*r one-dimensional corner
pieces cut out by the idempotents e_i^j = e_i * rho_j, and the Gabriel
quiver read off from the corners of J/J^2 (J the positive-degree part)
recovers the combinatorial skew quiver up to isomorphism.

Lambda has one basis, the rho-eigenbasis (i, j, monomial, w) for
M(i->j; monomial) * rho_w, in which every e_i^j is a unit vector and every
corner a coordinate subspace; skew.rho_system certifies it against the
g-basis, and with it that the e_i^j are orthogonal, complete and basic.
Arrows are oriented alpha -> beta when e_beta (J/J^2) e_alpha is
nonzero, the choice pinned by the worked six-vertex example for weights
(1,1), r = 3.
"""

from collections import Counter

from .algebra import Monomial, SparseElement, _y_exponents, graded_basis, monomial_product
from .quivers import Quiver, grid_labels
from .skew import skew_dim, skew_mul_basis


def nabla_dim(spec):
    """dim of the Beilinson algebra: sum over d < ell of (ell - d) dim S_d."""
    return sum(
        (spec.ell - d) * len(_y_exponents(spec, d)) for d in range(spec.ell)
    )


def nabla_basis(spec):
    """Basis triples (i, j, monomial) with 0 <= i <= j < ell, monomial in S_(j-i)."""
    ell = spec.ell
    out = []
    for i in range(ell):
        for j in range(i, ell):
            for m in graded_basis(spec, j - i):
                out.append((i, j, m))
    return out


# ---------------------------------------------------------------------------
# Lambda = nabla(S) * G in the rho-eigenbasis


def lambda_mul_basis(action, t1, t2):
    """(M(i->j; m) rho_w)(M(k->l; n) rho_v) = [l = i][w + char n = v] M(k->j; m n) rho_v."""
    (i, j, m, w), (k, l, n, v) = t1, t2
    if l != i or (w + action.char(n)) % action.r != v:
        return {}
    return {(k, j, mono, v): c for mono, c in monomial_product(action.spec, m, n).items()}


class LambdaElement(SparseElement):
    """Sparse element of (nabla S)*G: {(i, j, monomial, w): coefficient}."""

    __slots__ = ()

    @staticmethod
    def _key(action, key):
        i, j, m, w = key
        return (i, j, Monomial(*m), w % action.r)

    _basis_mul = staticmethod(lambda_mul_basis)

    # an entry of this class's own, so that perfbench/tracer.py can patch
    # LambdaElement.__mul__ to count Lambda products apart from the others
    __mul__ = SparseElement.__mul__


# ---------------------------------------------------------------------------
# Gabriel quiver from J/J^2 corner dimensions

def gabriel_quiver_oracle(action):
    """Quiver of Lambda read off from corner dimensions of J/J^2.

    Returns a quiver on vertices v{i}_{w} (i the grid idempotent, w the
    group character); by construction it must be isomorphic, tags ignored,
    to the combinatorial skew quiver.

    J has the basis M(i->j; m) rho_w, i < j, in the corner from the source
    (i, w) to the target (j, w - char m).  J^2 is spanned by the products
    M(i->j; m) rho_w * M(k->i; n) rho_v with k < i < j that the guard of
    lambda_mul_basis leaves nonzero, v = w + char n, in the corner from
    (k, w + char n) to (j, w - char m).

    Below degree ell, one key: every such product has deg(mn) = j - k <
    ell.  By monomial_product, (y^a1 x^b1)(y^a2 x^b2) is the one key
    y^(a1+a2) x^(b1+b2) with coefficient 1 unless b1, a2 >= 1, of degree
    >= ell.  So the rank of a J^2 corner is the number of distinct keys in
    it.  A product of any other shape raises ArithmeticError.

    One product per (0 < d2 < d < ell, m in S_(d-d2), n in S_(d2)), not
    one per grid triple (k < i < j) and character w: lambda_mul_basis reads
    k, i, j only in its guard [l = i] and in the grid part (k, j) of its key,
    and w only in its guard and in v = w + char n.  So the product at (k, i,
    j, w) is the one at (0, d2, d, 0), d2 = i - k and d = j - k, with the
    grid part moved to (k, j) and the character moved by w: the key M(k->j;
    mn) rho_(w + char n), for one S-product mn.  Both corners, of J and of
    J^2, have source character minus target character fixed (char m, resp.
    char m + char n mod r) as w runs, and a corner's keys at one source
    character differ only in mn.  So the J corner from (i, s) to (j, s - c)
    has the size #{m in S_(j-i) : char m = c} at every s, and the J^2
    corner from (k, s) to (j, s - c) has #{mn : char m + char n = c} keys
    at every s, over the d2 in (0, j - k); both depend on (j - i, c), resp.
    (j - k, c), alone.  The arrows of one (source grid vertex, target grid
    vertex, character difference) are expanded over the r source
    characters only where their count is nonzero.  The tests keep the loop
    over every (k, i, j, w) as the oracle.
    """
    r, ell = action.r, action.spec.ell
    graded = [[(m, action.char(m)) for m in graded_basis(action.spec, d)] for d in range(ell)]
    # (d, c) -> the size of a J corner from (i, s) to (i + d, s - c)
    j_corner = Counter((d, c) for d in range(1, ell) for _, c in graded[d])
    jj_keys = {}  # (d, c) -> the S-parts of the J^2 keys from (k, s) to (k + d, s - c)
    for d in range(2, ell):
        for d2 in range(1, d):
            for n, cn in graded[d2]:
                right = (0, d2, n, cn)
                for m, cm in graded[d - d2]:
                    left = (d2, d, m, 0)
                    prod = lambda_mul_basis(action, left, right)
                    if len(prod) != 1:
                        raise ArithmeticError("J^2 product %r * %r is not one basis key"
                                              % (left, right))
                    (_, _, mono, _), = prod
                    jj_keys.setdefault((d, (cm + cn) % r), set()).add(mono)
    label = grid_labels(ell, r)
    arrows = []
    for (d, c), size in j_corner.items():
        count = size - len(jj_keys.get((d, c), ()))
        if count:
            for i in range(ell - d):
                src, dst = label[i], label[i + d]
                for s in range(r):
                    arrows += [(src[s], dst[(s - c) % r], "")] * count
    return Quiver([v for row in label for v in row], arrows)


# ---------------------------------------------------------------------------
# nabla(S*G) versus (nabla S)*G


def nabla_skew_dim_formula(action):
    """dim nabla(S*G) computed entrywise from the skew graded dimensions."""
    spec = action.spec
    ell = spec.ell
    return sum(skew_dim(action, j - i) for i in range(ell) for j in range(i, ell))


def nabla_of_skew_mul(action, t1, t2):
    """Product of basis entries of nabla(S*G): entries are skew elements."""
    (i, j, m, w), (k, l, n, v) = t1, t2
    if l != i:
        return {}
    prod = skew_mul_basis(action, (m, w), (n, v))
    return {(k, j, mono, u): c for (mono, u), c in prod.items()}


def nabla_skew_structure_check(action):
    """(nabla S)*G and nabla(S*G) have the same structure constants.

    Compares the product of every composable pair of basis elements, t1 =
    M(i->j; m)*rho_w and t2 = M(k->i; n)*rho_v with w + char n = v (mod r),
    under the map M(i->j; m)*rho_w  <->  M(i->j; m*rho_w).  Both products
    are {} on the other pairs, by the same [l = i] and [w + char n = v]
    guards, so t2 is looked up by (i, w) in a table of the basis keyed by
    (l, (v - char n) mod r).  The dimensions of the two sides are check's
    "dim Lambda" line, which compares nabla_skew_dim_formula with r * dim
    nabla, so they are not compared here again.
    """
    r = action.r
    basis = [(i, j, m, w) for (i, j, m) in nabla_basis(action.spec) for w in range(r)]
    into = {}  # (l, (v - char n) mod r) -> basis elements (k, l, n, v)
    for t in basis:
        into.setdefault((t[1], (t[3] - action.char(t[2])) % r), []).append(t)
    return all(
        lambda_mul_basis(action, t1, t2) == nabla_of_skew_mul(action, t1, t2)
        for t1 in basis for t2 in into.get((t1[0], t1[3]), ())
    )
