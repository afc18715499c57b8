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
from .quivers import Quiver
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


def lambda_dim(action):
    return action.r * nabla_dim(action.spec)


# ---------------------------------------------------------------------------
# Gabriel quiver from J/J^2 corner dimensions

def _tau_j_basis(action):
    """Positive-degree basis of Lambda with its corner data.

    Entries (i, j, mono, w) stand for M(i->j; mono) * rho_w; the source
    vertex is (i, w) and the target is (j, (w - char mono) mod r).
    """
    r = action.r
    return [((i, j, m, w), (i, w), (j, (w - action.char(m)) % r))
            for (i, j, m) in nabla_basis(action.spec) if i < j for w in range(r)]


def gabriel_quiver_oracle(spec, action):
    """Quiver of Lambda read off from corner dimensions of J/J^2.

    Returns a quiver on vertices v{i}_{w} (i the grid idempotent, w the
    group character); by construction it must be isomorphic, tags ignored,
    to the combinatorial skew quiver.

    Below degree ell, one key: every product formed here,
    M(i->j; m) rho_w * M(k->i; n) rho_v, has deg(mn) = j - k < ell.  The
    normal form of (y^a1 x^b1)(y^a2 x^b2) moves an x past a y only when
    b1, a2 >= 1, and then its degree is at least w_x + w_y = ell.  So on
    both planes each product is the single basis key y^(a1+a2) x^(b1+b2)
    with coefficient 1, and the rank of a J^2 corner is the number of
    distinct keys in it.  A product of any other shape raises
    ArithmeticError.
    """
    r = action.r
    basis = _tau_j_basis(action)
    j_corner = Counter()
    by_src = {}
    by_dst = {}
    for (key, src, dst) in basis:
        j_corner[(src, dst)] += 1
        by_src.setdefault(src, []).append((key, dst))
        by_dst.setdefault(dst, []).append((key, src))
    # J^2 corner spans: (left: mid -> dst) times (right: src -> mid)
    jj_keys = {}
    for mid in set(by_src) & set(by_dst):
        for (lk, dst) in by_src[mid]:
            for (rk, src) in by_dst[mid]:
                prod = lambda_mul_basis(action, lk, rk)
                if len(prod) != 1:
                    raise ArithmeticError("J^2 product %r * %r is not one basis key" % (lk, rk))
                jj_keys.setdefault((src, dst), set()).update(prod)
    vertices = ["v%d_%d" % (i, w) for i in range(spec.ell) for w in range(r)]
    arrows = []
    for corner, size in sorted(j_corner.items()):
        (src, dst) = corner
        count = size - len(jj_keys.get(corner, ()))
        for _ in range(count):
            arrows.append(("v%d_%d" % src, "v%d_%d" % dst, ""))
    return Quiver(vertices, arrows)


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
    (l, (v - char n) mod r).
    """
    r = action.r
    basis = [(i, j, m, w) for (i, j, m) in nabla_basis(action.spec) for w in range(r)]
    if lambda_dim(action) != nabla_skew_dim_formula(action):
        return False
    into = {}  # (l, (v - char n) mod r) -> basis elements (k, l, n, v)
    for t in basis:
        into.setdefault((t[1], (t[3] - action.char(t[2])) % r), []).append(t)
    return all(
        lambda_mul_basis(action, t1, t2) == nabla_of_skew_mul(action, t1, t2)
        for t1 in basis for t2 in into.get((t1[0], t1[3]), ())
    )
