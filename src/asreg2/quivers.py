"""Quivers attached to the graded algebra and its skew group algebra.

Q_S, Q_{S,G}, the covering quivers and the Gabriel quiver of Lambda are
grid quivers (grid_quiver): rows of n vertices, (i, s) at position i*n + s,
and steps (w, shift, tag), each of which runs (i, s) -> (i + w, s + shift
mod n) wherever row i + w exists.  The canonical quiver Q_(i,j) is no grid:
make_canonical_quiver lays its two paths down by hand.  The first three
lift Q_S to n >= 1 levels (_lift): rows 0..ell-1, with an x-step w_x and a
y-step w_y that each shift the level by their own amount.  Q_S is the
one-level lift, rows v0..v(ell-1), and Q_{S,G}, for G = <diag(xi^px,
xi^py)> of order r, the r-level lift by px and py.  The c-fold covering
quiver is the c-level lift by ax and ay, (ax, ay) the Bezout pair w_y*ax -
w_x*ay = 1 with 0 <= ax < w_x; for w_x = 1 this is the familiar picture of
c stacked copies with the y-arrows dropping one level (and wrapping), and
in general it is the connected cyclic cover, which is what the skew-quiver
components decompose into.  The Gabriel quiver of Lambda (beilinson) is a
grid on the same positions with a step per arrow of J/J^2.

Every one of these quivers, and every BGP reflection of them, is a
disjoint union of cycles.  So a quiver is handled through its walks
(_cycle_walks), one pass round every component: the vertices in walk order
and the orientation word.  The sorted least rotations of the words are its
isomorphism class (cycle_classes), which isomorphism, check and the replay of
a reflection witness compare, and the reflection search walks one cycle's
word down its distance to a goal class.

A quiver lives on vertex positions 0..n-1: its arrows are (src, dst, tag)
triples of positions, sorted, and each quiver indexes them at their ends
once, when it is made; walks, reflections and path_count read that index
and never a label.  The labels ("v3" or "v1_2", by one rule, _labels) and
the arrows named by them are made when something first reads vertices or
arrows: the writers, equality, a reflection's vertex names and the
vertices a search or an isomorphism returns.  A tag is "x", "y" or "" for
untagged.  Quiver values are immutable.
"""

import heapq
import operator

# a walk's letter for an arrow with this tag, pointing along it or against it
_LETTERS = {"": "10", "x": "Xx", "y": "Yy"}
_FLIP = str.maketrans("10XxYy", "01xXyY")
_UNTAG = str.maketrans("XxYy", "1010")


def _labels(size, columns):
    """The label rule: the labels of positions 0..size-1 of a grid that many
    columns wide, v<i>_<s> for (i, s) = divmod(k, columns) at position k, and
    v<k> when the grid has one column (Q_S, the canonical quiver)."""
    if columns == 1:
        return tuple(map("v%d".__mod__, range(size)))
    return tuple("v%d_%d" % divmod(k, columns) for k in range(size))


class Quiver:
    """Quiver(vertices, arrows): the vertices in the order given, which every
    builder here makes the natural order ("v2" before "v10", a grid row by
    row), and the arrows sorted by (position of src, position of dst, tag);
    an endpoint that is no vertex or a tag other than "x", "y" or ""
    (_LETTERS) is a ValueError."""

    # _arrows: (src, dst, tag) on positions, sorted; _incident: each
    # position's arrows as indices into _arrows, an arrow listed at both its
    # ends, a loop twice at its vertex; _vertices and _named: the labels and
    # the named arrows, None until read; _columns: the label rule's width
    __slots__ = ("_arrows", "_incident", "_columns", "_vertices", "_named")

    def __init__(self, vertices, arrows):
        vertices = tuple(vertices)
        position = {v: k for k, v in enumerate(vertices)}
        placed = []
        for (s, t, tag) in arrows:
            if s not in position or t not in position:
                raise ValueError("arrow endpoint %r not among the vertices" % ((s, t),))
            placed.append((position[s], position[t], tag))
        self._place(len(vertices), placed, None, vertices)

    def _place(self, size, arrows, columns, vertices=None):
        """Set the quiver on positions 0..size-1 from a list of arrows on
        positions, each refused as __init__ refuses a named one (whose tag
        is checked only here); the labels are vertices, or the label rule's at width columns when first read."""
        for (s, t, tag) in arrows:
            if not (0 <= s < size and 0 <= t < size):
                raise ValueError("arrow endpoint %r not among the vertices" % ((s, t),))
            if tag not in _LETTERS:
                raise ValueError("arrow tag %r is not 'x', 'y' or ''" % (tag,))
        arrows.sort()
        incident = [[] for _ in range(size)]
        for idx, (s, t, _) in enumerate(arrows):
            incident[s].append(idx)
            incident[t].append(idx)
        self._arrows, self._incident = tuple(arrows), incident
        self._columns, self._vertices, self._named = columns, vertices, None

    @property
    def vertices(self):
        if self._vertices is None:
            self._vertices = _labels(len(self._incident), self._columns)
        return self._vertices

    @property
    def arrows(self):
        if self._named is None:
            label = self.vertices
            self._named = tuple((label[s], label[t], tag) for (s, t, tag) in self._arrows)
        return self._named

    def __eq__(self, other):
        if not isinstance(other, Quiver):
            return NotImplemented
        return self._arrows == other._arrows and self.vertices == other.vertices

    __hash__ = None

    def __repr__(self):
        return "Quiver(%d vertices, %d arrows)" % (len(self._incident), len(self._arrows))


def _quiver(size, arrows, columns, vertices=None):
    """The Quiver on positions 0..size-1 with a list of arrows on positions (Quiver._place)."""
    q = Quiver.__new__(Quiver)
    q._place(size, arrows, columns, vertices)
    return q


def grid_quiver(rows, n, steps):
    """The quiver on rows of n vertices, (i, s) at position i*n + s, with, for
    each step (w, shift, tag) and each row i with i + w < rows, the arrows
    (i, s) -> (i + w, s + shift mod n); a step listed k times gives k
    parallel arrows.  Labels by the label rule at width n (_labels)."""
    arrows = [(src + s, src + w * n + (s + shift) % n, tag)
              for w, shift, tag in steps for src in range(0, (rows - w) * n, n) for s in range(n)]
    return _quiver(rows * n, arrows, n)


def _lift(spec, n, shifts):
    """Q_S on n >= 1 levels, an x-arrow shifting the level by shifts[0], a y-arrow by shifts[1]."""
    return grid_quiver(spec.ell, n, ((spec.w_x, shifts[0], "x"), (spec.w_y, shifts[1], "y")))


def quiver_qs(spec):
    return _lift(spec, 1, (0, 0))


def quiver_qsg(action):
    """Q_{S,G}: Q_S lifted to r levels by the exponents (px, py) of the action."""
    return _lift(action.spec, action.r, (action.px, action.py))


def _cover_shifts(spec):
    """Bezout pair (ax, ay) with w_y*ax - w_x*ay = 1 and 0 <= ax < w_x (ax = 0
    when w_x = 1, as w_y^-1 mod 1 is 0)."""
    ax = spec.wy_inv
    ay = (spec.w_y * ax - 1) // spec.w_x
    return ax, ay


def covering_quiver(spec, c):
    if c < 1:
        raise ValueError("covering degree must be >= 1")
    return _lift(spec, c, _cover_shifts(spec))


def bgp_reflect(q, *vertices):
    """Reverse every arrow at a sink or source vertex, at each given vertex in
    turn: the chain of one-vertex reflections, with its ValueError at the
    first vertex that is unknown or neither a sink nor a source at its turn.
    The vertices are named by labels, looked up once; a reflection costs the
    arrows at its vertex in q's index, which reversing arrows keeps, and one
    Quiver is built at the end, with q's labels."""
    arrows, incident = list(q._arrows), q._incident
    position = {v: k for k, v in enumerate(q.vertices)} if vertices else {}
    for name in vertices:
        v = position.get(name)
        if v is None:
            raise ValueError("unknown vertex %r" % name)
        has_in = has_out = False
        for idx in incident[v]:
            s, t, _ = arrows[idx]
            has_out |= s == v
            has_in |= t == v
        if has_in == has_out:
            raise ValueError("vertex %r is neither a sink nor a source" % name)
        for idx in incident[v]:
            s, t, tag = arrows[idx]
            arrows[idx] = (t, s, tag)
    return _quiver(len(incident), arrows, q._columns, q._vertices)


def _cycle_walks(q, tags=False):
    """Walk round each component of q, from its first vertex position, in
    order: the positions in the order met, and the orientation word, a
    str whose k-th letter is "1" when the arrow between the k-th vertex and
    the next points along the walk and "0" when it points back.  With tags
    an x- or y-arrow reads "X" or "Y" along the walk and "x" or "y" back.
    None unless every vertex meets exactly two arrow ends of two different
    arrows, that is, unless q is a disjoint union of cycles of length >= 2;
    then each walk is back at its start before it meets a vertex twice."""
    arrows, incident = q._arrows, q._incident
    if any(len(e) != 2 or e[0] == e[1] for e in incident):
        return None
    walks, walked = [], set()
    for start in range(len(incident)):
        if start in walked:
            continue
        v, edge = start, incident[start][0]
        order, word = [], []
        while True:
            s, t, tag = arrows[edge]
            order.append(v)
            word.append((_LETTERS[tag] if tags else "10")[s != v])
            v = t if s == v else s
            if v == start:
                break
            a, b = incident[v]
            edge = b if a == edge else a
        walked.update(order)
        walks.append((tuple(order), "".join(word)))
    return walks


def _cycle_walk(q, tags=False):
    """The walk (_cycle_walks) of q; ValueError unless q is one cycle through every vertex."""
    walks = _cycle_walks(q, tags)
    if walks is None or len(walks) != 1:
        raise ValueError("underlying graph is not a single cycle")
    return walks[0]


def _least_turn(word):
    """The lesser of the two walk directions' least rotations, as (rotation,
    direction, start): direction 0 reads the word as walked, direction 1
    walks the other way round from the same vertex, which reverses the word
    and flips every letter; a tie takes direction 0.  Each direction's least
    rotation is the least of the n windows of the doubled word, and start is
    its first start."""
    n, picks = len(word), []
    for direction, w in enumerate((word, word[::-1].translate(_FLIP))):
        doubled = w + w
        least = min(doubled[k:k + n] for k in range(n))
        picks.append((least, direction, doubled.index(least)))
    return min(picks)


def _least_rotation(order, word):
    """_least_turn's rotation with the walk's vertex order rotated alongside,
    as a (word, order) pair.  Walking the other way round from order[0]
    meets order[0], order[-1], ..., order[1].  A periodic word has tied
    starts, a period apart; the first one is taken, and every one of them
    gives an order aligned with the word."""
    least, direction, k = _least_turn(word)
    if direction:
        order = order[:1] + order[:0:-1]
    return least, order[k:] + order[:k]


def _classes(words):
    return sorted(_least_turn(word)[0] for word in words)


def cycle_classes(q, respect_tags=False):
    """The isomorphism class of a disjoint union of cycles (tags kept when
    asked): the sorted least rotations (_least_turn) of its components'
    words, or None when q is no such union."""
    walks = _cycle_walks(q, respect_tags)
    return None if walks is None else _classes(word for _, word in walks)


def tagged_and_untagged_classes(q):
    """cycle_classes(q, True) and cycle_classes(q) from one walk: the walk does
    not depend on the tags, and a tagged word stripped of its tags (_UNTAG)
    is the untagged word."""
    walks = _cycle_walks(q, True)
    if walks is None:
        return None, None
    words = [word for _, word in walks]
    return _classes(words), _classes(word.translate(_UNTAG) for word in words)


def quiver_isomorphic(q1, q2, respect_tags=False):
    """A vertex bijection carrying q1's arrows onto q2's (tags onto equal tags
    when asked), as labels, or None.

    Decided for disjoint unions of cycles of length >= 2, as every quiver
    built here is: two are isomorphic exactly when their cycle_classes
    agree, and zipping the vertex orders aligned with the least rotations
    gives the bijection: equal words read along two aligned orders carry
    arrows onto arrows, whichever of a periodic word's tied rotations each
    order starts at.  A union of cycles is isomorphic to no other
    quiver, so the answer is None when just one side is not such a union;
    when neither is, ValueError.
    """
    rot1, rot2 = (None if walks is None else sorted(_least_rotation(*walk) for walk in walks)
                  for walks in (_cycle_walks(q, respect_tags) for q in (q1, q2)))
    if rot1 is None and rot2 is None:
        raise ValueError("neither quiver is a disjoint union of cycles")
    if rot1 is None or rot2 is None or [w for w, _ in rot1] != [w for w, _ in rot2]:
        return None
    label1, label2 = q1.vertices, q2.vertices
    return {label1[v]: label2[u] for (_, o1), (_, o2) in zip(rot1, rot2) for v, u in zip(o1, o2)}


def direction_counts(word):
    """(i, j), i <= j: how many letters of an untagged orientation word point each way."""
    forward = word.count("1")
    return tuple(sorted((forward, len(word) - forward)))


def make_canonical_quiver(i, j):
    """Two directed paths of lengths i and j from a common source to a common sink."""
    if i < 1 or j < 1:
        raise ValueError("path lengths must be >= 1")
    arrows = [(a, b, "") for path in (range(i + 1), [0, *range(i + 1, i + j), i])
              for a, b in zip(path, path[1:])]
    return _quiver(i + j, arrows, 1)


def _alignments(word, goals):
    """The alignment pass: (word, P, dist, least), where dist is the least
    number of moves from an orientation word to a rotation of a goal word, a
    move sliding a "1" into a neighbouring "0" of the cycle, P lists the
    word's "1"s and least its least-cost alignments, each as its difference
    list d and median range [lo, hi].

    Complementing maps moves to moves and rotations to rotations, so both
    sides are complemented when "1"s are the majority, which keeps t, the
    number of "1"s, at most n/2; the word returned is the one measured.  Let
    word's "1"s sit at P_0 < ... and a goal's at U_0 < ..., repeated with
    period n (U_(k+t) = U_k + n).  An alignment is a goal with t "1"s, a
    shift s in [0, t) and an integer rho; it costs sum_k |U_(k+s) + rho -
    P_k|, and the distance is the least cost.  For fixed goal and s the best
    rho are the medians [lo, hi] of the differences d_k = P_k - U_(k+s),
    and the cost there is the upper half of the sorted differences less the
    lower half.  Lower bound: "1"s never pass one another, so the final
    unrolled positions are U_(k+s) + rho for some alignment, and a move
    changes one position by one.  Upper bound: if a "1" must move forward
    but the next "1" blocks it, that one must move forward at least as far;
    as t < n the chain ends before a free cell, and moving its last "1"
    there lowers the sum by one."""
    n = len(word)
    if 2 * word.count("1") > n:
        word, goals = word.translate(_FLIP), [g.translate(_FLIP) for g in goals]
    P = [k for k in range(n) if word[k] == "1"]
    t, h = len(P), len(P) // 2
    aligned = []
    for goal in goals:
        U = [k for k in range(n) if goal[k] == "1"]
        if len(U) == t:
            U += [u + n for u in U]
            for s in range(t):
                d = list(map(operator.sub, P, U[s:]))
                e = sorted(d)
                aligned.append((sum(e[t - h:]) - sum(e[:h]), d, e[(t - 1) // 2], e[h]))
    dist = min((a[0] for a in aligned), default=0)
    return word, P, dist, [a[1:] for a in aligned if a[0] == dist]


def _nearer(least, j, delta):
    """Whether sliding the "1" P_j by delta into a free cell is one move nearer.

    A move shifts one P_j by one and so every alignment's cost by exactly
    one.  One not least costs dist + 1 or more before the move, so dist or
    more after: a move is nearer exactly when it moves a "1" P_j toward
    U_(j+s) + rho for a least goal and s and a rho in [lo, hi], that is,
    forward when d_j < hi and backward when d_j > lo."""
    for d, lo, hi in least:
        if d[j] < hi if delta > 0 else d[j] > lo:
            return True
    return False


def reflection_search(q1, goal, max_depth=None):
    """A shortest reflection sequence turning q1 into a quiver of the class
    goal (untagged), or None.

    goal is the one word of a single cycle's class: cycle_classes(q2) ==
    [goal] for a target q2.  q1 must be a single cycle (else ValueError), as
    every quiver from a covering quiver to a canonical Q_(i,j) is.  A state
    is the orientation word of q1's walk (_cycle_walk): the vertex at walk
    position k is a sink or a source exactly when letters k-1 and k differ
    (k-1 wraps round for k = 0), and reflecting at it swaps them.
    Reflections keep the direction counts, so words whose counts differ are
    refused at once; otherwise the goal is every rotation of goal and of its
    reversed flip, and None is returned only when the distance (_alignments)
    exceeds max_depth.  A rotation of goal shifts every alignment's
    differences by one constant, so any word of the class gives the same
    moves.  The witness, vertices of q1 (stable under reflection), is
    built greedily on positions: the first vertex in q1.vertices order whose
    move is nearer (_nearer), repeated, so it is the least shortest sequence
    in this order; it is labelled when returned.  A breadth-first search
    over classes that tries moves in this order and keeps the first word of
    each new class finds the same, as words of one class reach the same
    classes.

    One alignment pass serves the whole walk, as the least alignments only
    shrink.  The complement is taken once (moves keep the counts), and the
    positions P_k stay unrolled in Z: a move adds delta = +-1 to one P_j,
    and a "1" sliding from n - 1 to n, or from 0 to -1, keeps its index j,
    so each alignment (goal, s, rho) keeps its U_(j+s) and its cost sum_k
    |U_(k+s) + rho - P_k| over the new positions (renumbering them into
    [0, n) would only turn s and rho).  That cost changes by exactly one:
    it falls when P_j moves toward U_(j+s) + rho, that is, when rho > d_j
    for delta = +1 and rho < d_j for delta = -1, with d_j taken before the
    move.  The move is nearer, so the distance falls from dist to dist - 1.
    An alignment that was not least cost dist + 1 or more, so it costs at
    least dist after and is not least.  A least one, with (goal, s) and rho
    in [lo, hi], stays least exactly when its cost fell.  So (goal, s) keeps
    a least rho exactly when d_j < hi (delta = +1) or d_j > lo (delta =
    -1), the test that marked the move, and its least rho are then [max(lo,
    d_j + 1), hi] or [lo, min(hi, d_j - 1)], the new medians.  Each move
    therefore keeps the (goal, s) that pass its test, adds delta to their
    d_j and cuts their range.

    The next move is the first in vertex order that is nearer, read off a
    heap of vertices, each at its walk position, that drops an entry whose
    move is not nearer when it is popped: the move at k slides the "1" P_j on
    cell k-1 forward or the one on cell k back, when the other cell is
    free.  No nearer move is lost so: a move that is not nearer becomes
    nearer only through the move just made, at position m.  Whether k has a
    move reads cells k-1 and k, of which m changed m-1 and m, so only for k
    in m-1, m, m+1; and its test reads the d_j of the "1" it slides, which
    changed only for the "1" that m moved, whose moves sit at such a k,
    while every other test only lost alignments and narrowed ranges.  So
    the vertices at those three positions are pushed again after each
    move, and a move costs O(least alignments * log n) amortised, not a
    pass.
    """
    order, word = _cycle_walk(q1)
    if direction_counts(word) != direction_counts(goal):
        return None
    word, P, dist, least = _alignments(word, (goal, goal[::-1].translate(_FLIP)))
    if max_depth is not None and dist > max_depth:
        return None
    n, witness = len(word), []
    owner = [None] * n  # the index j of the "1" on each cell, None on a "0"
    for j, p in enumerate(P):
        owner[p] = j
    at = [0] * n  # the walk position of each vertex, order's inverse
    for k, v in enumerate(order):
        at[v] = k
    heap = list(range(n))  # the vertices, sorted, so a heap
    for _ in range(dist):
        while True:
            k = at[heapq.heappop(heap)]
            a, b = owner[k - 1], owner[k]
            if (a is None) != (b is None):
                j, delta = (a, 1) if b is None else (b, -1)
                if _nearer(least, j, delta):
                    break
        witness.append(order[k])
        for m in ((k - 1) % n, k, (k + 1) % n):
            heapq.heappush(heap, order[m])
        p = P[j]
        owner[p % n], owner[(p + delta) % n] = None, j
        P[j] = p + delta
        kept = []
        for d, lo, hi in least:
            dj = d[j]
            if delta > 0 and dj < hi:
                lo = max(lo, dj + 1)
            elif delta < 0 and dj > lo:
                hi = min(hi, dj - 1)
            else:
                continue
            d[j] = dj + delta
            kept.append((d, lo, hi))
        least = kept
    label = q1.vertices
    return [label[v] for v in witness]


def path_count(q):
    """Number of directed paths, trivial paths included (acyclic quivers).

    Kahn's order on positions leaves out the vertices on or after an
    oriented cycle, a loop's vertex among them: the loop is an in-arrow of
    its vertex that only that vertex could remove."""
    size = len(q._incident)
    targets, indeg = [[] for _ in range(size)], [0] * size
    for (s, t, _) in q._arrows:
        targets[s].append(t)
        indeg[t] += 1
    order = [v for v in range(size) if not indeg[v]]
    for v in order:
        for t in targets[v]:
            indeg[t] -= 1
            if not indeg[t]:
                order.append(t)
    if len(order) != size:
        raise ValueError("path count needs an acyclic quiver")
    paths_from = [0] * size
    for v in reversed(order):
        paths_from[v] = 1 + sum(map(paths_from.__getitem__, targets[v]))
    return sum(paths_from)
