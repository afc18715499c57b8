"""Quivers attached to the graded algebra and its skew group algebra.

Q_S has vertices 0..ell-1 with an x-arrow i -> i+w_x and a y-arrow
i -> i+w_y whenever the target is below ell; with coprime weights its
underlying graph is a single cycle.  Q_{S,G} lifts each x-arrow to
(i, j-1) -> (i', j) and each y-arrow to (i, j+1) -> (i', j) over j mod r,
level shifts +1 and -1.  The c-fold covering quiver is the same lift
(_lift) with shifts ax on x-arrows and ay on y-arrows, (ax, ay) the Bezout pair
w_y*ax - w_x*ay = 1 with 0 <= ax < w_x; for w_x = 1 this is the familiar
picture of c stacked copies with the y-arrows dropping one level (and
wrapping), and in general it is the connected cyclic cover, which is what
the skew-quiver components decompose into.

Every one of these quivers, and every BGP reflection of them, is a
disjoint union of cycles.  So a quiver is handled through its walks
(_cycle_walks), one pass round every component: the vertices in walk order
and the orientation word.  The sorted least rotations of the words are its
isomorphism class (cycle_classes), which isomorphism and check compare, and
the reflection search walks one cycle's word down its distance to the goal.

Vertices are strings ("v3" or "v1_2"); arrows are (src, dst, tag) with
tag "x", "y" or "" for untagged.  Quiver values are immutable.
"""

import functools
import operator


@functools.cache
def _natural_key(label):
    key = []
    num = ""
    for ch in label:
        if ch.isdigit():
            num += ch
        else:
            if num:
                key.append(int(num))
                num = ""
            key.append(ch)
    if num:
        key.append(int(num))
    return tuple((0, p) if isinstance(p, int) else (1, p) for p in key)


class Quiver:
    """Vertices in natural order (digit runs compared as numbers, "v2" before
    "v10"), and the given arrow tuples sorted by (position of src, position of
    dst, tag) in that order, so _natural_key runs once per vertex.  Where two
    labels have equal natural keys ("v1" and "v01") they keep their given
    order, and their arrows sort by that position."""

    __slots__ = ("vertices", "arrows")

    def __init__(self, vertices, arrows):
        self.vertices = tuple(sorted(vertices, key=_natural_key))
        position = {v: k for k, v in enumerate(self.vertices)}
        for (s, t, _) in arrows:
            if s not in position or t not in position:
                raise ValueError("arrow endpoint %r not among the vertices" % ((s, t),))
        self.arrows = tuple(sorted(arrows, key=lambda a: (position[a[0]], position[a[1]], a[2])))

    def __eq__(self, other):
        return self.vertices == other.vertices and self.arrows == other.arrows

    __hash__ = None

    def __repr__(self):
        return "Quiver(%d vertices, %d arrows)" % (len(self.vertices), len(self.arrows))

    def _targets(self):
        """Each vertex's out-arrow targets in arrow order, from one pass over the
        arrows."""
        targets = {v: [] for v in self.vertices}
        for (s, t, _) in self.arrows:
            targets[s].append(t)
        return targets

    def _topological_order(self):
        """Kahn's order; it leaves out the vertices on or after an oriented cycle."""
        indeg = {v: 0 for v in self.vertices}
        for (_, t, _) in self.arrows:
            indeg[t] += 1
        order = [v for v in self.vertices if indeg[v] == 0]
        targets = self._targets()
        for v in order:
            for t in targets[v]:
                indeg[t] -= 1
                if indeg[t] == 0:
                    order.append(t)
        return order


def quiver_qs(spec):
    ell = spec.ell
    vertices = ["v%d" % i for i in range(ell)]
    arrows = []
    for i in range(ell):
        if i + spec.w_x < ell:
            arrows.append(("v%d" % i, "v%d" % (i + spec.w_x), "x"))
        if i + spec.w_y < ell:
            arrows.append(("v%d" % i, "v%d" % (i + spec.w_y), "y"))
    return Quiver(vertices, arrows)


def _lift(spec, n, shifts):
    """Q_S on n levels: a letter's arrow i -> i + w runs (i, s) -> (i + w, s + shift mod n)."""
    ell = spec.ell
    label = [["v%d_%d" % (i, s) for s in range(n)] for i in range(ell)]
    arrows = []
    for i in range(ell):
        for w, tag, shift in zip((spec.w_x, spec.w_y), "xy", shifts):
            if i + w < ell:
                src, dst = label[i], label[i + w]
                arrows += [(src[s], dst[(s + shift) % n], tag) for s in range(n)]
    return Quiver([v for row in label for v in row], arrows)


def quiver_qsg(spec, r):
    if r < 1:
        raise ValueError("group order must be >= 1")
    return quiver_qs(spec) if r == 1 else _lift(spec, r, (1, -1))


def _cover_shifts(spec):
    """Bezout pair (ax, ay) with w_y*ax - w_x*ay = 1 and 0 <= ax < w_x."""
    if spec.w_x == 1:
        return 0, -1
    ax = pow(spec.w_y, -1, spec.w_x)
    ay = (spec.w_y * ax - 1) // spec.w_x
    return ax, ay


def covering_quiver(spec, c):
    if c < 1:
        raise ValueError("covering degree must be >= 1")
    return quiver_qs(spec) if c == 1 else _lift(spec, c, _cover_shifts(spec))


def bgp_reflect(q, v):
    """Reverse every arrow at a sink or source vertex."""
    if v not in q.vertices:
        raise ValueError("unknown vertex %r" % v)
    arrows = []
    has_in = has_out = False
    for (s, t, tag) in q.arrows:
        if s == v or t == v:
            has_out |= s == v
            has_in |= t == v
            arrows.append((t, s, tag))
        else:
            arrows.append((s, t, tag))
    if has_in == has_out:
        raise ValueError("vertex %r is neither a sink nor a source" % v)
    return Quiver(q.vertices, arrows)


def _cycle_walks(q, tags=False):
    """Walk round each component of q, from its first vertex in q.vertices, in
    that order: the vertices in the order met, and the orientation word, whose
    k-th letter is "1" when the arrow between the k-th vertex and the next
    points along the walk and "0" when it points back.  With tags the word is
    a tuple whose letters carry the arrow's tag after the direction ("1x").
    None unless every vertex meets exactly two arrow ends of two different
    arrows, that is, unless q is a disjoint union of cycles of length >= 2;
    then each walk is back at its start before it meets a vertex twice."""
    incident = {v: [] for v in q.vertices}
    for idx, (s, t, _) in enumerate(q.arrows):
        incident[s].append(idx)
        incident[t].append(idx)
    if any(len(e) != 2 or e[0] == e[1] for e in incident.values()):
        return None
    walks, walked = [], set()
    for start in q.vertices:
        if start in walked:
            continue
        v, edge = start, incident[start][0]
        order, word = [], []
        while True:
            s, t, tag = q.arrows[edge]
            order.append(v)
            letter = "1" if s == v else "0"
            word.append(letter + tag if tags else letter)
            v = t if s == v else s
            if v == start:
                break
            a, b = incident[v]
            edge = b if a == edge else a
        walked.update(order)
        walks.append((tuple(order), tuple(word) if tags else "".join(word)))
    return walks


def _cycle_walk(q, tags=False):
    """The walk (_cycle_walks) of q; ValueError unless q is one cycle through every vertex."""
    walks = _cycle_walks(q, tags)
    if walks is None or len(walks) != 1:
        raise ValueError("underlying graph is not a single cycle")
    return walks[0]


_FLIP = str.maketrans("01", "10")


def _least_rotation(order, word):
    """The least rotation of a walk's word over both walk directions, with the
    vertex order rotated alongside.  Walking the other way round from
    order[0] meets order[0], order[-1], ..., order[1], reverses the word and
    flips every direction.

    A least rotation of a word not one letter repeated starts a run of the
    least letter (a start inside a run loses to the start a letter earlier,
    one at a greater letter to any at the least), so only run starts are
    formed; ties among them are broken by the vertex order."""
    n = len(order)
    back = tuple(a[0].translate(_FLIP) + a[1:] for a in reversed(word))
    walks = ((tuple(word), order), (back, order[:1] + order[:0:-1]))
    least = min(min(word), min(back))
    rotations = []
    for w, o in walks:
        starts = [k for k in range(n) if w[k] == least and w[k - 1] != least]
        if not starts and w[0] == least:
            starts = range(n)
        rotations += [(w[k:] + w[:k], o[k:] + o[:k]) for k in starts]
    return min(rotations)


def _classes(walks):
    return None if walks is None else sorted(_least_rotation(*walk)[0] for walk in walks)


def cycle_classes(q, respect_tags=False):
    """The isomorphism class of a disjoint union of cycles (tags kept when
    asked): the sorted least rotations (_least_rotation) of its components'
    words, or None when q is no such union."""
    return _classes(_cycle_walks(q, respect_tags))


def tagged_and_untagged_classes(q):
    """cycle_classes(q, True) and cycle_classes(q) from one walk: the walk does
    not depend on the tags, and a tagged letter stripped to its direction is
    the untagged letter."""
    walks = _cycle_walks(q, True)
    if walks is None:
        return None, None
    return _classes(walks), _classes([(o, tuple(a[0] for a in w)) for o, w in walks])


def quiver_isomorphic(q1, q2, respect_tags=False):
    """A vertex bijection carrying q1's arrows onto q2's (tags onto equal tags
    when asked), or None.

    Decided for disjoint unions of cycles of length >= 2, as every quiver
    built here is: two are isomorphic exactly when their cycle_classes
    agree, and zipping the vertex orders aligned with the least rotations
    gives the bijection.  A union of cycles is isomorphic to no other
    quiver, so the answer is None when just one side is not such a union;
    when neither is, ValueError.
    """
    rot1, rot2 = (None if walks is None else sorted(_least_rotation(*walk) for walk in walks)
                  for walks in (_cycle_walks(q, respect_tags) for q in (q1, q2)))
    if rot1 is None and rot2 is None:
        raise ValueError("neither quiver is a disjoint union of cycles")
    if rot1 is None or rot2 is None or [w for w, _ in rot1] != [w for w, _ in rot2]:
        return None
    return {v: u for (_, o1), (_, o2) in zip(rot1, rot2) for v, u in zip(o1, o2)}


def direction_counts(word):
    """(i, j), i <= j: how many letters of an untagged orientation word point each way."""
    forward = word.count("1")
    return tuple(sorted((forward, len(word) - forward)))


def make_canonical_quiver(i, j):
    """Two directed paths of lengths i and j from a common source to a common sink."""
    if i < 1 or j < 1:
        raise ValueError("path lengths must be >= 1")
    source, sink = "v0", "v%d" % i
    vertices = ["v%d" % k for k in range(i + j)]
    arrows = []
    prev = source
    for k in range(1, i):
        arrows.append((prev, "v%d" % k, ""))
        prev = "v%d" % k
    arrows.append((prev, sink, ""))
    prev = source
    for k in range(i + 1, i + j):
        arrows.append((prev, "v%d" % k, ""))
        prev = "v%d" % k
    arrows.append((prev, sink, ""))
    return Quiver(vertices, arrows)


def _distance(word, goals):
    """The least number of moves from an orientation word to a rotation of a
    goal word, a move sliding a "1" into a neighbouring "0" of the cycle, and
    for each walk position k whether the move at k (swapping letters k-1 and
    k) is one move nearer.

    Complementing maps moves to moves and rotations to rotations, so both
    sides are complemented when "1"s are the majority, which keeps t, the
    number of "1"s, at most n/2.  Let word's "1"s sit at P_0 < ... and a
    goal's at U_0 < ..., repeated with period n (U_(k+t) = U_k + n).  An
    alignment is a goal with t "1"s, a shift s in [0, t) and an integer
    rho; it costs sum_k |U_(k+s) + rho - P_k|, and the distance is the least
    cost.  For fixed goal and s the best rho are the medians [lo, hi] of
    the differences d_k = P_k - U_(k+s), and the cost there is the upper
    half of the sorted differences less the lower half.  Lower bound: "1"s
    never pass one another, so the final unrolled positions are
    U_(k+s) + rho for some alignment, and a move changes one position by
    one.  Upper bound: if a "1" must move forward but the next "1" blocks
    it, that one must move forward at least as far; as t < n the chain
    ends before a free cell, and moving its last "1" there lowers the sum
    by one.

    Nearer moves: a move shifts one P_k by one and so every alignment's cost
    by exactly one (a "1" wrapping round renumbers the alignments, s turning
    one step).  One not optimal costs dist + 1 or more before the move, so
    dist or more after: a move is nearer exactly when it moves a "1" P_k toward
    U_(k+s) + rho for an optimal goal and s and a rho in [lo, hi], that is,
    forward when d_k < hi and backward when d_k > lo."""
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
    nearer = [False] * n
    for d, lo, hi in [a[1:] for a in aligned if a[0] == dist]:
        for p, dk in zip(P, d):
            if dk < hi and word[(p + 1) % n] == "0":
                nearer[(p + 1) % n] = True
            if dk > lo and word[p - 1] == "0":
                nearer[p] = True
    return dist, nearer


def reflection_search(q1, q2, max_depth=None):
    """A shortest reflection sequence turning q1 into q2 (untagged), or None.

    Both must be single cycles (else ValueError), as every quiver from a
    covering quiver to a canonical Q_(i,j) is.  A state is the orientation
    word of q1's walk (_cycle_walk): the vertex at walk position k is a sink
    or a source exactly when letters k-1 and k differ (k-1 wraps round for
    k = 0), and reflecting at it swaps them.  Reflections keep the direction
    counts, so quivers whose counts differ are refused at once; otherwise
    the goal is every rotation of q2's word and of its reversed flip, and
    None is returned only when _distance exceeds max_depth.  The witness,
    vertex labels of q1 (stable under reflection), is built greedily: the
    first vertex in q1.vertices order whose move _distance marks nearer,
    repeated, so it is the least shortest sequence in this order.  A
    breadth-first search over classes that tries moves in this order and
    keeps the first word of each new class finds the same, as words of one
    class reach the same classes.
    """
    order, word = _cycle_walk(q1)
    goal = _cycle_walk(q2)[1]
    if direction_counts(word) != direction_counts(goal):
        return None
    goals = (goal, goal[::-1].translate(_FLIP))
    dist, nearer = _distance(word, goals)
    if max_depth is not None and dist > max_depth:
        return None
    position = {v: k for k, v in enumerate(order)}
    witness = []
    for left in reversed(range(dist)):
        v = next(v for v in q1.vertices if nearer[position[v]])
        k = position[v]
        word = (word[:k - 1] + word[k] + word[k - 1] + word[k + 1:] if k
                else word[-1] + word[1:-1] + word[0])
        witness.append(v)
        if left:
            nearer = _distance(word, goals)[1]
    return witness


def path_count(q):
    """Number of directed paths, trivial paths included (acyclic quivers)."""
    order = q._topological_order()
    if len(order) != len(q.vertices):
        raise ValueError("path count needs an acyclic quiver")
    paths_from, targets = {}, q._targets()
    for v in reversed(order):
        paths_from[v] = 1 + sum(paths_from[t] for t in targets[v])
    return sum(paths_from.values())


def to_dot(q):
    lines = ["digraph Q {"]
    for v in q.vertices:
        lines.append('  "%s";' % v)
    for (s, t, tag) in q.arrows:
        if tag:
            lines.append('  "%s" -> "%s" [label=%s];' % (s, t, tag))
        else:
            lines.append('  "%s" -> "%s";' % (s, t))
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(q):
    return {
        "vertices": list(q.vertices),
        "arrows": [{"src": s, "dst": t, "tag": tag or None} for (s, t, tag) in q.arrows],
    }
