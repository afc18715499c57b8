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
disjoint union of cycles.  So a cycle is handled through its walk
(_cycle_walk): the vertices in walk order and the orientation word.
Isomorphism compares the least rotations of the components' words, and the
reflection search runs on the word alone.

Vertices are strings ("v3" or "v1_2"); arrows are (src, dst, tag) with
tag "x", "y" or "" for untagged.  Quiver values are immutable.
"""

import functools
from collections import deque


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
    __slots__ = ("vertices", "arrows")

    def __init__(self, vertices, arrows):
        self.vertices = tuple(sorted(vertices, key=_natural_key))
        vs = set(self.vertices)
        for (s, t, _) in arrows:
            if s not in vs or t not in vs:
                raise ValueError("arrow endpoint %r not among the vertices" % ((s, t),))
        self.arrows = tuple(
            sorted(arrows, key=lambda a: (_natural_key(a[0]), _natural_key(a[1]), a[2]))
        )

    def __eq__(self, other):
        return self.vertices == other.vertices and self.arrows == other.arrows

    __hash__ = None

    def __repr__(self):
        return "Quiver(%d vertices, %d arrows)" % (len(self.vertices), len(self.arrows))

    def out_arrows(self, v):
        return [a for a in self.arrows if a[0] == v]

    def in_arrows(self, v):
        return [a for a in self.arrows if a[1] == v]

    def is_sink(self, v):
        return not self.out_arrows(v) and bool(self.in_arrows(v))

    def is_source(self, v):
        return not self.in_arrows(v) and bool(self.out_arrows(v))

    def _topological_order(self):
        """Kahn's order; it leaves out the vertices on or after an oriented cycle."""
        indeg = {v: 0 for v in self.vertices}
        for (_, t, _) in self.arrows:
            indeg[t] += 1
        order = [v for v in self.vertices if indeg[v] == 0]
        for v in order:
            for (_, t, _) in self.out_arrows(v):
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
    vertices = ["v%d_%d" % (i, s) for i in range(ell) for s in range(n)]
    arrows = []
    for i in range(ell):
        for w, tag, shift in zip((spec.w_x, spec.w_y), "xy", shifts):
            if i + w < ell:
                for s in range(n):
                    arrows.append(("v%d_%d" % (i, s), "v%d_%d" % (i + w, (s + shift) % n), tag))
    return Quiver(vertices, arrows)


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


def components(q):
    """Weakly connected components, ordered by size then vertex labels.

    Each vertex is mapped to its component, so one pass over the arrows
    partitions them; a connected quiver is its own component."""
    adj = {v: set() for v in q.vertices}
    for (s, t, _) in q.arrows:
        adj[s].add(t)
        adj[t].add(s)
    comp_of = {}
    blocks = []
    for v in q.vertices:
        if v in comp_of:
            continue
        comp_of[v] = len(blocks)
        block = [v]
        for u in block:
            for w in adj[u]:
                if w not in comp_of:
                    comp_of[w] = len(blocks)
                    block.append(w)
        blocks.append(block)
    if len(blocks) == 1:
        return [q]
    arrows = [[] for _ in blocks]
    for a in q.arrows:
        arrows[comp_of[a[0]]].append(a)
    comps = [Quiver(block, arr) for block, arr in zip(blocks, arrows)]
    comps.sort(key=lambda c: (len(c.vertices), [_natural_key(v) for v in c.vertices]))
    return comps


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


def _cycle_walk(q, tags=False):
    """Walk round q from q.vertices[0]: the vertices in the order met, and the
    orientation word, whose k-th letter is "1" when the arrow between the
    k-th vertex and the next points along the walk and "0" when it points
    back.  With tags the word is a tuple whose letters carry the arrow's tag
    after the direction ("1x", "0y", "1").
    ValueError unless q is one cycle through every vertex."""
    n = len(q.vertices)
    incident = {v: [] for v in q.vertices}
    for idx, (s, t, _) in enumerate(q.arrows):
        incident[s].append(idx)
        incident[t].append(idx)
    if len(q.arrows) != n or n < 2 or any(len(e) != 2 for e in incident.values()):
        raise ValueError("underlying graph is not a single cycle")
    v = q.vertices[0]
    edge = incident[v][0]
    order, word, walked = [], [], set()
    for _ in range(n):
        s, t, tag = q.arrows[edge]
        order.append(v)
        letter = "1" if s == v else "0"
        word.append(letter + tag if tags else letter)
        walked.add(edge)
        v = t if s == v else s
        a, b = incident[v]
        edge = b if a == edge else a
    if v != q.vertices[0] or len(walked) != n:
        raise ValueError("underlying graph is not a single cycle")
    return tuple(order), tuple(word) if tags else "".join(word)


_FLIP = str.maketrans("01", "10")


def _cycle_key(word):
    """Untagged isomorphism class of the cycle with this orientation word:
    other starts rotate the word, walking the other way round reverses it
    and flips every direction.

    The key is the least of those words.  It starts a run of "0"s: a
    rotation that starts inside a run loses to the one that starts a letter
    earlier, and one that starts at a "1" to any that starts at a "0".  So
    only the run starts of both walks are tried; a word of one letter
    repeated is "0" * n."""
    n = len(word)
    starts = []
    for w in (word, word[::-1].translate(_FLIP)):
        ww = w + w
        p = ww.find("10", 0, n + 1)
        while p >= 0:
            starts.append(ww[p + 1:p + 1 + n])
            p = ww.find("10", p + 1, n + 1)
    return min(starts) if starts else "0" * n


def _least_rotation(order, word):
    """The least rotation of a walk's word over both walk directions, with the
    vertex order rotated alongside.  Walking the other way round from
    order[0] meets order[0], order[-1], ..., order[1], reverses the word and
    flips every direction.

    As in _cycle_key, every least rotation of a word that is not one letter
    repeated starts a run of the least letter, so only those rotations are
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


def _component_walks(q, tags):
    """The walk (_cycle_walk) of each of q's components, or None unless each is a cycle."""
    walks = []
    for comp in components(q):
        try:
            walks.append(_cycle_walk(comp, tags))
        except ValueError:
            return None
    return walks


def _component_rotations(walks):
    """Sorted least rotations of a quiver's component walks (None stays None)."""
    return None if walks is None else sorted(_least_rotation(*walk) for walk in walks)


def quiver_isomorphic(q1, q2, respect_tags=False):
    """A vertex bijection carrying q1's arrows onto q2's (tags onto equal tags
    when asked), or None.

    Decided for disjoint unions of cycles of length >= 2, as every quiver
    built here is: two are isomorphic exactly when the sorted least rotations
    of their components' walks agree, and zipping the vertex orders aligned
    with them gives the bijection.  A union of cycles is isomorphic to no
    other quiver, so the answer is None when just one side is not such a
    union; when neither is, ValueError.
    """
    rot1, rot2 = (_component_rotations(_component_walks(q, respect_tags)) for q in (q1, q2))
    if rot1 is None and rot2 is None:
        raise ValueError("neither quiver is a disjoint union of cycles")
    if rot1 is None or rot2 is None or [w for w, _ in rot1] != [w for w, _ in rot2]:
        return None
    return {v: u for (_, o1), (_, o2) in zip(rot1, rot2) for v, u in zip(o1, o2)}


def _direction_counts(word):
    forward = word.count("1")
    return tuple(sorted((forward, len(word) - forward)))


def canonical_type(q):
    """Direction counts (i, j), i <= j, for an acyclic single-cycle quiver."""
    i, j = _direction_counts(_cycle_walk(q)[1])
    if i == 0:
        raise ValueError("quiver has an oriented cycle")
    return (i, j)


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


def reflection_search(q1, q2, max_depth=None):
    """Breadth-first search for a reflection sequence turning q1 into q2.

    Both must be single cycles (else ValueError), as every quiver from a
    covering quiver to a canonical Q_(i,j) is.  A state is the orientation
    word of q1's walk (_cycle_walk).  The vertex at walk position k is a
    sink or a source exactly when letters k-1 and k differ (k-1 wraps round
    for k = 0), and reflecting at it flips both, that is, swaps them.
    States are explored modulo untagged isomorphism, i.e. by _cycle_key;
    a word met before is skipped before its key is formed (undoing a move,
    or two commuting moves in either order, give it again), which leaves
    the classes and their order as they were.  Reflections keep the
    direction counts, so quivers whose counts differ are refused at once.
    Moves are tried in q1.vertices order.  The witness is a list of vertex
    labels of q1 (labels are stable under reflection), read off the walk,
    or None when the depth bound is exhausted.
    """
    order, word = _cycle_walk(q1)
    start, goal = _cycle_key(word), _cycle_key(_cycle_walk(q2)[1])
    if _direction_counts(start) != _direction_counts(goal):
        return None
    if start == goal:
        return []
    if max_depth is None:
        max_depth = 2 * len(order) ** 2
    position = {v: k for k, v in enumerate(order)}
    moves = [(v, position[v]) for v in q1.vertices]
    seen = {start}
    words = {word}
    queue = deque([(word, [])])
    while queue:
        state, path = queue.popleft()
        if len(path) >= max_depth:
            continue
        for v, k in moves:
            if state[k - 1] == state[k]:
                continue
            if k:
                nxt = state[:k - 1] + state[k] + state[k - 1] + state[k + 1:]
            else:
                nxt = state[-1] + state[1:-1] + state[0]
            if nxt in words:
                continue
            words.add(nxt)
            key = _cycle_key(nxt)
            if key in seen:
                continue
            seen.add(key)
            witness = path + [v]
            if key == goal:
                return witness
            queue.append((nxt, witness))
    return None


def path_count(q):
    """Number of directed paths, trivial paths included (acyclic quivers)."""
    order = q._topological_order()
    if len(order) != len(q.vertices):
        raise ValueError("path count needs an acyclic quiver")
    paths_from = {}
    for v in reversed(order):
        paths_from[v] = 1 + sum(paths_from[t] for (_, t, _) in q.out_arrows(v))
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
