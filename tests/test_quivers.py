import json
import random
from collections import Counter, deque
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from asreg2 import quivers
from asreg2.algebra import quantum_spec
from asreg2.automorphisms import make_cyclic_group, make_diagonal_action
from asreg2.beilinson import gabriel_quiver_oracle
from asreg2.quivers import (
    Quiver,
    _FLIP,
    _alignments,
    _cycle_walk,
    _cycle_walks,
    _least_rotation,
    _nearer,
    bgp_reflect,
    covering_quiver,
    cycle_classes,
    direction_counts,
    make_canonical_quiver,
    path_count,
    quiver_isomorphic,
    quiver_qs,
    quiver_qsg,
    reflection_search,
    tagged_and_untagged_classes,
)
from test_automorphisms import jordan_spec
from test_cli import DATA, REFLECT_GOLDENS, _load_workloads, run


def _natural_key(label):
    """The natural order of a label: digit runs compared as numbers, so "v2"
    comes before "v10"; the order every builder lists its vertices in."""
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


def search_to(source, target, max_depth=None):
    """reflection_search from source toward the class word of target, as the
    reflect search command calls it; ValueError unless target is one cycle."""
    classes = cycle_classes(target)
    if classes is None or len(classes) != 1:
        raise ValueError("the target is not a single cycle")
    return reflection_search(source, classes[0], max_depth)

S11 = quantum_spec(1, 1, 1)
S12 = quantum_spec(1, 2, 1)
S13 = quantum_spec(1, 3, 1)
S23 = quantum_spec(2, 3, 1)
S35 = quantum_spec(3, 5, 1)

# the six-vertex skew quiver for weights (1,1) and r=3, encoded by hand:
# x-arrows (0, j-1) -> (1, j), y-arrows (0, j+1) -> (1, j)
GOLDEN_QSG_11_3 = Quiver(
    ["v0_0", "v0_1", "v0_2", "v1_0", "v1_1", "v1_2"],
    [
        ("v0_2", "v1_0", "x"),
        ("v0_0", "v1_1", "x"),
        ("v0_1", "v1_2", "x"),
        ("v0_1", "v1_0", "y"),
        ("v0_2", "v1_1", "y"),
        ("v0_0", "v1_2", "y"),
    ],
)


def named_walk(q, tags=False):
    """_cycle_walk(q, tags) with its vertex order, positions, as labels."""
    order, word = _cycle_walk(q, tags)
    return tuple(q.vertices[v] for v in order), word


def named_walks(q, tags=False):
    """_cycle_walks(q, tags) with each vertex order, positions, as labels."""
    walks = _cycle_walks(q, tags)
    return None if walks is None else [(tuple(q.vertices[v] for v in o), w) for o, w in walks]


def out_arrows(q, v):
    return [a for a in q.arrows if a[0] == v]


def in_arrows(q, v):
    return [a for a in q.arrows if a[1] == v]


def is_sink(q, v):
    return not out_arrows(q, v) and bool(in_arrows(q, v))


def is_source(q, v):
    return not in_arrows(q, v) and bool(out_arrows(q, v))


def canonical_type(q):
    """Direction counts (i, j), i <= j, for an acyclic single-cycle quiver."""
    i, j = direction_counts(_cycle_walk(q)[1])
    if i == 0:
        raise ValueError("quiver has an oriented cycle")
    return (i, j)


def sinks(q):
    return [v for v in q.vertices if is_sink(q, v)]


def sources(q):
    return [v for v in q.vertices if is_source(q, v)]


def is_acyclic(q):
    try:
        path_count(q)
    except ValueError as exc:
        assert str(exc) == "path count needs an acyclic quiver"
        return False
    return True


# The general backtracking matcher: the oracle for quiver_isomorphic, which
# decides only disjoint unions of cycles.  It places components one by one
# and, within a component, maps vertices in a connected order under matching
# degree signatures and arrow multiplicities.

def degree_signature(q, v, tags=False):
    if tags:
        outs = Counter(a[2] for a in out_arrows(q, v))
        ins = Counter(a[2] for a in in_arrows(q, v))
        return (tuple(sorted(outs.items())), tuple(sorted(ins.items())))
    return (len(out_arrows(q, v)), len(in_arrows(q, v)))


def backtracking_isomorphic(q1, q2, respect_tags=False):
    """A vertex bijection preserving arrows (and tags when asked), or None."""
    if len(q1.vertices) != len(q2.vertices) or len(q1.arrows) != len(q2.arrows):
        return None
    c1, c2 = components_oracle(q1), components_oracle(q2)
    if len(c1) != len(c2):
        return None
    mapping = {}
    used = [False] * len(c2)

    def place(idx):
        if idx == len(c1):
            return True
        comp = c1[idx]
        for k, cand in enumerate(c2):
            if used[k] or len(cand.vertices) != len(comp.vertices):
                continue
            sub = _component_isomorphism(comp, cand, respect_tags)
            if sub is not None:
                used[k] = True
                mapping.update(sub)
                if place(idx + 1):
                    return True
                used[k] = False
                for v in sub:
                    mapping.pop(v, None)
        return False

    if not place(0):
        return None
    return mapping


def _adjacency(q, tags):
    out = {v: Counter() for v in q.vertices}
    for (s, t, tag) in q.arrows:
        out[s][(t, tag if tags else "")] += 1
    return out


def _degree_signatures(q, tags):
    """degree_signature of every vertex, in one pass over the arrows."""
    outs = {v: [] for v in q.vertices}
    ins = {v: [] for v in q.vertices}
    for (s, t, tag) in q.arrows:
        outs[s].append(tag)
        ins[t].append(tag)
    if tags:
        return {v: (tuple(sorted(Counter(outs[v]).items())),
                    tuple(sorted(Counter(ins[v]).items()))) for v in q.vertices}
    return {v: (len(outs[v]), len(ins[v])) for v in q.vertices}


def _component_isomorphism(q1, q2, respect_tags):
    n = len(q1.vertices)
    sig1 = _degree_signatures(q1, respect_tags)
    sig2 = _degree_signatures(q2, respect_tags)
    if sorted(sig1.values()) != sorted(sig2.values()):
        return None
    adj1 = _adjacency(q1, respect_tags)
    adj2 = _adjacency(q2, respect_tags)

    # explore q1 in a connected order so each new vertex is constrained
    order = []
    seen = set()
    und = {v: set() for v in q1.vertices}
    for (s, t, _) in q1.arrows:
        und[s].add(t)
        und[t].add(s)
    start = min(q1.vertices, key=lambda v: (sig1[v], _natural_key(v)))
    queue = deque([start])
    seen.add(start)
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in sorted(und[v], key=_natural_key):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if len(order) != n:
        raise ValueError("_component_isomorphism needs a connected quiver")

    mapping = {}
    taken = set()

    def consistent(v, w):
        # all arrows between v and already-mapped vertices must match
        for (other, tag), mult in adj1[v].items():
            if other in mapping and adj2[w][(mapping[other], tag)] != mult:
                return False
        for u in mapping:
            for (other, tag), mult in adj1[u].items():
                if other == v and adj2[mapping[u]][(w, tag)] != mult:
                    return False
        return True

    def extend(i):
        if i == n:
            return True
        v = order[i]
        for w in q2.vertices:
            if w in taken or sig2[w] != sig1[v]:
                continue
            if not consistent(v, w):
                continue
            mapping[v] = w
            taken.add(w)
            if extend(i + 1):
                return True
            del mapping[v]
            taken.discard(w)
        return False

    if extend(0):
        return dict(mapping)
    return None


def test_quiver_qs_shapes():
    q = quiver_qs(S11)
    assert q.vertices == ("v0", "v1")
    assert sorted(a[2] for a in q.arrows) == ["x", "y"]

    q = quiver_qs(S13)
    assert len(q.vertices) == 4
    assert [a for a in q.arrows if a[2] == "x"] == [
        ("v0", "v1", "x"), ("v1", "v2", "x"), ("v2", "v3", "x")
    ]
    assert [a for a in q.arrows if a[2] == "y"] == [("v0", "v3", "y")]

    q = quiver_qs(S35)
    assert len(q.vertices) == 8
    assert [a for a in q.arrows if a[2] == "x"] == [
        ("v%d" % i, "v%d" % (i + 3), "x") for i in range(5)
    ]
    assert [a for a in q.arrows if a[2] == "y"] == [
        ("v%d" % i, "v%d" % (i + 5), "y") for i in range(3)
    ]


def test_arrow_counts_and_acyclicity():
    for spec in (S11, S12, S13, S23, S35):
        q = quiver_qs(spec)
        assert len([a for a in q.arrows if a[2] == "x"]) == spec.w_y
        assert len([a for a in q.arrows if a[2] == "y"]) == spec.w_x
        assert is_acyclic(q)
        for r in range(1, 7):
            qg = quiver_qsg(make_cyclic_group(spec, r))
            assert len(qg.vertices) == spec.ell * r
            assert len(qg.arrows) == spec.ell * r
            assert is_acyclic(qg)


def test_qsg_matches_golden_example():
    q = quiver_qsg(make_cyclic_group(S11, 3))
    assert quiver_isomorphic(q, GOLDEN_QSG_11_3, respect_tags=True) is not None
    # in fact the construction reproduces the golden arrows on the nose
    assert q == GOLDEN_QSG_11_3


def test_qsg_r1_is_qs():
    assert quiver_qsg(make_cyclic_group(S13, 1)) == quiver_qs(S13)
    assert covering_quiver(S13, 1) == quiver_qs(S13)


def test_decomposition_examples():
    comps = components_oracle(quiver_qsg(make_cyclic_group(S13, 2)))
    assert len(comps) == 2
    for comp in comps:
        assert quiver_isomorphic(comp, quiver_qs(S13), respect_tags=True)

    comps = components_oracle(quiver_qsg(make_cyclic_group(S35, 4)))
    assert len(comps) == 4
    for comp in comps:
        assert quiver_isomorphic(comp, quiver_qs(S35), respect_tags=True)


def test_example_covering_decomposition():
    # weights (1,3), r=6: lcm = 12, two components, each the 3-fold cover
    q = quiver_qsg(make_cyclic_group(S13, 6))
    comps = components_oracle(q)
    assert len(comps) == 2
    cover = covering_quiver(S13, 3)
    assert len(cover.vertices) == 12 and len(cover.arrows) == 12
    for comp in comps:
        assert quiver_isomorphic(comp, cover, respect_tags=True)


def test_covering_counts():
    for spec in (S11, S13, S23, S35):
        for c in (1, 2, 3):
            q = covering_quiver(spec, c)
            assert len(q.vertices) == c * spec.ell
            assert len([a for a in q.arrows if a[2] == "x"]) == c * spec.w_y
            assert len([a for a in q.arrows if a[2] == "y"]) == c * spec.w_x
            assert is_acyclic(q)
    q = covering_quiver(S11, 2)
    assert len(q.vertices) == 4 and len(q.arrows) == 4


def test_renumbered_cycle_form_of_s35():
    # the 8-cycle with arrow pattern x,x,y,x,x,y,x and the long y-arc
    renumbered = Quiver(
        ["v%d" % i for i in range(8)],
        [
            ("v0", "v1", "x"), ("v1", "v2", "x"), ("v3", "v2", "y"),
            ("v3", "v4", "x"), ("v4", "v5", "x"), ("v6", "v5", "y"),
            ("v6", "v7", "x"), ("v0", "v7", "y"),
        ],
    )
    assert quiver_isomorphic(quiver_qs(S35), renumbered) is not None
    assert canonical_type(renumbered) == (3, 5)


def test_isomorphism_negative_and_identity():
    q = quiver_qs(S13)
    iso = quiver_isomorphic(q, q, respect_tags=True)
    assert iso is not None and all(iso[v] == v or True for v in iso)
    assert quiver_isomorphic(quiver_qs(S11), quiver_qs(S13)) is None
    # same shape, different tags
    q1 = Quiver(["v0", "v1"], [("v0", "v1", "x"), ("v0", "v1", "x")])
    q2 = Quiver(["v0", "v1"], [("v0", "v1", "x"), ("v0", "v1", "y")])
    assert quiver_isomorphic(q1, q2) is not None
    assert quiver_isomorphic(q1, q2, respect_tags=True) is None


@st.composite
def cycle_unions(draw):
    """Disjoint cycles of lengths 2-5 under shuffled labels, each arrow
    pointing either way round and tagged x, y or ""."""
    sizes = draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))
    labels = ["v%d" % v for v in draw(st.permutations(range(sum(sizes))))]
    arrows = []
    start = 0
    for size in sizes:
        cycle = labels[start:start + size]
        start += size
        for k in range(size):
            s, t = cycle[k], cycle[(k + 1) % size]
            if draw(st.booleans()):
                s, t = t, s
            arrows.append((s, t, draw(st.sampled_from(["x", "y", ""]))))
    return Quiver(labels, arrows)


def _broken(data, q):
    """q with an arrow dropped, an arrow added or an isolated vertex added:
    some vertex no longer meets exactly two arrows, so no union of cycles."""
    how = data.draw(st.sampled_from(["drop", "add", "vertex"]))
    if how == "drop":
        k = data.draw(st.integers(0, len(q.arrows) - 1))
        return Quiver(q.vertices, q.arrows[:k] + q.arrows[k + 1:])
    if how == "add":
        s, t = data.draw(st.sampled_from(q.vertices)), data.draw(st.sampled_from(q.vertices))
        return Quiver(q.vertices, q.arrows + ((s, t, "x"),))
    return Quiver(q.vertices + ("w",), q.arrows)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cycle_union_isomorphism_matches_backtracking(data):
    q1 = data.draw(cycle_unions())
    if data.draw(st.booleans()):
        perm = data.draw(st.permutations(q1.vertices))
        image = dict(zip(q1.vertices, perm))
        q2 = Quiver(perm, [(image[s], image[t], tag) for (s, t, tag) in q1.arrows])
    else:
        q2 = data.draw(cycle_unions())
    b1, b2 = _broken(data, q1), _broken(data, q2)
    for tags in (False, True):
        strip = (lambda a: a) if tags else (lambda a: (a[0], a[1], ""))
        mapping = quiver_isomorphic(q1, q2, tags)
        assert (mapping is None) == (backtracking_isomorphic(q1, q2, tags) is None)
        if mapping is not None:
            assert sorted(mapping) == sorted(q1.vertices)
            assert sorted(mapping.values()) == sorted(q2.vertices)
            assert sorted(strip((mapping[s], mapping[t], tag)) for (s, t, tag) in q1.arrows) \
                == sorted(strip(a) for a in q2.arrows)
        # a union of cycles is isomorphic to no other quiver
        for pair in ((q1, b2), (b1, q2)):
            assert quiver_isomorphic(*pair, tags) is None
            assert backtracking_isomorphic(*pair, tags) is None
        with pytest.raises(ValueError):
            quiver_isomorphic(b1, b2, tags)


# The cycle-word kernels by brute force: the oracle for _least_rotation,
# which takes each direction's least window of the doubled word and its
# first start, and the class key of the breadth-first oracle for
# reflection_search.

def cycle_key_oracle(word):
    """The least of all 2n rotations of the word and of its flipped reverse."""
    n = len(word)
    back = word[::-1].translate(_FLIP)
    return min(w[k:k + n] for w in (word + word, back + back) for k in range(n))


def walk_arrows(order, word):
    """The arrows that a word reads along a vertex order, sorted: letter k
    is the arrow between order[k] and the next vertex, pointing along the
    order for "1", "X" and "Y" and back for "0", "x" and "y"."""
    arrows = []
    for k, letter in enumerate(word):
        s, t = order[k], order[(k + 1) % len(order)]
        tag = letter.lower() if letter in "XxYy" else ""
        arrows.append((s, t, tag) if letter in "1XY" else (t, s, tag))
    return sorted(arrows)


def assert_least_rotation(walk):
    """_least_rotation gives the oracle's word, and an order aligned with it:
    the word read along the order gives the walk's arrows."""
    word, order = _least_rotation(*walk)
    assert word == cycle_key_oracle(walk[1])
    assert sorted(order) == sorted(walk[0])
    assert walk_arrows(order, word) == walk_arrows(*walk)


def components_oracle(q):
    """Weakly connected components as quivers, each with its vertices in
    q's order, ordered by size then vertex labels; each component's arrows
    are found by a scan of all arrows."""
    position = {v: k for k, v in enumerate(q.vertices)}
    adj = {v: set() for v in q.vertices}
    for (s, t, _) in q.arrows:
        adj[s].add(t)
        adj[t].add(s)
    seen = set()
    comps = []
    for v in q.vertices:
        if v in seen:
            continue
        block = {v}
        queue = deque([v])
        while queue:
            for w in adj[queue.popleft()]:
                if w not in block:
                    block.add(w)
                    queue.append(w)
        seen |= block
        comps.append(Quiver(sorted(block, key=position.__getitem__),
                            [a for a in q.arrows if a[0] in block]))
    comps.sort(key=lambda c: (len(c.vertices), [_natural_key(v) for v in c.vertices]))
    return comps


@st.composite
def walks(draw):
    """A walk's vertex order and word: random, periodic or one letter repeated,
    untagged (over "01") or tagged (over "01XxYy")."""
    letters = "01XxYy" if draw(st.booleans()) else "01"
    shape = draw(st.sampled_from(["random", "periodic", "constant"]))
    if shape == "random":
        word = "".join(draw(st.lists(st.sampled_from(letters), min_size=1, max_size=12)))
    elif shape == "periodic":
        period = ("Xy" if len(letters) > 2 else "10") if draw(st.booleans()) else \
            "".join(draw(st.lists(st.sampled_from(letters), min_size=1, max_size=3)))
        word = period * draw(st.integers(1, 5))
    else:
        word = draw(st.sampled_from(letters)) * draw(st.integers(1, 8))
    order = tuple("v%d" % v for v in draw(st.permutations(range(len(word)))))
    return order, word


@settings(max_examples=300, deadline=None)
@given(walks())
def test_least_rotation_matches_oracle(walk):
    assert_least_rotation(walk)


def test_least_rotation_on_long_periodic_words():
    # the words of Q_{S,G} are periodic ("10" repeated at weights (1, 1)):
    # every tied rotation starts a period apart, up to n = 4 000, untagged
    # and tagged, with shuffled vertex orders
    rng = random.Random(31)
    cases = 0
    for n in (2, 3, 4, 6, 12, 60, 210, 1000, 4000):
        periods = sorted({p for p in (1, 2, 3, 5, 7, n // 2, n) if p and n % p == 0})
        for p in periods[-3:] if n > 60 else periods:
            for letters in ("01", "01XxYy"):
                block = "".join(rng.choice(letters) for _ in range(p))
                if letters == "01" and p == 2:
                    block = "10"
                order = tuple("v%d" % v for v in rng.sample(range(n), n))
                assert_least_rotation((order, block * (n // p)))
                cases += 1
    assert cases > 40


def walks_oracle(q, tags):
    """named_walk of each of components_oracle(q), ordered by the position
    of its first vertex in q.vertices, or None unless each is a cycle."""
    position = {v: k for k, v in enumerate(q.vertices)}
    walks = []
    for comp in sorted(components_oracle(q), key=lambda c: position[c.vertices[0]]):
        try:
            walks.append(named_walk(comp, tags))
        except ValueError:
            return None
    return walks


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cycle_walks_match_per_component_walks(data):
    q = data.draw(cycle_unions())
    for case in (q, _broken(data, q)):
        for tags in (False, True):
            assert named_walks(case, tags) == walks_oracle(case, tags)
    assert _cycle_walks(q) is not None


def test_cycle_walks_refuse_what_is_no_union_of_cycles():
    path = Quiver(["v0", "v1", "v2"], [("v0", "v1", ""), ("v1", "v2", "")])
    loop = Quiver(["v0", "v1", "v2"], [("v0", "v0", "x"), ("v1", "v2", "y"), ("v2", "v1", "")])
    isolated = Quiver(["v0", "v1", "v2"], [("v0", "v1", ""), ("v1", "v0", "")])
    degree_3 = Quiver(["v0", "v1", "v2", "v3"], [("v0", "v1", ""), ("v1", "v2", ""),
                                                 ("v2", "v0", ""), ("v0", "v3", ""),
                                                 ("v3", "v1", "")])
    # a lone loop and a loop on a cycle: a quiver's index lists a loop twice
    # at its vertex, so neither meets two different arrows there
    lone_loop = Quiver(["v0"], [("v0", "v0", "")])
    cycle_loop = Quiver(["v0", "v1"], [("v0", "v1", ""), ("v1", "v0", ""), ("v1", "v1", "")])
    for q in (path, loop, isolated, degree_3, lone_loop, cycle_loop):
        for tags in (False, True):
            assert _cycle_walks(q, tags) is None
            assert cycle_classes(q, tags) is None
    q = quiver_qsg(make_cyclic_group(S35, 8))
    assert len(_cycle_walks(q)) == 8 and named_walks(q) == walks_oracle(q, False)


def test_bgp_reflect_refuses_exactly_non_sinks_and_non_sources():
    loops = Quiver(["v0", "v1", "v2"], [("v0", "v0", "x"), ("v0", "v1", "y"), ("v2", "v1", "")])
    for q in (quiver_qsg(make_cyclic_group(S13, 2)), covering_quiver(S23, 2), loops, Quiver(["v0"], [])):
        for v in q.vertices:
            if is_sink(q, v) or is_source(q, v):
                assert bgp_reflect(bgp_reflect(q, v), v) == q
            else:
                with pytest.raises(ValueError) as exc:
                    bgp_reflect(q, v)
                assert str(exc.value) == "vertex %r is neither a sink nor a source" % v
    # a loop, listed at both its ends, makes its vertex neither, alone or
    # beside arrows of one direction; an unknown vertex keeps its own text
    for q, v in ((Quiver(["v0"], [("v0", "v0", "")]), "v0"),
                 (Quiver(["v0", "v1"], [("v0", "v1", ""), ("v1", "v1", "")]), "v1")):
        with pytest.raises(ValueError) as exc:
            bgp_reflect(q, v)
        assert str(exc.value) == "vertex %r is neither a sink nor a source" % v
        with pytest.raises(ValueError) as exc:
            bgp_reflect(q, "v9")
        assert str(exc.value) == "unknown vertex 'v9'"


def test_bgp_reflect_basics():
    q = Quiver(["v1", "v2", "v3"], [("v1", "v2", ""), ("v2", "v3", "")])
    r3 = bgp_reflect(q, "v3")
    assert set(r3.arrows) == {("v1", "v2", ""), ("v3", "v2", "")}
    assert bgp_reflect(r3, "v3") == q
    with pytest.raises(ValueError):
        bgp_reflect(q, "v2")


def test_bgp_reflect_on_qs():
    q = quiver_qs(S13)
    r = bgp_reflect(q, "v3")
    assert set(r.arrows) == {
        ("v0", "v1", "x"), ("v1", "v2", "x"), ("v3", "v2", "x"), ("v3", "v0", "y")
    }


def _chain(q, vertices):
    """bgp_reflect one vertex at a time."""
    for v in vertices:
        q = bgp_reflect(q, v)
    return q


def _golden_witnesses():
    """(source, witness) of every reflect-search golden file."""
    cases = []
    for name, flags in REFLECT_GOLDENS:
        flag = dict(zip(flags[::2], map(int, flags[1::2])))
        source = covering_quiver(quantum_spec(flag["--wx"], flag["--wy"], 1), flag["--c"])
        result = json.loads((DATA / (name + ".json")).read_text())["result"]
        cases.append((source, result["sequence"]))
    return cases


def test_bgp_reflect_at_many_vertices_is_the_chain():
    cases = _golden_witnesses()
    for wx, wy, c in LARGE_COVERINGS:
        source = covering_quiver(quantum_spec(wx, wy, 1), c)
        cases.append((source, search_to(source, make_canonical_quiver(c * wx, c * wy))))
    assert max(len(witness) for _, witness in cases) > 2000
    for source, witness in cases:
        assert bgp_reflect(source, *witness) == _chain(source, witness)
    # a repeated vertex reflects twice; no vertex gives the quiver back
    q = covering_quiver(S23, 2)
    v = next(v for v in q.vertices if is_sink(q, v) or is_source(q, v))
    assert bgp_reflect(q, v, v) == q == _chain(q, [v, v])
    assert bgp_reflect(q) == q
    w = next(w for w in bgp_reflect(q, v).vertices if w != v and is_sink(bgp_reflect(q, v), w))
    assert bgp_reflect(q, v, w, w, v) == q


def test_bgp_reflect_at_many_vertices_raises_as_the_chain():
    # the first vertex that is unknown, or neither a sink nor a source at
    # its turn, raises the chain's ValueError
    def interior(q):
        order, word = named_walk(q)
        return next(v for k, v in enumerate(order) if word[k - 1] == word[k])

    source, witness = _golden_witnesses()[0]
    late = interior(_chain(source, witness[:5]))
    for vertices in ([interior(source)], witness[:5] + [late] + witness[5:], witness[:3] + ["v9_9"],
                     witness[:1] * 2 + [interior(source)], ["v9_9", interior(source)]):
        with pytest.raises(ValueError) as chained:
            _chain(source, vertices)
        with pytest.raises(ValueError) as at_once:
            bgp_reflect(source, *vertices)
        assert str(at_once.value) == str(chained.value)
    assert str(at_once.value) == "unknown vertex 'v9_9'"


def test_bgp_involution_and_invariants():
    for spec, c in ((S11, 2), (S13, 3), (S23, 2)):
        q = covering_quiver(spec, c)
        base = canonical_type(q)
        for v in q.vertices:
            if not (is_sink(q, v) or is_source(q, v)):
                continue
            r = bgp_reflect(q, v)
            assert bgp_reflect(r, v) == q
            assert len(r.arrows) == len(q.arrows)
            assert canonical_type(r) == base
            und = lambda qq: sorted(tuple(sorted((s, t))) for (s, t, _) in qq.arrows)
            assert und(r) == und(q)


def test_canonical_type_examples():
    assert canonical_type(quiver_qs(S11)) == (1, 1)
    assert canonical_type(covering_quiver(S13, 3)) == (3, 9)
    for spec in (S11, S12, S13, S23, S35):
        for c in (1, 2, 3):
            assert canonical_type(covering_quiver(spec, c)) == (
                c * spec.w_x, c * spec.w_y
            )
    with pytest.raises(ValueError):
        canonical_type(Quiver(["v0", "v1"], [("v0", "v1", "")]))


def test_make_canonical_quiver():
    q = make_canonical_quiver(1, 1)
    assert len(q.vertices) == 2 and len(q.arrows) == 2
    q = make_canonical_quiver(3, 9)
    assert len(q.vertices) == 12 and len(q.arrows) == 12
    assert len(sources(q)) == 1 and len(sinks(q)) == 1
    for (i, j) in ((1, 1), (1, 4), (2, 3), (3, 9)):
        assert canonical_type(make_canonical_quiver(i, j)) == (i, j)


def test_reflection_search_trivial_and_blocked():
    q = covering_quiver(S13, 2)
    assert search_to(q, q) == []
    assert search_to(make_canonical_quiver(1, 3), make_canonical_quiver(2, 2)) is None


def test_reflection_search_to_canonical_form():
    source = covering_quiver(S13, 3)
    target = make_canonical_quiver(3, 9)
    seq = search_to(source, target)
    assert seq is not None
    state = source
    for v in seq:
        state = bgp_reflect(state, v)
    assert quiver_isomorphic(state, target) is not None


def _untagged(q):
    return Quiver(q.vertices, [(s, t, "") for (s, t, _) in q.arrows])


def _state_invariant(q):
    return tuple(sorted(degree_signature(q, v) for v in q.vertices))


def reflection_search_oracle(q1, q2, max_depth=None):
    """The search with states told apart by the general isomorphism test.

    Every reached state is compared by backtracking_isomorphic with each
    earlier state of the same degree signature; non-cycles are searched too.
    """
    if len(q1.vertices) != len(q2.vertices) or len(q1.arrows) != len(q2.arrows):
        return None
    if max_depth is None:
        max_depth = 2 * len(q1.vertices) ** 2
    try:
        if canonical_type(q1) != canonical_type(q2):
            return None
    except ValueError:
        pass
    start = _untagged(q1)
    goal = _untagged(q2)
    if backtracking_isomorphic(start, goal):
        return []
    seen = {_state_invariant(start): [start]}
    queue = deque([(start, [])])
    while queue:
        state, path = queue.popleft()
        if len(path) >= max_depth:
            continue
        moves = [v for v in state.vertices if is_sink(state, v) or is_source(state, v)]
        for v in moves:
            nxt = bgp_reflect(state, v)
            key = _state_invariant(nxt)
            bucket = seen.setdefault(key, [])
            if any(backtracking_isomorphic(nxt, old) for old in bucket):
                continue
            bucket.append(nxt)
            witness = path + [v]
            if backtracking_isomorphic(nxt, goal):
                return witness
            queue.append((nxt, witness))
    return None


def _cycle(word, labels):
    """The cycle through labels in order; its k-th arrow points along it iff word[k]."""
    n = len(word)
    arrows = []
    for k, forward in enumerate(word):
        s, t = "v%d" % labels[k], "v%d" % labels[(k + 1) % n]
        arrows.append((s, t, "") if forward else (t, s, ""))
    return Quiver(["v%d" % v for v in labels], arrows)


def test_reflection_search_matches_oracle_sweep():
    rng = random.Random(7)
    cases = []
    for ell in range(2, 11):
        for wx in range(1, ell // 2 + 1):
            wy = ell - wx
            if gcd(wx, wy) != 1:
                continue
            for c in range(1, 10 // ell + 1):
                n = ell * c
                source = covering_quiver(quantum_spec(wx, wy, 1), c)
                off_type = [(i, n - i) for i in range(1, n) if sorted((i, n - i)) != [c * wx, c * wy]]
                targets = [(c * wx, c * wy), (c * wy, c * wx)] + rng.sample(off_type, min(2, len(off_type)))
                cases += [(source, make_canonical_quiver(i, j)) for (i, j) in targets]
    # acyclic cycles with random orientation words and labels
    for _ in range(12):
        n = rng.randint(2, 8)
        word = [True, False] + [rng.random() < 0.5 for _ in range(n - 2)]
        source = _cycle(word, rng.sample(range(n), n))
        i, j = canonical_type(source)
        cases += [(source, make_canonical_quiver(i, j)), (source, make_canonical_quiver(j, i))]
    found = 0
    for source, target in cases:
        for max_depth in (None, 2):
            witness = search_to(source, target, max_depth)
            assert witness == reflection_search_oracle(source, target, max_depth)
            found += witness is not None
    assert found > len(cases) // 2


def test_reflection_search_needs_no_depth_bound():
    # a covering quiver of type (i, j) reaches Q_(i,j) in at most i*j moves
    # (the inversion count of the goal word), so the unbounded search finds
    # the witness that a bound of 2 n^2 > i*j finds
    deepest = 0
    for wx in range(1, 5):
        for wy in range(wx, 8):
            for c in range(1, 4):
                n = c * (wx + wy)
                if gcd(wx, wy) != 1 or n > 20:
                    continue
                source = covering_quiver(quantum_spec(wx, wy, 1), c)
                i, j = c * wx, c * wy
                for target in (make_canonical_quiver(i, j), make_canonical_quiver(j, i)):
                    witness = search_to(source, target)
                    assert witness is not None and len(witness) <= i * j
                    assert witness == search_to(source, target, 2 * n * n)
                    deepest = max(deepest, len(witness))
    # some witnesses are longer than their quivers have vertices
    assert deepest > 20


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_reflection_search_on_words_matches_oracle(data):
    n = data.draw(st.integers(2, 9))
    word = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    labels = data.draw(st.permutations(range(n)))
    if data.draw(st.booleans()):
        # make v0, the walk's start where position k - 1 wraps round, a sink or a source
        k = labels.index(0)
        word[k] = not word[k - 1]
    if data.draw(st.booleans()):
        other = data.draw(st.permutations(word))  # same direction counts
    else:
        other = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    source = _cycle(word, labels)
    target = _cycle(other, data.draw(st.permutations(range(n))))
    max_depth = data.draw(st.sampled_from([None, 0, 1, 2, 3]))
    witness = search_to(source, target, max_depth)
    assert witness == reflection_search_oracle(source, target, max_depth)
    assert witness == reflection_search_distance_oracle(source, target, max_depth)


def test_reflection_search_builds_no_quiver_per_state(monkeypatch):
    source = covering_quiver(S13, 3)
    target = make_canonical_quiver(3, 9)
    expected = search_to(source, target)
    calls = {"bgp_reflect": 0, "Quiver": 0}
    real_reflect, real_init = quivers.bgp_reflect, Quiver.__init__

    def counted_reflect(q, v):
        calls["bgp_reflect"] += 1
        return real_reflect(q, v)

    def counted_init(self, vertices, arrows):
        calls["Quiver"] += 1
        real_init(self, vertices, arrows)

    monkeypatch.setattr(quivers, "bgp_reflect", counted_reflect)
    monkeypatch.setattr(Quiver, "__init__", counted_init)
    assert search_to(source, target) == expected
    assert len(expected) >= 2
    assert calls == {"bgp_reflect": 0, "Quiver": 0}


def test_reflection_search_makes_one_alignment_pass(monkeypatch):
    calls = [0]
    real = quivers._alignments

    def counted(word, goals):
        calls[0] += 1
        return real(word, goals)

    monkeypatch.setattr(quivers, "_alignments", counted)
    for wx, wy, c in ((1, 3, 3), (9, 13, 3)):
        source = covering_quiver(quantum_spec(wx, wy, 1), c)
        calls[0] = 0
        assert len(search_to(source, make_canonical_quiver(c * wx, c * wy))) > 2
        assert calls == [1]


def _moved(word, k):
    """The word after the move at walk position k: letters k-1 and k swapped."""
    if k:
        return word[:k - 1] + word[k] + word[k - 1] + word[k + 1:]
    return word[-1] + word[1:-1] + word[0]


def _distance(word, goals):
    """The distance (_alignments) from an orientation word to the goals, and
    for each walk position k whether the move at k is one nearer (_nearer):
    the pass that reflection_search once ran after every move."""
    word, P, dist, least = _alignments(word, goals)
    n = len(word)
    nearer = [False] * n
    for j, p in enumerate(P):
        if word[(p + 1) % n] == "0":
            nearer[(p + 1) % n] = _nearer(least, j, 1)
        if word[p - 1] == "0":
            nearer[p] = _nearer(least, j, -1)
    return dist, nearer


def reflection_search_distance_oracle(q1, q2, max_depth=None):
    """The greedy walk that reflection_search replaced: a fresh _distance
    pass after every move, and the first vertex in q1.vertices order whose
    move it marks nearer."""
    order, word = named_walk(q1)
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
        word = _moved(word, position[v])
        witness.append(v)
        if left:
            nearer = _distance(word, goals)[1]
    return witness


def test_reflection_search_matches_distance_oracle_on_coverings():
    # the least alignments carried across the moves walk as a fresh pass
    # per move does, on every covering quiver with at most 24 vertices and
    # on the large ones up to 66 vertices
    cases = [(wx, ell - wx, c) for ell in range(2, 25) for wx in range(1, ell)
             if gcd(wx, ell - wx) == 1 for c in range(1, 24 // ell + 1)]
    cases += [case for case in LARGE_COVERINGS if sum(case[:2]) * case[2] <= 66]
    assert len(cases) > 270
    for wx, wy, c in cases:
        source = covering_quiver(quantum_spec(wx, wy, 1), c)
        for target in (make_canonical_quiver(c * wx, c * wy), make_canonical_quiver(c * wy, c * wx)):
            for max_depth in (None, 3):
                assert search_to(source, target, max_depth) == \
                    reflection_search_distance_oracle(source, target, max_depth)


def test_reflection_search_matches_distance_oracle_on_longer_words():
    # past the breadth-first oracles' word lengths: random cycles of 10 to
    # 16 arrows and targets of the same direction counts
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(10, 16)
        word = [rng.random() < 0.5 for _ in range(n)]
        other = rng.sample(word, n)
        source = _cycle(word, rng.sample(range(n), n))
        target = _cycle(other, rng.sample(range(n), n))
        assert search_to(source, target) == reflection_search_distance_oracle(source, target)


def test_distance_is_exact_on_every_short_word():
    # the true distance to each class, and which moves are nearer: a
    # breadth-first search over all 2^n words from every word of the class;
    # words whose "1"s are the majority are measured through their complements
    for n in range(2, 10):
        classes = {}
        for bits in range(2 ** n):
            word = format(bits, "0%db" % n)
            classes.setdefault(cycle_key_oracle(word), []).append(word)
        for members in classes.values():
            dist = dict.fromkeys(members, 0)
            queue = deque(members)
            while queue:
                word = queue.popleft()
                for k in range(n):
                    nxt = _moved(word, k)
                    if word[k - 1] != word[k] and nxt not in dist:
                        dist[nxt] = dist[word] + 1
                        queue.append(nxt)
            for goal in members:
                goals = (goal, goal[::-1].translate(_FLIP))
                for word, d in dist.items():
                    # the move at k is nearer exactly when it reaches distance
                    # d - 1; a move between equal letters leaves the word alone
                    nearer = [dist[_moved(word, k)] == d - 1 for k in range(n)]
                    assert _distance(word, goals) == (d, nearer), (word, goal)


def reflection_search_word_oracle(q1, q2, max_depth=None):
    """The breadth-first search over orientation-word classes (cycle_key_oracle)
    that reflection_search replaced: levels in queue order, moves in
    q1.vertices order, the first word of each new class kept."""
    order, word = named_walk(q1)
    start, goal = cycle_key_oracle(word), cycle_key_oracle(_cycle_walk(q2)[1])
    if direction_counts(start) != direction_counts(goal):
        return None
    if start == goal:
        return []
    position = {v: k for k, v in enumerate(order)}
    moves = [(v, position[v]) for v in q1.vertices]
    seen, words = {start}, {word}
    queue = deque([(word, [])])
    while queue:
        state, path = queue.popleft()
        if max_depth is not None and len(path) >= max_depth:
            continue
        for v, k in moves:
            nxt = _moved(state, k)
            if state[k - 1] == state[k] or nxt in words:
                continue
            words.add(nxt)
            key = cycle_key_oracle(nxt)
            if key in seen:
                continue
            seen.add(key)
            witness = path + [v]
            if key == goal:
                return witness
            queue.append((nxt, witness))
    return None


def test_reflection_search_matches_word_bfs():
    # every covering quiver with at most 16 vertices, every target (i, n - i)
    cases = []
    for ell in range(2, 17):
        for wx in range(1, ell):
            if gcd(wx, ell - wx) != 1:
                continue
            for c in range(1, 16 // ell + 1):
                n = ell * c
                source = covering_quiver(quantum_spec(wx, ell - wx, 1), c)
                cases += [(source, make_canonical_quiver(i, n - i)) for i in range(1, n)]
    found = 0
    for source, target in cases:
        for max_depth in (None, 0, 1, 2, 5):
            witness = search_to(source, target, max_depth)
            assert witness == reflection_search_word_oracle(source, target, max_depth)
            found += witness is not None
    assert found > 300
    source = covering_quiver(quantum_spec(4, 7, 1), 2)
    target = make_canonical_quiver(8, 14)
    assert search_to(source, target) == reflection_search_word_oracle(source, target)


LARGE_COVERINGS = ((5, 8, 2), (7, 11, 2), (9, 13, 3), (19, 23, 5))


def test_reflection_search_on_large_coverings():
    # past the breadth-first oracles' reach, up to 210 vertices and 2 730
    # moves: the witness replays onto the target in as many moves as the
    # distance says
    for wx, wy, c in LARGE_COVERINGS:
        source = covering_quiver(quantum_spec(wx, wy, 1), c)
        target = make_canonical_quiver(c * wx, c * wy)
        seq = search_to(source, target)
        assert quiver_isomorphic(bgp_reflect(source, *seq), target) is not None
        goal = _cycle_walk(target)[1]
        assert len(seq) == _distance(_cycle_walk(source)[1], (goal, goal[::-1].translate(_FLIP)))[0]
        assert len(seq) > len(source.vertices)


def test_degree_signatures_match_per_vertex_scan():
    cases = [quiver_qsg(make_cyclic_group(S13, 4)), covering_quiver(S35, 2), make_canonical_quiver(2, 5),
             Quiver(["v0", "v1", "v2"], [("v0", "v1", "x"), ("v0", "v1", "y"),
                                         ("v1", "v1", "x")])]
    for q in cases:
        for tags in (False, True):
            assert _degree_signatures(q, tags) == {
                v: degree_signature(q, v, tags) for v in q.vertices}


def test_reflection_search_rejects_non_cycles():
    path = Quiver(["v0", "v1", "v2"], [("v0", "v1", ""), ("v1", "v2", "")])
    two_cycles = Quiver(["v0", "v1", "v2", "v3"], [("v0", "v1", ""), ("v0", "v1", ""),
                                                   ("v2", "v3", ""), ("v2", "v3", "")])
    loops = Quiver(["v0", "v1"], [("v0", "v0", ""), ("v1", "v1", "")])
    theta = make_canonical_quiver(2, 2)
    for q in (path, two_cycles, loops):
        with pytest.raises(ValueError):
            _cycle_walk(q)
        with pytest.raises(ValueError):
            search_to(q, theta)
        with pytest.raises(ValueError):
            search_to(theta, q)
    assert _cycle_walk(theta) == ((0, 1, 2, 3), "1100")
    assert named_walk(theta) == (("v0", "v1", "v2", "v3"), "1100")


def test_component_count_theorem():
    # canonical types are (i, j) with i <= j, so (c w_x, c w_y) sorted
    for spec in (S11, S12, S13, S23, S35, quantum_spec(2, 1, 1), quantum_spec(3, 2, 1),
                 quantum_spec(5, 3, 1)):
        ell = spec.ell
        for r in range(1, 7):
            comps = components_oracle(quiver_qsg(make_cyclic_group(spec, r)))
            assert len(comps) == gcd(ell, r)
            c = lcm(ell, r) // ell
            cover = covering_quiver(spec, c)
            for comp in comps:
                assert quiver_isomorphic(comp, cover, respect_tags=True) is not None
                assert canonical_type(comp) == tuple(sorted((c * spec.w_x, c * spec.w_y)))


def test_constructor_error_paths():
    with pytest.raises(ValueError):
        quiver_qsg(make_cyclic_group(S13, 0))
    with pytest.raises(ValueError):
        covering_quiver(S13, 0)
    with pytest.raises(ValueError):
        make_canonical_quiver(0, 3)
    with pytest.raises(ValueError):
        Quiver(["v0"], [("v0", "v1", "")])
    # a tag other than "x", "y" or "" has no letter in a walk's word
    for tag in ("z", "X", "xy", None):
        with pytest.raises(ValueError) as exc:
            Quiver(["v0", "v1"], [("v0", "v1", ""), ("v1", "v0", tag)])
        assert str(exc.value) == "arrow tag %r is not 'x', 'y' or ''" % (tag,)
    # the arrows are read once, so an iterator of them is checked and kept
    q = Quiver(["v0", "v1"], (a for a in [("v1", "v0", "y"), ("v0", "v1", "")]))
    assert q.arrows == (("v0", "v1", ""), ("v1", "v0", "y"))


def natural_key_arrows(arrows):
    """The arrows sorted by the natural keys of src and dst, then the tag: the
    oracle of Quiver's sort by vertex position, which agrees with it on
    vertices in natural order whose labels have distinct natural keys."""
    return tuple(sorted(arrows, key=lambda a: (_natural_key(a[0]), _natural_key(a[1]), a[2])))


def _reflect_search_states():
    """Every quiver along the witnesses of the reflect-search benchmark jobs,
    from the covering quiver on."""
    params = {(job.param("wx"), job.param("wy"), job.param("c"), job.param("i"), job.param("j"))
              for job in _load_workloads().WORKLOADS["reflect-search"].space()}
    states = []
    for wx, wy, c, i, j in sorted(params):
        state = covering_quiver(quantum_spec(wx, wy, 1), c)
        states.append(state)
        for v in search_to(state, make_canonical_quiver(i, j)):
            state = bgp_reflect(state, v)
            states.append(state)
    return states


def _built_quivers():
    """A quiver of every builder: Q_S, Q_{S,G} and the covering quiver on
    levels up to 12 (two-digit labels, where "v0_2" comes before "v0_10"),
    Q_{S,G} of every diagonal action of small order, the canonical quivers
    and the Gabriel oracle at every gated action."""
    weights = [(wx, wy) for wx in range(1, 6) for wy in range(1, 8) if gcd(wx, wy) == 1]
    qs = [quiver_qs(quantum_spec(wx, wy, 1)) for wx, wy in weights]
    qs += [make(quantum_spec(wx, wy, 1), n)
           for make in (lambda spec, r: quiver_qsg(make_cyclic_group(spec, r)), covering_quiver)
           for wx, wy in weights for n in range(1, 13)]
    qs += [quiver_qsg(make_diagonal_action(quantum_spec(wx, wy, 1), r, px, py))
           for wx, wy in ((1, 1), (2, 3)) for r in range(2, 7) for px in range(r) for py in range(r)]
    qs += [make_canonical_quiver(i, j) for i in range(1, 13) for j in range(1, 13)]
    actions = [make_cyclic_group(quantum_spec(wx, wy, 1), r) for wx, wy in weights
               for r in range(1, 13) if (wx + wy) * r <= 36]
    actions += [make_cyclic_group(jordan_spec(q), r) for q in range(1, 12)
                for r in range(1, 13) if (q + 1) % r == 0 and (q + 1) * r <= 36]
    return qs + [gabriel_quiver_oracle(action) for action in actions]


def test_arrow_order_equals_natural_key_sort():
    qs = _built_quivers()
    states = _reflect_search_states()
    assert len(states) > 200
    rng = random.Random(7)
    for q in qs + states:
        assert list(q.vertices) == sorted(q.vertices, key=_natural_key)
        assert len({_natural_key(v) for v in q.vertices}) == len(q.vertices)
        arrows = list(q.arrows)
        rng.shuffle(arrows)
        assert natural_key_arrows(arrows) == q.arrows
        assert Quiver(q.vertices, arrows).arrows == q.arrows
    # Quiver keeps the vertex order it is given, natural or not, and sorts
    # the arrows by it
    q = Quiver(["v10", "v2", "v01", "v1"], [("v1", "v2", ""), ("v01", "v10", "x"), ("v2", "v1", "y")])
    assert (q.vertices, q.arrows) == (("v10", "v2", "v01", "v1"),
                                      (("v2", "v1", "y"), ("v01", "v10", "x"), ("v1", "v2", "")))


def test_path_count_matches_dimension_bookkeeping():
    from asreg2.algebra import graded_basis

    for spec in (S11, S12, S13, S23, S35):
        expected = sum(
            (spec.ell - d) * len(graded_basis(spec, d)) for d in range(spec.ell)
        )
        assert path_count(quiver_qs(spec)) == expected
    # the refusal: an oriented cycle, and a loop, an in-arrow of its own
    # vertex, alone or beside a path into it
    for arrows in ([("v0", "v1", ""), ("v1", "v0", "")], [("v0", "v0", "")],
                   [("v1", "v0", ""), ("v0", "v0", "")]):
        vertices = sorted({v for s, t, _ in arrows for v in (s, t)})
        assert not is_acyclic(Quiver(vertices, arrows)), arrows


# The label-and-dict quiver code that positions replaced: an index of each
# vertex label's arrows, built afresh on each walk, reflection and path
# count, and walks over labels.  The oracle of the position kernels.

def incidence_oracle(q):
    """Each vertex label's arrows, as indices into q.arrows, an arrow listed at
    both its ends: a loop twice at its vertex."""
    incident = {v: [] for v in q.vertices}
    for idx, (s, t, _) in enumerate(q.arrows):
        incident[s].append(idx)
        incident[t].append(idx)
    return incident


def label_walks_oracle(q, tags=False):
    """The walks of _cycle_walks on labels: from each component's first vertex
    in q.vertices, the labels met and the orientation word, or None unless
    every vertex meets two arrow ends of two different arrows."""
    incident = incidence_oracle(q)
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
            word.append((quivers._LETTERS[tag] if tags else "10")[s != v])
            v = t if s == v else s
            if v == start:
                break
            a, b = incident[v]
            edge = b if a == edge else a
        walked.update(order)
        walks.append((tuple(order), "".join(word)))
    return walks


def classes_oracle(q, tags=False):
    walks = label_walks_oracle(q, tags)
    return None if walks is None else sorted(cycle_key_oracle(word) for _, word in walks)


def path_count_oracle(q):
    """Kahn's order over incidence_oracle, an arrow's entry at its target an
    in-arrow; ValueError on an oriented cycle or a loop."""
    targets, indeg = {}, {}
    for v, idx in incidence_oracle(q).items():
        ends = [q.arrows[i][:2] for i in idx]
        targets[v] = [t for s, t in ends if s == v]
        indeg[v] = sum(t == v for _, t in ends)
    order = [v for v in q.vertices if not indeg[v]]
    for v in order:
        for t in targets[v]:
            indeg[t] -= 1
            if not indeg[t]:
                order.append(t)
    if len(order) != len(q.vertices):
        raise ValueError("path count needs an acyclic quiver")
    paths_from = {}
    for v in reversed(order):
        paths_from[v] = 1 + sum(paths_from[t] for t in targets[v])
    return sum(paths_from.values())


def bgp_reflect_oracle(q, *vertices):
    """bgp_reflect on labels, as (vertices, arrows sorted by the positions of
    source and target, then tag)."""
    arrows, incident = list(q.arrows), incidence_oracle(q)
    for v in vertices:
        if v not in incident:
            raise ValueError("unknown vertex %r" % v)
        ends = [arrows[idx] for idx in incident[v]]
        if any(s == v for s, _, _ in ends) == any(t == v for _, t, _ in ends):
            raise ValueError("vertex %r is neither a sink nor a source" % v)
        for idx in incident[v]:
            s, t, tag = arrows[idx]
            arrows[idx] = (t, s, tag)
    position = {v: k for k, v in enumerate(q.vertices)}
    return q.vertices, tuple(sorted(arrows, key=lambda a: (position[a[0]], position[a[1]], a[2])))


def _outcome(f, *args):
    """f(*args), or the text of its ValueError."""
    try:
        return f(*args)
    except ValueError as exc:
        return "ValueError: %s" % exc


def assert_matches_label_oracle(q):
    """Walks (vertex orders as labels), classes, path count and reflections of q
    agree with the label-and-dict oracle; reflections at every vertex as one
    chain, at an unknown vertex and at each vertex alone."""
    for tags in (False, True):
        assert named_walks(q, tags) == label_walks_oracle(q, tags)
        assert cycle_classes(q, tags) == classes_oracle(q, tags)
    assert tagged_and_untagged_classes(q) == (classes_oracle(q, True), classes_oracle(q, False))
    assert _outcome(path_count, q) == _outcome(path_count_oracle, q)

    def reflected(*vertices):
        r = bgp_reflect(q, *vertices)
        return r.vertices, r.arrows

    for vertices in [q.vertices, ("w9",)] + [(v,) for v in q.vertices]:
        assert _outcome(reflected, *vertices) == _outcome(bgp_reflect_oracle, q, *vertices)


def test_position_kernels_match_label_oracle_on_every_builder():
    built = _built_quivers()
    # reflections of built quivers, quivers given by labels, and some that
    # are no union of cycles: a path, loops, an isolated vertex
    built += [bgp_reflect(q, v) for q in built[:40] for v in q.vertices
              if v in sinks(q) + sources(q)]
    built += [GOLDEN_QSG_11_3, Quiver(["v0"], []), Quiver(["v0"], [("v0", "v0", "")]),
              Quiver(["v0", "v1", "v2"], [("v0", "v1", ""), ("v1", "v2", "")]),
              Quiver(["v0", "v1", "v2"], [("v0", "v0", "x"), ("v0", "v1", "y"), ("v2", "v1", "")]),
              Quiver(["b", "a", "c"], [("a", "b", "x"), ("b", "a", ""), ("c", "c", "y")])]
    assert len(built) > 700
    for q in built:
        assert_matches_label_oracle(q)


def test_position_kernels_match_label_oracle_on_reflect_search_states():
    states = _reflect_search_states()
    assert len(states) > 200
    for q in states:
        assert_matches_label_oracle(q)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_position_kernels_match_label_oracle_on_cycle_unions(data):
    q = data.draw(cycle_unions())
    assert_matches_label_oracle(q)
    assert_matches_label_oracle(_broken(data, q))


def test_quiver_equality_with_other_values():
    # a quiver equals only a quiver: other values compare unequal, in a list too
    q = make_canonical_quiver(1, 2)
    assert q != None and not q == None  # noqa: E711
    assert q != "v0" and q != (q.vertices, q.arrows)
    assert q in [None, q] and None not in [q]
    assert q == Quiver(["v0", "v1", "v2"], [("v0", "v1", ""), ("v0", "v2", ""), ("v2", "v1", "")])
    assert q != Quiver(["v0", "v2", "v1"], [("v0", "v1", ""), ("v0", "v2", ""), ("v2", "v1", "")])


def test_check_formats_no_vertex_label(monkeypatch, capsys):
    # check reads its four quivers by position: with the label rule broken,
    # the Gabriel oracle's config (ell*r <= 36) and one past its gate still
    # pass every line, and a writer, which reads labels, does not get far
    def broken(size, columns):
        raise AssertionError("a vertex label was formatted")

    monkeypatch.setattr(quivers, "_labels", broken)
    for argv, gated in ((["--wx", "1", "--wy", "2", "--r", "3"], True),
                        (["--family", "jordan", "--wy", "11", "--r", "12"], False)):
        code, out = run(capsys, ["check", *argv])
        assert code == 0 and out.endswith("overall: ok\n"), argv
        assert ("Gabriel oracle matches skew quiver" in out) == gated, argv
    with pytest.raises(AssertionError):
        run(capsys, ["quiver", "qs", "--wx", "1", "--wy", "2"])
