import random
from collections import deque
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from asreg2 import quivers
from asreg2.algebra import quantum_spec
from asreg2.quivers import (
    Quiver,
    _cycle_key,
    _cycle_walk,
    _degree_signatures,
    bgp_reflect,
    canonical_type,
    components,
    covering_quiver,
    make_canonical_quiver,
    path_count,
    quiver_isomorphic,
    quiver_qs,
    quiver_qsg,
    reflection_search,
    to_dot,
    to_json_dict,
)

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
        assert q.is_acyclic()
        for r in range(1, 7):
            qg = quiver_qsg(spec, r)
            assert len(qg.vertices) == spec.ell * r
            assert len(qg.arrows) == spec.ell * r
            assert qg.is_acyclic()


def test_qsg_matches_golden_example():
    q = quiver_qsg(S11, 3)
    assert quiver_isomorphic(q, GOLDEN_QSG_11_3, respect_tags=True) is not None
    # in fact the construction reproduces the golden arrows on the nose
    assert q == GOLDEN_QSG_11_3


def test_qsg_r1_is_qs():
    assert quiver_qsg(S13, 1) == quiver_qs(S13)
    assert covering_quiver(S13, 1) == quiver_qs(S13)


def test_decomposition_examples():
    comps = components(quiver_qsg(S13, 2))
    assert len(comps) == 2
    for comp in comps:
        assert quiver_isomorphic(comp, quiver_qs(S13), respect_tags=True)

    comps = components(quiver_qsg(S35, 4))
    assert len(comps) == 4
    for comp in comps:
        assert quiver_isomorphic(comp, quiver_qs(S35), respect_tags=True)


def test_example_covering_decomposition():
    # weights (1,3), r=6: lcm = 12, two components, each the 3-fold cover
    q = quiver_qsg(S13, 6)
    comps = components(q)
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
            assert q.is_acyclic()
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


def test_bgp_involution_and_invariants():
    for spec, c in ((S11, 2), (S13, 3), (S23, 2)):
        q = covering_quiver(spec, c)
        base = canonical_type(q)
        for v in q.vertices:
            if not (q.is_sink(v) or q.is_source(v)):
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
    assert len(q.sources()) == 1 and len(q.sinks()) == 1
    for (i, j) in ((1, 1), (1, 4), (2, 3), (3, 9)):
        assert canonical_type(make_canonical_quiver(i, j)) == (i, j)


def test_reflection_search_trivial_and_blocked():
    q = covering_quiver(S13, 2)
    assert reflection_search(q, q) == []
    assert reflection_search(make_canonical_quiver(1, 3), make_canonical_quiver(2, 2)) is None


def test_reflection_search_to_canonical_form():
    source = covering_quiver(S13, 3)
    target = make_canonical_quiver(3, 9)
    seq = reflection_search(source, target)
    assert seq is not None
    state = source
    for v in seq:
        state = bgp_reflect(state, v)
    assert quiver_isomorphic(state, target) is not None


def _untagged(q):
    return Quiver(q.vertices, [(s, t, "") for (s, t, _) in q.arrows])


def _state_invariant(q):
    return tuple(sorted(q.degree_signature(v) for v in q.vertices))


def reflection_search_oracle(q1, q2, max_depth=None):
    """The search with states told apart by the general isomorphism test.

    Every reached state is compared by quiver_isomorphic with each earlier
    state of the same degree signature; non-cycles are searched too.
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
    if quiver_isomorphic(start, goal):
        return []
    seen = {_state_invariant(start): [start]}
    queue = deque([(start, [])])
    while queue:
        state, path = queue.popleft()
        if len(path) >= max_depth:
            continue
        moves = [v for v in state.vertices if state.is_sink(v) or state.is_source(v)]
        for v in moves:
            nxt = bgp_reflect(state, v)
            key = _state_invariant(nxt)
            bucket = seen.setdefault(key, [])
            if any(quiver_isomorphic(nxt, old) for old in bucket):
                continue
            bucket.append(nxt)
            witness = path + [v]
            if quiver_isomorphic(nxt, goal):
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
            witness = reflection_search(source, target, max_depth)
            assert witness == reflection_search_oracle(source, target, max_depth)
            found += witness is not None
    assert found > len(cases) // 2


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
    assert reflection_search(source, target, max_depth) == reflection_search_oracle(
        source, target, max_depth)


def test_reflection_search_builds_no_quiver_per_state(monkeypatch):
    source = covering_quiver(S13, 3)
    target = make_canonical_quiver(3, 9)
    expected = reflection_search(source, target)
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
    assert reflection_search(source, target) == expected
    assert len(expected) >= 2
    assert calls == {"bgp_reflect": 0, "Quiver": 0}


def test_degree_signatures_match_per_vertex_scan():
    cases = [quiver_qsg(S13, 4), covering_quiver(S35, 2), make_canonical_quiver(2, 5),
             Quiver(["v0", "v1", "v2"], [("v0", "v1", "x"), ("v0", "v1", "y"),
                                         ("v1", "v1", "x")])]
    for q in cases:
        for tags in (False, True):
            assert _degree_signatures(q, tags) == {
                v: q.degree_signature(v, tags) for v in q.vertices}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cycle_key_decides_untagged_isomorphism(data):
    n = data.draw(st.integers(2, 7))
    word = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if data.draw(st.booleans()):
        # the same cycle from another start, maybe walked the other way round
        k = data.draw(st.integers(0, n - 1))
        other = word[k:] + word[:k]
        if data.draw(st.booleans()):
            other = [not f for f in reversed(other)]
    else:
        other = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    q1 = _cycle(word, data.draw(st.permutations(range(n))))
    q2 = _cycle(other, data.draw(st.permutations(range(n))))
    same = _cycle_key(_cycle_walk(q1)[1]) == _cycle_key(_cycle_walk(q2)[1])
    assert same == (quiver_isomorphic(q1, q2) is not None)


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
            reflection_search(q, theta)
        with pytest.raises(ValueError):
            reflection_search(theta, q)
    assert _cycle_walk(theta) == (("v0", "v1", "v2", "v3"), "1100")


def test_component_count_theorem():
    for spec in (S11, S12, S13, S23, S35):
        ell = spec.ell
        for r in range(1, 7):
            comps = components(quiver_qsg(spec, r))
            assert len(comps) == gcd(ell, r)
            c = lcm(ell, r) // ell
            cover = covering_quiver(spec, c)
            for comp in comps:
                assert quiver_isomorphic(comp, cover, respect_tags=True) is not None
                assert canonical_type(comp) == (c * spec.w_x, c * spec.w_y)


def test_constructor_error_paths():
    with pytest.raises(ValueError):
        quiver_qsg(S13, 0)
    with pytest.raises(ValueError):
        covering_quiver(S13, 0)
    with pytest.raises(ValueError):
        make_canonical_quiver(0, 3)
    with pytest.raises(ValueError):
        Quiver(["v0"], [("v0", "v1", "")])


def test_dot_and_json_output():
    q = quiver_qs(S11)
    dot = to_dot(q)
    assert dot.splitlines()[0] == "digraph Q {"
    assert '  "v0" -> "v1" [label=x];' in dot
    d = to_json_dict(q)
    assert d["vertices"] == ["v0", "v1"]
    assert d["arrows"][0] == {"src": "v0", "dst": "v1", "tag": "x"}
    untag = to_dot(make_canonical_quiver(1, 1))
    assert "label" not in untag


def test_path_count_matches_dimension_bookkeeping():
    from asreg2.algebra import graded_basis

    for spec in (S11, S12, S13, S23, S35):
        expected = sum(
            (spec.ell - d) * len(graded_basis(spec, d)) for d in range(spec.ell)
        )
        assert path_count(quiver_qs(spec)) == expected
