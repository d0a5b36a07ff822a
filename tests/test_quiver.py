import ast
import itertools
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import quiverskew
from quiverskew import (
    Edge,
    FiniteQuiver,
    IsoBudgetExceeded,
    QuiverIso,
    QuiverMorphism,
    check_iso,
    iso_search,
    make_cyclic,
    make_symmetric,
    skew_product,
    validate_quiver,
)
from quiverskew import io as qio
from quiverskew.quiver import QuiverError, _bijection
from quiverskew.randgen import random_cocycle, random_quiver

from conftest import brute_iso_exists, check_morphism, deadline, mk, random_base


def relabelling(q, rng):
    """q with fresh vertex and edge ids, both listed in a shuffled order, and
    the vertex and edge maps from q's ids to the fresh ones."""
    vs, es = list(q.vertices), list(q.edges)
    rng.shuffle(vs)
    rng.shuffle(es)
    vmap = {v: f"x{i}" for i, v in enumerate(vs)}
    emap = {e.id: f"f{i}" for i, e in enumerate(es)}
    return FiniteQuiver([vmap[v] for v in vs], [
        Edge(emap[e.id], vmap[e.src], vmap[e.rng], e.weight) for e in es
    ]), vmap, emap


def relabelled(q, rng):
    """q with fresh vertex and edge ids, both listed in a shuffled order."""
    return relabelling(q, rng)[0]


class TestValidate:
    def test_single_vertex_no_edges_ok(self):
        assert validate_quiver(mk(["v"], [])) == []

    def test_dangling_endpoint(self):
        q = mk(["v"], [("e", "x", "v", 1)])
        report = validate_quiver(q)
        assert any("dangling endpoint" in r for r in report)

    def test_dangling_range(self):
        q = mk(["v"], [("e", "v", "x", 1)])
        assert validate_quiver(q) == ["dangling endpoint: edge 'e' has rng 'x'"]

    def test_nonpositive_weight(self):
        q = FiniteQuiver(["v"], [Edge("e", "v", "v", Fraction(0))])
        report = validate_quiver(q)
        assert any("nonpositive weight" in r for r in report)

    def test_duplicate_ids(self):
        q = mk(["v", "v"], [("e", "v", "v", 1), ("e", "v", "v", 1)])
        report = validate_quiver(q)
        assert any("duplicate vertex" in r for r in report)
        assert any("duplicate edge" in r for r in report)


def test_edge_keeps_the_fraction_it_is_given():
    w = Fraction(3, 7)
    assert Edge("e", "v", "v", w).weight is w
    assert Edge("e", "v", "v", 2).weight == Fraction(2)


def index_cases():
    """Seeded random_quiver draws, then parallel edges and loops, and equal
    weights held in distinct Fraction objects."""
    rng = random.Random(0)
    draws = [pytest.param(random_quiver(rng), id=f"draw{i}") for i in range(60)]
    half, also_half = Fraction(1, 2), Fraction(3, 6)
    assert half is not also_half
    return draws + [
        pytest.param(mk(["u", "v"], [("a", "u", "v", 1), ("b", "u", "v", 1), ("c", "v", "v", 2),
                                     ("d", "v", "v", 2), ("e", "v", "u", "2/3")]),
                     id="parallel-edges-and-loops"),
        pytest.param(FiniteQuiver(["x", "y", "z"], [
            Edge("p", "y", "x", half), Edge("q", "x", "y", also_half),
            Edge("r", "x", "x", Fraction(2)), Edge("s", "y", "y", 2)]),
            id="equal-weights-in-distinct-objects"),
        pytest.param(mk(["lonely"], []), id="no-edges"),
    ]


@pytest.mark.parametrize("q", index_cases())
def test_index_against_a_scan_of_the_tuples(q):
    ix = q.index
    assert list(ix.pos.items()) == [(v, i) for i, v in enumerate(q.vertices)]
    assert [q.vertices[i] for i in ix.src] == [e.src for e in q.edges]
    assert [q.vertices[i] for i in ix.rng] == [e.rng for e in q.edges]
    for (i, e), (j, f) in itertools.product(enumerate(q.edges), repeat=2):
        assert (ix.weight[i] == ix.weight[j]) == (e.weight == f.weight)
    assert [ix.classes[e.weight.as_integer_ratio()] for e in q.edges] == list(ix.weight)
    assert sorted(ix.classes.values()) == list(range(len(ix.classes)))
    for v in q.vertices:
        assert q.out_edges(v) == [e for e in q.edges if e.src == v]


def quiver_documents(count):
    """Seeded quiver documents with weights spelled more than one way ("2/4" and
    "1/2"), some nonpositive, and in turn a repeated vertex id or edge id."""
    rng = random.Random(23)
    for i in range(count):
        vertices = [f"v{j}" for j in range(rng.randint(1, 6))]
        if i % 3 == 1:
            vertices.insert(rng.randrange(len(vertices)), rng.choice(vertices))
        edges = []
        for j in range(rng.randint(0, 12)):
            num, den, k = rng.choice((1, 2, 3) * 10 + (0, -1)), rng.randint(1, 3), rng.randint(1, 3)
            edges.append({"id": f"e{j}", "src": rng.choice(vertices), "rng": rng.choice(vertices),
                          "weight": f"{num * k}/{den * k}" if rng.random() < 0.5 else str(num)})
        if i % 3 == 2 and edges:
            edges.insert(rng.randrange(len(edges)), dict(rng.choice(edges), src=vertices[0]))
        yield {"vertices": vertices, "edges": edges}


def test_the_parsed_view_is_the_view_of_the_tuples():
    seen = Counter()
    for doc in quiver_documents(240):
        q = qio.parse_quiver_document(doc)
        assert "index" not in vars(q)  # built on first use, as for any quiver
        plain = FiniteQuiver(q.vertices, q.edges)
        assert validate_quiver(q) == validate_quiver(plain)
        for name, parsed, built in zip(q.index._fields, q.index, plain.index):
            if isinstance(built, dict):
                parsed, built = list(parsed.items()), list(built.items())
            assert parsed == built, name
        spellings = {}
        for e, c in zip(doc["edges"], q.index.weight):
            spellings.setdefault(c, set()).add(e["weight"])
        seen.update({"two spellings": any(len(s) > 1 for s in spellings.values()),
                     "repeated vertex": len(q.index.pos) < len(q.vertices),
                     "repeated edge": len(q._edge_pos) < len(q.edges),
                     "valid": not validate_quiver(q)})
    assert min(seen.values()) >= 30, seen


def test_a_parsed_quiver_with_a_dangling_endpoint_has_no_view():
    q = qio.parse_quiver_document({"vertices": ["v", "v"], "edges": [
        {"id": "e", "src": "v", "rng": "x", "weight": "1"},
        {"id": "e", "src": "y", "rng": "v", "weight": "-2/4"}]})
    assert "index" not in vars(q)
    with pytest.raises(KeyError):
        q.index
    assert validate_quiver(q) == [
        "duplicate vertex id: 'v'", "dangling endpoint: edge 'e' has rng 'x'",
        "duplicate edge id: 'e'", "dangling endpoint: edge 'e' has src 'y'",
        "nonpositive weight: edge 'e' has weight -1/2"]


def test_a_quiver_holds_its_two_tuples_until_a_reader_runs():
    for read in (validate_quiver, lambda q: q.out_edges("u")):
        q = FiniteQuiver(["u", "v"], [("a", "u", "v", 1)])
        assert q == FiniteQuiver(q.vertices, q.edges)
        hash(q)
        assert set(vars(q)) == {"vertices", "edges"}
        read(q)
        assert "index" in vars(q)


def test_a_repeated_vertex_id_gets_its_own_out_entry():
    vertices, edges = ("v", "w", "v"), (Edge("a", "w", "v", 1), Edge("b", "v", "v", 1))
    built = FiniteQuiver(vertices, edges).index
    handed = FiniteQuiver._indexed(vertices, edges, built.src, built.rng, built.weight,
                                   built.classes).index
    for ix in (built, handed):
        assert ix.pos == {"v": 2, "w": 1}
        assert ix.out == ((), (0,), (1,))


def test_only_the_quiver_module_assembles_an_index_view():
    src = Path(quiverskew.__file__).parent
    callers = {path.name for path in src.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call)
               and "_Index" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))}
    assert callers == {"quiver.py"}


def test_a_repeated_edge_id_names_its_first_edge():
    q = mk(["v"], [("e", "v", "v", 1), ("e", "v", "v", 2)])
    assert q.edge("e") is q.edges[0]
    assert q.has_edge("e") and not q.has_edge("f")


def test_a_quiver_that_fails_validation_can_be_read_and_written():
    q = mk(["v", "v"], [("e", "v", "x", 1), ("e", "y", "v", 2)])
    assert validate_quiver(q) == [
        "duplicate vertex id: 'v'", "dangling endpoint: edge 'e' has rng 'x'",
        "duplicate edge id: 'e'", "dangling endpoint: edge 'e' has src 'y'"]
    assert q.edge("e") is q.edges[0] and q.has_edge("e")
    assert qio.emit_quiver_document(q)["edges"][1] == {"id": "e", "src": "y", "rng": "v",
                                                      "weight": "2"}
    assert '"y" -> "v" [label="e:2"];' in qio.export_dot(q)


class TestCheckMorphism:
    def test_identity(self):
        q = mk(["v", "w"], [("e", "v", "w", 1)])
        m = QuiverMorphism({"v": "v", "w": "w"}, {"e": "e"})
        assert check_morphism(q, q, m)

    def test_swap_breaks_commuting(self):
        q = mk(["v", "w"], [("e", "v", "w", 1)])
        m = QuiverMorphism({"v": "w", "w": "v"}, {"e": "e"})
        assert not check_morphism(q, q, m)

    def test_range_mismatch(self):
        q = mk(["v", "w"], [("e", "v", "w", 1), ("l", "v", "v", 1)])
        m = QuiverMorphism({"v": "v", "w": "w"}, {"e": "l", "l": "l"})
        assert check_morphism(q, q, m) is False

    def test_collapse_two_cycle_to_loop(self):
        two = mk(["v", "w"], [("a", "v", "w", 1), ("b", "w", "v", 1)])
        loop = mk(["u"], [("l", "u", "u", 1)])
        m = QuiverMorphism({"v": "u", "w": "u"}, {"a": "l", "b": "l"})
        assert check_morphism(two, loop, m)

    def test_unknown_id_raises(self):
        q = mk(["v"], [("e", "v", "v", 1)])
        with pytest.raises(QuiverError):
            check_morphism(q, q, QuiverMorphism({"v": "v"}, {}))

    @pytest.mark.parametrize("vmap, emap, message", [
        ({}, {"e": "e"}, "morphism undefined on vertex 'v'"),
        ({"v": "u"}, {"e": "e"}, "morphism maps vertex 'v' outside target"),
        ({"v": "v"}, {}, "morphism undefined on edge 'e'"),
        ({"v": "v"}, {"e": "f"}, "morphism maps edge 'e' outside target"),
    ], ids=["vertex-undefined", "vertex-outside", "edge-undefined", "edge-outside"])
    def test_error_names_the_kind_and_item(self, vmap, emap, message):
        q = mk(["v"], [("e", "v", "v", 1)])
        with pytest.raises(QuiverError) as info:
            check_morphism(q, q, QuiverMorphism(vmap, emap))
        assert str(info.value) == message


class TestCheckIso:
    TWO_LOOPS = mk(["v", "w"], [("a", "v", "v", 1), ("b", "w", "w", 1)])

    def test_swap_is_an_iso(self):
        q = self.TWO_LOOPS
        swap = QuiverMorphism({"v": "w", "w": "v"}, {"a": "b", "b": "a"})
        assert check_iso(q, q, QuiverIso(swap))

    @pytest.mark.parametrize("vmap, emap", [
        ({"v": "v", "w": "v"}, {"a": "a", "b": "a"}),  # not injective
        ({"v": "v", "w": "w"}, {"a": "a", "b": "a"}),  # not injective on edges
        ({"v": "v"}, {"a": "a"}),  # partial
        ({"v": "v", "w": "w", "x": "x"}, {"a": "a", "b": "b"}),  # off the domain
        ({"v": "v", "w": "x"}, {"a": "a", "b": "b"}),  # outside the target
    ], ids=["vertices-not-injective", "edges-not-injective", "partial",
            "extra-vertex", "outside-target"])
    def test_not_a_bijection_is_false(self, vmap, emap):
        q = self.TWO_LOOPS
        assert check_iso(q, q, QuiverIso(QuiverMorphism(vmap, emap))) is False

    def test_not_surjective_is_false(self):
        a = mk(["v"], [("e", "v", "v", 1)])
        b = mk(["v", "w"], [("e", "v", "v", 1)])
        assert check_iso(a, b, QuiverIso(QuiverMorphism({"v": "v"}, {"e": "e"}))) is False

    IDENTITY = QuiverIso(QuiverMorphism({"v": "v", "w": "w"}, {"e": "e"}))

    def test_weight_mismatch_is_false(self):
        a = mk(["v", "w"], [("e", "v", "w", 1)])
        b = mk(["v", "w"], [("e", "v", "w", 2)])
        assert check_iso(a, b, self.IDENTITY) is False

    def test_endpoint_mismatch_is_false(self):
        a = mk(["v", "w"], [("e", "v", "w", 1)])
        b = mk(["v", "w"], [("e", "w", "v", 1)])
        assert check_iso(a, b, self.IDENTITY) is False

    def test_equal_weights_in_distinct_objects(self):
        # Tuple equality tries identity first: equal values must still match.
        a = mk(["v", "w"], [("e", "v", "w", Fraction(2, 4))])
        b = mk(["v", "w"], [("e", "v", "w", Fraction(1, 2))])
        assert a.edges[0].weight is not b.edges[0].weight
        assert check_iso(a, b, self.IDENTITY) is True


def ref_check_iso(a, b, iso):
    """Reference for ``check_iso``: two bijection tests, then
    ``check_morphism``, then a pass over the edge weights."""
    f = iso.forward
    return (
        _bijection(f.vmap, set(a.vertices), set(b.vertices))
        and _bijection(f.emap, {e.id for e in a.edges}, {e.id for e in b.edges})
        and check_morphism(a, b, f)
        and all(b.edge(f.emap[e.id]).weight == e.weight for e in a.edges)
    )


BREAKS = ["none", "weight", "endpoints", "vertex-images", "edge-images",
          "missing-vertex", "not-injective", "extra-vertex"]


def broken_relabelling(a, rng, kind):
    """A relabelled, shuffled copy b of a and the map a -> b, with b or the
    map broken as ``kind`` says (where a is big enough for it)."""
    b, vmap, emap = relabelling(a, rng)
    vs, es = list(b.vertices), list(b.edges)
    if kind in ("weight", "endpoints") and es:
        i = rng.randrange(len(es))
        e = es[i]
        es[i] = (Edge(e.id, e.src, e.rng, e.weight + 1) if kind == "weight"
                 else Edge(e.id, e.rng, e.src, e.weight))
    elif kind in ("vertex-images", "edge-images"):
        m = vmap if kind == "vertex-images" else emap
        if len(m) > 1:
            x, y = rng.sample(sorted(m), 2)
            m[x], m[y] = m[y], m[x]
    elif kind == "not-injective":
        m = rng.choice([vmap, emap])
        if len(m) > 1:
            x, y = rng.sample(sorted(m), 2)
            m[x] = m[y]
    elif kind == "missing-vertex":
        del vmap[rng.choice(a.vertices)]
    elif kind == "extra-vertex":
        vs.append("extra")
    return FiniteQuiver(vs, es), QuiverIso(QuiverMorphism(vmap, emap))


def test_check_iso_agrees_with_reference_on_random_draws():
    rng = random.Random("check_iso")
    outcomes = Counter()
    for _ in range(2400):
        vs = [f"v{i}" for i in range(rng.randint(1, 5))]
        a = mk(vs, [(f"e{i}", rng.choice(vs), rng.choice(vs), rng.choice((1, "1/2")))
                    for i in range(rng.randint(0, 8))])
        kind = rng.choice(BREAKS)
        b, iso = broken_relabelling(a, rng, kind)
        got = check_iso(a, b, iso)
        assert got is ref_check_iso(a, b, iso), (kind, a.edges, b.edges, iso)
        outcomes[got] += 1
    assert outcomes[True] and outcomes[False], outcomes


class TestIsoSearch:
    def test_identity_loop(self):
        q = mk(["v"], [("e", "v", "v", 1)])
        iso = iso_search(q, q)
        assert iso is not None
        assert iso.forward.vmap == {"v": "v"}

    def test_two_cycle_weight_rotation(self):
        a = mk(["v", "w"], [("a", "v", "w", 1), ("b", "w", "v", "1/2")])
        b = mk(["x", "y"], [("c", "x", "y", "1/2"), ("d", "y", "x", 1)])
        # Oracle: exhaustive over the 2 vertex bijections.
        assert brute_iso_exists(a, b)
        iso = iso_search(a, b)
        assert iso is not None
        assert check_iso(a, b, iso)
        assert iso.forward.vmap == {"v": "y", "w": "x"}

    def test_two_cycle_vs_disjoint_loops(self):
        a = mk(["v", "w"], [("a", "v", "w", 1), ("b", "w", "v", 1)])
        b = mk(["x", "y"], [("c", "x", "x", 1), ("d", "y", "y", 1)])
        assert not brute_iso_exists(a, b)
        assert iso_search(a, b) is None

    def test_weight_mismatch(self):
        a = mk(["v"], [("e", "v", "v", 1)])
        b = mk(["v"], [("e", "v", "v", 2)])
        assert iso_search(a, b) is None

    @pytest.mark.parametrize("b_weights", [(1, 3), (2, 2), (1, 1)])
    def test_only_the_weights_differ(self, b_weights):
        a = mk(["v", "w"], [("a", "v", "w", 1), ("b", "w", "v", 2)])
        b = mk(["v", "w"], [("a", "v", "w", b_weights[0]), ("b", "w", "v", b_weights[1])])
        assert not brute_iso_exists(a, b)
        assert iso_search(a, b) is None
        assert iso_search(b, a) is None

    def test_parallel_edges(self):
        a = mk(["v", "w"], [("a", "v", "w", 1), ("b", "v", "w", "2/3")])
        b = mk(["p", "q"], [("c", "p", "q", "2/3"), ("d", "p", "q", 1)])
        iso = iso_search(a, b)
        assert iso is not None
        assert check_iso(a, b, iso)

    def test_budget_exceeded(self):
        n = 8
        verts = [f"v{i}" for i in range(n)]
        a = mk(verts, [])
        with pytest.raises(IsoBudgetExceeded, match="used 4 nodes") as err:
            iso_search(a, a, budget=3)
        assert err.value.nodes > 3

    def test_relabelled_s5_skew_product(self):
        # S5 skew product of B(20, 40, 5): 2400 vertices, 4800 edges, whose
        # fibres all look alike to degree and weight.
        q, rng = random_base(20, 40, 5)
        s = skew_product(q, random_cocycle(rng, q, make_symmetric(5)))
        h = relabelled(s, random.Random(0))
        with deadline(2):
            iso = iso_search(h, s)
        assert iso is not None and check_iso(h, s, iso)

    def test_relabelled_z6_skew_products_of_small_bases(self):
        # 360 draws of a Z/6 skew product of B(6, 12, seed): 36 vertices.
        for seed in range(360):
            q, rng = random_base(6, 12, seed)
            s = skew_product(q, random_cocycle(rng, q, make_cyclic(6)))
            h = relabelled(s, rng)
            iso = iso_search(h, s)
            assert iso is not None and check_iso(h, s, iso), seed

    def test_relabelled_long_path(self):
        vs = [f"p{i}" for i in range(3000)]
        path = FiniteQuiver(vs, [Edge(f"e{i}", vs[i], vs[i + 1], 1) for i in range(2999)])
        h = relabelled(path, random.Random(1))
        with deadline(1):
            iso = iso_search(h, path)
        assert iso is not None and check_iso(h, path, iso)

    @pytest.mark.parametrize("a, b", [
        # Directed C6 against two directed C3s: every vertex has one edge in
        # and one out.
        (mk(range(6), [(f"e{i}", i, (i + 1) % 6, 1) for i in range(6)]),
         mk(range(6), [(f"e{i}", i, 3 * (i // 3) + (i + 1) % 3, 1) for i in range(6)])),
        # Two parallel edges i -> i+1 and two i -> i+2 on Z/5: weights {1, 2}
        # on each pair, against {1, 1} on the first and {2, 2} on the second.
        (mk(range(5), [(f"e{i}{j}{k}", i, (i + j) % 5, k) for i in range(5)
                       for j in (1, 2) for k in (1, 2)]),
         mk(range(5), [(f"e{i}{j}{k}", i, (i + j) % 5, j) for i in range(5)
                       for j in (1, 2) for k in (1, 2)])),
    ], ids=["c6-vs-two-c3", "parallel-edge-weights"])
    def test_pairs_colour_refinement_cannot_tell_apart(self, a, b):
        assert not brute_iso_exists(a, b)
        assert iso_search(a, b) is None
        for q in (a, b):
            iso = iso_search(q, q)
            assert iso is not None and check_iso(q, q, iso)

    def test_answer_after_backtracking_past_a_dead_branch(self):
        # a = P + Q and b = Q + P, renamed, with P and Q the "parallel-edge-weights"
        # pair above.  The search first maps P's vertex 0 into Q's copy, which
        # refinement rules out before any leaf, and finds the answer only once
        # it has backtracked to P's copy.
        def parallel(name, weight, offset):
            return [(f"{name}{offset + i}{j}{k}", f"{name}{offset + i}",
                     f"{name}{offset + (i + j) % 5}", weight(j, k))
                    for i in range(5) for j in (1, 2) for k in (1, 2)]

        p, q = (lambda j, k: k), (lambda j, k: j)
        a = mk([f"v{i}" for i in range(10)], parallel("v", p, 0) + parallel("v", q, 5))
        b = mk([f"w{i}" for i in range(10)], parallel("w", q, 0) + parallel("w", p, 5))
        iso = iso_search(a, b)
        assert iso is not None and check_iso(a, b, iso)

    def test_cycles_with_different_component_shapes(self):
        # Five directed 6-cycles against four and two 3-cycles: every vertex
        # has one edge in and one out, so only the components differ.
        def cycles(lengths):
            return mk(range(sum(lengths)), [
                (f"e{start + i}", start + i, start + (i + 1) % n, 1)
                for start, n in zip(itertools.accumulate([0] + lengths), lengths)
                for i in range(n)
            ])

        with deadline(1):
            assert iso_search(cycles([6] * 5), cycles([6] * 4 + [3, 3])) is None

    def test_agrees_with_brute_force_on_small_quivers(self):
        rng = random.Random(7)
        for _ in range(60):
            nv = rng.randint(1, 3)
            vs = [f"v{i}" for i in range(nv)]

            def rand_q(tag):
                ne = rng.randint(0, 4)
                return mk(
                    vs,
                    [
                        (f"{tag}{i}", rng.choice(vs), rng.choice(vs), rng.randint(1, 2))
                        for i in range(ne)
                    ],
                )

            a, b = rand_q("a"), rand_q("b")
            found = iso_search(a, b)
            assert (found is not None) == brute_iso_exists(a, b)
            if found is not None:
                assert check_iso(a, b, found)

    def test_agrees_with_brute_force_with_parallel_edges(self):
        # 4-5 vertices, 6-10 edges of weight 1 or 2; b is a relabelled a, in
        # half the draws with one edge's weight changed or moved.
        rng = random.Random(11)
        agreed = {True: 0, False: 0}
        for _ in range(200):
            vs = list(range(rng.randint(4, 5)))
            edges = [(f"e{i}", rng.choice(vs), rng.choice(vs), rng.randint(1, 2))
                     for i in range(rng.randint(6, 10))]
            a = mk(vs, edges)
            if rng.random() < 0.5:
                i = rng.randrange(len(edges))
                eid, src, dst, w = edges[i]
                edges[i] = (eid, src, rng.choice(vs), 3 - w) if rng.random() < 0.5 else \
                    (eid, src, rng.choice(vs), w)
            b = relabelled(mk(vs, edges), rng)
            found = iso_search(a, b)
            expected = brute_iso_exists(a, b)
            assert (found is not None) == expected
            assert found is None or check_iso(a, b, found)
            agreed[expected] += 1
        assert min(agreed.values()) > 20
