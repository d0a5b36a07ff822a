import random
import time
from fractions import Fraction

import pytest

from quiverskew import (
    Cocycle,
    Edge,
    FiniteQuiver,
    QuiverAction,
    QuiverIso,
    QuiverMorphism,
    Section,
    check_iso,
    default_section,
    gross_tucker_reconstruct,
    is_free,
    k_theory,
    iso_search,
    lift_system,
    make_cyclic,
    make_symmetric,
    quotient_quiver,
    skew_edge_id,
    skew_product,
    skew_vertex_id,
    translation_action,
    validate_action,
    validate_quiver,
)
from quiverskew import io as qio
from quiverskew.randgen import random_cocycle, random_quiver, random_weight
from quiverskew.group import _facts
from quiverskew.skew import SkewError, _first_factor_iso

from conftest import (check_morphism, check_skew_orbit, count_facts, mk, trivial_action,
                      witness_iso)


def loop_quiver():
    return mk(["v"], [("e", "v", "v", 1)])


def two_loop_quiver():
    return mk(["v"], [("e1", "v", "v", 1), ("e2", "v", "v", "1/3")])


class TestSkewProduct:
    def test_trivial_group_gives_isomorphic_copy(self):
        q = loop_quiver()
        skew = skew_product(q, Cocycle(make_cyclic(1), {"e": "0"}))
        assert iso_search(skew, q) is not None

    def test_z2_loop_becomes_two_cycle(self):
        q = loop_quiver()
        skew = skew_product(q, Cocycle(make_cyclic(2), {"e": "1"}))
        assert skew.vertices == ("v@0", "v@1")
        by_id = {e.id: (e.src, e.rng) for e in skew.edges}
        assert by_id == {"e@0": ("v@0", "v@1"), "e@1": ("v@1", "v@0")}

    def test_z3_two_loops_endpoints_and_weights(self):
        q = two_loop_quiver()
        g = make_cyclic(3)
        skew = skew_product(q, Cocycle(g, {"e1": "1", "e2": "2"}))
        assert len(skew.vertices) == 3
        assert len(skew.edges) == 6
        expected = {
            "e1@0": ("v@0", "v@1"),
            "e1@1": ("v@1", "v@2"),
            "e1@2": ("v@2", "v@0"),
            "e2@0": ("v@0", "v@2"),
            "e2@1": ("v@1", "v@0"),
            "e2@2": ("v@2", "v@1"),
        }
        assert {e.id: (e.src, e.rng) for e in skew.edges} == expected
        for e in skew.edges:
            base = "e1" if e.id.startswith("e1") else "e2"
            assert e.weight == q.edge(base).weight

    def test_missing_cocycle_value(self):
        with pytest.raises(SkewError):
            skew_product(loop_quiver(), Cocycle(make_cyclic(2), {}))

    def test_cocycle_value_that_is_not_an_element(self):
        with pytest.raises(SkewError) as info:
            skew_product(loop_quiver(), Cocycle(make_cyclic(2), {"e": "7"}))
        assert str(info.value) == "cocycle value for edge 'e' is not a group element"

    def test_edgeless_quiver(self):
        q = mk(["v", "w"], [])
        g = make_cyclic(3)
        skew = skew_product(q, Cocycle(g, {}))
        assert len(skew.vertices) == 6
        assert skew.edges == ()
        check_skew_orbit(q, Cocycle(g, {}))

    def test_counting_and_fiber_weights(self):
        q = mk(
            ["v", "w"],
            [("a", "v", "w", "2/7"), ("b", "v", "v", 3), ("c", "w", "v", 1)],
        )
        g = make_symmetric(3)
        kappa = Cocycle(g, {"a": "231", "b": "132", "c": "123"})
        skew = skew_product(q, kappa)
        assert len(skew.vertices) == len(q.vertices) * g.order
        assert len(skew.edges) == len(q.edges) * g.order
        for v in q.vertices:
            base = sorted(e.weight for e in q.out_edges(v))
            for h in g.elements:
                lifted = sorted(
                    e.weight for e in skew.out_edges(skew_vertex_id(v, h))
                )
                assert lifted == base


class TestTranslationAction:
    def test_valid_and_free(self):
        q = two_loop_quiver()
        g = make_cyclic(3)
        kappa = Cocycle(g, {"e1": "1", "e2": "2"})
        skew = skew_product(q, kappa)
        act = translation_action(q, kappa)
        assert validate_action(skew, act) == []
        assert is_free(skew, act)

    def test_z2_translation_is_the_swap(self):
        q = loop_quiver()
        kappa = Cocycle(make_cyclic(2), {"e": "1"})
        act = translation_action(q, kappa)
        assert act.vperm["1"] == {"v@0": "v@1", "v@1": "v@0"}
        assert act.eperm["1"] == {"e@0": "e@1", "e@1": "e@0"}
        # Its tables are not copied, but still read-only.
        with pytest.raises(TypeError):
            act.vperm["1"]["v@0"] = "v@0"
        with pytest.raises(TypeError):
            act.eperm["1"] = {}

    def test_weight_equivariance_exact(self):
        q = two_loop_quiver()
        g = make_cyclic(3)
        kappa = Cocycle(g, {"e1": "1", "e2": "0"})
        skew = skew_product(q, kappa)
        act = translation_action(q, kappa)
        for e in skew.edges:
            for h in g.elements:
                assert skew.edge(act.eperm[h][e.id]).weight == e.weight


def swap_loops_action(w1=1, w2=1):
    q = mk(["v", "w"], [("a", "v", "v", w1), ("b", "w", "w", w2)])
    g = make_cyclic(2)
    a = QuiverAction(
        g,
        {"0": {"v": "v", "w": "w"}, "1": {"v": "w", "w": "v"}},
        {"0": {"a": "a", "b": "b"}, "1": {"a": "b", "b": "a"}},
    )
    return q, a


class TestQuotient:
    def test_trivial_action_quotient_is_identity(self):
        q = mk(["v", "w"], [("e", "v", "w", "4/9")])
        quot, proj = quotient_quiver(q, trivial_action(q, make_cyclic(1)))
        assert quot == q
        assert proj.vmap == {"v": "v", "w": "w"}

    def test_swap_of_equal_loops(self):
        q, a = swap_loops_action("5/7", "5/7")
        quot, proj = quotient_quiver(q, a)
        assert quot.vertices == ("v",)
        assert len(quot.edges) == 1
        assert quot.edges[0].weight == Fraction(5, 7)
        assert check_morphism(q, quot, proj)

    def test_rejects_non_free(self):
        q = mk(["v"], [])
        with pytest.raises(SkewError):
            quotient_quiver(q, trivial_action(q, make_cyclic(2)))


class TestLift:
    def test_trivial_action_lift_unchanged(self):
        q = mk(["v"], [("e", "v", "v", "2/3")])
        a = trivial_action(q, make_cyclic(1))
        quot, proj = quotient_quiver(q, a)
        lifted = lift_system(quot, q, a, proj.emap)
        assert lifted == {"e": Fraction(2, 3)}

    def test_constant_on_swap_orbit(self):
        q, a = swap_loops_action("5/7", "5/7")
        quot, proj = quotient_quiver(q, a)
        lifted = lift_system(quot, q, a, proj.emap)
        assert lifted == {"a": Fraction(5, 7), "b": Fraction(5, 7)}

    def test_descend_lift_roundtrip_z3(self):
        q = two_loop_quiver()
        g = make_cyclic(3)
        kappa = Cocycle(g, {"e1": "1", "e2": "2"})
        skew = skew_product(q, kappa)
        act = translation_action(q, kappa)
        quot, proj = quotient_quiver(skew, act)
        lifted = lift_system(quot, skew, act, proj.emap)
        assert lifted == {e.id: e.weight for e in skew.edges}
        quot2, _ = quotient_quiver(skew.with_weights(lifted), act)
        assert quot2 == quot

    def test_orbit_mismatch(self):
        q, a = swap_loops_action()
        quot, proj = quotient_quiver(q, a)
        bad_map = dict(proj.emap)
        bad_map["b"] = "missing"
        with pytest.raises(SkewError):
            lift_system(quot, q, a, bad_map)

    def test_edge_missing_from_the_orbit_map(self):
        q = loop_quiver()
        kappa = Cocycle(make_cyclic(2), {"e": "1"})
        skew, act = skew_product(q, kappa), translation_action(q, kappa)
        quot, proj = quotient_quiver(skew, act)
        del proj.emap["e@1"]
        with pytest.raises(SkewError, match="^orbit mismatch: edge 'e@1' has no quotient edge$"):
            lift_system(quot, skew, act, proj.emap)

    def test_rejects_non_free(self):
        q = loop_quiver()
        with pytest.raises(SkewError) as info:
            lift_system(q, q, trivial_action(q, make_cyclic(2)), {"e": "e"})
        assert str(info.value) == "lift requires a free action"

    def test_rejects_an_action_that_breaks_the_group_laws(self):
        # Both non-identity elements of Z/3 rotate a -> b -> c: no fixed points,
        # but not a homomorphism.  lift_system passes the gate quotient_quiver does.
        q = mk(["a", "b", "c"], [(f"e{x}", x, x, 1) for x in "abc"])
        rot = {"a": "b", "b": "c", "c": "a"}
        erot = {f"e{x}": f"e{y}" for x, y in rot.items()}
        act = QuiverAction(make_cyclic(3), {"0": {x: x for x in "abc"}, "1": rot, "2": rot},
                           {"0": {e: e for e in erot}, "1": erot, "2": erot})
        quot = mk(["a"], [("ea", "a", "a", 1)])
        message = "invalid action: vertex homomorphism law fails at ('1','1')"
        for call in (lambda: quotient_quiver(q, act),
                     lambda: lift_system(quot, q, act, dict.fromkeys(erot, "ea"))):
            with pytest.raises(SkewError) as info:
                call()
            assert str(info.value) == message

    def test_orbit_mapped_to_an_unknown_quotient_edge(self):
        q, a = swap_loops_action()
        quot, _ = quotient_quiver(q, a)
        with pytest.raises(SkewError) as info:
            lift_system(quot, q, a, {"a": "zz", "b": "zz"})
        assert str(info.value) == "orbit mismatch: unknown quotient edge 'zz'"

    def test_quotient_edge_not_covered(self):
        q, a = swap_loops_action()
        quot, proj = quotient_quiver(q, a)
        bigger = FiniteQuiver(quot.vertices, [*quot.edges, Edge("extra", "v", "v", 1)])
        with pytest.raises(SkewError) as info:
            lift_system(bigger, q, a, proj.emap)
        assert str(info.value) == "orbit mismatch: quotient edges not covered by the orbit map"

    def test_table_that_is_not_a_permutation(self):
        q, a = swap_loops_action()
        quot, proj = quotient_quiver(q, a)
        broken = QuiverAction(a.group, {"0": a.vperm["0"], "1": {"v": "w"}}, a.eperm)
        err = ("^invalid action: vertex permutation for '1' is not a permutation"
               " of the vertices$")
        with pytest.raises(SkewError, match=err):
            lift_system(quot, q, broken, proj.emap)

    def test_orbit_mapped_to_unorderable_images(self):
        q = loop_quiver()
        kappa = Cocycle(make_cyclic(2), {"e": "1"})
        skew, act = skew_product(q, kappa), translation_action(q, kappa)
        quot, proj = quotient_quiver(skew, act)
        proj.emap["e@1"] = None
        err = r"^orbit mismatch: orbit of 'e@0' maps to \['e@0', None\]$"
        with pytest.raises(SkewError, match=err):
            lift_system(quot, skew, act, proj.emap)

    def test_a_key_that_names_no_edge_is_refused(self):
        q = loop_quiver()
        kappa = Cocycle(make_cyclic(2), {"e": "1"})
        skew, act = skew_product(q, kappa), translation_action(q, kappa)
        quot, proj = quotient_quiver(skew, act)
        with pytest.raises(SkewError) as info:
            lift_system(quot, skew, act, {**proj.emap, "zzz": "nope", "yyy": "e@0"})
        assert str(info.value) == "orbit mismatch: 'zzz' is not an edge"


class TestGrossTucker:
    def test_identity_section_recovers_cocycle(self):
        q = two_loop_quiver()
        g = make_cyclic(3)
        kappa = Cocycle(g, {"e1": "1", "e2": "2"})
        skew = skew_product(q, kappa)
        act = translation_action(q, kappa)
        # section picking group-coordinate identity in each orbit
        section = Section({"v@0": skew_vertex_id("v", g.identity)})
        witness = gross_tucker_reconstruct(skew, act, section)
        recovered = {
            eid.rsplit("@", 1)[0]: val for eid, val in witness.cocycle.map.items()
        }
        assert recovered == kappa.map

    def test_other_section_still_verifies(self):
        q = two_loop_quiver()
        g = make_cyclic(3)
        kappa = Cocycle(g, {"e1": "1", "e2": "2"})
        skew = skew_product(q, kappa)
        act = translation_action(q, kappa)
        section = Section({"v@0": "v@2"})
        witness = gross_tucker_reconstruct(skew, act, section)
        # The cocycle may differ but the witness skew product is isomorphic
        # to the original one.
        target = skew_product(witness.quotient, witness.cocycle)
        assert check_iso(skew, target, witness_iso(witness))
        assert iso_search(target, skew) is not None

    def test_trivial_group(self):
        q = loop_quiver()
        a = trivial_action(q, make_cyclic(1))
        witness = gross_tucker_reconstruct(q, a)
        assert witness.cocycle.map == {"e": "0"}
        assert witness.phi == {"v": ("v", "0")}

    def test_hand_built_free_action(self):
        # Z/2 swap of a 2-cycle, not constructed via skew_product.
        q = mk(["v", "w"], [("a", "v", "w", 1), ("b", "w", "v", 1)])
        g = make_cyclic(2)
        a = QuiverAction(
            g,
            {"0": {"v": "v", "w": "w"}, "1": {"v": "w", "w": "v"}},
            {"0": {"a": "a", "b": "b"}, "1": {"a": "b", "b": "a"}},
        )
        witness = gross_tucker_reconstruct(q, a, default_section(q, a))
        target = skew_product(witness.quotient, witness.cocycle)
        assert check_iso(q, target, witness_iso(witness))

    def test_rejects_non_free(self):
        q = mk(["v"], [])
        with pytest.raises(SkewError):
            gross_tucker_reconstruct(q, trivial_action(q, make_cyclic(2)))

    def test_rejects_bad_section(self):
        q, a = swap_loops_action()
        with pytest.raises(SkewError) as info:
            gross_tucker_reconstruct(q, a, Section({"v": "nope"}))
        assert str(info.value) == "section point 'nope' is not in orbit 'v'"

    def test_rejects_section_on_other_orbits(self):
        q, a = swap_loops_action()
        with pytest.raises(SkewError) as info:
            gross_tucker_reconstruct(q, a, Section({"w": "w"}))
        assert str(info.value) == "section does not cover exactly the vertex orbits"

    def test_law_check_and_orbits_run_once_per_action(self, monkeypatch):
        built = count_facts(monkeypatch)
        q = two_loop_quiver()
        kappa = Cocycle(make_symmetric(3), {"e1": "213", "e2": "231"})
        skew = skew_product(q, kappa)
        act = translation_action(q, kappa)
        assert validate_action(skew, act) == []
        quot, proj = quotient_quiver(skew, act)
        gross_tucker_reconstruct(skew, act, default_section(skew, act))
        lift_system(quot, skew, act, proj.emap)
        # One validation and one quotient for the one (action, quiver) pair.
        assert [(f.quiver, f.report, f.quotient) for f in built] == [(skew, [], quot)]

    def test_mutating_a_returned_projection_reaches_nothing(self):
        q = two_loop_quiver()
        kappa = Cocycle(make_symmetric(3), {"e1": "213", "e2": "231"})
        skew = skew_product(q, kappa)
        act = translation_action(q, kappa)
        _, proj = quotient_quiver(skew, act)
        expected = dict(proj.vmap), dict(proj.emap)
        for v in proj.vmap:
            proj.vmap[v] = "nope"
        proj.emap.clear()
        _, again = quotient_quiver(skew, act)
        assert (again.vmap, again.emap) == expected
        witness = gross_tucker_reconstruct(skew, act)
        assert {v: o for v, (o, _) in witness.phi.items()} == expected[0]
        assert {e: o for e, (o, _) in witness.sigma.items()} == expected[1]

    def test_s5_translation_action_validates_and_reconstructs_quickly(self):
        # 720 vertices, 1440 edges: checking the action law on all |G|^2
        # pairs takes seconds; on a generating set, well under one.
        rng = random.Random(5)
        vertices = [f"v{i}" for i in range(6)]
        q = FiniteQuiver(vertices, [
            Edge(f"e{i}", rng.choice(vertices), rng.choice(vertices), random_weight(rng))
            for i in range(12)
        ])
        kappa = random_cocycle(rng, q, make_symmetric(5))
        skew = skew_product(q, kappa)
        act = translation_action(q, kappa)
        start = time.perf_counter()
        assert validate_action(skew, act) == []
        assert time.perf_counter() - start < 3
        witness = gross_tucker_reconstruct(skew, act)
        target = skew_product(witness.quotient, witness.cocycle)
        assert check_iso(skew, target, witness_iso(witness))


class TestCheckSkewOrbit:
    def test_trivial(self):
        check_skew_orbit(loop_quiver(), Cocycle(make_cyclic(1), {"e": "0"}))

    def test_z2_loop(self):
        q = loop_quiver()
        iso = check_skew_orbit(q, Cocycle(make_cyclic(2), {"e": "1"}))
        assert iso.forward.emap == {"e@0": "e"}

    def test_z3_two_loops_weights_preserved(self):
        q = two_loop_quiver()
        g = make_cyclic(3)
        iso = check_skew_orbit(q, Cocycle(g, {"e1": "1", "e2": "2"}))
        assert set(iso.forward.emap.values()) == {"e1", "e2"}

    def test_nonabelian_group(self):
        q = mk(["v", "w"], [("a", "v", "w", "2/7"), ("b", "w", "v", 1)])
        g = make_symmetric(3)
        check_skew_orbit(q, Cocycle(g, {"a": "231", "b": "321"}))

    def test_map_that_check_iso_rejects_raises(self, monkeypatch):
        monkeypatch.setattr("quiverskew.quiver.check_iso", lambda a, b, iso: False)
        with pytest.raises(AssertionError) as info:
            check_skew_orbit(loop_quiver(), Cocycle(make_cyclic(2), {"e": "1"}))
        assert str(info.value) == "canonical skew-orbit isomorphism failed to verify"


# The string-formatting builders that ``skew._copies`` replaced, kept as
# references: each names every copy (x, h) afresh with the pair-id formatters.
def ref_pair_ids(q):
    return (skew_vertex_id, q.vertices), (skew_edge_id, [e.id for e in q.edges])


def ref_skew_product(q, kappa):
    G = kappa.group
    elements = set(G.elements)
    for e in q.edges:
        if kappa.value(e.id) not in elements:
            raise SkewError(f"cocycle value for edge {e.id!r} is not a group element")
    vertices = [skew_vertex_id(v, g) for v in q.vertices for g in G.elements]
    edges = []
    for e in q.edges:
        k = kappa.value(e.id)
        for g in G.elements:
            edges.append(Edge(
                skew_edge_id(e.id, g),
                skew_vertex_id(e.src, g),
                skew_vertex_id(e.rng, G.mul(k, g)),
                e.weight,
            ))
    return FiniteQuiver(vertices, edges)


def ref_translation_action(q, kappa):
    G = kappa.group
    vperm, eperm = (
        {g: {pair(x, h): pair(x, G.mul(h, g)) for x in items for h in G.elements}
         for g in G.elements}
        for pair, items in ref_pair_ids(q)
    )
    return QuiverAction(G, vperm, eperm)


def ref_first_factor_iso(q, G, quot):
    maps = []
    for (pair, items), reps in zip(ref_pair_ids(q), (quot.vertices, [e.id for e in quot.edges])):
        first = {pair(x, g): x for x in items for g in G.elements}
        maps.append({o: first[o] for o in reps})
    return QuiverIso(QuiverMorphism(*maps))


def reversed_s3():
    """S3 as a ``table`` document whose elements are listed with the identity last."""
    S3 = make_symmetric(3)
    els = S3.elements[::-1]
    name = {g: f"t{i}" for i, g in enumerate(els)}
    G = qio.parse_group_document({
        "kind": "table", "elements": [name[g] for g in els], "identity": name[S3.identity],
        "table": [[name[S3.mul(g, h)] for h in els] for g in els]})
    assert G.elements[0] != G.identity == G.elements[-1]
    return G


COPY_GROUPS = {"Z1": make_cyclic(1), "Z2": make_cyclic(2), "Z6": make_cyclic(6),
               "S3": make_symmetric(3), "S3-table": reversed_s3()}
COPY_DEGENERATE = {
    "empty": mk([], []),
    "edgeless": mk(["u", "v", "w"], []),
    "vertex": mk(["v"], []),
    "loop": mk(["v"], [("e", "v", "v", "2/3")]),
}


def assert_copies_match_reference(q, kappa):
    """Skew product, translation action, first-factor map and witness ids
    equal the references': ids, order, endpoints, weights and every table."""
    G = kappa.group
    skew, ref = skew_product(q, kappa), ref_skew_product(q, kappa)
    assert skew.vertices == ref.vertices
    assert [(e.id, e.src, e.rng, e.weight) for e in skew.edges] == [
        (e.id, e.src, e.rng, e.weight) for e in ref.edges]
    act, ref_act = translation_action(q, kappa), ref_translation_action(q, kappa)
    for new, old in ((act.vperm, ref_act.vperm), (act.eperm, ref_act.eperm)):
        assert list(new) == list(old) == list(G.elements)
        for g in G.elements:
            assert list(new[g].items()) == list(old[g].items())
    quot, _ = quotient_quiver(skew, act)
    got, want = (_first_factor_iso(q, G, skew, quot).forward,
                 ref_first_factor_iso(q, G, quot).forward)
    assert list(got.vmap.items()) == list(want.vmap.items())
    assert list(got.emap.items()) == list(want.emap.items())
    # The Gross-Tucker witness names the copies of its quotient's skew product.
    witness = gross_tucker_reconstruct(skew, act)
    assert check_iso(skew, skew_product(witness.quotient, witness.cocycle), witness_iso(witness))


@pytest.mark.parametrize("group", COPY_GROUPS)
@pytest.mark.parametrize("name", COPY_DEGENERATE)
def test_degenerate_copies_match_reference(name, group):
    q, G = COPY_DEGENERATE[name], COPY_GROUPS[group]
    assert_copies_match_reference(q, random_cocycle(random.Random(name), q, G))


def test_copies_match_reference_on_random_draws():
    rng = random.Random("copies")
    groups = list(COPY_GROUPS.values())
    for _ in range(240):
        q = random_quiver(rng, 5, 8)
        assert_copies_match_reference(q, random_cocycle(rng, q, rng.choice(groups)))


def at_table_group(elements):
    """Z/2 as a ``table`` document on the element ids ``elements``, identity first."""
    e, g = elements
    return qio.parse_group_document({"kind": "table", "elements": [e, g], "identity": e,
                                     "table": [[e, g], [g, e]]})


def test_two_copies_named_alike_are_refused():
    # (x@1, 2) and (x, 1@2) are both named x@1@2; the edges' copies collide too.
    q = mk(["x", "x@1"], [("e", "x", "x@1", 1), ("e@1", "x", "x", 1)])
    kappa = Cocycle(at_table_group(["2", "1@2"]), {"e": "1@2", "e@1": "2"})
    for build in (skew_product, translation_action):
        with pytest.raises(SkewError, match="two copies in the skew product are named 'x@1@2'"):
            build(q, kappa)
    edges_only = mk(["x", "y"], [("e", "x", "y", 1), ("e@1", "x", "x", 1)])
    for build in (skew_product, translation_action):
        with pytest.raises(SkewError, match="two copies in the skew product are named 'e@1@2'"):
            build(edges_only, kappa)


def test_an_at_in_element_ids_alone_names_every_copy_apart():
    # No base id has an "@", so the first "@" of each id splits it.
    q = mk(["x", "y"], [("e", "x", "y", 1), ("f", "y", "y", "1/2")])
    kappa = Cocycle(at_table_group(["@", "1@2"]), {"e": "1@2", "f": "@"})
    assert skew_product(q, kappa).vertices == ("x@@", "x@1@2", "y@@", "y@1@2")
    assert validate_quiver(skew_product(q, kappa)) == []
    assert_copies_match_reference(q, kappa)
    check_skew_orbit(q, kappa)


def at_swap(vertices):
    """Z/2 as a ``table`` group on elements 2, 1@2, acting on four vertices and no
    edges: 1@2 swaps the first two vertices, and the last two."""
    x, p, y, r = vertices
    return mk(vertices, []), QuiverAction(
        at_table_group(["2", "1@2"]), {"2": {v: v for v in vertices},
                                       "1@2": {x: p, p: x, y: r, r: y}}, {"2": {}, "1@2": {}})


def test_a_witness_naming_two_copies_alike_is_refused():
    # The orbits of x and x@1 give the copies (x, 1@2) and (x@1, 2), both x@1@2.
    q, a = at_swap(["x", "p", "x@1", "r"])
    with pytest.raises(SkewError) as info:
        gross_tucker_reconstruct(q, a)
    assert str(info.value) == "two copies in the skew product are named 'x@1@2'"


def test_an_at_in_element_ids_alone_still_reconstructs():
    q, a = at_swap(["x", "p", "y", "r"])
    w = gross_tucker_reconstruct(q, a)
    # The default section takes the least id of each orbit: p for x's, r for y's.
    assert witness_iso(w).forward.vmap == {"x": "x@1@2", "p": "x@2", "y": "y@1@2", "r": "y@2"}
    assert check_iso(q, skew_product(w.quotient, w.cocycle), witness_iso(w))


def test_the_products_view_is_the_view_of_its_tuples():
    # Every field of the view skew_product writes equals the one built from
    # the product's tuples, in the same order.
    rng = random.Random("view")
    groups = [make_cyclic(n) for n in range(2, 7)] + [make_symmetric(3), reversed_s3()]
    bases = [
        mk(["u", "v"], []),
        mk(["v"], [("a", "v", "v", 1), ("b", "v", "v", 1), ("c", "v", "v", "1/2")]),
        FiniteQuiver(["u", "v"], [Edge("a", "u", "v", Fraction(2, 3)),
                                  Edge("b", "u", "v", Fraction(4, 6)),
                                  Edge("c", "v", "u", Fraction(2, 3))]),
    ]
    draws = [(q, G) for q in bases for G in groups]
    draws += [(random_quiver(rng, 5, 8), rng.choice(groups)) for _ in range(120)]
    for q, G in draws:
        p = skew_product(q, random_cocycle(rng, q, G))
        copy = FiniteQuiver(p.vertices, p.edges)
        view, scan = p.index, copy.index
        for field, got, want in zip(view._fields, view, scan):
            assert got == want, field
        assert list(view.pos) == list(scan.pos)
        assert list(view.classes) == list(scan.classes)
        assert k_theory(p) == k_theory(copy)
        assert iso_search(p, copy) is not None


@pytest.mark.parametrize("kmap, message", [
    ({"b": "7"}, "cocycle undefined on edge 'a'"),
    ({"a": "7"}, "cocycle value for edge 'a' is not a group element"),
    ({"a": "1", "b": "7"}, "cocycle value for edge 'b' is not a group element"),
])
def test_skew_product_names_the_first_bad_edge(kmap, message):
    q = mk(["v"], [("a", "v", "v", 1), ("b", "v", "v", 1)])
    with pytest.raises(SkewError) as info:
        skew_product(q, Cocycle(make_cyclic(2), kmap))
    assert str(info.value) == message


def test_an_action_numbers_edges_by_the_quivers_own_table():
    q = two_loop_quiver()
    assert _facts(q, trivial_action(q, make_cyclic(2))).edges.pos is q._edge_pos
    # validate_quiver rejects a repeated edge id; the first edge with it is its number.
    q = mk(["v"], [("e", "v", "v", 1), ("e", "v", "v", 2)])
    assert _facts(q, trivial_action(q, make_cyclic(2))).edges.pos == {"e": 0}
