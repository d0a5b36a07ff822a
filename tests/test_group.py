import random
from operator import itemgetter

import pytest

from quiverskew import (
    Cocycle,
    FiniteGroup,
    QuiverAction,
    edge_free,
    is_free,
    make_cyclic,
    make_symmetric,
    orbits,
    skew_product,
    translation_action,
    validate_action,
    validate_group,
)
from quiverskew.group import GroupError
from quiverskew.randgen import random_cocycle, random_quiver

from conftest import LOOP5, deadline, mk, random_base, trivial_action


class TestMakeCyclic:
    def test_trivial(self):
        g = make_cyclic(1)
        assert g.elements == ("0",)
        assert g.identity == "0"
        assert validate_group(g) == []

    def test_z2_table(self):
        g = make_cyclic(2)
        assert g.mul("0", "0") == "0"
        assert g.mul("0", "1") == "1"
        assert g.mul("1", "0") == "1"
        assert g.mul("1", "1") == "0"

    def test_z4_product(self):
        g = make_cyclic(4)
        assert g.mul("3", "2") == "1"

    def test_rejects_zero(self):
        with pytest.raises(GroupError):
            make_cyclic(0)

    def test_rejects_order_out_of_scope(self):
        with pytest.raises(GroupError):
            make_cyclic(121)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 12])
    def test_axioms(self, n):
        assert validate_group(make_cyclic(n)) == []


class TestMakeSymmetric:
    @pytest.mark.parametrize("n,order", [(1, 1), (2, 2), (3, 6), (4, 24)])
    def test_order_and_axioms(self, n, order):
        g = make_symmetric(n)
        assert g.order == order
        assert validate_group(g) == []

    def test_s3_nonabelian(self):
        g = make_symmetric(3)
        assert any(
            g.mul(a, b) != g.mul(b, a) for a in g.elements for b in g.elements
        )

    def test_rejects_out_of_range(self):
        with pytest.raises(GroupError):
            make_symmetric(6)
        with pytest.raises(GroupError):
            make_symmetric(0)


@pytest.mark.parametrize("make", [make_cyclic, make_symmetric], ids=["cyclic", "symmetric"])
def test_a_bool_order_is_refused(make):
    # functools.cache keys True apart from 1, so it would build a second trivial group.
    for n in (True, False):
        with pytest.raises(GroupError):
            make(n)


@pytest.mark.parametrize("group", [
    make_cyclic(1), make_cyclic(12), make_symmetric(3), make_symmetric(4),
    make_symmetric(5),
], ids=["Z1", "Z12", "S3", "S4", "S5"])
def test_generators_generate_and_are_few(group):
    gens = group.generators
    assert 2 ** len(gens) <= group.order
    closure = {group.identity}
    while True:
        bigger = closure | {group.mul(h, s) for h in closure for s in gens}
        if bigger == closure:
            break
        closure = bigger
    assert closure == set(group.elements)


def first_missing_generators(G):
    """The generating set picked by the earlier rule: each element, in element
    order, that is not in the subgroup the ones before it generate."""
    gens, reached = [], {G.identity}
    for g in G.elements:
        if g not in reached:
            gens.append(g)
            reached, frontier = {G.identity}, [G.identity]
            while frontier:
                h = frontier.pop()
                for s in gens:
                    if G.mul(h, s) not in reached:
                        reached.add(G.mul(h, s))
                        frontier.append(G.mul(h, s))
    return tuple(gens)


XOR8 = [[i ^ j for j in range(8)] for i in range(8)]  # Z/2 x Z/2 x Z/2


@pytest.mark.parametrize("group, size", [
    (make_symmetric(3), 2), (make_cyclic(1), 0), *((make_cyclic(n), 1) for n in range(2, 13)),
    ("xor8", 3),
], ids=["S3", *(f"Z{n}" for n in range(1, 13)), "Z2^3"])
def test_generators_where_the_first_missing_elements_are_fewest(group, size):
    group = table_group(XOR8) if group == "xor8" else group
    assert group.generators == first_missing_generators(group)
    assert len(group.generators) == size


@pytest.mark.parametrize("n, gens", [(4, ("1243", "2314")), (5, ("12354", "23415"))])
def test_generators_of_s4_and_s5_are_two(n, gens):
    G = make_symmetric(n)
    assert G.generators == gens
    assert gens[0] == G.elements[1]  # the first element that is not the identity
    assert len(first_missing_generators(G)) == n - 1


def table_group(rows):
    els = [str(i) for i in range(len(rows))]
    return FiniteGroup(
        els, {els[i]: {els[j]: str(r[j]) for j in range(len(r))} for i, r in enumerate(rows)}, "0"
    )


class TestValidateGroup:
    def test_non_associative_loop_rejected(self):
        report = validate_group(table_group(LOOP5))
        assert len(report) == 1 and "associativity fails" in report[0]

    def test_cyclic_table_accepted(self):
        assert validate_group(table_group([[(i + j) % 5 for j in range(5)] for i in range(5)])) == []

    def test_non_permutation_row_reported_without_crash(self):
        g = FiniteGroup(["a", "b"], {"a": {"a": "a", "b": "b"}, "b": {"a": "b", "b": "zz"}}, "a")
        assert any("not a permutation" in r for r in validate_group(g))

    Z2 = {"0": {"0": "0", "1": "1"}, "1": {"0": "1", "1": "0"}}

    @pytest.mark.parametrize("elements, table, identity, report", [
        (["0", "1", "0"], Z2, "0", ["duplicate element ids"]),
        (["0", "1"], Z2, "e", ["identity not among elements"]),
        (["0", "1"], {"0": {"0": "0", "1": "1", "2": "1"}, "1": Z2["1"]}, "0",
         ["table row for '0' is not total"]),
        (["0", "1"], Z2, "1", ["identity law fails at '0'", "identity law fails at '1'"]),
        (["a", "b"], {"a": {"a": "a"}}, "a", ["table row for 'a' is not total"]),
        (["a", "b"], {"a": {"a": "a", "b": "b"}}, "a", ["table row for 'b' is not total"]),
    ], ids=["duplicate", "no-identity", "not-total", "identity-law", "missing-entry",
            "missing-row"])
    def test_report(self, elements, table, identity, report):
        assert validate_group(FiniteGroup(elements, table, identity)) == report


def swap_action_on_loops(w1, w2, swap=None):
    """Z/2 swapping two disjoint loops with the given weights; ``swap``
    replaces the vertex table of "1"."""
    q = mk(["v", "w"], [("a", "v", "v", w1), ("b", "w", "w", w2)])
    g = make_cyclic(2)
    a = QuiverAction(
        g,
        {"0": {"v": "v", "w": "w"}, "1": swap or {"v": "w", "w": "v"}},
        {"0": {"a": "a", "b": "b"}, "1": {"a": "b", "b": "a"}},
    )
    return q, a


class TestValidateAction:
    def test_trivial_action_ok(self):
        q = mk(["v", "w"], [("e", "v", "w", "3/5")])
        assert validate_action(q, trivial_action(q, make_cyclic(1))) == []

    def test_swap_equal_weights_ok(self):
        q, a = swap_action_on_loops(1, 1)
        assert validate_action(q, a) == []

    def test_swap_unequal_weights_violates_equivariance(self):
        q, a = swap_action_on_loops(1, 2)
        report = validate_action(q, a)
        assert any("weight equivariance" in r for r in report)

    def test_broken_homomorphism(self):
        q = mk(["v", "w", "x"], [])
        g = make_cyclic(3)
        # 3-cycle assigned to "1" but identity to "2": not a homomorphism.
        a = QuiverAction(
            g,
            {
                "0": {"v": "v", "w": "w", "x": "x"},
                "1": {"v": "w", "w": "x", "x": "v"},
                "2": {"v": "v", "w": "w", "x": "x"},
            },
            {g_: {} for g_ in g.elements},
        )
        report = validate_action(q, a)
        assert any("homomorphism" in r for r in report)

    def test_full_report_when_several_laws_break(self):
        q = mk(["v", "w", "x"], [("a", "v", "w", 1), ("b", "w", "x", 1), ("c", "x", "v", 2)])
        ident = {"v": "v", "w": "w", "x": "x"}
        a = QuiverAction(
            make_cyclic(3),
            {"0": ident, "1": {"v": "w", "w": "x", "x": "v"}, "2": ident},
            {"0": {"a": "b", "b": "a", "c": "c"}, "1": {"a": "c", "b": "a", "c": "b"},
             "2": {"a": "b", "b": "c", "c": "a"}},
        )
        # At ('2','1') both laws fail; only the vertex line is reported.
        assert validate_action(q, a) == [
            "identity element does not act as the identity",
            "edge homomorphism law fails at ('0','1')",
            "vertex homomorphism law fails at ('1','1')",
            "vertex homomorphism law fails at ('2','1')",
            "source commuting fails for edge 'a' under '1'",
            "range commuting fails for edge 'a' under '1'",
            "weight equivariance fails for edge 'a' under '1'",
            "source commuting fails for edge 'b' under '1'",
            "range commuting fails for edge 'b' under '1'",
            "source commuting fails for edge 'c' under '1'",
            "range commuting fails for edge 'c' under '1'",
            "weight equivariance fails for edge 'c' under '1'",
        ]


class TestFreeness:
    def test_trivial_group_is_free(self):
        q = mk(["v"], [("e", "v", "v", 1)])
        assert is_free(q, trivial_action(q, make_cyclic(1)))

    def test_swap_on_two_cycle_is_free(self):
        q = mk(["v", "w"], [("a", "v", "w", 1), ("b", "w", "v", 1)])
        g = make_cyclic(2)
        a = QuiverAction(
            g,
            {"0": {"v": "v", "w": "w"}, "1": {"v": "w", "w": "v"}},
            {"0": {"a": "a", "b": "b"}, "1": {"a": "b", "b": "a"}},
        )
        assert validate_action(q, a) == []
        assert is_free(q, a)
        assert edge_free(q, a)

    def test_identity_action_of_z2_not_free(self):
        q = mk(["v"], [])
        a = trivial_action(q, make_cyclic(2))
        assert validate_action(q, a) == []
        assert not is_free(q, a)

    def test_identity_action_of_z2_on_a_loop_not_edge_free(self):
        q = mk(["v"], [("e", "v", "v", 1)])
        assert not edge_free(q, trivial_action(q, make_cyclic(2)))


class TestOrbits:
    def test_trivial_group_singletons(self):
        q = mk(["v", "w"], [("e", "v", "w", 1)])
        v_orbits, e_orbits = orbits(q, trivial_action(q, make_cyclic(1)))
        assert v_orbits == [("v",), ("w",)]
        assert e_orbits == [("e",)]

    def test_swap_on_two_cycle(self):
        q = mk(["v", "w"], [("a", "v", "w", 1), ("b", "w", "v", 1)])
        g = make_cyclic(2)
        a = QuiverAction(
            g,
            {"0": {"v": "v", "w": "w"}, "1": {"v": "w", "w": "v"}},
            {"0": {"a": "a", "b": "b"}, "1": {"a": "b", "b": "a"}},
        )
        v_orbits, e_orbits = orbits(q, a)
        assert v_orbits == [("v", "w")]
        assert e_orbits == [("a", "b")]

    def test_translation_orbits_on_z4_skew(self):
        from quiverskew import Cocycle, skew_product, translation_action

        q = mk(["v"], [("e", "v", "v", 1)])
        g = make_cyclic(4)
        kappa = Cocycle(g, {"e": "1"})
        skew = skew_product(q, kappa)
        act = translation_action(q, kappa)
        v_orbits, e_orbits = orbits(skew, act)
        assert len(v_orbits) == 1 and len(v_orbits[0]) == 4
        assert len(e_orbits) == 1 and len(e_orbits[0]) == 4


class TestReadOnlyAndMemoised:
    def test_each_quiver_gets_its_own_report(self):
        q, a = swap_action_on_loops(1, 1)
        heavier = q.with_weights({"a": 1, "b": 2})
        assert validate_action(q, a) == []
        assert any("weight equivariance" in r for r in validate_action(heavier, a))
        assert validate_action(q, a) == []

    def test_tables_are_read_only_copies(self):
        # Tables given as mappings, as (x, x.g) pairs, and built by translation_action,
        # on q, the skew product of a loop at v by Z/2 with kappa(a) = 1.
        loop, kappa = mk(["v"], [("a", "v", "v", 1)]), Cocycle(make_cyclic(2), {"a": "1"})
        q = skew_product(loop, kappa)
        vperm = {"0": {"v@0": "v@0", "v@1": "v@1"}, "1": {"v@0": "v@1", "v@1": "v@0"}}
        eperm = {"0": {"a@0": "a@0", "a@1": "a@1"}, "1": {"a@0": "a@1", "a@1": "a@0"}}
        pairs = ({g: zip(p, p.values()) for g, p in perm.items()} for perm in (vperm, eperm))
        actions = [QuiverAction(make_cyclic(2), vperm, eperm),
                   QuiverAction(make_cyclic(2), *pairs), translation_action(loop, kappa)]
        for a in actions:
            with pytest.raises(TypeError):
                a.vperm["1"]["v@0"] = "v@0"
            with pytest.raises(TypeError):
                a.eperm["1"] = {"a@0": "a@0", "a@1": "a@1"}
        vperm["1"]["v@0"] = "v@0"
        eperm["1"] = {"a@0": "a@0", "a@1": "a@1"}
        for a in actions:
            assert a.vperm["1"] == {"v@0": "v@1", "v@1": "v@0"}
            assert a.eperm["1"] == {"a@0": "a@1", "a@1": "a@0"}
            assert validate_action(q, a) == [] and is_free(q, a)

    def test_mutated_results_do_not_reach_the_memo(self):
        q, a = swap_action_on_loops(1, 2)
        expected = [f"weight equivariance fails for edge {e!r} under '1'" for e in "ab"]
        report = validate_action(q, a)
        assert report == expected
        report.clear()
        assert validate_action(q, a) == expected
        v_orbits, e_orbits = orbits(q, a)
        v_orbits.append(("x",))
        e_orbits.clear()
        assert orbits(q, a) == ([("v", "w")], [("a", "b")])


class TestNotAPermutation:
    """A table that is not a permutation of q's items: one explicit error,
    the first line of validate_action's report."""

    MESSAGE = "vertex permutation for '1' is not a permutation of the vertices"

    def test_validate_action_reports_it(self):
        q, a = swap_action_on_loops(1, 1, {"v": "w"})
        assert validate_action(q, a) == [self.MESSAGE]

    @pytest.mark.parametrize("fn", [is_free, edge_free, orbits])
    def test_freeness_and_orbits_raise(self, fn):
        q, a = swap_action_on_loops(1, 1, {"v": "w"})
        with pytest.raises(GroupError) as exc:
            fn(q, a)
        assert str(exc.value) == f"invalid action: {self.MESSAGE}"


def ref_composes(p, r, pr):
    """True iff pr[x] == r[p[x]] for every x (apply p, then r)."""
    if not p:
        return True
    return itemgetter(*p)(pr) == itemgetter(*p.values())(r)


def ref_action_report(q, a):
    """validate_action's report, computed on the string-keyed tables."""
    report = []
    G = a.group
    tables = (("vertex", "vertices", a.vperm, set(q.vertices)),
              ("edge", "edges", a.eperm, {e.id for e in q.edges}))
    for g in G.elements:
        for kind, plural, perms, items in tables:
            p = perms.get(g)
            if p is None or p.keys() != items or set(p.values()) != items:
                report.append(f"{kind} permutation for {g!r} is not a permutation of the {plural}")
                return report
    idg = G.identity
    if any(perms[idg][x] != x for _, _, perms, items in tables for x in items):
        report.append("identity element does not act as the identity")
    for g in G.elements:
        for s in G.generators:
            gs = G.mul(g, s)
            for kind, _, perms, _ in tables:
                if not ref_composes(perms[g], perms[s], perms[gs]):
                    report.append(f"{kind} homomorphism law fails at ({g!r},{s!r})")
                    break
    for s in G.generators:
        vs, es = a.vperm[s], a.eperm[s]
        for e in q.edges:
            img = q.edge(es[e.id])
            if img.src != vs[e.src]:
                report.append(f"source commuting fails for edge {e.id!r} under {s!r}")
            if img.rng != vs[e.rng]:
                report.append(f"range commuting fails for edge {e.id!r} under {s!r}")
            if img.weight != e.weight:
                report.append(f"weight equivariance fails for edge {e.id!r} under {s!r}")
    return report


def ref_fixes_some(G, perms, items):
    """True iff some non-identity element of G fixes one of ``items``."""
    return any(perms[g][x] == x for g in G.elements if g != G.identity for x in items)


def ref_is_free(q, a):
    return not ref_fixes_some(a.group, a.vperm, q.vertices)


def ref_edge_free(q, a):
    return not ref_fixes_some(a.group, a.eperm, [e.id for e in q.edges])


def ref_orbits(q, a):
    """orbits, computed on the string-keyed tables."""
    G = a.group

    def partition(perms, items):
        pos = {x: i for i, x in enumerate(items)}
        seen = set()
        parts = []
        for x in items:
            if x in seen:
                continue
            orb = {perms[g][x] for g in G.elements}
            seen |= orb
            parts.append(tuple(sorted(orb, key=pos.__getitem__)))
        return parts

    return partition(a.vperm, q.vertices), partition(a.eperm, [e.id for e in q.edges])


def assert_matches_reference(q, a):
    """validate_action's full report, is_free, edge_free and orbits agree
    with the string-keyed reference; returns the report."""
    report = validate_action(q, a)
    assert report == ref_action_report(q, a)
    assert is_free(q, a) == ref_is_free(q, a)
    assert edge_free(q, a) == ref_edge_free(q, a)
    assert orbits(q, a) == ref_orbits(q, a)
    return report


DEGENERATE = {
    "empty": mk([], []),
    "vertex": mk(["v"], []),
    "loop": mk(["v"], [("e", "v", "v", 1)]),
}


@pytest.mark.parametrize("n", [1, 2], ids=["Z1", "Z2"])
@pytest.mark.parametrize("name", DEGENERATE)
def test_degenerate_quivers_match_reference(name, n):
    q = DEGENERATE[name]
    a = trivial_action(q, make_cyclic(n))
    assert assert_matches_reference(q, a) == []
    # One more vertex in the last element's table: not a permutation.
    vperm = {g: dict(p) for g, p in a.vperm.items()}
    vperm[str(n - 1)]["x"] = "x"
    broken = QuiverAction(a.group, vperm, a.eperm)
    report = validate_action(q, broken)
    assert report == ref_action_report(q, broken)
    assert report == [f"vertex permutation for '{n - 1}' is not a permutation of the vertices"]
    with pytest.raises(GroupError):
        is_free(q, broken)


@pytest.mark.parametrize("n, m, group", [(20, 40, make_symmetric(5))], ids=["S5-2400"])
def test_large_translation_action(n, m, group):
    q, rng = random_base(n, m, 1)
    kappa = random_cocycle(rng, q, group)
    with deadline(2):
        skew, act = skew_product(q, kappa), translation_action(q, kappa)
        assert validate_action(skew, act) == []
        assert is_free(skew, act)
        v_orbits, e_orbits = orbits(skew, act)
    assert len(v_orbits) == n and len(e_orbits) == m


def oracle_valid(q, a):
    """Every action law over all elements and all pairs, checked directly."""
    G = a.group
    vs, es = set(q.vertices), {e.id for e in q.edges}
    for g in G.elements:
        vp, ep = a.vperm[g], a.eperm[g]
        if set(vp) != vs or set(vp.values()) != vs or set(ep) != es or set(ep.values()) != es:
            return False
    if any(a.vperm[G.identity][v] != v for v in vs) or any(
        a.eperm[G.identity][e] != e for e in es
    ):
        return False
    for g in G.elements:
        for h in G.elements:
            gh = G.mul(g, h)
            if any(a.vperm[gh][v] != a.vperm[h][a.vperm[g][v]] for v in vs):
                return False
            if any(a.eperm[gh][e] != a.eperm[h][a.eperm[g][e]] for e in es):
                return False
        for e in q.edges:
            img = q.edge(a.eperm[g][e.id])
            if (img.src, img.rng, img.weight) != (
                a.vperm[g][e.src], a.vperm[g][e.rng], e.weight
            ):
                return False
    return True


def corrupt(rng, skew, act):
    """One random corruption of a valid action or of the quiver it acts on."""
    G = act.group
    vperm = {g: dict(p) for g, p in act.vperm.items()}
    eperm = {g: dict(p) for g, p in act.eperm.items()}
    kind = rng.randrange(4)
    if kind == 0:
        perm = rng.choice([vperm, eperm])[rng.choice(G.elements)]
        if len(perm) >= 2:
            x, y = rng.sample(sorted(perm), 2)
            perm[x], perm[y] = perm[y], perm[x]
    elif kind == 1:
        g, h = rng.sample(G.elements, 2)
        for table in rng.choice([[vperm], [eperm], [vperm, eperm]]):
            table[g], table[h] = table[h], table[g]
    elif kind == 2:
        # Still an action on edges, but one that may not commute with src/rng.
        c = rng.choice(G.elements)
        eperm = {g: act.eperm[G.mul(G.mul(G.inv(c), g), c)] for g in G.elements}
    elif skew.edges:
        eid = rng.choice(skew.edges).id
        skew = skew.with_weights(
            {e.id: e.weight + (e.id == eid) for e in skew.edges}
        )
    return skew, QuiverAction(G, vperm, eperm)


@pytest.mark.parametrize("group", [make_cyclic(4), make_symmetric(3)], ids=["Z4", "S3"])
def test_validate_action_matches_exhaustive_oracle(group):
    rng = random.Random(f"oracle:{group.order}")
    verdicts = []
    for _ in range(400):
        q = random_quiver(rng, 3, 5)
        kappa = random_cocycle(rng, q, group)
        skew, act = corrupt(rng, skew_product(q, kappa), translation_action(q, kappa))
        valid = oracle_valid(skew, act)
        assert (assert_matches_reference(skew, act) == []) == valid
        verdicts.append(valid)
    # Both outcomes occur, so the agreement is not vacuous.
    assert 0 < sum(verdicts) < len(verdicts)
