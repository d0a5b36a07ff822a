from fractions import Fraction

import pytest

from quiverskew import (
    Edge,
    FiniteQuiver,
    IsoBudgetExceeded,
    QuiverIso,
    QuiverMorphism,
    check_iso,
    check_morphism,
    iso_search,
    validate_quiver,
)
from quiverskew.quiver import QuiverError

from conftest import mk, brute_iso_exists


class TestValidate:
    def test_single_vertex_no_edges_ok(self):
        assert validate_quiver(mk(["v"], [])) == []

    def test_dangling_endpoint(self):
        q = mk(["v"], [("e", "x", "v", 1)])
        report = validate_quiver(q)
        assert any("dangling endpoint" in r for r in report)

    def test_nonpositive_weight(self):
        q = FiniteQuiver(["v"], [Edge("e", "v", "v", Fraction(0))])
        report = validate_quiver(q)
        assert any("nonpositive weight" in r for r in report)

    def test_duplicate_ids(self):
        q = mk(["v", "v"], [("e", "v", "v", 1), ("e", "v", "v", 1)])
        report = validate_quiver(q)
        assert any("duplicate vertex" in r for r in report)
        assert any("duplicate edge" in r for r in report)


class TestCheckMorphism:
    def test_identity(self):
        q = mk(["v", "w"], [("e", "v", "w", 1)])
        m = QuiverMorphism({"v": "v", "w": "w"}, {"e": "e"})
        assert check_morphism(q, q, m)

    def test_swap_breaks_commuting(self):
        q = mk(["v", "w"], [("e", "v", "w", 1)])
        m = QuiverMorphism({"v": "w", "w": "v"}, {"e": "e"})
        assert not check_morphism(q, q, m)

    def test_collapse_two_cycle_to_loop(self):
        two = mk(["v", "w"], [("a", "v", "w", 1), ("b", "w", "v", 1)])
        loop = mk(["u"], [("l", "u", "u", 1)])
        m = QuiverMorphism({"v": "u", "w": "u"}, {"a": "l", "b": "l"})
        assert check_morphism(two, loop, m)

    def test_unknown_id_raises(self):
        q = mk(["v"], [("e", "v", "v", 1)])
        with pytest.raises(QuiverError):
            check_morphism(q, q, QuiverMorphism({"v": "v"}, {}))


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
        with pytest.raises(IsoBudgetExceeded):
            iso_search(a, a, budget=3)

    def test_agrees_with_brute_force_on_small_quivers(self):
        import itertools, random

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
