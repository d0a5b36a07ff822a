"""Acceptance suite: exact (tolerance-zero) randomized and anchor checks.

Each test prints one PASS line on success (run with -s or -rA to see them);
a failure surfaces as a normal pytest failure.
"""

import json
import random
import time

import pytest

from quiverskew import (
    BlockStructure,
    Cocycle,
    Section,
    acyclic_block_structure,
    check_iso,
    gross_tucker_reconstruct,
    iso_search,
    k_theory,
    lift_system,
    orbits,
    quotient_quiver,
    skew_edge_id,
    skew_product,
    skew_vertex_id,
    translation_action,
)
from quiverskew.cli import main
from quiverskew.quiver import FiniteQuiver
from quiverskew.randgen import (
    random_acyclic_quiver,
    random_cocycle,
    random_quiver,
    standard_groups,
)

from conftest import check_skew_orbit, edge_free, mk, orbit_fused_blocks, witness_iso


def cases(seed, count, acyclic=False):
    rng = random.Random(seed)
    zoo = standard_groups()
    for _ in range(count):
        q = (
            random_acyclic_quiver(rng, 8, 12)
            if acyclic
            else random_quiver(rng, 8, 16)
        )
        group = rng.choice(zoo)
        yield rng, q, random_cocycle(rng, q, group)


def test_criterion_1_skew_orbit_recovery():
    t0 = time.time()
    for _, q, kappa in cases(101, 200):
        check_skew_orbit(q, kappa)
    elapsed = time.time() - t0
    assert elapsed < 10
    print(f"PASS criterion 1: skew-orbit recovery on 200 cases ({elapsed:.2f}s)")


def test_criterion_2_gross_tucker_roundtrip():
    t0 = time.time()
    for rng, q, kappa in cases(202, 100):
        G = kappa.group
        skew = skew_product(q, kappa)
        act = translation_action(q, kappa)
        v_orbits, e_orbits = orbits(skew, act)
        # (a) identity-coordinate section recovers the original cocycle
        ident_section = Section(
            {orb[0]: skew_vertex_id(v, G.identity)
             for orb, v in zip(v_orbits, q.vertices)}
        )
        witness = gross_tucker_reconstruct(skew, act, ident_section)
        rep_of = {}
        for e, orb in zip(q.edges, e_orbits):
            rep_of[orb[0]] = e.id
        recovered = {rep_of[eid]: g for eid, g in witness.cocycle.map.items()}
        assert recovered == kappa.map
        # (b) five random sections: the witness is an isomorphism onto the
        # skew product of what it recovers
        for _ in range(5):
            section = Section({orb[0]: rng.choice(orb) for orb in v_orbits})
            w = gross_tucker_reconstruct(skew, act, section)
            target = skew_product(w.quotient, w.cocycle)
            assert check_iso(skew, target, witness_iso(w))
    elapsed = time.time() - t0
    assert elapsed < 30
    print(f"PASS criterion 2: Gross-Tucker roundtrip on 100 cases ({elapsed:.2f}s)")


def test_criterion_3_measure_descent_lift():
    for _, q, kappa in cases(101, 200):
        skew = skew_product(q, kappa)
        act = translation_action(q, kappa)
        quot, proj = quotient_quiver(skew, act)
        lifted = lift_system(quot, skew, act, proj.emap)
        assert lifted == {e.id: e.weight for e in skew.edges}
        quot2, _ = quotient_quiver(skew.with_weights(lifted), act)
        assert {e.id: e.weight for e in quot2.edges} == {
            e.id: e.weight for e in quot.edges
        }
    print("PASS criterion 3: descent/lift exact roundtrips on 200 cases")


def test_criterion_4_dimension_shadow():
    t0 = time.time()
    for _, q, kappa in cases(404, 100, acyclic=True):
        direct = acyclic_block_structure(skew_product(q, kappa))
        base = acyclic_block_structure(q)
        assert direct == BlockStructure.of(b for b in base.blocks for _ in kappa.group.elements)
        assert direct.total_dimension == kappa.group.order * base.total_dimension
    elapsed = time.time() - t0
    assert elapsed < 30
    print(f"PASS criterion 4: block-multiset dimension shadow on 100 cases ({elapsed:.2f}s)")


def test_criterion_5_morita_shadow():
    for _, q, kappa in cases(404, 100, acyclic=True):
        base = acyclic_block_structure(q)
        dual = orbit_fused_blocks(q, kappa)
        n = kappa.group.order
        assert dual.blocks == tuple(sorted(b * n for b in base.blocks))
        # K0 of a direct sum of matrix blocks is free of rank the block
        # count, and Morita equivalence preserves K0.
        assert k_theory(q).k0_free_rank == len(base.blocks) == len(dual.blocks)
    print("PASS criterion 5: Morita shadow on 100 cases")


def test_criterion_6_k_theory_anchors():
    o2 = mk(["v"], [("a", "v", "v", 1), ("b", "v", "v", 1)])
    o3 = mk(["v"], [("a", "v", "v", 1), ("b", "v", "v", 1), ("c", "v", "v", 1)])
    edge = mk(["w", "v"], [("e", "w", "v", 1)])
    dot = mk(["v"], [])
    kt = k_theory(o2)
    assert (kt.k0_invariant_factors, kt.k0_free_rank, kt.k1_rank) == ((), 0, 0)
    kt = k_theory(o3)
    assert (kt.k0_invariant_factors, kt.k0_free_rank, kt.k1_rank) == ((2,), 0, 0)
    kt = k_theory(edge)
    assert (kt.k0_invariant_factors, kt.k0_free_rank, kt.k1_rank) == ((), 1, 0)
    kt = k_theory(dot)
    assert (kt.k0_invariant_factors, kt.k0_free_rank, kt.k1_rank) == ((), 1, 0)
    print("PASS criterion 6: K-theory anchors (2-loop, 3-loop, edge, vertex)")


def test_criterion_7_disjoint_copies():
    t0 = time.time()
    rng = random.Random(707)
    for _ in range(10):
        q = random_quiver(rng, 6, 10)
        for group in standard_groups():
            kappa = Cocycle(group, {e.id: group.identity for e in q.edges})
            skew = skew_product(q, kappa)
            n = group.order
            for g in group.elements:
                vset = [skew_vertex_id(v, g) for v in q.vertices]
                eids = {skew_edge_id(e.id, g) for e in q.edges}
                copy = FiniteQuiver(
                    vset, [e for e in skew.edges if e.id in eids]
                )
                iso = iso_search(copy, q)
                assert iso is not None and check_iso(copy, q, iso)
            base = k_theory(q)
            total = k_theory(skew)
            assert sorted(total.k0_invariant_factors) == sorted(
                base.k0_invariant_factors * n
            )
            assert total.k0_free_rank == n * base.k0_free_rank
            assert total.k1_rank == n * base.k1_rank
    elapsed = time.time() - t0
    assert elapsed < 10
    print(f"PASS criterion 7: disjoint-copies law, 10 quivers x 5 groups ({elapsed:.2f}s)")


def test_criterion_8_freeness_propagation():
    for _, q, kappa in cases(808, 100):
        skew = skew_product(q, kappa)
        act = translation_action(q, kappa)
        assert edge_free(skew, act)
    print("PASS criterion 8: no non-identity element fixes an edge (100 cases)")


def test_criterion_9_cli_contract(tmp_path):
    qdoc = {
        "vertices": ["w", "v"],
        "edges": [{"id": "e", "src": "w", "rng": "v", "weight": "2/3"}],
    }
    kdoc = {"group": {"kind": "cyclic", "n": 2}, "map": {"e": "1"}}
    adoc = {
        "group": {"kind": "cyclic", "n": 2},
        "vperm": {"0": {"w": "w", "v": "v"}, "1": {"w": "w", "v": "v"}},
        "eperm": {"0": {"e": "e"}, "1": {"e": "e"}},
    }
    qf = tmp_path / "q.json"
    qf.write_text(json.dumps(qdoc))
    kf = tmp_path / "k.json"
    kf.write_text(json.dumps(kdoc))

    def run_twice(args, name):
        a, b = tmp_path / f"{name}1", tmp_path / f"{name}2"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    run_twice(["skew", str(qf), str(kf)], "skew")
    run_twice(["invariants", str(qf), "--cocycle", str(kf)], "inv")
    # quotient golden run via a genuinely free action: Z/2 swap of 2 loops
    q2 = {
        "vertices": ["a", "b"],
        "edges": [
            {"id": "x", "src": "a", "rng": "a", "weight": "1"},
            {"id": "y", "src": "b", "rng": "b", "weight": "1"},
        ],
    }
    a2 = {
        "group": {"kind": "cyclic", "n": 2},
        "vperm": {"0": {"a": "a", "b": "b"}, "1": {"a": "b", "b": "a"}},
        "eperm": {"0": {"x": "x", "y": "y"}, "1": {"x": "y", "y": "x"}},
    }
    q2f = tmp_path / "q2.json"
    q2f.write_text(json.dumps(q2))
    a2f = tmp_path / "a2.json"
    a2f.write_text(json.dumps(a2))
    run_twice(["quotient", str(q2f), str(a2f)], "quot")
    # fault-injected verify must fail with exit code 1
    assert main(["verify", str(qf), str(kf)]) == 0
    assert main(["verify", str(qf), str(kf), "--inject-fault"]) == 1
    print("PASS criterion 9: CLI determinism and fault-injection exit code")
