"""Property-based laws: isomorphism search, skew/quotient roundtrips,
weight descent/lift, and freeness propagation."""

from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from quiverskew import (
    Cocycle,
    check_iso,
    gross_tucker_reconstruct,
    is_free,
    iso_search,
    lift_system,
    make_cyclic,
    make_symmetric,
    orbits,
    quotient_quiver,
    skew_product,
    translation_action,
    validate_action,
)
from quiverskew.verify import all_sections

from conftest import check_morphism, check_skew_orbit, edge_free, mk, witness_iso


weights = st.builds(Fraction, st.integers(1, 6), st.integers(1, 6))


@st.composite
def quivers(draw, max_vertices=4, max_edges=6):
    nv = draw(st.integers(1, max_vertices))
    vs = [f"v{i}" for i in range(nv)]
    ne = draw(st.integers(0, max_edges))
    edges = []
    for i in range(ne):
        src = draw(st.sampled_from(vs))
        rng = draw(st.sampled_from(vs))
        edges.append((f"e{i}", src, rng, draw(weights)))
    return mk(vs, edges)


groups = st.sampled_from(
    [make_cyclic(1), make_cyclic(2), make_cyclic(3), make_cyclic(4), make_symmetric(3)]
)


@st.composite
def quivers_with_cocycles(draw):
    q = draw(quivers())
    g = draw(groups)
    kappa = Cocycle(
        g, {e.id: draw(st.sampled_from(g.elements)) for e in q.edges}
    )
    return q, kappa


@given(quivers())
def test_self_iso_exists(q):
    iso = iso_search(q, q)
    assert iso is not None
    assert check_iso(q, q, iso)


@given(quivers())
def test_iso_symmetric_under_relabeling(q):
    relabeled = mk(
        [f"w_{v}" for v in q.vertices],
        [(f"f_{e.id}", f"w_{e.src}", f"w_{e.rng}", e.weight) for e in q.edges],
    )
    fwd = iso_search(q, relabeled)
    bwd = iso_search(relabeled, q)
    assert fwd is not None and check_iso(q, relabeled, fwd)
    assert bwd is not None and check_iso(relabeled, q, bwd)


@given(quivers())
def test_iso_witness_preserves_pair_weight_multisets(q):
    iso = iso_search(q, q)
    vm = iso.forward.vmap
    before = Counter((e.src, e.rng, e.weight) for e in q.edges)
    after = Counter((vm[e.src], vm[e.rng], e.weight) for e in q.edges)
    assert before == after


@settings(deadline=None)
@given(quivers_with_cocycles())
def test_skew_orbit_recovery(qk):
    q, kappa = qk
    check_skew_orbit(q, kappa)


@settings(deadline=None)
@given(quivers_with_cocycles())
def test_translation_action_valid_and_free(qk):
    q, kappa = qk
    skew = skew_product(q, kappa)
    act = translation_action(q, kappa)
    assert validate_action(skew, act) == []
    assert is_free(skew, act)
    assert edge_free(skew, act)


@settings(deadline=None)
@given(quivers_with_cocycles())
def test_free_orbits_have_group_size(qk):
    from quiverskew import orbits

    q, kappa = qk
    skew = skew_product(q, kappa)
    act = translation_action(q, kappa)
    v_orbits, e_orbits = orbits(skew, act)
    n = kappa.group.order
    assert all(len(o) == n for o in v_orbits)
    assert all(len(o) == n for o in e_orbits)


@settings(deadline=None)
@given(quivers_with_cocycles())
def test_descent_lift_exact_roundtrip(qk):
    q, kappa = qk
    skew = skew_product(q, kappa)
    act = translation_action(q, kappa)
    quot, proj = quotient_quiver(skew, act)
    # The projection is a morphism, and each edge orbit carries one weight.
    assert check_morphism(skew, quot, proj)
    _, e_orbits = orbits(skew, act)
    assert all(len({skew.edge(eid).weight for eid in orb}) == 1 for orb in e_orbits)
    lifted = lift_system(quot, skew, act, proj.emap)
    assert lifted == {e.id: e.weight for e in skew.edges}
    quot2, _ = quotient_quiver(skew.with_weights(lifted), act)
    assert quot2 == quot


@settings(deadline=None, max_examples=40)
@given(quivers_with_cocycles())
def test_gross_tucker_roundtrip_all_small_sections(qk):
    q, kappa = qk
    skew = skew_product(q, kappa)
    act = translation_action(q, kappa)
    assert all_sections(skew, act, budget=0) == []
    for section in all_sections(skew, act, budget=4):
        witness = gross_tucker_reconstruct(skew, act, section)
        target = skew_product(witness.quotient, witness.cocycle)
        assert check_iso(skew, target, witness_iso(witness))


@settings(deadline=None)
@given(quivers_with_cocycles())
def test_skew_counting(qk):
    q, kappa = qk
    skew = skew_product(q, kappa)
    n = kappa.group.order
    assert len(skew.vertices) == len(q.vertices) * n
    assert len(skew.edges) == len(q.edges) * n
