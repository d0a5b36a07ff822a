"""Self-checking theorem suite run by the CLI and the acceptance tests.

Each check is an executed exact assertion that ``python -O`` keeps; the
suite reports PASS/FAIL per check in a fixed order.  The checks call the
public functions, which share the action's memoised validation and
quotient, so the translation action is validated and its quotient built
once; each check that needs the quotient fails with the first violation
when the action is invalid.  An isomorphism is its forward maps, verified
by ``check_iso``.  A fault can be injected (one mutated weight in the
computed skew product) to exercise the failure path.  ``gross-tucker-roundtrip``
compares each section's witness with phi and the cocycle computed from the
base, kappa and the section; ``measure-descent-lift`` compares the base's
weights, lifted, with the weights ``skew_product`` gave.

On an acyclic quiver three block checks compare the base with the skew
product E x_kappa G, each side counted from its own paths.
``block-multiset-identity``: the skew product's blocks are the base's
repeated |G| times (the coaction crossed product, Kaliszewski-Quigg-Raeburn).
``dual-action-morita-shadow``: its per-vertex path counts, summed over each
translation orbit of its non-regular vertices, are the base's blocks times
|G| (the dual-action crossed product, Morita equivalent to the base;
Kumjian-Pask).  ``graded-dimension-sum``: the base's identity-degree
dimension is dim P A(E x_kappa G) P with P the sum of the p_(v,e), that is
the sum over non-regular vertices u of the skew product of the squared
number of paths from u into layer e; and all degrees sum to the total
dimension.
"""

import itertools
import sys

from .quiver import check_iso
from .group import is_free, orbits, validate_action
from .skew import (
    Section,
    _first_factor_iso,
    gross_tucker_reconstruct,
    lift_system,
    quotient_quiver,
    skew_product,
    translation_action,
)
from .cstar import (
    BlockStructure,
    _path_counts,
    acyclic_block_structure,
    graded_dimensions,
    is_acyclic,
    path_counts,
    regular_vertices,
)


def _mutate_one_weight(q):
    if not q.edges:
        return q
    first = q.edges[0]
    return q.with_weights({e.id: e.weight for e in q.edges} | {first.id: first.weight + 1})


def all_sections(q, a, budget):
    """Sections of the vertex-orbit map, in deterministic order, capped."""
    v_orbits, _ = orbits(q, a)
    reps = [orb[0] for orb in v_orbits]
    # islice refuses a stop above sys.maxsize, and no larger budget can be reached.
    choices = itertools.islice(itertools.product(*v_orbits), min(budget, sys.maxsize))
    return [Section(dict(zip(reps, choice))) for choice in choices]


def _require(ok, *detail):
    """An assert that ``python -O`` keeps."""
    if not ok:
        raise AssertionError(*detail)


def run_suite(q, kappa, section_budget=24, inject_fault=False):
    """Run the full theorem suite on (q, kappa); returns [(name, ok, detail)]."""
    results = []

    def check(name, fn):
        try:
            fn()
            results.append((name, True, ""))
        except Exception as exc:  # any failure is a FAIL line, not a crash
            results.append((name, False, f"{type(exc).__name__}: {exc}"))

    skew = skew_product(q, kappa)
    if inject_fault:
        skew = _mutate_one_weight(skew)
    act = translation_action(q, kappa)

    def chk_action():
        bad = validate_action(skew, act)
        _require(not bad, *bad[:1])
        _require(is_free(skew, act))

    check("translation-action-free", chk_action)

    def chk_orbit():
        quot, _ = quotient_quiver(skew, act)
        iso = _first_factor_iso(q, kappa.group, skew, quot)
        _require(check_iso(quot, q, iso), "orbit quiver differs from base")

    check("skew-orbit-recovery", chk_orbit)

    def chk_gross_tucker():
        sections = all_sections(skew, act, section_budget)
        _require(sections, "no section within the budget")
        G, inv = kappa.group, kappa.group.inv
        first = _first_factor_iso(q, G, skew, quotient_quiver(skew, act)[0]).forward
        orbit = {x: o for o, x in first.vmap.items()}
        # The copy (x, g) is vertex i*|G| + j of the product for x at i and g at j.
        pair = dict(zip(skew.vertices, itertools.product(q.vertices, G.elements)))
        edges = [(o, q.edge(eid)) for o, eid in first.emap.items()]
        for section in sections:
            w = gross_tucker_reconstruct(skew, act, section)
            h = dict(map(pair.__getitem__, section.representative.values()))  # points (x, h_x)
            _require(w.phi == {v: (orbit[x], G.mul(inv(h[x]), g)) for v, (x, g) in pair.items()},
                     "phi differs from (orbit of x, h_x^-1 g)")
            _require(w.cocycle.map == {o: G.mul(G.mul(inv(h[e.rng]), kappa.value(e.id)), h[e.src])
                                       for o, e in edges}, "cocycle differs from kappa gauged by h")

    check("gross-tucker-roundtrip", chk_gross_tucker)

    def chk_descent_lift():
        n = kappa.group.order  # edge i of the product is a copy of edge i // |G| of q
        base = {e.id: q.edges[i // n].id for i, e in enumerate(skew.edges)}
        _require(lift_system(q, skew, act, base) == {e.id: e.weight for e in skew.edges},
                 "lifted base weights differ from the product's")

    check("measure-descent-lift", chk_descent_lift)

    if is_acyclic(q):
        G = kappa.group
        base = acyclic_block_structure(q)
        reg = set(regular_vertices(skew))

        def chk_blocks():
            direct = acyclic_block_structure(skew)
            coaction = BlockStructure.of(b for b in base.blocks for _ in G.elements)
            _require(direct == coaction, f"{direct.blocks} != {coaction.blocks}")
            _require(direct.total_dimension == G.order * base.total_dimension)

        check("block-multiset-identity", chk_blocks)

        def chk_morita():
            counts = path_counts(skew)
            v_orbits, _ = orbits(skew, act)
            sums = [sum(counts[u] for u in orb if u not in reg) for orb in v_orbits]
            fused = BlockStructure.of(n for n in sums if n)
            dual = BlockStructure.of(b * G.order for b in base.blocks)
            _require(fused == dual, f"{fused.blocks} != {dual.blocks}")

        check("dual-action-morita-shadow", chk_morita)

        def chk_graded():
            dims = graded_dimensions(q, kappa)
            # The copy at position i*|G| + j of the product lies in layer G.elements[j].
            layer = dict(zip(skew.vertices, itertools.cycle(G.elements)))
            into = _path_counts(skew, layer.__getitem__, lambda x, e: x)
            corner = sum(into[u][G.identity] ** 2 for u in skew.vertices if u not in reg)
            _require(dims[G.identity] == corner, f"{dims[G.identity]} != {corner}")
            _require(sum(dims.values()) == base.total_dimension)

        check("graded-dimension-sum", chk_graded)

    return results
