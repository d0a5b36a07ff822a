"""Skew products, quotients, weight descent/lift, and the finite
Gross-Tucker reconstruction.

The skew product of a quiver by a cocycle kappa places G-many copies of
each vertex and edge: src(e,g) = (s(e), g), rng(e,g) = (r(e), kappa(e)*g),
weight(e,g) = weight(e).  Right translation in the second coordinate is a
free action whose quotient recovers the original quiver, and every free
action arises this way once a section of the vertex orbits is chosen.
The copies have one numbering: copy (x, h) of the vertex (or edge) at
position i, h at position j of G.elements, is vertex (or edge) i*|G| + j.
``_copies`` names them ``x@h`` in that order; ``skew_product`` writes the
product's index view from the base's as it builds its tuples; the
translation action's integer tables and the Gross-Tucker witness's codes
use the same numbering; and the first-factor map and ``verify``'s layer map
read x and h off a position.  ``quotient_quiver``, ``lift_system`` and
``gross_tucker_reconstruct`` pass one gate, ``_free``, and then read what
``group`` builds once per (action, quiver object) pair; the laws checked
there make the Gross-Tucker witness correct by construction.
"""

import itertools
from collections import Counter, namedtuple

from .quiver import Edge, FiniteQuiver, QuiverIso, QuiverMorphism
from .group import QuiverAction, _Tables, _facts, _getter, orbits


class SkewError(ValueError):
    pass


class Cocycle(namedtuple("Cocycle", "group map")):
    """Total map {edge id -> element id} into the elements of a FiniteGroup.
    No identity imposed."""

    __slots__ = ()

    def value(self, eid):
        try:
            return self.map[eid]
        except KeyError:
            raise SkewError(f"cocycle undefined on edge {eid!r}") from None


def skew_vertex_id(v, g):
    """``v@g``; distinct pairs get distinct ids if no vertex, or no element, has an "@"."""
    return f"{v}@{g}"


def skew_edge_id(eid, g):
    """``eid@g``; injective when ``skew_vertex_id`` is, with edges for vertices."""
    return f"{eid}@{g}"


def _may_name_alike(G):
    """True iff an element id has an "@": else the last "@" of a copy's id splits it."""
    return any("@" in h for h in G.elements)


def _copies(q, G):
    """The ids of the copies (x, h) in the skew product by G, named here once: the
    vertices', then the edges', with (x, h) at i*|G| + j for x at i and h at j of
    G.elements.  Raises SkewError if two get one id (an element id has an "@")."""
    copies = tuple(tuple(pair(x, h) for x in items for h in G.elements) for pair, items in (
        (skew_vertex_id, q.vertices), (skew_edge_id, [e.id for e in q.edges])))
    if _may_name_alike(G):
        for x, n in itertools.chain.from_iterable(Counter(ids).items() for ids in copies):
            if n > 1:
                raise SkewError(f"two copies in the skew product are named {x!r}")
    return copies


def skew_product(q, kappa):
    """The skew product quiver q x_kappa G with canonical pair ids v@g, e@g.

    Its index view's columns are written with its tuples, in the one numbering
    of the copies, and edge (e, g) has e's weight class in q's view."""
    G = kappa.group
    n, at = G.order, {h: j for j, h in enumerate(G.elements)}
    vids, eids = _copies(q, G)
    ix = q.index
    edges, src, rng = [], [], []
    for e, s, r in zip(q.edges, ix.src, ix.rng):
        k = kappa.value(e.id)
        if k not in at:
            raise SkewError(f"cocycle value for edge {e.id!r} is not a group element")
        times, s, r = G.table[k], s * n, r * n
        for j, g in enumerate(G.elements):
            a, b = s + j, r + at[times[g]]
            edges.append(Edge._make((eids[len(src)], vids[a], vids[b], e.weight)))
            src.append(a)
            rng.append(b)
    return FiniteQuiver._indexed(vids, tuple(edges), tuple(src), tuple(rng),
                                 tuple([c for c in ix.weight for _ in range(n)]),
                                 dict(ix.classes))


def translation_action(q, kappa):
    """Right translation (x, h).g = (x, hg) on skew_product(q, kappa), on the ids
    ``_copies`` gives, as integer tables: g sends the copy at i*|G| + j, for x at
    position i and h at j, to i*|G| + (the position of h*g)."""
    G = kappa.group
    n, at = G.order, {h: j for j, h in enumerate(G.elements)}
    right = {g: _getter([at[G.mul(h, g)] for h in G.elements]) for g in G.elements}
    views = []
    for ids in _copies(q, G):
        codes = list(range(len(ids)))  # each table holds these int objects
        rows = [codes[i:i + n] for i in range(0, len(codes), n)]  # the copies of one x
        views.append(_Tables(ids, {g: tuple(itertools.chain.from_iterable(map(moved, rows)))
                                   for g, moved in right.items()}))
    return QuiverAction(G, *views)


def _free(q, a, what):
    """What the action a determines on q (``group._Facts``), for a valid free
    action; raises SkewError if it is invalid, or not free (naming ``what``)."""
    facts = _facts(q, a)
    if facts.report:
        raise SkewError(f"invalid action: {facts.report[0]}")
    if not facts.free:
        raise SkewError(f"{what} requires a free action")
    return facts


def quotient_quiver(q, a):
    """Orbit quiver and the projection morphism onto it.

    Requires a valid free action: freeness makes the per-vertex edge fiber
    map to the quotient fiber bijective, so the descended weight of an edge
    orbit is the weight of any representative.  The quotient is built once
    per (action, quiver object) pair; each call returns fresh projection
    maps, so a caller that mutates them cannot reach later calls.
    """
    facts = _free(q, a, "quotient")
    return facts.quotient, QuiverMorphism(dict(facts.proj.vmap), dict(facts.proj.emap))


def lift_system(quot, total, a, edge_orbit_map):
    """Pull quotient weights back along the orbit map.

    ``edge_orbit_map`` sends each edge of ``total`` to a quotient edge id;
    it must name no other key, be constant on orbits and onto the quotient's
    edges, and the action must be valid and free.  Returns the lifted weight
    assignment {edge id -> Fraction}; lifted weights are constant on orbits,
    hence equivariant, and descend back to the quotient weights exactly.
    """
    _, e_orbits = _free(total, a, "lift").orbits
    quot_weights = {e.id: e.weight for e in quot.edges}
    for e in total.edges:
        if e.id not in edge_orbit_map:
            raise SkewError(f"orbit mismatch: edge {e.id!r} has no quotient edge")
    for eid in edge_orbit_map:
        if not total.has_edge(eid):
            raise SkewError(f"orbit mismatch: {eid!r} is not an edge")
    for orb in e_orbits:
        targets = {edge_orbit_map[eid] for eid in orb}
        if len(targets) != 1:
            raise SkewError(
                f"orbit mismatch: orbit of {orb[0]!r} maps to {sorted(targets, key=repr)}"
            )
        if next(iter(targets)) not in quot_weights:
            raise SkewError(f"orbit mismatch: unknown quotient edge {next(iter(targets))!r}")
    covered = {edge_orbit_map[e.id] for e in total.edges}
    if covered != set(quot_weights):
        raise SkewError("orbit mismatch: quotient edges not covered by the orbit map")
    return {e.id: quot_weights[edge_orbit_map[e.id]] for e in total.edges}


# Choice of one vertex per vertex orbit: {quotient vertex id -> total vertex id}.
Section = namedtuple("Section", "representative")


def default_section(q, a):
    """Least vertex id in each orbit (lexicographic)."""
    v_orbits, _ = orbits(q, a)
    return Section({orb[0]: min(orb) for orb in v_orbits})


# The quotient and Cocycle of q, and phi {vertex -> (quotient vertex, element)} and sigma
# {edge id -> (quotient edge id, element)}: an isomorphism q -> skew_product(quotient, cocycle).
GrossTuckerWitness = namedtuple("GrossTuckerWitness", "quotient cocycle phi sigma")


def gross_tucker_reconstruct(q, a, section=None):
    """Exhibit a free action as a skew product of its quotient.

    For each vertex v, g_v is the unique group element moving the chosen
    section point of v's orbit to v; phi(v) = (orbit(v), g_v) and
    sigma(e) = (orbit(e), g_{src(e)}).  The recovered cocycle value on an
    edge orbit is g_{rng(e0)} for the unique representative e0 whose source
    lies on the section.  Its quotient is the one quotient_quiver builds.

    The witness is a G-equivariant isomorphism onto quot x_kappa G (Gross and
    Tucker 1977) by construction, so it is not checked here.  ``_free`` has
    checked the identity law, the homomorphism law on G x S (so on G x G),
    source, range and weight equivariance on S (so on G), and freeness.  Then
    g_{v.h} = g_v*h, so phi is G-equivariant, and a bijection as each vertex
    orbit is free; an element fixing an edge fixes its source, so edge orbits
    are free and sigma, with g_{s(e.h)} = g_{s(e)}*h, is one too.  For e = e0.h,
    r(e) = r(e0).h gives g_{r(e)} = kappa(o)*g_{s(e)}, and e has e0's weight:
    the range and weight of the edge (o, g_{s(e)}) of quot x_kappa G.
    Raises SkewError, as skew_product(quot, kappa) would, if an "@" in an
    element id names two copies of the quotient's items alike.
    """
    facts = _free(q, a, "reconstruction")
    quot, proj = facts.quotient, facts.proj
    if section is None:
        section = default_section(q, a)
    rep = section.representative
    if set(rep) != set(quot.vertices):
        raise SkewError("section does not cover exactly the vertex orbits")
    for o, v in rep.items():
        if proj.vmap.get(v) != o:
            raise SkewError(f"section point {v!r} is not in orbit {o!r}")
    G = a.group
    if _may_name_alike(G):
        _copies(quot, G)  # refuses, as skew_product would, two copies named alike
    n, at = G.order, {g: j for j, g in enumerate(G.elements)}
    V, E, ix = facts.vertices, facts.edges, q.index
    # The code of (orbit(v), g_v), g_v the unique translator from the section point (freeness).
    points = map(V.pos.__getitem__, _getter(quot.vertices)(rep))
    code = {t[b]: o + at[g] for o, b in zip(range(0, len(quot.vertices) * n, n), points)
            for g, t in V.tables.items()}
    vcodes = _getter(range(len(V.items)))(code)
    e_orb = _getter(_getter(E.items)(proj.emap))({o.id: i * n for i, o in enumerate(quot.edges)})
    ecodes = tuple([o + c % n for o, c in zip(e_orb, _getter(ix.src)(vcodes))])
    ident = at[G.identity]  # kappa(o) = g_{rng(e0)}, e0 in o with g_{src(e0)} the identity
    kmap = {c // n: G.elements[vcodes[r] % n] for c, r in zip(ecodes, ix.rng) if c % n == ident}
    kappa = Cocycle(G, {o.id: kmap[i] for i, o in enumerate(quot.edges)})
    phi, sigma = (dict(zip(side.items, _getter(codes)(list(itertools.product(ids, G.elements)))))
                  for side, codes, ids in ((V, vcodes, quot.vertices),
                                           (E, ecodes, [o.id for o in quot.edges])))
    return GrossTuckerWitness(quot, kappa, phi, sigma)


def _first_factor_iso(q, G, skew, quot):
    """The first-factor map (x, g) -> x from the quotient of skew, q's skew product by
    G, under translation onto q: x is at position i of q for (x, g) at i*|G| + j."""
    n, pos, epos = G.order, skew.index.pos, skew._edge_pos
    return QuiverIso(QuiverMorphism({o: q.vertices[pos[o] // n] for o in quot.vertices},
                                    {o.id: q.edges[epos[o.id] // n].id for o in quot.edges}))
