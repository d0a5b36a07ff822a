"""Finite groups by Cayley table, and their actions on quivers.

Actions are right actions given by per-element permutation tables:
``v . (g*h) == (v . g) . h``.  Every group in scope has order <= 120.  The
group and action laws are checked against a generating set S of the group
(|S| <= log2 |G|; each member picked to generate the largest subgroup with
those before it, so S4 and S5 have two), not against all pairs or triples
of elements, so validation is O(|G|.|S|.(|V|+|E|)) for an action and
O(|G|^2.|S|) for a Cayley table.

An action holds read-only string tables, or integer tables (per element,
the image positions of a tuple of ids) behind a string view built when read.
All that it determines on a quiver is one private object per (action,
quiver object) pair, built once: the index view (per element, the image
indices of q's vertices and of its edges: integer tables in q's numbering
as they are, others translated in O(|G|.(|V|+|E|))), the validation report,
freeness, the orbits and, for a valid free action, the quotient and its
projection, which ``validate_action``, ``is_free``, ``orbits`` and ``skew``
read.  A table is searched for a repeated image only if a law fails: if the
identity acts as the identity and v.(g*s) == (v.g).s for all g and s in S,
t[g^-1] o t[g] = t[e] = id.  And a valid action is free iff each vertex
orbit has |G| points (orbit-stabiliser), so fixed points are searched for
only if it is invalid.
"""

import itertools
from collections import namedtuple
from collections.abc import Mapping
from functools import cache, cached_property
from operator import itemgetter, ne
from types import MappingProxyType

from .quiver import Edge, FiniteQuiver, QuiverMorphism

MAX_ORDER = 120


class GroupError(ValueError):
    pass


class FiniteGroup:
    """A group by its Cayley table, copied when built from rows that are mappings
    or (h, g*h) pairs.  Groups are shared values (``make_cyclic`` and
    ``make_symmetric`` return one object per n), so none may be mutated."""

    def __init__(self, elements, table, identity):
        self.elements = tuple(elements)
        self.table = {g: dict(row) for g, row in table.items()}
        self.identity = identity

    def mul(self, g, h):
        return self.table[g][h]

    def inv(self, g):
        return self._inverses[g]

    @cached_property
    def _inverses(self):  # on first use: validate_group reports a table that is not total
        return {g: h for g in self.elements for h in self.elements
                if self.table[g][h] == self.identity}

    @property
    def order(self):
        return len(self.elements)

    @cached_property
    def generators(self):
        """Generating set S: the first element that is not the identity, then
        each time the first element, in element order, that generates the
        largest subgroup together with those already chosen, until that is G.

        Every element is a product s1*s2*...*sk of members of S.  Each member
        at least doubles the subgroup generated so far, so |S| <= log2 |G|;
        S3 gives ('132', '213') and S4 ('1243', '2314').  Requires a total
        table whose values are elements.
        """
        gens, reached = [], {self.identity}
        while len(reached) < self.order:
            best = None
            for g in self.elements:
                if g not in reached:
                    span = self._span(gens + [g])
                    if best is None or len(span) > len(best[1]):
                        best = g, span
                    if not gens or len(span) == self.order:
                        break
            gens.append(best[0])
            reached = best[1]
        return tuple(gens)

    def _span(self, gens):
        """The subgroup that gens generate: the products s1*s2*...*sk of its members."""
        reached, frontier = {self.identity}, [self.identity]
        while frontier:
            row = self.table[frontier.pop()]
            for s in gens:
                if row[s] not in reached:
                    reached.add(row[s])
                    frontier.append(row[s])
        return reached

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def validate_group(g):
    """Check the group axioms; returns violation strings.

    Associativity is Light's test: (x*s)*y == x*(s*y) for all x, y and each
    s in the generating set.  The elements for which that holds are closed
    under products and contain S, so they are all of G.
    """
    report = []
    els = g.elements
    eset = set(els)
    if len(eset) != len(els):
        report.append("duplicate element ids")
    if g.identity not in eset:
        report.append("identity not among elements")
        return report
    for a in els:
        row = g.table.get(a)
        if row is None or set(row) != eset:
            report.append(f"table row for {a!r} is not total")
            return report
        if set(row.values()) != eset:
            report.append(f"table row for {a!r} is not a permutation")
        if g.table[g.identity][a] != a or g.table[a][g.identity] != a:
            report.append(f"identity law fails at {a!r}")
    cols = {b: {g.table[a][b] for a in els} for b in els}
    for b in els:
        if cols[b] != eset:
            report.append(f"table column for {b!r} is not a permutation")
    if report:
        return report
    t = g.table
    for s in g.generators:
        for x in els:
            xs = t[t[x][s]]
            for y in els:
                if xs[y] != t[x][t[s][y]]:
                    report.append(f"associativity fails at ({x!r},{s!r},{y!r})")
                    return report
    return report


@cache
def make_cyclic(n):
    """Cyclic group Z/n with elements "0".."n-1" under addition."""
    if isinstance(n, bool) or not 1 <= n <= MAX_ORDER:  # True would be a second Z/1
        raise GroupError(f"cyclic group order must be between 1 and {MAX_ORDER}")
    els = [str(i) for i in range(n)]
    table = {
        str(i): {str(j): str((i + j) % n) for j in range(n)} for i in range(n)
    }
    return FiniteGroup(els, table, "0")


@cache
def make_symmetric(n):
    """Symmetric group S_n (n <= 5) as one-line permutation words.

    Element "231" is the map 1->2, 2->3, 3->1; composition is
    "apply left, then right", matching the right-action convention.
    """
    if isinstance(n, bool) or not 1 <= n <= 5:  # True would be a second S1
        raise GroupError("symmetric group supported for 1 <= n <= 5")
    perms = sorted(itertools.permutations(range(n)))
    name = {p: "".join(str(i + 1) for i in p) for p in perms}
    table = {name[p]: {name[q]: name[tuple(q[i] for i in p)] for q in perms} for p in perms}
    identity = name[tuple(range(n))]
    return FiniteGroup([name[p] for p in perms], table, identity)


def _proxy(table):
    """A read-only copy of a table {element -> {x -> x.g}}, inner maps too; an
    inner table may be a mapping or an iterable of (x, x.g) pairs."""
    return MappingProxyType({g: MappingProxyType(dict(p)) for g, p in table.items()})


class _Tables(Mapping):
    """The read-only view {element -> {x -> x.g}} of integer tables over ``ids``, built
    on first read; it equals, and prints as, ``_proxy`` of the same tables."""

    __slots__ = ("ids", "tables", "_view")

    def __init__(self, ids, tables):
        self.ids, self.tables, self._view = ids, tables, None

    def __getitem__(self, g):
        if self._view is None:
            self._view = _proxy({h: zip(self.ids, _getter(t)(self.ids))
                                 for h, t in self.tables.items()})
        return self._view[g]

    def __iter__(self):
        return iter(self.tables)

    def __len__(self):
        return len(self.tables)

    def __repr__(self):
        return repr(_proxy(self))


class QuiverAction(namedtuple("QuiverAction", "group vperm eperm")):
    """Right action of a finite group on a quiver, as permutation tables.

    ``vperm`` maps each element to {vertex -> vertex}, ``eperm`` to {edge id
    -> edge id}.  The constructor makes the one read-only copy of the tables
    passed in, each a mapping or an iterable of (x, x.g) pairs, and keeps a
    ``_Tables`` as it is: assigning to ``a.vperm[g][v]`` raises ``TypeError``,
    and later changes to the caller's dicts do not reach the action.  Actions
    compare by (group, vperm, eperm), are not hashable, take no attribute
    assignment, and keep what they determine on a quiver (see the module
    docstring) in a memo keyed by the quiver's identity, which holds the quiver.
    """

    __hash__ = None

    def __new__(cls, group, vperm, eperm):
        a = tuple.__new__(cls, (group, *(t if isinstance(t, _Tables) else _proxy(t)
                                         for t in (vperm, eperm))))
        a.__dict__["_memo"] = {}
        return a

    @classmethod
    def _make(cls, iterable):  # so that _replace copies the tables and gives a memo too
        return cls(*iterable)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _getter(keys):
    """itemgetter(*keys), returning a tuple for any number of keys."""
    if len(keys) > 1:
        return itemgetter(*keys)
    return lambda m: tuple(m[k] for k in keys)


class _Side(namedtuple("_Side", "kind items pos tables")):
    """One side of the index view: ``kind`` is "vertex" or "edge", ``items`` the
    quiver's vertex (or edge) ids in input order, ``pos`` maps an id to its index
    in items, and ``tables`` an element to the tuple of image indices, in
    G.elements order."""

    __slots__ = ()

    def indexed(self, perms, elements):
        """Per element, its table as image indices: a ``_Tables`` over items as it is,
        else translated, or None if it is missing, maps other keys than the items
        or has an image that is no item.  Repeated images are not searched for."""
        if isinstance(perms, _Tables) and perms.ids == self.items:
            return perms.tables
        tables, n = {}, len(self.pos)
        for g in elements:
            p = perms.get(g)
            try:  # KeyError: an item without image, or an image that is no item;
                # TypeError: an image that cannot be a key
                t = None if p is None else _getter(_getter(self.items)(p))(self.pos)
            except (KeyError, TypeError):
                t = None
            tables[g] = t if t is not None and len(p) == n else None
        return tables

    def orbits(self):
        """``orbits`` of the items: the orbit of x is the set of column x of the tables,
        read for the first x of each orbit only."""
        seen, parts, tables = set(), [], self.tables.values()
        for x in itertools.filterfalse(seen.__contains__, range(len(self.items))):
            orbit = {t[x] for t in tables}
            seen.update(orbit)
            parts.append(_getter(sorted(orbit))(self.items))
        return parts


class _Facts:
    """All that the tables vperm and eperm of G determine on the quiver q, built once
    per (action, quiver) pair.  The index view: ``vertices`` and ``edges`` are a
    ``_Side`` each, numbered as ``q.index`` numbers them.  ``error`` names the
    first table (g outer, vertices first) that is not a permutation of q's items;
    then ``report`` is [error] and the rest is None.  Else ``report`` is
    validate_action's, ``free`` is freeness on vertices, ``orbits`` the vertex and
    edge orbits, and ``quotient`` and ``proj`` the orbit quiver and the projection
    onto it (None unless valid and free).
    """

    def __init__(self, q, G, vperm, eperm):
        self.quiver = q  # the memo is keyed by id(q): holding q keeps that id from being reused
        self.vertices, self.edges = sides = (
            _Side("vertex", q.vertices, q.index.pos, {}),
            _Side("edge", tuple(e.id for e in q.edges), q._edge_pos, {}))
        self.error = self.free = self.orbits = self.quotient = self.proj = None
        for side, perms in zip(sides, (vperm, eperm)):
            side.tables.update(side.indexed(perms, G.elements))
        self.report = None if any(None in side.tables.values() for side in sides) else (
            self._laws(q, G))
        for g, side in itertools.product(G.elements, sides) if self.report != [] else ():
            t = side.tables[g]  # only now may a table repeat an image (module docstring)
            if t is None or len(set(t)) != len(side.pos):
                self.error = (f"{side.kind} permutation for {g!r} is not a permutation of the "
                              + ("vertices" if side.kind == "vertex" else "edges"))
                self.report = [self.error]
                return
        self.orbits = self.vertices.orbits(), self.edges.orbits()
        self.free = (all(len(orb) == G.order for orb in self.orbits[0]) if not self.report
                     else all(all(map(ne, t, range(len(t))))  # no fixed point
                              for g, t in self.vertices.tables.items() if g != G.identity))
        if self.report or not self.free:
            return
        v_rep, e_rep = ({x: orb[0] for orb in parts for x in orb} for parts in self.orbits)
        # _laws found the weights equivariant, so each edge orbit has one weight and the
        # descent is well defined; the projection is a morphism since it builds the quotient.
        edges, epos = [], self.edges.pos
        for orb in self.orbits[1]:
            rep = q.edges[epos[orb[0]]]
            edges.append(Edge(orb[0], v_rep[rep.src], v_rep[rep.rng], rep.weight))
        self.quotient = FiniteQuiver([orb[0] for orb in self.orbits[0]], edges)
        self.proj = QuiverMorphism(v_rep, e_rep)

    def _laws(self, q, G):
        """validate_action's report on the tables; edges are named one by one only on failure."""
        report = []
        sides = self.vertices, self.edges
        if any(side.tables[G.identity] != tuple(range(len(side.items))) for side in sides):
            report.append("identity element does not act as the identity")
        for g in G.elements:
            for s in G.generators:
                gs = G.mul(g, s)
                for side in sides:
                    t = side.tables  # _getter(t[g])(t[s])[x] == t[s][t[g][x]], (x.g).s
                    if _getter(t[g])(t[s]) != t[gs]:
                        report.append(f"{side.kind} homomorphism law fails at ({g!r},{s!r})")
                        break
        ix = q.index
        src, rng, weight = ix.src, ix.rng, ix.weight
        of_src, of_rng = _getter(src), _getter(rng)
        for s in G.generators:
            vs, es = self.vertices.tables[s], self.edges.tables[s]
            at_image = _getter(es)
            if (at_image(src), at_image(rng), at_image(weight)) == (of_src(vs), of_rng(vs), weight):
                continue
            for i, (e, j) in enumerate(zip(q.edges, es)):
                if src[j] != vs[src[i]]:
                    report.append(f"source commuting fails for edge {e.id!r} under {s!r}")
                if rng[j] != vs[rng[i]]:
                    report.append(f"range commuting fails for edge {e.id!r} under {s!r}")
                if weight[j] != weight[i]:
                    report.append(f"weight equivariance fails for edge {e.id!r} under {s!r}")
        return report


def _facts(q, a):
    """The ``_Facts`` of a on q: built on the first call for this quiver object,
    taken from a's memo after that."""
    if id(q) not in a._memo:
        a._memo[id(q)] = _Facts(q, a.group, a.vperm, a.eperm)
    return a._memo[id(q)]


def _parsed_action(q, G, vperm, eperm):
    """The action of G whose tables are the dicts vperm and eperm, with its ``_Facts``
    on q built: its integer tables, or a copy of the strings if one is not a permutation."""
    facts = _Facts(q, G, vperm, eperm)
    a = QuiverAction(G, *(({g: t[g] for g in G.elements} for t in (vperm, eperm)) if facts.error
                          else (_Tables(s.items, s.tables) for s in (facts.vertices, facts.edges))))
    a._memo[id(q)] = facts
    return a


def validate_action(q, a):
    """Check homomorphism, src/rng commuting, and exact weight equivariance.

    Returns a fresh list of violation strings, empty for a valid action; the
    check runs once per (action, quiver) pair.  Each element must act by a
    permutation and the identity as the identity; the other laws are checked
    on G x S, which gives them on G x G by induction on word length in S.
    """
    return list(_facts(q, a).report)


def _permuting(q, a):
    """The ``_Facts`` of a on q; raises GroupError if a table is not a permutation of q's items."""
    facts = _facts(q, a)
    if facts.error:
        raise GroupError(f"invalid action: {facts.error}")
    return facts


def is_free(q, a):
    """True iff no non-identity element fixes a vertex; raises GroupError as ``orbits`` does."""
    return _permuting(q, a).free


def orbits(q, a):
    """G-orbit partitions of vertices and edges.

    Each orbit is a tuple sorted by input order with the canonical
    representative (least in input order) first; orbits are listed by their
    representative's input position.  The lists are fresh on every call.
    Raises GroupError if a table is not a permutation of q's items.
    """
    v_orbits, e_orbits = _permuting(q, a).orbits
    return list(v_orbits), list(e_orbits)
