"""Finite groups by Cayley table, and their actions on quivers.

Actions are right actions stored as full per-element permutation tables:
``v . (g*h) == (v . g) . h``.  Every group in scope has order <= 120.  The
group and action laws are checked against a generating set S of the group
(|S| <= log2 |G|), not against all pairs or triples of elements, so
validation is O(|G|.|S|.(|V|+|E|)) for an action and O(|G|^2.|S|) for a
Cayley table.

An action's tables are read-only copies made when it is built, so what is
derived from an action and a quiver cannot go stale: ``validate_action``,
``is_free`` and ``orbits`` each compute once per (action, quiver object)
pair and answer later calls from a memo on the action.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType

MAX_ORDER = 120


class GroupError(ValueError):
    pass


class FiniteGroup:
    def __init__(self, elements, table, identity):
        self.elements = tuple(elements)
        self.table = {g: dict(row) for g, row in table.items()}
        self.identity = identity
        self._inv = {}
        for g in self.elements:
            for h in self.elements:
                if self.table[g][h] == identity:
                    self._inv[g] = h

    def mul(self, g, h):
        return self.table[g][h]

    def inv(self, g):
        return self._inv[g]

    @property
    def order(self):
        return len(self.elements)

    @cached_property
    def generators(self):
        """Generating set S: each element, in order, that is not yet in the
        subgroup the earlier ones generate.

        Every element is a product s1*s2*...*sk of members of S.  Each member
        at least doubles the subgroup generated so far, so |S| <= log2 |G|.
        Requires a total table whose values are elements.
        """
        gens = []
        reached = {self.identity}
        for g in self.elements:
            if g in reached:
                continue
            gens.append(g)
            reached = {self.identity}
            frontier = [self.identity]
            while frontier:
                h = frontier.pop()
                for s in gens:
                    hs = self.table[h][s]
                    if hs not in reached:
                        reached.add(hs)
                        frontier.append(hs)
        return tuple(gens)

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


def make_cyclic(n):
    """Cyclic group Z/n with elements "0".."n-1" under addition."""
    if not 1 <= n <= MAX_ORDER:
        raise GroupError(f"cyclic group order must be between 1 and {MAX_ORDER}")
    els = [str(i) for i in range(n)]
    table = {
        str(i): {str(j): str((i + j) % n) for j in range(n)} for i in range(n)
    }
    return FiniteGroup(els, table, "0")


def make_symmetric(n):
    """Symmetric group S_n (n <= 5) as one-line permutation words.

    Element "231" is the map 1->2, 2->3, 3->1; composition is
    "apply left, then right", matching the right-action convention.
    """
    if not 1 <= n <= 5:
        raise GroupError("symmetric group supported for 1 <= n <= 5")
    perms = sorted(itertools.permutations(range(n)))
    name = {p: "".join(str(i + 1) for i in p) for p in perms}
    table = {}
    for p in perms:
        row = {}
        for q in perms:
            comp = tuple(q[p[i]] for i in range(n))
            row[name[q]] = name[comp]
        table[name[p]] = row
    identity = name[tuple(range(n))]
    return FiniteGroup([name[p] for p in perms], table, identity)


def _read_only(table):
    """A read-only copy of a table {element -> {x -> x.g}}, inner maps too."""
    return MappingProxyType({g: MappingProxyType(dict(p)) for g, p in table.items()})


@dataclass(frozen=True)
class QuiverAction:
    """Right action of a finite group on a quiver, as permutation tables.

    The tables are read-only copies of the mappings passed in: assigning to
    ``a.vperm[g][v]`` raises ``TypeError``, and later changes to the caller's
    dicts do not reach the action.  The validation report, freeness and
    orbits on a quiver are memoised per quiver object (by identity; the memo
    holds a reference to the quiver), so each is computed once.
    """

    group: FiniteGroup
    vperm: Mapping  # element -> {vertex -> vertex}, read-only
    eperm: Mapping  # element -> {edge id -> edge id}, read-only
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vperm", _read_only(self.vperm))
        object.__setattr__(self, "eperm", _read_only(self.eperm))

    def act_v(self, v, g):
        return self.vperm[g][v]

    def act_e(self, eid, g):
        return self.eperm[g][eid]

    def _derived(self, q, compute):
        """compute(q, self), computed on the first call for this quiver
        object and taken from the memo after that."""
        facts = self._memo.setdefault(id(q), (q, {}))[1]
        if compute not in facts:
            facts[compute] = compute(q, self)
        return facts[compute]


def _composes(p, r, pr):
    """True iff pr[x] == r[p[x]] for every x, for permutations p, r, pr of
    one set (apply p, then r)."""
    if not p:
        return True
    # Both sides are tuples, or both single values when there is one x.
    return itemgetter(*p)(pr) == itemgetter(*p.values())(r)


def validate_action(q, a):
    """Check homomorphism, src/rng commuting, and exact weight equivariance.

    Returns a fresh list of violation strings, empty for a valid action; the
    check runs once per (action, quiver) pair.  Each element must act by a
    permutation and the identity as the identity.  The remaining laws are
    checked for g in G and s in the generating set S only: v.(g*s) ==
    (v.g).s for all g and s gives the law for all pairs by induction on the
    length of h as a word in S, and the commuting and weight laws then pass
    from S to products of its members.
    """
    return list(a._derived(q, _action_report))


def _action_report(q, a):
    """validate_action's report, computed afresh."""
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
                if not _composes(perms[g], perms[s], perms[gs]):
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


def is_free(q, a):
    """True iff no non-identity element fixes a vertex."""
    return a._derived(q, _is_free)


def _is_free(q, a):
    return not _fixes_some(a.group, a.vperm, q.vertices)


def edge_free(q, a):
    """Freeness on edges; implied by vertex freeness, asserted as a property."""
    return not _fixes_some(a.group, a.eperm, [e.id for e in q.edges])


def _fixes_some(G, perms, items):
    """True iff some non-identity element of G fixes one of ``items``."""
    return any(perms[g][x] == x for g in G.elements if g != G.identity for x in items)


def orbits(q, a):
    """G-orbit partitions of vertices and edges.

    Each orbit is a tuple sorted by input order with the canonical
    representative (least in input order) first; orbits are listed by their
    representative's input position.  The lists are fresh on every call.
    """
    v_orbits, e_orbits = a._derived(q, _orbits)
    return list(v_orbits), list(e_orbits)


def _orbits(q, a):
    """orbits, computed afresh."""
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
