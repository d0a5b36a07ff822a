"""Finite weighted quivers (directed multigraphs) and exact isomorphism search.

A quiver here is a finite directed multigraph whose edges carry strictly
positive rational weights.  All arithmetic is exact: weights are
``fractions.Fraction`` and every comparison is an equality of rationals,
never a float tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from collections import Counter


class QuiverError(ValueError):
    pass


class IsoBudgetExceeded(RuntimeError):
    """Raised when the backtracking isomorphism search exceeds its node budget."""


@dataclass(frozen=True)
class Edge:
    id: str
    src: str
    rng: str
    weight: Fraction

    def __post_init__(self):
        object.__setattr__(self, "weight", Fraction(self.weight))


class FiniteQuiver:
    """A finite quiver with ordered vertices/edges.

    Construction is permissive (so that ``validate_quiver`` can report
    problems); every other operation assumes a quiver that validates.
    Iteration order everywhere is the declared input order, which makes all
    downstream operations deterministic.
    """

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self.edges = tuple(
            e if isinstance(e, Edge) else Edge(*e) for e in edges
        )
        self._vset = set(self.vertices)
        self._edge_by_id = {}
        for e in self.edges:
            self._edge_by_id.setdefault(e.id, e)
        self._out = {v: [] for v in self.vertices}
        self._in = {v: [] for v in self.vertices}
        for e in self.edges:
            if e.src in self._out:
                self._out[e.src].append(e)
            if e.rng in self._in:
                self._in[e.rng].append(e)

    def has_vertex(self, v):
        return v in self._vset

    def edge(self, eid):
        return self._edge_by_id[eid]

    def has_edge(self, eid):
        return eid in self._edge_by_id

    def out_edges(self, v):
        return self._out[v]

    def in_edges(self, v):
        return self._in[v]

    def with_weights(self, weights):
        """Copy of this quiver with edge weights replaced by ``weights[eid]``."""
        return FiniteQuiver(
            self.vertices,
            [Edge(e.id, e.src, e.rng, weights[e.id]) for e in self.edges],
        )

    def __eq__(self, other):
        return (
            isinstance(other, FiniteQuiver)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"FiniteQuiver({len(self.vertices)} vertices, {len(self.edges)} edges)"


@dataclass(frozen=True)
class QuiverMorphism:
    """Vertex and edge maps into a target quiver."""

    vmap: dict
    emap: dict


@dataclass(frozen=True)
class QuiverIso:
    forward: QuiverMorphism


def validate_quiver(q):
    """Return a list of violation strings; empty means the quiver is valid."""
    report = []
    seen_v = set()
    for v in q.vertices:
        if v in seen_v:
            report.append(f"duplicate vertex id: {v!r}")
        seen_v.add(v)
    seen_e = set()
    for e in q.edges:
        if e.id in seen_e:
            report.append(f"duplicate edge id: {e.id!r}")
        seen_e.add(e.id)
        if e.src not in seen_v:
            report.append(f"dangling endpoint: edge {e.id!r} has src {e.src!r}")
        if e.rng not in seen_v:
            report.append(f"dangling endpoint: edge {e.id!r} has rng {e.rng!r}")
        if e.weight <= 0:
            report.append(f"nonpositive weight: edge {e.id!r} has weight {e.weight}")
    return report


def check_morphism(src_q, dst_q, m):
    """True iff m commutes with both src and rng maps.

    Raises QuiverError if m references ids unknown to either quiver.
    """
    for v in src_q.vertices:
        if v not in m.vmap:
            raise QuiverError(f"morphism undefined on vertex {v!r}")
        if not dst_q.has_vertex(m.vmap[v]):
            raise QuiverError(f"morphism maps vertex {v!r} outside target")
    for e in src_q.edges:
        if e.id not in m.emap:
            raise QuiverError(f"morphism undefined on edge {e.id!r}")
        if not dst_q.has_edge(m.emap[e.id]):
            raise QuiverError(f"morphism maps edge {e.id!r} outside target")
    for e in src_q.edges:
        img = dst_q.edge(m.emap[e.id])
        if img.src != m.vmap[e.src]:
            return False
        if img.rng != m.vmap[e.rng]:
            return False
    return True


def is_weight_preserving(src_q, dst_q, m):
    return all(
        dst_q.edge(m.emap[e.id]).weight == e.weight for e in src_q.edges
    )


def _bijection(m, dom, cod):
    return m.keys() == dom and set(m.values()) == cod and len(dom) == len(cod)


def check_iso(a, b, iso):
    """True iff ``iso.forward`` is a bijection a -> b on vertices and on
    edges that commutes with src and rng and keeps weights.

    Its inverse is then an isomorphism b -> a.  A partial map, or one that
    is not a bijection onto b, gives False.
    """
    f = iso.forward
    return (
        _bijection(f.vmap, set(a.vertices), set(b.vertices))
        and _bijection(f.emap, {e.id for e in a.edges}, {e.id for e in b.edges})
        and check_morphism(a, b, f)
        and is_weight_preserving(a, b, f)
    )


def _vertex_signature(q, v):
    out_w = tuple(sorted(e.weight for e in q.out_edges(v)))
    in_w = tuple(sorted(e.weight for e in q.in_edges(v)))
    loop_w = tuple(sorted(e.weight for e in q.out_edges(v) if e.rng == v))
    return (len(out_w), len(in_w), out_w, in_w, loop_w)


def _pair_weights(q):
    """Weight multiset of parallel edges, keyed by (src, rng)."""
    table = {}
    for e in q.edges:
        table.setdefault((e.src, e.rng), Counter())[e.weight] += 1
    return table


def iso_search(a, b, budget=200_000):
    """Find a weight-preserving isomorphism a -> b, or return None.

    Backtracking over vertex assignments, pruning by (degree, weight
    multiset) signatures and by exact parallel-edge weight multisets between
    already-assigned vertex pairs.  Deterministic given input order.
    """
    if len(a.vertices) != len(b.vertices) or len(a.edges) != len(b.edges):
        return None
    sig_a = {v: _vertex_signature(a, v) for v in a.vertices}
    sig_b = {v: _vertex_signature(b, v) for v in b.vertices}
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return None
    pw_a = _pair_weights(a)
    pw_b = _pair_weights(b)

    candidates = {
        v: [w for w in b.vertices if sig_b[w] == sig_a[v]] for v in a.vertices
    }
    order = sorted(a.vertices, key=lambda v: len(candidates[v]))
    assignment = {}
    used = set()
    nodes = [0]

    def consistent(v, w):
        # Parallel-edge weight multisets must match against every vertex
        # already placed, in both directions.
        for u, x in assignment.items():
            if pw_a.get((v, u)) != pw_b.get((w, x)):
                return False
            if pw_a.get((u, v)) != pw_b.get((x, w)):
                return False
        if pw_a.get((v, v)) != pw_b.get((w, w)):
            return False
        return True

    def backtrack(i):
        nodes[0] += 1
        if nodes[0] > budget:
            raise IsoBudgetExceeded(f"iso_search exceeded budget of {budget} nodes")
        if i == len(order):
            return True
        v = order[i]
        for w in candidates[v]:
            if w in used:
                continue
            if not consistent(v, w):
                continue
            assignment[v] = w
            used.add(w)
            if backtrack(i + 1):
                return True
            del assignment[v]
            used.remove(w)
        return False

    if not backtrack(0):
        return None

    # Extend the vertex bijection to edges: within each
    # (src, rng, weight) class, pair edges in input order.
    emap = {}
    pool = {}
    for e in b.edges:
        pool.setdefault((e.src, e.rng, e.weight), []).append(e.id)
    for e in a.edges:
        key = (assignment[e.src], assignment[e.rng], e.weight)
        emap[e.id] = pool[key].pop(0)

    iso = QuiverIso(QuiverMorphism(dict(assignment), emap))
    assert check_iso(a, b, iso)
    return iso
