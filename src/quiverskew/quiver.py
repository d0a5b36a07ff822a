"""Finite weighted quivers (directed multigraphs) and exact isomorphism search.

A quiver here is a finite directed multigraph whose edges carry strictly
positive rational weights.  All arithmetic is exact: weights are
``fractions.Fraction`` and every comparison is an equality of rationals,
never a float tolerance.  A quiver's integer view ``index`` is assembled here
only, on first use or from the columns a builder writes (``FiniteQuiver._indexed``),
and ``validate_quiver`` decides every quiver from it.
"""

from fractions import Fraction
from collections import deque, namedtuple
from functools import cached_property


class QuiverError(ValueError):
    pass


class IsoBudgetExceeded(RuntimeError):
    """Raised when the isomorphism search needs more nodes than its budget.

    ``nodes`` is the number of nodes it had used when it stopped.
    """

    def __init__(self, nodes, budget):
        super().__init__(f"iso_search used {nodes} nodes, over its budget of {budget}")
        self.nodes = nodes


class Edge(namedtuple("Edge", "id src rng weight")):
    """An edge: its id, source, range and weight.

    A weight given as a ``Fraction`` is kept as that object, so interned
    weights stay shared; anything else goes through ``Fraction(...)``.
    ``_make`` and ``_replace`` build the tuple directly and skip that
    coercion.
    """

    __slots__ = ()

    def __new__(cls, id, src, rng, weight):
        if not isinstance(weight, Fraction):
            weight = Fraction(weight)
        return tuple.__new__(cls, (id, src, rng, weight))


class FiniteQuiver:
    """A finite quiver: its ``vertices`` and ``edges``, as tuples in input order.

    Construction is permissive (so that ``validate_quiver`` can report
    problems); every other operation assumes a quiver that validates.
    Iteration order everywhere is the declared input order, which makes all
    downstream operations deterministic.  ``index`` is built on first use,
    unless the builder that numbered the quiver hands its columns over (``_indexed``).
    """

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self.edges = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges)

    @cached_property
    def index(self):
        """The quiver numbered once, for every layer that reads it by position: ``pos``
        maps a vertex to its index; per edge, ``src`` and ``rng`` give its ends' indices
        and ``weight`` its class, where ``classes`` numbers each (numerator, denominator)
        in order of first use; ``out`` lists per vertex its out-edges' positions."""
        pos = {v: i for i, v in enumerate(self.vertices)}
        _, srcs, rngs, weights = zip(*self.edges) if self.edges else ((),) * 4
        src, rng = (tuple(map(pos.__getitem__, ends)) for ends in (srcs, rngs))
        classes = {}
        weight = tuple(classes.setdefault(w.as_integer_ratio(), len(classes)) for w in weights)
        return _index(self.vertices, pos, src, rng, weight, classes)

    @classmethod
    def _indexed(cls, vertices, edges, src, rng, weight, classes):
        """The quiver of the tuples ``vertices`` and ``edges`` (of ``Edge``) and its view
        of these columns (see ``index``), for a builder that numbers them as it builds them."""
        q = cls.__new__(cls)
        q.vertices, q.edges = vertices, edges
        q.index = _index(vertices, {v: i for i, v in enumerate(vertices)},
                         src, rng, weight, classes)
        return q

    @cached_property
    def _edge_pos(self):
        """{edge id: position}; a repeated id names its first edge."""
        return {e.id: i for i, e in reversed(list(enumerate(self.edges)))}

    def edge(self, eid):
        return self.edges[self._edge_pos[eid]]

    def has_edge(self, eid):
        return eid in self._edge_pos

    def out_edges(self, v):
        """A fresh list of the edges with source v, in input order."""
        return [self.edges[i] for i in self.index.out[self.index.pos[v]]]

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


# Vertex and edge maps {id -> id} into a target quiver.
QuiverMorphism = namedtuple("QuiverMorphism", "vmap emap")
# An isomorphism, by its forward QuiverMorphism.
QuiverIso = namedtuple("QuiverIso", "forward")
_Index = namedtuple("_Index", "pos src rng weight classes out")


def _index(vertices, pos, src, rng, weight, classes):
    """The view of these columns, with ``out`` listed from ``src``, one entry per vertex."""
    out = [[] for _ in vertices]
    for i, s in enumerate(src):
        out[s].append(i)
    return _Index(pos, src, rng, weight, classes, tuple(map(tuple, out)))


def validate_quiver(q):
    """Return a list of violation strings; empty means the quiver is valid.

    The quiver is decided from its index view: the view exists only if every
    endpoint is a vertex, and a repeated id shrinks ``pos`` or ``_edge_pos``.  The
    items are named one by one only when that finds a fault, or without a view.
    """
    try:
        ix = q.index
    except KeyError:  # a dangling endpoint
        ix = None
    if (ix and len(ix.pos) == len(q.vertices) and len(q._edge_pos) == len(q.edges)
            and all(n > 0 for n, _ in ix.classes)):
        return []
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
        if e.weight.numerator <= 0:  # a Fraction's denominator is positive
            report.append(f"nonpositive weight: edge {e.id!r} has weight {e.weight}")
    return report


def _bijection(m, dom, cod):
    return m.keys() == dom and set(m.values()) == cod and len(dom) == len(cod)


def check_iso(a, b, iso):
    """True iff ``iso.forward`` is a bijection a -> b on vertices and on
    edges that carries a's edge table (source, range, weight) onto b's.

    Its inverse is then an isomorphism b -> a.  A partial map, or one that
    is not a bijection onto b, gives False.
    """
    f = iso.forward
    return (
        _bijection(f.vmap, set(a.vertices), set(b.vertices))
        and _bijection(f.emap, {e.id for e in a.edges}, {e.id for e in b.edges})
        and {f.emap[e.id]: (f.vmap[e.src], f.vmap[e.rng], e.weight) for e in a.edges}
        == {e.id: (e.src, e.rng, e.weight) for e in b.edges}
    )


class _Colouring:
    """An ordered partition of the vertices 0..2n-1 of a ⊔ b (a's first),
    refined jointly so that a colour means the same thing on both sides.

    ``lab`` lists the vertices cell by cell: a cell is ``lab[s:s + size[s]]``
    and ``cell[v]`` is the start s of v's cell.  Cells only ever split, and
    ``trail`` holds the start of every cell a split made, so ``undo`` can
    merge back to any earlier colouring without copying it.  ``adj[v]`` lists
    ``(u, code)`` per edge between v and u, where code is +w for an edge
    u -> v of weight id w and -w for v -> u: what u sees of v.
    """

    def __init__(self, n, adj):
        self.n, self.adj = n, adj
        self.lab = list(range(2 * n))
        self.pos = list(range(2 * n))
        self.cell = [0] * (2 * n)
        self.size = [2 * n] + [0] * (2 * n - 1) if n else []
        self.queued = [False] * (2 * n)
        self.trail = []

    def refine(self, splitters):
        """Refine to the stable colouring, starting from the cells at
        ``splitters``.  Returns False as soon as some colour has unequal
        numbers of a- and b-vertices: no isomorphism keeps that colouring."""
        lab, adj, cell, size, queued = self.lab, self.adj, self.cell, self.size, self.queued
        queue = deque(splitters)
        for s in splitters:
            queued[s] = True
        while queue:
            s = queue.popleft()
            queued[s] = False
            codes = {}
            for i in range(s, s + size[s]):
                for u, c in adj[lab[i]]:
                    codes.setdefault(u, []).append(c)
            touched = {}
            for u in codes:
                touched.setdefault(cell[u], []).append(u)
            for c, us in touched.items():
                if not self._split(c, us, codes, queue):
                    for t in queue:
                        queued[t] = False
                    return False
        return True

    def _split(self, c, us, codes, queue):
        """Split cell c by the codes its members ``us`` see in the splitter:
        untouched members keep start c, then one cell per code multiset in
        sorted order.  Queues all new cells if c was queued, else all but the
        largest (Hopcroft): the colouring is already stable with respect to c,
        so the split by its largest part follows from the others."""
        lab, pos, cell, size, n = self.lab, self.pos, self.cell, self.size, self.n
        groups = {}
        for u in us:
            groups.setdefault(tuple(sorted(codes[u])), []).append(u)
        if len(groups) == 1 and len(us) == size[c]:
            return True
        if any(2 * sum(u < n for u in g) != len(g) for g in groups.values()):
            return False
        k = c + size[c]
        for u in us:
            k -= 1
            j, w = pos[u], lab[k]
            lab[j], pos[w] = w, j
        size[c] = k - c
        parts = [c] if k > c else []
        for key in sorted(groups):
            g = groups[key]
            size[k] = len(g)
            parts.append(k)
            if k != c:
                self.trail.append(k)
            for i, u in enumerate(g, k):
                lab[i], pos[u], cell[u] = u, i, k
            k += len(g)
        if self.queued[c]:
            parts.remove(c)  # c's queue entry now stands for its first part
        else:
            parts.remove(max(parts, key=size.__getitem__))
        for p in parts:
            self.queued[p] = True
            queue.append(p)
        return True

    def individualise(self, x, y):
        """Give a-vertex x and b-vertex y of one cell a colour of their own,
        at the back of that cell, and refine."""
        lab, pos, cell, size = self.lab, self.pos, self.cell, self.size
        t = cell[x]
        s = t + size[t] - 2
        for v, i in ((x, s), (y, s + 1)):
            j, w = pos[v], lab[i]
            lab[j], pos[w] = w, j
            lab[i], pos[v] = v, i
            cell[v] = s
        size[t] -= 2
        size[s] = 2
        self.trail.append(s)
        return self.refine([s])

    def undo(self, mark):
        """Merge every cell made since ``len(trail)`` was ``mark`` back into
        the cell it split from (the one before it in ``lab``)."""
        lab, cell, size, trail = self.lab, self.cell, self.size, self.trail
        while len(trail) > mark:
            s = trail.pop()
            p = cell[lab[s - 1]]
            for v in lab[s:s + size[s]]:
                cell[v] = p
            size[p] += size[s]

    def target(self):
        """Start of the first smallest cell with more than one a-vertex, or
        None when every cell is one (a, b) pair."""
        size, best, s = self.size, None, 0
        while s < len(size):
            k = size[s]
            if k > 2 and (best is None or k < size[best]):
                best = s
                if k == 4:
                    break
            s += k
        return best


def _same_component_shapes(adj, n):
    """True iff a (vertices 0..n-1 of adj) and b (n..2n-1) have the same
    sorted (vertex count, edge count) of their weakly connected components."""
    seen = [False] * (2 * n)
    shapes = ([], [])
    for root in range(2 * n):
        if seen[root]:
            continue
        seen[root] = True
        stack, nv, ends = [root], 0, 0
        while stack:
            v = stack.pop()
            nv += 1
            ends += len(adj[v])
            for u, _ in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        shapes[root >= n].append((nv, ends // 2))
    return sorted(shapes[0]) == sorted(shapes[1])


def iso_search(a, b, budget=200_000):
    """Find a weight-preserving isomorphism a -> b, or return None.

    Individualise-refine (McKay and Piperno, *Practical Graph Isomorphism
    II*, 2014) on the vertices of a ⊔ b.  Colour refinement splits colours
    by the exact multiset of (direction, weight) of edges into each colour
    until the colouring is stable; a colour with unequal numbers of a- and
    b-vertices ends the branch.  While some colour has more than one
    a-vertex, the search takes the smallest such colour and its first
    a-vertex x, and tries each b-vertex y in it in turn: a *node* is one
    such choice, giving x and y a colour of their own and refining again.
    Every isomorphism that keeps the colours maps x into the colour, so no
    branch that could succeed is skipped.  Each node adds one pair, so a
    branch ends within |V| nodes and the tree is finite; more than
    ``budget`` nodes raises ``IsoBudgetExceeded``.  The first leaf, where
    each colour is one (a, b) pair, is the answer: as the colouring is
    stable, for any pairs (x, y) and (x', y') the edges between x and x' have
    the directions and weights of those between y and y'.  So the vertex
    bijection f carries a's edge multiset onto b's, and each edge of a takes
    an unused edge of b of the same (f(src), f(rng), weight), in input order.
    Deterministic given input order.  Weights are read as the classes of a's
    ``index``, so a weight of b that a lacks gives None at once.

    Before it first backtracks, the search returns None unless a and b have
    the same multiset of weakly connected component shapes (vertex and edge
    counts), which every isomorphism keeps; a search that never backtracks
    skips that O(|V|+|E|) pass.  Beyond that there is no automorphism
    pruning: on a symmetric pair that is not isomorphic but has equal
    component shapes, the tree can grow factorially until the budget stops
    it.
    """
    n = len(a.vertices)
    if n != len(b.vertices) or len(a.edges) != len(b.edges):
        return None
    ia, ib = a.index, b.index
    # A weight's code is its class in a plus 1, so that +w and -w differ.
    codes = range(1, len(ia.classes) + 1), [ia.classes.get(k, -1) + 1 for k in ib.classes]
    if 0 in codes[1]:  # a weight of b that a lacks
        return None
    adj = [[] for _ in range(2 * n)]
    triples = ([], [])
    for side, ix in enumerate((ia, ib)):
        for s, r, c in zip(ix.src, ix.rng, ix.weight):
            s, r, w = s + side * n, r + side * n, codes[side][c]
            adj[s].append((r, -w))
            adj[r].append((s, w))
            triples[side].append((s, r, w))

    col = _Colouring(n, adj)
    alive = n == 0 or col.refine([0])
    stack = []  # per branching node: [trail mark, a-vertex x, last y tried]
    nodes = 0
    shapes_compared = False
    while True:
        if alive:
            t = col.target()
            if t is None:
                break
            stack.append([len(col.trail), min(col.lab[t:t + col.size[t]]), n - 1])
        if not stack:
            return None
        frame = stack[-1]
        mark, x, last = frame
        if last >= n and not shapes_compared:  # about to backtrack
            if not _same_component_shapes(adj, n):
                return None
            shapes_compared = True
        col.undo(mark)
        t = col.cell[x]
        y = min((v for v in col.lab[t:t + col.size[t]] if v > last), default=None)
        if y is None:
            stack.pop()
            alive = False
            continue
        frame[2] = y
        nodes += 1
        if nodes > budget:
            raise IsoBudgetExceeded(nodes, budget)
        alive = col.individualise(x, y)

    # Pair the edges of each (src, rng, weight) class in input order.
    f = {min(p): max(p) for p in zip(col.lab[::2], col.lab[1::2])}
    pool = {}
    for e, key in zip(reversed(b.edges), reversed(triples[1])):
        pool.setdefault(key, []).append(e.id)
    emap = {e.id: pool[f[s], f[r], w].pop() for e, (s, r, w) in zip(a.edges, triples[0])}
    vmap = {v: b.vertices[f[i] - n] for i, v in enumerate(a.vertices)}
    return QuiverIso(QuiverMorphism(vmap, emap))
