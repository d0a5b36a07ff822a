import itertools
import random
import signal
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

from quiverskew import (
    BlockStructure,
    Edge,
    FiniteQuiver,
    QuiverAction,
    QuiverIso,
    QuiverMorphism,
    make_cyclic,
    orbits,
    path_counts,
    quotient_quiver,
    regular_vertices,
    skew_product,
    translation_action,
)
from quiverskew import group as group_mod
from quiverskew import quiver as quiver_mod
from quiverskew.quiver import QuiverError
from quiverskew.skew import _first_factor_iso, skew_edge_id, skew_vertex_id
from quiverskew.randgen import random_cocycle


# Cayley table of a 5-element loop: identity 0 and a Latin square, but not
# associative: (1*1)*2 = 2 while 1*(1*2) = 4.
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def count_facts(monkeypatch):
    """Record every ``group._Facts`` built from now on: the list they are appended to."""
    built = []

    class Counted(group_mod._Facts):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(group_mod, "_Facts", Counted)
    return built


def check_morphism(src_q, dst_q, m):
    """True iff m commutes with both src and rng maps.

    Raises QuiverError if m references ids unknown to either quiver.
    """
    for kind, items, mapping, known in (
        ("vertex", src_q.vertices, m.vmap, set(dst_q.vertices).__contains__),
        ("edge", [e.id for e in src_q.edges], m.emap, dst_q.has_edge),
    ):
        for x in items:
            if x not in mapping:
                raise QuiverError(f"morphism undefined on {kind} {x!r}")
            if not known(mapping[x]):
                raise QuiverError(f"morphism maps {kind} {x!r} outside target")
    for e in src_q.edges:
        img = dst_q.edge(m.emap[e.id])
        if img.src != m.vmap[e.src]:
            return False
        if img.rng != m.vmap[e.rng]:
            return False
    return True


def check_skew_orbit(q, kappa):
    """Verify quotient(skew_product(q, kappa)) ~ q via first-factor projection.

    Returns the verified QuiverIso from the quotient onto q.  A failure
    here raises AssertionError: it indicates an implementation bug.
    """
    skew = skew_product(q, kappa)
    quot, _ = quotient_quiver(skew, translation_action(q, kappa))
    iso = _first_factor_iso(q, kappa.group, skew, quot)
    if not quiver_mod.check_iso(quot, q, iso):
        raise AssertionError("canonical skew-orbit isomorphism failed to verify")
    return iso


def witness_iso(w):
    """The Gross-Tucker witness w as a QuiverIso onto skew_product(w.quotient,
    w.cocycle): each pair of phi and sigma named by its id in the product."""
    return QuiverIso(QuiverMorphism(
        {v: skew_vertex_id(*p) for v, p in w.phi.items()},
        {e: skew_edge_id(*p) for e, p in w.sigma.items()}))


def edge_free(q, a):
    """Freeness on edges, which vertex freeness implies for a valid action (an
    element that fixes an edge fixes its source); raises GroupError as
    ``orbits`` does."""
    tables = group_mod._permuting(q, a).edges.tables
    return all(t[x] != x for g, t in tables.items() if g != a.group.identity
               for x in range(len(t)))


def mk(vertices, edges):
    """Shorthand quiver builder: edges as (id, src, rng, weight)."""
    return FiniteQuiver(
        vertices, [Edge(i, s, r, Fraction(w)) for i, s, r, w in edges]
    )


def random_base(n, m, seed):
    """B(n, m, seed): n vertices, m weight-1 edges with random endpoints,
    and the generator that drew them, for drawing the cocycle next."""
    rng = random.Random(seed)
    vs = [f"v{i}" for i in range(n)]
    return FiniteQuiver(vs, [Edge(f"e{i}", rng.choice(vs), rng.choice(vs), 1)
                             for i in range(m)]), rng


def trivial_action(q, group):
    """Every element of ``group`` acts on q as the identity."""
    idv = {v: v for v in q.vertices}
    ide = {e.id: e.id for e in q.edges}
    return QuiverAction(group, {g: dict(idv) for g in group.elements},
                        {g: dict(ide) for g in group.elements})


def brute_iso_exists(a, b):
    """Independent oracle: exhaustive search over all vertex bijections.

    A vertex bijection extends to a weight-preserving edge bijection iff the
    (src, rng, weight) multisets agree after relabeling.
    """
    if len(a.vertices) != len(b.vertices) or len(a.edges) != len(b.edges):
        return False
    cb = Counter((e.src, e.rng, e.weight) for e in b.edges)
    for vper in itertools.permutations(b.vertices):
        vmap = dict(zip(a.vertices, vper))
        ca = Counter((vmap[e.src], vmap[e.rng], e.weight) for e in a.edges)
        if ca == cb:
            return True
    return False


def paths_from(q, v):
    """Reference oracle: every directed path with source v, as a tuple of
    edge ids (trivial = ()), listed one by one.

    Requires an acyclic quiver.  A path extends on the left: e * p is a path
    when s(e) = r(p).
    """
    out = [()]
    stack = [((), v)]
    while stack:
        p, r = stack.pop()
        for e in q.out_edges(r):
            ext = (e.id,) + p
            out.append(ext)
            stack.append((ext, e.rng))
    return out


def path_range(q, p, source):
    return q.edge(p[0]).rng if p else source


def orbit_fused_blocks(q, kappa):
    """Blocks of the skew product's algebra crossed by the translation
    action: the path counts of its non-regular vertices, summed over each
    translation orbit."""
    skew = skew_product(q, kappa)
    counts = path_counts(skew)
    reg = set(regular_vertices(skew))
    v_orbits, _ = orbits(skew, translation_action(q, kappa))
    return BlockStructure.of(
        sum(counts[u] for u in orb) for orb in v_orbits if orb[0] not in reg
    )


def chain(length):
    """Chain(L): vertices v0..v{L-1}, three parallel weight-1 edges
    v_i -> v_{i+1}, and a seeded Z/4 cocycle.  Its algebra is one block of
    size (3^L - 1) / 2."""
    vertices = [f"v{i}" for i in range(length)]
    q = FiniteQuiver(vertices, [
        Edge(f"e{i}_{j}", vertices[i], vertices[i + 1], 1)
        for i in range(length - 1) for j in range(3)
    ])
    return q, random_cocycle(random.Random(0), q, make_cyclic(4))


@contextmanager
def deadline(seconds):
    """Fail, rather than hang, when the body runs past ``seconds``."""
    def expire(*_):
        raise TimeoutError(f"not done in {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
