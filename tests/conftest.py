import itertools
from collections import Counter
from fractions import Fraction

from quiverskew import Edge, FiniteQuiver


# Cayley table of a 5-element loop: identity 0 and a Latin square, but not
# associative: (1*1)*2 = 2 while 1*(1*2) = 4.
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def mk(vertices, edges):
    """Shorthand quiver builder: edges as (id, src, rng, weight)."""
    return FiniteQuiver(
        vertices, [Edge(i, s, r, Fraction(w)) for i, s, r, w in edges]
    )


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
