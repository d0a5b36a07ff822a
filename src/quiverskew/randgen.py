"""Seeded random fixtures for the verification driver and the test suite."""

import random
from fractions import Fraction

from .quiver import Edge, FiniteQuiver
from .group import make_cyclic, make_symmetric
from .skew import Cocycle


def standard_groups():
    """The group zoo used across the randomized suites: Z/2..Z/6 and S3."""
    return [
        make_cyclic(2),
        make_cyclic(3),
        make_cyclic(4),
        make_cyclic(6),
        make_symmetric(3),
    ]


def random_weight(rng):
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def random_quiver(rng, max_vertices=8, max_edges=16):
    nv = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(nv)]
    ne = rng.randint(0, max_edges)
    edges = [
        Edge(f"e{i}", rng.choice(vertices), rng.choice(vertices), random_weight(rng))
        for i in range(ne)
    ]
    return FiniteQuiver(vertices, edges)


def random_acyclic_quiver(rng, max_vertices=8, max_edges=12):
    nv = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(nv)]
    edges = []
    ne = rng.randint(0, max_edges)
    # Edges only run downward in the vertex order, so no cycles.
    for i in range(ne):
        if nv < 2:
            break
        a, b = sorted(rng.sample(range(nv), 2))
        edges.append(Edge(f"e{i}", vertices[a], vertices[b], random_weight(rng)))
    return FiniteQuiver(vertices, edges)


def random_cocycle(rng, q, group):
    return Cocycle(group, {e.id: rng.choice(group.elements) for e in q.edges})


def random_group(rng):
    return rng.choice(standard_groups())
