"""Seeded benchmark inputs, built from the definitions alone.

Nothing here imports quiverskew.  Groups, skew products and translation
actions are constructed from their definitions, and the construction maps
(which skew-product vertex is which (v, g) pair) are kept, so the checks in
``checks.py`` compare the program against computations it took no part in.

A quiver here is the JSON document form the program reads:
``{"vertices": [...], "edges": [{"id", "src", "rng", "weight"}, ...]}``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction


class Group:
    """A finite group given by its multiplication table over element names."""

    def __init__(self, elements, mul, identity, doc):
        self.elements = list(elements)
        self._mul = mul
        self.identity = identity
        self.doc = doc
        self._inv = {a: b for a in self.elements for b in self.elements
                     if mul[a][b] == identity}

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        return self._inv[a]

    @property
    def order(self):
        return len(self.elements)


def cyclic(n):
    """Z/n with elements "0".."n-1" under addition (the program's naming)."""
    els = [str(i) for i in range(n)]
    mul = {str(i): {str(j): str((i + j) % n) for j in range(n)} for i in range(n)}
    return Group(els, mul, "0", {"kind": "cyclic", "n": n})


def symmetric(n):
    """S_n as one-line words; "ab" means apply a, then b (the program's convention)."""
    perms = sorted(itertools.permutations(range(n)))
    name = {p: "".join(str(i + 1) for i in p) for p in perms}
    mul = {name[p]: {name[q]: name[tuple(q[p[i]] for i in range(n))] for q in perms}
           for p in perms}
    return Group([name[p] for p in perms], mul, name[tuple(range(n))],
                 {"kind": "symmetric", "n": n})


def weight_str(f):
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def random_base(rng, nv, ne, acyclic=False):
    """A base quiver with random endpoints and random rational weights.

    Acyclic bases only have edges from a lower to a higher vertex index.
    """
    vertices = [f"v{i}" for i in range(nv)]
    edges = []
    for i in range(ne):
        if acyclic:
            a, b = sorted(rng.sample(range(nv), 2))
        else:
            a, b = rng.randrange(nv), rng.randrange(nv)
        w = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        edges.append({"id": f"e{i}", "src": vertices[a], "rng": vertices[b],
                      "weight": weight_str(w)})
    return {"vertices": vertices, "edges": edges}


def random_cocycle(rng, base, group):
    return {e["id"]: rng.choice(group.elements) for e in base["edges"]}


def cocycle_doc(group, kmap):
    return {"group": group.doc, "map": kmap}


def skew(base, kmap, group):
    """The skew product by definition, with the program's ids v@g and e@g.

    src(e, g) = (s(e), g), rng(e, g) = (r(e), kappa(e) g), same weight.
    """
    vertices = [f"{v}@{g}" for v in base["vertices"] for g in group.elements]
    edges = []
    for e in base["edges"]:
        k = kmap[e["id"]]
        for g in group.elements:
            edges.append({"id": f"{e['id']}@{g}", "src": f"{e['src']}@{g}",
                          "rng": f"{e['rng']}@{group.mul(k, g)}",
                          "weight": e["weight"]})
    return {"vertices": vertices, "edges": edges}


class Relabelled:
    """A skew product under opaque, shuffled ids, with its construction map.

    ``vorigin[x] = (v, g)`` and ``eorigin[y] = (e, g)`` name the base vertex
    or edge and the group element each opaque id stands for.
    """

    def __init__(self, rng, base, kmap, group):
        def fresh(prefix, used):
            while True:
                name = f"{prefix}{rng.getrandbits(40):010x}"
                if name not in used:
                    used.add(name)
                    return name

        used = set()
        pairs = [(v, g) for v in base["vertices"] for g in group.elements]
        rng.shuffle(pairs)
        self.vname = {p: fresh("n", used) for p in pairs}
        epairs = [(e["id"], g) for e in base["edges"] for g in group.elements]
        rng.shuffle(epairs)
        self.ename = {p: fresh("a", used) for p in epairs}
        self.vorigin = {x: p for p, x in self.vname.items()}
        self.eorigin = {y: p for p, y in self.ename.items()}
        edge = {e["id"]: e for e in base["edges"]}
        self.quiver = {
            "vertices": [self.vname[p] for p in pairs],
            "edges": [
                {"id": self.ename[(eid, g)],
                 "src": self.vname[(edge[eid]["src"], g)],
                 "rng": self.vname[(edge[eid]["rng"], group.mul(kmap[eid], g))],
                 "weight": edge[eid]["weight"]}
                for eid, g in epairs
            ],
        }
        self.group = group

    def act_v(self, x, g):
        """Right translation (v, h).g = (v, hg) on opaque vertex ids."""
        v, h = self.vorigin[x]
        return self.vname[(v, self.group.mul(h, g))]

    def act_e(self, y, g):
        e, h = self.eorigin[y]
        return self.ename[(e, self.group.mul(h, g))]

    def translation_action_doc(self):
        """The translation action as the program's action document."""
        G = self.group
        return {"group": G.doc,
                "vperm": {g: {x: self.act_v(x, g) for x in self.vorigin} for g in G.elements},
                "eperm": {g: {y: self.act_e(y, g) for y in self.eorigin} for g in G.elements}}


def k_theory_reproducer():
    """The 240-vertex input on which the program's Smith normal form stalls.

    Third draw of random.Random(1) over the cases (10,20,Z/6), (20,40,Z/6),
    (20,40,Z/12): edges (f"e{i}", choice(V), choice(V), 1), then one random
    group element per edge.  Fixed, so it does not depend on the run's seed.
    """
    rng = random.Random(1)
    drawn = []
    for nv, ne, n in [(10, 20, 6), (20, 40, 6), (20, 40, 12)]:
        vertices = [f"v{i}" for i in range(nv)]
        edges = [{"id": f"e{i}", "src": rng.choice(vertices),
                  "rng": rng.choice(vertices), "weight": "1"} for i in range(ne)]
        base = {"vertices": vertices, "edges": edges}
        group = cyclic(n)
        drawn.append((base, random_cocycle(rng, base, group), group))
    return drawn[2]


def digest(*objs):
    """Short content hash of generated inputs, to show two runs used the same ones."""
    h = hashlib.sha256()
    for obj in objs:
        h.update(json.dumps(obj, sort_keys=True).encode())
    return h.hexdigest()[:16]
