"""Output checks written apart from the program.

Every check recomputes its answer from the definitions (or tests a property
the answer must have) with code that shares nothing with quiverskew, and
raises ``CheckError`` naming the first disagreement.  Quivers are handled in
a plain form, ``Plain``, built either from a JSON document or from the
program's ``FiniteQuiver`` attributes.
"""

from __future__ import annotations

from fractions import Fraction


class CheckError(AssertionError):
    pass


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


class Plain:
    """Vertices in order and edges as (id, src, rng, Fraction weight)."""

    def __init__(self, vertices, edges):
        self.vertices = list(vertices)
        self.edges = [(i, s, r, Fraction(w)) for i, s, r, w in edges]
        self.edge = {e[0]: e for e in self.edges}

    @classmethod
    def of_doc(cls, doc):
        return cls(doc["vertices"],
                   [(e["id"], e["src"], e["rng"], e["weight"]) for e in doc["edges"]])

    @classmethod
    def of_program(cls, q):
        return cls(q.vertices, [(e.id, e.src, e.rng, e.weight) for e in q.edges])

    def sources(self):
        """Vertices receiving no edge, in order."""
        hit = {r for _, _, r, _ in self.edges}
        return [v for v in self.vertices if v not in hit]

    def regular(self):
        hit = {r for _, _, r, _ in self.edges}
        return [v for v in self.vertices if v in hit]

    def out_edges(self):
        out = {v: [] for v in self.vertices}
        for e in self.edges:
            out[e[1]].append(e)
        return out


def _bijection(mapping, domain, codomain, what):
    require(set(mapping) == set(domain) and len(mapping) == len(domain),
            f"{what} is not defined exactly on its domain")
    image = list(mapping.values())
    require(len(set(image)) == len(image), f"{what} is not injective")
    require(set(image) == set(codomain), f"{what} is not onto")


# Skew products --------------------------------------------------------------

def check_skew(base, kmap, group, got):
    """``got`` must be the skew product by definition, ids v@g and e@g:
    src(e,g) = (s(e),g), rng(e,g) = (r(e), kappa(e) g), same weight."""
    require(len(got.vertices) == len(base.vertices) * group.order,
            "skew product has the wrong number of vertices")
    require(len(got.edges) == len(base.edges) * group.order,
            "skew product has the wrong number of edges")
    require(set(got.vertices) == {f"{v}@{g}" for v in base.vertices for g in group.elements},
            "skew product vertices are not the pairs (v, g)")
    require(len(got.edge) == len(got.edges), "skew product repeats an edge id")
    for eid, s, r, w in base.edges:
        k = kmap[eid]
        for g in group.elements:
            e = got.edge.get(f"{eid}@{g}")
            require(e is not None, f"skew product lacks edge {eid}@{g}")
            require(e[1] == f"{s}@{g}", f"edge {eid}@{g} has the wrong source")
            require(e[2] == f"{r}@{group.mul(k, g)}", f"edge {eid}@{g} has the wrong range")
            require(e[3] == w, f"edge {eid}@{g} has the wrong weight")


# Isomorphisms ---------------------------------------------------------------

def check_iso(a, b, vmap, emap):
    """vmap/emap must be bijections a -> b preserving endpoints and weights."""
    _bijection(vmap, a.vertices, b.vertices, "vertex map")
    _bijection(emap, a.edge, b.edge, "edge map")
    for eid, s, r, w in a.edges:
        _, s2, r2, w2 = b.edge[emap[eid]]
        require(s2 == vmap[s] and r2 == vmap[r], f"edge {eid} endpoints not preserved")
        require(w2 == w, f"edge {eid} weight not preserved")


# Gross-Tucker witnesses -----------------------------------------------------

def check_witness(total, relabelled, base, group, doc):
    """Check a reconstruct document against the translation action of
    ``relabelled`` (a ``gen.Relabelled``), from which it was made.

    ``phi``/``sigma`` must be bijections onto quotient x G obeying the skew
    product endpoint law for the returned cocycle and equivariant under the
    given action; the quotient must match ``base`` through the construction
    map the generator kept.
    """
    G = group
    quot = Plain.of_doc(doc["quotient"])
    kappa, phi, sigma = doc["cocycle"], doc["phi"], doc["sigma"]
    require(len(quot.vertices) * G.order == len(total.vertices),
            "quotient does not have |V|/|G| vertices")
    require(len(quot.edges) * G.order == len(total.edges),
            "quotient does not have |E|/|G| edges")
    require(set(kappa) == set(quot.edge) and set(kappa.values()) <= set(G.elements),
            "cocycle is not a map from quotient edges to the group")
    pairs_v = {x: tuple(p) for x, p in phi.items()}
    pairs_e = {y: tuple(p) for y, p in sigma.items()}
    _bijection(pairs_v, total.vertices,
               [(o, g) for o in quot.vertices for g in G.elements], "phi")
    _bijection(pairs_e, total.edge,
               [(o, g) for o in quot.edge for g in G.elements], "sigma")
    for y, s, r, w in total.edges:
        o, g = pairs_e[y]
        _, qs, qr, qw = quot.edge[o]
        require(pairs_v[s] == (qs, g), f"phi(src {y}) breaks the endpoint law")
        require(pairs_v[r] == (qr, G.mul(kappa[o], g)), f"phi(rng {y}) breaks the endpoint law")
        require(w == qw, f"edge {y} weight differs from its quotient edge")
    for h in G.elements:
        for x, (o, g) in pairs_v.items():
            require(pairs_v[relabelled.act_v(x, h)] == (o, G.mul(g, h)),
                    f"phi is not equivariant under {h}")
        for y, (o, g) in pairs_e.items():
            require(pairs_e[relabelled.act_e(y, h)] == (o, G.mul(g, h)),
                    f"sigma is not equivariant under {h}")
    # The quotient against the base, through the construction map.
    fv, fe = {}, {}
    for x, (o, _) in pairs_v.items():
        require(fv.setdefault(o, relabelled.vorigin[x][0]) == relabelled.vorigin[x][0],
                f"quotient vertex {o} covers two base vertices")
    for y, (o, _) in pairs_e.items():
        require(fe.setdefault(o, relabelled.eorigin[y][0]) == relabelled.eorigin[y][0],
                f"quotient edge {o} covers two base edges")
    _bijection(fv, quot.vertices, base.vertices, "quotient-to-base vertex map")
    _bijection(fe, quot.edge, base.edge, "quotient-to-base edge map")
    for o, s, r, w in quot.edges:
        _, bs, br, bw = base.edge[fe[o]]
        require((fv[s], fv[r], w) == (bs, br, bw), f"quotient edge {o} differs from the base")


def check_quotient(total, quot, vproj, eproj, group):
    """quotient_quiver's result: |V|/|G|, |E|/|G|, and the projection a
    weight-preserving morphism onto it with fibres of size |G|."""
    require(len(quot.vertices) * group.order == len(total.vertices),
            "quotient does not have |V|/|G| vertices")
    require(len(quot.edges) * group.order == len(total.edges),
            "quotient does not have |E|/|G| edges")
    require(set(vproj) == set(total.vertices) and set(eproj) == set(total.edge),
            "projection is not total")
    for fibre_of, ids in ((vproj, quot.vertices), (eproj, quot.edge)):
        sizes = {}
        for img in fibre_of.values():
            sizes[img] = sizes.get(img, 0) + 1
        require(set(sizes) == set(ids) and set(sizes.values()) == {group.order},
                "projection fibres are not the orbits")
    for y, s, r, w in total.edges:
        _, qs, qr, qw = quot.edge[eproj[y]]
        require((qs, qr, qw) == (vproj[s], vproj[r], w), f"projection breaks at edge {y}")


# K-theory -------------------------------------------------------------------

def k_theory_matrix(q):
    """Column v (regular) of M is e_v-weighted in-counts minus the unit:
    M[w][v] = #edges w -> v - [v == w]."""
    idx = {v: i for i, v in enumerate(q.vertices)}
    reg = q.regular()
    col = {v: c for c, v in enumerate(reg)}
    M = [[0] * len(reg) for _ in q.vertices]
    for _, s, r, _ in q.edges:
        M[idx[s]][col[r]] += 1
    for v in reg:
        M[idx[v]][col[v]] -= 1
    return M


def rank_q(M):
    """Rank over Q by fraction-free (Bareiss) elimination."""
    A = [list(row) for row in M]
    m, n = len(A), (len(A[0]) if A else 0)
    r, prev = 0, 1
    for c in range(n):
        piv = next((i for i in range(r, m) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        p = A[r][c]
        for i in range(r + 1, m):
            a = A[i][c]
            row, top = A[i], A[r]
            for j in range(c + 1, n):
                row[j] = (row[j] * p - a * top[j]) // prev
            row[c] = 0
        prev, r = p, r + 1
    return r


# Invariant factors are compared at each prime up to this p-adic valuation.
K = 8


def local_valuations(M, p):
    """p-adic valuations below K of the invariant factors of M, by
    elimination over Z/p^K with a pivot of least valuation each step."""
    mod = p ** K

    def val(x):
        v = 0
        while v < K and x % p == 0:
            x //= p
            v += 1
        return v

    A = [[x % mod for x in row] for row in M]
    rows, cols = list(range(len(A))), list(range(len(A[0]) if A else 0))
    out = []
    while True:
        best = None
        for i in rows:
            for j in cols:
                if A[i][j]:
                    v = val(A[i][j])
                    if best is None or v < best[0]:
                        best = (v, i, j)
                        if v == 0:
                            break
            if best and best[0] == 0:
                break
        if best is None:
            return out
        v, i, j = best
        out.append(v)
        unit_inv = pow(A[i][j] // p ** v, -1, mod)
        for i2 in rows:
            if i2 != i and A[i2][j]:
                f = (A[i2][j] // p ** v) * unit_inv % mod
                A[i2] = [(x - f * y) % mod for x, y in zip(A[i2], A[i])]
        rows.remove(i)
        cols.remove(j)


def _val(d, p):
    v = 0
    while d % p == 0:
        d //= p
        v += 1
    return v


def _prime_factors(n):
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def check_k_theory(q, factors, free_rank, k1_rank, primes=(2, 3, 5, 7)):
    """K0 = coker M and K1 = ker M: rank over Q gives the free rank of K0 and
    the rank of K1; at each small prime p, and each prime dividing a claimed
    factor, the p-parts of the invariant factors come from local elimination."""
    factors = list(factors)
    require(all(d >= 2 for d in factors), "an invariant factor is below 2")
    require(all(b % a == 0 for a, b in zip(factors, factors[1:])),
            "invariant factors do not form a divisibility chain")
    reg = q.regular()
    if not reg:
        require(factors == [] and free_rank == len(q.vertices) and k1_rank == 0,
                "K-theory of a quiver without regular vertices is wrong")
        return
    M = k_theory_matrix(q)
    r = rank_q(M)
    require(free_rank == len(q.vertices) - r, f"K0 free rank {free_rank} != {len(q.vertices) - r}")
    require(k1_rank == len(reg) - r, f"K1 rank {k1_rank} != {len(reg) - r}")
    ps = set(primes)
    for d in factors:
        ps |= _prime_factors(d)
    for p in sorted(ps):
        local = local_valuations(M, p)
        claimed = sorted(min(_val(d, p), K) for d in factors if d % p == 0)
        found = sorted(v for v in local if v > 0) + [K] * (r - len(local))
        require(claimed == sorted(found),
                f"invariant factors disagree at p={p}: {claimed} != {sorted(found)}")


# Acyclic algebras -----------------------------------------------------------

def path_counts(q):
    """N(v) = number of paths with source v (trivial path included), by DP."""
    out = q.out_edges()
    memo = {}

    def n(v):
        stack = [v]
        while stack:
            u = stack[-1]
            todo = [e[2] for e in out[u] if e[2] not in memo]
            if todo:
                stack.extend(todo)
                continue
            memo[u] = 1 + sum(memo[e[2]] for e in out[u])
            stack.pop()
        return memo[v]

    return {v: n(v) for v in q.vertices}


def check_blocks(skew_q, blocks, base, group):
    """One block per source, of size its path count; the skew product's total
    dimension is |G| times the base's."""
    N = path_counts(skew_q)
    want = sorted(N[w] for w in skew_q.sources())
    require(sorted(blocks) == want and list(blocks) == sorted(blocks),
            f"blocks {list(blocks)[:6]}... differ from path counts {want[:6]}...")
    NB = path_counts(base)
    require(sum(b * b for b in blocks) == group.order * sum(NB[w] ** 2 for w in base.sources()),
            "total dimension is not |G| times the base's")


def degree_counts(base, kmap, group):
    """P[u][g] = number of paths with source u and cocycle degree g, where a
    path e1...en (s(en) = u) has degree kappa(e1)...kappa(en)."""
    out = base.out_edges()
    N = path_counts(base)
    P = {}
    # The range of an out-edge of u has fewer paths than u: it comes first.
    for u in sorted(base.vertices, key=N.get):
        row = {group.identity: 1}
        for eid, _, r, _ in out[u]:
            k = kmap[eid]
            for h, c in P[r].items():
                g = group.mul(h, k)
                row[g] = row.get(g, 0) + c
        P[u] = row
    return P


def check_graded(base, kmap, group, dims, skew_q):
    """Graded dimensions from a degree-valued path-count DP, and the identity
    degree against the Kumjian-Pask corner: the paths of the skew product
    from each source that end in the identity layer, counted and squared."""
    P = degree_counts(base, kmap, group)
    want = {g: 0 for g in group.elements}
    for w in base.sources():
        for a, ca in P[w].items():
            for b, cb in P[w].items():
                g = group.mul(a, group.inv(b))
                want[g] += ca * cb
    require(dict(dims) == want, "graded dimensions differ from the degree DP")
    out = skew_q.out_edges()
    layer_e = {f"{v}@{group.identity}" for v in base.vertices}
    into = {}
    for v in sorted(skew_q.vertices, key=path_counts(skew_q).get):
        into[v] = (v in layer_e) + sum(into[e[2]] for e in out[v])
    corner = sum(into[w] ** 2 for w in skew_q.sources())
    require(dims[group.identity] == corner,
            f"identity degree {dims[group.identity]} != corner dimension {corner}")


# The command line -----------------------------------------------------------

def check_verify_lines(text, minimum=4):
    lines = text.splitlines()
    require(len(lines) >= minimum, f"verify printed {len(lines)} lines")
    bad = [ln for ln in lines if not ln.startswith("PASS ")]
    require(not bad, f"verify reported {bad[:1]}")


def check_invariants_doc(doc, base, kmap, group, skew_q):
    """`quiverskew invariants --cocycle` on an acyclic base; ``skew_q`` is the
    skew product built by definition."""
    require(doc["regular_vertices"] == base.regular(), "regular vertices differ")
    idx = {v: i for i, v in enumerate(base.vertices)}
    A = [[0] * len(base.vertices) for _ in base.vertices]
    for _, s, r, _ in base.edges:
        A[idx[r]][idx[s]] += 1
    require(doc["vertex_matrix"] == A, "vertex matrix differs")
    kt = doc["k_theory"]
    check_k_theory(base, kt["k0_invariant_factors"], kt["k0_free_rank"], kt["k1_rank"])
    require(doc["acyclic"] is True, "an acyclic base is reported cyclic")
    N = path_counts(base)
    require(doc["block_structure"] == sorted(N[w] for w in base.sources()),
            "block structure differs from path counts")
    check_graded(base, kmap, group, doc["graded_dimensions"], skew_q)
