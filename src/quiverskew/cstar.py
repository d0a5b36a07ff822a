"""Finite-dimensional and K-theoretic invariants of quiver algebras.

For a finite acyclic quiver the algebra is a direct sum of matrix blocks,
one per vertex receiving no edge, of size equal to the number of directed
paths emanating from that vertex.  For arbitrary finite quivers the
K-groups come from the Smith normal form of the vertex matrix minus the
identity, restricted to regular columns.  That matrix is very sparse and
most of its entries are +-1, so ``k_theory`` first eliminates unit pivots
on the sparse matrix: those alone in their row or column, which make no
fill-in, from a worklist, and the rest from a heap in rough Markowitz order.
Only then does it run the dense Smith normal form, on the small residual
the unit pivots leave.  Weights never enter: these invariants depend only
on the underlying multigraph.

Paths are counted, never listed: one pass in reverse topological order
gives, for each vertex, the number of paths from it, or of each degree.  The
block checks in ``verify`` compare a skew product's counts with the base's:
its blocks, its counts summed over translation orbits, and its counts into
the identity layer (see there).

Path convention: a path p = e1 e2 ... en has s(e_i) = r(e_{i+1}),
s(p) = s(en), r(p) = r(e1); the trivial path at v has s = r = v.
A cocycle extends to paths by kappa(p) = kappa(e1) * ... * kappa(en).
"""

import heapq
from collections import Counter, namedtuple


class CStarError(ValueError):
    pass


def _topological_order(q):
    """The vertex indices with every edge's source before its range (Kahn's
    algorithm), or None when the quiver has a directed cycle."""
    n, out, rng = len(q.vertices), q.index.out, q.index.rng
    indeg = [0] * n
    for r in rng:
        indeg[r] += 1
    order = [v for v in range(n) if not indeg[v]]
    for v in order:  # grows while it is read
        for i in out[v]:
            r = rng[i]
            indeg[r] -= 1
            if not indeg[r]:
                order.append(r)
    return order if len(order) == n else None


def is_acyclic(q):
    """True iff the quiver has no directed cycle."""
    return _topological_order(q) is not None


def regular_vertices(q):
    """Vertices receiving at least one edge, in input order."""
    return tuple(map(q.vertices.__getitem__, sorted(set(q.index.rng))))


def vertex_matrix(q):
    """A[v][w] = number of edges from w to v, over the declared vertex order."""
    n = len(q.vertices)
    A = [[0] * n for _ in range(n)]
    for s, r in zip(q.index.src, q.index.rng):
        A[r][s] += 1
    return A


def _reverse_topological(q):
    """The vertex indices in reverse topological order, or CStarError on a cycle."""
    order = _topological_order(q)
    if order is None:
        raise CStarError("path counts require an acyclic quiver")
    return reversed(order)


def _path_counts(q, start, step):
    """For each vertex u, a Counter of the paths with source u by degree,
    from one pass in reverse topological order.

    The trivial path at u has degree start(u); a path p * e, with e an
    out-edge of u and p a path with source r(e), has degree step(deg p, e).
    Raises CStarError on a quiver with a cycle, whose paths are infinite.
    """
    out, rng, F = q.index.out, q.index.rng, {}
    for u in _reverse_topological(q):
        c = F[u] = Counter({start(q.vertices[u]): 1})
        for i in out[u]:
            for x, n in F[rng[i]].items():
                c[step(x, q.edges[i])] += n
    return {q.vertices[u]: c for u, c in F.items()}


def path_counts(q):
    """Number of paths with source v, for each vertex v of an acyclic quiver:
    1 + the sum of the counts at r(e) over the out-edges e of v."""
    out, rng = q.index.out, q.index.rng
    count = [0] * len(q.vertices)
    for u in _reverse_topological(q):
        count[u] = 1 + sum([count[rng[i]] for i in out[u]])
    return dict(zip(q.vertices, count))


class BlockStructure(namedtuple("BlockStructure", "blocks")):
    """Multiset of matrix block sizes of a finite-dimensional algebra, as a
    sorted tuple of positive ints."""

    __slots__ = ()

    @property
    def total_dimension(self):
        return sum(n * n for n in self.blocks)

    @staticmethod
    def of(sizes):
        return BlockStructure(tuple(sorted(sizes)))


# K0 as its invariant factors (each >= 2, a divisibility chain) and free rank; K1's rank.
KTheory = namedtuple("KTheory", "k0_invariant_factors k0_free_rank k1_rank")


def acyclic_block_structure(q):
    """Block sizes of the algebra of a finite acyclic quiver.

    One block per non-regular vertex w, of size = number of paths with
    source w; the Cuntz-Krieger relation at regular vertices absorbs their
    projections into the blocks of the sources feeding them.
    """
    counts = path_counts(q)
    reg = set(regular_vertices(q))
    return BlockStructure.of(counts[w] for w in q.vertices if w not in reg)


def graded_dimensions(q, kappa):
    """Dimension of each group-degree component under the cocycle grading,
    keyed by the group's elements in order.

    The span of s_p s_q* for paths p, q with a common non-regular source w
    contributes 1 to degree kappa(p) * kappa(q)^{-1}.  With F_w(x) the
    number of paths from w of degree x, dims[g] is the sum over w of
    F_w(x) * F_w(y) over x * y^{-1} = g.  Values sum to the algebra's total
    dimension.
    """
    G = kappa.group
    F = _path_counts(q, lambda v: G.identity, lambda x, e: G.mul(x, kappa.value(e.id)))
    reg = set(regular_vertices(q))
    dims = dict.fromkeys(G.elements, 0)
    for w in q.vertices:
        if w not in reg:
            for x, m in F[w].items():
                for y, n in F[w].items():
                    dims[G.mul(x, G.inv(y))] += m * n
    return dims


# U M V = D: the diagonal of D (nonnegative, d1 | d2 | ...) and the unimodular
# witnesses U (left; its rows are the rows of M) and V (right; its columns are M's).
SmithNormalForm = namedtuple("SmithNormalForm", "diagonal left right")


def smith_normal_form(M):
    """Exact integer Smith normal form with unimodular witnesses U M V = D.

    Stage t works on the submatrix of rows and columns t, t+1, ...  Each
    step moves its smallest-magnitude nonzero entry, the first one in
    row-major order on ties, to (t, t) as a positive pivot p, and subtracts
    floor multiples of row and column t from the others.  A step that
    leaves a remainder in row or column t is repeated.  Once both are
    clear, the stage ends if p divides every entry left; otherwise a row
    holding an entry p does not divide is added to row t.  The loop ends:
    a step is repeated only after a nonzero remainder below p is left, and
    the added row leaves one in row t, so the pivot's magnitude strictly
    falls until it divides the rest.
    """
    A = [list(map(int, row)) for row in M]
    m = len(A)
    n = len(A[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    diag = _smith_diagonal(A, U, V)
    return SmithNormalForm(tuple(diag), tuple(map(tuple, U)), tuple(map(tuple, V)))


def _smith_diagonal(A, U=None, V=None):
    """Reduce A (a list of row lists) in place to Smith normal form and
    return its diagonal.  Row operations are applied to U and column
    operations to V when they are given."""
    m = len(A)
    n = len(A[0]) if m else 0
    rows = [A] if U is None else [A, U]
    cols = [A] if V is None else [A, V]
    for t in range(min(m, n)):
        while True:
            pivot = None
            for i in range(t, m):
                row = A[i]
                for j in range(t, n):
                    a = abs(row[j])
                    if a and (pivot is None or a < pivot[0]):
                        pivot = (a, i, j)
                        if a == 1:
                            break
                if pivot and pivot[0] == 1:
                    break
            if pivot is None:
                return [A[i][i] for i in range(min(m, n))]
            _, pi, pj = pivot
            for W in rows:
                W[t], W[pi] = W[pi], W[t]
            for W in cols:
                for row in W:
                    row[t], row[pj] = row[pj], row[t]
            if A[t][t] < 0:
                for W in rows:
                    W[t] = [-a for a in W[t]]
            p = A[t][t]
            for i in range(t + 1, m):
                c = A[i][t] // p
                if c:
                    for W in rows:
                        W[i] = [a - c * b for a, b in zip(W[i], W[t])]
            quotients = [(j, A[t][j] // p) for j in range(t + 1, n) if A[t][j]]
            for W in cols:
                for row in W:
                    for j, c in quotients:
                        row[j] -= c * row[t]
            if any(A[i][t] for i in range(t + 1, m)) or any(A[t][t + 1:]):
                continue
            if p == 1:
                break
            rest = next((i for i in range(t + 1, m) if any(a % p for a in A[i][t + 1:])), None)
            if rest is None:
                break
            for W in rows:
                W[t] = [a + b for a, b in zip(W[t], W[rest])]
    return [A[i][i] for i in range(min(m, n))]


def _unit_pivots(rows, ncols):
    """Eliminate the unit pivots of a sparse integer matrix, fill-free ones first.

    ``rows`` holds one dict per row, column -> nonzero entry, and is
    consumed.  A pivot +-1 clears the rest of its column by exact row
    operations and drops its row and column; since SNF(I_k + R) is
    I_k + SNF(R), each pivot puts one 1 on the diagonal.  A +-1 alone in its
    row or column has Markowitz cost 0 and makes no fill-in: the rest of its
    column (or row) is deleted.  Rows and columns of one entry, at the start
    or once they shrink to it, wait on a worklist; a lone entry that is not
    +-1 is skipped.  Only when the worklist is empty is a pivot taken from a
    heap of the live rows' units, and of each unit a fill-in makes later,
    under the Markowitz cost (row length - 1) * (column length - 1) it had
    when pushed: a popped candidate that is no longer a unit is skipped, one
    whose cost has grown is pushed back, and a cost that has fallen is not
    seen.  The diagonal does not depend on the order.  Returns the number of
    pivots and the dense residual, without its zero rows and columns, in
    which no entry is +-1.
    """
    cols = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)

    # Row i waits on the worklist as i, column j as ~j.
    work = [i for i, row in enumerate(rows) if len(row) == 1]
    work += [~j for j, col in enumerate(cols) if len(col) == 1]
    heap, units = None, 0
    while True:
        if work:
            x = work.pop()
            line = cols[~x] if x < 0 else rows[x]
            if line is None or len(line) != 1:
                continue
            (k,) = line
            r, c = (k, ~x) if x < 0 else (x, k)
            if rows[r][c] not in (1, -1):
                continue
        else:
            if heap is None:
                heap = [((len(row) - 1) * (len(cols[j]) - 1), i, j) for i, row in enumerate(rows)
                        if row for j, a in row.items() if a == 1 or a == -1]
                heapq.heapify(heap)
            if not heap:
                break
            cost, r, c = heapq.heappop(heap)
            row = rows[r]
            if row is None or row.get(c) not in (1, -1):
                continue
            now = (len(row) - 1) * (len(cols[c]) - 1)
            if now > cost:
                heapq.heappush(heap, (now, r, c))
                continue
        units += 1
        row, rows[r] = rows[r], None
        for j in row:
            cols[j].discard(r)
        p = row.pop(c)
        others, cols[c] = cols[c], set()
        for i in others:  # none left when (r, c) is alone in its column
            target = rows[i]
            f = target.pop(c) * p
            for j, a in row.items():  # empty when (r, c) is alone in its row
                b = target.get(j, 0) - f * a
                if b:
                    if j not in target:
                        cols[j].add(i)
                    target[j] = b
                else:
                    del target[j]
                    cols[j].discard(i)
            if len(target) == 1:
                work.append(i)
            for j in row:  # the entries the fill-in changed
                if target.get(j) in (1, -1):
                    heapq.heappush(heap, ((len(target) - 1) * (len(cols[j]) - 1), i, j))
        work += [~j for j in row if len(cols[j]) == 1]
    live = [j for j in range(ncols) if cols[j]]
    return units, [[row.get(j, 0) for j in live] for row in rows if row]


def k_theory(q):
    """K0 (invariant factors and free rank) and K1 rank of the quiver algebra.

    Built from the map Z^R -> Z^V with column v in R given by
    M[w][v] = (number of edges w -> v) - delta_{v,w}; K0 is the cokernel,
    K1 the kernel.  M is built sparse and its unit pivots are eliminated
    first (``_unit_pivots``); only the diagonal of the Smith normal form of
    the dense residual is then computed.  Convention is anchored by the
    3-loop quiver, whose K0 must be Z/2.
    """
    ix = q.index
    reg = sorted(set(ix.rng))
    col = {v: c for c, v in enumerate(reg)}
    rows = [{} for _ in q.vertices]
    for s, r in zip(ix.src, ix.rng):
        row, c = rows[s], col[r]
        row[c] = row.get(c, 0) + 1
    for v, c in col.items():  # minus the identity; a loop's +1 cancels the -1
        if a := rows[v].pop(c, 0) - 1:
            rows[v][c] = a
    units, residual = _unit_pivots(rows, len(reg))
    nonzero = [d for d in _smith_diagonal(residual) if d]
    rank = units + len(nonzero)
    return KTheory(
        k0_invariant_factors=tuple(d for d in nonzero if d >= 2),
        k0_free_rank=len(q.vertices) - rank,
        k1_rank=len(reg) - rank,
    )
