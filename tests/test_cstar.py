import heapq
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from quiverskew import (
    Cocycle,
    BlockStructure,
    acyclic_block_structure,
    graded_dimensions,
    is_acyclic,
    k_theory,
    make_cyclic,
    make_symmetric,
    path_counts,
    regular_vertices,
    skew_product,
    skew_vertex_id,
    smith_normal_form,
    vertex_matrix,
)
from quiverskew import io as qio
from quiverskew.cli import main
from quiverskew.cstar import CStarError, KTheory, _smith_diagonal, _unit_pivots
from quiverskew.quiver import Edge, FiniteQuiver
from quiverskew.randgen import random_acyclic_quiver, random_cocycle, random_quiver

from conftest import chain, deadline, mk, orbit_fused_blocks, path_range, paths_from


def test_a_caller_that_clears_out_edges_changes_no_later_result():
    q = FiniteQuiver(["u", "v"], [("a", "u", "v", 1)])
    q.out_edges("u").clear()
    assert path_counts(q) == {"v": 1, "u": 2}
    assert regular_vertices(q) == ("v",)
    assert k_theory(q) == KTheory((), 1, 0)
    assert [e.id for e in q.out_edges("u")] == ["a"]


def o_n_quiver(n):
    """One vertex with n loops."""
    return mk(["v"], [(f"e{i}", "v", "v", 1) for i in range(n)])


def single_edge():
    return mk(["w", "v"], [("e", "w", "v", 1)])


class TestRegularVertices:
    def test_isolated_vertex(self):
        assert regular_vertices(mk(["v"], [])) == ()

    def test_loop(self):
        assert regular_vertices(o_n_quiver(1)) == ("v",)

    def test_single_edge(self):
        assert regular_vertices(single_edge()) == ("v",)


class TestVertexMatrix:
    def test_two_loops(self):
        assert vertex_matrix(o_n_quiver(2)) == [[2]]

    def test_single_edge(self):
        # order (w, v): A[v][w] = 1
        assert vertex_matrix(single_edge()) == [[0, 0], [1, 0]]

    def test_two_cycle(self):
        q = mk(["v", "w"], [("a", "v", "w", 1), ("b", "w", "v", 1)])
        assert vertex_matrix(q) == [[0, 1], [1, 0]]


def exact_det(M):
    n = len(M)
    A = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det *= A[c][c]
        for r in range(c + 1, n):
            f = A[r][c] / A[c][c]
            A[r] = [a - f * b for a, b in zip(A[r], A[c])]
    return det


def minor_gcd(M, k):
    """gcd of all k x k minors; independent oracle for invariant factors."""
    m, n = len(M), len(M[0])
    g = 0
    for rows in itertools.combinations(range(m), k):
        for cols in itertools.combinations(range(n), k):
            sub = [[M[r][c] for c in cols] for r in rows]
            g = math.gcd(g, int(exact_det(sub)))
    return g


def check_snf(M):
    snf = smith_normal_form(M)
    m, n = len(M), len(M[0]) if M else 0
    U, V = [list(r) for r in snf.left], [list(r) for r in snf.right]
    assert abs(exact_det(U)) == 1
    assert abs(exact_det(V)) == 1
    # U M V = D
    UM = [[sum(U[i][k] * M[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
    UMV = [[sum(UM[i][k] * V[k][j] for k in range(n)) for j in range(n)] for i in range(m)]
    for i in range(m):
        for j in range(n):
            expect = snf.diagonal[i] if i == j and i < len(snf.diagonal) else 0
            assert UMV[i][j] == expect
    d = [x for x in snf.diagonal if x]
    assert all(x > 0 for x in d)
    for a, b in zip(d, d[1:]):
        assert b % a == 0
    # Products of the first k factors match the minor-gcd oracle.
    prod = 1
    for k, x in enumerate(d, start=1):
        prod *= x
        assert prod == minor_gcd(M, k)
    return snf


class TestSmithNormalForm:
    def test_one_by_one(self):
        assert smith_normal_form([[1]]).diagonal == (1,)

    def test_diag_2_3(self):
        snf = check_snf([[2, 0], [0, 3]])
        assert tuple(x for x in snf.diagonal if x) == (1, 6)

    def test_column_minus_one_one(self):
        snf = check_snf([[-1], [1]])
        assert snf.diagonal == (1,)

    def test_zero_matrix(self):
        snf = smith_normal_form([[0, 0], [0, 0]])
        assert snf.diagonal == (0, 0)

    def test_random_small_matrices(self):
        rng = random.Random(3)
        for _ in range(40):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            M = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
            check_snf(M)

    def test_invariant_factors_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        rng = random.Random(7)
        for _ in range(60):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            M = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
            expect = invariant_factors(sympy.Matrix(M), domain=sympy.ZZ)
            assert smith_normal_form(M).diagonal == tuple(int(d) for d in expect)
        for n in (2, 3, 4):
            for _ in range(10):
                q = random_quiver(rng)
                skew = skew_product(q, random_cocycle(rng, q, make_cyclic(n)))
                M = k_theory_matrix(skew)
                if M[0]:
                    expect = invariant_factors(sympy.Matrix(M), domain=sympy.ZZ)
                    assert k_theory(skew) == k_theory_from(M, [int(d) for d in expect])


def k_theory_matrix(q):
    """The map Z^R -> Z^V whose cokernel and kernel k_theory reads."""
    A = vertex_matrix(q)
    idx = {v: i for i, v in enumerate(q.vertices)}
    reg = regular_vertices(q)
    return [[A[idx[v]][idx[w]] - (v == w) for v in reg] for w in q.vertices]


def k_theory_from(M, diagonal):
    """The K-groups read off M and the diagonal of its Smith normal form."""
    d = [x for x in diagonal if x]
    return KTheory(tuple(x for x in d if x > 1), len(M) - len(d), len(M[0]) - len(d))


def random_base(rng, nv, ne):
    """nv vertices and ne edges with endpoints drawn from rng, all of weight 1."""
    V = [f"v{i}" for i in range(nv)]
    return FiniteQuiver(V, [Edge(f"e{i}", rng.choice(V), rng.choice(V), 1) for i in range(ne)])


@st.composite
def multiquivers(draw):
    """Quivers with loops, repeated edges, sinks and sources: each drawn
    (src, rng) pair is repeated up to three times."""
    vs = [f"v{i}" for i in range(draw(st.integers(1, 7)))]
    edges = []
    for _ in range(draw(st.integers(0, 14))):
        src, rng = draw(st.sampled_from(vs)), draw(st.sampled_from(vs))
        for _ in range(draw(st.integers(1, 3))):
            edges.append((f"e{len(edges)}", src, rng, 1))
    return mk(vs, edges)


class TestKTheory:
    def test_o2_trivial_k0(self):
        kt = k_theory(o_n_quiver(2))
        assert kt.k0_invariant_factors == ()
        assert kt.k0_free_rank == 0
        assert kt.k1_rank == 0

    def test_o3_k0_z2(self):
        kt = k_theory(o_n_quiver(3))
        assert kt.k0_invariant_factors == (2,)
        assert kt.k0_free_rank == 0
        assert kt.k1_rank == 0

    def test_single_edge(self):
        kt = k_theory(single_edge())
        assert kt.k0_invariant_factors == ()
        assert kt.k0_free_rank == 1
        assert kt.k1_rank == 0

    def test_isolated_vertex(self):
        kt = k_theory(mk(["v"], []))
        assert kt.k0_invariant_factors == ()
        assert kt.k0_free_rank == 1
        assert kt.k1_rank == 0

    def test_single_loop_has_k1(self):
        # C(T): K0 = Z, K1 = Z.
        kt = k_theory(o_n_quiver(1))
        assert kt.k0_invariant_factors == ()
        assert kt.k0_free_rank == 1
        assert kt.k1_rank == 1

    def test_240_vertex_z12_skew_product(self):
        # Third draw over the cases (10,20,Z/6), (20,40,Z/6), (20,40,Z/12);
        # its Smith normal form once ran for minutes with exploding entries.
        rng = random.Random(1)
        for nv, ne, n in [(10, 20, 6), (20, 40, 6), (20, 40, 12)]:
            q = random_base(rng, nv, ne)
            kappa = random_cocycle(rng, q, make_cyclic(n))
        skew = skew_product(q, kappa)
        assert len(skew.vertices) == 240
        with deadline(2):
            kt = k_theory(skew)
        assert kt == KTheory((8, 8), 12, 0)

    @pytest.mark.parametrize("nv, ne, group, seconds, expect", [
        (20, 40, make_symmetric(5), 4, KTheory((), 600, 0)),
        (30, 60, make_cyclic(100), 8, KTheory((3, 18), 300, 0)),
    ], ids=["S5-2400", "Z100-3000"])
    def test_large_skew_products(self, nv, ne, group, seconds, expect):
        # The dense elimination took 18 s on the S5 case.
        rng = random.Random(1)
        q = random_base(rng, nv, ne)
        skew = skew_product(q, random_cocycle(rng, q, group))
        assert len(skew.vertices) == nv * group.order
        with deadline(seconds):
            assert k_theory(skew) == expect

    def test_witness_free_path_agrees_with_smith_normal_form(self):
        rng = random.Random(4)
        cases = [(n, make) for n in (4, 5) for make in (random_quiver, random_acyclic_quiver)]
        with deadline(10):
            for n, make in cases * 10:
                q = make(rng)
                skew = skew_product(q, random_cocycle(rng, q, make_cyclic(n)))
                M = k_theory_matrix(skew)
                assert k_theory(skew) == k_theory_from(M, smith_normal_form(M).diagonal)

    @settings(deadline=None, max_examples=200)
    @given(multiquivers())
    @example(mk(["v", "w"], []))  # no regular vertex
    @example(mk(["v", "w"], [("a", "v", "v", 1), ("b", "w", "w", 1)]))  # all-zero matrix
    def test_agrees_with_dense_elimination(self, q):
        M = k_theory_matrix(q)
        assert k_theory(q) == k_theory_from(M, _smith_diagonal(M))


def dense_rank(M):
    return sum(1 for d in _smith_diagonal([list(row) for row in M]) if d)


def unit_pivots(q):
    """_unit_pivots on the dense k_theory_matrix of q, given as sparse rows."""
    M = k_theory_matrix(q)
    return _unit_pivots([{j: a for j, a in enumerate(row) if a} for row in M],
                        len(regular_vertices(q)))


def cycle_with_tail(n, into):
    """A directed n-cycle c0..c{n-1} and a directed path t0..t{n-1} joined by
    one edge: t{n-1} -> c0 when ``into``, else c0 -> t0."""
    cs, ts = [f"c{i}" for i in range(n)], [f"t{i}" for i in range(n)]
    edges = [(f"c{i}", cs[i], cs[(i + 1) % n], 1) for i in range(n)]
    edges += [(f"t{i}", ts[i], ts[i + 1], 1) for i in range(n - 1)]
    edges.append(("x", ts[-1], cs[0], 1) if into else ("x", cs[0], ts[0], 1))
    return mk(cs + ts, edges)


class TestUnitPivots:
    """A +-1 alone in its row or column is taken from the worklist; the heap
    sees only what the worklist leaves."""

    @pytest.fixture
    def heap_pops(self, monkeypatch):
        pops = []
        pop = heapq.heappop
        monkeypatch.setattr(heapq, "heappop", lambda heap: pops.append(1) or pop(heap))
        return pops

    def test_a_non_unit_row_singleton_is_skipped(self):
        # Row s is {t: 2}: it is skipped, and the -1 of row t is pivoted.
        q = mk(["s", "t"], [("a", "s", "t", 1), ("b", "s", "t", "1/2")])
        assert unit_pivots(q) == (1, [])
        M = k_theory_matrix(q)
        assert k_theory(q) == k_theory_from(M, _smith_diagonal(M)) == KTheory((), 1, 0)

    def test_a_non_unit_column_singleton_reaches_the_dense_form(self):
        q = o_n_quiver(3)
        assert unit_pivots(q) == (0, [[2]])
        M = k_theory_matrix(q)
        assert k_theory(q) == k_theory_from(M, _smith_diagonal(M)) == KTheory((2,), 0, 0)

    def test_a_loop_cancels_to_zero(self):
        q = o_n_quiver(1)
        assert unit_pivots(q) == (0, [])
        M = k_theory_matrix(q)
        assert k_theory(q) == k_theory_from(M, _smith_diagonal(M)) == KTheory((), 1, 1)

    def test_a_long_path_cascades_through_the_worklist(self, heap_pops):
        vs = [f"v{i}" for i in range(5000)]
        q = mk(vs, [(f"e{i}", vs[i], vs[i + 1], 1) for i in range(len(vs) - 1)])
        with deadline(2):
            assert k_theory(q) == KTheory((), 1, 0)
        assert heap_pops == []

    @pytest.mark.parametrize("into, expect, heap", [
        (True, KTheory((), 1, 0), False),  # the tail's last pivot opens the cycle
        (False, KTheory((), 1, 1), True),  # the bare cycle is left to the heap
    ], ids=["tail-into-cycle", "tail-out-of-cycle"])
    def test_a_cycle_with_a_tail(self, heap_pops, into, expect, heap):
        q = cycle_with_tail(12, into)
        M = k_theory_matrix(q)
        assert k_theory(q) == k_theory_from(M, _smith_diagonal(M)) == expect
        del heap_pops[:]
        assert k_theory(cycle_with_tail(200, into)) == expect
        assert bool(heap_pops) == heap

    @settings(deadline=None, max_examples=200)
    @given(multiquivers())
    def test_no_unit_is_left_and_the_rank_is_kept(self, q):
        units, residual = unit_pivots(q)
        assert all(a not in (1, -1) for row in residual for a in row)
        assert units + dense_rank(residual) == dense_rank(k_theory_matrix(q))


class TestAcyclic:
    def test_loop(self):
        assert not is_acyclic(o_n_quiver(1))

    def test_single_edge(self):
        assert is_acyclic(single_edge())

    def test_two_cycle(self):
        q = mk(["v", "w"], [("a", "v", "w", 1), ("b", "w", "v", 1)])
        assert not is_acyclic(q)


class TestPaths:
    def test_path_space_rejects_cyclic(self):
        kappa = Cocycle(make_cyclic(2), {"e0": "1"})
        with pytest.raises(CStarError):
            acyclic_block_structure(o_n_quiver(1))
        with pytest.raises(CStarError):
            graded_dimensions(o_n_quiver(1), kappa)

    def test_single_edge_paths(self):
        q = single_edge()
        assert sorted(paths_from(q, "w")) == [(), ("e",)]
        assert paths_from(q, "v") == [()]
        assert path_counts(q) == {"w": 2, "v": 1}

    def test_composition_convention(self):
        # w -> v -> u: the length-2 path from w is (f, e) with r = u.
        q = mk(["w", "v", "u"], [("e", "w", "v", 1), ("f", "v", "u", 1)])
        ps = paths_from(q, "w")
        assert ("f", "e") in ps
        assert path_range(q, ("f", "e"), "w") == "u"
        # In S3 the degrees of (f, e) under the two orders differ.
        kappa = Cocycle(make_symmetric(3), {"e": "213", "f": "132"})
        assert graded_dimensions(q, kappa) == oracle_graded_dimensions(q, kappa)


def kpath(kappa, p):
    """kappa(p) = kappa(e1) * ... * kappa(en) for p = (e1, ..., en)."""
    G = kappa.group
    val = G.identity
    for eid in p:
        val = G.mul(val, kappa.value(eid))
    return val


def oracle_blocks(q):
    reg = set(regular_vertices(q))
    return BlockStructure.of(len(paths_from(q, w)) for w in q.vertices if w not in reg)


def oracle_graded_dimensions(q, kappa):
    """One count per pair of listed paths with a common non-regular source."""
    G = kappa.group
    reg = set(regular_vertices(q))
    dims = Counter()
    for w in q.vertices:
        if w not in reg:
            degs = [kpath(kappa, p) for p in paths_from(q, w)]
            for x in degs:
                for y in degs:
                    dims[G.mul(x, G.inv(y))] += 1
    return {g: dims[g] for g in G.elements}


GROUPS = {f"Z{n}": make_cyclic(n) for n in range(1, 7)} | {"S3": make_symmetric(3)}


@pytest.mark.parametrize("name", GROUPS)
def test_counts_match_listed_paths(name):
    G = GROUPS[name]
    rng = random.Random(name)
    for _ in range(30):
        q = random_acyclic_quiver(rng)
        kappa = random_cocycle(rng, q, G)
        assert acyclic_block_structure(q) == oracle_blocks(q)
        skew = skew_product(q, kappa)
        assert acyclic_block_structure(skew) == oracle_blocks(skew)
        assert graded_dimensions(q, kappa) == oracle_graded_dimensions(q, kappa)


class TestChain:
    """Chain(40) has about 6 * 10^18 paths; counting them takes milliseconds."""

    def test_block_and_invariants(self, tmp_path, capsys):
        q, kappa = chain(40)
        qf, kf = tmp_path / "q.json", tmp_path / "k.json"
        qf.write_text(qio.dumps(qio.emit_quiver_document(q)))
        kf.write_text(json.dumps({"group": {"kind": "cyclic", "n": 4}, "map": kappa.map}))
        with deadline(1):
            assert acyclic_block_structure(q).blocks == ((3 ** 40 - 1) // 2,)
            assert main(["invariants", str(qf), "--cocycle", str(kf)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["block_structure"] == [(3 ** 40 - 1) // 2]
        assert sum(rep["graded_dimensions"].values()) == ((3 ** 40 - 1) // 2) ** 2


class TestBlockStructure:
    def test_isolated_vertex(self):
        assert acyclic_block_structure(mk(["v"], [])).blocks == (1,)

    def test_single_edge_m2(self):
        bs = acyclic_block_structure(single_edge())
        assert bs.blocks == (2,)
        assert bs.total_dimension == 4

    def test_two_parallel_edges_m3(self):
        q = mk(["w", "v"], [("a", "w", "v", 1), ("b", "w", "v", 1)])
        assert acyclic_block_structure(q).blocks == (3,)

    def test_rejects_cyclic(self):
        with pytest.raises(CStarError):
            acyclic_block_structure(o_n_quiver(1))


class TestGradedDimensions:
    def test_trivial_cocycle_all_identity_degree(self):
        q = single_edge()
        g = make_cyclic(2)
        dims = graded_dimensions(q, Cocycle(g, {"e": "0"}))
        assert dims == {"0": 4, "1": 0}

    def test_single_edge_z2(self):
        q = single_edge()
        g = make_cyclic(2)
        dims = graded_dimensions(q, Cocycle(g, {"e": "1"}))
        assert dims == {"0": 2, "1": 2}

    def test_two_parallel_edges_z2(self):
        q = mk(["w", "v"], [("e1", "w", "v", 1), ("e2", "w", "v", 1)])
        g = make_cyclic(2)
        dims = graded_dimensions(q, Cocycle(g, {"e1": "0", "e2": "1"}))
        assert dims == {"0": 5, "1": 4}

    def test_sum_equals_total_dimension(self):
        q = mk(
            ["a", "b", "c"],
            [("e", "a", "b", 1), ("f", "b", "c", 1), ("g", "a", "c", 1)],
        )
        g = make_symmetric(3)
        rng = random.Random(5)
        kappa = Cocycle(g, {e.id: rng.choice(g.elements) for e in q.edges})
        dims = graded_dimensions(q, kappa)
        assert sum(dims.values()) == acyclic_block_structure(q).total_dimension


class TestCrossedProductBlocks:
    """The coaction crossed product is the skew product's algebra; the
    dual-action one fuses each translation orbit of its blocks."""

    def test_trivial_group(self):
        q = single_edge()
        kappa = Cocycle(make_cyclic(1), {"e": "0"})
        assert acyclic_block_structure(skew_product(q, kappa)) == acyclic_block_structure(q)
        assert orbit_fused_blocks(q, kappa) == acyclic_block_structure(q)

    def test_single_edge_z2(self):
        q = single_edge()
        kappa = Cocycle(make_cyclic(2), {"e": "1"})
        co = acyclic_block_structure(skew_product(q, kappa))
        assert co.blocks == (2, 2)
        assert co.total_dimension == 8
        du = orbit_fused_blocks(q, kappa)
        assert du.blocks == (4,)
        assert du.total_dimension == 16

    def test_isolated_vertex_z3(self):
        q = mk(["v"], [])
        kappa = Cocycle(make_cyclic(3), {})
        assert acyclic_block_structure(skew_product(q, kappa)).blocks == (1, 1, 1)
        assert orbit_fused_blocks(q, kappa).blocks == (3,)


class TestPathLifting:
    def test_lifting_bijection(self):
        # Every path p from w lifts uniquely to a path from (w, h) with
        # range (r(p), kappa(p) * h).
        q = mk(
            ["a", "b", "c"],
            [("e", "a", "b", 1), ("f", "b", "c", "1/2"), ("g", "a", "c", 2)],
        )
        g = make_symmetric(3)
        rng = random.Random(11)
        kappa = Cocycle(g, {e.id: rng.choice(g.elements) for e in q.edges})
        skew = skew_product(q, kappa)

        for w in q.vertices:
            base_paths = paths_from(q, w)
            for h in g.elements:
                lifted = paths_from(skew, skew_vertex_id(w, h))
                assert len(lifted) == len(base_paths)
                # project each lifted path back and collect ranges
                projected = sorted(
                    tuple(eid.rsplit("@", 1)[0] for eid in p) for p in lifted
                )
                assert projected == sorted(base_paths)
                for p in base_paths:
                    expect_rng = skew_vertex_id(
                        path_range(q, p, w), g.mul(kpath(kappa, p), h)
                    )
                    hits = [
                        lp
                        for lp in lifted
                        if tuple(x.rsplit("@", 1)[0] for x in lp) == p
                        and path_range(skew, lp, skew_vertex_id(w, h)) == expect_rng
                    ]
                    assert len(hits) == 1

    def test_sink_source_correspondence(self):
        q = mk(["a", "b"], [("e", "a", "b", 1)])
        g = make_cyclic(4)
        kappa = Cocycle(g, {"e": "3"})
        skew = skew_product(q, kappa)
        reg_base = set(regular_vertices(q))
        reg_skew = set(regular_vertices(skew))
        for v in q.vertices:
            for h in g.elements:
                assert (skew_vertex_id(v, h) in reg_skew) == (v in reg_base)
