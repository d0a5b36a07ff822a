"""Tests of the benchmark's own checks and of its command.

    python3 -m unittest discover -s bench -p 'test_*.py'

Each check must accept the program's output on generated inputs and reject
that output corrupted in one place.
"""

from __future__ import annotations

import copy
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import gen  # noqa: E402
from checks import CheckError, Plain  # noqa: E402
from quiverskew import cstar, io as qio, quiver, randgen, skew  # noqa: E402
from quiverskew.group import make_cyclic  # noqa: E402


def program_objects(base, kmap, group):
    q = qio.parse_quiver_document(base)
    return q, qio.parse_cocycle_document(gen.cocycle_doc(group, kmap), q)


def witness_doc(w):
    return {"quotient": qio.emit_quiver_document(w.quotient), "cocycle": dict(w.cocycle.map),
            "phi": {v: list(p) for v, p in w.phi.items()},
            "sigma": {e: list(p) for e, p in w.sigma.items()}}


class SkewAndIso(unittest.TestCase):
    def setUp(self):
        rng = random.Random(3)
        self.G = gen.symmetric(3)
        self.base = gen.random_base(rng, 5, 9)
        self.kmap = gen.random_cocycle(rng, self.base, self.G)
        self.rel = gen.Relabelled(rng, self.base, self.kmap, self.G)
        q, k = program_objects(self.base, self.kmap, self.G)
        self.s = Plain.of_program(skew.skew_product(q, k))

    def test_skew_accepts_program_and_definition(self):
        checks.check_skew(Plain.of_doc(self.base), self.kmap, self.G, self.s)
        checks.check_skew(Plain.of_doc(self.base), self.kmap, self.G,
                          Plain.of_doc(gen.skew(self.base, self.kmap, self.G)))

    def test_skew_rejects_moved_endpoint(self):
        eid, s, r, w = self.s.edges[4]
        other = next(v for v in self.s.vertices if v != r)
        bad = Plain(self.s.vertices, [(eid, s, other, w) if e[0] == eid else e
                                      for e in self.s.edges])
        with self.assertRaises(CheckError):
            checks.check_skew(Plain.of_doc(self.base), self.kmap, self.G, bad)

    def test_skew_rejects_changed_weight(self):
        bad = Plain(self.s.vertices, [(i, s, r, w + 1) if n == 0 else (i, s, r, w)
                                      for n, (i, s, r, w) in enumerate(self.s.edges)])
        with self.assertRaises(CheckError):
            checks.check_skew(Plain.of_doc(self.base), self.kmap, self.G, bad)

    def test_iso_accepts_search_and_rejects_swaps(self):
        h = qio.parse_quiver_document(self.rel.quiver)
        q, k = program_objects(self.base, self.kmap, self.G)
        s = skew.skew_product(q, k)
        iso = quiver.iso_search(h, s)
        total, sp = Plain.of_doc(self.rel.quiver), Plain.of_program(s)
        vmap, emap = dict(iso.forward.vmap), dict(iso.forward.emap)
        checks.check_iso(total, sp, vmap, emap)
        a, b = list(vmap)[:2]
        swapped = dict(vmap, **{a: vmap[b], b: vmap[a]})
        with self.assertRaises(CheckError):
            checks.check_iso(total, sp, swapped, emap)
        with self.assertRaises(CheckError):
            checks.check_iso(total, sp, dict(vmap, **{a: vmap[b]}), emap)
        x, y = next((x, y) for x in emap for y in emap
                    if sp.edge[emap[x]][3] != sp.edge[emap[y]][3])
        with self.assertRaises(CheckError):
            checks.check_iso(total, sp, vmap, dict(emap, **{x: emap[y], y: emap[x]}))


class Witness(unittest.TestCase):
    def setUp(self):
        rng = random.Random(5)
        self.G = gen.cyclic(4)
        base = gen.random_base(rng, 4, 8)
        self.base = Plain.of_doc(base)
        self.rel = gen.Relabelled(rng, base, gen.random_cocycle(rng, base, self.G), self.G)
        self.total = Plain.of_doc(self.rel.quiver)
        h = qio.parse_quiver_document(self.rel.quiver)
        a = qio.parse_action_document(self.rel.translation_action_doc(), h)
        self.doc = witness_doc(skew.gross_tucker_reconstruct(h, a))
        self.quot, self.proj = skew.quotient_quiver(h, a)

    def check(self, doc):
        checks.check_witness(self.total, self.rel, self.base, self.G, doc)

    def test_accepts_program_witness(self):
        self.check(self.doc)

    def test_rejects_swapped_phi(self):
        doc = copy.deepcopy(self.doc)
        a, b = list(doc["phi"])[:2]
        doc["phi"][a], doc["phi"][b] = doc["phi"][b], doc["phi"][a]
        with self.assertRaises(CheckError):
            self.check(doc)

    def test_rejects_wrong_cocycle_value(self):
        doc = copy.deepcopy(self.doc)
        e = next(iter(doc["cocycle"]))
        doc["cocycle"][e] = self.G.mul(doc["cocycle"][e], "1")
        with self.assertRaises(CheckError):
            self.check(doc)

    def test_rejects_moved_quotient_endpoint(self):
        doc = copy.deepcopy(self.doc)
        e = doc["quotient"]["edges"][0]
        e["rng"] = next(v for v in doc["quotient"]["vertices"] if v != e["rng"])
        with self.assertRaises(CheckError):
            self.check(doc)

    def test_rejects_swapped_sigma(self):
        # Swap the group coordinates of two edges of one orbit.
        doc = copy.deepcopy(self.doc)
        o = doc["quotient"]["edges"][0]["id"]
        for y, (oe, g) in doc["sigma"].items():
            if oe == o and g == self.G.identity:
                doc["sigma"][y] = [oe, "1"]
            elif oe == o and g == "1":
                doc["sigma"][y] = [oe, self.G.identity]
        with self.assertRaises(CheckError):
            self.check(doc)

    def test_quotient_check(self):
        quot = Plain.of_program(self.quot)
        vmap, emap = dict(self.proj.vmap), dict(self.proj.emap)
        checks.check_quotient(self.total, quot, vmap, emap, self.G)
        y = next(iter(emap))
        other = next(o for o in quot.edge if o != emap[y])
        with self.assertRaises(CheckError):
            checks.check_quotient(self.total, quot, vmap, dict(emap, **{y: other}), self.G)


class KTheory(unittest.TestCase):
    def test_rank_q_matches_fraction_elimination(self):
        rng = random.Random(0)
        for _ in range(60):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            M = [[rng.choice([0, 0, 1, -1, 2, 3]) for _ in range(n)] for _ in range(m)]
            A = [[Fraction(x) for x in row] for row in M]
            r = 0
            for c in range(n):
                p = next((i for i in range(r, m) if A[i][c]), None)
                if p is None:
                    continue
                A[r], A[p] = A[p], A[r]
                for i in range(r + 1, m):
                    f = A[i][c] / A[r][c]
                    A[i] = [x - f * y for x, y in zip(A[i], A[r])]
                r += 1
            self.assertEqual(checks.rank_q(M), r)

    def test_local_valuations_match_smith_form(self):
        rng = random.Random(1)
        for _ in range(60):
            M = [[rng.randint(-6, 6) for _ in range(rng.randint(1, 5))]]
            M += [[rng.randint(-6, 6) for _ in M[0]] for _ in range(rng.randint(0, 4))]
            diag = [abs(d) for d in cstar.smith_normal_form(M).diagonal if d]
            for p in (2, 3, 5):
                want = sorted(v for v in (checks._val(d, p) for d in diag) if v)
                got = sorted(v for v in checks.local_valuations(M, p) if v)
                self.assertEqual(got, want, (M, p))

    def test_accepts_program_on_quivers_with_torsion(self):
        seen_torsion = False
        three_loops = {"vertices": ["v"], "edges": [
            {"id": f"e{i}", "src": "v", "rng": "v", "weight": "1"} for i in range(3)]}
        rng = random.Random(2)
        docs = [three_loops] + [gen.random_base(rng, 5, 10) for _ in range(40)]
        for doc in docs:
            kt = cstar.k_theory(qio.parse_quiver_document(doc))
            checks.check_k_theory(Plain.of_doc(doc), kt.k0_invariant_factors,
                                  kt.k0_free_rank, kt.k1_rank)
            seen_torsion |= bool(kt.k0_invariant_factors)
        self.assertTrue(seen_torsion)

    def test_rejects_wrong_invariant_factor(self):
        doc = {"vertices": ["v"], "edges": [
            {"id": f"e{i}", "src": "v", "rng": "v", "weight": "1"} for i in range(5)]}
        q = Plain.of_doc(doc)
        checks.check_k_theory(q, (4,), 0, 0)
        for factors, free, k1 in [((2,), 0, 0), ((8,), 0, 0), ((12,), 0, 0), ((), 0, 0),
                                  ((4,), 1, 0), ((4,), 0, 1), ((2, 4), 0, 0)]:
            with self.assertRaises(CheckError, msg=(factors, free, k1)):
                checks.check_k_theory(q, factors, free, k1)


class AcyclicAlgebra(unittest.TestCase):
    def setUp(self):
        rng = random.Random(4)
        self.G = gen.cyclic(3)
        self.base_doc = gen.random_base(rng, 6, 10, acyclic=True)
        self.kmap = gen.random_cocycle(rng, self.base_doc, self.G)
        self.base = Plain.of_doc(self.base_doc)
        self.skew = Plain.of_doc(gen.skew(self.base_doc, self.kmap, self.G))
        q, k = program_objects(self.base_doc, self.kmap, self.G)
        self.blocks = cstar.acyclic_block_structure(skew.skew_product(q, k)).blocks
        self.dims = cstar.graded_dimensions(q, k)

    def test_accepts_program(self):
        checks.check_blocks(self.skew, self.blocks, self.base, self.G)
        checks.check_graded(self.base, self.kmap, self.G, self.dims, self.skew)

    def test_blocks_reject_dropped_path(self):
        bad = (self.blocks[0] - 1,) + tuple(self.blocks[1:])
        with self.assertRaises(CheckError):
            checks.check_blocks(self.skew, bad, self.base, self.G)

    def test_graded_rejects_moved_unit(self):
        a, b = self.G.elements[:2]
        bad = dict(self.dims, **{a: self.dims[a] - 1, b: self.dims[b] + 1})
        with self.assertRaises(CheckError):
            checks.check_graded(self.base, self.kmap, self.G, bad, self.skew)

    def test_corner_check_uses_the_skew_product(self):
        # A skew product built with another cocycle has another corner.
        for e in self.kmap:
            other = dict(self.kmap, **{e: self.G.mul(self.kmap[e], "1")})
            wrong = Plain.of_doc(gen.skew(self.base_doc, other, self.G))
            try:
                checks.check_graded(self.base, self.kmap, self.G, self.dims, wrong)
            except CheckError:
                return
        self.fail("no other cocycle changed the corner dimension")


class Generation(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        import workloads
        for name, (cls, _, _) in workloads.WORKLOADS.items():
            if name == "cli":
                continue
            from spans import NullTracer
            a = cls(ROOT, 7, 3).setup(NullTracer())
            b = cls(ROOT, 7, 3).setup(NullTracer())
            c = cls(ROOT, 8, 3).setup(NullTracer())
            wl = cls(ROOT, 7, 3)
            self.assertEqual(wl.digest_of(a), wl.digest_of(b))
            self.assertNotEqual(wl.digest_of(a), wl.digest_of(c))

    def test_reproducer_is_the_documented_draw(self):
        rng = random.Random(1)
        for nv, ne, n in [(10, 20, 6), (20, 40, 6), (20, 40, 12)]:
            vertices = [f"v{i}" for i in range(nv)]
            q = quiver.FiniteQuiver(vertices, [(f"e{i}", rng.choice(vertices),
                                                rng.choice(vertices), 1) for i in range(ne)])
            kappa = randgen.random_cocycle(rng, q, make_cyclic(n))
        base, kmap, group = gen.k_theory_reproducer()
        self.assertEqual([(e["id"], e["src"], e["rng"]) for e in base["edges"]],
                         [(e.id, e.src, e.rng) for e in q.edges])
        self.assertEqual(kmap, kappa.map)
        self.assertEqual(group.order * len(base["vertices"]), 240)


class Command(unittest.TestCase):
    def run_bench(self, root, *args):
        return subprocess.run([sys.executable, os.path.join(root, "bench", "run.py"), *args],
                              cwd=root, capture_output=True, text=True, timeout=170)

    def test_result_line_has_every_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            r = self.run_bench(ROOT, "--workload", "identify", "--seed", "3",
                               "--seconds", "0.5", "--trace", trace)
            self.assertEqual(r.returncode, 0, r.stderr)
            out = json.loads(r.stdout.strip().splitlines()[-1])
            self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(out["correct"])
            self.assertEqual({k: m["unit"] for k, m in out["metrics"].items()},
                             {m["name"]: m["unit"] for m in spec[key]})

    def test_fails_without_the_program(self):
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "results")) as d:
            shutil.copytree(HERE, os.path.join(d, "bench"),
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            r = self.run_bench(d, "--workload", "reconstruct", "--seed", "1",
                               "--seconds", "1", "--trace", "0")
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"metrics"', r.stdout)


if __name__ == "__main__":
    unittest.main()
