"""The four workloads: seeded inputs, one case, and the checks of its output.

Every case of a workload has the same input shape (8-vertex/16-edge bases).
``setup`` builds the inputs from the seed with ``gen`` alone (plus, for the
in-process workloads, parsing them into program objects), ``case`` is the
timed part, and ``check`` runs the independent checks of ``checks`` on what
the case returned.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys

from quiverskew import cstar, group, io as qio, quiver, skew

import gen
from checks import Plain, check_blocks, check_graded, check_invariants_doc, check_iso, \
    check_k_theory, check_quotient, check_skew, check_verify_lines, check_witness, require


class CaseTimeout(BaseException):
    """Raised by SIGALRM in code that ran past its time limit."""


def _alarm(signum, frame):
    raise CaseTimeout


@contextlib.contextmanager
def time_limit(seconds):
    """Raise CaseTimeout inside the block after ``seconds`` (None: no limit).

    The alarm interrupts pure-Python loops in-process."""
    if not seconds:
        yield
        return
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Item:
    """One generated input and whatever its checks need."""

    def __init__(self, **kw):
        self.__dict__.update(kw)


class Workload:
    name = ""
    tail_pct = 50        # percentile reported as case_tail_ms
    limit_s = None       # per-case time limit (SIGALRM); None: no limit
    whole_rounds = False  # stop only after a whole pass over the pool

    def __init__(self, root, seed, pool):
        self.root, self.seed, self.pool = root, seed, pool

    def rng(self):
        return random.Random(f"{self.name}:{self.seed}")

    def close(self):
        pass

    def peak_kib(self):
        """Peak resident memory so far of the process doing the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def traced_extra(self, tr, item, out):
        """Extra program calls made only in a traced run, outside the case time."""


class Reconstruct(Workload):
    """Free S4 actions on relabelled skew products: the Gross-Tucker layer."""

    name = "reconstruct"
    tail_pct = 75
    limit_s = 30
    G = gen.symmetric(4)

    def setup(self, tr):
        rng, items = self.rng(), []
        for _ in range(self.pool):
            base = gen.random_base(rng, 8, 16)
            kmap = gen.random_cocycle(rng, base, self.G)
            rel = gen.Relabelled(rng, base, kmap, self.G)
            items.append(Item(
                q_text=json.dumps(rel.quiver),
                a_text=json.dumps(rel.translation_action_doc()),
                rel=rel, base=Plain.of_doc(base), total=Plain.of_doc(rel.quiver)))
        return items

    def digest_of(self, items):
        return gen.digest([(it.q_text, it.a_text) for it in items])

    def case(self, tr, it):
        with tr.span("io.parse_quiver_document"):
            h = qio.parse_quiver_document(json.loads(it.q_text))
        with tr.span("quiver.validate_quiver"):
            qbad = quiver.validate_quiver(h)
        with tr.span("io.parse_action_document"):
            a = qio.parse_action_document(json.loads(it.a_text), h)
        with tr.span("group.validate_action"):
            abad = group.validate_action(h, a)
        with tr.span("group.is_free"):
            free = group.is_free(h, a)
        with tr.span("skew.quotient_quiver"):
            quot, proj = skew.quotient_quiver(h, a)
        with tr.span("skew.default_section"):
            section = skew.default_section(h, a)
        with tr.span("skew.gross_tucker_reconstruct"):
            w = skew.gross_tucker_reconstruct(h, a, section)
        # The witness document, as `quiverskew reconstruct` writes it.
        with tr.span("io.emit_quiver_document"):
            qdoc = qio.emit_quiver_document(w.quotient)
        doc = {"quotient": qdoc, "cocycle": dict(w.cocycle.map),
               "phi": {v: list(p) for v, p in w.phi.items()},
               "sigma": {e: list(p) for e, p in w.sigma.items()}}
        with tr.span("io.dumps"):
            text = qio.dumps(doc)
        return qbad, abad, free, quot, proj, text, a

    def traced_extra(self, tr, it, out):
        a = out[-1]
        tr.count("group.action_entries", sum(map(len, a.vperm.values()))
                 + sum(map(len, a.eperm.values())))

    def check(self, it, out):
        qbad, abad, free, quot, proj, text, _ = out
        require(qbad == [], f"validate_quiver rejected a valid quiver: {qbad[:1]}")
        require(abad == [], f"validate_action rejected a valid action: {abad[:1]}")
        require(free is True, "is_free is false on a free action")
        check_quotient(it.total, Plain.of_program(quot), proj.vmap, proj.emap, self.G)
        check_witness(it.total, it.rel, it.base, self.G, json.loads(text))


class Identify(Workload):
    """Is H (relabelled, shuffled) the skew product of q by kappa?"""

    name = "identify"
    tail_pct = 95
    limit_s = 30
    G = gen.cyclic(3)

    def setup(self, tr):
        rng, items = self.rng(), []
        for _ in range(self.pool):
            base = gen.random_base(rng, 8, 16)
            kmap = gen.random_cocycle(rng, base, self.G)
            rel = gen.Relabelled(rng, base, kmap, self.G)
            with tr.span("io.parse_quiver_document"):
                q = qio.parse_quiver_document(base)
                h = qio.parse_quiver_document(rel.quiver)
            with tr.span("io.parse_cocycle_document"):
                k = qio.parse_cocycle_document(gen.cocycle_doc(self.G, kmap), q)
            items.append(Item(q=q, k=k, h=h, kmap=kmap, docs=(base, kmap, rel.quiver),
                              base=Plain.of_doc(base), total=Plain.of_doc(rel.quiver)))
        return items

    def digest_of(self, items):
        return gen.digest([it.docs for it in items])

    def case(self, tr, it):
        with tr.span("skew.skew_product"):
            s = skew.skew_product(it.q, it.k)
        with tr.span("quiver.iso_search"):
            iso = quiver.iso_search(it.h, s)
        return s, iso

    def check(self, it, out):
        s, iso = out
        sp = Plain.of_program(s)
        check_skew(it.base, it.kmap, self.G, sp)
        require(iso is not None, "iso_search found no isomorphism onto a skew product")
        check_iso(it.total, sp, iso.forward.vmap, iso.forward.emap)


class Invariants(Workload):
    """K-theory, blocks and gradings of skew products: the algebra layer.

    Each round ends with the fixed 240-vertex input on which the program's
    Smith normal form stalls; under the per-case limit it fails every time.
    """

    name = "invariants"
    tail_pct = 95
    limit_s = 1.0
    whole_rounds = True
    G = gen.cyclic(3)
    SCREEN_S = 0.5

    def setup(self, tr, reproducer=True):
        """The pool, then (if ``reproducer``) the fixed 240-vertex input.

        About 1 in 13 000 random acyclic draws also makes k_theory stall
        (CHANGES.md), which would make the failed share depend on the seed.
        Such a draw is left out, and counted in ``left_out``: every draw runs
        k_theory once here under a limit 100 times its usual cost.
        """
        rng, items = self.rng(), []
        self.left_out = 0
        while len(items) < self.pool:
            acyclic = len(items) % 2 == 0
            base = gen.random_base(rng, 8, 16, acyclic=acyclic)
            it = self._item(tr, base, gen.random_cocycle(rng, base, self.G), self.G, acyclic)
            try:
                with time_limit(self.SCREEN_S):
                    cstar.k_theory(skew.skew_product(it.q, it.k))
            except CaseTimeout:
                self.left_out += 1
                continue
            items.append(it)
        if reproducer:
            items.append(self._item(tr, *gen.k_theory_reproducer(), False))
        return items

    def _item(self, tr, base, kmap, G, acyclic):
        with tr.span("io.parse_quiver_document"):
            q = qio.parse_quiver_document(base)
        with tr.span("io.parse_cocycle_document"):
            k = qio.parse_cocycle_document(gen.cocycle_doc(G, kmap), q)
        return Item(q=q, k=k, kmap=kmap, G=G, acyclic=acyclic, docs=(base, kmap),
                    base=Plain.of_doc(base), skew=Plain.of_doc(gen.skew(base, kmap, G)),
                    verified=None)

    def digest_of(self, items):
        return gen.digest([it.docs for it in items])

    def case(self, tr, it):
        with tr.span("skew.skew_product"):
            s = skew.skew_product(it.q, it.k)
        with tr.span("cstar.k_theory"):
            kt = cstar.k_theory(s)
        blocks = dims = None
        if it.acyclic:
            with tr.span("cstar.acyclic_block_structure"):
                blocks = cstar.acyclic_block_structure(s).blocks
            with tr.span("cstar.graded_dimensions"):
                dims = cstar.graded_dimensions(it.q, it.k)
        return s, (kt.k0_invariant_factors, kt.k0_free_rank, kt.k1_rank), blocks, dims

    def traced_extra(self, tr, it, out):
        s = out[0]
        with tr.span("cstar.vertex_matrix"):
            A = cstar.vertex_matrix(s)
        with tr.span("cstar.regular_vertices"):
            reg = cstar.regular_vertices(s)
        if not reg:
            return
        idx = {v: i for i, v in enumerate(s.vertices)}
        M = [[A[idx[v]][idx[w]] - (v == w) for v in reg] for w in s.vertices]
        with tr.span("cstar.smith_normal_form"):
            snf = cstar.smith_normal_form(M)
        tr.count("cstar.snf_max_bits", max(abs(x).bit_length()
                                           for mat in (snf.left, snf.right)
                                           for row in mat for x in row))

    def check(self, it, out):
        s, kt, blocks, dims = out
        check_skew(it.base, it.kmap, it.G, Plain.of_program(s))
        # The invariants depend on the input alone: once checked in full,
        # later rounds on the same input must reproduce them exactly.
        if it.verified is not None:
            require(it.verified == (kt, blocks, dims), "invariants changed between rounds")
            return
        check_k_theory(it.skew, *kt)
        if it.acyclic:
            check_blocks(it.skew, blocks, it.base, it.G)
            check_graded(it.base, it.kmap, it.G, dims, it.skew)
        it.verified = (kt, blocks, dims)


# Runs each command it reads on stdin and answers with its exit code, output
# and the peak resident memory of the children so far.  On Linux a child's
# peak counts the memory of the process that spawned it, so the children are
# spawned from this small process, not from the benchmark.
LAUNCHER = r"""
import json, resource, subprocess, sys
for line in sys.stdin:
    args, cwd, env = json.loads(line)
    try:
        r = subprocess.run(args, cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
        reply = [r.returncode, r.stdout, r.stderr]
    except subprocess.TimeoutExpired:
        reply = [-1, "", "timed out after 120 s"]
    reply.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps(reply), flush=True)
"""


class Cli(Workload):
    """One session of child processes `python -m quiverskew.cli` per case."""

    name = "cli"
    tail_pct = 75
    Z6 = gen.cyclic(6)
    S3 = gen.symmetric(3)

    def __init__(self, root, seed, pool):
        super().__init__(root, seed, pool)
        self.dir = os.path.join(root, "bench", "results", f"cli-inputs-{os.getpid()}")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.launcher = subprocess.Popen([sys.executable, "-c", LAUNCHER], cwd=root,
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         text=True)
        self.children_kib = 0

    def setup(self, tr):
        rng, items = self.rng(), []
        os.makedirs(self.dir, exist_ok=True)
        for i in range(self.pool):
            d = os.path.join(self.dir, f"s{i:02d}")
            os.makedirs(d, exist_ok=True)
            G = self.S3 if i % 2 == 0 else self.Z6
            q = gen.random_base(rng, 8, 16)
            k = gen.random_cocycle(rng, q, G)
            b2 = gen.random_base(rng, 8, 16)
            rel = gen.Relabelled(rng, b2, gen.random_cocycle(rng, b2, self.Z6), self.Z6)
            b3 = gen.random_base(rng, 8, 16, acyclic=True)
            k3 = gen.random_cocycle(rng, b3, self.Z6)
            docs = {"q.json": q, "k.json": gen.cocycle_doc(G, k), "h.json": rel.quiver,
                    "a.json": rel.translation_action_doc(), "qa.json": b3,
                    "ka.json": gen.cocycle_doc(self.Z6, k3)}
            for fname, doc in docs.items():
                with open(os.path.join(d, fname), "w") as fh:
                    json.dump(doc, fh)
            p = {f: os.path.join(d, f) for f in docs}
            items.append(Item(
                docs=docs, G=G, base=Plain.of_doc(q), kmap=k, rel=rel, b2=Plain.of_doc(b2),
                h=Plain.of_doc(rel.quiver), b3=Plain.of_doc(b3), k3=k3,
                s3=Plain.of_doc(gen.skew(b3, k3, self.Z6)),
                argv={"skew": ["skew", p["q.json"], p["k.json"]],
                      "verify": ["verify", p["q.json"], p["k.json"]],
                      "reconstruct": ["reconstruct", p["h.json"], p["a.json"]],
                      "invariants": ["invariants", p["qa.json"], "--cocycle", p["ka.json"]]}))
        return items

    def digest_of(self, items):
        return gen.digest([it.docs for it in items])

    def close(self):
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()
        self.launcher.stdout.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def peak_kib(self):
        """The largest child so far."""
        return self.children_kib

    def _run(self, args):
        self.launcher.stdin.write(json.dumps([[sys.executable, *args], self.root, self.env]) + "\n")
        self.launcher.stdin.flush()
        rc, out, err, self.children_kib = json.loads(self.launcher.stdout.readline())
        return rc, out, err

    def case(self, tr, it):
        out = {}
        for cmd, argv in it.argv.items():
            with tr.span(f"cli.{cmd}"):
                out[cmd] = self._run(["-m", "quiverskew.cli", *argv])
        return out

    def traced_extra(self, tr, it, out):
        with tr.span("cli.startup"):
            self._run(["-c", "import quiverskew.cli"])

    def check(self, it, out):
        for cmd, (rc, _, err) in out.items():
            require(rc == 0, f"quiverskew {cmd} exited {rc}: {err.strip()[-200:]}")
        check_skew(it.base, it.kmap, it.G, Plain.of_doc(json.loads(out["skew"][1])))
        check_verify_lines(out["verify"][1])
        check_witness(it.h, it.rel, it.b2, self.Z6, json.loads(out["reconstruct"][1]))
        check_invariants_doc(json.loads(out["invariants"][1]), it.b3, it.k3, self.Z6, it.s3)
        again = self._run(["-m", "quiverskew.cli", *it.argv["skew"]])
        require(again[1] == out["skew"][1], "quiverskew skew stdout differs between two runs")


# name -> (class, pool size in a measured run, pool size when sampled for a trace)
WORKLOADS = {
    "reconstruct": (Reconstruct, 8, 2),
    "invariants": (Invariants, 256, 4),
    "identify": (Identify, 256, 4),
    "cli": (Cli, 32, 1),
}
