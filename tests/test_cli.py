import contextlib
import copy
import io
import itertools
import json
import os
import re
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import quiverskew
from quiverskew import BlockStructure, Cocycle
from quiverskew import verify as verify_mod
from quiverskew.cli import _random_cases, main
from quiverskew import io as qio

from conftest import LOOP5, chain, count_facts, deadline, mk


LOOP_DOC = {
    "vertices": ["v"],
    "edges": [{"id": "e", "src": "v", "rng": "v", "weight": "1"}],
}
Z2 = {"kind": "cyclic", "n": 2}


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def loop_file(tmp_path):
    return write(tmp_path / "loop.json", LOOP_DOC)


@pytest.fixture
def z2_cocycle_file(tmp_path):
    return write(tmp_path / "kappa.json", {"group": Z2, "map": {"e": "1"}})


class TestValidate:
    def test_ok(self, loop_file, capsys):
        assert main(["validate", loop_file]) == 0
        assert capsys.readouterr().out == "ok\n"

    def test_zero_weight_names_edge(self, tmp_path, capsys):
        doc = {
            "vertices": ["v"],
            "edges": [{"id": "e", "src": "v", "rng": "v", "weight": "0"}],
        }
        assert main(["validate", write(tmp_path / "bad.json", doc)]) == 1
        assert "'e'" in capsys.readouterr().out

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{not json")
        assert main(["validate", str(p)]) == 2

    def test_missing_field(self, tmp_path):
        assert main(["validate", write(tmp_path / "m.json", {"vertices": []})]) == 2

    def test_zero_denominator_weight_is_parse_error(self, tmp_path, capsys):
        doc = {
            "vertices": ["v"],
            "edges": [{"id": "e", "src": "v", "rng": "v", "weight": "1/0"}],
        }
        assert main(["validate", write(tmp_path / "z.json", doc)]) == 2
        assert "zero denominator" in capsys.readouterr().err


class TestBoundary:
    """Unreadable input and unwritable output end in one message line and
    exit 2, never a traceback."""

    def test_document_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "latin1.json"
        p.write_bytes('{"vertices": ["\u00e9"], "edges": []}'.encode("latin-1"))
        assert main(["validate", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and "'utf-8' codec can't decode" in err

    def test_nesting_too_deep(self, tmp_path, capsys):
        p = tmp_path / "deep.json"
        p.write_text("[" * 100_000)
        assert main(["validate", str(p)]) == 2
        assert capsys.readouterr().err.startswith("parse error: ")

    def test_weight_with_too_many_digits(self, tmp_path, capsys):
        doc = {"vertices": ["v"],
               "edges": [{"id": "e", "src": "v", "rng": "v", "weight": "1" * 5000}]}
        assert main(["validate", write(tmp_path / "big.json", doc)]) == 2
        assert capsys.readouterr().err.startswith("parse error: weight: ")

    def test_out_path_not_writable(self, tmp_path, loop_file, z2_cocycle_file, capsys):
        out = tmp_path / "no-such-dir" / "skew.json"
        assert main(["skew", loop_file, z2_cocycle_file, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(out) in captured.err


class TestSkew:
    def test_z2_loop_output(self, tmp_path, loop_file, z2_cocycle_file):
        out = tmp_path / "skew.json"
        assert main(["skew", loop_file, z2_cocycle_file, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc == {
            "vertices": ["v@0", "v@1"],
            "edges": [
                {"id": "e@0", "src": "v@0", "rng": "v@1", "weight": "1"},
                {"id": "e@1", "src": "v@1", "rng": "v@0", "weight": "1"},
            ],
        }
        # output re-validates
        assert main(["validate", str(out)]) == 0

    def test_byte_identical_across_runs(self, tmp_path, loop_file, z2_cocycle_file):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["skew", loop_file, z2_cocycle_file, "--out", str(out1)])
        main(["skew", loop_file, z2_cocycle_file, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_partial_cocycle_is_parse_error(self, tmp_path, loop_file):
        kf = write(tmp_path / "k.json", {"group": Z2, "map": {}})
        assert main(["skew", loop_file, kf]) == 2

    def test_group_order_out_of_scope_refused_at_once(self, tmp_path, loop_file):
        # A child process under a 1 GiB address-space limit: building the
        # 10**12-entry table this must refuse would otherwise exhaust memory.
        kf = write(tmp_path / "k.json", {"group": {"kind": "cyclic", "n": 10**6}, "map": {"e": "0"}})
        env = dict(os.environ, PYTHONPATH=str(Path(quiverskew.__file__).parents[1]))
        limit = (1 << 30, 1 << 30)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "quiverskew.cli", "skew", loop_file, kf],
            env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit),
        )
        assert time.perf_counter() - start < 10
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_non_associative_table_is_parse_error(self, tmp_path, loop_file, capsys):
        group = {"kind": "table", "elements": [str(i) for i in range(5)], "identity": "0",
                 "table": [[str(x) for x in row] for row in LOOP5]}
        kf = write(tmp_path / "k.json", {"group": group, "map": {"e": "1"}})
        assert main(["skew", loop_file, kf]) == 2
        assert "associativity fails" in capsys.readouterr().err


# Vertex "x@1" by element "2" and vertex "x" by element "1@2" are both named "x@1@2".
AT_QUIVER = {"vertices": ["x", "x@1"],
             "edges": [{"id": "e", "src": "x", "rng": "x@1", "weight": "1"}]}
AT_COCYCLE = {"group": {"kind": "table", "elements": ["2", "1@2"], "identity": "2",
                        "table": [["2", "1@2"], ["1@2", "2"]]},
              "map": {"e": "1@2"}}


@pytest.mark.parametrize("command", ["skew", "verify"])
def test_two_copies_named_alike_exit_1_with_one_error_line(tmp_path, capsys, command):
    files = write(tmp_path / "q.json", AT_QUIVER), write(tmp_path / "k.json", AT_COCYCLE)
    assert main([command, *files]) == 1
    assert capsys.readouterr() == (
        "", "error: two copies in the skew product are named 'x@1@2'\n")


# Z/2 on those elements, swapping x with p and x@1 with r: the copies (x, 1@2) and
# (x@1, 2) of the quotient's vertices are both named "x@1@2".
AT_FREE = ({"vertices": ["x", "p", "x@1", "r"], "edges": []},
           {"group": AT_COCYCLE["group"],
            "vperm": {"2": {"x": "x", "p": "p", "x@1": "x@1", "r": "r"},
                      "1@2": {"x": "p", "p": "x", "x@1": "r", "r": "x@1"}},
            "eperm": {"2": {}, "1@2": {}}})


def test_reconstruct_refuses_two_copies_named_alike(tmp_path, capsys):
    files = write(tmp_path / "q.json", AT_FREE[0]), write(tmp_path / "a.json", AT_FREE[1])
    assert main(["reconstruct", *files]) == 1
    assert capsys.readouterr() == (
        "", "error: two copies in the skew product are named 'x@1@2'\n")


SWAP_QUIVER = {
    "vertices": ["v", "w"],
    "edges": [
        {"id": "a", "src": "v", "rng": "v", "weight": "5/7"},
        {"id": "b", "src": "w", "rng": "w", "weight": "5/7"},
    ],
}
SWAP_ACTION = {
    "group": Z2,
    "vperm": {"0": {"v": "v", "w": "w"}, "1": {"v": "w", "w": "v"}},
    "eperm": {"0": {"a": "a", "b": "b"}, "1": {"a": "b", "b": "a"}},
}


DANGLING = {"vertices": ["v"], "edges": [{"id": "e", "src": "v", "rng": "w", "weight": "1"}]}


@pytest.mark.parametrize("argv, code", [
    (["skew", "q.json", "k.json"], 1),
    (["quotient", "q.json", "a.json"], 1),
    (["reconstruct", "q.json", "a.json"], 1),
    (["invariants", "q.json", "--cocycle", "k.json"], 1),
    (["verify", "q.json", "k.json"], 1),
    (["export-dot", "q.json"], 1),
    ([], 2),
    (["nope"], 2),
    (["--help"], 0),
], ids=["skew", "quotient", "reconstruct", "invariants", "verify", "export-dot", "no-command",
        "unknown-command", "help"])
def test_exit_codes_at_the_boundary(tmp_path, capsys, argv, code):
    # Every command that reads a quiver refuses an invalid one with one error
    # line; argparse's exits become return codes.
    files = {"q.json": write(tmp_path / "q.json", DANGLING),
             "k.json": write(tmp_path / "k.json", {"group": Z2, "map": {"e": "1"}}),
             "a.json": write(tmp_path / "a.json", SWAP_ACTION)}
    assert main([files.get(x, x) for x in argv]) == code
    out, err = capsys.readouterr()
    if code == 1:
        assert (out, err) == ("", "error: dangling endpoint: edge 'e' has rng 'w'\n")
    else:
        assert "usage: quiverskew" in out + err


class TestQuotient:
    def test_swap_quotient(self, tmp_path, capsys):
        qf = write(tmp_path / "q.json", SWAP_QUIVER)
        af = write(tmp_path / "a.json", SWAP_ACTION)
        assert main(["quotient", qf, af]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["quotient"] == {
            "vertices": ["v"],
            "edges": [{"id": "a", "src": "v", "rng": "v", "weight": "5/7"}],
        }
        assert doc["projection"]["vmap"] == {"v": "v", "w": "v"}
        assert doc["projection"]["emap"] == {"a": "a", "b": "a"}

    def test_non_free_rejected(self, tmp_path):
        qf = write(tmp_path / "q.json", SWAP_QUIVER)
        ident = {"v": "v", "w": "w"}
        idente = {"a": "a", "b": "b"}
        af = write(
            tmp_path / "a.json",
            {"group": Z2,
             "vperm": {"0": ident, "1": ident},
             "eperm": {"0": idente, "1": idente}},
        )
        assert main(["quotient", qf, af]) == 1


class TestReconstruct:
    def test_swap_reconstruction_reverifies(self, tmp_path, capsys):
        qf = write(tmp_path / "q.json", SWAP_QUIVER)
        af = write(tmp_path / "a.json", SWAP_ACTION)
        assert main(["reconstruct", qf, af]) == 0
        doc = json.loads(capsys.readouterr().out)
        # Re-run the skew product of the emitted quotient/cocycle and check
        # it matches the input via the emitted maps.
        from quiverskew import Cocycle, check_iso, make_cyclic, skew_product
        from quiverskew.quiver import QuiverIso, QuiverMorphism
        from quiverskew.skew import skew_edge_id, skew_vertex_id

        quot = qio.parse_quiver_document(doc["quotient"])
        kappa = Cocycle(make_cyclic(2), doc["cocycle"])
        target = skew_product(quot, kappa)
        q = qio.parse_quiver_document(SWAP_QUIVER)
        vmap = {v: skew_vertex_id(*pair) for v, pair in doc["phi"].items()}
        emap = {e: skew_edge_id(*pair) for e, pair in doc["sigma"].items()}
        assert check_iso(q, target, QuiverIso(QuiverMorphism(vmap, emap)))

    def test_explicit_section(self, tmp_path, capsys):
        qf = write(tmp_path / "q.json", SWAP_QUIVER)
        af = write(tmp_path / "a.json", SWAP_ACTION)
        sf = write(tmp_path / "s.json", {"v": "w"})
        assert main(["reconstruct", qf, af, "--section", sf]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["phi"]["w"] == ["v", "0"]
        assert doc["phi"]["v"] == ["v", "1"]


class TestInvariants:
    def test_o3(self, tmp_path, capsys):
        doc = {
            "vertices": ["v"],
            "edges": [
                {"id": f"e{i}", "src": "v", "rng": "v", "weight": "1"}
                for i in range(3)
            ],
        }
        assert main(["invariants", write(tmp_path / "o3.json", doc)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["k_theory"] == {
            "k0_invariant_factors": [2],
            "k0_free_rank": 0,
            "k1_rank": 0,
        }
        assert rep["regular_vertices"] == ["v"]
        assert rep["vertex_matrix"] == [[3]]
        assert rep["acyclic"] is False
        assert "block_structure" not in rep

    def test_single_edge_with_cocycle(self, tmp_path, capsys):
        doc = {
            "vertices": ["w", "v"],
            "edges": [{"id": "e", "src": "w", "rng": "v", "weight": "1"}],
        }
        qf = write(tmp_path / "se.json", doc)
        kf = write(tmp_path / "k.json", {"group": Z2, "map": {"e": "1"}})
        assert main(["invariants", qf, "--cocycle", kf]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["k_theory"]["k0_free_rank"] == 1
        assert rep["block_structure"] == [2]
        assert rep["graded_dimensions"] == {"0": 2, "1": 2}

    def test_byte_identical(self, tmp_path, loop_file):
        o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["invariants", loop_file, "--out", str(o1)])
        main(["invariants", loop_file, "--out", str(o2)])
        assert o1.read_bytes() == o2.read_bytes()


class TestVerify:
    def test_pass_on_fixture(self, loop_file, z2_cocycle_file, capsys):
        assert main(["verify", loop_file, z2_cocycle_file]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS skew-orbit-recovery" in out

    def test_trivial_group_passes(self, tmp_path, loop_file, capsys):
        kf = write(
            tmp_path / "k1.json", {"group": {"kind": "cyclic", "n": 1}, "map": {"e": "0"}}
        )
        assert main(["verify", loop_file, kf]) == 0

    def test_acyclic_fixture_runs_block_checks(self, tmp_path, capsys):
        qf = write(
            tmp_path / "se.json",
            {"vertices": ["w", "v"],
             "edges": [{"id": "e", "src": "w", "rng": "v", "weight": "1"}]},
        )
        kf = write(tmp_path / "k.json", {"group": Z2, "map": {"e": "1"}})
        assert main(["verify", qf, kf]) == 0
        out = capsys.readouterr().out
        assert "PASS block-multiset-identity" in out
        assert "PASS dual-action-morita-shadow" in out

    def test_injected_fault_fails(self, loop_file, z2_cocycle_file, capsys):
        assert main(["verify", loop_file, z2_cocycle_file, "--inject-fault"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_random_mode(self, capsys):
        assert main(["verify", "--random", "3", "--seed", "42"]) == 0
        out1 = capsys.readouterr().out
        assert main(["verify", "--random", "3", "--seed", "42"]) == 0
        assert capsys.readouterr().out == out1

    def test_random_mode_injected_fault_fails(self, capsys):
        assert main(["verify", "--random", "2", "--seed", "0", "--inject-fault"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith(("PASS case00", "FAIL case00")) for line in lines)
        assert any(line.startswith("FAIL case000 ") for line in lines)
        assert any(line.startswith("FAIL case001 ") for line in lines)

    def test_missing_args(self):
        assert main(["verify"]) == 2

    @pytest.mark.parametrize("args", [["loop", "kappa"], ["--random", "1"]],
                             ids=["files", "random"])
    def test_a_budget_above_sys_maxsize_is_the_default_budget(
            self, loop_file, z2_cocycle_file, capsys, args):
        argv = ["verify"] + [{"loop": loop_file, "kappa": z2_cocycle_file}.get(a, a) for a in args]
        assert main(argv + ["--budget", "24"]) == 0
        out = capsys.readouterr()
        assert out.err == "" and "FAIL" not in out.out
        assert main(argv + ["--budget", str(sys.maxsize + 1)]) == 0
        assert capsys.readouterr() == out

    @pytest.mark.parametrize("args, err", [
        (["--random", "1", "--budget", "0"], "--budget must be at least 1"),
        (["--random", "1", "--budget", "-1"], "--budget must be at least 1"),
        (["--random", "0"], "--random must be at least 1"),
        (["--random", "-3"], "--random must be at least 1"),
        (["--random", "2", "q.json", "k.json"], "--random takes no quiver or cocycle"),
        (["--random", "2", "q.json"], "--random takes no quiver or cocycle"),
        (["q.json", "k.json", "--seed", "5"], "--seed requires --random"),
    ], ids=["0", "-1", "random-0", "random-negative", "random-with-files",
            "random-with-quiver", "seed-without-random"])
    def test_budget_below_one_is_a_usage_error(self, capsys, args, err):
        assert main(["verify"] + args) == 2
        assert capsys.readouterr() == ("", f"parse error: {err}\n")


class TestExportDot:
    def test_two_cycle(self, tmp_path, capsys):
        doc = {
            "vertices": ["v", "w"],
            "edges": [
                {"id": "a", "src": "v", "rng": "w", "weight": "1"},
                {"id": "b", "src": "w", "rng": "v", "weight": "1/2"},
            ],
        }
        assert main(["export-dot", write(tmp_path / "q.json", doc)]) == 0
        out = capsys.readouterr().out
        assert '"v" -> "w" [label="a:1"];' in out
        assert '"w" -> "v" [label="b:1/2"];' in out

    def test_empty_quiver(self, tmp_path, capsys):
        doc = {"vertices": [], "edges": []}
        assert main(["export-dot", write(tmp_path / "q.json", doc)]) == 0
        assert capsys.readouterr().out == "digraph quiver {\n}\n"

    def test_quotes_and_backslashes_in_ids_round_trip(self, tmp_path, capsys):
        v, w, e = 'a"b', "c\\", 'x\\"y'
        doc = {"vertices": [v, w], "edges": [{"id": e, "src": v, "rng": w, "weight": "2"}]}
        assert main(["export-dot", write(tmp_path / "q.json", doc)]) == 0
        lines = capsys.readouterr().out.splitlines()
        quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')
        # Every line is fully tokenised: nothing is left between the quoted strings.
        assert [quoted.sub("", line) for line in lines[1:-1]] == ["  ;", "  ;", "   ->  [label=];"]
        strings = [[re.sub(r"\\(.)", r"\1", s) for s in quoted.findall(line)] for line in lines]
        assert strings == [[], [v], [w], [v, w, e + ":2"], []]

    def test_golden_skew_fixture(self, tmp_path, loop_file, z2_cocycle_file):
        skew_out = tmp_path / "skew.json"
        main(["skew", loop_file, z2_cocycle_file, "--out", str(skew_out)])
        d1, d2 = tmp_path / "a.dot", tmp_path / "b.dot"
        main(["export-dot", str(skew_out), "--out", str(d1)])
        main(["export-dot", str(skew_out), "--out", str(d2)])
        assert d1.read_bytes() == d2.read_bytes()
        assert d1.read_text() == (
            'digraph quiver {\n'
            '  "v@0";\n'
            '  "v@1";\n'
            '  "v@0" -> "v@1" [label="e@0:1"];\n'
            '  "v@1" -> "v@0" [label="e@1:1"];\n'
            '}\n'
        )


# Strings with quotes, backslashes, control and non-ASCII characters; ints past
# 64 bits either way; floats, true, false and null.
TEXTS = st.one_of(st.text(max_size=6), st.sampled_from(['"', "\\", "\x00\n\x1f", "é", "☃😀"]))
SCALARS = st.one_of(
    st.none(), st.booleans(), st.floats(), TEXTS,
    st.integers(), st.integers(min_value=2**64), st.integers(max_value=-2**64),
)


class TestRoundtrip:
    def test_parse_emit_identity_on_canonical_document(self):
        doc = {
            "vertices": ["a", "b"],
            "edges": [
                {"id": "e1", "src": "a", "rng": "b", "weight": "2/3"},
                {"id": "e2", "src": "b", "rng": "a", "weight": "4"},
            ],
        }
        assert qio.emit_quiver_document(qio.parse_quiver_document(doc)) == doc

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(
        SCALARS,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(TEXTS, max_size=4),
            st.lists(st.integers(), max_size=4),
            st.dictionaries(st.one_of(TEXTS, SCALARS), inner, max_size=4),
        ),
        max_leaves=24,
    ))
    def test_dumps_writes_what_json_dumps_writes(self, doc):
        assert qio.dumps(doc) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("doc", [
        {"v": ["o", "1"], "w": ("o", "2")},
        {"v": ["o"], "w": ("p",)},
        {"v": ["o"], "w": []},
        {"é": ["ü", "\u2603"], "tab\t": ['"\\', "\n"]},
        {"v": ["o", 1]},
        {"v": ["o"], "w": "o"},
        {"v": ["o"], "w": [["o"]]},
        {"v": ["o"], "w": {"x": ["o"]}},
        {1: ["o"], None: ["p"], 2.5: ["q"], True: ["r"], "s": ("t", "u")},
        {"phi": {"v": ("o", "1"), "w": ("o", "2")}, "n": [1, 2], "sigma": {}},
        [{"v": ["o"]}, {"w": ["p", "q"]}],
    ], ids=["lists-and-tuples", "one-element", "an-empty-list", "non-ascii", "mixed-items",
            "a-string-value", "a-nested-list", "a-nested-dict", "non-string-keys", "nested",
            "in-a-list"])
    def test_dumps_writes_dicts_of_string_lists_as_json_dumps_does(self, doc):
        assert qio.dumps(doc) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("doc", [{("a", "b"): 1}, [{"a"}]], ids=["tuple-key", "set"])
    def test_dumps_fails_where_json_dumps_fails(self, doc):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError):
            qio.dumps(doc)


S3 = {"kind": "symmetric", "n": 3}
S3_CYCLIC = (
    {"vertices": ["v", "w"],
     "edges": [{"id": "a", "src": "v", "rng": "w", "weight": "2/7"},
               {"id": "b", "src": "w", "rng": "v", "weight": "1"},
               {"id": "c", "src": "v", "rng": "v", "weight": "3"}]},
    {"group": S3, "map": {"a": "231", "b": "321", "c": "213"}},
)
S3_ACYCLIC = (
    {"vertices": ["u", "v", "w"],
     "edges": [{"id": "a", "src": "u", "rng": "v", "weight": "1"},
               {"id": "b", "src": "v", "rng": "w", "weight": "1/2"},
               {"id": "c", "src": "u", "rng": "w", "weight": "1"}]},
    {"group": S3, "map": {"a": "231", "b": "132", "c": "123"}},
)
Z1_LOOP = (LOOP_DOC, {"group": {"kind": "cyclic", "n": 1}, "map": {"e": "0"}})

S3_FAULT = "weight equivariance fails for edge 'a@123' under '132'"
SUITE_PASS = (
    "PASS translation-action-free\n"
    "PASS skew-orbit-recovery\n"
    "PASS gross-tucker-roundtrip\n"
    "PASS measure-descent-lift\n"
)
SUITE_S3_FAULT = (
    f"FAIL translation-action-free (AssertionError: {S3_FAULT})\n"
    f"FAIL skew-orbit-recovery (SkewError: invalid action: {S3_FAULT})\n"
    f"FAIL gross-tucker-roundtrip (SkewError: invalid action: {S3_FAULT})\n"
    f"FAIL measure-descent-lift (SkewError: invalid action: {S3_FAULT})\n"
)
BLOCKS_PASS = (
    "PASS block-multiset-identity\n"
    "PASS dual-action-morita-shadow\n"
    "PASS graded-dimension-sum\n"
)


class TestGolden:
    """Exact CLI output, byte for byte, on fixed inputs."""

    @pytest.mark.parametrize("fixture, fault, code, out", [
        (S3_CYCLIC, False, 0, SUITE_PASS),
        (S3_CYCLIC, True, 1, SUITE_S3_FAULT),
        (S3_ACYCLIC, False, 0, SUITE_PASS + BLOCKS_PASS),
        (S3_ACYCLIC, True, 1, SUITE_S3_FAULT + BLOCKS_PASS),
        (Z1_LOOP, False, 0, SUITE_PASS),
        (Z1_LOOP, True, 1,
         "PASS translation-action-free\n"
         "FAIL skew-orbit-recovery (AssertionError: orbit quiver differs from base)\n"
         "PASS gross-tucker-roundtrip\n"
         "FAIL measure-descent-lift (AssertionError: lifted base weights differ from the"
         " product's)\n"),
    ], ids=["s3-cyclic", "s3-cyclic-fault", "s3-acyclic", "s3-acyclic-fault",
            "z1", "z1-fault"])
    def test_verify(self, tmp_path, capsys, fixture, fault, code, out):
        qf = write(tmp_path / "q.json", fixture[0])
        kf = write(tmp_path / "k.json", fixture[1])
        argv = ["verify", qf, kf] + (["--inject-fault"] if fault else [])
        assert main(argv) == code
        assert capsys.readouterr() == (out, "")

    IDENT = {"v": "v", "w": "w"}
    SWAP = {"v": "w", "w": "v"}
    NOT_AN_ACTION = {"group": Z2, "vperm": {"0": SWAP, "1": SWAP},
                     "eperm": {"0": {"a": "b", "b": "a"}, "1": {"a": "b", "b": "a"}}}
    NOT_FREE = {"group": Z2, "vperm": {"0": IDENT, "1": IDENT},
                "eperm": {"0": {"a": "a", "b": "b"}, "1": {"a": "a", "b": "b"}}}

    Z3 = {"kind": "cyclic", "n": 3}
    IDENT_E = {"a": "a", "b": "b"}
    SWAP_E = {"a": "b", "b": "a"}
    # v -> w and v -> x: moving w alone keeps sources and breaks ranges.
    FORK_QUIVER = {
        "vertices": ["v", "w", "x"],
        "edges": [{"id": "a", "src": "v", "rng": "w", "weight": "1"},
                  {"id": "b", "src": "v", "rng": "x", "weight": "1"}],
    }

    @pytest.mark.parametrize("command, quiver, action, err", [
        ("quotient", SWAP_QUIVER, NOT_AN_ACTION,
         "error: invalid action: identity element does not act as the identity\n"),
        ("quotient", SWAP_QUIVER, NOT_FREE, "error: quotient requires a free action\n"),
        ("reconstruct", SWAP_QUIVER, NOT_AN_ACTION,
         "error: invalid action: identity element does not act as the identity\n"),
        ("reconstruct", SWAP_QUIVER, NOT_FREE,
         "error: reconstruction requires a free action\n"),
        ("quotient", SWAP_QUIVER,
         {"group": Z2, "vperm": {"0": IDENT, "1": {"v": "v", "w": "v"}},
          "eperm": {"0": IDENT_E, "1": SWAP_E}},
         "error: invalid action: vertex permutation for '1' is not a permutation"
         " of the vertices\n"),
        ("quotient", SWAP_QUIVER,
         {"group": Z2, "vperm": {"0": IDENT, "1": SWAP},
          "eperm": {"0": IDENT_E, "1": {"a": "b"}}},
         "error: invalid action: edge permutation for '1' is not a permutation"
         " of the edges\n"),
        ("quotient", SWAP_QUIVER,
         {"group": Z3, "vperm": {"0": IDENT, "1": SWAP, "2": SWAP},
          "eperm": {"0": IDENT_E, "1": SWAP_E, "2": SWAP_E}},
         "error: invalid action: vertex homomorphism law fails at ('1','1')\n"),
        ("reconstruct", SWAP_QUIVER,
         {"group": Z3, "vperm": {"0": IDENT, "1": IDENT, "2": IDENT},
          "eperm": {"0": IDENT_E, "1": SWAP_E, "2": SWAP_E}},
         "error: invalid action: edge homomorphism law fails at ('1','1')\n"),
        ("quotient", SWAP_QUIVER,
         {"group": Z2, "vperm": {"0": IDENT, "1": SWAP}, "eperm": {"0": IDENT_E, "1": IDENT_E}},
         "error: invalid action: source commuting fails for edge 'a' under '1'\n"),
        ("reconstruct", FORK_QUIVER,
         {"group": Z2, "vperm": {"0": {"v": "v", "w": "w", "x": "x"},
                                 "1": {"v": "v", "w": "x", "x": "w"}},
          "eperm": {"0": IDENT_E, "1": IDENT_E}},
         "error: invalid action: range commuting fails for edge 'a' under '1'\n"),
    ], ids=["quotient-invalid", "quotient-not-free", "reconstruct-invalid",
            "reconstruct-not-free", "vertex-permutation", "edge-permutation",
            "vertex-homomorphism", "edge-homomorphism", "source-commuting",
            "range-commuting"])
    def test_action_errors(self, tmp_path, capsys, command, quiver, action, err):
        qf = write(tmp_path / "q.json", quiver)
        af = write(tmp_path / "a.json", action)
        assert main([command, qf, af]) == 1
        assert capsys.readouterr() == ("", err)

    GOLDEN = Path(__file__).parent / "golden"

    @pytest.mark.parametrize("command, extra, expected", [
        ("reconstruct", [], "z3_reconstruct.out"),
        ("reconstruct", ["--section", "z3_section.json"], "z3_reconstruct_section.out"),
        ("quotient", [], "z3_quotient.out"),
    ], ids=["reconstruct", "reconstruct-section", "quotient"])
    def test_free_z3_action(self, capsys, command, extra, expected):
        # A Z/3 translation action on a skew product whose ids were renamed
        # and reordered; the section file picks other points than the default.
        files = [str(self.GOLDEN / name) for name in ("z3_quiver.json", "z3_action.json")]
        extra = [str(self.GOLDEN / x) if x.endswith(".json") else x for x in extra]
        assert main([command, *files, *extra]) == 0
        assert capsys.readouterr() == ((self.GOLDEN / expected).read_text(), "")

    def test_verify_fails_under_python_O(self, tmp_path):
        qf = write(tmp_path / "q.json", S3_CYCLIC[0])
        kf = write(tmp_path / "k.json", S3_CYCLIC[1])
        env = dict(os.environ, PYTHONPATH=str(Path(quiverskew.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "quiverskew.cli", "verify", qf, kf, "--inject-fault"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == SUITE_S3_FAULT


@pytest.mark.parametrize("argv, code, expected", [
    (["verify", "--random", "20", "--seed", "0"], 0, "verify_random20_seed0.out"),
    (["verify", "--random", "20", "--seed", "0", "--inject-fault"], 1,
     "verify_random20_seed0_fault.out"),
    (["skew", "q.json", "k.json"], 0, "s3_cyclic_skew.out"),
], ids=["verify-random", "verify-random-fault", "skew-s3"])
def test_golden_stdout(tmp_path, capsys, argv, code, expected):
    # skew runs on the S3_CYCLIC fixture; verify --random on seeded draws
    # over Z/2, Z/3, Z/4, Z/6 and S3.
    files = {"q.json": write(tmp_path / "q.json", S3_CYCLIC[0]),
             "k.json": write(tmp_path / "k.json", S3_CYCLIC[1])}
    assert main([files.get(a, a) for a in argv]) == code
    assert capsys.readouterr() == ((TestGolden.GOLDEN / expected).read_text(), "")


def test_run_suite_validates_and_takes_the_quotient_once(monkeypatch):
    built = count_facts(monkeypatch)
    q = qio.parse_quiver_document(S3_CYCLIC[0])
    kappa = qio.parse_cocycle_document(S3_CYCLIC[1], q)
    assert all(ok for _, ok, _ in verify_mod.run_suite(q, kappa))
    # One validation and one quotient, for the skew product and its translation action.
    assert len(built) == 1 and built[0].report == [] and built[0].quotient is not None


def test_a_section_budget_above_sys_maxsize_tries_every_section():
    q = qio.parse_quiver_document(LOOP_DOC)
    kappa = qio.parse_cocycle_document({"group": Z2, "map": {"e": "1"}}, q)
    results = verify_mod.run_suite(q, kappa, section_budget=2**63)
    assert results == verify_mod.run_suite(q, kappa, section_budget=2)
    assert all(ok for _, ok, _ in results)


def test_gross_tucker_roundtrip_fails_when_no_section_is_tried():
    q = qio.parse_quiver_document(S3_CYCLIC[0])
    kappa = qio.parse_cocycle_document(S3_CYCLIC[1], q)
    results = {name: (ok, detail) for name, ok, detail in
               verify_mod.run_suite(q, kappa, section_budget=0)}
    assert results["gross-tucker-roundtrip"] == (
        False, "AssertionError: no section within the budget")


def verify_s3_acyclic(tmp_path, capsys):
    """`verify` on the S3 acyclic fixture: (exit code, stdout lines)."""
    qf = write(tmp_path / "q.json", S3_ACYCLIC[0])
    kf = write(tmp_path / "k.json", S3_ACYCLIC[1])
    code = main(["verify", qf, kf])
    return code, capsys.readouterr().out.splitlines()


def only_fails(lines, name):
    assert len(lines) == 7
    fails = [line for line in lines if not line.startswith("PASS ")]
    assert len(fails) == 1 and fails[0].startswith(f"FAIL {name} (AssertionError")


def test_block_multiset_identity_fails_when_one_skew_block_is_off(tmp_path, capsys, monkeypatch):
    real = verify_mod.acyclic_block_structure

    def skew_off_by_one(q):
        blocks = real(q).blocks
        if len(q.vertices) > 3:  # the skew product, not the base
            blocks = blocks[:-1] + (blocks[-1] + 1,)
        return BlockStructure(blocks)

    monkeypatch.setattr(verify_mod, "acyclic_block_structure", skew_off_by_one)
    code, lines = verify_s3_acyclic(tmp_path, capsys)
    assert code == 1
    only_fails(lines, "block-multiset-identity")


def test_morita_shadow_fails_when_one_path_count_is_off(tmp_path, capsys, monkeypatch):
    real = verify_mod.path_counts

    def one_more(q):
        counts = real(q)
        counts[q.vertices[0]] += 1  # u@123; u receives no edge
        return counts

    monkeypatch.setattr(verify_mod, "path_counts", one_more)
    code, lines = verify_s3_acyclic(tmp_path, capsys)
    assert code == 1
    only_fails(lines, "dual-action-morita-shadow")


@pytest.mark.parametrize("degree", ["123", "132", "213", "231", "312", "321"])
def test_graded_dimension_sum_fails_when_one_degree_is_off(tmp_path, capsys, monkeypatch, degree):
    real = verify_mod.graded_dimensions

    def off_by_one(q, kappa):
        dims = real(q, kappa)
        dims[degree] += 1
        return dims

    monkeypatch.setattr(verify_mod, "graded_dimensions", off_by_one)
    code, lines = verify_s3_acyclic(tmp_path, capsys)
    assert code == 1
    only_fails(lines, "graded-dimension-sum")


def inverted_cocycle(w):
    G = w.cocycle.group
    return w._replace(cocycle=Cocycle(G, {o: G.inv(k) for o, k in w.cocycle.map.items()}))


def inverted_sigma(w):
    G = w.cocycle.group
    return w._replace(sigma={e: (o, G.inv(g)) for e, (o, g) in w.sigma.items()})


def inverted_translators(w):
    """Each g_v inverted, and with it the recovered cocycle: on an abelian group
    the witness still keeps the skew-product rule."""
    G = w.cocycle.group
    return inverted_cocycle(w)._replace(
        phi={v: (o, G.inv(g)) for v, (o, g) in w.phi.items()},
        sigma={e: (o, G.inv(g)) for e, (o, g) in w.sigma.items()})


def doubled_weights(p):
    return p.with_weights({e.id: 2 * e.weight for e in p.edges})


def suite_failures(cases, inject_fault=False):
    """The FAIL lines of run_suite over (label, q, kappa) cases, as `verify` prints them."""
    return [f"FAIL {label}{name} ({detail})" for label, q, kappa in cases
            for name, ok, detail in verify_mod.run_suite(q, kappa, inject_fault=inject_fault)
            if not ok]


# Each mutant of a function that run_suite calls, and the least number of the 60
# seeded `verify --random 60 --seed 0` cases in which each named check must FAIL.
VERIFY_MUTANTS = {
    "reconstruction-ignores-its-section": (
        "gross_tucker_reconstruct", lambda real: lambda q, a, section=None: real(q, a),
        {"gross-tucker-roundtrip": 60}),
    # Caught wherever some recovered value is not an involution.
    "recovered-cocycle-inverted": (
        "gross_tucker_reconstruct", lambda real: lambda *args: inverted_cocycle(real(*args)),
        {"gross-tucker-roundtrip": 50}),
    # Caught wherever some element of phi is not an involution.
    "phi-and-cocycle-inverted": (
        "gross_tucker_reconstruct", lambda real: lambda *args: inverted_translators(real(*args)),
        {"gross-tucker-roundtrip": 56}),
    # Caught wherever some element of sigma is not an involution.
    "sigma-inverted": (
        "gross_tucker_reconstruct", lambda real: lambda *args: inverted_sigma(real(*args)),
        {"gross-tucker-roundtrip": 51}),
    # Caught in every case with an edge.
    "product-weights-doubled": (
        "skew_product", lambda real: lambda q, kappa: doubled_weights(real(q, kappa)),
        {"skew-orbit-recovery": 54, "measure-descent-lift": 54}),
}


def test_every_check_passes_on_the_seeded_cases():
    assert suite_failures(_random_cases(60, 0)) == []


@pytest.mark.parametrize("mutant", VERIFY_MUTANTS)
def test_each_mutant_fails_its_checks(monkeypatch, mutant):
    name, mutate, least = VERIFY_MUTANTS[mutant]
    monkeypatch.setattr(verify_mod, name, mutate(getattr(verify_mod, name)))
    fails = Counter(line.split()[2] for line in suite_failures(_random_cases(60, 0)))
    assert all(fails[check] >= count for check, count in least.items()), fails


def test_an_injected_fault_fails_the_checks_of_the_golden():
    # The first 20 of the 60 seeded cases are the 20 of `verify --random 20 --seed 0`.
    golden = (TestGolden.GOLDEN / "verify_random20_seed0_fault.out").read_text().splitlines()
    cases = itertools.islice(_random_cases(60, 0), 20)
    assert suite_failures(cases, inject_fault=True) == [
        line for line in golden if line.startswith("FAIL ")]


def test_run_suite_on_a_long_chain():
    q, kappa = chain(40)
    with deadline(1):
        results = verify_mod.run_suite(q, kappa)
    assert [(name, ok) for name, ok, _ in results] == [
        (line[5:], True) for line in (SUITE_PASS + BLOCKS_PASS).splitlines()
    ]


TABLE_Z2 = {"kind": "table", "elements": ["0", "1"], "identity": "0",
            "table": [["0", "1"], ["1", "0"]]}


class TestDocumentTypes:
    """Wrong JSON types inside group, cocycle and action documents are
    parse errors, not tracebacks."""

    @pytest.mark.parametrize("cocycle", [
        {"group": Z2, "map": {"e": ["1"]}},
        {"group": dict(TABLE_Z2, elements=["0", ["1"]]), "map": {"e": "1"}},
        {"group": dict(TABLE_Z2, table=[["0", "1"], 5]), "map": {"e": "1"}},
        {"group": dict(TABLE_Z2, table=[["0", "1"], ["1", 0]]), "map": {"e": "1"}},
    ], ids=["map-value-list", "element-list", "row-number", "entry-number"])
    def test_cocycle(self, tmp_path, loop_file, capsys, cocycle):
        kf = write(tmp_path / "k.json", cocycle)
        assert main(["skew", loop_file, kf]) == 2
        assert capsys.readouterr().err.startswith("parse error: ")

    @pytest.mark.parametrize("perms", [
        {"vperm": {"0": 5, "1": {"v": "w", "w": "v"}}},
        {"eperm": {"0": {"a": "a", "b": "b"}, "1": {"a": ["b"], "b": "a"}}},
    ], ids=["vperm-number", "eperm-value-list"])
    def test_action(self, tmp_path, capsys, perms):
        qf = write(tmp_path / "q.json", SWAP_QUIVER)
        af = write(tmp_path / "a.json", dict(SWAP_ACTION, **perms))
        assert main(["quotient", qf, af]) == 2
        assert capsys.readouterr().err.startswith("parse error: ")


    @pytest.mark.parametrize("command", ["quotient", "reconstruct"])
    def test_a_later_image_that_is_no_string_is_a_parse_error(self, tmp_path, capsys, command):
        # The table of "0" is not a permutation: that alone exits 1.  The image 5
        # in a later table is still found first, and exits 2.
        qf = write(tmp_path / "q.json", SWAP_QUIVER)
        af = write(tmp_path / "a.json", dict(
            SWAP_ACTION, vperm={"0": {"v": "v", "w": "v"}, "1": {"v": "w", "w": "v"}},
            eperm={"0": {"a": "a", "b": "b"}, "1": {"a": 5, "b": "a"}}))
        assert main([command, qf, af]) == 2
        assert capsys.readouterr() == (
            "", "parse error: action document: permutation for '1' must map strings to strings\n")
        af = write(tmp_path / "a.json", dict(
            SWAP_ACTION, vperm={"0": {"v": "v", "w": "v"}, "1": {"v": "w", "w": "v"}}))
        assert main([command, qf, af]) == 1
        assert capsys.readouterr() == ("", "error: invalid action: vertex permutation for '0' "
                                           "is not a permutation of the vertices\n")


EDGE = {"id": "e", "src": "v", "rng": "v", "weight": "1"}


class TestParseMessages:
    def test_weight_that_is_not_a_fraction(self):
        with pytest.raises(qio.ParseError) as info:
            qio.parse_fraction("1.5")
        assert str(info.value) == "weight must be a string like '3' or '5/7', got '1.5'"

    def test_vertex_that_is_not_a_string(self):
        with pytest.raises(qio.ParseError) as info:
            qio.parse_quiver_document({"vertices": ["v", 1], "edges": []})
        assert str(info.value) == "quiver document: vertices must be strings"

    @pytest.mark.parametrize("doc, message", [
        ({"kind": "cyclic", "n": 0},
         "group document: cyclic group order must be between 1 and 120"),
        ({"kind": "table", "elements": [str(i) for i in range(121)], "identity": "0",
          "table": []},
         "group document: order above 120 is out of scope"),
        ({"kind": "dihedral", "n": 4}, "group document: unknown kind 'dihedral'"),
        ({"kind": "cyclic", "n": True}, "group document: field 'n' has wrong type"),
        ({"kind": "symmetric", "n": True}, "group document: field 'n' has wrong type"),
    ], ids=["cyclic-zero", "table-too-large", "unknown-kind", "cyclic-boolean",
            "symmetric-boolean"])
    def test_group_document(self, doc, message):
        for _ in range(2):  # a refused document is refused again
            with pytest.raises(qio.ParseError) as info:
                qio.parse_group_document(doc)
            assert str(info.value) == message

    @pytest.mark.parametrize("rec, message", [
        (["e", "v", "v", "1"], "edge record: missing field 'id'"),
        (5, "edge record: missing field 'id'"),
        *[({k: v for k, v in EDGE.items() if k != key}, f"edge record: missing field {key!r}")
          for key in EDGE],
        *[(dict(EDGE, **{key: value}), f"edge record: field {key!r} has wrong type")
          for key in EDGE for value in (1, ["e"], None)],
    ], ids=["list", "number"] + [f"missing-{key}" for key in EDGE]
           + [f"{key}-{kind}" for key in EDGE for kind in ("number", "list", "null")])
    def test_edge_record(self, rec, message):
        with pytest.raises(qio.ParseError) as info:
            qio.parse_quiver_document({"vertices": ["v"], "edges": [EDGE, rec]})
        assert str(info.value) == message

    @pytest.mark.parametrize("perms, key", [
        ({"vperm": {"0": {"v": "v", "w": "w"}, "9": 5, "1": {"v": "w", "w": "v"}, "8": {}},
          "eperm": {"0": {"a": "a", "b": "b"}, "7": {}, "1": {"a": "b", "b": "a"}}}, "9"),
        ({"eperm": {"7": {}, "0": {"a": "a", "b": "b"}, "6": 5, "1": {"a": "b", "b": "a"}}},
         "7"),
        ({"vperm": {"1": {"v": "w", "w": "v"}, "01": {}}}, "01"),
    ], ids=["vperm-first", "eperm-in-order", "missing-element-too"])
    def test_action_key_that_is_not_a_group_element(self, perms, key):
        q = qio.parse_quiver_document(SWAP_QUIVER)
        with pytest.raises(qio.ParseError) as info:
            qio.parse_action_document(dict(SWAP_ACTION, **perms), q)
        assert str(info.value) == f"action document: {key!r} is not a group element"

    def test_cocycle_key_that_is_not_an_edge(self):
        q = qio.parse_quiver_document(SWAP_QUIVER)
        doc = {"group": Z2, "map": {"a": "1", "yy": "0", "b": "0", "zz": "1"}}
        with pytest.raises(qio.ParseError) as info:
            qio.parse_cocycle_document(doc, q)
        assert str(info.value) == "cocycle document: 'yy' is not an edge"


@pytest.mark.parametrize("command", ["skew", "verify", "invariants"])
def test_a_cocycle_key_that_is_not_an_edge_exits_2(tmp_path, capsys, command):
    qf = write(tmp_path / "q.json", SWAP_QUIVER)
    kf = write(tmp_path / "k.json", {"group": Z2, "map": {"a": "1", "b": "0", "zz": "1"}})
    argv = [command, qf, "--cocycle", kf] if command == "invariants" else [command, qf, kf]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "parse error: cocycle document: 'zz' is not an edge\n")


@pytest.mark.parametrize("command", ["quotient", "reconstruct"])
def test_an_action_key_that_is_not_a_group_element_exits_2(tmp_path, loop_file, capsys, command):
    af = write(tmp_path / "a.json", {"group": {"kind": "cyclic", "n": 1},
                                     "vperm": {"0": {"v": "v"}, "9": 5},
                                     "eperm": {"0": {"e": "e"}}})
    assert main([command, loop_file, af]) == 2
    assert capsys.readouterr() == ("", "parse error: action document: '9' is not a group element\n")


class TestSharedGroups:
    @pytest.mark.parametrize("doc, make", [
        ({"kind": "cyclic", "n": 6}, quiverskew.make_cyclic),
        ({"kind": "symmetric", "n": 4}, quiverskew.make_symmetric),
    ], ids=["cyclic", "symmetric"])
    def test_named_groups_are_built_once(self, doc, make):
        group = qio.parse_group_document(doc)
        assert qio.parse_group_document(dict(doc)) is group is make(doc["n"])

    def test_table_documents_give_distinct_groups(self):
        first, second = (qio.parse_group_document(TABLE_Z2) for _ in range(2))
        assert first is not second
        assert first.table == second.table


def test_invariants_parses_the_cocycle_on_a_cyclic_quiver(tmp_path, loop_file):
    kf = write(tmp_path / "k.json", {"group": Z2})
    assert main(["invariants", loop_file, "--cocycle", kf]) == 2


def test_reconstruct_parses_the_section_before_checking_the_action(tmp_path, capsys):
    qf = write(tmp_path / "q.json", SWAP_QUIVER)
    af = write(tmp_path / "a.json", TestGolden.NOT_AN_ACTION)
    sf = write(tmp_path / "s.json", ["v"])
    assert main(["reconstruct", qf, af, "--section", sf]) == 2
    assert capsys.readouterr().err == (
        "parse error: section document must map orbit ids to vertex ids\n"
    )


NAMES = st.sampled_from(["0", "1", "12", "v", "a", "e"])
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 6), NAMES),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(NAMES, inner, max_size=3),
    ),
    max_leaves=6,
)
DELETE = object()


def _paths(doc, path=()):
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield path + (k,)
        yield from _paths(v, path + (k,))


def _edit(doc, edits):
    doc = copy.deepcopy(doc)
    for path, value in edits:
        try:
            parent = doc
            for k in path[:-1]:
                parent = parent[k]
            if value is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit removed this path
    return doc


def broken(*docs):
    """Valid documents with one or two fields removed or replaced by any
    JSON value, at any depth; or any JSON value."""
    return st.one_of(JSON, st.sampled_from(docs).flatmap(lambda doc: st.builds(
        _edit, st.just(doc), st.lists(
            st.tuples(st.sampled_from(list(_paths(doc))), st.one_of(st.just(DELETE), JSON)),
            min_size=1, max_size=2,
        ),
    )))


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(deadline=None, max_examples=100)
@given(command=st.sampled_from(["skew", "verify", "invariants"]),
       cocycle=broken(*({"group": g, "map": {"a": "1", "b": "1"}}
                        for g in (Z2, TABLE_Z2, {"kind": "symmetric", "n": 2}))))
def test_fuzz_cocycle_documents(tmp_path_factory, command, cocycle):
    d = tmp_path_factory.mktemp("fuzz")
    qf, kf = write(d / "q.json", SWAP_QUIVER), write(d / "k.json", cocycle)
    argv = [command, qf, "--cocycle", kf] if command == "invariants" else [command, qf, kf]
    assert run_quietly(argv) in (0, 1, 2)


@settings(deadline=None, max_examples=100)
@given(command=st.sampled_from(["quotient", "reconstruct"]),
       action=broken(SWAP_ACTION, dict(SWAP_ACTION, group=TABLE_Z2)))
def test_fuzz_action_documents(tmp_path_factory, command, action):
    d = tmp_path_factory.mktemp("fuzz")
    qf, af = write(d / "q.json", SWAP_QUIVER), write(d / "a.json", action)
    assert run_quietly([command, qf, af]) in (0, 1, 2)
