"""The record types: their repr text, immutability and equality by value; that
importing the CLI loads neither ``dataclasses`` nor ``typing`` nor the modules
only some commands use; and the package's names, resolved on first use."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import quiverskew
from quiverskew import (
    BlockStructure,
    Cocycle,
    Edge,
    FiniteQuiver,
    GrossTuckerWitness,
    KTheory,
    QuiverAction,
    QuiverIso,
    QuiverMorphism,
    Section,
    SmithNormalForm,
    make_cyclic,
)


def samples():
    """Per record type: a function that builds a sample from fresh values
    (only the group is shared), and the sample's repr text."""
    G = make_cyclic(2)

    def morphism():
        return QuiverMorphism({"v": "w"}, {"a": "b"})

    return [
        (lambda: Edge("a", "v", "w", Fraction(3, 7)),
         "Edge(id='a', src='v', rng='w', weight=Fraction(3, 7))"),
        (morphism, "QuiverMorphism(vmap={'v': 'w'}, emap={'a': 'b'})"),
        (lambda: QuiverIso(morphism()),
         "QuiverIso(forward=QuiverMorphism(vmap={'v': 'w'}, emap={'a': 'b'}))"),
        (lambda: KTheory((2, 6), 1, 0),
         "KTheory(k0_invariant_factors=(2, 6), k0_free_rank=1, k1_rank=0)"),
        (lambda: SmithNormalForm((1, 2), ((1, 0), (0, 1)), ((0, 1), (1, 0))),
         "SmithNormalForm(diagonal=(1, 2), left=((1, 0), (0, 1)), right=((0, 1), (1, 0)))"),
        (lambda: Section({"v": "v@0"}), "Section(representative={'v': 'v@0'})"),
        (lambda: GrossTuckerWitness(
            FiniteQuiver(["v"], [Edge("a", "v", "v", 1)]), Cocycle(G, {"a": "1"}),
            {"v@0": ("v", "0")}, {"a@0": ("a", "0")}),
         "GrossTuckerWitness(quotient=FiniteQuiver(1 vertices, 1 edges), "
         "cocycle=Cocycle(group=FiniteGroup(order=2), map={'a': '1'}), "
         "phi={'v@0': ('v', '0')}, sigma={'a@0': ('a', '0')})"),
        (lambda: BlockStructure((1, 2)), "BlockStructure(blocks=(1, 2))"),
        (lambda: Cocycle(G, {"a": "1"}), "Cocycle(group=FiniteGroup(order=2), map={'a': '1'})"),
        (lambda: QuiverAction(G, {"0": {"v": "v"}, "1": {"v": "v"}},
                              {"0": {"a": "a"}, "1": {"a": "a"}}),
         "QuiverAction(group=FiniteGroup(order=2), "
         "vperm=mappingproxy({'0': mappingproxy({'v': 'v'}), '1': mappingproxy({'v': 'v'})}), "
         "eperm=mappingproxy({'0': mappingproxy({'a': 'a'}), '1': mappingproxy({'a': 'a'})}))"),
    ]


SAMPLES = samples()
IDS = [text[:text.index("(")] for _, text in SAMPLES]


@pytest.mark.parametrize("build, text", SAMPLES, ids=IDS)
def test_repr(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build, text", SAMPLES, ids=IDS)
def test_fields_cannot_be_assigned(build, text):
    record = build()
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("build, text", SAMPLES, ids=IDS)
def test_equal_by_value(build, text):
    first, second = build(), build()
    assert first == second and first is not second
    assert first == tuple(first)  # a record is a tuple of its field values
    assert first != tuple(first)[:-1] + (object(),)


def test_edge_is_hashable_by_value():
    assert hash(Edge("a", "v", "w", 1)) == hash(Edge("a", "v", "w", Fraction(1)))
    assert len({Edge("a", "v", "w", 1), Edge("a", "v", "w", Fraction(2, 2))}) == 1


def test_edge_make_and_replace_skip_the_weight_coercion():
    e = Edge("a", "v", "w", 1)
    assert type(e._replace(weight=2).weight) is int
    assert type(Edge._make(("a", "v", "w", 2)).weight) is int


def test_action_is_not_hashable_and_keeps_its_memo():
    a = SAMPLES[IDS.index("QuiverAction")][0]()
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(AttributeError):
        del a._memo


def test_action_replace_builds_an_action_like_the_constructor():
    q = FiniteQuiver(["v", "w"], [Edge("a", "v", "w", 1), Edge("b", "w", "v", 1)])
    vperm = {"0": {"v": "v", "w": "w"}, "1": {"v": "w", "w": "v"}}
    a = QuiverAction(make_cyclic(2), {g: {x: x for x in "vw"} for g in "01"},
                     {"0": {"a": "a", "b": "b"}, "1": {"a": "b", "b": "a"}})
    assert quiverskew.validate_action(q, a) != []
    b = a._replace(vperm=vperm)
    assert b == QuiverAction(a.group, vperm, a.eperm)
    assert quiverskew.validate_action(q, b) == [] and quiverskew.is_free(q, b)
    vperm["1"]["v"] = "v"
    with pytest.raises(TypeError):
        b.vperm["1"]["v"] = "v"
    assert b.vperm["1"] == {"v": "w", "w": "v"}


def test_importing_the_cli_loads_neither_dataclasses_nor_typing():
    # In a fresh interpreter: pytest and hypothesis load these modules themselves.
    env = dict(os.environ, PYTHONPATH=str(Path(quiverskew.__file__).parents[1]))

    def modules(code):
        out = subprocess.run([sys.executable, "-c", code + "print(sorted(sys.modules))"],
                             env=env, capture_output=True, text=True, timeout=60, check=True)
        return set(ast.literal_eval(out.stdout))

    loaded = modules("import quiverskew.cli, sys; ") - modules("import sys; ")
    assert "quiverskew.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "typing", "ast", "dis"}
    # the commands that use them import these
    assert not loaded & {"quiverskew.cstar", "quiverskew.verify", "quiverskew.randgen"}


def test_the_package_names_resolve_on_first_use():
    names = {}
    exec("from quiverskew import *", names)
    assert set(names) - {"__builtins__"} == set(quiverskew.__all__)
    for name in quiverskew.__all__:
        module = sys.modules[f"quiverskew.{quiverskew._HOME[name]}"]
        assert getattr(quiverskew, name) is getattr(module, name) is names[name]
    assert set(quiverskew.__all__) <= set(dir(quiverskew))
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        quiverskew.nope


# Exports that nothing in src/ calls, kept as the package's entry points.
ENTRY_POINTS = {
    "iso_search",  # decides whether two quivers are isomorphic, with a witness
    "smith_normal_form",  # the Smith form with its unimodular witnesses
}


def test_every_export_has_a_caller_in_src_or_is_an_entry_point():
    """A name counts as called when a module of src/ other than ``__init__`` reads it
    outside the top-level statement that defines it."""
    called = set()
    for path in Path(quiverskew.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            defined = {getattr(stmt, "name", None)} | {
                t.id for t in getattr(stmt, "targets", ()) if isinstance(t, ast.Name)}
            read = {node.id for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            read |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            called |= read - defined
    assert set(quiverskew.__all__) - called == ENTRY_POINTS
