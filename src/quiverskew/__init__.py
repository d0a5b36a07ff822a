"""Skew products, group actions, and algebra invariants of finite weighted quivers.

The names below are imported from their modules on first use (PEP 562), so that
importing one module, as the command line does, compiles only what it imports.
"""

import importlib

_EXPORTS = {
    "quiver": ("Edge", "FiniteQuiver", "QuiverMorphism", "QuiverIso", "IsoBudgetExceeded",
               "validate_quiver", "check_iso", "iso_search"),
    "group": ("FiniteGroup", "QuiverAction", "make_cyclic", "make_symmetric", "validate_group",
              "validate_action", "is_free", "orbits"),
    "skew": ("Cocycle", "Section", "GrossTuckerWitness", "skew_product", "skew_vertex_id",
             "skew_edge_id", "translation_action", "quotient_quiver", "lift_system",
             "default_section", "gross_tucker_reconstruct"),
    "cstar": ("BlockStructure", "KTheory", "SmithNormalForm", "is_acyclic", "regular_vertices",
              "vertex_matrix", "path_counts", "smith_normal_form", "k_theory",
              "acyclic_block_structure", "graded_dimensions"),
    "verify": ("run_suite", "all_sections"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    """The exported ``name`` from its module, or the submodule ``name``; kept once found."""
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
