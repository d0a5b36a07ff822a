"""Skew products, group actions, and algebra invariants of finite weighted quivers."""

from .quiver import (
    Edge,
    FiniteQuiver,
    QuiverMorphism,
    QuiverIso,
    IsoBudgetExceeded,
    validate_quiver,
    check_morphism,
    check_iso,
    iso_search,
)
from .group import (
    FiniteGroup,
    QuiverAction,
    make_cyclic,
    make_symmetric,
    validate_group,
    validate_action,
    is_free,
    edge_free,
    orbits,
)
from .skew import (
    Cocycle,
    Section,
    GrossTuckerWitness,
    SkewOrbitError,
    skew_product,
    skew_vertex_id,
    skew_edge_id,
    translation_action,
    quotient_quiver,
    lift_system,
    default_section,
    gross_tucker_reconstruct,
    check_skew_orbit,
)
from .cstar import (
    BlockStructure,
    KTheory,
    SmithNormalForm,
    is_acyclic,
    regular_vertices,
    vertex_matrix,
    path_counts,
    smith_normal_form,
    k_theory,
    acyclic_block_structure,
    graded_dimensions,
)
from .verify import run_suite, all_sections

__version__ = "0.1.0"
