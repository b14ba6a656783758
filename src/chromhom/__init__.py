"""Exact computation of weighted chromatic symmetric homology.

Vertex-weighted graphs, their chain complexes of induced symmetric group
modules, bigraded homology tables and Frobenius series, the weighted
chromatic symmetric function, and machine verification of the
deletion-contraction short and long exact sequences, all over exact
rational arithmetic.
"""

__version__ = "0.1.0"

from .graphs import (
    VertexWeightedGraph,
    build_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    graph_from_weights,
    modify_edge,
    path_graph,
    single_vertex,
    star_graph,
    state_profile,
)
from .symfunc import (
    SymFunc,
    basis_convert,
    check_csf_oracle,
    csf_colorings_oracle,
    csf_state_sum,
)
from .characters import CharacterTable, character_table
from .complexes import ChainComplex, build_complex, per_edge_map
from .homology import (
    FrobeniusSeries,
    HomologyTable,
    frobenius_series,
    homology_table,
    span_indices,
    span_zero,
)
from .lescheck import (
    LESReport,
    build_ses_maps,
    verify_les,
    verify_structure_theorems,
)
from .repn import act_on_label, chain_labels, split_projection

__all__ = [name for name in dir() if not name.startswith("_")]
