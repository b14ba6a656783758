"""Exact computation of weighted chromatic symmetric homology.

Vertex-weighted graphs, their chain complexes of induced symmetric group
modules, bigraded homology tables and Frobenius series, the weighted
chromatic symmetric function, and machine verification of the
deletion-contraction short and long exact sequences, all over exact
rational arithmetic.  Each export loads its module on first use (PEP 562),
so a process compiles only the engine modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {  # exported name -> the module that defines it
    name: module
    for module, names in {
        "graphs": ("VertexWeightedGraph", "build_graph", "complete_graph", "cycle_graph",
                   "disjoint_union", "graph_from_weights", "modify_edge", "path_graph",
                   "single_vertex", "star_graph", "state_profile"),
        "symfunc": ("SymFunc", "basis_convert", "check_csf_oracle",
                    "csf_colorings_oracle", "csf_state_sum"),
        "characters": ("CharacterTable", "character_table"),
        "complexes": ("ChainComplex", "per_edge_map"),
        "homology": ("FrobeniusSeries", "HomologyTable", "frobenius_series",
                     "homology_table", "span_indices", "span_zero"),
        "lescheck": ("LESReport", "build_ses_maps", "verify_les",
                     "verify_structure_theorems"),
        "repn": ("act_on_label", "split_projection"),
    }.items()
    for name in names
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
