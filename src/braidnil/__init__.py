"""Exact computation in the class-2 nilpotent quotients of the braid groups.

The public names load on first use (PEP 562): `import braidnil` imports no
submodule, and `braidnil.X` imports only the submodule that defines X, so a
CLI request loads only the modules that it runs.
"""

import importlib

# each public name, and each submodule in __all__, by the submodule that defines it
_MODULE_OF = {name: module for module, names in {
    "core": (
        "BraidWord", "CommPart", "DomainError", "NilElement", "Permutation", "PurePart", "SUBGROUPS", "collect",
        "comm_gen", "comm_gen_word", "commutator_word", "conj", "core", "element_from_dict", "element_to_dict",
        "identity", "inv", "mul", "order", "pairs", "power", "pure_gen", "pure_gen_word", "sigma", "tits_lift",
        "triples", "word_from_dict", "word_to_dict",
    ),
    "expr": ("Expression", "ExpressionError", "expr", "parse"),
    "invariants": (
        "HolonomyMatrix", "RankTable", "combined_matrix", "dimension_table", "hirsch_length", "holonomy_matrix",
        "invariants", "lcs_rank", "orientability_check",
    ),
    "orbits": ("OrbitBasis", "orbit_basis_of", "orbit_partition", "orbits"),
    "presentations": (
        "RelationReport", "braid_presentation", "full_twist", "presentations", "pure_presentation",
        "subgroup_presentation",
    ),
    "torsion": (
        "compatible_residues", "conjugacy_decide", "conjugacy_witness", "delta", "delta_power_coefficients",
        "delta_word", "element_with_cycle_type", "finite_order_element", "torsion", "torsion_spectrum",
    ),
}.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f"{__name__}.{module}")
    return loaded if name == module else getattr(loaded, name)


def __dir__():
    return sorted(globals().keys() | _MODULE_OF.keys())
