"""Exact computation in the class-2 nilpotent quotients of the braid groups."""

from .core import (
    BraidWord,
    CommPart,
    DomainError,
    NilElement,
    Permutation,
    PurePart,
    collect,
    comm_gen,
    comm_gen_word,
    commutator_word,
    conj,
    element_from_dict,
    element_to_dict,
    identity,
    inv,
    mul,
    order,
    pairs,
    power,
    pure_gen,
    pure_gen_word,
    sigma,
    tits_lift,
    triples,
    word_from_dict,
    word_to_dict,
)
from .expr import Expression, ExpressionError, parse
from .invariants import (
    HolonomyMatrix,
    RankTable,
    combined_matrix,
    dimension_table,
    hirsch_length,
    holonomy_matrix,
    lcs_rank,
    orientability_check,
)
from .orbits import OrbitBasis, cycle_element, orbit_basis_of, orbit_partition
from .presentations import (
    RelationReport,
    SUBGROUPS,
    braid_presentation,
    full_twist,
    pure_presentation,
    subgroup_presentation,
)
from .torsion import (
    compatible_residues,
    conjugacy_decide,
    conjugacy_witness,
    delta,
    delta_power_coefficients,
    delta_word,
    element_with_cycle_type,
    finite_order_element,
    shift_embed,
    torsion_spectrum,
)

__all__ = [name for name in dir() if not name.startswith("_")]
