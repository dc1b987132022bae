"""Finite posets, bounded distributive lattices, and finite Priestley
duality, with the order-relation functor and its image characterization."""

from .errors import (
    AntisymmetryViolation,
    CapExceeded,
    DegenerateBounds,
    EmptyPosetError,
    InternalError,
    NotALattice,
    NotDistributive,
    NotHomomorphism,
    NotOrderPreserving,
    OrdlatError,
    ParseError,
    Unbounded,
)
from .poset import (
    IsoWitness,
    Poset,
    antichain,
    canonical_key,
    chain,
    cube,
    down_sets,
    enumerate_posets,
    is_connected,
    is_isomorphic,
    order_dimension,
    poset_new,
    product,
    width,
)
from .lattice import (
    DistLattice,
    LatticeHom,
    enumerate_homs,
    hom_new,
    identity_hom,
    join_irreducibles,
    lattice_from_poset,
)
from .duality import (
    SpectrumMap,
    clopen_downset_lattice,
    e_hom,
    prime_ideals,
    spec,
    spec_hom,
    unit_lattice,
    unit_space,
)
from .relation import (
    FactorWitness,
    cube_shift_check,
    dimension_report,
    factor_by_two,
    relation_downset_iso,
    relation_hom,
    relation_image_witness,
    relation_lattice,
    relation_poset,
    verify_relation_primes,
)

__all__ = [name for name in dir() if not name.startswith("_")]
