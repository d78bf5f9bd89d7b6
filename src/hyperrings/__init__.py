"""Workbench for finite commutative multiplicative hyperrings.

Core surfaces: table validation (:func:`validate_hyperring`), hyperideal
enumeration and arithmetic (:mod:`hyperrings.ideals`), ideal classification
(:mod:`hyperrings.classifiers`), derived constructions
(:mod:`hyperrings.construct`), the proposition registry and runner
(:mod:`hyperrings.theorems`), and corpus generation plus the CLI
(:mod:`hyperrings.corpus`, :mod:`hyperrings.cli`).
"""

from .core import (
    AxiomViolation,
    CapExceeded,
    DimensionMismatch,
    ElementFlags,
    EmptyHyperproduct,
    HyperRing,
    HyperRingError,
    NoIdentity,
    RingFlags,
    classify_ring,
    element_predicates,
    hprod,
    power_of_element,
    validate_hyperring,
)
from .classifiers import (
    classify_ideal,
    is_essential,
    is_n_hyperideal,
    is_prime,
    is_primary,
    is_r_hyperideal,
    maximal_disjoint_ideal,
)
from .construct import (
    check_good_homomorphism,
    classical_n_ideal,
    direct_product,
    fundamental_ring,
    matrix_hyperring,
    quotient,
    subhyperring_restrict,
)
from .corpus import CorpusSpec, generate_corpus, ordinary_ring, zn_with_products
from .ideals import (
    ann,
    colon,
    enumerate_hyperideals,
    ideal_intersection,
    ideal_product,
    ideal_sum,
    is_C_hyperideal,
    is_hyperideal,
    radical,
    radical_via_powers,
)
from .io import FileFormatError, load_ring, ring_sha256, ring_to_obj, save_ring
from .theorems import REGISTRY, Reading, run_suite, run_theorem

__all__ = [
    "AxiomViolation",
    "CapExceeded",
    "CorpusSpec",
    "DimensionMismatch",
    "ElementFlags",
    "EmptyHyperproduct",
    "FileFormatError",
    "HyperRing",
    "HyperRingError",
    "NoIdentity",
    "REGISTRY",
    "Reading",
    "RingFlags",
    "ann",
    "check_good_homomorphism",
    "classical_n_ideal",
    "classify_ideal",
    "classify_ring",
    "colon",
    "direct_product",
    "element_predicates",
    "enumerate_hyperideals",
    "fundamental_ring",
    "generate_corpus",
    "hprod",
    "ideal_intersection",
    "ideal_product",
    "ideal_sum",
    "is_C_hyperideal",
    "is_essential",
    "is_hyperideal",
    "is_n_hyperideal",
    "is_prime",
    "is_primary",
    "is_r_hyperideal",
    "load_ring",
    "matrix_hyperring",
    "maximal_disjoint_ideal",
    "ordinary_ring",
    "power_of_element",
    "quotient",
    "radical",
    "radical_via_powers",
    "ring_sha256",
    "ring_to_obj",
    "run_suite",
    "run_theorem",
    "save_ring",
    "subhyperring_restrict",
    "validate_hyperring",
    "zn_with_products",
]
