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
    EmptyHyperproduct,
    HyperRing,
    HyperRingError,
    NoIdentity,
    RingFlags,
    classify_ring,
    hprod,
    validate_hyperring,
)
from .classifiers import (
    classify_ideal,
    is_essential,
    is_n_hyperideal,
    is_primary,
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
    "enumerate_hyperideals",
    "fundamental_ring",
    "generate_corpus",
    "hprod",
    "ideal_product",
    "ideal_sum",
    "is_C_hyperideal",
    "is_essential",
    "is_hyperideal",
    "is_n_hyperideal",
    "is_primary",
    "load_ring",
    "matrix_hyperring",
    "ordinary_ring",
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
