"""Berge Hamiltonicity of uniform hypergraphs, with certificates,
spectral-radius brackets, exact threshold arithmetic, and exhaustive
verification campaigns."""

from .berge import (
    BergeCertificate,
    BergeDecider,
    SearchResult,
    SearchStats,
    find_hamiltonian_berge_cycle,
    find_hamiltonian_berge_path,
    is_hamiltonian_connected,
    verify_certificate,
)
from .bounds import (
    Threshold,
    bai_lu_bound,
    binom,
    binom_poly,
    binom_poly_inverse,
    check_convexity_chain,
    threshold,
)
from .campaigns import (
    VerificationReport,
    verify_edge_theorem,
    verify_lemma_r_plus_2,
    verify_spectral_theorem,
)
from .canonical import CanonicalForm, canonical_form, is_canonical
from .enumeration import (
    BudgetExceeded,
    LevelSpec,
    ReductionPlan,
    level_size,
    monotone_reduction_plan,
)
from .hypergraph import (
    Hypergraph,
    clique_plus_isolated,
    clique_plus_pendant,
    complete,
    universe_masks,
)
from .spectral import (
    SpectralEstimate,
    evaluate_form,
    exceeds_threshold,
    gradient_form,
    spectral_radii,
    spectral_radius,
)

__version__ = "0.1.0"

__all__ = [
    "BergeCertificate",
    "BergeDecider",
    "BudgetExceeded",
    "CanonicalForm",
    "Hypergraph",
    "LevelSpec",
    "ReductionPlan",
    "SearchResult",
    "SearchStats",
    "SpectralEstimate",
    "Threshold",
    "VerificationReport",
    "bai_lu_bound",
    "binom",
    "binom_poly",
    "binom_poly_inverse",
    "canonical_form",
    "check_convexity_chain",
    "clique_plus_isolated",
    "clique_plus_pendant",
    "complete",
    "evaluate_form",
    "exceeds_threshold",
    "find_hamiltonian_berge_cycle",
    "find_hamiltonian_berge_path",
    "gradient_form",
    "is_canonical",
    "is_hamiltonian_connected",
    "level_size",
    "monotone_reduction_plan",
    "spectral_radii",
    "spectral_radius",
    "threshold",
    "universe_masks",
    "verify_certificate",
    "verify_edge_theorem",
    "verify_lemma_r_plus_2",
    "verify_spectral_theorem",
]
