"""basisket: pattern-basis classification of Boolean functions.

Encode Boolean functions as bit vectors, build orthogonal pattern bases
from the elementary factors B1 and Q2, run the matching H / C2 product
classifiers exactly, and study how the classification threshold decays
with Hamming distance from the class, including the nearest-basis-ket
guessing game built on top of it.
"""

__version__ = "0.1.0"

from .patterns import (
    BasisViolation,
    NearestSet,
    PatternBasis,
    PatternVector,
    basis_product,
    build_basis_from_recipe,
    builtin_basis,
    class_rho,
    distance_from_class,
    extended_product_eval,
    hamming_distance,
    pattern_product,
    rho_recurrence,
    validate_basis,
)
from .classifier import (
    ClassifierSpec,
    ThresholdReport,
    apply_c2_factor,
    apply_classifier,
    apply_hadamard_factor,
    classification_threshold,
    dense_unitary,
    initial_amplitudes,
    outcome_distribution,
)
from .experiment import (
    DistanceProfile,
    IntervalSummary,
    exhaustive_profile,
    interval_summary,
    merge_profiles,
    probe_suite,
    stratified_sample_profile,
)
from .game import (
    GameConfig,
    RoundRecord,
    WinRate,
    alice_interval_decide,
    bob_pick,
    estimate_win_rate,
    play_round,
)

__all__ = [
    "BasisViolation", "ClassifierSpec", "DistanceProfile", "GameConfig",
    "IntervalSummary", "NearestSet", "PatternBasis",
    "PatternVector", "RoundRecord", "ThresholdReport", "WinRate",
    "alice_interval_decide", "apply_c2_factor", "apply_classifier",
    "apply_hadamard_factor", "basis_product", "bob_pick",
    "build_basis_from_recipe", "builtin_basis", "class_rho",
    "classification_threshold", "dense_unitary", "distance_from_class",
    "estimate_win_rate", "exhaustive_profile", "extended_product_eval",
    "hamming_distance", "initial_amplitudes", "interval_summary",
    "merge_profiles", "outcome_distribution", "pattern_product", "play_round",
    "probe_suite", "rho_recurrence",
    "stratified_sample_profile", "validate_basis",
]
