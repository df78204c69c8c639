"""Minimal fixed-point counts of circle actions on almost complex
manifolds with c1*c(n-1)[M] = 0: closed-form lower bounds, divisibility
of the count, independent minimization oracles, and the supporting
square/triangular-number arithmetic."""

from .bounds import (
    BoundResult,
    ComparisonRow,
    DivisibilityResult,
    UnsupportedHalfDimension,
    c1_zero_refinement_applies,
    closed_form_bound,
    conjecture_comparison,
    divisibility_hirzebruch,
    divisibility_modulus,
    divisibility_refined,
    min_fixed_points,
)
from .chern import (
    ActionType,
    ChernPair,
    EmptyProfile,
    FixedPointProfile,
    Parity,
    ProfileError,
    ReducedProfile,
    chern_c1cn1,
    dim6_hamiltonian_classifier,
    expand,
    f1,
    f2,
    g1,
    g2,
    g_coeff,
    g_coeff_doubled,
    parse_profile,
    product_chern,
)
from .minimizer import (
    BoxTooLarge,
    CapExceeded,
    MinimizationOutcome,
    SolveMethod,
    enumerate_feasible,
    minimize_even,
    minimize_odd,
    witness_full_profile,
)
from .numtheory import (
    Decomposition,
    DecompositionKind,
    Factorization,
    factorize,
    is_legendre_form,
    is_prime,
    is_square,
    is_triangular,
    min_squares,
    min_squares_bruteforce,
    min_triangulars,
    min_triangulars_bruteforce,
    triangular,
    two_squares_criterion,
    two_triangulars_criterion,
)

__version__ = "0.1.0"
