"""Closed-form lower bounds and divisibility moduli for the fixed-point
count of a circle action on a 2n-dimensional compact almost complex
manifold with c1*c(n-1)[M] = 0.

The bound depends on r = gcd(m, 12) for n = 2m and r = gcd(m-1, 12) for
n = 2m+1, with sub-cases decided by square tests, the two-squares
criterion, the 4^k(8t+7) obstruction, and triangularity.  Every case is
labelled with a stable branch string so tests can pin which case fired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .numtheory import (
    is_legendre_form,
    is_square,
    is_triangular,
    two_squares_criterion,
)

__all__ = [
    "UnsupportedHalfDimension",
    "BoundResult",
    "DivisibilityResult",
    "ComparisonRow",
    "closed_form_bound",
    "divisibility_modulus",
    "divisibility_hirzebruch",
    "divisibility_refined",
    "c1_zero_refinement_applies",
    "min_fixed_points",
    "conjecture_comparison",
]


class UnsupportedHalfDimension(ValueError):
    """The bound machinery degenerates below n = 2 (dimension 4)."""


@dataclass(frozen=True)
class BoundResult:
    """The lower bound for the number of fixed points in half-dimension n.

    `value` is 12*l/r (n even) or 24*l/r (n odd), where l is the smallest
    multiplier for which the underlying representation problem is solvable.
    `branch` identifies the case that fired and is a stable public string.
    """

    n: int
    m: int
    r: int
    value: int
    branch: str
    l: int

    def value_for(self, c1_zero: bool) -> int:
        """The lower bound, raised to at least 24 when c1 = 0 and the
        refinement applies (see c1_zero_refinement_applies)."""
        return _c1_zero_value(self.n, self.value) if c1_zero else self.value


@dataclass(frozen=True)
class DivisibilityResult:
    """Moduli dividing the fixed-point count: the gcd rule 12/r resp. 24/r,
    the Euler-characteristic modulus by residue of n mod 8, and their lcm
    (times an extra factor 8 when c1 = 0 and n = 2m with m = 1 mod 4)."""

    n: int
    modulus_gcd: int
    modulus_hirzebruch: int
    modulus_refined: int
    c1_zero: bool


def _even_case(n: int, r: int) -> tuple[int, str]:
    if r == 1:
        return 12, ""
    if r == 2:
        if n % 32 != 28:
            return 6, "not-28-mod-32"
        return 12, "28-mod-32"
    if r == 3:
        if two_squares_criterion(n // 6):
            return 4, "Euler"
        return 8, "non-Euler"
    if r == 4:
        if is_square(n // 2):
            return 3, "n-2-square"
        if not is_legendre_form(n):
            return 6, "legendre-ok"
        return 9, "legendre-fails"
    if r == 6:
        if is_square(n // 12):
            return 2, "n-12-square"
        if two_squares_criterion(n // 6):
            return 4, "Euler"
        if n % 32 != 28:
            return 6, "not-28-mod-32"
        return 8, "28-mod-32"
    # r == 12
    if is_square(n // 12):
        return 2, "n-12-square"
    if is_square(n // 2):
        return 3, "n-2-square"
    if two_squares_criterion(n // 6):
        return 4, "Euler"
    if not is_legendre_form(n):
        return 6, "legendre-ok"
    return 7, "legendre-fails"


def _odd_case(n: int, r: int) -> tuple[int, str]:
    if r <= 4:
        return 24 // r, ""
    if r == 6:
        if two_squares_criterion(n // 3):
            return 4, "Euler"
        return 8, "non-Euler"
    # r == 12
    if is_triangular((n - 3) // 24):
        return 2, "triangular"
    if two_squares_criterion(n // 3):
        return 4, "Euler"
    return 6, "non-Euler"


def _case(n: int) -> tuple[int, int, str]:
    """r, the bound and the sub-case label ("" when r alone decides) for n."""
    if n < 2:
        raise UnsupportedHalfDimension(
            f"the bound is defined for n >= 2 (dimension >= 4), got n = {n}"
        )
    m = n // 2
    if n % 2 == 0:
        r = math.gcd(m, 12)
        return (r, *_even_case(n, r))
    if m == 1:
        # n = 3: the constraint forces N_0 = 0 and any N_1 >= 1 is feasible.
        return 12, 2, ""
    r = math.gcd(m - 1, 12)
    return (r, *_odd_case(n, r))


def closed_form_bound(n: int) -> BoundResult:
    """Evaluate the minimal fixed-point count B(n) by case analysis.

    Even n can give {2, 3, 4, 6, 7, 8, 9, 12}; odd n can give
    {2, 4, 6, 8, 12, 24}.
    """
    r, value, case = _case(n)
    head = "odd/m=1" if n == 3 else f"{'odd' if n % 2 else 'even'}/r={r}"
    branch = f"{head}/{case}" if case else head
    l = value * r // (24 if n % 2 else 12)
    return BoundResult(n=n, m=n // 2, r=r, value=value, branch=branch, l=l)


def divisibility_modulus(n: int) -> int:
    """The gcd-rule modulus of the fixed-point count: 12/gcd(m,12) for
    n = 2m, 24/gcd(m-1,12) for n = 2m+1 (so 2 for n = 3, via gcd(0,12)=12)."""
    if n < 2:
        raise UnsupportedHalfDimension(
            f"the divisibility rule is defined for n >= 2, got n = {n}"
        )
    m = n // 2
    if n % 2 == 0:
        return 12 // math.gcd(m, 12)
    return 24 // math.gcd(m - 1, 12)


def divisibility_hirzebruch(n: int) -> int:
    """Euler-characteristic modulus by the residue of n mod 8 when
    c1*c(n-1)[M] = 0: 8 for n = 1,5; 4 for n = 2,6,7; 2 for n = 3,4;
    trivial (1) for n = 0 mod 8, where the statement is silent."""
    if n < 1:
        raise ValueError(f"divisibility_hirzebruch requires n >= 1, got {n}")
    k = n % 8
    if k in (1, 5):
        return 8
    if k in (2, 6, 7):
        return 4
    if k in (3, 4):
        return 2
    return 1


def divisibility_refined(n: int, c1_zero: bool = False) -> DivisibilityResult:
    """Combine the gcd rule with the residue rule (their lcm), plus the
    extra factor 8 available when c1 = 0 and n = 2m with m = 1 mod 4."""
    if n < 2:
        raise UnsupportedHalfDimension(
            f"refined divisibility is defined for n >= 2, got n = {n}"
        )
    gcd_mod = divisibility_modulus(n)
    hirz_mod = divisibility_hirzebruch(n)
    refined = math.lcm(gcd_mod, hirz_mod)
    if c1_zero and n % 2 == 0 and (n // 2) % 4 == 1:
        refined = math.lcm(refined, 8)
    return DivisibilityResult(
        n=n,
        modulus_gcd=gcd_mod,
        modulus_hirzebruch=hirz_mod,
        modulus_refined=refined,
        c1_zero=c1_zero,
    )


def c1_zero_refinement_applies(n: int) -> bool:
    """True when c1 = 0 pushes the lower bound up to 24: n = 2 mod 8 and
    n not divisible by 3."""
    return n % 8 == 2 and n % 3 != 0


def _c1_zero_value(n: int, value: int) -> int:
    """n's lower bound `value` when c1 = 0: at least 24 where the refinement applies."""
    return max(value, 24) if c1_zero_refinement_applies(n) else value


def min_fixed_points(n: int, c1_zero: bool = False) -> int:
    """The lower bound for the number of fixed points, using the c1 = 0
    refinement (at least 24) when it applies and the case analysis
    otherwise."""
    return closed_form_bound(n).value_for(c1_zero)


class ComparisonRow(NamedTuple):
    n: int
    bound: int
    kosniowski: int
    hamiltonian: int
    beats_kosniowski: bool
    beats_hamiltonian: bool


def conjecture_comparison(n_max: int) -> list[ComparisonRow]:
    """Compare the bound against floor(n/2)+1 (the conjectured linear
    bound for unitary S^1-manifolds) and n+1 (the Hamiltonian bound),
    for 2 <= n <= n_max."""
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    rows = []
    for n in range(2, n_max + 1):
        b = closed_form_bound(n).value
        kos = n // 2 + 1
        ham = n + 1
        rows.append(ComparisonRow(n, b, kos, ham, b >= kos, b >= ham))
    return rows
