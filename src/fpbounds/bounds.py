"""Closed-form lower bounds and divisibility moduli for the fixed-point
count of a circle action on a 2n-dimensional compact almost complex
manifold with c1*c(n-1)[M] = 0.

The bound depends on r = gcd(m, 12) for n = 2m and r = gcd(m-1, 12) for
n = 2m+1.  The whole case analysis is one table, _CASES, keyed by
(n % 2, r): each key lists its sub-case tests in the order they are tried
(square tests, the two-squares criterion, the 4^k(8t+7) obstruction,
n = 28 mod 32, triangularity) and a default.  Every case carries its full
branch string, such as "even/r=12/legendre-ok", a stable public string
that tests pin; verify's list of the 27 cases is read off the same table.
closed_form_bound and the summary table's rows both read _RULES, built at
import from _CASES and the two moduli, one entry per residue of n mod 24.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
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
    "TableRow",
    "summary_rows",
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


def _not_28_mod_32(n: int) -> bool:
    return n % 32 != 28


def _legendre_ok(n: int) -> bool:
    return not is_legendre_form(n)


# The case analysis: (n % 2, r) -> (tests, default).  A test
# (predicate, divisor, value, branch) fires when predicate(n // divisor)
# holds; the first test that fires decides, else the default (value, branch).
# Predicates are looked up by name on every call, so a wrapper installed on
# this module's name (bench/spans.py, monkeypatch) sees each one.
_CASES = {
    (0, 1): ((), (12, "even/r=1")),
    (0, 2): ((("_not_28_mod_32", 1, 6, "even/r=2/not-28-mod-32"),), (12, "even/r=2/28-mod-32")),
    (0, 3): ((("two_squares_criterion", 6, 4, "even/r=3/Euler"),), (8, "even/r=3/non-Euler")),
    (0, 4): ((("is_square", 2, 3, "even/r=4/n-2-square"),
              ("_legendre_ok", 1, 6, "even/r=4/legendre-ok")),
             (9, "even/r=4/legendre-fails")),
    (0, 6): ((("is_square", 12, 2, "even/r=6/n-12-square"),
              ("two_squares_criterion", 6, 4, "even/r=6/Euler"),
              ("_not_28_mod_32", 1, 6, "even/r=6/not-28-mod-32")),
             (8, "even/r=6/28-mod-32")),
    (0, 12): ((("is_square", 12, 2, "even/r=12/n-12-square"),
               ("is_square", 2, 3, "even/r=12/n-2-square"),
               ("two_squares_criterion", 6, 4, "even/r=12/Euler"),
               ("_legendre_ok", 1, 6, "even/r=12/legendre-ok")),
              (7, "even/r=12/legendre-fails")),
    (1, 1): ((), (24, "odd/r=1")),
    (1, 2): ((), (12, "odd/r=2")),
    (1, 3): ((), (8, "odd/r=3")),
    (1, 4): ((), (6, "odd/r=4")),
    (1, 6): ((("two_squares_criterion", 3, 4, "odd/r=6/Euler"),), (8, "odd/r=6/non-Euler")),
    # n = 24k + 3 here, so n // 24 = k.
    (1, 12): ((("is_triangular", 24, 2, "odd/r=12/triangular"),
               ("two_squares_criterion", 3, 4, "odd/r=12/Euler")),
              (6, "odd/r=12/non-Euler")),
}

# Every branch string closed_form_bound can return, read off the table.
_BRANCHES = ("odd/m=1",) + tuple(
    branch for tests, default in _CASES.values() for *_, branch in (*tests, default)
)


def closed_form_bound(n: int) -> BoundResult:
    """Evaluate the minimal fixed-point count B(n) by case analysis.

    The tests of n's key (n % 2, r) run in order; the first whose predicate
    holds at n // divisor gives the value and branch string, else the key's
    default does.  Only n = 3 ("odd/m=1") is decided outside the table.
    Even n can give {2, 3, 4, 6, 7, 8, 9, 12}; odd n can give {2, 4, 6, 8, 12, 24}.
    """
    if n < 2:
        raise UnsupportedHalfDimension(
            f"the bound is defined for n >= 2 (dimension >= 4), got n = {n}"
        )
    if n == 3:
        # The constraint forces N_0 = 0 and any N_1 >= 1 is feasible.
        return BoundResult(n=3, m=1, r=12, value=2, branch="odd/m=1", l=1)
    r, tests, default, _, _ = _RULES[n % 24]
    for predicate, divisor, value, branch in tests:
        if globals()[predicate](n // divisor):
            break
    else:
        value, branch = default
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
    return (1, 8, 4, 2, 2, 8, 4, 4)[n % 8]


def divisibility_refined(n: int, c1_zero: bool = False) -> DivisibilityResult:
    """Combine the gcd rule with the residue rule (their lcm), plus the
    extra factor 8 available when c1 = 0 and n = 2m with m = 1 mod 4."""
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


class TableRow(NamedTuple):
    """One row of the summary table: first three possible fixed-point
    counts for the dimension, the two comparison bounds, and (when the
    c1 = 0 refinement bites) the alternate possible counts."""

    dim: int
    possible_values: tuple[int, int, int]
    kosniowski: int
    hamiltonian: int
    c1_zero_variant: tuple[int, int, int] | None


# Everything but the case predicates depends on n mod 24, so one entry per
# residue, (r, tests, default, modulus, c1_modulus), serves every n of it but
# n = 3: the key's r and its _CASES entry, the gcd modulus, and the c1 = 0
# refined modulus (0 where the refinement does not apply).
def _rule(n: int) -> tuple:
    r = math.gcd(n // 2 - n % 2, 12)
    refined = divisibility_refined(n, c1_zero=True).modulus_refined if c1_zero_refinement_applies(n) else 0
    return (r, *_CASES[n % 2, r], divisibility_modulus(n), refined)


_RULES = tuple(_rule(24 + residue) for residue in range(24))


def _row_tuples(dims: Iterable[int]) -> Iterator[tuple]:
    """The summary rows of `dims` as plain tuples in TableRow's field order,
    one _RULES read each; the predicates are looked up by name in globals()."""
    names = globals()
    for dim in dims:
        if dim % 2:
            raise ValueError(f"dimensions must be even, got {dim}")
        n = dim // 2
        _, tests, (low, _), mod, c1_mod = _RULES[n % 24]
        if n < 4:  # closed_form_bound rejects n < 2 and decides n = 3 outside the table
            low = closed_form_bound(n).value
        else:
            for predicate, divisor, value, _ in tests:
                if names[predicate](n // divisor):
                    low = value
                    break
        variant = None
        if c1_mod:
            vlow = _c1_zero_value(n, low)
            variant = (vlow, vlow + c1_mod, vlow + 2 * c1_mod)
        yield dim, (low, low + mod, low + 2 * mod), n // 2 + 1, n + 1, variant


def summary_rows(dims: Iterable[int]) -> list[TableRow]:
    return [TableRow(*row) for row in _row_tuples(dims)]
