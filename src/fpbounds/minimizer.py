"""Independent exact solvers for the fixed-point minimization problems.

Two routes compute the same minima as the closed-form case analysis:

* an l-search mirroring the structure of the case proofs: find the
  smallest l >= 1 such that l*m/r (even) or l*(m-1)/r (odd) is a sum of
  squares resp. triangular numbers with few enough parts; and
* a fully brute-force lattice enumeration over a finite box that provably
  contains every feasible reduced profile below a given objective cap.

Both return witness profiles that can be re-verified through the Chern
formula (the expanded witness always has c1*c(n-1) = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .chern import FixedPointProfile, Parity, ReducedProfile, expand
from .numtheory import (
    DecompositionKind,
    _min_squares_count,
    _min_triangulars_count,
    min_squares_bruteforce,
    min_triangulars_bruteforce,
)

__all__ = [
    "CapExceeded",
    "BoxTooLarge",
    "SolveMethod",
    "MinimizationOutcome",
    "minimize_even",
    "minimize_odd",
    "enumerate_feasible",
    "witness_full_profile",
]


class CapExceeded(RuntimeError):
    """No multiplier l below the cap solved the representation problem.

    The case analysis guarantees l <= 7 (even) and l <= 3 (odd), so this
    signals an implementation bug, never a data condition.
    """


class BoxTooLarge(ValueError):
    """The enumeration box exceeds the configured volume guard."""


class SolveMethod(Enum):
    L_SEARCH = "l-search"
    LATTICE_ENUM = "lattice-enum"


@dataclass(frozen=True)
class MinimizationOutcome:
    """A feasible reduced profile together with its objective value.

    The witness satisfies the vanishing constraint (g1 or g2 is zero) and
    its objective (f1 or f2) equals `minimum` = 12*l/r resp. 24*l/r.
    """

    n: int
    minimum: int
    l: int
    witness: ReducedProfile
    method: SolveMethod


def _bounded_min_count(target: int, generator_cap: int, kind: DecompositionKind) -> int:
    """Minimal part count for `target` with generators 1..generator_cap.

    When target <= (largest allowed part) every representation respects
    the cap automatically and the fast criteria apply; otherwise fall
    back to the exact bounded search.
    """
    if target == 0:
        return 0
    if target <= kind.part_value(generator_cap):
        if kind is DecompositionKind.SQUARES:
            return _min_squares_count(target)
        return _min_triangulars_count(target)
    if kind is DecompositionKind.SQUARES:
        return min_squares_bruteforce(target, generator_cap)[0]
    return min_triangulars_bruteforce(target, generator_cap)[0]


def _lex_smallest_parts(
    target: int, count: int, cap: int, kind: DecompositionKind
) -> list[int] | None:
    """Non-increasing generator tuple of exactly `count` parts summing to
    `target`, lexicographically smallest; parts bounded by `cap`.

    The largest part is pushed as low as possible first, then the rest
    recursively, which pins the witness deterministically.
    """
    if count == 0:
        return [] if target == 0 else None
    for k in range(1, cap + 1):
        v = kind.part_value(k)
        if v * count < target:
            continue
        if v > target:
            break
        rest = _lex_smallest_parts(target - v, count - 1, k, kind)
        if rest is not None:
            return [k] + rest
    return None


def minimize_even(m: int, l_cap: int = 24) -> MinimizationOutcome:
    """Minimum of the fixed-point count over feasible profiles for n = 2m.

    Searches the smallest l >= 1 such that l*m/r is a sum of squares k^2
    (1 <= k <= m) using at most 6l/r parts; the minimum is then 12*l/r.
    The part-count inequality is evaluated as r*count <= 6*l in integers.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    r = math.gcd(m, 12)
    for l in range(1, l_cap + 1):
        target = l * m // r
        count = _bounded_min_count(target, m, DecompositionKind.SQUARES)
        if r * count <= 6 * l:
            parts = _lex_smallest_parts(target, count, m, DecompositionKind.SQUARES)
            assert parts is not None
            counts = [0] * (m + 1)
            for k in parts:
                counts[m - k] += 1
            counts[m] = 12 * l // r - 2 * count
            assert counts[m] >= 0
            witness = ReducedProfile(m, tuple(counts), Parity.EVEN)
            return MinimizationOutcome(
                n=2 * m, minimum=12 * l // r, l=l, witness=witness,
                method=SolveMethod.L_SEARCH,
            )
    raise CapExceeded(f"no l <= {l_cap} works for m = {m} (even case)")


def minimize_odd(m: int, l_cap: int = 24) -> MinimizationOutcome:
    """Minimum of the fixed-point count over feasible profiles for n = 2m+1.

    For m = 1 the constraint collapses to N_0 = 0 and the minimum is 2.
    Otherwise: smallest l >= 1 with l*(m-1)/r a sum of triangular numbers
    T_k (1 <= k <= m) using at most 12l/r parts; the minimum is 24*l/r.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m == 1:
        witness = ReducedProfile(1, (0, 1), Parity.ODD)
        return MinimizationOutcome(
            n=3, minimum=2, l=1, witness=witness, method=SolveMethod.L_SEARCH
        )
    r = math.gcd(m - 1, 12)
    for l in range(1, l_cap + 1):
        target = l * (m - 1) // r
        count = _bounded_min_count(target, m, DecompositionKind.TRIANGULARS)
        if r * count <= 12 * l:
            parts = _lex_smallest_parts(target, count, m, DecompositionKind.TRIANGULARS)
            assert parts is not None
            counts = [0] * (m + 1)
            for k in parts:
                counts[m - k] += 1
            counts[m] = 12 * l // r - count
            assert counts[m] >= 0
            witness = ReducedProfile(m, tuple(counts), Parity.ODD)
            return MinimizationOutcome(
                n=2 * m + 1, minimum=24 * l // r, l=l, witness=witness,
                method=SolveMethod.L_SEARCH,
            )
    raise CapExceeded(f"no l <= {l_cap} works for m = {m} (odd case)")


def _enumerate_even(m: int, value_cap: int, box_limit: int) -> list[MinimizationOutcome]:
    r = math.gcd(m, 12)
    # F1 = (12/m) * sum k^2 N_{m-k}, so the weighted sum is at most this.
    max_weighted = m * value_cap // 12
    bounds = {k: max_weighted // (k * k) for k in range(1, m + 1)}
    volume = math.prod(b + 1 for b in bounds.values())
    if volume > box_limit:
        raise BoxTooLarge(f"enumeration box has {volume} points (limit {box_limit})")

    found: list[MinimizationOutcome] = []
    counts = [0] * (m + 1)

    def rec(k: int, weighted: int) -> None:
        if k == 0:
            if weighted == 0 or 12 * weighted % m:
                return
            f1_val = 12 * weighted // m
            if f1_val > value_cap:
                return
            tail = sum(counts[:m])
            middle = f1_val - 2 * tail
            if middle < 0:
                return
            counts[m] = middle
            witness = ReducedProfile(m, tuple(counts), Parity.EVEN)
            found.append(
                MinimizationOutcome(
                    n=2 * m, minimum=f1_val, l=weighted * r // m,
                    witness=witness, method=SolveMethod.LATTICE_ENUM,
                )
            )
            return
        w = k * k
        for c in range(bounds[k] + 1):
            total = weighted + c * w
            if total > max_weighted:
                break
            counts[m - k] = c
            rec(k - 1, total)
        counts[m - k] = 0

    rec(m, 0)
    return found


def _enumerate_odd(m: int, value_cap: int, box_limit: int) -> list[MinimizationOutcome]:
    if m == 1:
        # Constraint forces N_0 = 0; objective is 2 * N_1.
        out = []
        for n1 in range(1, value_cap // 2 + 1):
            witness = ReducedProfile(1, (0, n1), Parity.ODD)
            out.append(
                MinimizationOutcome(
                    n=3, minimum=2 * n1, l=n1, witness=witness,
                    method=SolveMethod.LATTICE_ENUM,
                )
            )
        return out

    r = math.gcd(m - 1, 12)
    # F2 = (24/(m-1)) * sum T_k N_{m-k}.
    max_weighted = (m - 1) * value_cap // 24
    weights = {k: k * (k + 1) // 2 for k in range(1, m + 1)}
    bounds = {k: max_weighted // w for k, w in weights.items()}
    volume = math.prod(b + 1 for b in bounds.values())
    if volume > box_limit:
        raise BoxTooLarge(f"enumeration box has {volume} points (limit {box_limit})")

    found: list[MinimizationOutcome] = []
    counts = [0] * (m + 1)

    def rec(k: int, weighted: int) -> None:
        if k == 0:
            if weighted == 0 or 12 * weighted % (m - 1):
                return
            half = 12 * weighted // (m - 1)  # = N_m + sum of the others
            f2_val = 2 * half
            if f2_val > value_cap:
                return
            tail = sum(counts[:m])
            middle = half - tail
            if middle < 0:
                return
            counts[m] = middle
            witness = ReducedProfile(m, tuple(counts), Parity.ODD)
            found.append(
                MinimizationOutcome(
                    n=2 * m + 1, minimum=f2_val, l=weighted * r // (m - 1),
                    witness=witness, method=SolveMethod.LATTICE_ENUM,
                )
            )
            return
        w = weights[k]
        for c in range(bounds[k] + 1):
            total = weighted + c * w
            if total > max_weighted:
                break
            counts[m - k] = c
            rec(k - 1, total)
        counts[m - k] = 0

    rec(m, 0)
    return found


def enumerate_feasible(
    n: int, value_cap: int, box_limit: int = 10**8
) -> list[MinimizationOutcome]:
    """All feasible reduced profiles with objective <= value_cap, sorted by
    objective and then lexicographically by witness.

    Completeness: every feasible profile with objective below the cap has
    each coordinate bounded by the weighted-sum identity, so the finite
    box scanned here contains all of them.  Raises BoxTooLarge when the
    box volume exceeds `box_limit`.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if value_cap < 1:
        raise ValueError(f"value_cap must be >= 1, got {value_cap}")
    m = n // 2
    if n % 2 == 0:
        found = _enumerate_even(m, value_cap, box_limit)
    else:
        found = _enumerate_odd(m, value_cap, box_limit)
    return sorted(found, key=lambda o: (o.minimum, o.witness.counts))


def witness_full_profile(n: int) -> FixedPointProfile:
    """A symmetric full profile attaining the minimal fixed-point count,
    with c1*c(n-1) = 0 by construction."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if n % 2 == 0:
        outcome = minimize_even(n // 2)
    else:
        outcome = minimize_odd(n // 2)
    return expand(outcome.witness)
