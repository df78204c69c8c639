"""Independent exact solvers for the fixed-point minimization problems.

Two routes compute the same minima as the closed-form case analysis:

* an l-search mirroring the structure of the case proofs: find the
  smallest l >= 1 such that l*m/r (even) or l*(m-1)/r (odd) is a sum of
  squares resp. triangular numbers with few enough parts.  The count
  comes from `numtheory`'s classical theorems, and the lexicographically
  smallest parts from its one bounded search, the same search that writes
  the largest-first witnesses of min_squares / min_triangulars; and
* a lattice enumeration: a walk over a finite box that provably contains
  every feasible reduced profile below a given objective cap, cut only by
  the part count and the residue of W that the constraint itself forces,
  so no number theory enters and no feasible profile is skipped.

Both return witness profiles with c1*c(n-1) = 0 once expanded.  The
l-search keeps its witness sparse (parts and a middle count), so `verify`'s
sweep, which reads the minimum and l, is linear in its range, and the witness
commands take `_sparse_witness`, the few nonzero (i, N_i) of the full profile.
Only minimize_even / minimize_odd and witness_full_profile build dense ones.

When only the set of objectives is wanted, as in `verify`, it is decided
without listing profiles: one reachability bitset per part count j holds
the totals W reachable with at most j parts, and W is an objective exactly
when 12W = 0 mod d and W is reachable with at most h // charge parts,
h = 12W/d; the middle count takes up the rest.  This is complete for the
same reason the walk is, and again no number theory enters.  Only the
listing walk is bounded by the box volume (BoxTooLarge); the bitsets cost
a few dozen shifts of W_max-bit integers, so the oracle has no guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import groupby, islice
from typing import NamedTuple

from .chern import FixedPointProfile, Parity, ProfileError, ReducedProfile
from .numtheory import DecompositionKind, _min_count, _polygonal_parts, _reach_levels

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
    """No multiplier l <= _L_CAP (24) solved the representation problem.

    The case analysis guarantees l <= 7 (even) and l <= 3 (odd), so this
    signals an implementation bug, never a data condition.
    """


class BoxTooLarge(ValueError):
    """The enumeration box has more than _BOX_LIMIT (10^8) points."""


_BOX_LIMIT = 10**8
_L_CAP = 24  # well past the l <= 7 (even) and l <= 3 (odd) that the case analysis proves


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


class _ParitySpec(NamedTuple):
    """What sets the two parities apart.  With W = sum_k w_k * N_{m-k}
    and h = N_m + charge * (N_0 + ... + N_{m-1}), the vanishing constraint
    is G = 12W - d*h with d = m - shift, and the objective is scale*h/12."""

    kind: DecompositionKind  # part weight w_k: k^2 or T_k
    charge: int  # fixed points per off-middle part
    scale: int
    shift: int


_SPECS = {
    Parity.EVEN: _ParitySpec(DecompositionKind.SQUARES, 2, 12, 0),
    Parity.ODD: _ParitySpec(DecompositionKind.TRIANGULARS, 1, 24, 1),
}


class _LSolution(NamedTuple):
    """The l-search's answer in sparse form: N_{m-k} counts the generators
    equal to k in `parts` (lexicographically smallest), N_m is `middle`."""

    l: int
    minimum: int
    parts: list[int]
    middle: int


def _l_search(m: int, parity: Parity) -> _LSolution:
    """Smallest l >= 1 such that l*d/r is a sum of parts w_k (1 <= k <= m)
    whose count leaves N_m = 12l/r - charge*count non-negative; the
    minimum is then scale*l/r.  The parts are found, as their existence is
    what this route adds to the criteria, but no dense profile is built."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    spec = _SPECS[parity]
    d = m - spec.shift
    r = math.gcd(d, 12)
    for l in range(1, _L_CAP + 1):
        target = l * d // r
        count = _min_count(target, spec.kind)
        middle = 12 * l // r - spec.charge * count
        if middle >= 0:
            # The count is uncapped, but every target tried is <= w_m.
            parts = _polygonal_parts(target, count, m, spec.kind, largest_first=False)
            if parts is None:
                raise AssertionError(f"no {count} parts w_k, k <= {m}, sum to {target}")
            return _LSolution(l, spec.scale * l // r, parts, middle)
    raise CapExceeded(f"no l <= {_L_CAP} works for m = {m} ({parity.value} case)")


def _minimize(m: int, parity: Parity) -> MinimizationOutcome:
    """The l-search's solution as a dense, validated witness profile."""
    solution = _l_search(m, parity)
    counts = [0] * (m + 1)
    for k in solution.parts:
        counts[m - k] += 1
    counts[m] = solution.middle
    witness = ReducedProfile(m, tuple(counts), parity)
    return MinimizationOutcome(
        n=witness.n, minimum=solution.minimum, l=solution.l, witness=witness,
        method=SolveMethod.L_SEARCH,
    )


def minimize_even(m: int) -> MinimizationOutcome:
    """Minimum of the fixed-point count over feasible profiles for n = 2m:
    the smallest l with l*m/r a sum of squares k^2 (1 <= k <= m) in at
    most 6l/r parts gives the minimum 12*l/r."""
    return _minimize(m, Parity.EVEN)


def minimize_odd(m: int) -> MinimizationOutcome:
    """Minimum of the fixed-point count over feasible profiles for n = 2m+1:
    the smallest l with l*(m-1)/r a sum of triangular numbers T_k
    (1 <= k <= m) in at most 12l/r parts gives the minimum 24*l/r.  For
    m = 1 the target is 0 and the minimum is 2."""
    return _minimize(m, Parity.ODD)


def _parity(n: int) -> Parity:
    return Parity.EVEN if n % 2 == 0 else Parity.ODD


def _lattice_points(n: int, value_cap: int) -> list[tuple[int, tuple[int, ...]]]:
    """Sorted (objective, counts) pairs of every feasible reduced profile of
    n with objective <= value_cap: a depth-first walk over N_0..N_{m-1}
    inside the box 0 <= N_{m-k} <= max_weighted // w_k, with two cuts that
    follow from G = 12W - d*h = 0 and the cap.  N_m = h - charge*parts >= 0
    with h <= 12*max_weighted/d bounds the parts of every branch; and N_{m-1}
    has weight w_1 = 1, so it steps only through totals W with 12W = 0 mod d.
    Raises BoxTooLarge when the box has more than _BOX_LIMIT points, n = 3
    included: its box is N_0 = 0 with 0 <= N_1 <= value_cap // 2.
    """
    m, spec = n // 2, _SPECS[_parity(n)]
    d = m - spec.shift
    # The objective is scale*h/12 with h = 12W/d, so W is at most this.
    max_weighted = d * value_cap // spec.scale
    volume = math.prod(max_weighted // spec.kind.part_value(k) + 1 for k in range(1, m + 1))
    if d == 0:
        volume = value_cap // 2 + 1
    if volume > _BOX_LIMIT:
        raise BoxTooLarge(f"enumeration box has {volume} points (limit {_BOX_LIMIT})")
    if d == 0:
        # n = 3: G = 12W forces N_0 = 0, and any h = N_1 >= 1 is feasible.
        return [(2 * h, (0, h)) for h in range(1, value_cap // 2 + 1)]
    max_parts = 12 * max_weighted // d // spec.charge
    step = d // math.gcd(d, 12)  # 12W = 0 mod d iff W = 0 mod step
    weights = [spec.kind.part_value(k) for k in range(m + 1)]
    found: list[tuple[int, tuple[int, ...]]] = []
    # (k, W so far, parts so far, N_0..N_{m-k-1}); the final sort fixes the order.
    stack = [(m, 0, 0, ())]
    while stack:
        k, weighted, parts, prefix = stack.pop()
        if k > 1:
            w = weights[k]
            top = min((max_weighted - weighted) // w, max_parts - parts)
            stack.extend(
                (k - 1, weighted + c * w, parts + c, prefix + (c,)) for c in range(top + 1)
            )
            continue
        # W = 0 (objective 0) is skipped: the first total is step.
        first = weighted + -weighted % step or step
        for total in range(first, min(max_weighted, weighted + max_parts - parts) + 1, step):
            h = 12 * total // d
            middle = h - spec.charge * (parts + total - weighted)
            if middle >= 0:
                found.append((spec.scale * h // 12, prefix + (total - weighted, middle)))
    found.sort()
    return found


def _lattice_objectives(n: int, value_cap: int) -> list[int]:
    """The sorted distinct objectives of `_lattice_points(n, value_cap)`,
    decided without listing a profile, so with no box-volume guard.  A
    total W <= max_weighted with 12W = 0 mod d gives h = 12W/d; a profile
    with j parts reaching W has N_m = h - charge*j >= 0 exactly when
    j <= h // charge, and every such profile lies in the walk's box.  So W
    is an objective iff it is set in the bitset of totals reachable with
    at most h // charge parts."""
    m, spec = n // 2, _SPECS[_parity(n)]
    d = m - spec.shift
    if d == 0:
        # n = 3: the objectives 2h of the profiles (0, h), h >= 1.
        return list(range(2, value_cap + 1, 2))
    max_weighted = d * value_cap // spec.scale  # as in `_lattice_points`
    max_parts = 12 * max_weighted // d // spec.charge
    top = min(m, spec.kind.max_index(max_weighted))  # heavier parts overshoot every W
    weights = [spec.kind.part_value(k) for k in range(1, top + 1)]
    levels = list(islice(_reach_levels(weights, max_weighted), max_parts + 1))
    step = d // math.gcd(d, 12)  # 12W = 0 mod d iff W = 0 mod step
    found = []
    for total in range(step, max_weighted + 1, step):
        h = 12 * total // d
        # A level past the last one yielded would equal it.
        if levels[min(h // spec.charge, len(levels) - 1)] >> total & 1:
            found.append(spec.scale * h // 12)
    return found


def enumerate_feasible(n: int, value_cap: int) -> list[MinimizationOutcome]:
    """All feasible reduced profiles with objective <= value_cap, sorted by
    objective and then lexicographically by witness.  Complete: each such
    profile lies in the box that the walk in `_lattice_points` scans, and
    the walk cuts only branches that the constraint rules out.  Raises
    BoxTooLarge when the box has more than 10^8 points, n = 3 included.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if value_cap < 1:
        raise ValueError(f"value_cap must be >= 1, got {value_cap}")
    m, parity = n // 2, _parity(n)
    spec = _SPECS[parity]
    r = math.gcd(m - spec.shift, 12)
    return [
        MinimizationOutcome(
            n=n, minimum=objective, l=objective * r // spec.scale,
            witness=ReducedProfile(m, counts, parity), method=SolveMethod.LATTICE_ENUM,
        )
        for objective, counts in _lattice_points(n, value_cap)
    ]


def _sparse_witness(n: int) -> list[tuple[int, int]]:
    """The nonzero (i, N_i), i increasing, of a minimal symmetric profile of n,
    read off the l-search in O(parts): part k counts at m-k and n-(m-k), the
    middle count at m (and m+1 for odd n).  Checked as the dense profile is:
    counts > 0 at strictly increasing, mirrored indices in 0..n."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    m, solution = n // 2, _l_search(n // 2, _parity(n))
    low = [(m - k, len(list(run))) for k, run in groupby(solution.parts)]
    entries = low + [(i, solution.middle) for i in range(m, n - m + 1) if solution.middle]
    entries += [(n - i, count) for i, count in reversed(low)]
    if (min(count for _, count in entries) < 1 or entries != [(n - i, c) for i, c in entries[::-1]]
            or not all(0 <= i < j for (i, _), (j, _) in zip(entries, entries[1:]))):
        raise ProfileError(f"witness entries of n = {n} are not a symmetric profile: {entries}")
    return entries


def witness_full_profile(n: int) -> FixedPointProfile:
    """A minimal symmetric full profile of n, with c1*c(n-1) = 0: the dense,
    validated view of `_sparse_witness(n)`."""
    counts = [0] * (n + 1)
    for i, count in _sparse_witness(n):
        counts[i] = count
    return FixedPointProfile(n, tuple(counts))
