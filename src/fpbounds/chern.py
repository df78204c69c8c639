"""Fixed-point profiles of circle actions and the Chern-number
combinatorics over them.

A profile records, for each i in 0..n, the number N_i of fixed points
whose isotropy representation has exactly i negative weights.  On a
2n-dimensional compact almost complex S^1-manifold with discrete fixed
point set,

    c1 * c(n-1) [M] = sum_i N_i * (6i(i-1) + (5n - 3n^2)/2),

and the symmetry N_i = N_{n-i} lets the whole expression be rewritten
over the reduced coordinates (N_0, ..., N_m) with m = floor(n/2).  For
Hamiltonian actions N_i coincides with the 2i-th Betti number, so the
same profiles carry Betti data.

All values here are exact integers.  The Chern sum is carried doubled
and halved once at the end, which is exact: 12i(i-1) and n(5 - 3n) are
even for every integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import compress
from typing import Iterable

__all__ = [
    "ProfileError",
    "EmptyProfile",
    "Parity",
    "FixedPointProfile",
    "ReducedProfile",
    "ChernPair",
    "ActionType",
    "g_coeff_doubled",
    "g_coeff",
    "chern_c1cn1",
    "f1",
    "f2",
    "g1",
    "g2",
    "expand",
    "product_chern",
    "dim6_hamiltonian_classifier",
    "parse_profile",
]


class ProfileError(ValueError):
    """A profile violates a structural invariant."""


class EmptyProfile(ProfileError):
    """All fixed-point counts are zero (the fixed point set must be nonempty)."""


class Parity(Enum):
    EVEN = "even"  # n = 2m
    ODD = "odd"    # n = 2m + 1


def _require_non_negative(counts: tuple[int, ...]) -> None:
    """Raise ProfileError naming the first negative entry of a nonempty tuple."""
    if min(counts) < 0:
        i = next(i for i, c in enumerate(counts) if c < 0)
        raise ProfileError(f"counts must be non-negative, got N_{i} = {counts[i]}")


@dataclass(frozen=True)
class FixedPointProfile:
    """Counts (N_0, ..., N_n) of fixed points by number of negative weights.

    Well-formedness (length, non-negativity) is enforced at construction;
    the symmetry N_i = N_{n-i} is checked on demand so asymmetric inputs
    can be rejected with a precise error by the caller.
    """

    n: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ProfileError(f"half-dimension n must be >= 1, got {self.n}")
        if len(self.counts) != self.n + 1:
            raise ProfileError(
                f"counts must have length n+1 = {self.n + 1}, got {len(self.counts)}"
            )
        _require_non_negative(self.counts)

    def total(self) -> int:
        return sum(self.counts)

    def is_symmetric(self) -> bool:
        return self.counts == self.counts[::-1]

    def require_symmetric(self) -> None:
        if self.is_symmetric():
            return
        counts, n = self.counts, self.n
        i = next(i for i in range(n + 1) if counts[i] != counts[n - i])
        raise ProfileError(
            f"symmetry violation: N_{i} = {counts[i]} but N_{n - i} = {counts[n - i]}"
        )


@dataclass(frozen=True)
class ReducedProfile:
    """Independent coordinates (N_0, ..., N_m) of a symmetric profile."""

    m: int
    counts: tuple[int, ...]
    parity: Parity

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ProfileError(f"m must be >= 0, got {self.m}")
        if len(self.counts) != self.m + 1:
            raise ProfileError(
                f"counts must have length m+1 = {self.m + 1}, got {len(self.counts)}"
            )
        _require_non_negative(self.counts)

    @property
    def n(self) -> int:
        return 2 * self.m if self.parity is Parity.EVEN else 2 * self.m + 1


@dataclass(frozen=True)
class ChernPair:
    """The pair (c1*c(n-1)[M], c_n[M]); c_n[M] is the Euler characteristic,
    equal to the number of fixed points when the fixed point set is discrete."""

    c1cn1: int
    euler: int


def g_coeff_doubled(i: int, n: int) -> int:
    """Twice the profile coefficient: 12i(i-1) + 5n - 3n^2."""
    return 12 * i * (i - 1) + 5 * n - 3 * n * n


def g_coeff(i: int, n: int) -> int:
    """The coefficient 6i(i-1) + (5n - 3n^2)/2 multiplying N_i.

    n(5 - 3n) is even for every integer n, so the value is an exact
    integer.
    """
    if n < 1:
        raise ValueError(f"half-dimension n must be >= 1, got {n}")
    return g_coeff_doubled(i, n) // 2


def chern_c1cn1(profile: FixedPointProfile) -> int:
    """Evaluate c1*c(n-1)[M] = sum_i N_i * g(i, n) exactly."""
    if profile.total() == 0:
        raise EmptyProfile("the fixed point set must be nonempty")
    counts, n = profile.counts, profile.n
    # Zero entries add nothing, and a witness profile is almost all zeros.
    return _chern_sum(n, ((i, counts[i]) for i in compress(range(n + 1), counts)))


def _chern_sum(n: int, entries: Iterable[tuple[int, int]]) -> int:
    """sum_i N_i * g(i, n) over (i, N_i) entries; zero entries may be left out."""
    return sum(count * g_coeff_doubled(i, n) for i, count in entries) // 2


def f1(rp: ReducedProfile) -> int:
    """Total fixed points of the symmetric expansion, n = 2m case:
    F1 = N_m + 2 * sum_{k=1..m} N_{m-k}."""
    if rp.parity is not Parity.EVEN:
        raise ValueError("f1 requires an even-parity reduced profile")
    return rp.counts[rp.m] + 2 * sum(rp.counts[: rp.m])


def f2(rp: ReducedProfile) -> int:
    """Total fixed points of the symmetric expansion, n = 2m+1 case:
    F2 = 2 * sum_{k=0..m} N_k."""
    if rp.parity is not Parity.ODD:
        raise ValueError("f2 requires an odd-parity reduced profile")
    return 2 * sum(rp.counts)


def g1(rp: ReducedProfile) -> int:
    """Vanishing constraint for n = 2m:
    G1 = -m*N_m + 2 * sum_{k=1..m} (6k^2 - m) * N_{m-k}."""
    if rp.parity is not Parity.EVEN:
        raise ValueError("g1 requires an even-parity reduced profile")
    m = rp.m
    return -m * rp.counts[m] + 2 * sum(
        (6 * k * k - m) * rp.counts[m - k] for k in range(1, m + 1)
    )


def g2(rp: ReducedProfile) -> int:
    """Vanishing constraint for n = 2m+1:
    G2 = sum_{k=0..m} (6k(k+1) - (m-1)) * N_{m-k}."""
    if rp.parity is not Parity.ODD:
        raise ValueError("g2 requires an odd-parity reduced profile")
    m = rp.m
    return sum((6 * k * (k + 1) - (m - 1)) * rp.counts[m - k] for k in range(m + 1))


def expand(rp: ReducedProfile) -> FixedPointProfile:
    """Reflect reduced coordinates into the full symmetric profile.

    For even parity the middle entry N_m appears once; for odd parity the
    two middle entries are both N_m.
    """
    if rp.parity is Parity.EVEN:
        if rp.m == 0:
            raise ProfileError("cannot expand an even-parity profile with m = 0")
        counts = rp.counts + rp.counts[-2::-1]
        n = 2 * rp.m
    else:
        counts = rp.counts + rp.counts[::-1]
        n = 2 * rp.m + 1
    return FixedPointProfile(n, counts)


def product_chern(a: ChernPair, b: ChernPair) -> ChernPair:
    """Chern pair of a product manifold.

    The ratio gamma = c1*c(n-1)/c_n is additive under products and the
    Euler characteristic is multiplicative, which forces this formula.
    """
    return ChernPair(a.c1cn1 * b.euler + b.c1cn1 * a.euler, a.euler * b.euler)


class ActionType(Enum):
    HAMILTONIAN = "Hamiltonian"
    NON_HAMILTONIAN = "NonHamiltonian"


def dim6_hamiltonian_classifier(c1c2: int) -> ActionType:
    """Classify a symplectic circle action on a compact connected
    6-manifold with nonempty discrete fixed point set: the action is
    Hamiltonian iff c1*c2[M] != 0 (the Todd genus is c1*c2[M]/24)."""
    if c1c2 != 0:
        return ActionType.HAMILTONIAN
    return ActionType.NON_HAMILTONIAN


def parse_profile(data: object) -> FixedPointProfile:
    """Build a profile from the JSON object {"n": int, "counts": [int, ...]}.

    Raises ProfileError naming the first violated invariant.
    """
    if not isinstance(data, dict):
        raise ProfileError("profile must be a JSON object")
    if "n" not in data:
        raise ProfileError('profile is missing the "n" field')
    if "counts" not in data:
        raise ProfileError('profile is missing the "counts" field')
    n = data["n"]
    counts = data["counts"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ProfileError('"n" must be an integer')
    if not isinstance(counts, list) or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in counts
    ):
        raise ProfileError('"counts" must be a list of integers')
    return FixedPointProfile(n, tuple(counts))
