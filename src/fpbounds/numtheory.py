"""Exact integer arithmetic: factorization, squares and triangular numbers,
and minimal representations as sums of polygonal parts.

The fast paths are the classical criteria (Lagrange, Legendre, Euler,
Gauss, Ewell); Euler's and Ewell's stop trial division at the first prime
= 3 mod 4 of odd exponent.  Bounded breadth-first searches cross-check them.
This module alone decides how a target splits into polygonal parts: the
theorems give the minimal count with no cap on the parts, and one search,
the only code that caps the generators, writes exactly that many parts
(largest-first for min_squares / min_triangulars, lexicographically
smallest for the l-search witness in `minimizer`); the last two parts take
one walk that tests each rest.
All functions are pure and deterministic.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Factorization",
    "DecompositionKind",
    "Decomposition",
    "is_prime",
    "factorize",
    "is_square",
    "is_triangular",
    "triangular",
    "two_squares_criterion",
    "two_triangulars_criterion",
    "is_legendre_form",
    "min_squares",
    "min_triangulars",
    "min_squares_bruteforce",
    "min_triangulars_bruteforce",
]


def _sieve_primes(limit: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit, p)))
    return tuple(i for i in range(limit) if sieve[i])


# Trial division handles everything below this bound; perfect-power roots and
# Pollard rho take over only for cofactors with no prime factor under it.
_TRIAL_PRIMES = _sieve_primes(1000)

# The 12 Miller-Rabin bases 2..37 are proven deterministic below
# psi_12 = 318665857834031151167461 (about 3.18 * 10^23), and no further.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Primality test: deterministic Miller-Rabin below psi_12 ~ 3.18 * 10^23,
    Baillie-PSW (Miller-Rabin incl. base 2, plus a strong Lucas test) at and
    above it, which is proven exact below 2^64 and has no known
    counterexample."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_12 or _strong_lucas_probable_prime(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas probable-prime test of odd n > 1 with Selfridge's
    parameters: D is the first of 5, -7, 9, -11, ... with (D/n) = -1,
    P = 1 and Q = (1 - D)/4."""
    if is_square(n):  # no such D exists for a square
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4

    def halve(x: int) -> int:
        x %= n
        return (x + n if x % 2 else x) // 2

    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # Left-to-right ladder for U_d, V_d and Q^d, starting from U_1, V_1 = 1, P.
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = halve(U + V), halve(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _pollard_rho(n: int) -> int:
    """Nontrivial factor of composite odd n, Brent's cycle variant.

    Deterministic: the polynomial offset c walks 1, 2, 3, ... until a
    factor splits off, so repeated runs always agree.
    """
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        y, r, q = 2, 1, 1
        g, ys = 1, y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as an ordered tuple of (prime, exponent) pairs."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        primes = [p for p, _ in self.factors]
        if primes != sorted(set(primes)):
            raise ValueError("factor primes must be strictly increasing")
        if any(e < 1 for _, e in self.factors):
            raise ValueError("factor exponents must be positive")

    @property
    def n(self) -> int:
        """The factored integer, reconstructed as the product of prime powers."""
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out

    def validate(self) -> None:
        """Full invariant check: every listed prime really is prime."""
        for p, _ in self.factors:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")


def _trial_divide(n: int) -> tuple[dict[int, int], int]:
    """Exponents of the trial primes in n >= 1, and the cofactor left over.

    The cofactor is 1, a prime, or a number with no prime factor below
    1000; it is odd unless n = 2.
    """
    counts: dict[int, int] = {}
    rem = n
    for p in _TRIAL_PRIMES:
        if p * p > rem:
            break
        while rem % p == 0:
            counts[p] = counts.get(p, 0) + 1
            rem //= p
    return counts, rem


def _perfect_power(a: int) -> tuple[int, int] | None:
    """(r, k) with a = r^k for the smallest prime k that works, or None.

    Only for a with no prime factor below 1000: then r > 1000, so
    1000^k <= a bounds the exponents worth trying.
    """
    for k in _TRIAL_PRIMES:
        if 1000**k > a:
            break
        r = _integer_root(a, k)
        if r**k == a:
            return r, k
    return None


def _integer_root(a: int, k: int) -> int:
    """Largest r with r^k <= a, for a >= 1 and k >= 2, by integer Newton
    steps from above."""
    if k == 2:
        return math.isqrt(a)
    r = 1 << -(-a.bit_length() // k)
    while True:
        s = ((k - 1) * r + a // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _split_cofactor(rem: int) -> dict[int, int]:
    """Prime factorization, as prime -> exponent, of a cofactor left by
    _trial_divide: perfect powers are rooted, other composites split by rho."""
    counts: dict[int, int] = {}
    stack = [(rem, 1)]
    while stack:
        a, mult = stack.pop()
        if a == 1:
            continue
        # a is prime or free of primes below 1000, so a composite a has two
        # or more prime factors >= 1009, the first prime above 997: every a
        # below 1009^2 is proven prime by trial division already.
        if a < 1009 * 1009 or is_prime(a):
            counts[a] = counts.get(a, 0) + mult
            continue
        power = _perfect_power(a)
        if power is not None:
            root, k = power
            stack.append((root, mult * k))
            continue
        d = _pollard_rho(a)
        stack.append((d, mult))
        stack.append((a // d, mult))
    return counts


def factorize(n: int) -> Factorization:
    """Prime factorization of n >= 1; factorize(1) has an empty factor list."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    counts, rem = _trial_divide(n)
    counts.update(_split_cofactor(rem))
    return Factorization(tuple(sorted(counts.items())))


def is_square(n: int) -> bool:
    """True iff n = k*k for some k >= 0."""
    if n < 0:
        raise ValueError("is_square requires n >= 0")
    r = math.isqrt(n)
    return r * r == n


def triangular(k: int) -> int:
    """The k-th triangular number k(k+1)/2."""
    return k * (k + 1) // 2


def is_triangular(n: int) -> bool:
    """True iff n = k(k+1)/2 for some k >= 0."""
    if n < 0:
        raise ValueError("is_triangular requires n >= 0")
    return is_square(8 * n + 1)


def _free_of_odd_3mod4(f: Factorization) -> bool:
    """The criteria's condition read off a full factorization; tests
    compare the criteria against it."""
    return all(e % 2 == 0 for p, e in f.factors if p % 4 == 3)


def _no_odd_3mod4_prime(n: int) -> bool:
    """True iff every prime factor of n >= 1 congruent to 3 mod 4 has even
    exponent; trial division stops at the first one of odd exponent."""
    rem = n
    for p in _TRIAL_PRIMES:
        if p * p > rem:
            # rem has no prime below p, so it is 1 or a prime.
            return rem % 4 != 3
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            if e % 2 and p % 4 == 3:
                return False
    # An odd number whose primes = 3 mod 4 all have even exponents is
    # = 1 mod 4, so a cofactor = 3 mod 4 decides the answer unsplit.
    return rem % 4 != 3 and not any(e % 2 and p % 4 == 3 for p, e in _split_cofactor(rem).items())


def two_squares_criterion(n: int) -> bool:
    """Euler: n >= 1 is a sum of two squares (zero parts allowed) iff every
    prime factor congruent to 3 mod 4 occurs with even exponent."""
    if n < 1:
        raise ValueError("two_squares_criterion requires n >= 1")
    return _no_odd_3mod4_prime(n)


def two_triangulars_criterion(n: int) -> bool:
    """Ewell: n >= 0 is a sum of two triangular numbers (zero parts allowed)
    iff every prime factor of 4n+1 congruent to 3 mod 4 has even exponent."""
    if n < 0:
        raise ValueError("two_triangulars_criterion requires n >= 0")
    return _no_odd_3mod4_prime(4 * n + 1)


def is_legendre_form(n: int) -> bool:
    """True iff n = 4^k (8t+7), the integers that are not sums of three
    or fewer squares."""
    if n < 0:
        raise ValueError("is_legendre_form requires n >= 0")
    if n == 0:
        return False
    while n % 4 == 0:
        n //= 4
    return n % 8 == 7


class DecompositionKind(Enum):
    SQUARES = "squares"
    TRIANGULARS = "triangulars"

    def part_value(self, k: int) -> int:
        if self is DecompositionKind.SQUARES:
            return k * k
        return k * (k + 1) // 2

    def max_index(self, value: int) -> int:
        """Largest k >= 0 with part_value(k) <= value, for value >= 0."""
        if self is DecompositionKind.SQUARES:
            return math.isqrt(value)
        return (math.isqrt(8 * value + 1) - 1) // 2


@dataclass(frozen=True)
class Decomposition:
    """A representation of `target` as a sum of squares or triangular numbers.

    `parts` lists (generator k, multiplicity) with generators strictly
    increasing; the part contributed by generator k is k^2 or k(k+1)/2.
    """

    kind: DecompositionKind
    parts: tuple[tuple[int, int], ...]
    target: int

    @property
    def count(self) -> int:
        """Total number of parts, multiplicities included."""
        return sum(mult for _, mult in self.parts)

    def validate(self) -> None:
        gens = [k for k, _ in self.parts]
        if gens != sorted(set(gens)):
            raise ValueError("generators must be strictly increasing")
        if any(k < 1 or mult < 1 for k, mult in self.parts):
            raise ValueError("generators and multiplicities must be positive")
        total = sum(mult * self.kind.part_value(k) for k, mult in self.parts)
        if total != self.target:
            raise ValueError(f"parts sum to {total}, expected {self.target}")


def _make_decomposition(kind: DecompositionKind, generators: list[int], target: int) -> Decomposition:
    counts: dict[int, int] = {}
    for k in generators:
        counts[k] = counts.get(k, 0) + 1
    return Decomposition(kind, tuple(sorted(counts.items())), target)


def _polygonal_parts(
    target: int, count: int, cap: int, kind: DecompositionKind, largest_first: bool
) -> list[int] | None:
    """Non-increasing generator tuple of exactly `count` parts w_k,
    1 <= k <= cap, summing to `target`: the lexicographically largest one
    when largest_first, else the smallest; None when there is none.

    The largest part w_k lies in the window w_k <= target <= count * w_k.
    Only the end the walk starts from is computed (the top when
    largest_first, else the bottom), and the walk stops on leaving the
    window, which is cheaper than bounding both ends up front.  It inlines
    w_k = k(k + t) / 2^t and max_index(v) = (isqrt(8^t v + t) - t) / 2^t,
    t = 1 for triangulars, 0 for squares.  Two parts take one walk: the
    rest = target - w_k is w_j, j >= 1, iff x = 8^t rest + t is a square
    r^2 with r > t, and j = (r - t) / 2^t <= k as rest <= w_k.  More parts
    recurse one shorter with cap k; one part is the window w_k = target.
    """
    if count == 0:
        return [] if target == 0 else None
    t, s = (1, 3) if kind is DecompositionKind.TRIANGULARS else (0, 0)
    if largest_first:
        ks = range(min(cap, (math.isqrt((target << s) + t) - t) >> t), 0, -1)
    else:
        low = (target - 1) // count if target else 0
        ks = range(((math.isqrt((low << s) + t) - t) >> t) + 1, cap + 1)
    for k in ks:
        v = k * (k + t) >> t
        if v > target or v * count < target:
            break
        if count == 2:
            x = ((target - v) << s) + t
            r = math.isqrt(x)
            if r > t and r * r == x:
                return [k, (r - t) >> t]
        else:
            rest = _polygonal_parts(target - v, count - 1, k, kind, largest_first)
            if rest is not None:
                return [k] + rest
    return None


def _min_count(n: int, kind: DecompositionKind) -> int:
    """Minimal count of parts of `kind` summing to n >= 0, from the
    classical theorems alone, without a witness.  The parts are not capped:
    a caller that caps them checks its witness search for the count."""
    if n == 0:
        return 0
    if kind is DecompositionKind.TRIANGULARS:
        if is_triangular(n):
            return 1
        return 2 if two_triangulars_criterion(n) else 3
    if is_square(n):
        return 1
    if two_squares_criterion(n):
        return 2
    return 4 if is_legendre_form(n) else 3


def _min_parts(n: int, kind: DecompositionKind) -> tuple[int, Decomposition]:
    """Minimal count of parts of `kind` summing to n >= 0, from the
    criteria, with the largest-first witness."""
    if n < 0:
        raise ValueError(f"min_{kind.value} requires n >= 0")
    count = _min_count(n, kind)
    parts = _polygonal_parts(n, count, n, kind, largest_first=True)
    if parts is None:  # criteria guarantee existence
        raise AssertionError(f"no {count}-part {kind.value} witness for {n}")
    return count, _make_decomposition(kind, parts, n)


def min_squares(n: int) -> tuple[int, Decomposition]:
    """Minimal number of positive squares summing to n, with a witness.

    The count comes from the classical criteria: 0 for n=0, 1 for squares,
    2 when the two-squares criterion holds, 4 exactly on 4^k(8t+7), and 3
    otherwise.  The witness is found by bounded largest-first search.
    """
    return _min_parts(n, DecompositionKind.SQUARES)


def min_triangulars(n: int) -> tuple[int, Decomposition]:
    """Minimal number of positive triangular numbers summing to n, with a
    witness: 0 for n=0, 1 for triangular n, 2 under the criterion on 4n+1,
    and 3 otherwise."""
    return _min_parts(n, DecompositionKind.TRIANGULARS)


def _reach_levels(weights: list[int], limit: int) -> Iterator[int]:
    """Reachability bitsets by part count: the j-th int yielded (from j = 0)
    has bit W set iff 0 <= W <= limit is a sum of at most j of `weights`,
    repeats allowed.  Stops after the last level that adds a total, as
    every later level would equal it."""
    full = (1 << (limit + 1)) - 1
    reach = 1
    while True:
        yield reach
        nxt = reach
        for v in weights:
            nxt |= reach << v
        nxt &= full
        if nxt == reach:
            return
        reach = nxt


def _bruteforce_min(n: int, max_generator: int, kind: DecompositionKind) -> tuple[int, Decomposition]:
    """Exact minimal part count with generators bounded by max_generator,
    by breadth-first reachability on bitmasks, plus a greedy witness."""
    if n < 0:
        raise ValueError("target must be >= 0")
    if max_generator < 1:
        raise ValueError("max_generator must be >= 1")
    if n == 0:
        return 0, Decomposition(kind, (), 0)
    values = [(k, kind.part_value(k)) for k in range(1, min(max_generator, kind.max_index(n)) + 1)]
    if len(values) == 1:
        # Only the unit part w_1 = 1 is available; the count is forced.
        return n, _make_decomposition(kind, [1] * n, n)

    # The unit part reaches every total, so some level sets bit n.
    levels = []
    for reach in _reach_levels([v for _, v in values], n):
        levels.append(reach)
        if (reach >> n) & 1:
            break
    count = len(levels) - 1

    generators = []
    cur = n
    for level in range(count, 0, -1):
        for k, v in reversed(values):  # largest part first
            if v <= cur and (levels[level - 1] >> (cur - v)) & 1:
                generators.append(k)
                cur -= v
                break
    if cur:
        raise AssertionError(f"walk back from {n} stopped at {cur}")
    return count, _make_decomposition(kind, generators, n)


def min_squares_bruteforce(n: int, max_generator: int) -> tuple[int, Decomposition]:
    """Independent oracle for min_squares with parts k^2, 1 <= k <= max_generator."""
    return _bruteforce_min(n, max_generator, DecompositionKind.SQUARES)


def min_triangulars_bruteforce(n: int, max_generator: int) -> tuple[int, Decomposition]:
    """Independent oracle for min_triangulars with parts k(k+1)/2, 1 <= k <= max_generator."""
    return _bruteforce_min(n, max_generator, DecompositionKind.TRIANGULARS)
