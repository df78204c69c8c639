"""The benchmark's workloads: seeded command lists for the fpbounds CLI.

Each workload turns a seeded `random.Random` into a fixed list of `Op`s,
one CLI command each, with the check its output must pass.  A run repeats
the whole list, so every round attempts the same commands.  Input sizes
are drawn in narrow bands around fixed, log-spaced centres: the seed
changes the numbers, while the cost of a round stays nearly the same,
which keeps the figures of different seeds comparable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks
import reference as ref


@dataclass(frozen=True)
class Op:
    args: tuple[str, ...]
    check: Callable[[str], None]

    @property
    def command(self) -> str:
        return self.args[0]


def _log_centres(lo: float, hi: float, count: int) -> list[float]:
    return [lo * (hi / lo) ** (i / (count - 1)) for i in range(count)]


# --- table -----------------------------------------------------------------

TABLE_ROWS = 2000
TABLE_FORMATS = ("csv", "json", "md")
TABLE_SAMPLE = 8  # rows per window re-derived by the brute-force l-search


def table_ops(rng: random.Random) -> list[Op]:
    """Twelve windows of TABLE_ROWS even dimensions.  The first starts at
    dimension 4, so the paper's table is always covered; the others start
    near log-spaced centres from 10^4 to 2*10^7."""
    starts = [4] + [2 * int(c * rng.uniform(0.95, 1.05) / 2)
                    for c in _log_centres(1e4, 2e7, 11)]
    ops = []
    for i, lo in enumerate(starts):
        hi = lo + 2 * (TABLE_ROWS - 1)
        fmt = TABLE_FORMATS[i % len(TABLE_FORMATS)]
        sample = tuple(sorted(rng.sample(range(lo, hi + 1, 2), TABLE_SAMPLE)))
        ops.append(Op(("table", "--dims", f"{lo}..{hi}", "--format", fmt),
                      partial(checks.table, lo=lo, hi=hi, fmt=fmt, sample=sample)))
    return ops


# --- bounds_large ----------------------------------------------------------

LARGE_COUNT = 240
# Bands of the primes that Pollard rho has to find.  sqrt(p) rho steps at
# about 1.3 us each keep a `bound` command in the tens of milliseconds.
RHO_BAND = (10**8, 2 * 10**8)
CUBE_BAND = (5 * 10**6, 10**7)
# fpbounds' 12 Miller-Rabin bases are proven only below psi_12; every
# composite it is asked about stays below this.
PSI_12 = 318665857834031151167461
SMALL_PRIMES = tuple(p for p in range(3, 1000) if ref.is_prime(p))
LARGE_CLASSES = ("semiprime", "prime-square", "3mod4-cube")
# (parity of n, r): the cases whose bound needs the two-squares criterion.
LARGE_CASES = (("even", 3), ("even", 6), ("even", 12), ("odd", 6), ("odd", 12))


def _random_prime(rng: random.Random, lo: int, hi: int, mod4: int | None = None) -> int:
    while True:
        p = rng.randrange(lo, hi) | 1
        if (mod4 is None or p % 4 == mod4) and ref.is_prime(p):
            return p


def rho_pools() -> dict[str, list[int]]:
    """The primes Pollard rho has to find, one per number of a round.

    Rho's step count for a prime p is a property of p alone, spread with a
    coefficient of variation near 0.5; drawing these primes per seed moved
    ops_per_s by 8 % between seeds.  So they come from a pool fixed apart
    from --seed, which decides everything else about the numbers.
    """
    rng = random.Random("fpbounds-bench-rho-pool")
    per_class = LARGE_COUNT // len(LARGE_CLASSES)
    return {
        "semiprime": [_random_prime(rng, *RHO_BAND) for _ in range(per_class)],
        "prime-square": [_random_prime(rng, *RHO_BAND) for _ in range(per_class)],
        "3mod4-cube": [_random_prime(rng, *CUBE_BAND, mod4=3) for _ in range(per_class)],
    }


def _cofactor(rng: random.Random, cls: str, p: int) -> dict[int, int]:
    """The part of N // 6 (or N // 3) that trial division below 1000 leaves
    to Pollard rho, built on the pool prime p."""
    if cls == "semiprime":
        q_lo = int(10 ** rng.uniform(13, 14.8))
        return {p: 1, _random_prime(rng, q_lo, 2 * q_lo): 1}
    return {p: 2 if cls == "prime-square" else 3}


def _product(factors: dict[int, int]) -> int:
    return math.prod(p**e for p, e in factors.items())


def large_input(rng: random.Random, cls: str, p: int, parity: str, r: int
                ) -> tuple[int, dict[int, int]]:
    """A half-dimension n of 20 to 30 digits, built on the pool prime p,
    whose bound takes a factoring branch with the given parity and r, and
    the factorization of F = n // 6 (even) or n // 3 (odd)."""
    cofactor = _cofactor(rng, cls, p)
    assert _product(cofactor) < PSI_12
    if parity == "even":
        # r = gcd(3F, 12) = 3 * gcd(F, 4)
        cofactor[2] = {3: 0, 6: 1, 12: 2}[r]
        mult = 6
    else:
        # r = gcd((3F - 3) / 2, 12) = 3 * gcd((F - 1) / 2, 4) for odd F
        mult = 3
    while True:
        factors = {q: e for q, e in cofactor.items() if e}
        digits = rng.randint(20, 30)
        lo, hi = 10 ** (digits - 1), 10**digits
        f = _product(factors)
        while mult * f < lo:
            small = rng.choice(SMALL_PRIMES)
            f *= small
            factors[small] = factors.get(small, 0) + 1
        n = mult * f
        if n >= hi or (parity == "odd" and f % 8 != {6: 5, 12: 1}[r]):
            continue
        expected = ref.case_rule(n, factors)
        if expected["factoring"] and expected["r"] == r:
            return n, factors


def bounds_large_ops(rng: random.Random) -> list[Op]:
    """LARGE_COUNT numbers cycling through the three cofactor classes and
    the five factoring cases; every fourth also gets `divisibility`."""
    pools = {cls: rng.sample(pool, len(pool)) for cls, pool in rho_pools().items()}
    ops = []
    for i in range(LARGE_COUNT):
        parity, r = LARGE_CASES[i % len(LARGE_CASES)]
        cls = LARGE_CLASSES[i % len(LARGE_CLASSES)]
        n, factors = large_input(rng, cls, pools[cls].pop(), parity, r)
        ops.append(Op(("bound", str(n), "--format", "json"),
                      partial(checks.bound, expected=ref.case_rule(n, factors))))
        if i % 4 == 0:
            ops.append(Op(("divisibility", str(n), "--format", "json"),
                          partial(checks.divisibility, n=n)))
    return ops


# --- witness ---------------------------------------------------------------

# (size, commands per round): the cost of a command grows about linearly
# with N, so these counts give every size about the same share of a
# round.  Many cheap commands and few dear ones keep both the median
# latency and the per-round rate resting on many samples.
WITNESS_SIZES = ((1.1e4, 60), (2.4e4, 24), (5.3e4, 10), (1.2e5, 4), (2.7e5, 2), (6e5, 1))


def witness_ops(rng: random.Random) -> list[Op]:
    """N within 3 % of each size, cycling through `bound --witness` and
    `witness` on an even and an odd N (the two largest sizes run only
    `bound --witness`)."""
    ops = []
    for centre, count in WITNESS_SIZES:
        for k in range(count):
            n = int(centre * rng.uniform(0.97, 1.03))
            n += (n - k) % 2
            if (k // 2) % 2 == 0:
                ops.append(Op(("bound", str(n), "--witness", "--format", "json"),
                              partial(checks.bound_witness, n=n)))
            else:
                ops.append(Op(("witness", str(n), "--format", "json"),
                              partial(checks.witness, n=n)))
    return ops


# --- verify ----------------------------------------------------------------

VERIFY_COUNT = 6
# --max-m >= 504 reaches all 27 branches.  --lattice-max-n 54 and above
# trips the lattice box guard; 53 is the furthest verify can go.
VERIFY_LATTICE = 53


def verify_ops(rng: random.Random) -> list[Op]:
    """VERIFY_COUNT runs at seeded --max-m in 504..560.  One lattice bound
    keeps their costs within a few percent, so the median latency rests on
    like samples."""
    return [Op(("verify", "--max-m", str(rng.randint(504, 560)),
                "--lattice-max-n", str(VERIFY_LATTICE)), checks.verify)
            for _ in range(VERIFY_COUNT)]


WORKLOADS: dict[str, Callable[[random.Random], list[Op]]] = {
    "table": table_ops,
    "bounds_large": bounds_large_ops,
    "witness": witness_ops,
    "verify": verify_ops,
}
