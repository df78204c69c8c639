"""Arithmetic the output checks compare fpbounds against.

Everything here is written apart from fpbounds and imports nothing from
it: primality, small factorizations, the paper's case rules for the bound,
the divisibility rules, a brute-force l-search and the Chern sum.
"""

from __future__ import annotations

import math

# Miller-Rabin with the first 13 primes as bases is exact below
# 3.3 * 10^24 (psi_13); every number tested here is far below that.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

EVEN_VALUES = frozenset({2, 3, 4, 6, 7, 8, 9, 12})
ODD_VALUES = frozenset({2, 4, 6, 8, 12, 24})


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def trial_factor(n: int) -> dict[int, int]:
    """Prime factorization by trial division; meant for n below ~10^12."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def two_squares(factors: dict[int, int]) -> bool:
    """Euler: a sum of two squares iff no prime 3 mod 4 has odd exponent."""
    return all(e % 2 == 0 for p, e in factors.items() if p % 4 == 3)


def is_square(n: int) -> bool:
    return math.isqrt(n) ** 2 == n


def is_triangular(n: int) -> bool:
    return is_square(8 * n + 1)


def legendre_form(n: int) -> bool:
    """n = 4^k (8t+7): not a sum of three squares."""
    while n and n % 4 == 0:
        n //= 4
    return n % 8 == 7


def factored_quantity(n: int) -> int:
    """The number whose two-squares verdict a factoring branch tests."""
    return n // 6 if n % 2 == 0 else n // 3


def case_rule(n: int, factors: dict[int, int] | None = None) -> dict:
    """The bound for half-dimension n >= 2 by the paper's case analysis.

    `factors` is the factorization of factored_quantity(n); it is found by
    trial division when not given.  Returns the fields of `bound --format
    json` plus `factoring`, true when a two-squares test decided the case.
    """

    def euler() -> bool:
        nonlocal used
        used = True
        f = factors if factors is not None else trial_factor(factored_quantity(n))
        return two_squares(f)

    used = False
    m = n // 2
    if n % 2 == 0:
        r = math.gcd(m, 12)
        if r == 1:
            value, case = 12, ""
        elif r == 2:
            value, case = (6, "not-28-mod-32") if n % 32 != 28 else (12, "28-mod-32")
        elif r == 3:
            value, case = (4, "Euler") if euler() else (8, "non-Euler")
        elif r == 4:
            if is_square(n // 2):
                value, case = 3, "n-2-square"
            elif not legendre_form(n):
                value, case = 6, "legendre-ok"
            else:
                value, case = 9, "legendre-fails"
        elif r == 6:
            if is_square(n // 12):
                value, case = 2, "n-12-square"
            elif euler():
                value, case = 4, "Euler"
            elif n % 32 != 28:
                value, case = 6, "not-28-mod-32"
            else:
                value, case = 8, "28-mod-32"
        else:
            if is_square(n // 12):
                value, case = 2, "n-12-square"
            elif is_square(n // 2):
                value, case = 3, "n-2-square"
            elif euler():
                value, case = 4, "Euler"
            elif not legendre_form(n):
                value, case = 6, "legendre-ok"
            else:
                value, case = 7, "legendre-fails"
        branch = f"even/r={r}" + (f"/{case}" if case else "")
        l = value * r // 12
    elif m == 1:
        r, value, branch, l = 12, 2, "odd/m=1", 1
    else:
        r = math.gcd(m - 1, 12)
        if r <= 4:
            value, case = 24 // r, ""
        elif r == 6:
            value, case = (4, "Euler") if euler() else (8, "non-Euler")
        elif is_triangular((n - 3) // 24):
            value, case = 2, "triangular"
        else:
            value, case = (4, "Euler") if euler() else (6, "non-Euler")
        branch = f"odd/r={r}" + (f"/{case}" if case else "")
        l = value * r // 24
    return {"n": n, "dim": 2 * n, "value": value, "branch": branch,
            "m": m, "r": r, "l": l, "factoring": used}


def gcd_modulus(n: int) -> int:
    m = n // 2
    return 12 // math.gcd(m, 12) if n % 2 == 0 else 24 // math.gcd(m - 1, 12)


def residue_modulus(n: int) -> int:
    """Hirzebruch's modulus of the Euler characteristic by n mod 8."""
    return {0: 1, 1: 8, 2: 4, 3: 2, 4: 2, 5: 8, 6: 4, 7: 4}[n % 8]


def divisibility(n: int) -> dict:
    """The fields of `divisibility N --format json` without --c1-zero."""
    g, h = gcd_modulus(n), residue_modulus(n)
    return {"n": n, "dim": 2 * n, "modulus_gcd": g, "modulus_hirzebruch": h,
            "modulus_refined": math.lcm(g, h), "c1_zero": False}


def c1_zero_variant_applies(n: int) -> bool:
    return n % 8 == 2 and n % 3 != 0


def _has_parts(t: int, count: int, cap: int, squares: bool) -> bool:
    """Exhaustive search for exactly `count` squares (or triangular
    numbers) with generators 1..cap, in non-increasing order, summing to t."""
    if count == 0:
        return t == 0
    if squares and count == 3 and legendre_form(t):
        # Legendre: 4^k(8j+7) is no sum of three squares.  The search would
        # only confirm that, at O(t) cost.
        return False
    part = (lambda k: k * k) if squares else (lambda k: k * (k + 1) // 2)
    k = min(cap, math.isqrt(t) if squares else (math.isqrt(8 * t + 1) - 1) // 2)
    while k >= 1 and part(k) * count >= t:
        if _has_parts(t - part(k), count - 1, k, squares):
            return True
        k -= 1
    return False


def _min_parts(t: int, cap: int, squares: bool) -> int:
    count = 1
    while not _has_parts(t, count, cap, squares):
        count += 1
    return count


def lsearch_minimum(n: int) -> int:
    """The bound by a brute-force l-search: the smallest l for which l*m/r
    (even n) or l*(m-1)/r (odd n) is a sum of few enough squares or
    triangular numbers with generators at most m."""
    m = n // 2
    if n % 2 == 0:
        r = math.gcd(m, 12)
        l = 1
        while r * _min_parts(l * m // r, m, True) > 6 * l:
            l += 1
        return 12 * l // r
    if m == 1:
        return 2
    r = math.gcd(m - 1, 12)
    l = 1
    while r * _min_parts(l * (m - 1) // r, m, False) > 12 * l:
        l += 1
    return 24 * l // r


def chern_sum_doubled(counts: list[int]) -> int:
    """2 * sum_i N_i (6i(i-1) + (5n - 3n^2)/2) for the profile N_0..N_n."""
    n = len(counts) - 1
    const = 5 * n - 3 * n * n
    return sum(c * (12 * i * (i - 1) + const) for i, c in enumerate(counts) if c)
