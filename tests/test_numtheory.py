import math
import random
import time

import pytest

from fpbounds.numtheory import (
    Decomposition,
    DecompositionKind,
    Factorization,
    Unrepresentable,
    _free_of_odd_3mod4,
    _no_odd_3mod4_prime,
    _split_cofactor,
    _strong_lucas_probable_prime,
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


@pytest.mark.parametrize(
    "n,factors",
    [
        (425, ((5, 2), (17, 1))),
        (1, ()),
        (105, ((3, 1), (5, 1), (7, 1))),
        (2, ((2, 1),)),
        (1024, ((2, 10),)),
        (997, ((997, 1),)),
        # Around 1009^2, below which a cofactor is prime without a test.
        (1009**2, ((1009, 2),)),
        (1009 * 1013, ((1009, 1), (1013, 1))),
        (997 * 1009, ((997, 1), (1009, 1))),
    ],
)
def test_factorize_examples(n, factors):
    assert factorize(n).factors == factors


@pytest.mark.parametrize("n", [0, -1, -425])
def test_factorize_rejects_nonpositive(n):
    with pytest.raises(ValueError):
        factorize(n)


def test_factorize_roundtrip_small():
    for n in range(1, 5000):
        f = factorize(n)
        assert f.n == n
        f.validate()


def test_factorize_roundtrip_large():
    rng = random.Random(20260811)
    samples = [rng.randrange(2, 10**12) for _ in range(100)]
    samples += [10**18 + 9, 2**61 - 1, 3 * (2**40 + 15) ** 2]
    for n in samples:
        f = factorize(n)
        assert f.n == n
        f.validate()


def _prime_near(rng, lo, hi):
    while True:
        p = rng.randrange(lo, hi) | 1
        if is_prime(p):
            return p


def test_factorize_perfect_powers_fast():
    # Pollard rho on p^2 alone took over a second before perfect powers
    # were rooted first.
    p = 999999999989  # prime, about 10^12
    start = time.perf_counter()
    for k in (2, 3, 5):
        assert factorize(p**k).factors == ((p, k),)
    assert time.perf_counter() - start < 0.5


def test_is_prime_above_psi12():
    # psi_12 and psi_13 are strong pseudoprimes to every base 2..37; the
    # strong Lucas test of Baillie-PSW rejects them.
    p, q = 399165290221, 798330580441
    assert is_prime(p) and is_prime(q)
    assert not is_prime(p * q)
    assert factorize(p * q).factors == ((p, 1), (q, 1))
    assert not is_prime(1287836182261 * 2575672364521)
    assert is_prime(2**89 - 1)
    assert is_prime(2**127 - 1)
    assert not is_prime((2**61 - 1) * (2**89 - 1))
    assert not is_prime((2**61 - 1) ** 2)


def test_strong_lucas_pseudoprimes():
    # OEIS A217255: the odd composites passing the strong Lucas test with
    # Selfridge's parameters, below 3 * 10^4.
    got = [n for n in range(3, 30000, 2) if _strong_lucas_probable_prime(n) and not is_prime(n)]
    assert got == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199]
    assert all(_strong_lucas_probable_prime(p) for p in range(3, 30000, 2) if is_prime(p))


def test_factorization_ordering_enforced():
    with pytest.raises(ValueError):
        Factorization(((5, 1), (3, 1)))
    with pytest.raises(ValueError):
        Factorization(((3, 0),))


def test_is_prime_small():
    primes = {p for p in range(2, 1000) if all(p % d for d in range(2, p))}
    for n in range(1000):
        assert is_prime(n) == (n in primes)


@pytest.mark.parametrize("n,expected", [(0, True), (9, True), (15, False), (1, True), (2, False)])
def test_is_square(n, expected):
    assert is_square(n) is expected


def test_is_square_15_exhaustive():
    assert all(k * k != 15 for k in range(5))


@pytest.mark.parametrize("n,expected", [(0, True), (105, True), (59, False), (1, True), (2, False)])
def test_is_triangular(n, expected):
    assert is_triangular(n) is expected


def test_square_triangular_predicates_match_enumeration():
    squares = {k * k for k in range(200)}
    triangulars = {triangular(k) for k in range(300)}
    for n in range(20000):
        assert is_square(n) == (n in squares)
        assert is_triangular(n) == (n in triangulars)


def test_two_squares_criterion_examples():
    assert two_squares_criterion(245)       # 5 * 7^2
    assert not two_squares_criterion(105)   # 3 * 5 * 7
    assert two_squares_criterion(1)
    assert two_squares_criterion(2)


def test_two_triangulars_criterion_examples():
    assert two_triangulars_criterion(106)      # 4*106+1 = 425 = 5^2 * 17
    assert not two_triangulars_criterion(59)   # 237 = 3 * 79


def test_criteria_match_factorization_small():
    for n in range(1, 20001):
        assert two_squares_criterion(n) == _free_of_odd_3mod4(factorize(n)), n
        assert two_triangulars_criterion(n) == _free_of_odd_3mod4(factorize(4 * n + 1)), n


def test_criteria_match_factorization_large():
    # Cofactors past trial division: semiprimes, prime powers, and a prime
    # power times a prime, with p about 10^9..10^12, padded by small primes
    # so that every residue mod 4 and both early exits occur.
    rng = random.Random(20261018)
    for _ in range(48):
        p = _prime_near(rng, 10**9, 10**12)
        q = _prime_near(rng, 10**5, 10**8)
        core = rng.choice([p * q, p**2, p**3, p ** rng.randint(2, 4) * q])
        x = core * math.prod(rng.choice((2, 3, 5, 7, 11, 13)) for _ in range(rng.randint(0, 3)))
        expected = _free_of_odd_3mod4(factorize(x))
        assert two_squares_criterion(x) == expected, x
        if x % 4 == 1:
            assert two_triangulars_criterion((x - 1) // 4) == expected, x


def _prime_1mod4_near(rng, lo, hi):
    while True:
        p = _prime_near(rng, lo, hi)
        if p % 4 == 1:
            return p


def test_small_3mod4_prime_decides_before_the_cofactor(monkeypatch):
    """A trial prime = 3 mod 4 of odd exponent answers False at once, so a
    cofactor that rho would need seconds to split is never looked at."""
    rng = random.Random(20261019)
    p, q = (_prime_1mod4_near(rng, 10**12, 2 * 10**12) for _ in range(2))
    semiprime = p * q

    def refuse(rem):
        raise AssertionError(f"cofactor {rem} was split")

    monkeypatch.setattr("fpbounds.numtheory._split_cofactor", refuse)
    for small in (3, 7**3, 3 * 5**2, 991, 2 * 19):
        assert not two_squares_criterion(small * semiprime), small
    assert not two_triangulars_criterion((3 * 7 * semiprime - 1) // 4)


def test_criteria_leave_a_proven_prime_cofactor_unsplit(monkeypatch):
    """Once trial division reaches p^2 > rem, the cofactor is 1 or a prime
    and its residue mod 4 answers: every n here is below 997^2, the last
    trial prime squared, so no cofactor is ever split."""
    squares = [two_squares_criterion(n) for n in range(1, 20001)]
    triangulars = [two_triangulars_criterion(n) for n in range(5001)]

    def refuse(rem):
        raise AssertionError(f"cofactor {rem} was split")

    monkeypatch.setattr("fpbounds.numtheory._split_cofactor", refuse)
    assert [two_squares_criterion(n) for n in range(1, 20001)] == squares
    assert [two_triangulars_criterion(n) for n in range(5001)] == triangulars


def test_no_odd_3mod4_prime_matches_factorization():
    # Small primes = 3 mod 4 with odd and even exponents next to ones = 1
    # mod 4, times a random cofactor, for n up to about 10^12.
    rng = random.Random(20261020)
    small = [p for p in range(2, 120) if is_prime(p)]
    for _ in range(3000):
        n = math.prod(p ** rng.randint(1, 4) for p in rng.sample(small, rng.randint(1, 3)))
        if n <= 10**12:
            n *= rng.randint(1, 10**12 // n)
            assert _no_odd_3mod4_prime(n) == _free_of_odd_3mod4(factorize(n)), n


def test_legendre_form_examples():
    assert is_legendre_form(7)
    assert is_legendre_form(60)    # 4 * 15
    assert is_legendre_form(112)   # 16 * 7
    assert not is_legendre_form(0)
    assert not is_legendre_form(40)
    assert not is_legendre_form(144)


@pytest.mark.parametrize(
    "n,count",
    [(245, 2), (105, 3), (60, 4), (0, 0), (9, 1), (2, 2), (7, 4), (12, 3)],
)
def test_min_squares_counts(n, count):
    got, witness = min_squares(n)
    assert got == count
    witness.validate()
    assert witness.count == count
    assert witness.target == n


def test_min_squares_witness_245():
    _, witness = min_squares(245)
    assert witness.parts == ((7, 1), (14, 1))  # 14^2 + 7^2


def test_min_squares_witness_105():
    _, witness = min_squares(105)
    assert witness.parts == ((1, 1), (2, 1), (10, 1))  # 10^2 + 2^2 + 1^2


@pytest.mark.parametrize("n,count", [(106, 2), (59, 3), (0, 0), (105, 1), (5, 3), (4, 2)])
def test_min_triangulars_counts(n, count):
    got, witness = min_triangulars(n)
    assert got == count
    witness.validate()
    assert witness.count == count


def test_min_triangulars_witness_106():
    _, witness = min_triangulars(106)
    assert witness.parts == ((1, 1), (14, 1))  # 105 + 1


@pytest.mark.parametrize(
    "n,gen,count",
    [(60, 7, 4), (4, 1, 4), (0, 5, 0), (50, 7, 2), (12, 2, 3)],
)
def test_min_squares_bruteforce(n, gen, count):
    got, witness = min_squares_bruteforce(n, gen)
    assert got == count
    witness.validate()
    assert all(k <= gen for k, _ in witness.parts)


def test_min_squares_bruteforce_unit_parts():
    got, witness = min_squares_bruteforce(4, 1)
    assert got == 4
    assert witness.parts == ((1, 4),)


@pytest.mark.parametrize("n,gen,count", [(106, 14, 2), (3, 1, 3), (0, 9, 0), (8, 2, 4)])
def test_min_triangulars_bruteforce(n, gen, count):
    got, witness = min_triangulars_bruteforce(n, gen)
    assert got == count
    witness.validate()
    assert all(k <= gen for k, _ in witness.parts)


def test_bruteforce_rejects_bad_args():
    with pytest.raises(ValueError):
        min_squares_bruteforce(5, 0)
    with pytest.raises(ValueError):
        min_squares_bruteforce(-1, 3)


def test_criteria_agree_with_bruteforce():
    # The per-value oracle with the generator bounds that make it unbounded
    # in effect; the full 10^5 sweep lives in the acceptance suite.  The
    # oracle rebuilds its witness level by level, largest part first, so
    # the whole results agree: count and witness.
    for n in range(0, 2000):
        assert min_squares(n) == min_squares_bruteforce(n, math.isqrt(n) + 1)
        assert min_triangulars(n) == min_triangulars_bruteforce(n, math.isqrt(2 * n) + 1)


def test_min_squares_count_4_iff_legendre_form():
    for n in range(1, 3000):
        assert (min_squares(n)[0] == 4) == is_legendre_form(n)


def test_gauss_three_triangulars_everywhere():
    assert all(min_triangulars(n)[0] <= 3 for n in range(3000))


def test_lagrange_four_squares_everywhere():
    assert all(min_squares(n)[0] <= 4 for n in range(3000))


def test_decomposition_validate_rejects_bad_sum():
    bad = Decomposition(DecompositionKind.SQUARES, ((2, 1),), 5)
    with pytest.raises(ValueError):
        bad.validate()


def test_unrepresentable_error_type():
    assert issubclass(Unrepresentable, ValueError)


def _smallest_prime_factors(limit):
    """spf[n] for 0 <= n < limit: writing each prime's multiples from p^2 on,
    largest prime first, leaves the smallest prime factor last."""
    spf = list(range(limit))
    primes = [p for p in range(2, math.isqrt(limit - 1) + 1)
              if all(p % q for q in range(2, math.isqrt(p) + 1))]
    for p in reversed(primes):
        spf[p * p :: p] = [p] * len(range(p * p, limit, p))
    return spf


def test_factorize_matches_sieve_around_1009_squared():
    """Cofactors below 1009^2 are taken as prime without a primality test;
    the window covers both sides of that bound."""
    lo, hi = 10**6 - 2 * 10**4, 1009**2 + 2 * 10**4
    spf = _smallest_prime_factors(hi + 1)
    for n in range(lo, hi + 1):
        counts = {}
        rest = n
        while rest > 1:
            counts[spf[rest]] = counts.get(spf[rest], 0) + 1
            rest //= spf[rest]
        assert factorize(n).factors == tuple(sorted(counts.items())), n


def test_split_cofactor_tests_primality_only_from_1009_squared(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr("fpbounds.numtheory.is_prime", counted)
    below = next(a for a in range(1009**2 - 1, 0, -1) if is_prime(a))
    assert _split_cofactor(below) == {below: 1}
    assert _split_cofactor(1009) == {1009: 1}
    assert calls == []
    assert _split_cofactor(1009**2) == {1009: 2}
    assert calls == [1009**2]
