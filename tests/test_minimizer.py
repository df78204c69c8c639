import math
import random
import time

import pytest

from fpbounds import minimizer
from fpbounds.bounds import closed_form_bound, divisibility_modulus
from fpbounds.chern import Parity, ProfileError, _chern_sum, chern_c1cn1, expand, f1, f2, g1, g2
from fpbounds.minimizer import (
    BoxTooLarge,
    CapExceeded,
    SolveMethod,
    _LSolution,
    _l_search,
    _lattice_objectives,
    _lattice_points,
    _sparse_witness,
    enumerate_feasible,
    minimize_even,
    minimize_odd,
    witness_full_profile,
)
from fpbounds.numtheory import DecompositionKind, _min_count, _polygonal_parts


def check_outcome(outcome):
    """Witness invariants: in the feasible set, objective = minimum, and the
    expanded profile kills the Chern number."""
    rp = outcome.witness
    assert all(c >= 0 for c in rp.counts)
    if rp.parity is Parity.EVEN:
        assert g1(rp) == 0
        assert f1(rp) == outcome.minimum
        r, scale = math.gcd(rp.m, 12), 12
    else:
        assert g2(rp) == 0
        assert f2(rp) == outcome.minimum
        r, scale = math.gcd(rp.m - 1, 12), 24
    assert outcome.minimum * r == scale * outcome.l
    assert outcome.minimum > 0
    assert chern_c1cn1(expand(rp)) == 0


def test_minimize_even_m1():
    out = minimize_even(1)
    assert out.minimum == 12
    assert out.witness.counts == (1, 10)
    assert out.method is SolveMethod.L_SEARCH
    check_outcome(out)


def test_minimize_even_m16():
    out = minimize_even(16)
    assert out.minimum == 3  # n/2 = 16 is a square
    check_outcome(out)


def test_minimize_even_m504():
    out = minimize_even(504)
    assert out.minimum == 7
    assert out.l == 7
    check_outcome(out)


def test_minimize_even_small_m_is_12_over_r():
    for m in range(1, 7):
        out = minimize_even(m)
        assert out.minimum == 12 // math.gcd(m, 12)
        check_outcome(out)


def test_minimize_odd_m1():
    out = minimize_odd(1)
    assert out.minimum == 2
    assert out.witness.counts == (0, 1)
    check_outcome(out)


@pytest.mark.parametrize("m,expected", [(37, 2), (49, 6), (19, 4), (31, 8), (25, 4)])
def test_minimize_odd_cases(m, expected):
    out = minimize_odd(m)
    assert out.minimum == expected
    check_outcome(out)


def test_minimize_rejects_bad_m():
    with pytest.raises(ValueError):
        minimize_even(0)
    with pytest.raises(ValueError):
        minimize_odd(0)


def test_cap_exceeded_is_loud(monkeypatch):
    monkeypatch.setattr(minimizer, "_L_CAP", 3)
    with pytest.raises(CapExceeded):
        minimize_even(504)


def test_oracle_agreement_small():
    # Full 1..200 agreement lives in the acceptance suite.
    for m in range(1, 61):
        assert minimize_even(m).minimum == closed_form_bound(2 * m).value
        assert minimize_odd(m).minimum == closed_form_bound(2 * m + 1).value


def test_l_bounds():
    for m in range(1, 121):
        assert minimize_even(m).l <= 7
        assert minimize_odd(m).l <= 3


def test_enumerate_n2_cap36():
    out = enumerate_feasible(2, 36)
    assert [(o.minimum, o.witness.counts) for o in out] == [
        (12, (1, 10)),
        (24, (2, 20)),
        (36, (3, 30)),
    ]
    for o in out:
        assert o.method is SolveMethod.LATTICE_ENUM
        check_outcome(o)


def test_enumerate_n3_cap6():
    out = enumerate_feasible(3, 6)
    assert [(o.minimum, o.witness.counts) for o in out] == [
        (2, (0, 1)),
        (4, (0, 2)),
        (6, (0, 3)),
    ]


def test_enumerate_n6_cap4():
    out = enumerate_feasible(6, 4)
    assert out[0].minimum == 4
    assert out[0].witness.counts == (0, 0, 1, 2)


def test_enumerate_sorted_and_feasible():
    for n in range(2, 54):
        out = enumerate_feasible(n, 48)
        assert [o.minimum for o in out] == sorted(o.minimum for o in out)
        for o in out:
            check_outcome(o)


def test_enumerate_matches_closed_form():
    for n in range(2, 21):
        out = enumerate_feasible(n, 48)
        assert out[0].minimum == closed_form_bound(n).value


def test_enumerate_objectives_divisible():
    for n in range(2, 21):
        modulus = divisibility_modulus(n)
        for o in enumerate_feasible(n, 48):
            assert o.minimum % modulus == 0


def test_min_count_builds_no_witness():
    # min_squares on this prime spends seconds in its witness search.
    start = time.perf_counter()
    assert _min_count(100000000000097, DecompositionKind.SQUARES) == 2
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("parity", list(Parity))
def test_l_search_targets_fit_the_cap(parity):
    # The part count is uncapped; it is the capped count because every
    # target the l-search tries, the solving l's the largest, is <= w_m.
    shift, kind = {Parity.EVEN: (0, DecompositionKind.SQUARES),
                   Parity.ODD: (1, DecompositionKind.TRIANGULARS)}[parity]
    for m in range(1, 5001):
        d = m - shift
        assert _l_search(m, parity).l * d // math.gcd(d, 12) <= kind.part_value(m), m


def test_l_search_raises_on_a_count_without_parts(monkeypatch):
    # One part too few: at m = 504, l = 4 then passes the count test, but
    # 168 is no sum of 2 squares, so the witness search finds nothing.
    monkeypatch.setattr(minimizer, "_min_count", lambda n, kind: _min_count(n, kind) - 1)
    with pytest.raises(AssertionError, match="no 2 parts w_k, k <= 504, sum to 168"):
        _l_search(504, Parity.EVEN)


def test_enumerate_box_guard():
    # The box of (2, 10**10) has 833,333,334 points; (2, 10**9) passes the guard.
    with pytest.raises(BoxTooLarge):
        enumerate_feasible(2, 10**10)


def test_enumerate_box_guard_n3(monkeypatch):
    # n = 3's box is N_0 = 0 with 0 <= N_1 <= value_cap // 2: 5001 points here.
    monkeypatch.setattr(minimizer, "_BOX_LIMIT", 10**3)
    with pytest.raises(BoxTooLarge):
        enumerate_feasible(3, 10**4)


def test_enumerate_rejects_bad_args():
    with pytest.raises(ValueError):
        enumerate_feasible(1, 10)
    with pytest.raises(ValueError):
        enumerate_feasible(4, 0)


@pytest.mark.parametrize(
    "n,expected",
    [(3, (0, 1, 1, 0)), (2, (1, 10, 1))],
)
def test_witness_full_profile_exact(n, expected):
    assert witness_full_profile(n).counts == expected


def test_witness_full_profile_properties():
    for n in range(2, 41):
        profile = witness_full_profile(n)
        assert profile.is_symmetric()
        assert profile.total() == closed_form_bound(n).value
        assert chern_c1cn1(profile) == 0


# Nonzero reduced coordinates of the l-search witness, one n per branch of
# the case analysis (the published case tables) plus the small odd n.
_PINNED_WITNESSES = [
    (3, {1: 1}),
    (5, {1: 1, 2: 11}),
    (7, {2: 1, 3: 5}),
    (9, {3: 1, 4: 3}),
    (11, {4: 1, 5: 2}),
    (18, {7: 1, 8: 2, 9: 2}),
    (20, {8: 1, 9: 1, 10: 2}),
    (24, {10: 1, 12: 2}),
    (26, {10: 1, 11: 1, 13: 8}),
    (28, {11: 1, 12: 1, 13: 1, 14: 6}),
    (32, {14: 1, 16: 1}),
    (39, {17: 1, 19: 1}),
    (40, {17: 1, 19: 1, 20: 2}),
    (48, {22: 1}),
    (51, {23: 1, 24: 1}),
    (54, {24: 1, 27: 2}),
    (60, {27: 1, 29: 1}),
    (63, {27: 1, 31: 3}),
    (72, {33: 1, 36: 1}),
    (75, {35: 1}),
    (99, {46: 2, 49: 1}),
    (108, {51: 1}),
    (112, {51: 1, 52: 1, 55: 1, 56: 3}),
    (144, {66: 1, 72: 4}),
    (180, {84: 1, 87: 1, 90: 2}),
    (252, {118: 1, 122: 1, 124: 1, 126: 2}),
    (1008, {491: 1, 494: 1, 499: 1, 504: 1}),
]


@pytest.mark.parametrize("n,nonzero", _PINNED_WITNESSES)
def test_l_search_witness_pinned(n, nonzero):
    out = (minimize_even if n % 2 == 0 else minimize_odd)(n // 2)
    assert {i: c for i, c in enumerate(out.witness.counts) if c} == nonzero
    check_outcome(out)


def test_enumerate_counts_pinned():
    counts = [len(enumerate_feasible(n, 48)) for n in range(2, 54)]
    assert counts == [
        4, 24, 14, 2, 31, 6, 57, 12, 24, 20, 155, 9, 39, 50, 154, 15, 147, 56,
        127, 59, 93, 49, 909, 42, 134, 339, 256, 59, 421, 107, 611, 165, 255,
        236, 1186, 122, 338, 460, 1058, 161, 956, 420, 789, 389, 571, 337, 4680,
        292, 722, 1767, 1252, 365,
    ]


def _enumerate_unpruned(n, value_cap):
    """Reference: every point of the box, each tested at the leaf, as
    (minimum, l, counts) in the listing's order."""
    m = n // 2
    parity = Parity.EVEN if n % 2 == 0 else Parity.ODD
    kind, charge, scale, shift = {
        Parity.EVEN: (DecompositionKind.SQUARES, 2, 12, 0),
        Parity.ODD: (DecompositionKind.TRIANGULARS, 1, 24, 1),
    }[parity]
    d = m - shift
    if d == 0:
        return [(2 * h, h, (0, h)) for h in range(1, value_cap // 2 + 1)]
    r = math.gcd(d, 12)
    max_weighted = d * value_cap // scale  # objective scale*W/d <= value_cap
    weights = [kind.part_value(k) for k in range(m + 1)]
    found = []
    counts = [0] * (m + 1)

    def rec(k, weighted):
        if k == 0:
            if weighted == 0 or 12 * weighted % d:
                return
            h = 12 * weighted // d
            minimum = scale * h // 12
            middle = h - charge * sum(counts[:m])
            if minimum <= value_cap and middle >= 0:
                counts[m] = middle
                found.append((minimum, weighted * r // d, tuple(counts)))
            return
        for c in range((max_weighted - weighted) // weights[k] + 1):
            counts[m - k] = c
            rec(k - 1, weighted + c * weights[k])
        counts[m - k] = 0

    rec(m, 0)
    return sorted(found, key=lambda t: (t[0], t[2]))


@pytest.mark.parametrize("cap", [1, 6, 12, 24, 48, 60])
def test_enumerate_matches_unpruned_box_scan(cap):
    for n in range(2, 31):
        out = enumerate_feasible(n, cap)
        assert [(o.minimum, o.l, o.witness.counts) for o in out] == (
            _enumerate_unpruned(n, cap)
        ), n
        assert all(o.n == n and o.witness.n == n for o in out)


@pytest.mark.parametrize(
    "cap,n_max", [(1, 53), (6, 53), (12, 53), (24, 53), (36, 53), (48, 53), (60, 29)]
)
def test_lattice_objectives_match_walk(cap, n_max):
    for n in range(2, n_max + 1):
        assert _lattice_objectives(n, cap) == sorted({o for o, _ in _lattice_points(n, cap)}), n


def test_lattice_objectives_n3():
    # d = 0: every profile (0, h) with h >= 1 is feasible, objective 2h.
    assert _lattice_objectives(3, 48) == list(range(2, 49, 2))
    assert _lattice_objectives(3, 7) == [2, 4, 6]
    assert _lattice_objectives(3, 1) == []


def test_lattice_objectives_box_guard():
    # The volume guard bounds only the listing walk; the oracle has none.
    with pytest.raises(BoxTooLarge) as walk:
        _lattice_points(54, 48)
    assert str(walk.value) == "enumeration box has 133311360 points (limit 100000000)"


def test_lattice_objectives_match_walk_past_the_guard(monkeypatch):
    monkeypatch.setattr(minimizer, "_BOX_LIMIT", math.inf)
    for n in range(54, 71):
        assert _lattice_objectives(n, 48) == sorted(
            {o for o, _ in _lattice_points(n, 48)}
        ), n


def test_lattice_objectives_reach_l7():
    # The route with no number theory reaches n = 1008, the even case with l = 7.
    assert closed_form_bound(1008).l == 7
    for n in range(2, 1009):
        objectives = _lattice_objectives(n, 48)
        assert objectives[0] == closed_form_bound(n).value, n
        modulus = divisibility_modulus(n)
        assert all(o % modulus == 0 for o in objectives), n


def _lex_smallest_parts_scan(target, count, cap, kind):
    """Reference: the same search with k stepping up from 1."""
    if count == 0:
        return [] if target == 0 else None
    for k in range(1, cap + 1):
        v = kind.part_value(k)
        if v * count < target:
            continue
        if v > target:
            break
        rest = _lex_smallest_parts_scan(target - v, count - 1, k, kind)
        if rest is not None:
            return [k] + rest
    return None


@pytest.mark.parametrize("kind", list(DecompositionKind))
def test_lex_smallest_parts_matches_scan_from_1(kind):
    for target in range(401):
        for count in range(5):
            for cap in range(1, 26):
                assert _polygonal_parts(target, count, cap, kind, largest_first=False) == (
                    _lex_smallest_parts_scan(target, count, cap, kind)
                ), (target, count, cap)


def _greedy_parts(target, count, hi, kind):
    """Reference: the largest-first search that min_squares and
    min_triangulars used before it merged with the smallest-first one."""
    if count == 0:
        return [] if target == 0 else None
    for k in range(min(hi, kind.max_index(target)), 0, -1):
        v = kind.part_value(k)
        if v * count < target:
            break
        rest = _greedy_parts(target - v, count - 1, k, kind)
        if rest is not None:
            return [k] + rest
    return None


@pytest.mark.parametrize("kind", list(DecompositionKind))
def test_largest_first_parts_match_greedy(kind):
    for target in range(401):
        for count in range(5):
            for cap in range(1, 26):
                assert _polygonal_parts(target, count, cap, kind, largest_first=True) == (
                    _greedy_parts(target, count, cap, kind)
                ), (target, count, cap)


def _check_both_orders(target, count, cap, kind):
    greedy = _greedy_parts(target, count, cap, kind)
    assert _polygonal_parts(target, count, cap, kind, largest_first=True) == greedy, (target, count, cap)
    # Whether parts exist does not depend on the order, and the scan from 1
    # costs O(target^1.5) to find that three parts do not, so the cheap
    # greedy reference answers None for both orders.
    smallest = None if greedy is None else _lex_smallest_parts_scan(target, count, cap, kind)
    assert _polygonal_parts(target, count, cap, kind, largest_first=False) == smallest, (target, count, cap)


@pytest.mark.parametrize("kind", list(DecompositionKind))
def test_two_part_walk_matches_references_to_1e5(kind):
    """Two and three parts, past the exhaustive scans above: seeded targets
    up to 10^5, with cap = target, caps below and above the target's index,
    and the edge cases of the two-part walk."""
    rng = random.Random(20261019)
    w, index = kind.part_value, kind.max_index
    for count in (2, 3):
        for _ in range(60):
            target = rng.randint(1, 10**5) if rng.random() < 0.8 else rng.randint(1, 2000)
            _check_both_orders(target, count, target, kind)
            _check_both_orders(target, count, rng.randint(1, index(target) + 2), kind)
        for k in (1, 2, 3, 10, 99, 316):
            # rest = 0: the target is one part, which is not two.
            _check_both_orders(w(k), count, w(k), kind)
            # A cap below the target's index.
            _check_both_orders(w(k) + w(k // 2 + 1), count, k, kind)
        for k, j in ((2, 1), (5, 5), (44, 3), (300, 17), (446, 445)):
            # A rest that is one part (for triangulars, 8 * rest + 1 is a square).
            _check_both_orders(w(k) + w(j), count, max(k, j), kind)
            _check_both_orders(w(k) + w(j), count, rng.randint(1, max(k, j)), kind)


@pytest.mark.parametrize("parity", list(Parity))
def test_sparse_l_search_matches_dense_outcome(parity):
    minimize, kind, charge, shift = {
        Parity.EVEN: (minimize_even, DecompositionKind.SQUARES, 2, 0),
        Parity.ODD: (minimize_odd, DecompositionKind.TRIANGULARS, 1, 1),
    }[parity]
    for m in range(1, 3001):
        solution = _l_search(m, parity)
        outcome = minimize(m)
        assert (solution.minimum, solution.l) == (outcome.minimum, outcome.l)
        counts = [0] * (m + 1)
        for k in solution.parts:
            counts[m - k] += 1
        counts[m] = solution.middle
        assert tuple(counts) == outcome.witness.counts
        d = m - shift
        r = math.gcd(d, 12)
        assert all(1 <= k <= m for k in solution.parts)
        assert sum(kind.part_value(k) for k in solution.parts) == solution.l * d // r
        assert solution.middle == 12 * solution.l // r - charge * len(solution.parts) >= 0


@pytest.mark.parametrize(
    "ns", [range(2, 1001), range(1001, 2001), range(2001, 3001), [10001, 123457, 600001]],
    ids=["2-1000", "1001-2000", "2001-3000", "large"],
)
def test_sparse_witness_matches_dense(ns):
    for n in ns:
        entries = _sparse_witness(n)
        dense = [0] * (n + 1)
        for i, count in entries:
            dense[i] = count
        # witness_full_profile is built from the entries, so also compare
        # with the dense route: the expanded minimize_even / minimize_odd witness.
        full = witness_full_profile(n)
        assert tuple(dense) == full.counts, n
        assert full == expand((minimize_even if n % 2 == 0 else minimize_odd)(n // 2).witness), n
        indices = [i for i, _ in entries]
        assert indices == sorted(set(indices)) and all(c > 0 for _, c in entries), n
        assert entries == [(n - i, c) for i, c in reversed(entries)], n
        assert _chern_sum(n, entries) == 0 == chern_c1cn1(full), n
        assert sum(c for _, c in entries) == closed_form_bound(n).value, n
        assert len(entries) <= (2 * 7 + 1 if n % 2 == 0 else 2 * 13 + 2), n


def test_sparse_witness_rejects_small_n():
    with pytest.raises(ValueError, match="n must be >= 2"):
        _sparse_witness(1)
    with pytest.raises(ValueError, match="n must be >= 2"):
        witness_full_profile(1)


@pytest.mark.parametrize(
    "parts,middle",
    [([6], 2), ([0], 2), ([1, 3], 2), ([2], -1), ([2], 0)],
    ids=["part-past-m", "part-zero", "parts-increasing", "negative-middle", "ok-zero-middle"],
)
def test_sparse_witness_checks_the_solution(monkeypatch, parts, middle):
    """n = 10, m = 5: a part k must lie in 1..m, the parts must not
    increase, and the middle count must not be negative."""
    monkeypatch.setattr(minimizer, "_l_search", lambda m, parity: _LSolution(1, 4, parts, middle))
    if middle == 0:
        assert _sparse_witness(10) == [(3, 1), (7, 1)]
    else:
        with pytest.raises(ProfileError, match="not a symmetric profile"):
            _sparse_witness(10)
