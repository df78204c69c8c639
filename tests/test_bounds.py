import json
import math
from collections import Counter

import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

import fpbounds.bounds
import fpbounds.cli
from fpbounds.bounds import (
    _BRANCHES,
    _CASES,
    _RULES,
    UnsupportedHalfDimension,
    c1_zero_refinement_applies,
    closed_form_bound,
    conjecture_comparison,
    divisibility_hirzebruch,
    divisibility_modulus,
    divisibility_refined,
    min_fixed_points,
    summary_rows,
)

# Published case examples, even half-dimensions: n -> (m, r, value, branch).
EVEN_CASES = {
    26: (13, 1, 12, "even/r=1"),
    20: (10, 2, 6, "even/r=2/not-28-mod-32"),
    28: (14, 2, 12, "even/r=2/28-mod-32"),
    54: (27, 3, 4, "even/r=3/Euler"),
    18: (9, 3, 8, "even/r=3/non-Euler"),
    32: (16, 4, 3, "even/r=4/n-2-square"),
    40: (20, 4, 6, "even/r=4/legendre-ok"),
    112: (56, 4, 9, "even/r=4/legendre-fails"),
    108: (54, 6, 2, "even/r=6/n-12-square"),
    60: (30, 6, 4, "even/r=6/Euler"),
    180: (90, 6, 6, "even/r=6/not-28-mod-32"),
    252: (126, 6, 8, "even/r=6/28-mod-32"),
    48: (24, 12, 2, "even/r=12/n-12-square"),
    72: (36, 12, 3, "even/r=12/n-2-square"),
    24: (12, 12, 4, "even/r=12/Euler"),
    144: (72, 12, 6, "even/r=12/legendre-ok"),
    1008: (504, 12, 7, "even/r=12/legendre-fails"),
}

# Published case examples, odd half-dimensions.
ODD_CASES = {
    39: (19, 6, 4, "odd/r=6/Euler"),
    63: (31, 6, 8, "odd/r=6/non-Euler"),
    75: (37, 12, 2, "odd/r=12/triangular"),
    51: (25, 12, 4, "odd/r=12/Euler"),
    99: (49, 12, 6, "odd/r=12/non-Euler"),
}


@pytest.mark.parametrize("n,expected", sorted(EVEN_CASES.items()))
def test_even_case_table(n, expected):
    res = closed_form_bound(n)
    assert (res.m, res.r, res.value, res.branch) == expected


@pytest.mark.parametrize("n,expected", sorted(ODD_CASES.items()))
def test_odd_case_table(n, expected):
    res = closed_form_bound(n)
    assert (res.m, res.r, res.value, res.branch) == expected


# How often each branch fires for n = 2..10^5, all 27 of them.
BRANCH_COUNTS = {
    "even/r=1": 16667,
    "even/r=2/not-28-mod-32": 6250,
    "even/r=2/28-mod-32": 2083,
    "even/r=3/Euler": 2112,
    "even/r=3/non-Euler": 6221,
    "even/r=4/n-2-square": 74,
    "even/r=4/legendre-ok": 7567,
    "even/r=4/legendre-fails": 693,
    "even/r=6/n-12-square": 46,
    "even/r=6/Euler": 1054,
    "even/r=6/not-28-mod-32": 2573,
    "even/r=6/28-mod-32": 494,
    "even/r=12/n-12-square": 45,
    "even/r=12/n-2-square": 37,
    "even/r=12/Euler": 1174,
    "even/r=12/legendre-ok": 2771,
    "even/r=12/legendre-fails": 139,
    "odd/m=1": 1,
    "odd/r=1": 16666,
    "odd/r=2": 8333,
    "odd/r=3": 8333,
    "odd/r=4": 8333,
    "odd/r=6/Euler": 2030,
    "odd/r=6/non-Euler": 2137,
    "odd/r=12/triangular": 90,
    "odd/r=12/Euler": 1948,
    "odd/r=12/non-Euler": 2128,
}


def test_branch_at_every_n_up_to_1e5():
    """Pins the branch, not only the value, at every n; verify's coverage
    list is read off the same table, so a dropped or misspelt row fails here."""
    counts = Counter(closed_form_bound(n).branch for n in range(2, 100001))
    assert counts == BRANCH_COUNTS
    assert sorted(counts) == sorted(_BRANCHES)


@pytest.mark.parametrize(
    "n,value",
    [(2, 12), (3, 2), (13, 24), (9, 8), (12, 2), (10, 12), (4, 6), (8, 3)],
)
def test_bound_values(n, value):
    assert closed_form_bound(n).value == value


def test_bound_n3_special_case():
    res = closed_form_bound(3)
    assert (res.m, res.r, res.value, res.branch, res.l) == (1, 12, 2, "odd/m=1", 1)


@pytest.mark.parametrize("n", [0, 1, -3])
def test_bound_rejects_small_n(n):
    for f in (closed_form_bound, divisibility_modulus, divisibility_refined):
        with pytest.raises(UnsupportedHalfDimension):
            f(n)


def test_bound_value_multiplier_invariant():
    for n in range(2, 600):
        res = closed_form_bound(n)
        assert res.r == 12 // (12 // res.r)  # r divides 12
        if n % 2 == 0:
            assert res.value * res.r == 12 * res.l
            assert res.value in {2, 3, 4, 6, 7, 8, 9, 12}
        else:
            assert res.value * res.r == 24 * res.l
            assert res.value in {2, 4, 6, 8, 12, 24}


def test_small_m_bound_is_12_over_r():
    # For n = 2m with m <= 6 the bound is exactly 12/r.
    for m in range(1, 7):
        res = closed_form_bound(2 * m)
        assert res.value == 12 // res.r
    # For n = 2m+1 with 2 <= m <= 13 the bound is exactly 24/r.
    for m in range(2, 14):
        res = closed_form_bound(2 * m + 1)
        assert res.value == 24 // res.r


def test_value_sets_fully_attained():
    even_vals = {closed_form_bound(n).value for n in range(2, 1009, 2)}
    odd_vals = {closed_form_bound(n).value for n in range(3, 1009, 2)}
    assert even_vals == {2, 3, 4, 6, 7, 8, 9, 12}
    assert odd_vals == {2, 4, 6, 8, 12, 24}


@pytest.mark.parametrize("n,modulus", [(6, 4), (3, 2), (12, 2), (2, 12), (5, 24)])
def test_divisibility_modulus(n, modulus):
    assert divisibility_modulus(n) == modulus


def test_bound_divisible_by_modulus():
    for n in range(2, 10001):
        assert closed_form_bound(n).value % divisibility_modulus(n) == 0


@pytest.mark.parametrize(
    "n,modulus",
    [(9, 8), (1, 8), (5, 8), (7, 4), (2, 4), (6, 4), (3, 2), (4, 2), (8, 1), (16, 1)],
)
def test_divisibility_hirzebruch(n, modulus):
    assert divisibility_hirzebruch(n) == modulus


@pytest.mark.parametrize(
    "n,c1_zero,refined",
    [(10, True, 24), (4, False, 6), (9, False, 8), (10, False, 12), (2, True, 24)],
)
def test_divisibility_refined(n, c1_zero, refined):
    assert divisibility_refined(n, c1_zero).modulus_refined == refined


def test_divisibility_refined_structure():
    for n in range(2, 400):
        for c1 in (False, True):
            res = divisibility_refined(n, c1)
            assert res.modulus_gcd in {1, 2, 3, 4, 6, 8, 12, 24}
            assert res.modulus_refined % res.modulus_gcd == 0
            assert res.modulus_refined % res.modulus_hirzebruch == 0


# Residue table: n mod 8 -> modulus when n is not a multiple of 3.
RESIDUE_TABLE = {0: 3, 1: 24, 2: 12, 3: 6, 4: 6, 5: 24, 6: 12, 7: 12}


def test_refined_matches_residue_table():
    for n in range(2, 10001):
        got = divisibility_refined(n).modulus_refined
        if n % 3 != 0:
            assert got == RESIDUE_TABLE[n % 8], n
        else:
            assert got == divisibility_hirzebruch(n), n


@pytest.mark.parametrize(
    "n,c1_zero,expected",
    [(10, True, 24), (10, False, 12), (9, True, 8), (9, False, 8), (2, True, 24), (2, False, 12)],
)
def test_min_fixed_points(n, c1_zero, expected):
    assert min_fixed_points(n, c1_zero) == expected


# `bound N [--c1-zero] --format json` payloads: (N, flags) -> (value, branch, r, l).
# The large N reach the two-squares criterion with a cofactor past trial
# division that is: 7 * p (a trial prime 3 mod 4 to an odd power), p * q
# with p = 3 mod 4 (cofactor 3 mod 4), a semiprime that rho must split,
# a prime square, a cube times a prime, a prime above psi_12, a fifth power.
BOUND_PAYLOADS = {
    ("2", "--c1-zero"): (24, "c1-zero/24", 1, 2),
    ("100000000000000000010", "--c1-zero"): (24, "c1-zero/24", 1, 2),
    ("100000000000000000010",): (12, "even/r=1", 1, 1),
    ("12000002049600011484", "--c1-zero"): (4, "even/r=6/Euler", 6, 2),
    ("8400001386",): (8, "even/r=3/non-Euler", 3, 2),
    ("120000028200001386",): (8, "even/r=3/non-Euler", 3, 2),
    ("900000068700000399",): (8, "odd/r=6/non-Euler", 6, 2),
    ("4500000343500001995",): (6, "odd/r=12/non-Euler", 12, 3),
    ("3600000274800001596",): (8, "even/r=6/28-mod-32", 6, 4),
    ("18000001374000007980",): (6, "even/r=6/not-28-mod-32", 6, 3),
    ("7200000549600003192",): (6, "even/r=12/legendre-ok", 12, 6),
    ("12000002049600011484",): (4, "even/r=6/Euler", 6, 2),
    ("24000004099200022968",): (4, "even/r=12/Euler", 12, 4),
    ("15000002562000014355",): (4, "odd/r=12/Euler", 12, 2),
    ("60000008400000294",): (4, "even/r=3/Euler", 3, 1),
    ("150000021000000735",): (4, "odd/r=6/Euler", 6, 1),
    ("18000003894000288540007849800039102",): (8, "even/r=3/non-Euler", 3, 2),
    ("15000000000000000000000735",): (4, "odd/r=6/Euler", 6, 1),
    ("24000000007320000000893040000054475440001661500920020270311224",): (4, "even/r=12/Euler", 12, 4),
}


@pytest.mark.parametrize("args,expected", sorted(BOUND_PAYLOADS.items()))
def test_bound_json_payload_pinned(args, expected):
    value, branch, r, l = expected
    n = int(args[0])
    payload = {"n": n, "dim": 2 * n, "value": value, "branch": branch, "m": n // 2, "r": r, "l": l}
    res = CliRunner().invoke(fpbounds.cli.cli, ["bound", *args, "--format", "json"])
    assert res.exit_code == 0
    assert res.output == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("flags", [(), ("--c1-zero",)])
def test_bound_evaluates_case_analysis_once(monkeypatch, flags):
    calls = []

    def counted(n):
        calls.append(n)
        return closed_form_bound(n)

    monkeypatch.setattr(fpbounds.cli, "closed_form_bound", counted)
    monkeypatch.setattr("fpbounds.bounds.closed_form_bound", counted)
    res = CliRunner().invoke(fpbounds.cli.cli, ["bound", "24000004099200022968", *flags])
    assert res.exit_code == 0
    assert calls == [24000004099200022968]


def test_min_fixed_points_appendix_n20():
    # Half-dimension 20 (dimension 40): the c1 = 0 refinement does not apply.
    assert min_fixed_points(20, False) == 6
    assert min_fixed_points(20, True) == 6


def test_c1_zero_refinement_dims():
    applies = {2 * n for n in range(2, 16) if c1_zero_refinement_applies(n)}
    assert applies == {4, 20}


KOSNIOWSKI_DIMS = {4, 6, 8, 10, 12, 14, 18, 20, 22, 26, 28, 34, 44, 46, 50, 58, 74, 82}
HAMILTONIAN_DIMS = {4, 8, 10, 14, 20, 26, 34}


def test_conjecture_comparison_kosniowski():
    rows = conjecture_comparison(41)
    got = {2 * row.n for row in rows if row.beats_kosniowski}
    assert got == KOSNIOWSKI_DIMS


def test_conjecture_comparison_hamiltonian():
    rows = conjecture_comparison(17)
    got = {2 * row.n for row in rows if row.beats_hamiltonian}
    assert got == HAMILTONIAN_DIMS


def test_conjecture_comparison_minimal():
    rows = conjecture_comparison(2)
    assert rows == [(2, 12, 2, 3, True, True)]


def test_conjecture_comparison_nothing_beyond_41():
    rows = conjecture_comparison(120)
    assert all(not row.beats_kosniowski for row in rows if row.n > 41)


def _assert_rows_agree_with_api(rows):
    """`summary_rows` reads `_RULES` and runs the case tests itself; its rows
    must equal what the public API gives for the same n."""
    for row in rows:
        n = row.dim // 2
        low, step = min_fixed_points(n), divisibility_modulus(n)
        assert row.possible_values == (low, low + step, low + 2 * step), row
        assert (row.kosniowski, row.hamiltonian) == (n // 2 + 1, n + 1), row
        if c1_zero_refinement_applies(n):
            low = min_fixed_points(n, c1_zero=True)
            step = divisibility_refined(n, c1_zero=True).modulus_refined
            assert row.c1_zero_variant == (low, low + step, low + 2 * step), row
        else:
            assert row.c1_zero_variant is None, row


def test_summary_rows_agree_with_api_up_to_dim_2e4():
    rows = summary_rows(list(range(4, 20001, 2)))
    assert [row.dim for row in rows] == list(range(4, 20001, 2))
    _assert_rows_agree_with_api(rows)


@given(st.integers(2, 10**12))
def test_summary_rows_agree_with_api_property(n):
    _assert_rows_agree_with_api(summary_rows([2 * n]))


def test_residue_rule_divides_the_gcd_rule():
    # Both rules depend on n mod 24 alone, and n = 2..49 covers every residue.
    for n in range(2, 50):
        gcd_rule = divisibility_modulus(n)
        assert gcd_rule % divisibility_hirzebruch(n) == 0, n
        assert divisibility_refined(n).modulus_refined == gcd_rule, n
        refined = divisibility_refined(n, c1_zero=True).modulus_refined
        assert (refined != gcd_rule) == (n % 8 == 2), n
    assert [divisibility_refined(n, c1_zero).modulus_refined for n in (2, 18) for c1_zero in (False, True)] \
        == [12, 24, 4, 8]


@pytest.mark.parametrize("base", [2, 10**12, 10**18])
def test_row_rules_match_the_per_n_functions(base):
    """Each _RULES entry against the per-n rules it is read off, at two n per residue."""
    for n in range(base, base + 48):
        r, tests, default, modulus, c1_modulus = _RULES[n % 24]
        assert r == math.gcd(n // 2 - n % 2, 12), n
        assert (tests, default) == _CASES[n % 2, r], n
        assert modulus == divisibility_modulus(n), n
        refined = divisibility_refined(n, c1_zero=True).modulus_refined
        assert c1_modulus == (refined if c1_zero_refinement_applies(n) else 0), n
    _assert_rows_agree_with_api(summary_rows(range(2 * base, 2 * base + 96, 2)))


def _per_n_case(n):
    """(m, r, value, branch, l) with n's key (n % 2, r) worked out from n's gcd
    and looked up in _CASES, not read off _RULES."""
    if n == 3:
        return 1, 12, 2, "odd/m=1", 1
    r = math.gcd(n // 2 - n % 2, 12)
    tests, (value, branch) = _CASES[n % 2, r]
    for predicate, divisor, test_value, test_branch in tests:
        if getattr(fpbounds.bounds, predicate)(n // divisor):
            value, branch = test_value, test_branch
            break
    return n // 2, r, value, branch, value * r // (24 if n % 2 else 12)


def _bound_fields(n):
    res = closed_form_bound(n)
    return res.m, res.r, res.value, res.branch, res.l


def test_bound_agrees_with_the_per_n_key_up_to_20000():
    for n in range(2, 20001):
        assert _bound_fields(n) == _per_n_case(n), n


@given(st.integers(2, 10**12))
def test_bound_agrees_with_the_per_n_key_property(n):
    assert _bound_fields(n) == _per_n_case(n)
