"""The cross-checks behind `fpbounds verify`, one function each that yields
its mismatches (none when it passes).  `verify_report` lists the checks in
report order, each with its ok line and failure label, so a new check is one
function and one list entry.
"""

from __future__ import annotations

from collections.abc import Iterator

from .bounds import _BRANCHES, closed_form_bound, divisibility_modulus, summary_rows
from .chern import Parity
from .minimizer import _l_search, _lattice_objectives

# Published case examples used as golden data: n -> (m, r, value, branch),
# the even table first.
_CASE_GOLDEN = {
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
    39: (19, 6, 4, "odd/r=6/Euler"),
    63: (31, 6, 8, "odd/r=6/non-Euler"),
    75: (37, 12, 2, "odd/r=12/triangular"),
    51: (25, 12, 4, "odd/r=12/Euler"),
    99: (49, 12, 6, "odd/r=12/non-Euler"),
}

# Summary-table goldens for dims 4..30: dim -> (min, modulus, kosniowski, hamiltonian).
_SUMMARY_GOLDEN = {
    4: (12, 12, 2, 3),
    6: (2, 2, 2, 4),
    8: (6, 6, 3, 5),
    10: (24, 24, 3, 6),
    12: (4, 4, 4, 7),
    14: (12, 12, 4, 8),
    16: (3, 3, 5, 9),
    18: (8, 8, 5, 10),
    20: (12, 12, 6, 11),
    22: (6, 6, 6, 12),
    24: (2, 2, 7, 13),
    26: (24, 24, 7, 14),
    28: (12, 12, 8, 15),
    30: (4, 4, 8, 16),
}

_LATTICE_CAP = 48


def _lsearch_mismatches(parity: Parity, first: int, last: int, l_max: int,
                        seen: set[str]) -> Iterator[str]:
    """The closed form against the l-search, which must solve with l <= l_max,
    for n = first, first + 2, ..., last; adds each n's branch to `seen`."""
    for n in range(first, last + 1, 2):
        result = closed_form_bound(n)
        seen.add(result.branch)
        solved = _l_search(n // 2, parity)
        if solved.minimum != result.value or solved.l > l_max:
            yield f"n={n}: closed-form={result.value}, l-search={solved.minimum} (l={solved.l})"


def _lattice_mismatches(last: int) -> Iterator[str]:
    """The lattice enumeration's least objective against the closed form, and
    every objective against the divisibility rule, for n = 2..last."""
    for n in range(2, last + 1):
        objectives = _lattice_objectives(n, _LATTICE_CAP)
        expected = closed_form_bound(n).value
        if not objectives or objectives[0] != expected:
            got = objectives[0] if objectives else None
            yield f"n={n}: closed-form={expected}, lattice={got}"
            continue
        modulus = divisibility_modulus(n)
        bad = [objective for objective in objectives if objective % modulus]
        if bad:
            yield f"n={n}: objectives {bad[:3]} not divisible by {modulus}"


def _case_mismatches(golden: dict[int, tuple[int, int, int, str]]) -> Iterator[str]:
    """`closed_form_bound` against the golden (m, r, value, branch) rows."""
    for n, (m, r, value, branch) in golden.items():
        res = closed_form_bound(n)
        if (res.m, res.r, res.value, res.branch) != (m, r, value, branch):
            yield (f"n={n}: expected ({m},{r},{value},{branch}), "
                   f"got ({res.m},{res.r},{res.value},{res.branch})")


def _summary_mismatches() -> Iterator[str]:
    """The rows that `table` prints, so `verify` checks what users read."""
    for row, expected in zip(summary_rows(list(_SUMMARY_GOLDEN)), _SUMMARY_GOLDEN.values()):
        low, second, _ = row.possible_values
        got = (low, second - low, row.kosniowski, row.hamiltonian)
        if got != expected:
            yield f"dim={row.dim}: expected {expected}, got {got}"


def verify_report(max_m: int, lattice_max_n: int) -> list[str]:
    """Run the checks in order; returns the report's lines through `RESULT PASS|FAIL`."""
    seen: set[str] = set()  # the branches that the l-search checks reach
    even = {n: row for n, row in _CASE_GOLDEN.items() if n % 2 == 0}
    odd = {n: row for n, row in _CASE_GOLDEN.items() if n % 2}
    checks = [  # (ok line, failure label, mismatches)
        (f"closed form vs l-search agrees for even n = 2..{2 * max_m}",
         "closed form vs l-search (even)", _lsearch_mismatches(Parity.EVEN, 2, 2 * max_m, 7, seen)),
        (f"closed form vs l-search agrees for odd n = 3..{2 * max_m + 1}",
         "closed form vs l-search (odd)", _lsearch_mismatches(Parity.ODD, 3, 2 * max_m + 1, 3, seen)),
        (f"lattice enumeration (cap {_LATTICE_CAP}) matches closed form and the "
         f"divisibility rule for n = 2..{lattice_max_n}",
         "lattice enumeration", _lattice_mismatches(lattice_max_n)),
        (f"even case table reproduced ({len(even)} rows)", "even case table", _case_mismatches(even)),
        (f"odd case table reproduced ({len(odd)} rows)", "odd case table", _case_mismatches(odd)),
        ("summary table reproduced for dims 4..30", "summary table dims 4..30", _summary_mismatches()),
    ]
    results = [(ok, label, list(mismatches)) for ok, label, mismatches in checks]
    failures = [f"FAIL: {label}: {'; '.join(bad[:5])}" for _, label, bad in results if bad]
    lines = [f"ok: {ok}" for ok, _, bad in results if not bad] + failures
    missing = [b for b in sorted(_BRANCHES) if b not in seen]
    lines.append(f"branch coverage: {len(_BRANCHES) - len(missing)}/{len(_BRANCHES)} cases exercised")
    if missing:
        lines.append(f"missing branches: {', '.join(missing)}")
    if max_m < 504:
        lines.append("warning: full even-case coverage needs --max-m >= 504")
    lines.append("RESULT " + ("FAIL" if failures else "PASS"))
    return lines
