"""Output checks: each takes the stdout of one fpbounds command and raises
CheckFailed unless it agrees with `reference` or with a property the
method must have."""

from __future__ import annotations

import json
import math
import re

import reference as ref


class CheckFailed(AssertionError):
    """A command's output disagrees with the independent computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# The paper's table for dims 4..30: dim -> (value1, modulus, Kosniowski,
# Hamiltonian).
PAPER_TABLE = {
    4: (12, 12, 2, 3), 6: (2, 2, 2, 4), 8: (6, 6, 3, 5), 10: (24, 24, 3, 6),
    12: (4, 4, 4, 7), 14: (12, 12, 4, 8), 16: (3, 3, 5, 9), 18: (8, 8, 5, 10),
    20: (12, 12, 6, 11), 22: (6, 6, 6, 12), 24: (2, 2, 7, 13),
    26: (24, 24, 7, 14), 28: (12, 12, 8, 15), 30: (4, 4, 8, 16),
}

CSV_HEADER = ("dim,value1,value2,value3,kosniowski,hamiltonian,"
              "c1_zero_value1,c1_zero_value2,c1_zero_value3")
MD_ROW = re.compile(r"\| (\d+)(\*?) \| \*\*(\d+)\*\*, (\d+), (\d+), \.\.\. \| (\d+) \| (\d+) \|")
MD_HEADER = 2
MD_FOOTNOTE = "* with c1 = 0 the possible values are 24, 48, 72, ..."


def parse_table(text: str, fmt: str) -> list[tuple]:
    """Rows (dim, v1, v2, v3, kosniowski, hamiltonian, variant).  `variant`
    is the c1 = 0 triple, None when absent, and True for a starred md row
    (md does not print the triple)."""
    rows = []
    if fmt == "csv":
        lines = text.splitlines()
        _require(lines[0] == CSV_HEADER, f"csv header {lines[0]!r}")
        for line in lines[1:]:
            cells = line.split(",")
            _require(len(cells) == 9, f"csv row {line!r}")
            head = tuple(int(c) for c in cells[:6])
            tail = cells[6:]
            variant = None if tail == ["", "", ""] else tuple(int(c) for c in tail)
            rows.append(head + (variant,))
    elif fmt == "json":
        for item in json.loads(text):
            variant = item["c1_zero_variant"]
            rows.append((item["dim"], *item["possible_values"], item["kosniowski"],
                         item["hamiltonian"], tuple(variant) if variant else None))
    else:
        lines = text.splitlines()
        body = lines[MD_HEADER:]
        starred = False
        for line in body:
            if not line:
                break
            match = MD_ROW.fullmatch(line)
            _require(match is not None, f"md row {line!r}")
            dim, star, *values = match.groups()
            starred = starred or bool(star)
            rows.append((int(dim), *(int(v) for v in values), True if star else None))
        footnote = lines[MD_HEADER + len(rows) + 1:]
        _require(footnote == ([MD_FOOTNOTE] if starred else []),
                 f"md footnote {footnote!r} with starred rows = {starred}")
    return rows


def table(text: str, *, lo: int, hi: int, fmt: str, sample: tuple[int, ...]) -> None:
    rows = parse_table(text, fmt)
    _require([row[0] for row in rows] == list(range(lo, hi + 1, 2)),
             f"table rows do not cover dims {lo}..{hi}")
    value1 = {}
    for dim, v1, v2, v3, kos, ham, variant in rows:
        n = dim // 2
        mod = ref.gcd_modulus(n)
        allowed = ref.EVEN_VALUES if n % 2 == 0 else ref.ODD_VALUES
        _require(v1 in allowed and v1 % mod == 0,
                 f"dim {dim}: value1 {v1} not an allowed multiple of {mod}")
        _require(v1 == ref.case_rule(n)["value"], f"dim {dim}: value1 {v1} breaks the case rules")
        _require((v2, v3) == (v1 + mod, v1 + 2 * mod),
                 f"dim {dim}: values {v1}, {v2}, {v3} do not step by {mod}")
        _require((kos, ham) == (n // 2 + 1, n + 1),
                 f"dim {dim}: Kosniowski {kos}, Hamiltonian {ham}")
        _require((variant is not None) == ref.c1_zero_variant_applies(n),
                 f"dim {dim}: c1 = 0 variant {variant!r}")
        if isinstance(variant, tuple):
            low, step = max(v1, 24), math.lcm(mod, 8)
            _require(variant == (low, low + step, low + 2 * step),
                     f"dim {dim}: c1 = 0 variant {variant}")
        if dim in PAPER_TABLE:
            _require((v1, v2 - v1, kos, ham) == PAPER_TABLE[dim],
                     f"dim {dim}: {(v1, v2 - v1, kos, ham)} differs from the paper")
        value1[dim] = v1
    for dim in sample:
        expected = ref.lsearch_minimum(dim // 2)
        _require(value1[dim] == expected,
                 f"dim {dim}: value1 {value1[dim]}, brute-force l-search gives {expected}")


def _bound_fields(data: dict, expected: dict) -> None:
    fields = {k: data.get(k) for k in ("n", "dim", "value", "branch", "m", "r", "l")}
    want = {k: v for k, v in expected.items() if k != "factoring"}
    _require(fields == want, f"bound {fields} differs from the case rules {want}")


def bound(text: str, *, expected: dict) -> None:
    data = json.loads(text)
    _require(set(data) == {"n", "dim", "value", "branch", "m", "r", "l"},
             f"bound keys {sorted(data)}")
    _require(data["n"] == expected["n"], f"bound printed n = {data['n']}")
    _bound_fields(data, expected)


def divisibility(text: str, *, n: int) -> None:
    data = json.loads(text)
    want = ref.divisibility(n)
    _require(data == want, f"divisibility {data} differs from {want}")


def profile(counts: list[int], n: int, total: int) -> None:
    """A witness profile: n + 1 non-negative symmetric entries summing to
    the bound, a multiple of the modulus, with c1*c(n-1) = 0."""
    _require(len(counts) == n + 1, f"profile has {len(counts)} entries, want {n + 1}")
    _require(all(isinstance(c, int) and c >= 0 for c in counts), "profile has a negative entry")
    _require(counts == counts[::-1], "profile is not symmetric")
    _require(sum(counts) == total, f"profile total {sum(counts)}, bound {total}")
    _require(total % ref.gcd_modulus(n) == 0, f"total {total} not a multiple of the modulus")
    _require(ref.chern_sum_doubled(counts) == 0, "profile has c1*c(n-1) != 0")


def witness(text: str, *, n: int) -> None:
    data = json.loads(text)
    _require(set(data) == {"n", "dim", "counts", "total", "c1cn1"}, f"witness keys {sorted(data)}")
    _require((data["n"], data["dim"], data["c1cn1"]) == (n, 2 * n, 0),
             f"witness header n={data['n']} dim={data['dim']} c1cn1={data['c1cn1']}")
    expected = ref.case_rule(n)["value"]
    _require(data["total"] == expected, f"witness total {data['total']}, bound {expected}")
    profile(data["counts"], n, expected)


def bound_witness(text: str, *, n: int) -> None:
    data = json.loads(text)
    expected = ref.case_rule(n)
    _bound_fields(data, expected)
    _require(data.get("witness_total") == expected["value"],
             f"witness_total {data.get('witness_total')}, bound {expected['value']}")
    profile(data["witness"], n, expected["value"])


def verify(text: str) -> None:
    lines = text.splitlines()
    _require(bool(lines) and lines[-1] == "RESULT PASS", f"verify ended with {lines[-1:]!r}")
    _require(any(line.startswith("branch coverage: 27/27 ") for line in lines),
             "verify did not cover 27/27 branches")
