"""Command-line surface: bounds, divisibility moduli, the summary table,
Chern evaluation of profile files, witnesses, and cross-verification.

Exit codes: 0 success, 1 verification mismatch, 2 usage or input error.
All output is deterministic; no environment variables are consulted.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import click

from .bounds import (
    _c1_zero_value,
    _case,
    c1_zero_refinement_applies,
    closed_form_bound,
    divisibility_modulus,
    divisibility_refined,
)
from .chern import (
    Parity,
    ProfileError,
    _chern_sum,
    chern_c1cn1,
    dim6_hamiltonian_classifier,
    parse_profile,
)
from .minimizer import _l_search, _lattice_objectives, _sparse_witness

__all__ = ["main", "cli", "TableRow", "summary_rows"]


class TableRow(NamedTuple):
    """One row of the summary table: first three possible fixed-point
    counts for the dimension, the two comparison bounds, and (when the
    c1 = 0 refinement bites) the alternate possible counts."""

    dim: int
    possible_values: tuple[int, int, int]
    kosniowski: int
    hamiltonian: int
    c1_zero_variant: tuple[int, int, int] | None


def summary_rows(dims: list[int]) -> list[TableRow]:
    rows = []
    for dim in dims:
        if dim % 2:
            raise ValueError(f"dimensions must be even, got {dim}")
        n = dim // 2
        low = _case(n)[1]
        mod = divisibility_modulus(n)
        variant = None
        if c1_zero_refinement_applies(n):
            vlow = _c1_zero_value(n, low)
            vmod = divisibility_refined(n, c1_zero=True).modulus_refined
            variant = (vlow, vlow + vmod, vlow + 2 * vmod)
        rows.append(TableRow(dim, (low, low + mod, low + 2 * mod), n // 2 + 1, n + 1, variant))
    return rows


def render_table_csv(rows: list[TableRow]) -> str:
    lines = ["dim,value1,value2,value3,kosniowski,hamiltonian,c1_zero_value1,c1_zero_value2,c1_zero_value3"]
    for dim, (v1, v2, v3), kosniowski, hamiltonian, variant in rows:
        c1_zero = f"{variant[0]},{variant[1]},{variant[2]}" if variant else ",,"
        lines.append(f"{dim},{v1},{v2},{v3},{kosniowski},{hamiltonian},{c1_zero}")
    return "\n".join(lines) + "\n"


def render_table_json(rows: list[TableRow]) -> str:
    """Exactly json.dumps(rows as dicts, indent=2) + "\n", from one f-string per row."""
    items = []
    for dim, (v1, v2, v3), kosniowski, hamiltonian, variant in rows:
        c1_zero = (f"[\n      {variant[0]},\n      {variant[1]},\n      {variant[2]}\n    ]"
                   if variant else "null")
        items.append(
            f'  {{\n    "dim": {dim},\n    "possible_values": [\n      {v1},\n      {v2},'
            f'\n      {v3}\n    ],\n    "kosniowski": {kosniowski},\n    "hamiltonian": {hamiltonian},'
            f'\n    "c1_zero_variant": {c1_zero}\n  }}'
        )
    return "[\n" + ",\n".join(items) + "\n]\n" if items else "[]\n"


def render_table_md(rows: list[TableRow]) -> str:
    lines = [
        "| dim M = 2n | fixed points when c1*c(n-1) = 0 | Kosniowski bound | Hamiltonian bound |",
        "| --- | --- | --- | --- |",
    ]
    starred = False
    for row in rows:
        star = "*" if row.c1_zero_variant else ""
        starred = starred or bool(star)
        v1, v2, v3 = row.possible_values
        lines.append(
            f"| {row.dim}{star} | **{v1}**, {v2}, {v3}, ... "
            f"| {row.kosniowski} | {row.hamiltonian} |"
        )
    text = "\n".join(lines) + "\n"
    if starred:
        text += "\n* with c1 = 0 the possible values are 24, 48, 72, ...\n"
    return text


# Published case examples used by `verify` as golden data: n -> (m, r, value, branch),
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

_ALL_BRANCHES = sorted(
    {b for _, _, _, b in _CASE_GOLDEN.values()}
    | {"odd/m=1", "odd/r=1", "odd/r=2", "odd/r=3", "odd/r=4"}
)


@click.group()
def cli() -> None:
    """Minimal fixed-point counts of circle actions with c1*c(n-1)[M] = 0."""


def _require_half_dimension(n: int) -> None:
    if n < 2:
        raise click.UsageError(f"n must be >= 2 (dimension >= 4), got {n}")
    try:
        str(2 * n)  # the dimension, the largest number the output prints
    except ValueError as exc:  # past Python's digit limit for int to str
        raise click.UsageError(f"dimension 2n is too long to print: {exc}")


def _int_list(length: int, entries: list[tuple[int, int]],
              left: str, sep: str, right: str) -> list[str]:
    """Pieces that join to the list of `length` >= 1 ints that are zero except
    at `entries`, (index, value) pairs with the index increasing.  Runs of
    zeros are made by string repetition, so only the entries cost Python work."""
    zero = "0" + sep
    pieces, start = [left], 0
    for i, value in entries:
        pieces += (zero * (i - start), str(value), sep)
        start = i + 1
    if start < length:
        pieces += (zero * (length - start - 1), "0")
    else:
        pieces.pop()  # no separator after the last entry
    pieces.append(right)
    return pieces


def _render_json(payload: dict) -> str:
    """Exactly json.dumps(payload, indent=2), in one join, for a nonempty dict of
    scalars, strings and int lists given as (length, entries) for `_int_list`,
    which print as the dense list."""
    pieces = ["{"]
    for key, value in payload.items():
        pieces += ("\n  ", encode_basestring_ascii(key), ": ")  # json.dumps(key), less set-up
        if type(value) is int:
            pieces.append(str(value))  # as json.dumps prints it, without its per-call set-up
        elif isinstance(value, tuple):
            pieces += _int_list(*value, "[\n    ", ",\n    ", "\n  ]")
        else:
            pieces.append(json.dumps(value))
        pieces.append(",")
    pieces[-1] = "\n}"
    return "".join(pieces)


def _bound_payload(n: int, c1_zero: bool, with_witness: bool) -> dict:
    base = closed_form_bound(n)
    scale = base.value_for(c1_zero) // base.value  # 2 where c1 = 0 raises 12 to 24
    payload = {"n": n, "dim": 2 * n, "value": scale * base.value,
               "branch": "c1-zero/24" if scale > 1 else base.branch,
               "m": base.m, "r": base.r, "l": scale * base.l}
    if with_witness:
        entries = [(i, scale * count) for i, count in _sparse_witness(n)]
        payload["witness"] = (n + 1, entries)
        payload["witness_total"] = sum(count for _, count in entries)
    return payload


def _echo_payload(payload: dict, fmt: str, labels: dict[str, str]) -> None:
    """Print `payload` as `_render_json` writes it, or as text: the header
    `n = N (dim 2N)`, then one `label = value` line for each key of `labels`
    that the payload has, in the payload's key order.  Int lists given as
    (length, entries) print as the dense list, `[0, 1, 1, 0]`."""
    if fmt == "json":
        click.echo(_render_json(payload))
        return
    pieces = [f"n = {payload['n']} (dim {payload['dim']})"]
    for key, value in payload.items():
        if key in labels:
            pieces += ("\n", labels[key], " = ")
            if isinstance(value, tuple):
                pieces += _int_list(*value, "[", ", ", "]")
            else:
                pieces.append(str(value))
    click.echo("".join(pieces))


_format_option = click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")


@cli.command()
@click.argument("n", type=int)
@click.option("--c1-zero", is_flag=True, help="Assume c1 = 0 in integer cohomology.")
@click.option("--witness", "with_witness", is_flag=True, help="Print a profile attaining the bound.")
@_format_option
def bound(n: int, c1_zero: bool, with_witness: bool, fmt: str) -> None:
    """Lower bound for the number of fixed points in half-dimension N."""
    _require_half_dimension(n)
    _echo_payload(_bound_payload(n, c1_zero, with_witness), fmt,
                  {"value": "bound", "branch": "branch", "m": "m", "r": "r", "l": "l",
                   "witness": "witness", "witness_total": "witness total"})


@cli.command()
@click.argument("n", type=int)
@click.option("--c1-zero", is_flag=True, help="Assume c1 = 0 in integer cohomology.")
@_format_option
def divisibility(n: int, c1_zero: bool, fmt: str) -> None:
    """Moduli dividing the fixed-point count in half-dimension N."""
    _require_half_dimension(n)
    # The result's fields in order: n keeps its place before dim.
    payload = {"n": n, "dim": 2 * n, **vars(divisibility_refined(n, c1_zero=c1_zero))}
    _echo_payload(payload, fmt, {"modulus_gcd": "gcd modulus",
                                 "modulus_hirzebruch": "hirzebruch modulus",
                                 "modulus_refined": "refined modulus"})


def _parse_dims(spec: str) -> list[int]:
    try:
        lo_text, hi_text = spec.split("..")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise click.UsageError(f"--dims must look like A..B, got {spec!r}")
    if lo % 2 or hi % 2:
        raise click.UsageError(f"dimensions must be even, got {spec!r}")
    if lo < 4 or lo > hi:
        raise click.UsageError(f"need 4 <= A <= B, got {spec!r}")
    return list(range(lo, hi + 1, 2))


@cli.command()
@click.option("--dims", default="4..30", show_default=True, help="Range of even dimensions A..B.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json", "md"]), default="md")
def table(dims: str, fmt: str) -> None:
    """Summary table of possible fixed-point counts per dimension."""
    rows = summary_rows(_parse_dims(dims))
    render = {"csv": render_table_csv, "json": render_table_json, "md": render_table_md}[fmt]
    click.echo(render(rows), nl=False)


@cli.command()
@click.option("--profile", "profile_path", required=True, type=click.Path(exists=True, dir_okay=False))
def chern(profile_path: str) -> None:
    """Evaluate c1*c(n-1) for a profile file {"n": int, "counts": [...]}."""
    try:
        with open(profile_path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8 and over-long ints are ValueErrors
        raise click.UsageError(f"profile is not valid JSON: {exc}")
    try:
        profile = parse_profile(data)
        profile.require_symmetric()
        value = chern_c1cn1(profile)
    except ProfileError as exc:
        raise click.UsageError(str(exc))
    click.echo(f"c1*c(n-1)[M] = {value}")
    click.echo(f"fixed points = {profile.total()}")
    click.echo("symmetric = yes")
    if profile.n == 3:
        click.echo(f"dim-6 classification = {dim6_hamiltonian_classifier(value).value}")


@cli.command()
@click.argument("n", type=int)
@_format_option
def witness(n: int, fmt: str) -> None:
    """A profile attaining the minimal fixed-point count for half-dimension N."""
    _require_half_dimension(n)
    entries = _sparse_witness(n)
    payload = {"n": n, "dim": 2 * n, "counts": (n + 1, entries),
               "total": sum(count for _, count in entries), "c1cn1": _chern_sum(n, entries)}
    _echo_payload(payload, fmt, {"counts": "profile", "total": "total", "c1cn1": "c1*c(n-1)[M]"})


_LATTICE_CAP = 48

_Check = tuple[str, str, list[str]]  # ok line, failure label, mismatches (none when it passes)


def _verify_checks(max_m: int, lattice_max_n: int) -> tuple[list[_Check], set[str]]:
    """Run all cross-checks; returns every check, in report order, and the
    branches seen."""
    checks: list[_Check] = []
    seen: set[str] = set()

    for label, parity, first, l_max in (
        ("even", Parity.EVEN, 2, 7),
        ("odd", Parity.ODD, 3, 3),
    ):
        last = 2 * max_m + first - 2
        mismatch = []
        for n in range(first, last + 1, 2):
            result = closed_form_bound(n)
            seen.add(result.branch)
            solved = _l_search(n // 2, parity)
            if solved.minimum != result.value or solved.l > l_max:
                mismatch.append(
                    f"n={n}: closed-form={result.value}, l-search={solved.minimum} (l={solved.l})"
                )
        checks.append((f"closed form vs l-search agrees for {label} n = {first}..{last}",
                       f"closed form vs l-search ({label})", mismatch))

    mismatch = []
    for n in range(2, lattice_max_n + 1):
        objectives = _lattice_objectives(n, _LATTICE_CAP)
        expected = closed_form_bound(n).value
        if not objectives or objectives[0] != expected:
            got = objectives[0] if objectives else None
            mismatch.append(f"n={n}: closed-form={expected}, lattice={got}")
            continue
        modulus = divisibility_modulus(n)
        bad = [objective for objective in objectives if objective % modulus]
        if bad:
            mismatch.append(f"n={n}: objectives {bad[:3]} not divisible by {modulus}")
    checks.append((f"lattice enumeration (cap {_LATTICE_CAP}) matches closed form and the "
                   f"divisibility rule for n = 2..{lattice_max_n}",
                   "lattice enumeration", mismatch))

    for label in ("even", "odd"):
        golden = {n: row for n, row in _CASE_GOLDEN.items() if row[3].startswith(f"{label}/")}
        mismatch = []
        for n, (m, r, value, branch) in golden.items():
            res = closed_form_bound(n)
            if (res.m, res.r, res.value, res.branch) != (m, r, value, branch):
                mismatch.append(
                    f"n={n}: expected ({m},{r},{value},{branch}), "
                    f"got ({res.m},{res.r},{res.value},{res.branch})"
                )
        checks.append((f"{label} case table reproduced ({len(golden)} rows)",
                       f"{label} case table", mismatch))

    # The rows that `table` prints, so `verify` checks what users read.
    mismatch = []
    for row, expected in zip(summary_rows(list(_SUMMARY_GOLDEN)), _SUMMARY_GOLDEN.values()):
        low, second, _ = row.possible_values
        got = (low, second - low, row.kosniowski, row.hamiltonian)
        if got != expected:
            mismatch.append(f"dim={row.dim}: expected {expected}, got {got}")
    checks.append(("summary table reproduced for dims 4..30", "summary table dims 4..30", mismatch))

    return checks, seen


@cli.command()
@click.option("--max-m", type=int, default=200, show_default=True)
@click.option("--lattice-max-n", type=int, default=30, show_default=True)
@click.pass_context
def verify(ctx: click.Context, max_m: int, lattice_max_n: int) -> None:
    """Cross-check the closed form against both independent solvers."""
    if max_m < 1:
        raise click.UsageError(f"--max-m must be >= 1, got {max_m}")
    if lattice_max_n < 2:
        raise click.UsageError(f"--lattice-max-n must be >= 2, got {lattice_max_n}")
    checks, seen = _verify_checks(max_m, lattice_max_n)
    failures = [f"FAIL: {label}: {'; '.join(bad[:5])}" for _, label, bad in checks if bad]
    for line in [f"ok: {ok}" for ok, _, bad in checks if not bad] + failures:
        click.echo(line)
    hit = [b for b in _ALL_BRANCHES if b in seen]
    click.echo(f"branch coverage: {len(hit)}/{len(_ALL_BRANCHES)} cases exercised")
    missing = [b for b in _ALL_BRANCHES if b not in seen]
    if missing:
        click.echo(f"missing branches: {', '.join(missing)}")
    if max_m < 504:
        click.echo("warning: full even-case coverage needs --max-m >= 504")
    click.echo("RESULT " + ("FAIL" if failures else "PASS"))
    if failures:
        ctx.exit(1)


def main() -> None:
    cli()
