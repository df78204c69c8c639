"""Command-line surface: bounds, divisibility moduli, the summary table,
Chern evaluation of profile files, witnesses, and the `verify` report.

Exit codes: 0 success, 1 verification mismatch, 2 usage or input error.
All output is deterministic; no environment variables are consulted.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from itertools import islice
from json.encoder import encode_basestring_ascii

import click

from .bounds import TableRow, _row_tuples, closed_form_bound, divisibility_refined, summary_rows
from .chern import (
    ProfileError,
    _chern_sum,
    chern_c1cn1,
    dim6_hamiltonian_classifier,
    parse_profile,
)
from .minimizer import _sparse_witness
from .verify import verify_report

__all__ = ["main", "cli", "TableRow", "summary_rows"]


_CHUNK_ROWS = 4096  # table renders and writes this many rows at a time, so its memory stays bounded


def _chunks(rows: Iterable[tuple]) -> Iterator[list[tuple]]:
    rows = iter(rows)
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        yield chunk


def _csv_pieces(rows: Iterable[tuple]) -> Iterator[str]:
    yield "dim,value1,value2,value3,kosniowski,hamiltonian,c1_zero_value1,c1_zero_value2,c1_zero_value3\n"
    for chunk in _chunks(rows):
        lines = []
        for dim, (v1, v2, v3), kosniowski, hamiltonian, variant in chunk:
            c1_zero = f"{variant[0]},{variant[1]},{variant[2]}" if variant else ",,"
            lines.append(f"{dim},{v1},{v2},{v3},{kosniowski},{hamiltonian},{c1_zero}\n")
        yield "".join(lines)


def _json_pieces(rows: Iterable[tuple]) -> Iterator[str]:
    """Exactly json.dumps(rows as dicts, indent=2) + "\n", from one f-string per row."""
    sep = "[\n"
    for chunk in _chunks(rows):
        items = []
        for dim, (v1, v2, v3), kosniowski, hamiltonian, variant in chunk:
            c1_zero = (f"[\n      {variant[0]},\n      {variant[1]},\n      {variant[2]}\n    ]"
                       if variant else "null")
            items.append(
                f'  {{\n    "dim": {dim},\n    "possible_values": [\n      {v1},\n      {v2},'
                f'\n      {v3}\n    ],\n    "kosniowski": {kosniowski},\n    "hamiltonian": {hamiltonian},'
                f'\n    "c1_zero_variant": {c1_zero}\n  }}'
            )
        yield sep + ",\n".join(items)
        sep = ",\n"
    yield "[]\n" if sep == "[\n" else "\n]\n"


def _md_pieces(rows: Iterable[tuple]) -> Iterator[str]:
    yield ("| dim M = 2n | fixed points when c1*c(n-1) = 0 | Kosniowski bound | Hamiltonian bound |\n"
           "| --- | --- | --- | --- |\n")
    starred = False
    for chunk in _chunks(rows):
        lines = []
        for dim, (v1, v2, v3), kosniowski, hamiltonian, variant in chunk:
            star = "*" if variant else ""
            starred = starred or bool(star)
            lines.append(f"| {dim}{star} | **{v1}**, {v2}, {v3}, ... | {kosniowski} | {hamiltonian} |\n")
        yield "".join(lines)
    if starred:
        yield "\n* with c1 = 0 the possible values are 24, 48, 72, ...\n"


_TABLE_PIECES = {"csv": _csv_pieces, "json": _json_pieces, "md": _md_pieces}


def render_table_csv(rows: Iterable[tuple]) -> str:
    return "".join(_csv_pieces(rows))


def render_table_json(rows: Iterable[tuple]) -> str:
    return "".join(_json_pieces(rows))


def render_table_md(rows: Iterable[tuple]) -> str:
    return "".join(_md_pieces(rows))


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
        if payload["witness_total"] != payload["value"] or _chern_sum(n, entries):
            raise click.ClickException(f"witness of n = {n}: total or c1*c(n-1) disagrees with {payload['value']}")
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


def _parse_dims(spec: str) -> range:
    try:
        lo_text, hi_text = spec.split("..")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise click.UsageError(f"--dims must look like A..B, got {spec!r}")
    if lo % 2 or hi % 2:
        raise click.UsageError(f"dimensions must be even, got {spec!r}")
    if lo < 4 or lo > hi:
        raise click.UsageError(f"need 4 <= A <= B, got {spec!r}")
    return range(lo, hi + 1, 2)


@cli.command()
@click.option("--dims", default="4..30", show_default=True, help="Range of even dimensions A..B.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json", "md"]), default="md")
def table(dims: str, fmt: str) -> None:
    """Summary table of possible fixed-point counts per dimension."""
    for piece in _TABLE_PIECES[fmt](_row_tuples(_parse_dims(dims))):
        click.echo(piece, nl=False)


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
    try:  # both numbers can pass Python's digit limit for int to str
        text = f"c1*c(n-1)[M] = {value}\nfixed points = {profile.total()}"
    except ValueError as exc:
        raise click.UsageError(f"result is too long to print: {exc}")
    click.echo(text)
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
    if payload["c1cn1"]:
        raise click.ClickException(f"witness of n = {n}: c1*c(n-1)[M] = {payload['c1cn1']}, not 0")
    _echo_payload(payload, fmt, {"counts": "profile", "total": "total", "c1cn1": "c1*c(n-1)[M]"})


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
    lines = verify_report(max_m, lattice_max_n)
    click.echo("\n".join(lines))
    if lines[-1] == "RESULT FAIL":
        ctx.exit(1)


def main() -> None:
    cli()
