"""Command-line surface: bounds, divisibility moduli, the summary table, Chern
evaluation of profile files, witnesses and the `verify` report, each written in
pieces through one writer, `_write`, so no document is joined whole in memory.

Exit codes: 0 success, 1 verification mismatch, 2 usage or input error or
out of memory.  All output is deterministic; no environment variables are consulted.
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


def _write(pieces: Iterable[str]) -> None:
    """Write each piece to stdout as it comes, so no document is joined whole."""
    out = click.get_text_stream("stdout")
    if out is not None:  # None with fd 1 closed: write nothing, as click.echo does
        for piece in pieces:
            out.write(piece)
        out.flush()


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
              left: str, sep: str, right: str) -> Iterator[str]:
    """The pieces of the list of `length` >= 1 ints that are zero except at `entries`,
    (index, value) pairs by increasing index.  Each run of zeros is one string made by repetition."""
    zero, start = "0" + sep, 0
    yield left
    for i, value in entries:
        yield zero * (i - start)
        yield f"{value}{sep}" if i + 1 < length else str(value)
        start = i + 1
    if start < length:  # the zeros after the last entry, the last one without a separator
        yield zero * (length - start - 1)
        yield "0"
    yield right


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


def _payload_pieces(payload: dict, fmt: str, labels: dict[str, str]) -> Iterator[str]:
    """`payload` in pieces, newline included, for a nonempty dict of scalars, strings and
    int lists given as (length, entries) for `_int_list`, which print as the dense list.
    As JSON they join to exactly json.dumps(payload, indent=2); as text, to the header
    `n = N (dim 2N)` and one `label = value` line per key of `labels`, in payload order."""
    if fmt == "json":
        sep = "{\n  "
        for key, value in payload.items():
            yield sep + encode_basestring_ascii(key) + ": "  # json.dumps(key), less set-up
            if isinstance(value, tuple):
                yield from _int_list(*value, "[\n    ", ",\n    ", "\n  ]")
            else:  # str(int) prints it as json.dumps does, without its per-call set-up
                yield str(value) if type(value) is int else json.dumps(value)
            sep = ",\n  "
        yield "\n}\n"
        return
    yield f"n = {payload['n']} (dim {payload['dim']})"
    for key, value in payload.items():
        if key in labels:
            yield f"\n{labels[key]} = "
            if isinstance(value, tuple):
                yield from _int_list(*value, "[", ", ", "]")
            else:
                yield str(value)
    yield "\n"


_format_option = click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")


@cli.command()
@click.argument("n", type=int)
@click.option("--c1-zero", is_flag=True, help="Assume c1 = 0 in integer cohomology.")
@click.option("--witness", "with_witness", is_flag=True, help="Print a profile attaining the bound.")
@_format_option
def bound(n: int, c1_zero: bool, with_witness: bool, fmt: str) -> None:
    """Lower bound for the number of fixed points in half-dimension N."""
    _require_half_dimension(n)
    _write(_payload_pieces(_bound_payload(n, c1_zero, with_witness), fmt,
                           {"value": "bound", "branch": "branch", "m": "m", "r": "r", "l": "l",
                            "witness": "witness", "witness_total": "witness total"}))


@cli.command()
@click.argument("n", type=int)
@click.option("--c1-zero", is_flag=True, help="Assume c1 = 0 in integer cohomology.")
@_format_option
def divisibility(n: int, c1_zero: bool, fmt: str) -> None:
    """Moduli dividing the fixed-point count in half-dimension N."""
    _require_half_dimension(n)
    # The result's fields in order: n keeps its place before dim.
    payload = {"n": n, "dim": 2 * n, **vars(divisibility_refined(n, c1_zero=c1_zero))}
    _write(_payload_pieces(payload, fmt, {"modulus_gcd": "gcd modulus",
                                          "modulus_hirzebruch": "hirzebruch modulus",
                                          "modulus_refined": "refined modulus"}))


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
    _write(_TABLE_PIECES[fmt](_row_tuples(_parse_dims(dims))))


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
        text = f"c1*c(n-1)[M] = {value}\nfixed points = {profile.total()}\nsymmetric = yes\n"
    except ValueError as exc:
        raise click.UsageError(f"result is too long to print: {exc}")
    dim6 = f"dim-6 classification = {dim6_hamiltonian_classifier(value).value}\n" if profile.n == 3 else ""
    _write((text, dim6))


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
    _write(_payload_pieces(payload, fmt, {"counts": "profile", "total": "total", "c1cn1": "c1*c(n-1)[M]"}))


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
    _write(f"{line}\n" for line in lines)
    if lines[-1] == "RESULT FAIL":
        ctx.exit(1)


def main() -> None:
    try:
        cli()
    except MemoryError:  # exit 1 is kept for a verification mismatch
        click.echo("Error: out of memory", err=True)
        raise SystemExit(2)
