import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner
from hypothesis import example, given
from hypothesis import strategies as st

import fpbounds
from fpbounds.bounds import (
    _RULES,
    UnsupportedHalfDimension,
    closed_form_bound,
    divisibility_modulus,
    min_fixed_points,
)
from fpbounds.cli import (
    _TABLE_PIECES,
    _bound_payload,
    _int_list,
    _render_json,
    cli,
    summary_rows,
)
from fpbounds.chern import Parity
from fpbounds.minimizer import _l_search, _lattice_objectives, witness_full_profile

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def runner():
    return CliRunner()


def test_bound_basic(runner):
    res = runner.invoke(cli, ["bound", "9"])
    assert res.exit_code == 0
    assert "bound = 8" in res.output
    assert "branch = odd/r=3" in res.output


def test_bound_c1_zero(runner):
    res = runner.invoke(cli, ["bound", "2", "--c1-zero"])
    assert res.exit_code == 0
    assert "bound = 24" in res.output
    assert "branch = c1-zero/24" in res.output


def test_bound_n12(runner):
    res = runner.invoke(cli, ["bound", "12"])
    assert res.exit_code == 0
    assert "bound = 2" in res.output
    assert "branch = even/r=6/n-12-square" in res.output


def test_bound_witness(runner):
    res = runner.invoke(cli, ["bound", "6", "--witness", "--format", "json"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["value"] == 4
    assert payload["witness"] == [0, 0, 1, 2, 1, 0, 0]
    assert payload["witness_total"] == 4


def test_bound_c1_zero_witness_scales(runner):
    res = runner.invoke(cli, ["bound", "10", "--c1-zero", "--witness", "--format", "json"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["value"] == 24
    assert payload["witness_total"] == 24


@pytest.mark.parametrize("arg", ["1", "0", "-4"])
def test_bound_invalid_n_exits_2(runner, arg):
    res = runner.invoke(cli, ["bound", arg])
    assert res.exit_code == 2


def test_bound_adds_no_arithmetic(runner):
    for n in list(range(2, 30)) + [112, 1008]:
        res = runner.invoke(cli, ["bound", str(n), "--format", "json"])
        assert json.loads(res.output)["value"] == closed_form_bound(n).value


@pytest.mark.parametrize("fmt", ["csv", "json", "md"])
def test_table_golden(runner, fmt):
    res = runner.invoke(cli, ["table", "--dims", "4..30", "--format", fmt])
    assert res.exit_code == 0
    expected = (GOLDEN / f"table_dims_4_30.{fmt}").read_text()
    assert res.output == expected


def _rows_from_csv(text):
    rows = []
    for line in text.strip().splitlines()[1:]:
        cells = line.split(",")
        variant = tuple(int(c) for c in cells[6:9]) if cells[6] else None
        rows.append((int(cells[0]), tuple(int(c) for c in cells[1:4]),
                     int(cells[4]), int(cells[5]), variant))
    return rows


def _rows_from_json(text):
    return [
        (
            row["dim"],
            tuple(row["possible_values"]),
            row["kosniowski"],
            row["hamiltonian"],
            tuple(row["c1_zero_variant"]) if row["c1_zero_variant"] else None,
        )
        for row in json.loads(text)
    ]


def _rows_from_md(text):
    rows = []
    for line in text.strip().splitlines()[2:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        starred = cells[0].endswith("*")
        dim = int(cells[0].rstrip("*"))
        values = tuple(
            int(v.strip().strip("*")) for v in cells[1].split(",")[:3]
        )
        variant = (24, 48, 72) if starred else None
        rows.append((dim, values, int(cells[2]), int(cells[3]), variant))
    return rows


def test_table_formats_mutually_consistent(runner):
    outputs = {
        fmt: runner.invoke(cli, ["table", "--dims", "4..40", "--format", fmt]).output
        for fmt in ("csv", "json", "md")
    }
    csv_rows = _rows_from_csv(outputs["csv"])
    json_rows = _rows_from_json(outputs["json"])
    md_rows = _rows_from_md(outputs["md"])
    assert csv_rows == json_rows == md_rows


def test_table_single_rows(runner):
    res = runner.invoke(cli, ["table", "--dims", "4..4", "--format", "csv"])
    assert "4,12,24,36,2,3,24,48,72" in res.output
    res = runner.invoke(cli, ["table", "--dims", "24..24", "--format", "csv"])
    assert "24,2,4,6,7,13,,," in res.output
    res = runner.invoke(cli, ["table", "--dims", "30..30", "--format", "csv"])
    assert "30,4,8,12,8,16,,," in res.output


@pytest.mark.parametrize("dims", ["5..9", "8..4", "2..10", "oops"])
def test_table_bad_range_exits_2(runner, dims):
    res = runner.invoke(cli, ["table", "--dims", dims])
    assert res.exit_code == 2


# Windows of dims for the renderer pins: c1 = 0 rows (dims 4, 20, 36, ...), single
# rows with and without a variant, dims past 10^7, and no rows at all.
_TABLE_WINDOWS = {
    "4..40": list(range(4, 41, 2)),
    "single-c1-zero": [4],
    "single-plain": [24],
    "998..1200": list(range(998, 1201, 2)),
    "far": list(range(20000000, 20000402, 2)),
    "empty": [],
}


def _json_reference(rows):
    payload = [
        {
            "dim": row.dim,
            "possible_values": list(row.possible_values),
            "kosniowski": row.kosniowski,
            "hamiltonian": row.hamiltonian,
            "c1_zero_variant": list(row.c1_zero_variant) if row.c1_zero_variant else None,
        }
        for row in rows
    ]
    return json.dumps(payload, indent=2) + "\n"


def _csv_reference(rows):
    """The cell-join form the CSV renderer must keep printing."""
    lines = ["dim,value1,value2,value3,kosniowski,hamiltonian,c1_zero_value1,c1_zero_value2,c1_zero_value3"]
    for row in rows:
        cells = [row.dim, *row.possible_values, row.kosniowski, row.hamiltonian]
        cells += list(row.c1_zero_variant) if row.c1_zero_variant else ["", "", ""]
        lines.append(",".join(str(c) for c in cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("dims", list(_TABLE_WINDOWS.values()), ids=list(_TABLE_WINDOWS))
def test_table_renderers_match_references(dims):
    rows = summary_rows(dims)
    assert "".join(_TABLE_PIECES["json"](rows)) == _json_reference(rows)
    assert "".join(_TABLE_PIECES["csv"](rows)) == _csv_reference(rows)


@given(st.integers(2, 10**12), st.integers(0, 12))
def test_table_renderers_match_references_property(start, count):
    rows = summary_rows(list(range(2 * start, 2 * (start + count), 2)))
    assert "".join(_TABLE_PIECES["json"](rows)) == _json_reference(rows)
    assert "".join(_TABLE_PIECES["csv"](rows)) == _csv_reference(rows)


def test_table_formats_mutually_consistent_far(runner):
    outputs = {
        fmt: runner.invoke(cli, ["table", "--dims", "20000000..20000600", "--format", fmt]).output
        for fmt in ("csv", "json", "md")
    }
    csv_rows = _rows_from_csv(outputs["csv"])
    assert csv_rows == _rows_from_json(outputs["json"]) == _rows_from_md(outputs["md"])
    assert [row[0] for row in csv_rows] == list(range(20000000, 20000601, 2))
    assert any(row[4] for row in csv_rows) and not all(row[4] for row in csv_rows)


@pytest.mark.parametrize("dims,odd", [([9], 9), ([4, 6, 9, 10], 9), ([-3], -3), ([20000001], 20000001)])
def test_summary_rows_rejects_odd_dims(dims, odd):
    with pytest.raises(ValueError, match=f"dimensions must be even, got {odd}$"):
        summary_rows(dims)


@pytest.mark.parametrize("dim", [2, 0, -4])
def test_summary_rows_rejects_dims_below_4(dim):
    with pytest.raises(UnsupportedHalfDimension):
        summary_rows([dim])


def test_table_row_repr():
    assert repr(summary_rows([4])[0]) == (
        "TableRow(dim=4, possible_values=(12, 24, 36), kosniowski=2, hamiltonian=3, "
        "c1_zero_variant=(24, 48, 72))"
    )


@pytest.mark.parametrize("fmt", ["csv", "json", "md"])
def test_table_chunk_edges_keep_the_bytes(runner, monkeypatch, fmt):
    # Three rows a chunk split 4..30 into five chunks, the last one short.
    monkeypatch.setattr("fpbounds.cli._CHUNK_ROWS", 3)
    res = runner.invoke(cli, ["table", "--dims", "4..30", "--format", fmt])
    assert res.exit_code == 0
    assert res.output == (GOLDEN / f"table_dims_4_30.{fmt}").read_text()


def test_table_across_the_4096_row_edge(runner):
    # 4099 rows: one full chunk, then three rows.
    rows = summary_rows(range(4, 8201, 2))
    for fmt, reference in (("json", _json_reference), ("csv", _csv_reference)):
        res = runner.invoke(cli, ["table", "--dims", "4..8200", "--format", fmt])
        assert res.output == reference(rows), fmt


def test_table_memory_is_bounded(tmp_path):
    """200,000 JSON rows (34 MB of output) in a child process whose address
    space is capped at 96 MB: a table held whole in memory needs about 190 MB."""
    code = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (96 << 20, 96 << 20)); "
            "from fpbounds.cli import main; main()")
    src = str(pathlib.Path(fpbounds.__file__).resolve().parents[1])
    out = tmp_path / "table.json"
    with out.open("wb") as fh:
        res = subprocess.run([sys.executable, "-c", code, "table", "--dims", "4..400002", "--format", "json"],
                             stdout=fh, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
                             timeout=120)
    assert res.returncode == 0, res.stderr.decode()[-500:]
    text = out.read_bytes()
    assert text.startswith(b'[\n  {\n    "dim": 4,\n') and text.endswith(b"  }\n]\n")
    assert text.count(b'"dim": ') == 200000 and text.count(b"\n  },\n  {\n") == 199999
    assert b'"dim": 400002,' in text[-300:]


def test_out_of_memory_is_an_input_error():
    """A witness whose JSON does not fit a 128 MB address space exits 2 with one
    error line, not 1 (the code of a verification mismatch) with a traceback."""
    code = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20)); "
            "from fpbounds.cli import main; main()")
    src = str(pathlib.Path(fpbounds.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", code, "bound", "20000000", "--witness", "--format", "json"],
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
                         timeout=120)
    stderr = res.stderr.decode()
    assert res.returncode == 2, stderr[-500:]
    assert "Traceback" not in stderr
    assert stderr == "Error: out of memory\n"


def _write_profile(tmp_path, payload):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_chern_blowup_profile(runner, tmp_path):
    path = _write_profile(tmp_path, {"n": 2, "counts": [1, 10, 1]})
    res = runner.invoke(cli, ["chern", "--profile", path])
    assert res.exit_code == 0
    assert "c1*c(n-1)[M] = 0" in res.output
    assert "fixed points = 12" in res.output


def test_chern_dim6_profile(runner, tmp_path):
    path = _write_profile(tmp_path, {"n": 3, "counts": [0, 1, 1, 0]})
    res = runner.invoke(cli, ["chern", "--profile", path])
    assert res.exit_code == 0
    assert "c1*c(n-1)[M] = 0" in res.output
    assert "fixed points = 2" in res.output
    assert "dim-6 classification = NonHamiltonian" in res.output


def test_chern_dim6_hamiltonian(runner, tmp_path):
    path = _write_profile(tmp_path, {"n": 3, "counts": [1, 1, 1, 1]})
    res = runner.invoke(cli, ["chern", "--profile", path])
    assert res.exit_code == 0
    assert "dim-6 classification = Hamiltonian" in res.output


def test_chern_asymmetric_exits_2(runner, tmp_path):
    path = _write_profile(tmp_path, {"n": 2, "counts": [1, 9, 2]})
    res = runner.invoke(cli, ["chern", "--profile", path])
    assert res.exit_code == 2
    assert "symmetry violation" in res.output


def test_chern_malformed_exits_2(runner, tmp_path):
    path = _write_profile(tmp_path, {"n": 2, "counts": [1, 10]})
    res = runner.invoke(cli, ["chern", "--profile", path])
    assert res.exit_code == 2
    assert "length" in res.output


@pytest.mark.parametrize(
    "payload", [b"{not json", b"\xff\xfe{", b"[" * 100000], ids=["syntax", "not-utf8", "deep"]
)
def test_chern_bad_json_exits_2(runner, tmp_path, payload):
    path = tmp_path / "profile.json"
    path.write_bytes(payload)
    res = runner.invoke(cli, ["chern", "--profile", str(path)])
    assert res.exit_code == 2


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no digit limit on int parsing")
def test_chern_integer_past_digit_limit_exits_2(runner, tmp_path):
    path = tmp_path / "profile.json"
    path.write_bytes(b'{"n": 2, "counts": [1, ' + b"9" * 5000 + b", 1]}")
    res = runner.invoke(cli, ["chern", "--profile", str(path)])
    assert res.exit_code == 2
    assert "profile is not valid JSON: " in res.output


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="this Python prints ints of any length")
def test_chern_result_past_digit_limit_exits_2(runner, tmp_path):
    # Each count parses, but c1*c(n-1) = 10c - 1 and the total 2c + 1 have one
    # digit more than Python prints.
    count = int("9" * sys.get_int_max_str_digits())
    path = _write_profile(tmp_path, {"n": 2, "counts": [count, 1, count]})
    res = runner.invoke(cli, ["chern", "--profile", path])
    assert res.exit_code == 2
    assert "result is too long to print: " in res.output
    assert "Traceback" not in res.output and isinstance(res.exception, SystemExit)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="this Python prints ints of any length")
@pytest.mark.parametrize("command", ["bound", "divisibility", "witness"])
def test_dimension_past_digit_limit_exits_2(runner, command):
    # N itself parses, but 2N has one digit more than Python prints.
    limit = sys.get_int_max_str_digits()
    res = runner.invoke(cli, [command, "5" + "0" * (limit - 1)])
    assert res.exit_code == 2
    assert f"dimension 2n is too long to print: Exceeds the limit ({limit} digits)" in res.output


def test_witness_command(runner):
    res = runner.invoke(cli, ["witness", "3"])
    assert res.exit_code == 0
    assert "profile = [0, 1, 1, 0]" in res.output
    assert "total = 2" in res.output
    assert "c1*c(n-1)[M] = 0" in res.output


def test_witness_json(runner):
    res = runner.invoke(cli, ["witness", "6", "--format", "json"])
    payload = json.loads(res.output)
    assert payload["total"] == 4
    assert payload["c1cn1"] == 0


def test_bound_witness_checks_the_closed_form(runner, monkeypatch):
    # A closed form that disagrees with the l-search's witness exits 1.
    monkeypatch.setattr("fpbounds.cli.closed_form_bound",
                        lambda n: dataclasses.replace(closed_form_bound(n), value=5))
    assert runner.invoke(cli, ["bound", "6"]).exit_code == 0  # no witness, no check
    res = runner.invoke(cli, ["bound", "6", "--witness"])
    assert res.exit_code == 1
    assert "witness of n = 6: total or c1*c(n-1) disagrees with 5" in res.output


def test_bound_witness_checks_the_chern_sum(runner, monkeypatch):
    # Four fixed points, the bound of n = 6, but c1*c(n-1) = 204.
    monkeypatch.setattr("fpbounds.cli._sparse_witness", lambda n: [(0, 2), (6, 2)])
    res = runner.invoke(cli, ["bound", "6", "--witness"])
    assert res.exit_code == 1
    assert "witness of n = 6: total or c1*c(n-1) disagrees with 4" in res.output


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_witness_checks_the_chern_sum(runner, monkeypatch, fmt):
    monkeypatch.setattr("fpbounds.cli._sparse_witness", lambda n: [(0, 1), (10, 1)])
    res = runner.invoke(cli, ["witness", "10", "--format", fmt])
    assert res.exit_code == 1
    assert res.output == "Error: witness of n = 10: c1*c(n-1)[M] = 290, not 0\n"


def test_divisibility_command(runner):
    res = runner.invoke(cli, ["divisibility", "10"])
    assert res.exit_code == 0
    assert "gcd modulus = 12" in res.output
    assert "hirzebruch modulus = 4" in res.output
    assert "refined modulus = 12" in res.output


def test_divisibility_c1_zero(runner):
    res = runner.invoke(cli, ["divisibility", "10", "--c1-zero", "--format", "json"])
    assert json.loads(res.output)["modulus_refined"] == 24


def test_verify_small_run_passes(runner):
    res = runner.invoke(cli, ["verify", "--max-m", "30", "--lattice-max-n", "12"])
    assert res.exit_code == 0
    assert "RESULT PASS" in res.output
    assert "warning: full even-case coverage needs --max-m >= 504" in res.output


def test_verify_lattice_reaches_l7(runner):
    # n = 1008 is the first even n with l = 7; the lattice check has no box guard.
    res = runner.invoke(cli, ["verify", "--max-m", "1", "--lattice-max-n", "1008"])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert (
        "ok: lattice enumeration (cap 48) matches closed form and the divisibility rule "
        "for n = 2..1008"
    ) in lines
    assert lines[-1] == "RESULT PASS"


def test_verify_rejects_max_m_0(runner):
    res = runner.invoke(cli, ["verify", "--max-m", "0"])
    assert res.exit_code == 2


def test_min_fixed_points_matches_cli_c1_zero(runner):
    for n in (2, 9, 10):
        res = runner.invoke(cli, ["bound", str(n), "--c1-zero", "--format", "json"])
        assert json.loads(res.output)["value"] == min_fixed_points(n, True)


def test_verify_golden_output(runner):
    res = runner.invoke(cli, ["verify", "--max-m", "504", "--lattice-max-n", "53"])
    assert res.exit_code == 0
    assert res.output == (GOLDEN / "verify_max_m_504_lattice_53.txt").read_text()


def _modulus_5_at_17(n):
    return 5 if n == 17 else divisibility_modulus(n)


def _minimum_dropped_at_17(n, value_cap):
    objectives = _lattice_objectives(n, value_cap)
    return objectives[1:] if n == 17 else objectives


# n = 17 is past the summary table's n <= 15, so only the lattice check sees it.
@pytest.mark.parametrize(
    "name,fake,detail",
    [
        (
            "divisibility_modulus", _modulus_5_at_17,
            "n=17: objectives [24, 48] not divisible by 5",
        ),
        ("_lattice_objectives", _minimum_dropped_at_17, "n=17: closed-form=24, lattice=48"),
    ],
    ids=["modulus", "minimum"],
)
def test_verify_reports_lattice_failure(runner, monkeypatch, name, fake, detail):
    monkeypatch.setattr(f"fpbounds.verify.{name}", fake)
    res = runner.invoke(cli, ["verify", "--max-m", "30", "--lattice-max-n", "20"])
    assert res.exit_code == 1
    lines = res.output.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        f"FAIL: lattice enumeration: {detail}"
    ]
    assert not any(line.startswith("ok: lattice enumeration") for line in lines)
    assert lines[-1] == "RESULT FAIL"


def _minimum_dropped_at_1008(n, value_cap):
    objectives = _lattice_objectives(n, value_cap)
    return objectives[1:] if n == 1008 else objectives


def test_verify_reports_lattice_failure_past_n_53(runner, monkeypatch):
    monkeypatch.setattr("fpbounds.verify._lattice_objectives", _minimum_dropped_at_1008)
    res = runner.invoke(cli, ["verify", "--max-m", "1", "--lattice-max-n", "1008"])
    assert res.exit_code == 1
    lines = res.output.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL: lattice enumeration: n=1008: closed-form=7, lattice=8"
    ]
    assert lines[-1] == "RESULT FAIL"


def _minimum_doubled_at(parity, at_m):
    """A stand-in for the sparse l-search that `verify` calls, doubling the
    minimum for one m of one parity."""
    def l_search(m, p):
        solution = _l_search(m, p)
        if (p, m) == (parity, at_m):
            return solution._replace(minimum=2 * solution.minimum)
        return solution
    return l_search


def _assert_lsearch_failure(runner, monkeypatch, parity, at_m, expected):
    monkeypatch.setattr("fpbounds.verify._l_search", _minimum_doubled_at(parity, at_m))
    res = runner.invoke(cli, ["verify", "--max-m", "30", "--lattice-max-n", "20"])
    assert res.exit_code == 1
    lines = res.output.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [expected]
    assert not any(line.startswith(f"ok: closed form vs l-search ({parity.value})") for line in lines)
    assert lines[-1] == "RESULT FAIL"


def test_verify_reports_lsearch_failure(runner, monkeypatch):
    _assert_lsearch_failure(
        runner, monkeypatch, Parity.ODD, 8,
        "FAIL: closed form vs l-search (odd): n=17: closed-form=24, l-search=48 (l=1)",
    )


def test_verify_reports_lsearch_failure_even(runner, monkeypatch):
    _assert_lsearch_failure(
        runner, monkeypatch, Parity.EVEN, 10,
        "FAIL: closed form vs l-search (even): n=20: closed-form=6, l-search=12 (l=1)",
    )


def test_verify_default_golden_output(runner):
    # The defaults (--max-m 200 --lattice-max-n 30) are the only golden report
    # with the missing-branches and warning lines.
    res = runner.invoke(cli, ["verify"])
    assert res.exit_code == 0
    assert res.output == (GOLDEN / "verify_default.txt").read_text()


def _branch_x_at_1008_and_99(n):
    res = closed_form_bound(n)
    return dataclasses.replace(res, branch="x") if n in (1008, 99) else res


def _rules_with_modulus_5_at_residue_5():
    r, tests, default, _, c1_mod = _RULES[5]
    return _RULES[:5] + ((r, tests, default, 5, c1_mod),) + _RULES[6:]


# Neither n = 1008 nor n = 99 is swept at --max-m 30, and the lattice check stops
# below n = 5 in the summary case, so each fake reaches only the table it targets.
@pytest.mark.parametrize(
    "name,fake,lattice_max_n,expected",
    [
        (
            "fpbounds.verify.closed_form_bound", _branch_x_at_1008_and_99, "20",
            [
                "FAIL: even case table: n=1008: expected (504,12,7,even/r=12/legendre-fails), "
                "got (504,12,7,x)",
                "FAIL: odd case table: n=99: expected (49,12,6,odd/r=12/non-Euler), "
                "got (49,12,6,x)",
            ],
        ),
        (
            "fpbounds.bounds._RULES", _rules_with_modulus_5_at_residue_5(), "4",
            [
                "FAIL: summary table dims 4..30: dim=10: expected (24, 24, 3, 6), "
                "got (24, 5, 3, 6)",
            ],
        ),
    ],
    ids=["case-tables", "summary"],
)
def test_verify_reports_table_failure(runner, monkeypatch, name, fake, lattice_max_n, expected):
    monkeypatch.setattr(name, fake)
    res = runner.invoke(cli, ["verify", "--max-m", "30", "--lattice-max-n", lattice_max_n])
    assert res.exit_code == 1
    lines = res.output.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == expected
    assert lines[-1] == "RESULT FAIL"


def _minimum_dropped_from_14(n, value_cap):
    objectives = _lattice_objectives(n, value_cap)
    return objectives[1:] if n >= 14 else objectives


def test_verify_reports_two_failures_truncated(runner, monkeypatch):
    # Every ok line comes first, then one FAIL line per failing check with its
    # first 5 mismatches (the lattice check has 7 here).
    monkeypatch.setattr("fpbounds.verify._l_search", _minimum_doubled_at(Parity.EVEN, 10))
    monkeypatch.setattr("fpbounds.verify._lattice_objectives", _minimum_dropped_from_14)
    res = runner.invoke(cli, ["verify", "--max-m", "30", "--lattice-max-n", "20"])
    assert res.exit_code == 1
    assert res.output.splitlines() == [
        "ok: closed form vs l-search agrees for odd n = 3..61",
        "ok: even case table reproduced (17 rows)",
        "ok: odd case table reproduced (5 rows)",
        "ok: summary table reproduced for dims 4..30",
        "FAIL: closed form vs l-search (even): n=20: closed-form=6, l-search=12 (l=1)",
        "FAIL: lattice enumeration: n=14: closed-form=12, lattice=24; "
        "n=15: closed-form=4, lattice=8; n=16: closed-form=6, lattice=9; "
        "n=17: closed-form=24, lattice=48; n=18: closed-form=8, lattice=12",
        "branch coverage: 20/27 cases exercised",
        "missing branches: even/r=12/legendre-fails, even/r=12/legendre-ok, "
        "even/r=12/n-2-square, even/r=4/legendre-fails, even/r=6/28-mod-32, "
        "odd/r=12/non-Euler, odd/r=6/non-Euler",
        "warning: full even-case coverage needs --max-m >= 504",
        "RESULT FAIL",
    ]


@st.composite
def sparse_int_lists(draw):
    """Mostly zeros, as a witness profile is, with a few entries anywhere."""
    size = draw(st.integers(0, 40))
    values = [0] * size
    if size:
        nonzero = st.one_of(st.integers(1, 9), st.integers(10**6, 10**20), st.integers(-10**6, -1))
        for i in draw(st.lists(st.integers(0, size - 1), max_size=4)):
            values[i] = draw(nonzero)
    return values


json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=8))


@given(st.dictionaries(st.text(max_size=8), st.one_of(json_scalars, sparse_int_lists()),
                       min_size=1, max_size=6))
@example({"counts": []})
@example({"counts": [0]})
@example({"counts": [7]})
@example({"counts": [0, 0, 0, 0]})
@example({"n": 5, "counts": [0, 0, 3, 0, 0], "total": 3})
@example({"counts": [1, 0, 0, 10**6], "branch": "even/r=1"})
def test_render_json_matches_stdlib(payload):
    sparse = {k: (len(v), _entries(v)) if isinstance(v, list) and v else v
              for k, v in payload.items()}
    assert _render_json(sparse) == json.dumps(payload, indent=2)


@pytest.mark.parametrize(
    "args",
    [["witness"], ["bound", "--witness"], ["bound", "--c1-zero", "--witness"], ["bound"],
     ["divisibility"], ["divisibility", "--c1-zero"]],
    ids=["witness", "bound-witness", "bound-c1-zero-witness", "bound",
         "divisibility", "divisibility-c1-zero"],
)
def test_json_output_is_stdlib_indent_2(runner, args):
    for n in [*range(2, 80), 1008, 10001, 123457]:
        res = runner.invoke(cli, [*args, str(n), "--format", "json"])
        assert res.exit_code == 0
        assert res.output == json.dumps(json.loads(res.output), indent=2) + "\n", n


def _entries(dense):
    return [(i, c) for i, c in enumerate(dense) if c]


@pytest.mark.parametrize(
    "dense",
    [[5, 0, 0, 0], [0, 0, 0, 5], [0, 3, 4, 0, 0], [7], [0], [1, 2, 3], [0, 10**20, 0, -4, 0]],
    ids=["first", "last", "adjacent", "length-1", "length-1-zero", "all-nonzero", "big-negative"],
)
def test_sparse_list_renders_as_dense(dense):
    sparse = (len(dense), _entries(dense))
    assert _render_json({"n": 1, "counts": sparse}) == json.dumps({"n": 1, "counts": dense}, indent=2)
    assert "".join(_int_list(*sparse, "[", ", ", "]")) == str(dense)


@given(sparse_int_lists().filter(bool))
def test_sparse_list_renders_as_dense_property(dense):
    sparse = (len(dense), _entries(dense))
    assert _render_json({"counts": sparse, "total": 1}) == json.dumps(
        {"counts": dense, "total": 1}, indent=2
    )
    assert "".join(_int_list(*sparse, "[", ", ", "]")) == str(dense)


@pytest.mark.parametrize("n", [2, 10, 1010])
def test_c1_zero_scaled_witness_renders_as_dense(n):
    payload = _bound_payload(n, True, True)
    scale = payload["value"] // closed_form_bound(n).value
    assert scale > 1
    dense = [scale * c for c in witness_full_profile(n).counts]
    assert payload["witness"] == (len(dense), _entries(dense))
    expected = dict(payload, witness=dense)
    assert _render_json(payload) == json.dumps(expected, indent=2)
    assert "".join(_int_list(*payload["witness"], "[", ", ", "]")) == str(dense)


@pytest.mark.parametrize(
    "args",
    [["witness"], ["bound", "--witness"], ["bound", "--c1-zero", "--witness"]],
    ids=["witness", "bound-witness", "bound-c1-zero-witness"],
)
def test_text_output_is_str_of_the_dense_list(runner, args):
    label = "profile" if args[0] == "witness" else "witness"
    for n in [*range(2, 80), 1008, 10001, 123457]:
        dense = list(witness_full_profile(n).counts)
        if "--c1-zero" in args:
            base = closed_form_bound(n)
            dense = [base.value_for(True) // base.value * c for c in dense]
        res = runner.invoke(cli, [*args, str(n)])
        assert res.exit_code == 0
        assert f"{label} = {dense}" in res.output.splitlines(), n


_TEXT_GOLDEN = {
    command: output
    for command, _, output in (
        block.partition("\n")
        for block in (GOLDEN / "single_n_text.txt").read_text().split("$ fpbounds ")[1:]
    )
}


@pytest.mark.parametrize("command", list(_TEXT_GOLDEN))
def test_single_n_text_golden(runner, command):
    res = runner.invoke(cli, command.split())
    assert res.exit_code == 0
    assert res.output == _TEXT_GOLDEN[command]


# The text label of each JSON key; `divisibility` prints no line for `c1_zero`.
_TEXT_LABELS = {
    "bound": {"value": "bound", "branch": "branch", "m": "m", "r": "r", "l": "l",
              "witness": "witness", "witness_total": "witness total"},
    "divisibility": {"modulus_gcd": "gcd modulus", "modulus_hirzebruch": "hirzebruch modulus",
                     "modulus_refined": "refined modulus"},
    "witness": {"counts": "profile", "total": "total", "c1cn1": "c1*c(n-1)[M]"},
}


@pytest.mark.parametrize(
    "args",
    [["bound"], ["bound", "--c1-zero"], ["bound", "--witness"], ["bound", "--c1-zero", "--witness"],
     ["divisibility"], ["divisibility", "--c1-zero"], ["witness"]],
    ids=["bound", "bound-c1-zero", "bound-witness", "bound-c1-zero-witness",
         "divisibility", "divisibility-c1-zero", "witness"],
)
@given(n=st.integers(2, 3000))
def test_text_lines_are_the_json_fields(args, n):
    runner = CliRunner()
    data = json.loads(runner.invoke(cli, [*args, str(n), "--format", "json"]).output)
    text = runner.invoke(cli, [*args, str(n)])
    assert text.exit_code == 0
    labels = _TEXT_LABELS[args[0]]
    unlabelled = ["n", "dim", "c1_zero"] if args[0] == "divisibility" else ["n", "dim"]
    assert [key for key in data if key not in labels] == unlabelled
    assert text.output.splitlines() == [f"n = {n} (dim {2 * n})"] + [
        f"{labels[key]} = {value}" for key, value in data.items() if key in labels
    ]
