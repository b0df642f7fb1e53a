import contextlib
import csv
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altcausal import absorber, cli, photonclock, piflink, process, qcore
from altcausal.cli import _EXPERIMENTS, _config, build_parser, main, write_json

BENCH = Path(__file__).resolve().parents[1] / "bench"

# a quick size for each experiment; test_golden_reports.py pins the reports at each
FAST_ARGS = {
    "duality": ["--points", "9"],
    "switch": ["--points", "5"],
    "ac-vs-ico": ["--steps", "4"],
    "photonclock": ["--bounces", "8"],
    "cascade": ["--sites", "3", "--horizon", "9"],
    "wfecho": [],
    "pif": ["--slices", "50"],
    "fito-vs-pif": ["--slices", "50"],
    "capacity": ["--n-bits", "2000"],
    "rcp": ["--points", "9"],
    "list": [],
}


def test_no_command_prints_help_and_exits_two(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out


def test_unknown_experiment_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_domain_input_exits_one(capsys):
    assert main(["cascade", "--sites", "40"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_format_exits_one(tmp_path, capsys):
    assert main(["wfecho", "--format", "bogus", "--out", str(tmp_path)]) == 1
    assert "unknown output format" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--format", "bogus", "--out", "d"], "unknown output format"),
    (["--json", "a.json", "--format", "json,bogus", "--out", "d"], "unknown output format"),
    (["--csv", "a.csv", "--out", "d"], "--out needs --format"),
    (["--out", "d"], "--out needs --format"),
    (["--json", "a.json", "--format", "json", "--out", "missing"], "does not exist"),
    (["--json", "a.json", "--csv", "missing/x.csv"], "does not exist"),
    (["--svg", "d/missing/x.svg", "--json", "-"], "does not exist"),
    (["--json", "-", "--csv", "-"], "two outputs write to '-'"),
    (["--json", "x.json", "--csv", "x.json"], "two outputs write to"),
    (["--json", "d/../wfecho.json", "--format", "json"], "two outputs write to"),
    (["--json", "d/stdout.txt", "--csv", "-"], "two outputs write to stdout"),
    (["--json", ""], "--json needs a value"),
    (["--csv", ""], "--csv needs a value"),
    (["--svg", "", "--json", "-"], "--svg needs a value"),
    (["--config", ""], "--config needs a value"),
    (["--format", ""], "--format needs a value"),
    (["--out", ""], "--out needs a value"),
    (["--out", "", "--format", "json"], "--out needs a value"),
    (["--json", "a.json", "--format", "json", "--out", "d/stdout.txt"],
     "output directory 'd/stdout.txt' is not a directory"),
    (["--csv", "d/stdout.txt/x.csv"], "output directory 'd/stdout.txt' is not a directory"),
    (["--csv", "y.csv", "--svg", "d"], "output 'd' is a directory"),
    (["--json", "d/"], "output 'd/' is a directory"),
    (["--format", "json", "--out", "d", "--csv", "."], "output '.' is a directory"),
])
def test_bad_output_target_exits_one_before_the_run(args, message, monkeypatch, tmp_path,
                                                    capsys):
    def refuse(cfg):
        raise AssertionError("the experiment ran")

    monkeypatch.setitem(_EXPERIMENTS, "wfecho", _EXPERIMENTS["wfecho"]._replace(run=refuse))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    # stdout is a file with a descriptor, so it can also be named as a target
    with open(tmp_path / "d" / "stdout.txt", "w") as stdout, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", stdout)
        assert main(["wfecho", *args]) == 1
    assert message in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == [tmp_path / "d", tmp_path / "d" / "stdout.txt"]
    assert (tmp_path / "d" / "stdout.txt").read_text() == ""


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_stdout_named_twice_is_refused_in_a_shell_redirect(tmp_path):
    # `wfecho --json /dev/stdout --csv - > out.txt` would write both reports at offset 0
    out = tmp_path / "out.txt"
    with open(out, "w") as stdout:
        proc = subprocess.run([sys.executable, "-m", "altcausal.cli", "wfecho",
                               "--json", "/dev/stdout", "--csv", "-"],
                              stdout=stdout, stderr=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 1
    assert "two outputs write to stdout" in proc.stderr
    assert out.read_text() == ""


def test_two_hard_links_to_one_file_are_refused(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.json").write_text("")
    os.link(tmp_path / "a.json", tmp_path / "b.csv")
    assert main(["wfecho", "--json", "a.json", "--csv", "b.csv"]) == 1
    assert capsys.readouterr().err == \
        "error: two outputs write to one file: 'a.json' and 'b.csv'\n"
    assert (tmp_path / "a.json").read_text() == ""


@pytest.mark.parametrize("fmt", ["json", "csv", "svg"])
def test_dash_writes_every_format_to_stdout(fmt, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["wfecho", "--format", fmt]) == 0
    written = (tmp_path / f"wfecho.{fmt}").read_bytes().decode()
    capsys.readouterr()
    (tmp_path / f"wfecho.{fmt}").unlink()
    assert main(["wfecho", f"--{fmt}", "-"]) == 0
    out = capsys.readouterr().out
    assert out == written               # the report only: no summary
    assert list(tmp_path.iterdir()) == []


def test_main_writes_through_the_module_writer(monkeypatch, tmp_path):
    paths = []
    monkeypatch.setattr(cli, "write_json", lambda report, path: paths.append(path))
    assert main(["wfecho", "--json", str(tmp_path / "a.json"),
                 "--format", "json", "--out", str(tmp_path)]) == 0
    assert paths == [str(tmp_path / "a.json"), str(tmp_path / "wfecho.json")]
    assert list(tmp_path.iterdir()) == []


def _reference_jsonable(value):
    """The former conversion pass of write_json, kept as the oracle of its bytes."""
    if isinstance(value, dict):
        return {str(k): _reference_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, range, np.ndarray)):
        return [_reference_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if value is None or isinstance(value, str):
        return value
    return str(value)


def _foreign(value, where="report", series_value=False):
    """Where ``value`` holds anything but exact builtin JSON types and str keys;
    a ``series`` value may also be a range or a 1-D int64 or float64 numpy column."""
    if series_value and (type(value) is range or type(value) is np.ndarray and value.ndim == 1
                         and value.dtype in (np.int64, np.float64)):
        return []
    if type(value) is dict:
        found = [f"{where} key {k!r}" for k in value if type(k) is not str]
        for k, v in value.items():
            found += _foreign(v, f"{where}[{k!r}]", where == "report['series']")
        return found
    if type(value) in (list, tuple):
        return [f for i, v in enumerate(value) for f in _foreign(v, f"{where}[{i}]")]
    if value is None or type(value) in (str, int, float, bool):
        return []
    return [f"{where}: {type(value).__name__}"]


REPORT_CASES = [[name] for name in FAST_ARGS] + [
    ["duality", "--skew", "1e-3"],
    ["duality", "--dim", "3"],
    ["rcp", "--epsilon", "0"],
    ["capacity", "--flip-backward", "0.2"],
    ["switch", "--case", "commute"],
    ["pif", "--slices", "3000", "--echo-loss", "0.1"],
]


@pytest.mark.parametrize("args", REPORT_CASES, ids=" ".join)
def test_reports_reach_the_writer_as_plain_json(args, monkeypatch, tmp_path):
    reports = []
    monkeypatch.setattr(cli, "write_json", lambda verdict, path: reports.append(verdict.report))
    assert main([*args, "--json", "-"]) == 0
    report, = reports
    assert _foreign(report) == []
    out = tmp_path / "r.json"
    write_json(report, str(out))
    _assert_same_bytes(out.read_bytes(), _reference_json(report))


def _reference_json(report) -> str:
    return json.dumps(_reference_jsonable(report), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _written(report, writer=write_json) -> str:
    """What ``writer`` sends to stdout for ``report``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        writer(report, "-")
    return buf.getvalue()


def _assert_same_bytes(written, expected, what="") -> None:
    """Assert that two texts (str or bytes) are equal, by length and sha256.

    pytest's own diff of two large texts takes minutes: on a mismatch this
    names the first differing byte and shows about 80 bytes around it.
    """
    written, expected = (t.encode() if isinstance(t, str) else t for t in (written, expected))
    if (len(written), hashlib.sha256(written).digest()) != \
            (len(expected), hashlib.sha256(expected).digest()):
        at = next((i for i, (a, b) in enumerate(zip(written, expected)) if a != b),
                  min(len(written), len(expected)))
        around = slice(max(at - 40, 0), at + 40)
        pytest.fail(f"{what}{len(written)} bytes written, {len(expected)} expected, first "
                    f"differing at byte {at}:\n  written  {written[around]!r}\n"
                    f"  expected {expected[around]!r}")


LINK_REPORTS = [
    ["pif", "--slices", "100000", "--flip-forward", "0.01", "--flip-backward", "0.01",
     "--echo-loss", "0.01"],
    ["fito-vs-pif", "--slices", "100000"],
]


@pytest.mark.parametrize("args", LINK_REPORTS, ids=lambda a: a[0])
def test_benchmark_size_link_reports_match_the_reference_bytes(args, request, tmp_path):
    # each report is built once; test_stdout_takes_the_pieces_as_the_writer_built_them
    # covers the stdout branch
    report = (request.getfixturevalue("pif_report") if args is LINK_REPORTS[0]
              else _report_of([*args, "--json", "-"], "write_json"))
    out = tmp_path / "r.json"
    write_json(report, str(out))
    _assert_same_bytes(out.read_bytes(), _reference_json(report))


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-7, 1e16, 1e22,
                -1e16, 0.1, 1.5, 1 / 3, sys.float_info.max]
_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)
_ints = st.integers() | st.sampled_from([0, -1, 2 ** 63, 2 ** 70, -(2 ** 70)])
_repeated_floats = st.lists(_floats, min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=300))


@settings(max_examples=200, deadline=None)
@given(st.lists(_floats, max_size=60) | _repeated_floats | st.lists(_ints, max_size=60)
       | st.lists(_floats | _ints, max_size=60))
def test_series_lists_are_written_as_the_reference(values):
    report = {"experiment": "x", "metrics": {"n": len(values)},
              "series": {"values": values, "index": list(range(len(values)))}}
    _assert_same_bytes(_written(report), _reference_json(report))
    _assert_same_bytes(_written(report, cli.write_csv), _reference_csv(report))
    # the same values as a numpy column, where one holds them, with a range for the index
    kinds = set(map(type, values))
    if kinds <= {float} or kinds == {int} and all(-2 ** 63 <= v < 2 ** 63 for v in values):
        column = np.array(values, dtype=np.int64 if kinds == {int} else np.float64)
        as_columns = {**report, "series": {"values": column, "index": range(len(values))}}
        _assert_same_bytes(_written(as_columns), _reference_json(report))
        _assert_same_bytes(_written(as_columns, cli.write_csv), _reference_csv(report))
    # CSV refuses NaN and infinity after any of them, as JSON and SVG do
    for bad in (math.nan, math.inf, -math.inf):
        report = {"series": {"values": values + [bad], "index": range(len(values) + 1)}}
        with pytest.raises(ValueError, match=f"^{CONTRACT}{bad!r}$"):
            _written(report, cli.write_csv)


SERIES_EDGES = {
    "empty": [], "one float": [0.5], "one int": [7],
    "both zeros repeated": [0.0, -0.0] * 50, "negative zeros": [-0.0] * 100,
    "one negative zero": [1.0] * 99 + [-0.0],
    # the prefix is the first block the writer reads
    "distinct prefix, repeated rest": [i / 7 for i in range(cli._CSV_ROWS)] + [0.5, 1.5] * 5000,
    "repeated prefix, distinct rest": [0.25] * cli._CSV_ROWS + [i / 7 for i in range(9000)],
    "distinct prefix, repeated rest with a negative zero":
        [i / 7 for i in range(cli._CSV_ROWS)] + [0.0, -0.0, 2.0] * 3000,
    "repeated prefix, mostly distinct rest with a negative zero":
        [-0.0, 0.0] * (cli._CSV_ROWS // 2) + [i / 7 for i in range(9000)],
    "tuple": (1.0, 2.0),
}


@pytest.mark.parametrize("values", SERIES_EDGES.values(), ids=SERIES_EDGES)
def test_series_edge_cases_are_written_as_the_reference(values):
    report = {"series": {"values": values, "other": [2.0] * 10}, "metrics": {}}
    _assert_same_bytes(_written(report), _reference_json(report))


@pytest.mark.parametrize("key", ['quote " back \\ tab \t', "café →", "\x000",
                                 '"\x000'])
def test_series_keys_and_strings_that_need_escaping(key):
    # a string of the report's own starting with NUL must not be taken for a slot
    report = {"experiment": key, "metrics": {key: "\x001"},
              "series": {key: [0.25] * 10, "cycle": [1, 2, 3]}}
    _assert_same_bytes(_written(report), _reference_json(report))


REPORT_SHAPES = {
    "series {} nested under metrics": {"metrics": {"series": {}}, "series": {"y": [1.0, 2.5]}},
    "a top-level key after series": {"experiment": "x", "series": {"y": [3, 4]},
                                     "zeta": [{"k": 1.5}]},
    "a string holding the series line": {"note": '\n  "series": {}',
                                          "series": {"y": [0.25, 0.75]}},
    "series the only key": {"series": {"b": [2.0] * 5, "a": [1, 2]}},
    "empty series": {"experiment": "x", "series": {}},
}


@pytest.mark.parametrize("report", REPORT_SHAPES.values(), ids=REPORT_SHAPES)
def test_report_shapes_around_the_series_are_written_as_the_reference(report):
    # the series entries are spliced into the one top-level "series" line
    _assert_same_bytes(_written(report), _reference_json(report))


NOT_INTS_OR_FLOATS = {
    "bools": [True, False, True], "strings": ["a", "b"], "nested": [[1.0, 2.0], [3.0]],
    "with None": [1, 2.5, None], "a bool in the second block": [0.5] * cli._CSV_ROWS + [True],
}


@pytest.mark.parametrize("values", NOT_INTS_OR_FLOATS.values(), ids=NOT_INTS_OR_FLOATS)
def test_a_series_of_anything_but_ints_and_floats_is_refused(values, monkeypatch, tmp_path,
                                                             capsys):
    _assert_every_writer_refuses({"t": range(len(values)), "y": values},
                                 monkeypatch=monkeypatch, tmp_path=tmp_path, capsys=capsys)


CONTRACT = "a series holds only ints and finite floats, not "
COLUMN = "must be a list, tuple, range or numpy column, not "
NOT_A_DICT_OF_COLUMNS = {
    "a list": ([[0, 1], [1.0, 2.0]], "series must be a dict, not list"),
    "a tuple": (((0, 1.0),), "series must be a dict, not tuple"),
    "an int key": ({"t": [0], 1: [1.0]}, "a series key must be a str, not 1"),
    "a None key": ({None: [1.0], "t": [0]}, "a series key must be a str, not None"),
    "a tuple key": ({"t": [0], ("a",): [1.0]}, "a series key must be a str, not ('a',)"),
    "a None value": ({"t": [0], "y": None}, f"series 'y' {COLUMN}NoneType"),
    "a number": ({"t": [0], "y": 1.5}, f"series 'y' {COLUMN}float"),
    "a 0-d array": ({"t": np.array(0.5), "y": [1.0]}, f"series 't' {COLUMN}ndarray"),
    "a numpy scalar": ({"t": [0], "y": np.float64(1.0)}, f"series 'y' {COLUMN}float64"),
    "a dict": ({"t": [0], "y": {"a": 1.0}}, f"series 'y' {COLUMN}dict"),
    "a generator": ({"t": [0], "y": (v for v in [1.0])}, f"series 'y' {COLUMN}generator"),
    "bytes": ({"t": [0, 1], "y": b"ab"}, f"series 'y' {COLUMN}bytes"),
}


@pytest.mark.parametrize("series, message", NOT_A_DICT_OF_COLUMNS.values(),
                         ids=NOT_A_DICT_OF_COLUMNS)
def test_a_series_that_is_not_a_dict_of_str_keys_to_columns_is_refused(series, message,
                                                                       monkeypatch, tmp_path,
                                                                       capsys):
    # README's shape of a report's series; a writer given the report refuses it too
    for writer in (write_json, cli.write_csv, cli.write_svg):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            writer({"series": series}, str(tmp_path / "r"))
    _assert_every_writer_refuses(series, message, monkeypatch=monkeypatch, tmp_path=tmp_path,
                                 capsys=capsys)


def _breaks_the_contract(series) -> bool:
    """Whether ``series`` holds NaN or infinity (its other values are ints and floats)."""
    return any(type(v) is float and not math.isfinite(v) for vs in series.values() for v in vs)


def _assert_every_writer_refuses(series, message=CONTRACT, *, monkeypatch, tmp_path, capsys):
    """A series refusal, the same for every writer: the one check of a
    report refuses ``series`` with ``message…`` ahead of any plot refusal,
    and a run whose report holds it exits 1 with that one ``error:`` line,
    an empty stdout and no file, whatever its targets."""
    with pytest.raises(ValueError, match=re.escape(message)) as refused:
        cli._check_report({"series": series}, svg=True)
    message = str(refused.value)
    _assert_refused_in_one_line(series, message, ["--json", "r.json"], ["--json", "-"],
                                ["--csv", "r.csv"], ["--csv", "-"], ["--svg", "r.svg"],
                                ["--svg", "-"], ["--format", "svg,csv,json"],
                                monkeypatch=monkeypatch, tmp_path=tmp_path, capsys=capsys)


def _assert_refused_in_one_line(series, message, *targets, monkeypatch, tmp_path, capsys):
    """A run whose report holds ``series`` exits 1 for each of ``targets``,
    with one ``error: message…`` line and nothing written."""
    monkeypatch.setitem(_EXPERIMENTS, "wfecho", _EXPERIMENTS["wfecho"]._replace(
        run=lambda cfg: ({}, series, [])))
    monkeypatch.chdir(tmp_path)
    for target in targets:
        assert main(["wfecho", *target]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: " + message)
        assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("series", [{"t": [], "y": [0.5, 1.5]},
                                    {"t": range(3), "y": [], "z": np.array([])}],
                         ids=["empty x", "every y empty"])
def test_an_svg_plot_with_an_empty_axis_is_refused(series, monkeypatch, tmp_path, capsys):
    with pytest.raises(ValueError, match="an SVG plot needs at least one value on each axis"):
        cli.write_svg({"series": series}, str(tmp_path / "w"))
    _assert_refused_in_one_line(series, "an SVG plot needs at least one value on each axis",
                                ["--svg", "r.svg"], ["--svg", "-"], ["--format", "svg"],
                                monkeypatch=monkeypatch, tmp_path=tmp_path, capsys=capsys)


@pytest.mark.parametrize("series", [{"t": [0, 1], "y": [10**400, 1]},
                                    {"t": [0, -10**400], "y": [0.5, 1.5]},
                                    {"t": [0, 1, 2], "y": [math.nan, 10**400, 1]},
                                    # the contract is checked before the plot's x axis
                                    {"t": [0, 10**400], "y": [math.nan, 1.0]}],
                         ids=["y", "x", "y after a NaN", "x before a NaN in y"])
def test_an_svg_plot_refuses_an_int_past_the_float_range(series, monkeypatch, tmp_path, capsys):
    if _breaks_the_contract(series):   # the NaN, not the int, is refused, by every writer
        _assert_every_writer_refuses(series, monkeypatch=monkeypatch, tmp_path=tmp_path,
                                     capsys=capsys)
        return
    # JSON and CSV write the int as it is
    report = {"series": series}
    _assert_same_bytes(_written(report), _reference_json(report))
    _assert_same_bytes(_written(report, cli.write_csv), _reference_csv(report))
    with pytest.raises(ValueError, match="an SVG plot needs every value in the float range"):
        cli.write_svg(report, str(tmp_path / "w"))
    _assert_refused_in_one_line(series, "an SVG plot needs every value in the float range",
                                ["--svg", "r.svg"], ["--svg", "-"], ["--format", "svg"],
                                monkeypatch=monkeypatch, tmp_path=tmp_path, capsys=capsys)


def test_a_plot_refusal_leaves_no_file_whatever_the_targets(monkeypatch, tmp_path, capsys):
    # the report is checked for every target before the first is written
    series = {"t": [0, 10**400], "y": [1.0, 2.0]}
    _assert_refused_in_one_line(series, "an SVG plot needs every value in the float range",
                                ["--json", "r.json", "--csv", "r.csv", "--svg", "r.svg"],
                                ["--csv", "-", "--format", "svg,json"],
                                monkeypatch=monkeypatch, tmp_path=tmp_path, capsys=capsys)


def test_main_checks_each_block_once_whatever_the_targets(monkeypatch, tmp_path):
    # a list is checked block by block, once; a float64 column and a range by their type
    n = 2 * cli._CSV_ROWS + 1
    series = {"t": range(n), "y": [i / 7 for i in range(n)], "z": np.arange(n) / 3}
    checked = []
    kinds = cli._block_kinds
    monkeypatch.setattr(cli, "_block_kinds", lambda block: checked.append(block) or kinds(block))
    monkeypatch.setitem(_EXPERIMENTS, "wfecho", _EXPERIMENTS["wfecho"]._replace(
        run=lambda cfg: ({}, series, [])))
    assert main(["wfecho", "--out", str(tmp_path), "--format", "json,csv,svg"]) == 0
    assert checked == list(cli._blocks(series["y"]))


def _column_with(fill, at, bad):
    """A float64 column of ``2 * _CSV_ROWS + 1`` values with ``bad`` at ``at``."""
    n = 2 * cli._CSV_ROWS + 1
    values = np.full(n, 0.5) if fill == "repeated" else np.arange(n) / 7
    values[at] = bad
    return values


# 1-D int64 and float64 columns take their dtype's verdict; the other columns, the
# reference's, through their blocks
COLUMN_CASES = {
    "float64": np.arange(2 * cli._CSV_ROWS + 1) / 7, "empty float64": np.array([]),
    "int64": np.arange(-5, 2 * cli._CSV_ROWS, dtype=np.int64),
    "empty int64": np.array([], dtype=np.int64),
    "float64 view": (np.arange(2 * cli._CSV_ROWS + 2) / 3).reshape(-1, 2)[:, 1],
    "big-endian float64": np.arange(9, dtype=">f8"),
    "bool": np.array([True, False]), "int32": np.arange(9, dtype=np.int32),
    "float32": np.arange(9, dtype=np.float32) / 3,
    "float32 nan": np.array([0.5, np.nan], dtype=np.float32),
    "2-D float64": np.zeros((3, 2)), "2-D int64": np.zeros((3, 2), dtype=np.int64),
    **{f"{fill} float64, {bad} at {at}": _column_with(fill, at, bad)
       for fill in ("repeated", "distinct") for bad in (math.nan, math.inf, -math.inf)
       for at in (0, cli._CSV_ROWS - 1, cli._CSV_ROWS, 2 * cli._CSV_ROWS)},
}


def _verdict(check, values):
    """``check(values)``, or the message it refuses ``values`` with."""
    try:
        return check(values)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("values", COLUMN_CASES.values(), ids=COLUMN_CASES)
def test_a_column_takes_the_verdict_of_its_blocks(values, monkeypatch):
    # _block_kinds over every block is the reference of the column's verdict
    expected = _verdict(lambda v: set().union(*map(cli._block_kinds, cli._blocks(v))) == {float},
                        values)
    read = []
    kinds = cli._block_kinds
    monkeypatch.setattr(cli, "_block_kinds", lambda block: read.append(1) or kinds(block))
    assert _verdict(cli._series_floats, values) == expected
    if values.ndim == 1 and values.dtype.name in ("int64", "float64") and len(values) \
            and type(expected) is bool:
        assert read == []   # by its dtype, not its blocks
    elif len(values):
        assert read


LONG = 100_000


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("values", [
    lambda bad: {"t": list(range(41)), "y": [1.0, bad] * 20},
    lambda bad: {"t": list(range(41)), "y": [float(i) for i in range(40)] + [bad]},
    # several long series, the bad value last in the last one written
    lambda bad: {"t": list(range(LONG)), "a": [0.5] * LONG, "b": [i / 7 for i in range(LONG)],
                 "y": [i / 3 for i in range(LONG - 1)] + [bad]},
    # in a block past the shortest column's last, which CSV does not write
    lambda bad: {"t": [0], "y": [0.5] * cli._CSV_ROWS + [bad]},
], ids=["repeated", "distinct", "long", "past the shortest column"])
def test_series_writer_refuses_non_finite_values(values, bad, monkeypatch, tmp_path, capsys):
    _assert_every_writer_refuses(values(bad), monkeypatch=monkeypatch, tmp_path=tmp_path,
                                 capsys=capsys)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, cli._CSV_ROWS - 1, cli._CSV_ROWS, 2 * cli._CSV_ROWS])
@pytest.mark.parametrize("column", [lambda n: np.full(n, 0.5), lambda n: np.arange(n) / 7],
                         ids=["repeated", "distinct"])
def test_a_non_finite_value_in_a_float_column_is_refused(column, at, bad, monkeypatch, tmp_path,
                                                        capsys):
    values = column(2 * cli._CSV_ROWS + 1)
    values[at] = bad
    _assert_every_writer_refuses({"t": range(len(values)), "y": values},
                                 monkeypatch=monkeypatch, tmp_path=tmp_path, capsys=capsys)


def _reference_csv(report) -> str:
    """The former one-buffer ``write_csv``, kept as the oracle of its bytes;
    numpy columns are read as builtin values, as the writers read them."""
    series = report["series"]
    keys = sorted(series)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(keys)
    writer.writerows(zip(*(_reference_jsonable(series[k]) for k in keys)))
    return buf.getvalue()


@pytest.mark.parametrize("rows", [0, 1, cli._CSV_ROWS - 2, cli._CSV_ROWS - 1, cli._CSV_ROWS,
                                  2 * cli._CSV_ROWS + 1])
def test_csv_pieces_match_one_buffer_across_block_boundaries(rows, tmp_path, capsys):
    # -0.0 sits beside 0.0 in the first block only, so the later blocks of "zeros"
    # are rendered from one repr per distinct value
    series = {"t": range(rows), "n": np.arange(rows, dtype=np.int64) * -3,
              "zeros": [0.25 if i % 2 else -0.0 if i < cli._CSV_ROWS // 2 else 0.0
                        for i in range(rows)],
              "y": [(sys.float_info.max, 5e-324, -1e-7)[i % 3] if i % 5 == 0 else i / 3
                    for i in range(rows)]}
    # a short column cuts every row after its last value
    for report in ({"series": series}, {"series": {**series, "short": range(rows // 2)}}):
        out = tmp_path / "r.csv"
        cli.write_csv(report, str(out))
        cli.write_csv(report, "-")
        expected = _reference_csv(report)
        _assert_same_bytes(out.read_bytes(), expected)
        _assert_same_bytes(capsys.readouterr().out, expected)


def _reference_svg(report) -> str:
    """The former list-copying ``write_svg``, kept as the oracle of its bytes."""
    series = {k: [float(v) for v in vs] for k, vs in report["series"].items()}
    x_key = next((k for k in cli._X_KEYS if k in series), sorted(series)[0])
    xs = series.pop(x_key)
    width, height = 720, 440
    ml, mr, mt, mb = 70, 24, 34, 52
    pw, ph = width - ml - mr, height - mt - mb
    ys_all = [v for vs in series.values() for v in vs]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return ml + pw * (x - x_lo) / (x_hi - x_lo)

    def py(y):
        return mt + ph * (1.0 - (y - y_lo) / (y_hi - y_lo))

    pieces = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">\n',
        f'<rect width="{width}" height="{height}" fill="white"/>\n',
        f'<text x="{ml}" y="20" font-size="14">'
        f'{cli._svg_escape(report.get("experiment", ""))}</text>\n',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>\n',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>\n',
    ]
    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4
        fy = y_lo + (y_hi - y_lo) * i / 4
        pieces += (f'<text x="{px(fx):.1f}" y="{mt + ph + 18}" text-anchor="middle">'
                   f'{fx:.4g}</text>\n',
                   f'<text x="{ml - 8}" y="{py(fy) + 4:.1f}" text-anchor="end">{fy:.4g}</text>\n',
                   f'<line x1="{ml}" y1="{py(fy):.1f}" x2="{ml + pw}" y2="{py(fy):.1f}" '
                   'stroke="#dddddd" stroke-width="0.5"/>\n')
    pieces.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 14}" text-anchor="middle">'
                  f'{cli._svg_escape(x_key)}</text>\n')
    for idx, name in enumerate(sorted(series)):
        color = cli._PALETTE[idx % len(cli._PALETTE)]
        if len(series[name]) == 1:
            pieces.append(f'<circle cx="{px(xs[0]):.2f}" cy="{py(series[name][0]):.2f}" '
                          f'r="3" fill="{color}"/>\n')
        else:
            pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, series[name]))
            pieces += ('<polyline points="', pts,
                       f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n')
        pieces.append(f'<text x="{ml + pw - 6}" y="{mt + 16 + 16 * idx}" text-anchor="end" '
                      f'fill="{color}">{cli._svg_escape(name)}</text>\n')
    pieces.append("</svg>\n")
    return "".join(pieces)


_B = cli._CSV_ROWS
SVG_SERIES = {
    "one point": {"t": [3], "y": [0.5]},
    "constant": {"step": [1, 2, 3], "y": [2.0, 2.0, 2.0], "z": [2, 2, 2]},
    "ints": {"cycle": [5, 6, 7, 8], "count": [3, -1, 4, 1]},
    "no x key": {"b": [0.1, 0.2], "a": [1.0, -1.0]},
    "ragged": {"t": [0.0, 0.5], "a": [1.0, 2.0, 3.0], "b": [], "c": [4.0]},
    "block boundaries": {"t": list(range(2 * _B + 1)),
                         "a": [i / 7 for i in range(_B - 1)], "b": [i / 3 for i in range(_B)],
                         "c": [i / 9 for i in range(_B + 1)],
                         "d": [i / 5 if i % 5 == 0 else i for i in range(2 * _B + 1)]},
}


@pytest.mark.parametrize("series", SVG_SERIES.values(), ids=SVG_SERIES)
def test_svg_is_written_as_the_reference(series, tmp_path, capsys):
    report = {"experiment": "a < b & c", "series": series}
    out = tmp_path / "r.svg"
    cli.write_svg(report, str(out))
    cli.write_svg(report, "-")
    expected = _reference_svg(report)
    _assert_same_bytes(out.read_bytes(), expected)
    _assert_same_bytes(capsys.readouterr().out, expected)


SVG_REFUSED = {
    "non-finite": {"t": [0, 1, 2, 3], "y": [math.nan, 1.0, math.inf, 2.0],
                   "z": [0.5, -math.inf, 0.25, 0.0]},
    "nan first in the second series": {"t": [0, 1, 2], "a": [1.0, 2.0, 3.0],
                                       "b": [math.nan, -5.0, 9.0]},
    "a nan every fifth value across block boundaries": {
        "t": list(range(2 * _B + 1)), "a": [i / 7 for i in range(_B - 1)],
        "d": [math.nan if i % 5 == 0 else i for i in range(2 * _B + 1)]},
    "every y a nan": {"t": [0, 1], "y": [math.nan, math.nan], "z": [0.0, 1.0]},
    "x nan first": {"t": [math.nan, 1.0, 2.0], "y": [0.5, 1.5, 2.5]},
    "x nan later": {"t": [0.0, math.nan, 2.0], "y": [0.5, 1.5, 2.5]},
    "x inf in a later block": {"t": [*range(_B), math.inf], "y": [0.5] * (_B + 1)},
    # finite values whose span, scale or padding leaves the float range
    "y span": {"t": [0, 1], "y": [1e308, -1e308]},
    "x scale": {"t": [0.0, 1e306], "y": [0.5, 1.5]},
    "y ticks": {"t": [0, 1], "y": [0.0, 5e307]},
    "y padding": {"t": [0, 1], "y": [-1.797e308, 0.0]},
}


@pytest.mark.parametrize("series", SVG_REFUSED.values(), ids=SVG_REFUSED)
def test_an_svg_plot_refuses_a_non_finite_value_or_span(series, monkeypatch, tmp_path, capsys):
    # NaN and infinity break the series contract, which every writer holds; a
    # finite span, scale or padding past the float range is the plot's own
    # refusal, and JSON and CSV write those series as their oracles
    if _breaks_the_contract(series):
        _assert_every_writer_refuses(series, monkeypatch=monkeypatch, tmp_path=tmp_path,
                                     capsys=capsys)
        return
    report = {"series": series}
    _assert_same_bytes(_written(report, cli.write_csv), _reference_csv(report))
    _assert_same_bytes(_written(report), _reference_json(report))
    with pytest.raises(ValueError, match="an SVG plot needs every value in the float range"):
        cli.write_svg(report, str(tmp_path / "w"))
    _assert_refused_in_one_line(series, "an SVG plot needs every value in the float range",
                                ["--svg", "r.svg"], ["--svg", "-"], ["--format", "svg"],
                                monkeypatch=monkeypatch, tmp_path=tmp_path, capsys=capsys)


# each case as a list; an int case is also a range and an int64 column, a float
# case a float64 column, and every case a tuple
BLOCK_CASES = {
    "ints": list(range(-7, 10)), "one int": [3], "one float": [0.25],
    "mostly repeated floats": [0.5, 1.5, 0.5, 0.5, 2.0] * 40,
    "-0.0 beside 0.0 in one block": [0.5] * 100 + [0.0, -0.0] + [0.5] * 100,
    "-0.0 and 0.0 in different blocks": [0.5] * (_B - 1) + [-0.0, 0.0] + [0.5] * (_B - 1),
    "0.0 and -0.0 in different blocks": [0.5] * (_B - 1) + [0.0, -0.0] + [0.5] * (_B - 1),
    **{f"{kind}, {n} values": values(n) for n in (_B - 1, _B, _B + 1, 2 * _B + 1)
       for kind, values in (("ints", lambda n: list(range(n))),
                            ("distinct floats", lambda n: [i / 7 for i in range(n)]),
                            ("repeated floats", lambda n: [(0.25, 0.5, -1.0)[i % 3]
                                                           for i in range(n)]))},
}


def _series_forms(values: list) -> dict:
    """``values`` as each kind of series a writer takes."""
    forms = {"list": values, "tuple": tuple(values)}
    if all(type(v) is int for v in values):
        forms["int64 column"] = np.array(values, dtype=np.int64)
        step = values[1] - values[0] if len(values) > 1 else 1
        forms["range"] = range(values[0], values[0] + step * len(values), step)
        assert list(forms["range"]) == values
    else:
        forms["float64 column"] = np.array(values, dtype=np.float64)
    return forms


@pytest.mark.parametrize("writer, reference", [(write_json, _reference_json),
                                               (cli.write_csv, _reference_csv),
                                               (cli.write_svg, _reference_svg)],
                         ids=["json", "csv", "svg"])
@pytest.mark.parametrize("values", BLOCK_CASES.values(), ids=BLOCK_CASES)
def test_every_kind_of_series_is_written_as_the_reference(values, writer, reference, tmp_path):
    # the list-only reference writers are the oracles of every form's bytes
    expected = reference({"experiment": "x", "series": {"t": values, "y": values}}).encode()
    for name, form in _series_forms(values).items():
        out = tmp_path / name
        writer({"experiment": "x", "series": {"t": form, "y": form}}, str(out))
        _assert_same_bytes(out.read_bytes(), expected, f"{name}: ")


def _reference_span(columns) -> tuple[float, float]:
    """The former block-chained range of an SVG axis, kept as the oracle of
    ``cli._plot_frame``'s: the least and the greatest value of ``columns``
    as floats; an empty axis and an int past the float range are refused."""
    lo = hi = None
    for block in itertools.chain.from_iterable(map(cli._blocks, columns)):
        lo, hi = (min(block), max(block)) if lo is None else (min(lo, *block), max(hi, *block))
    if lo is None:
        raise ValueError("an SVG plot needs at least one value on each axis")
    try:
        return float(lo), float(hi)
    except OverflowError:
        raise ValueError("an SVG plot needs every value in the float range") from None


def _reference_frame(series: dict):
    """``cli._plot_frame`` as it was, its ranges from ``_reference_span``."""
    x_key = next((k for k in cli._X_KEYS if k in series), sorted(series)[0])
    if len(series) == 1:
        raise ValueError("series needs at least one y column besides the x axis")
    (x_lo, x_hi), (y_lo, y_hi) = _reference_span([series[x_key]]), _reference_span(
        values for key, values in series.items() if key != x_key)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if not math.isfinite(max(cli._PW * (x_hi - x_lo), 4 * (y_hi - y_lo))):
        raise ValueError("an SVG plot needs every value in the float range")
    return x_key, (x_lo, x_hi), (y_lo, y_hi)


_ZEROS_AT_THE_ENDS = {   # a -0.0 beside a 0.0 at each end of an axis, or as its whole span
    "x low, y high": {"t": [-0.0, 0.0, 1.0], "y": [0.0, -0.0, -2.0]},
    "x high, y low": {"t": [-1.0, 0.0, -0.0], "y": [-0.0, 3.0, 0.0]},
    "both constant": {"t": [0.0, -0.0], "y": [-0.0, 0.0]},
    # a span whose padding underflows to 0, so the zero at its end stays as it is
    "tiny spans": {"t": [0.0, -0.0, 5e-324], "y": [-0.0, 0.0, 5e-324]},
    "y zeros in two columns": {"t": [0.0, 1.0], "a": [0.0, 2.0], "b": [-0.0]},
}
FRAME_CASES = {
    **{f"{case}, {form}": {"t": column, "y": column} for case, values in BLOCK_CASES.items()
       for form, column in _series_forms(values).items()},
    **{f"zeros {case}{form}": {k: np.array(v) if form else v for k, v in series.items()}
       for case, series in _ZEROS_AT_THE_ENDS.items() for form in ("", " as float64 columns")},
    "an int equal to a float at each end": {"t": [1, 1.0, 2.0, 2], "y": [3.0, 0, 3, 0.0]},
    "an int64 x and float64 y equal at the ends": {"t": np.array([0, 4]),
                                                   "y": np.array([4.0, 0.0]), "z": [0, 4]},
    "float32, int32 and object columns": {
        "t": np.arange(-4, 5, dtype=np.int32), "y": np.arange(9, dtype=np.float32) / 3,
        "z": np.array([1, 2.5, -3, 10**20], dtype=object)},
    "an int past the float range in an object x": {"t": np.array([0, 10**400], dtype=object),
                                                   "y": [1.0, 2.0]},
    "an int past the float range in a y list": {"t": [0, 1], "a": [0.5], "y": [2.0, -10**400]},
    "an empty x": {"t": np.array([]), "y": [1.0]},
    "every y empty": {"t": range(3), "y": (), "z": np.array([], dtype=np.int64)},
}


@pytest.mark.parametrize("series", FRAME_CASES.values(), ids=FRAME_CASES)
def test_the_plot_frame_is_the_block_chained_one(series, monkeypatch):
    # each column's own least and greatest values give the reference's frame or
    # refusal; where a -0.0 or an int takes the place of an equal 0.0 or float
    # at an end, the plot's bytes do not move
    cli._check_report({"series": series})   # every case holds the series contract
    frame = _verdict(cli._plot_frame, series)
    assert frame == _verdict(_reference_frame, series)
    if type(frame) is str:
        return
    report = {"experiment": "x", "series": series}
    written = _written(report, cli.write_svg)
    monkeypatch.setattr(cli, "_plot_frame", _reference_frame)
    _assert_same_bytes(written, _written(report, cli.write_svg))


def _written_peak(writer, report, path) -> int:
    """The ``tracemalloc`` peak of ``writer(report, path)``, above the report."""
    tracemalloc.start()
    try:
        writer(report, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _report_of(args, writer_name):
    """The report of the verdict ``main(args)`` hands to ``cli.<writer_name>``."""
    reports = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, writer_name, lambda verdict, path: reports.append(verdict.report))
        assert main(args) == 0
    report, = reports
    return report


@pytest.fixture(scope="module")
def pif_report():
    """The benchmark-size ``pif`` report of ``LINK_REPORTS``, built once for its writers."""
    return _report_of([*LINK_REPORTS[0], "--json", "-"], "write_json")


def test_writing_a_benchmark_size_report_holds_no_second_copy(pif_report, tmp_path):
    # the pieces are written as they are: no joined copy of the whole text
    out = tmp_path / "r.json"
    peak = _written_peak(write_json, pif_report, str(out))
    size = out.stat().st_size
    assert size > 6_000_000
    assert peak <= 1.5 * size


def test_a_benchmark_size_csv_is_the_reference_and_holds_no_copy(pif_report, tmp_path):
    # the rows are rendered from the columns a block at a time
    out = tmp_path / "r.csv"
    peak = _written_peak(cli.write_csv, pif_report, str(out))
    text = out.read_bytes()
    _assert_same_bytes(text, _reference_csv(pif_report))
    assert len(text) > 3_000_000
    assert peak <= 1.5 * len(text)


@pytest.mark.parametrize("args", [LINK_REPORTS[0], ["switch", "--points", "200000"]],
                         ids=lambda a: a[0])
def test_a_benchmark_size_svg_is_the_reference_and_holds_no_copy(args, request, tmp_path):
    # the series are read in place and the points rendered in blocks
    report = (request.getfixturevalue("pif_report") if args is LINK_REPORTS[0]
              else _report_of([*args, "--svg", "-"], "write_svg"))
    out = tmp_path / "r.svg"
    peak = _written_peak(cli.write_svg, report, str(out))
    text = out.read_bytes()
    _assert_same_bytes(text, _reference_svg(report))
    assert len(text) > 2_000_000
    assert peak <= 1.5 * len(text)


@pytest.mark.parametrize("writer", [write_json, cli.write_csv, cli.write_svg],
                         ids=lambda w: w.__name__)
def test_stdout_takes_the_pieces_as_the_writer_built_them(writer, monkeypatch, tmp_path):
    # stdout is handed the writer's list of pieces, never one joined string
    n = 2 * cli._CSV_ROWS + 1
    report = {"experiment": "x", "series": {"t": list(range(n)), "y": [i / 7 for i in range(n)]}}
    out = tmp_path / "r"
    writer(report, str(out))
    handed = []
    monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(writelines=handed.append))
    writer(report, "-")
    pieces, = handed
    assert type(pieces) is list and len(pieces) > 1
    _assert_same_bytes("".join(pieces), out.read_bytes())


def test_long_series_lists_skip_the_indenting_encoder(monkeypatch, tmp_path):
    # indent=2 forces json's pure-Python encoder: no long list may reach it
    longest = []
    dumps = json.dumps

    def longest_list(value):
        if isinstance(value, dict):
            return max(map(longest_list, value.values()), default=0)
        if isinstance(value, list):
            return max([len(value), *map(longest_list, value)])
        return 0

    def watched(obj, *args, **kwargs):
        if kwargs.get("indent") is not None:
            longest.append(longest_list(obj))
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", watched)
    assert main(["pif", "--slices", "3000", "--json", str(tmp_path / "p.json")]) == 0
    assert longest and max(longest) <= 64


def test_json_to_stdout_suppresses_summary(capsys):
    assert main(["wfecho", "--json", "-"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["experiment"] == "wfecho"
    assert "experiment: wfecho" not in out


def test_json_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["pif", "--slices", "200", "--flip-forward", "0.01", "--seed", "42"]
    assert main([*args, "--json", str(a)]) == 0
    assert main([*args, "--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"flip_forward": 0.5, "flip_backward": 0.5}))
    out = tmp_path / "r.json"
    assert main(["capacity", "--config", str(cfg), "--n-bits", "1000",
                 "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["metrics"]["c_one_way"] == 0.0
    assert report["config"]["n_bits"] == 1000


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"flip_forward": 0.5, "flip_backward": 0.5}))
    out = tmp_path / "r.json"
    assert main(["capacity", "--config", str(cfg), "--flip-forward", "0.0",
                 "--flip-backward", "0.0", "--n-bits", "1000", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["metrics"]["c_one_way"] == 64.0
    assert report["metrics"]["c_pif"] == 128.0


def test_repeated_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 1, "points": 3, "seed": 2}')
    out = tmp_path / "r.json"
    assert main(["duality", "--config", str(cfg), "--json", str(out)]) == 1
    assert "repeated config keys: seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("opener", ["[", '{"seed": '])
def test_deeply_nested_config_is_refused_in_one_line(opener, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(opener * 200_000)
    out = tmp_path / "r.json"
    assert main(["duality", "--config", str(cfg), "--json", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nests too deeply" in err
    assert err.count("\n") == 1
    assert not out.exists()


# the bytes one is not UTF-8, which JSON text must be
@pytest.mark.parametrize("text", ["", "{", '{"seed": 1,}', b'\xff{"seed": 1}'])
def test_a_config_that_is_not_json_is_refused_naming_the_file(text, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text if type(text) is bytes else text.encode())
    assert main(["duality", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {str(cfg)!r} is not JSON: ")
    assert err.count("\n") == 1


def test_a_config_int_past_the_digit_limit_is_refused_naming_the_file(tmp_path, capsys):
    # int() refuses it with advice for Python code, not for the command line
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": ' + "9" * 5001 + "}")
    assert main(["duality", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (f"error: config {str(cfg)!r} holds an int of more than"
                                       f" {sys.get_int_max_str_digits()} digits\n")


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"warp_factor": 9}))
    assert main(["capacity", "--config", str(cfg)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_csv_has_header_and_one_row_per_point(tmp_path):
    path = tmp_path / "d.csv"
    assert main(["duality", "--points", "12", "--csv", str(path)]) == 0
    lines = path.read_text().strip().splitlines()
    assert "t" in lines[0].split(",")
    assert "deviation" in lines[0].split(",")
    assert len(lines) == 13


def test_svg_is_written(tmp_path):
    path = tmp_path / "d.svg"
    assert main(["rcp", "--points", "9", "--svg", str(path)]) == 0
    text = path.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text


def test_out_dir_format_list(tmp_path):
    assert main(["wfecho", "--format", "json,csv", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "wfecho.json").exists()
    assert (tmp_path / "wfecho.csv").exists()


def test_list_names_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in _EXPERIMENTS:
        assert name in out


def test_parser_covers_every_experiment():
    parser = build_parser()
    actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    commands = set(actions[0].choices)
    assert set(_EXPERIMENTS) | {"list"} <= commands


def test_clean_pif_balances_exactly(tmp_path):
    out = tmp_path / "pif.json"
    assert main(["pif", "--slices", "500", "--json", str(out)]) == 0
    metrics = json.loads(out.read_text())["metrics"]
    assert metrics["delta_s"] == 0.0
    assert metrics["landauer_joules"] == 0.0
    assert metrics["conservation_violation"] == 0.0
    assert metrics["detected_mismatches"] == 0


@pytest.mark.parametrize("seed", ["6", "8"])
def test_lossy_pif_balances_exactly(seed, tmp_path):
    # seeds whose run totals i_reflected + (i_transmitted - i_reflected) round away
    # from i_transmitted
    out = tmp_path / "pif.json"
    assert main(["pif", "--flip-forward", "0.01", "--flip-backward", "0.01",
                 "--echo-loss", "0.6", "--seed", seed, "--json", str(out)]) == 0
    metrics = json.loads(out.read_text())["metrics"]
    assert metrics["i_reflected"] + metrics["delta_s"] == metrics["i_transmitted"]
    assert metrics["i_transmitted"] == metrics["i_plus"]


@pytest.mark.parametrize("command", ["pif", "fito-vs-pif"])
@pytest.mark.parametrize("temperature", ["nan", "inf", "-inf"])
def test_non_finite_link_temperature_exits_one(command, temperature, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main([command, "--slices", "50", f"--temperature={temperature}",
                 "--json", str(out)]) == 1
    assert "temperature must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_json_writer_refuses_non_finite_values(tmp_path):
    out = tmp_path / "r.json"
    for bad in (math.nan, math.inf, np.float64(-np.inf)):
        with pytest.raises(ValueError):
            write_json({"metrics": {"x": bad}}, str(out))
    assert not out.exists()


def _with_infinite_metric(monkeypatch):
    """Make ``wfecho`` report an infinite metric, which strict JSON refuses."""
    monkeypatch.setitem(_EXPERIMENTS, "wfecho", _EXPERIMENTS["wfecho"]._replace(
        run=lambda cfg: ({"x": math.inf}, {}, [])))


OUTPUT_TARGETS = [[], ["--json", "r.json"], ["--csv", "r.csv"], ["--svg", "-"],
                  ["--format", "svg,csv,json"],
                  ["--csv", "r.csv", "--out", ".", "--format", "svg,csv,json"]]


@pytest.mark.parametrize("targets", OUTPUT_TARGETS, ids=lambda t: " ".join(t) or "summary")
def test_an_infinite_metric_is_refused_whatever_the_targets(targets, monkeypatch, tmp_path,
                                                             capsys):
    # the report is dumped as strict JSON once, whatever it is written as, if at all
    _with_infinite_metric(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert main(["wfecho", *targets]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "not JSON compliant" in err
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("targets", OUTPUT_TARGETS, ids=lambda t: " ".join(t) or "summary")
def test_overflowing_tick_seconds_is_refused_whatever_the_targets(targets, monkeypatch,
                                                                   tmp_path, capsys):
    # finite inputs whose classical_time_seconds overflows to inf
    monkeypatch.chdir(tmp_path)
    assert main(["photonclock", "--tick-seconds", "1e308", "--bounces", "5", *targets]) == 1
    out, err = capsys.readouterr()
    assert "tick_seconds" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("epsilon", ["0", "0.1"])
@pytest.mark.parametrize("targets", OUTPUT_TARGETS, ids=lambda t: " ".join(t) or "summary")
def test_non_finite_rcp_norm_is_refused_naming_tmax(targets, epsilon, monkeypatch, tmp_path,
                                                    capsys):
    # the propagators overflow, so the norms are NaN; max and min would skip them
    monkeypatch.chdir(tmp_path)
    assert main(["rcp", "--tmax", "1e308", "--points", "3", "--epsilon", epsilon,
                 *targets]) == 1
    out, err = capsys.readouterr()
    assert "tmax" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_fito_vs_pif_draws_each_shared_stream_once(monkeypatch, tmp_path):
    # the FITO baseline reads the PIF run's payload (0) and forward mask (1); at the
    # defaults the echo loss (2) and backward flips (3) are 0, so neither is drawn
    drawn = []
    stream = piflink._stream
    monkeypatch.setattr(piflink, "_stream",
                        lambda seed, tag: drawn.append(tag) or stream(seed, tag))
    assert main(["fito-vs-pif", "--slices", "1000", "--json", str(tmp_path / "f.json")]) == 0
    assert drawn == [0, 1]


def test_fito_cumulative_cost_is_a_running_sum(tmp_path):
    out = tmp_path / "f.json"
    assert main(["fito-vs-pif", "--slices", "300", "--seed", "4", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    rep = piflink.run_link(piflink.LinkConfig(
        slice_count=300, bit_flip_forward=0.05, rng_seed=4, mode=piflink.LinkMode.FITO))
    running, expected = 0.0, []
    for cost in rep.cycles.landauer_joules.tolist():
        running += cost
        expected.append(running)
    assert report["series"]["fito_landauer_cumulative"] == expected
    assert expected[-1] == report["metrics"]["fito_landauer_joules"]


def test_photonclock_series_matches_a_reading_after_every_bounce(tmp_path):
    out = tmp_path / "p.json"
    assert main(["photonclock", "--bounces", "200", "--decoherence", "0.3", "--seed", "5",
                 "--tick-seconds", "2.0", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    box = photonclock.CausalBox(decoherence_per_bounce=0.3, rng_seed=5)
    readings = []
    for _ in range(200):
        photonclock.bounce(box)
        readings.append(photonclock.classical_time(box.ledger))
    assert report["series"]["classical_time"] == readings
    assert report["metrics"]["classical_time"] == readings[-1] > 0
    assert report["metrics"]["classical_time_seconds"] == readings[-1] * 2.0


def test_photonclock_sweep_bounces_in_one_pass(monkeypatch, tmp_path):
    # check_nondiscernability's 3 cycles read the photon's orbit, so nothing calls bounce
    calls = []
    per_event = photonclock.bounce
    monkeypatch.setattr(photonclock, "bounce",
                        lambda box: calls.append(1) or per_event(box))
    for bounces in (8, 800):
        calls.clear()
        assert main(["photonclock", "--bounces", str(bounces),
                     "--json", str(tmp_path / "p.json")]) == 0
        assert len(calls) == 0


def test_photonclock_steps_the_photon_only_for_the_round_trip_check(monkeypatch, tmp_path):
    # the report's ledger comes from tick_ledger, which steps no photon: only
    # check_nondiscernability's 3 cycles, 6 states of the closed box's orbit,
    # are stepped
    steps = []
    orbit = photonclock._noisy_orbit

    def counting(*args):
        for rho in orbit(*args):
            steps.append(1)
            yield rho

    monkeypatch.setattr(photonclock, "_noisy_orbit", counting)
    assert main(["photonclock", "--bounces", "800", "--json", str(tmp_path / "p.json")]) == 0
    assert len(steps) == 6


def test_duality_deviation_is_tiny(tmp_path):
    out = tmp_path / "dual.json"
    assert main(["duality", "--points", "16", "--json", str(out)]) == 0
    metrics = json.loads(out.read_text())["metrics"]
    assert metrics["max_duality_deviation"] < 1e-12
    assert metrics["valid_at_origin"] is True


def test_skewed_duality_is_reported_not_flagged(tmp_path):
    out = tmp_path / "skew.json"
    assert main(["duality", "--points", "16", "--skew", "1e-3",
                 "--json", str(out)]) == 0
    metrics = json.loads(out.read_text())["metrics"]
    assert 5e-4 <= metrics["max_duality_deviation"] <= 2e-3


# Each case: experiment arguments, config file contents (None for no file),
# and the parameter the error message must name.
REJECTED = [
    (["duality"], [1, 2], "config"),
    (["duality"], {"points": "25"}, "points"),
    (["ac-vs-ico"], {"noise": "0.3"}, "noise"),
    (["duality"], {"seed": "7"}, "seed"),
    (["duality"], {"seed": None}, "seed"),
    (["duality"], {"dim": 2.5}, "dim"),
    (["duality"], {"phase_mode": "sideways"}, "phase_mode"),
    (["photonclock"], {"bounces": True}, "bounces"),
    (["photonclock", "--bounces", "-5"], None, "bounces"),
    (["photonclock", "--tick-seconds", "nan"], None, "tick_seconds"),
    (["photonclock", "--tick-seconds", "-1"], None, "tick_seconds"),
    (["rcp", "--epsilon", "nan"], None, "epsilon"),
    (["rcp", "--tmax", "inf"], None, "tmax"),
    (["duality", "--omega", "nan"], None, "omega"),
    (["switch", "--points", "0"], None, "points"),
    (["duality", "--skew", "-1"], None, "skew"),
    (["wfecho", "--transmitted", "nan"], None, "transmitted"),
    (["rcp", "--epsilon", "1e308"], None, "epsilon"),
]


@pytest.mark.parametrize("args, config, param", REJECTED,
                         ids=[f"{a[0]}-{p}-{i}" for i, (a, _, p) in enumerate(REJECTED)])
def test_bad_input_is_rejected_at_the_boundary(args, config, param, tmp_path, capsys):
    extra = []
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        extra = ["--config", str(cfg)]
    out = tmp_path / "r.json"
    assert main([*args, *extra, "--json", str(out)]) == 1
    assert param in capsys.readouterr().err
    assert not out.exists()


# every size ceiling of the registry, as (command, option, ceiling)
CEILINGS = [(command, key, spec.high) for command, experiment in _EXPERIMENTS.items()
            for key, spec in experiment.params.items() if spec.high is not None]


def test_every_ceiling_is_tested_and_named_in_the_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    # one line of words, so that a wrapped entry still matches
    ceilings = " ".join(readme[readme.index("have a ceiling"):
                               readme.index("- a string option")].split())
    for command, key, ceiling in CEILINGS:
        assert f"`{command} --{key.replace('_', '-')}` at most {ceiling:,}" in ceilings


def test_every_ceiling_but_duality_points_has_a_max_rss_row_in_ci():
    # the rows of the max-RSS table in the workflow; duality --points alone
    # goes unbounded, as its ceiling run takes minutes
    workflow = (Path(__file__).resolve().parents[1] / ".github" / "workflows"
                / "tests.yml").read_text()
    table = workflow[workflow.index("bounds = {"):]
    rows = [row.split() for row in re.findall(r"'([^']+)': \d+", table[:table.index("}")])]
    for command, key, ceiling in CEILINGS:
        flag = "--" + key.replace("_", "-")
        assert (command, flag) == ("duality", "--points") or any(
            row[0] == command and (flag, str(ceiling)) in zip(row, row[1:]) for row in rows
        ), f"no CI row runs {command} {flag} {ceiling}"


@pytest.mark.parametrize("command, key, ceiling", CEILINGS)
def test_size_ceilings_are_refused_at_the_boundary(command, key, ceiling, tmp_path):
    # through _config alone: a size at the ceiling is accepted, never run
    params = _EXPERIMENTS[command].params
    parser = build_parser()
    flag = "--" + key.replace("_", "-")
    assert _config(parser.parse_args([command, flag, str(ceiling)]), params)[key] == ceiling
    with pytest.raises(ValueError, match=f"{key} must be <= {ceiling}, got {ceiling + 1}"):
        _config(parser.parse_args([command, flag, str(ceiling + 1)]), params)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: ceiling + 1}))
    with pytest.raises(ValueError, match=f"{key} must be <= {ceiling}"):
        _config(parser.parse_args([command, "--config", str(cfg)]), params)


def test_rcp_needs_two_dimensions():
    # and so does duality, whose wires are qcore subsystems, and a cascade chain
    for command, key in (("rcp", "dim"), ("duality", "dim"), ("cascade", "sites")):
        with pytest.raises(ValueError, match=f"{key} must be >= 2, got 1"):
            _config(build_parser().parse_args([command, f"--{key}", "1"]),
                    _EXPERIMENTS[command].params)


@pytest.fixture
def workloads(monkeypatch):
    """``bench/workloads.py``, read and never changed."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads")


def test_every_benchmark_invocation_is_accepted(workloads):
    parser = build_parser()
    for workload in workloads.WORKLOADS:
        for seed, small in ((0, False), (4242, False), (0, True)):
            for args in workloads.invocations(workload, seed, small):
                ns = parser.parse_args(args)
                _config(ns, _EXPERIMENTS[ns.command].params)


def test_duality_takes_the_process_spectrum_once(monkeypatch, tmp_path):
    # validate_ocb alone measures the 256-side process; the channel's own
    # check takes the spectrum of its 16-side Choi matrix
    sides = []
    spectrum = qcore.ComplexOperator.min_eigenvalue
    monkeypatch.setattr(qcore.ComplexOperator, "min_eigenvalue",
                        lambda op: sides.append(op.dim) or spectrum(op))
    for phase_mode in ("continuous", "discrete"):
        sides.clear()
        assert main(["duality", "--dim", "4", "--points", "3", "--phase-mode", phase_mode,
                     "--json", str(tmp_path / "d.json")]) == 0
        assert sides.count(256) == 1


@pytest.mark.parametrize("extra", [[], ["--skew", "1e-3"]])
def test_duality_builds_each_member_once(extra, monkeypatch, tmp_path):
    # two members per sample, the origin and the member one period on, and
    # the base process; the backward member is derived, skewed or not
    built = []
    init = process.ProcessMatrix.__init__
    monkeypatch.setattr(process.ProcessMatrix, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    for phase_mode in ("continuous", "discrete"):
        built.clear()
        assert main(["duality", "--points", "3", "--phase-mode", phase_mode, *extra,
                     "--json", str(tmp_path / "d.json")]) == 0
        assert len(built) == 2 * 3 + 2 + 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", [
    ["--omega", "1e308"],
    ["--tmax", "1e308"],
    ["--omega", "1e308", "--phase-mode", "discrete"],
])
def test_overflowing_duality_phase_exits_one_without_warnings(args, tmp_path, capsys):
    # finite inputs whose member phase omega * t * gap overflows
    out = tmp_path / "r.json"
    assert main(["duality", *args, "--json", str(out)]) == 1
    assert "omega" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args, advice", [
    (["duality", "--omega", "1e-308"], "raise omega"),
    (["duality", "--omega", "5e-324"], "raise omega"),
    (["rcp", "--tmax", "1e308", "--points", "3"], "nearer to 0"),
    (["rcp", "--tmax=-1e308", "--points", "3"], "nearer to 0"),
])
def test_an_overflow_refusal_points_the_way_out(args, advice, capsys):
    # a period 2 pi / omega that overflows needs a larger omega, and a
    # negative tmax a smaller |tmax|, not a lower one
    assert main(args) == 1
    err = capsys.readouterr().err
    assert advice in err
    assert err.count("\n") == 1


EXTREMES = ("1e308", "-1e308", "5e-324", "-5e-324")


def _extreme_float_runs(command):
    """The arguments that set each float option of ``command`` to each of ``EXTREMES``,
    with every size at its floor but at least 2, so that a sweep reaches its end."""
    params = _EXPERIMENTS[command].params
    sizes = [f"--{key.replace('_', '-')}={max(spec.low, 2)}" for key, spec in params.items()
             if type(spec.default) is int and spec.high is not None]
    # --key=value, as argparse reads a lone -1e308 as a flag
    return [[command, *sizes, f"--{key.replace('_', '-')}={value}"]
            for key, spec in params.items() if type(spec.default) is float
            for value in EXTREMES]


@pytest.mark.parametrize("command", [c for c in _EXPERIMENTS if _extreme_float_runs(c)])
def test_every_float_option_at_its_extremes_runs_or_is_refused_cleanly(command, capsys):
    unclean = []
    for args in _extreme_float_runs(command):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(args)
            except Exception as exc:   # a traceback at the command line
                code = repr(exc)
        err = capsys.readouterr().err
        clean = (code == 0 and err == ""
                 or code == 1 and err.startswith("error: ") and err.count("\n") == 1)
        if caught or not clean:
            unclean.append((" ".join(args[1:]), code, err, [str(w.message) for w in caught]))
    assert unclean == []


def _loaded_in_a_fresh_child(code: str, cwd=None) -> set[str]:
    """numpy, numpy.ma, numpy.random, scipy, dataclasses, inspect and the
    altcausal modules that a fresh interpreter in ``cwd`` holds after ``code``."""
    code += ("\nimport sys\nprint(' '.join(m for m in sys.modules if m in"
             " ('numpy', 'numpy.ma', 'numpy.random', 'scipy', 'dataclasses', 'inspect')"
             " or m.startswith('altcausal.')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60, cwd=cwd)
    return set(proc.stdout.splitlines()[-1].split())


# numpy loads inspect, and every numpy layer dataclasses; the cli loads neither
_WITH_NUMPY = {"dataclasses", "inspect"}


def test_importing_the_cli_loads_no_layer_and_no_numpy():
    # nor dataclasses and inspect (typing is left out: site hooks may load it)
    assert _loaded_in_a_fresh_child("import altcausal.cli") == {"altcausal.cli"}


def test_a_layer_resolves_on_first_access_to_the_package():
    code = "import altcausal\nassert altcausal.qcore.DensityMatrix.__name__ == 'DensityMatrix'"
    assert _loaded_in_a_fresh_child(code) == {"altcausal.qcore", "numpy", *_WITH_NUMPY}


# what a run loads besides the cli: numpy and its layers, numpy.random for
# a seeded generator (the photon clock replays its draws without one), and
# scipy (which brings numpy.ma) for rcp alone; wfecho, help and refused
# inputs start without numpy, dataclasses or inspect, and so do the three
# writers on the lists wfecho builds
LOADED_BY = {
    "duality": "numpy numpy.random qcore process",
    "switch": "numpy qcore process",
    "ac-vs-ico": "numpy qcore process",
    "photonclock": "numpy qcore photonclock absorber",
    "cascade": "numpy qcore photonclock absorber _cascade_steps",
    "wfecho": "absorber",
    "wfecho --out . --format json,csv,svg": "absorber",
    "rcp": "numpy numpy.ma numpy.random scipy qcore photonclock absorber",
    "pif": "numpy numpy.random piflink",
    "fito-vs-pif": "numpy numpy.random piflink",
    "capacity": "numpy numpy.random piflink",
    "list": "",
    "--help": "",
    "pif --help": "",
    "pif --slices 0": "",
    "duality --format xml": "",
}


@pytest.mark.parametrize("command", LOADED_BY)
def test_a_run_loads_only_the_layers_it_uses(command, tmp_path):
    argv = command.split() + FAST_ARGS.get(command, [])
    code = ("import contextlib, io\nfrom altcausal.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    try:\n        main({argv!r})\n    except SystemExit:\n        pass")
    want = {"altcausal.cli"} | {m if m.startswith(("numpy", "scipy")) else f"altcausal.{m}"
                                for m in LOADED_BY[command].split()}
    if "numpy" in want:
        want |= _WITH_NUMPY
    assert _loaded_in_a_fresh_child(code, cwd=tmp_path) == want
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == (["wfecho.csv", "wfecho.json", "wfecho.svg"] if "--out" in argv else [])


def test_readme_layer_table_matches_what_each_run_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme[readme.index("| experiment | layers |"):]
    table = table[:table.index("\n\n")].splitlines()[2:]
    named = {}
    for row in table:
        experiments, layers = row.replace("`", "").strip("| ").split(" | ")
        named.update(dict.fromkeys(experiments.split(", "), set(layers.split(", "))))
    # the table names layers: numpy and scipy are left out (scipy has its
    # own sentence), and so is the private step table
    loaded = {command: set(modules.split()) - {"numpy", "numpy.ma", "numpy.random", "scipy",
                                               "_cascade_steps"}
              for command, modules in LOADED_BY.items() if command in _EXPERIMENTS and modules}
    assert named == loaded
    with_scipy = [command for command, modules in LOADED_BY.items() if "scipy" in modules.split()]
    assert with_scipy == ["rcp"] and "`rcp` also loads scipy" in readme


def test_cascade_sites_ceiling_is_the_chain_limit():
    # written out in the registry, so that building the parser loads no layer
    assert _EXPERIMENTS["cascade"].params["sites"].high == photonclock.MAX_CASCADE_SITES


def test_json_int_for_a_float_option_is_stored_as_float(tmp_path):
    cfg, a, b = tmp_path / "cfg.json", tmp_path / "a.json", tmp_path / "b.json"
    cfg.write_text(json.dumps({"omega": 1}))
    assert main(["duality", "--points", "9", "--config", str(cfg), "--json", str(a)]) == 0
    assert main(["duality", "--points", "9", "--omega", "1", "--json", str(b)]) == 0
    from_file, from_flag = json.loads(a.read_text()), json.loads(b.read_text())
    assert '"omega": 1.0' in a.read_text()
    assert from_file["metrics"] == from_flag["metrics"]


def test_wfecho_sweeps_the_linspace_grid(tmp_path):
    out = tmp_path / "r.json"
    assert main(["wfecho", "--json", str(out)]) == 0
    alphas = json.loads(out.read_text())["series"]["alpha"]
    assert [a.hex() for a in alphas] == [a.hex() for a in np.linspace(0.0, 1.0, 21)]


def test_failed_check_is_reported_and_exits_one(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(absorber, "wf_echo", lambda alpha, i_transmitted: (1.0, i_transmitted))
    out = tmp_path / "r.json"
    assert main(["wfecho", "--json", str(out)]) == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["echo_balance"]["ok"] is False
    assert "invariant violated: echo_balance" in capsys.readouterr().err


def _reference_non_decreasing(name, seq, tol, zero):
    """The check entry as the drop list the one-pass rule replaced built it."""
    drops = [b - a for a, b in zip(seq, seq[1:]) if b < a - tol]
    return {"name": f"{name}_non_decreasing", "value": min(drops, default=zero), "tol": tol,
            "ok": not drops}


# classical times are ints held to 0, entropies floats held to 1e-9: each
# falls past its tolerance, by exactly it, or not at all
@pytest.mark.parametrize("target, series", [
    *(("photonclock", s) for s in ([0, 2, 1, 3], [0, 1, 1, 2], [0, 1, 2, 3])),
    *((target, s) for target in ("alternating", "coherent")
      for s in ([0.0, 0.5, 0.25, 1.0], [0.0, 1e-9, 0.0, 0.5], [0.0, 0.5, 1.0, 1.0]))])
def test_a_monotone_check_fails_only_past_its_tolerance(target, series, monkeypatch, tmp_path,
                                                        capsys):
    if target == "photonclock":
        monkeypatch.setattr(photonclock, "classical_time_series", lambda ledger: series)
        name, tol, zero, argv = "classical_time", 0, 0, ["photonclock", "--bounces", "4"]
    else:
        rising = [0.0, 0.5, 1.0, 1.5]
        pair = (series, rising) if target == "alternating" else (rising, series)
        monkeypatch.setattr(process, "ac_vs_ico_entropy",
                            lambda *args, **kwargs: process.ComparisonReport(*map(tuple, pair)))
        name, tol, zero, argv = f"{target}_entropy", 1e-9, 0.0, ["ac-vs-ico", "--steps", "3"]
    want = _reference_non_decreasing(name, series, tol, zero)
    out = tmp_path / "r.json"
    assert main([*argv, "--json", str(out)]) == (0 if want["ok"] else 1)
    got = {c["name"]: c for c in json.loads(out.read_text())["checks"]}[want["name"]]
    assert (got, type(got["value"])) == (want, type(want["value"]))
    line = f"invariant violated: {want['name']} = {cli._fmt(want['value'])} (tol {cli._fmt(tol)})"
    assert (line in capsys.readouterr().err) == (not want["ok"])


@pytest.mark.parametrize("form", [list, tuple, np.array])
@pytest.mark.parametrize("drop, tol", [(4, 0), (0.5, 1e-9)])
def test_a_monotone_check_finds_the_worst_step_across_a_block_boundary(drop, tol, form):
    # every step rises but the one from the last value of a block to the first of the next
    n = cli._CSV_ROWS
    series = [type(drop)(i) for i in range(n)] + [n - 1 - drop + i for i in range(n + 1)]
    want = _reference_non_decreasing("x", series, tol, type(tol)(0))
    assert want["value"] == -drop and not want["ok"]
    got = cli._non_decreasing("x", form(series), tol)
    assert (got._asdict(), type(got.value)) == (want, type(want["value"]))


def test_a_failed_check_with_stderr_closed_leaves_stdout_strict_json(monkeypatch, capsys):
    monkeypatch.setattr(absorber, "wf_echo", lambda alpha, i_transmitted: (1.0, i_transmitted))
    monkeypatch.setattr(sys, "stderr", None)   # as when Python starts with fd 2 closed
    assert main(["wfecho", "--json", "-"]) == 1
    report = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
    assert not {c["name"]: c["ok"] for c in report["checks"]}["echo_balance"]


def test_a_report_to_a_closed_stdout_is_refused_before_the_run(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", None)   # as when Python starts with fd 1 closed
    monkeypatch.setattr(absorber, "wf_echo", pytest.fail)
    assert main(["wfecho", "--json", "-"]) == 1
    assert capsys.readouterr() == ("", "error: '-' writes to stdout, which is closed\n")
