"""Command line surface: exit codes, table formats, charts, caching."""

import contextlib
import csv
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from realspectra import blocks, cli, duality, localcoh
from realspectra.blocks import TowerClass, lc_of_block, ref_degree
from realspectra.charts import ascii_chart, svg_chart, _actions
from realspectra.cli import (MAX_CAPS, MAX_COORD, MAX_E2_CLASSES, MAX_N,
                             main)
from realspectra.coefficients import BasisEntry, Monomial
from realspectra.duality import default_ssdata
from realspectra.grading import Degree, Window
from realspectra.hfpss import e_infinity_groups

from oracles import ssdata_dict


def run(capsys, *args):
    code = main(list(args))
    return code, capsys.readouterr().out


# --- configuration errors --------------------------------------------------------

def test_bad_window_is_config_error(capsys):
    assert main(["coeff", "--window", "nope"]) == 2


def test_unknown_spectrum_is_config_error(capsys):
    assert main(["coeff", "--spectrum", "tmf", "--window", "0:1,0:1"]) == 2


def test_unknown_command_is_config_error(capsys):
    assert main(["frobnicate"]) == 2


def test_format_must_fit_command(capsys):
    assert main(["coeff", "--format", "svg", "--window", "0:1,0:1"]) == 2
    assert main(["chart", "--n", "1", "--format", "csv"]) == 2


def test_missing_n_is_config_error(capsys):
    assert main(["coeff", "--spectrum", "bprn", "--window", "0:1,0:1"]) == 2
    assert main(["blocks", "bb", "--window", "0:1,0:1"]) == 2


def test_bad_caps_and_jobs_are_config_errors(capsys):
    assert main(["hfpss", "pages", "--caps", "fast",
                 "--window", "0:0,0:0"]) == 2
    assert capsys.readouterr().err.startswith("error: caps must be")
    assert main(["coeff", "--jobs", "0", "--window", "0:0,0:0"]) == 2


@pytest.mark.parametrize("argv", [
    ("verify", "--n", "-1"),
    ("hfpss", "tate", "--n", "-2"),
    ("blocks", "bb", "--n", "40"),
    ("coeff", "--spectrum", "bprn", "--n", str(MAX_N + 1)),
])
def test_out_of_range_n_is_config_error(capsys, argv):
    start = time.monotonic()
    assert main(list(argv)) == 2
    assert time.monotonic() - start < 0.5
    err = capsys.readouterr().err
    assert err.startswith(f"error: --n must be in 0..{MAX_N}")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("coeff", "--window", f"0:{MAX_COORD + 1},0:0"),
    ("verify", "--n", "2", "--window", f"-{MAX_COORD + 1}:0,0:0"),
    ("chart", "bpr", "--window", "-1000000:1000000,-1:1"),
    ("hfpss", "tate", "--n", "1", "--window", "1000:0,0:0"),
    ("hfpss", "pages", "--caps", "-5", "--window", "0:0,0:0"),
    ("hfpss", "pages", "--caps", str(MAX_CAPS + 1)),
    ("hfpss", "pages", "--caps", "0,0", "--window", "0:0,0:0"),
    ("hfpss", "pages", "--caps", "40,-1"),
    ("hfpss", "pages", "--caps", "40,4", "--window", "0:0,0:0"),
    ("hfpss", "pages", "--caps", "", "--window", "0:0,0:0"),
    ("hfpss", "pages", "--n", "1", "--window", "0:4,-4:0", "--format", "csv"),
])
def test_oversized_window_and_bad_caps_are_config_errors(capsys, argv):
    start = time.monotonic()
    assert main(list(argv)) == 2
    assert time.monotonic() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ("coeff", "--spectrum", "bpr", "--window", "-2:2,-2:2"),
    ("chart", "bpr", "--window", "-3:3,-3:3"),
    ("verify", "--spectrum", "bpr", "--window", "-2:2,0:0"),
    ("hfpss", "einf", "--window", "-2:2,-2:2"),
], ids=lambda argv: argv[0])
def test_caps_outside_hfpss_pages_is_rejected(capsys, argv):
    # only hfpss pages reads --caps; the other commands do not take it
    assert run(capsys, *argv)[0] == 0
    for caps in ("0", "60"):
        assert run(capsys, *argv, "--caps", caps) == (2, ""), caps


def test_caps_bound_the_e2_page_of_hfpss_pages(capsys):
    argv = ("hfpss", "pages", "--n", "1", "--window", "0:4,-4:0")
    code, out = run(capsys, *argv, "--caps", "4")
    assert code == 0
    assert (code, out) != run(capsys, *argv)


def test_window_at_the_coordinate_limit_runs(capsys):
    code, out = run(capsys, "hfpss", "tate", "--n", "1",
                    "--window", f"-{MAX_COORD}:{MAX_COORD},0:0")
    assert code == 0
    assert json.loads(out)["window"] == [-MAX_COORD, MAX_COORD, 0, 0]


def test_out_to_a_missing_directory_is_config_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x"
    start = time.monotonic()
    assert main(["verify", "--n", "1", "--out", str(target),
                 "--window", "0:1,0:1"]) == 2
    assert time.monotonic() - start < 0.5
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --out directory does not exist")
    assert "Traceback" not in captured.err
    assert not target.parent.exists()


def test_failed_out_write_is_config_error(capsys, tmp_path):
    # the directory exists, but the target is a directory, not a file
    assert main(["verify", "--n", "1", "--out", str(tmp_path),
                 "--window", "0:1,0:1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write --out")
    assert "Traceback" not in captured.err


# --- coeff tables ----------------------------------------------------------------

def test_coeff_bpr_json_spot_rows(capsys):
    code, out = run(capsys, "coeff", "--window", "-2:2,-2:2")
    assert code == 0
    rows = json.loads(out)["rows"]
    by_degree = {tuple(r["degree"]): (r["free"], r["f2"]) for r in rows}
    assert by_degree[(0, 0)] == (1, 0)
    assert by_degree[(0, -1)] == (0, 1)
    assert by_degree[(1, 1)] == (1, 0)
    assert (0, 1) not in by_degree


def test_coeff_bprn_csv(capsys):
    code, out = run(capsys, "coeff", "--spectrum", "bprn", "--n", "1",
                    "--window", "-3:3,-3:3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "triv,sgn,free,f2"
    assert "2,-2,1,0" in lines
    assert "0,-1,0,1" in lines


def test_empty_window_gives_empty_table(capsys):
    code, out = run(capsys, "coeff", "--window", "2:1,0:0")
    assert code == 0
    assert json.loads(out)["rows"] == []
    code, out = run(capsys, "coeff", "--window", "2:1,0:0", "--format", "csv")
    assert code == 0
    assert out == "triv,sgn,free,f2\n"


def test_out_writes_the_same_bytes(capsys, tmp_path):
    code, out = run(capsys, "coeff", "--window", "-2:2,-2:2")
    target = tmp_path / "table.json"
    code2, nothing = run(capsys, "coeff", "--window", "-2:2,-2:2",
                         "--out", str(target))
    assert (code, code2, nothing) == (0, 0, "")
    assert target.read_text() == out


# --- hfpss -----------------------------------------------------------------------

def test_hfpss_einf_matches_api(capsys):
    code, out = run(capsys, "hfpss", "einf", "--n", "1",
                    "--window", "-4:4,-4:4")
    assert code == 0
    rows = {tuple(r["degree"]): (r["free"], r["f2"])
            for r in json.loads(out)["rows"]}
    for alpha, groups in rows.items():
        assert e_infinity_groups(1, Degree(*alpha)) == groups
    assert rows[(2, -2)] == (1, 0)
    assert (0, 1) not in rows   # evenness at rho - 1


def test_coeff_is_the_untruncated_final_page(capsys):
    # the ring is the final page at n = infinity, byte for byte
    window = ("--window", "-12:12,-12:12", "--format", "csv")
    code, ring = run(capsys, "coeff", *window)
    code2, einf = run(capsys, "hfpss", "einf", *window)
    assert (code, code2) == (0, 0)
    assert ring.count("\n") > 100 and ring == einf


def test_hfpss_tate_and_geo_periodicity(capsys):
    code, out = run(capsys, "hfpss", "tate", "--n", "1",
                    "--window", "-8:8,0:0")
    assert code == 0
    trivs = [r["degree"][0] for r in json.loads(out)["rows"]]
    assert trivs == [-8, -4, 0, 4, 8]
    code, out = run(capsys, "hfpss", "geo", "--n", "1", "--window", "-8:8,0:0")
    assert code == 0
    trivs = [r["degree"][0] for r in json.loads(out)["rows"]]
    assert trivs == [-8, -4]


def test_hfpss_pages_final_page_fires_nothing(capsys):
    code, out = run(capsys, "hfpss", "pages", "--n", "1",
                    "--window", "-3:3,-3:3")
    assert code == 0
    pages = json.loads(out)["pages"]
    assert pages[-1]["fired"] == []
    assert any(page["fired"] for page in pages[:-1])


# --- blocks and lc ---------------------------------------------------------------

def test_blocks_assembled_lists_u_translates(capsys):
    code, out = run(capsys, "blocks", "--n", "1", "--window", "-6:6,-6:6")
    assert code == 0
    rows = {tuple(r["degree"]): r for r in json.loads(out)["rows"]}
    assert rows[(0, 0)]["classes"] == ["1"]
    assert any("U^" in name for r in rows.values() for name in r["classes"])


def test_lc_table_matches_block_decomposition(capsys):
    code, out = run(capsys, "lc", "bb", "--n", "2",
                    "--window", "-2:13,0:0")
    assert code == 0
    rows = json.loads(out)["rows"]
    table = lc_of_block(2, "bb", d_lo=-2, d_hi=13)
    expected = [{"d": d, "s": s, "column": col, "module": mod.describe()}
                for d in sorted(table) for s, col, mod in table[d]]
    assert rows == expected


def test_lc_oracle_runs_clean(capsys):
    code, out = run(capsys, "lc", "--n", "1", "--oracle",
                    "--window", "-6:6,0:0")
    assert code == 0
    body = json.loads(out)
    assert body["diffs"] == 0
    assert len(body["checked"]) == 10
    assert body["convention"]


def test_lc_oracle_empty_window_does_no_oracle_work(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("oracle work on an empty window")

    monkeypatch.setattr(localcoh, "check_closed_form", refuse)
    monkeypatch.setattr(localcoh, "convention_report", refuse)
    code, out = run(capsys, "lc", "--n", "2", "--oracle",
                    "--window", "1:0,0:0")
    assert code == 0
    assert json.loads(out) == {"command": "lc", "oracle": True, "n": 2,
                               "range": None, "checked": [],
                               "convention": [], "diffs": 0}
    for fmt in ("csv", "ascii"):
        code, out = run(capsys, "lc", "--n", "1", "--oracle",
                        "--window", "0:1,2:1", "--format", fmt)
        assert code == 0
        assert out.replace(",", " ").split() == ["module", "k_lo", "k_hi",
                                                "diffs"]


def test_lc_oracle_csv_has_one_row_per_module(capsys):
    code, out = run(capsys, "lc", "bb", "--n", "1", "--oracle",
                    "--window", "0:1,0:0", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["module", "k_lo", "k_hi", "diffs"]] + [
        [mod.describe(), "0", "1", "0"] for mod in localcoh.CATALOGUE[1]]
    # the oracle reads no block mode: `lc` is `lc bb`, and nb is refused
    assert run(capsys, "lc", "--n", "1", "--oracle",
               "--window", "0:1,0:0", "--format", "csv") == (0, out)
    assert run(capsys, "lc", "nb", "--n", "1", "--oracle",
               "--window", "0:1,0:0", "--format", "csv") == (2, "")
    code, out = run(capsys, "lc", "--n", "1", "--oracle",
                    "--window", "0:1,0:0", "--format", "ascii")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["module", "k_lo", "k_hi", "diffs"]
    assert [line.split() for line in lines[1:]] == [
        [mod.describe(), "0", "1", "0"] for mod in localcoh.CATALOGUE[1]]


# --- verify ----------------------------------------------------------------------

def test_verify_bprn_clean_and_bit_stable(capsys):
    code, first = run(capsys, "verify", "--spectrum", "bprn", "--n", "1",
                      "--window", "-10:10,-10:10")
    assert code == 0
    report = json.loads(first)
    assert "0 mismatches" in report["summary"]
    code, second = run(capsys, "verify", "--spectrum", "bprn", "--n", "1",
                       "--window", "-10:10,-10:10")
    assert (code, second) == (0, first)


def test_verify_mutated_ssdata_fails(capsys, tmp_path):
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps({
        "n": 2,
        "differentials": [
            {"block": "bb", "source": [0, -7], "target": [-1, -7], "rank": 1},
            {"block": "bb", "source": [0, -8], "target": [-1, -8], "rank": 1},
            {"block": "bb", "source": [0, -9], "target": [-1, -9], "rank": 1},
        ],
        "extensions": [
            {"block": "bb", "degree": [-4, -6]},
            {"block": "bb", "degree": [0, -10]},
        ],
    }))
    code, out = run(capsys, "verify", "--spectrum", "bprn", "--n", "2",
                    "--window", "-14:14,-14:14", "--ssdata", str(mutated))
    assert code == 1
    assert json.loads(out)["summary"].startswith("n=2: 841 degrees")


def test_verify_without_shipped_ssdata_says_so(capsys):
    code, out = run(capsys, "verify", "--n", "3",
                    "--window", "-20:20,-20:20")
    assert code == 1
    assert json.loads(out)["summary"].endswith(
        "24 mismatches; no SSData shipped for n=3")


# valid JSON of a shape SSData cannot read, inline or in a file
_MALFORMED_SSDATA = (
    ("file", [1, 2]),
    ("file", "x"),
    ("inline", {"n": 2, "differentials": 3}),
    ("inline", {"n": 2, "extensions": [5]}),
    ("inline", {"n": 2, "differentials": [
        {"block": "bb", "source": 5, "target": [-1, -7]}]}),
    ("inline", {"n": 2, "differentials": [
        {"block": "bb", "source": [0, -7], "target": [-1, -7],
         "rank": None}]}),
    ("inline", {"n": 2, "extensions": [{"block": "bb", "degree": None}]}),
    # int() would truncate or coerce each of these to a height, a rank or
    # a degree the input does not hold
    ("inline", {"n": 2.5}),
    ("inline", {"n": 2.9}),
    ("inline", {"n": "2"}),
    ("inline", {"n": 2, "differentials": [
        {"block": "bb", "source": [0.9, -7.2], "target": [-1, -7]}]}),
    ("inline", {"n": 2, "differentials": [
        {"block": "bb", "source": [0, -7], "target": [-1, -7],
         "rank": 1.5}]}),
    ("inline", {"n": 2, "differentials": [
        {"block": "bb", "source": [0, -7], "target": [-1, -7],
         "rank": True}]}),
    ("inline", {"n": 2, "extensions": [
        {"block": "bb", "degree": [-4.4, True]}]}),
    ("inline", {"n": 2, "extensions": [{"block": "bb", "degree": "12"}]}),
    # a misspelt key would load as absent data: no differentials, rank 1
    ("inline", {"n": 2, "differentails": []}),
    ("inline", {"n": 2, "differentials": [
        {"block": "bb", "source": [0, -7], "target": [-1, -7], "rnak": 2}]}),
)


def test_verify_unreadable_ssdata_is_config_error(capsys, tmp_path):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("[not ssdata")
    assert main(["verify", "--spectrum", "bprn", "--n", "1",
                 "--ssdata", str(garbage)]) == 2
    assert main(["verify", "--spectrum", "bprn", "--n", "1",
                 "--ssdata", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    for where, data in _MALFORMED_SSDATA:
        ssdata = json.dumps(data)
        if where == "file":
            garbage.write_text(ssdata)
            ssdata = str(garbage)
        code = main(["verify", "--n", "2", "--window", "0:0,0:0",
                     "--ssdata", ssdata])
        captured = capsys.readouterr()
        assert code == 2, data
        assert captured.out == ""
        assert captured.err.startswith("error: cannot load ssdata: "), data


def test_verify_ssdata_of_another_height_is_config_error(capsys, tmp_path):
    other = tmp_path / "height1.json"
    other.write_text(json.dumps({"n": 1}))
    code = main(["verify", "--n", "2", "--ssdata", str(other),
                 "--window", "-2:2,-2:2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "SSData is for n=1, not n=2" in captured.err
    assert "Traceback" not in captured.err


def _clear_block_memos():
    blocks.diagonal_decompose.cache_clear()
    for memo in (duality._lc_row, duality._block_rows,
                 duality._placement_line, duality.gorenstein_table):
        memo.cache_clear()


def test_unclassified_cell_exits_1_without_traceback(capsys, monkeypatch):
    # a cell that fits no catalogue module is a failed self-check: exit 1
    monkeypatch.delenv("REALSPECTRA_CACHE_DIR", raising=False)
    monkeypatch.setattr(blocks, "_cell_candidate",
                        lambda n, d, l, kind: localcoh.p_module(
                            ref_degree(l, d)))
    _clear_block_memos()
    try:
        for argv in (["lc", "--n", "1", "--window", "-4:4,0:0"],
                     ["lc", "nb", "--n", "2", "--window", "-4:4,0:0"],
                     ["verify", "--n", "1", "--window", "-3:3,-3:3"]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 1, argv
            assert captured.out == ""
            assert captured.err.startswith("inconsistent: diagonal "), argv
            assert "Traceback" not in captured.err
    finally:
        _clear_block_memos()


def test_verify_quotient_lines_clean(capsys):
    code, out = run(capsys, "verify", "--spectrum", "bpr",
                    "--window", "-3:3,0:0")
    assert code == 0
    assert "0 mismatches" in json.loads(out)["summary"]


def test_verify_empty_window_is_clean(capsys):
    code, out = run(capsys, "verify", "--spectrum", "bprn", "--n", "1",
                    "--window", "1:0,0:0")
    assert code == 0


# --- charts ----------------------------------------------------------------------

def test_chart_ascii_shows_all_three_glyphs(capsys):
    code, out = run(capsys, "chart", "assembled", "--n", "1",
                    "--window", "-6:6,-6:6")
    assert code == 0
    assert "□" in out and "○" in out and "•" in out
    doubled_row = next(line for line in out.splitlines()
                       if line.startswith("  -2 "))
    assert doubled_row[6 + (2 - -6)] == "○"   # 2u sits at (2, -2)


def test_chart_svg_structure(capsys):
    code, out = run(capsys, "chart", "bb", "--n", "1",
                    "--window", "-4:4,-4:4", "--format", "svg")
    assert code == 0
    assert out.startswith("<svg") and out.rstrip().endswith("</svg>")
    assert "<rect" in out and "<circle" in out


def test_chart_empty_region_renders_empty_grid(capsys):
    code, out = run(capsys, "chart", "bb", "--n", "1",
                    "--window", "-3:-1,1:3")
    assert code == 0
    rows = [line.split("|")[1] for line in out.splitlines() if "|" in line]
    assert rows and all(not row.strip() for row in rows)


def test_chart_action_segments():
    one = Monomial(0, 0)
    cells = {Degree(0, 0): [BasisEntry(one, 1, False)],
             Degree(0, -1): [BasisEntry(one.times(Monomial(1, 0)), 1, True)],
             Degree(1, 1): [BasisEntry(one.times(Monomial(0, 0, (1,))), 1,
                                       False)],
             Degree(-1, 1): [TowerClass(1)]}   # no monomial: no segment
    window = Window(-1, 2, -2, 2)
    pairs = _actions(cells, max_index=2)
    assert (Degree(0, 0), Degree(0, -1)) in pairs
    assert (Degree(0, 0), Degree(1, 1)) in pairs
    assert not any(Degree(-1, 1) in pair for pair in pairs)
    art = svg_chart(cells, window)
    assert art.count("<line") > 4   # grid plus the two action segments


def test_ascii_chart_multiplicity_digit():
    cells = {Degree(0, 0): [BasisEntry(Monomial(0, 0), 1, False),
                            TowerClass(0)]}
    art = ascii_chart(cells, Window(0, 0, 0, 0))
    assert "|2|" in art


# --- caching ---------------------------------------------------------------------

def test_cache_replays_code_and_text(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REALSPECTRA_CACHE_DIR", str(tmp_path))
    args = ("verify", "--spectrum", "bprn", "--n", "1",
            "--window", "-8:8,-8:8")
    first = run(capsys, *args)
    assert len(list(tmp_path.iterdir())) == 1
    assert run(capsys, *args) == first


def test_cache_misses_after_the_ssdata_file_changes(capsys, tmp_path,
                                                    monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("REALSPECTRA_CACHE_DIR", str(cache))
    data = tmp_path / "ssdata.json"
    data.write_text(json.dumps(ssdata_dict(default_ssdata(2))))
    args = ("verify", "--n", "2", "--ssdata", str(data),
            "--window", "-10:10,-10:10")
    code, clean = run(capsys, *args)
    assert code == 0
    assert run(capsys, *args) == (0, clean)
    # the same argv over rewritten data must be recomputed, not replayed
    data.write_text(json.dumps({"n": 2}))
    code, out = run(capsys, *args)
    assert code == 1
    assert json.loads(out)["summary"].startswith("n=2: 441 degrees")
    assert sorted(p.suffix for p in cache.iterdir()) == [".json", ".json"]


def test_ssdata_file_is_read_once_per_run(capsys, tmp_path, monkeypatch):
    # the run parses the text its entry keys on, so an edit made while it
    # runs cannot be stored under the old text's key
    monkeypatch.setenv("REALSPECTRA_CACHE_DIR", str(tmp_path / "cache"))
    data = tmp_path / "ssdata.json"
    data.write_text(json.dumps({"n": 2}))
    opened = []
    real_open = open

    def counted(file, *args, **kwargs):
        if file == str(data):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counted)
    args = ("verify", "--n", "2", "--ssdata", str(data),
            "--window", "-2:2,-2:2")
    miss = run(capsys, *args)
    assert miss[0] == 0 and len(opened) == 1
    assert run(capsys, *args) == miss and len(opened) == 2   # the hit's key


def test_cache_key_holds_the_package_bytes(tmp_path, monkeypatch):
    # an entry written by other code is never read: one byte changed in a
    # module, or in a shipped SSData file, gives another key
    monkeypatch.setenv("REALSPECTRA_CACHE_DIR", str(tmp_path / "cache"))
    cfg = cli._config_from(cli._build_parser().parse_args(["coeff"]))
    shipped = cli._cache_path(cfg)
    package = tmp_path / "realspectra"
    shutil.copytree(cli._PACKAGE, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(cli, "_PACKAGE", str(package))
    assert cli._cache_path(cfg) == shipped   # names and bytes, not the path
    keys = {shipped}
    for name in ("grading.py", "ssdata/gorenstein_n2.json"):
        path = package / name
        data = path.read_bytes()
        path.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))
        keys.add(cli._cache_path(cfg))
        path.write_bytes(data)
        assert cli._cache_path(cfg) == shipped
    assert len(keys) == 3


@pytest.mark.parametrize("entry", [
    '{"code": 0',                       # truncated
    '{"text": "stale"}',                # no code
    '{"code": "0", "text": "stale"}',   # code of the wrong type
    '[0, "stale"]',                     # not a dict
])
def test_malformed_cache_entry_is_recomputed(capsys, tmp_path, monkeypatch,
                                             entry):
    monkeypatch.setenv("REALSPECTRA_CACHE_DIR", str(tmp_path))
    args = ("verify", "--n", "1", "--window", "-2:2,-2:2")
    first = run(capsys, *args)
    [stored] = tmp_path.iterdir()
    stored.write_text(entry)
    code = main(list(args))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (*first, "")
    assert json.loads(stored.read_text()) == {"code": first[0],
                                              "text": first[1]}


def test_cache_keys_on_the_validated_config(capsys, tmp_path, monkeypatch):
    # argvs that validate to one config, --out aside, share one entry
    cache = tmp_path / "cache"
    monkeypatch.setenv("REALSPECTRA_CACHE_DIR", str(cache))
    target = tmp_path / "table.json"
    seen = {run(capsys, *argv) for argv in (
        ("coeff", "--window", "-2:2,-2:2"),
        ("coeff", "--format", "json", "--window=-2:2,-2:2"),
        ("coeff", "--spectrum", "bpr", "--window", "-2:2,-2:2"),
        ("coeff", "--window", "-2:2,-2:2", "--out", str(target)))}
    [(code, out)] = seen - {(0, "")}
    assert code == 0 and out and target.read_text() == out
    assert len(list(cache.iterdir())) == 1


def test_unwritable_cache_dir_only_warns(capsys, tmp_path, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("REALSPECTRA_CACHE_DIR", str(blocker / "cache"))
    args = ["verify", "--n", "1", "--window", "-2:2,-2:2"]
    code = main(args)
    captured = capsys.readouterr()
    monkeypatch.delenv("REALSPECTRA_CACHE_DIR")
    assert (code, captured.out) == run(capsys, *args)
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: ")
    assert "Traceback" not in captured.err


def _mismatching_ssdata(tmp_path) -> str:
    path = tmp_path / "empty_n2.json"
    path.write_text(json.dumps({"n": 2}))
    return str(path)


# one argv per command and format; the verify calls with empty SSData exit 1
REPLAYED = [
    ("coeff", "--window", "-2:2,-2:2"),
    ("coeff", "--window", "-2:2,-2:2", "--format", "csv"),
    ("coeff", "--spectrum", "bprn", "--n", "1", "--window", "-2:2,-2:2",
     "--format", "ascii"),
    ("hfpss", "einf", "--n", "1", "--window", "-3:3,-3:3"),
    ("hfpss", "tate", "--n", "1", "--window", "-8:8,0:0", "--format", "csv"),
    ("hfpss", "pages", "--n", "1", "--window", "-3:3,-3:3",
     "--format", "ascii"),
    ("blocks", "bb", "--n", "1", "--window", "-3:3,-3:3"),
    ("blocks", "nb", "--n", "1", "--window", "-3:3,-3:3", "--format", "csv"),
    ("blocks", "--n", "1", "--window", "-3:3,-3:3", "--format", "ascii"),
    ("lc", "bb", "--n", "1", "--window", "-2:6,0:0"),
    ("lc", "nb", "--n", "1", "--window", "-6:2,0:0", "--format", "csv"),
    ("lc", "--n", "1", "--oracle", "--window", "-2:2,0:0",
     "--format", "ascii"),
    ("verify", "--n", "1", "--window", "-3:3,-3:3"),
    ("verify", "--n", "2", "--ssdata", "MISMATCHING", "--window",
     "-6:6,-6:6"),
    ("verify", "--n", "2", "--ssdata", "MISMATCHING", "--window",
     "-6:6,-6:6", "--format", "ascii"),
    ("chart", "bb", "--n", "1", "--window", "-3:3,-3:3"),
    ("chart", "bpr", "--window", "-3:3,-3:3", "--format", "svg"),
]


@pytest.mark.parametrize("argv", REPLAYED)
def test_cache_hit_replays_the_miss(capsys, tmp_path, monkeypatch, argv):
    cache = tmp_path / "cache"
    monkeypatch.setenv("REALSPECTRA_CACHE_DIR", str(cache))
    argv = [_mismatching_ssdata(tmp_path) if a == "MISMATCHING" else a
            for a in argv]
    miss = run(capsys, *argv)
    assert miss[0] == (1 if "--ssdata" in argv else 0)
    [entry] = cache.iterdir()
    written = entry.stat().st_mtime_ns
    assert run(capsys, *argv) == miss
    assert entry.stat().st_mtime_ns == written


# --- the front end stays light --------------------------------------------------

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
LIGHT = ["realspectra", "realspectra.cli", "realspectra.grading"]
# the package, numpy, and the dataclass machinery, if the interpreter had
# not loaded them before the package
PROBE = ("import sys\n"
         "before = set(sys.modules)\n"
         "from realspectra.cli import main\n"
         "code = main(sys.argv[1:])\n"
         "print(sorted(m for m in set(sys.modules) - before\n"
         "             if m.split('.')[0] in ('realspectra', 'numpy',\n"
         "                                    'dataclasses', 'inspect')))\n"
         "sys.exit(code)\n")


def fresh_process(argv, cache=None) -> tuple[int, str]:
    """main(argv) in a new interpreter; its exit code and the package,
    numpy, dataclasses and inspect modules it loaded."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REALSPECTRA_CACHE_DIR", None)
    if cache is not None:
        env["REALSPECTRA_CACHE_DIR"] = str(cache)
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert "Traceback" not in done.stderr
    return done.returncode, done.stdout.splitlines()[-1]


def test_cache_hit_loads_no_compute_module(tmp_path):
    argv = ["verify", "--n", "1", "--window", "-2:2,-2:2"]
    code, loaded = fresh_process(argv, tmp_path)
    assert code == 0 and "'realspectra.commands'" in loaded   # the miss computes
    assert fresh_process(argv, tmp_path) == (0, repr(LIGHT))


@pytest.mark.parametrize("argv", [
    ["blocks", "bb", "--n", "40"],          # config error
    ["coeff", "--jobs", "2"],               # argparse error
    ["lc", "--oracle", "--n", "3"],         # no oracle catalogue at n = 3
    ["hfpss", "pages", "--n", "1", "--format", "csv"],   # a log, no table
    ["blocks", "bb"],                       # missing --n
    ["coeff", "--spectrum", "tmf"],         # unknown spectrum
    ["coeff", "--caps", "0"],               # a flag coeff does not take
    ["verify", "--spectrum", "bpr", "--n", "1"],   # an --n nothing reads
    ["hfpss", "einf", "--caps", "0"],       # --caps outside hfpss pages
    ["verify", "--spectrum", "bpr", "--ssdata", "{}"],   # ssdata, no bprn
    ["verify", "--n", "2", "--ssdata", os.path.join(SRC, "missing.json")],
    ["verify", "--n", "2", "--window", "-12:12,-12:12", "--out", SRC],
    ["lc", "nb", "--oracle", "--n", "1"],   # the oracle reads no nb mode
])
def test_rejected_argv_loads_no_compute_module(argv):
    assert fresh_process(argv) == (2, repr(LIGHT))


def test_a_rho_line_below_the_bound_is_rejected_before_any_compute():
    # the window's trivial minimum is the deepest rho line checked
    window = f"{cli.MIN_RHO_LINE - 1}:0,0:0"
    argv = ["verify", "--spectrum", "bpr", "--window", window]
    assert fresh_process(argv) == (2, repr(LIGHT))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 2
    assert err.getvalue() == (
        f"error: verify --spectrum bpr checks rho lines down to k = "
        f"{cli.MIN_RHO_LINE}, got {cli.MIN_RHO_LINE - 1}\n")
    # the bound itself is accepted; no other command or spectrum reads it
    for accepted in (argv[:-1] + [f"{cli.MIN_RHO_LINE}:0,0:0"],
                     ["verify", "--n", "1", "--window", window],
                     ["coeff", "--window", window]):
        parsed = cli._build_parser().parse_args(cli._glue_window(accepted))
        cli._config_from(parsed)   # raises no ConfigError


def test_oracle_heights_are_the_catalogue_heights():
    from realspectra import cli, localcoh
    assert cli.ORACLE_HEIGHTS == tuple(localcoh.CATALOGUE)


def test_exit_1_failures_are_one_class_in_every_layer():
    # `commands` names them from `coefficients`; the layers that raise them
    # re-export the same class objects
    from realspectra import coefficients, commands, duality, hfpss
    assert commands.INCONSISTENT == (
        coefficients.InternalInconsistency, coefficients.InconsistentSSData,
        coefficients.UnknownExtension, AssertionError)
    assert hfpss.InternalInconsistency is coefficients.InternalInconsistency
    assert duality.InternalInconsistency is coefficients.InternalInconsistency
    assert duality.InconsistentSSData is coefficients.InconsistentSSData


def test_max_caps_is_the_largest_final_page_filtration_bound():
    # every final-page class of an accepted window lies within an accepted
    # cap, and no larger cap is accepted
    from realspectra.coefficients import _a_exponent_bound
    assert MAX_CAPS == max(_a_exponent_bound(alpha, n)
                           for alpha in Window.square(MAX_COORD)
                           for n in (None, *range(MAX_N + 1)))


def test_the_largest_pages_listing_is_rejected_before_it_is_built(capsys):
    # the listing grows with the window, the cap and the vbar indices, so
    # the worst accepted case is the full ring on the MAX_COORD box at
    # MAX_CAPS; it and the top height are rejected, naming their counts
    from realspectra.hfpss import e2_count
    box = f"-{MAX_COORD}:{MAX_COORD},-{MAX_COORD}:{MAX_COORD}"
    counts = {n: e2_count(n, Window.square(MAX_COORD), MAX_CAPS)
              for n in (None, *range(MAX_N + 1))}
    assert counts[None] == max(counts.values()) > MAX_E2_CLASSES
    for height in ([], ["--n", str(MAX_N)]):
        argv = ["hfpss", "pages", "--window", box, "--caps", str(MAX_CAPS)]
        assert main(argv + height) == 2
        count = counts[int(height[1]) if height else None]
        assert capsys.readouterr().err == (
            f"error: hfpss pages would list {count} E_2 classes, over the "
            f"budget of {MAX_E2_CLASSES}; narrow --window or lower --caps\n")


def test_caps_at_the_limit_runs(capsys):
    code, out = run(capsys, "hfpss", "pages", "--n", "1", "--window",
                    "0:0,0:0", "--caps", str(MAX_CAPS))
    assert code == 0 and json.loads(out)["pages"]


def test_default_caps_share_one_cache_entry(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REALSPECTRA_CACHE_DIR", str(tmp_path))
    argv = ["hfpss", "pages", "--n", "1", "--window", "0:3,-3:0"]
    plain = run(capsys, *argv)
    assert plain[0] == 0 and run(capsys, *argv, "--caps", "40") == plain
    assert len(list(tmp_path.iterdir())) == 1


# the layers below `commands` that a cache miss of each command loads:
# assembling the ring reads no local cohomology, so only what reads it
# loads the Koszul layers
RING_LAYERS = ["blocks", "hfpss"]
BLOCK_LAYERS = ["abelian", "blocks", "hfpss", "localcoh"]


@pytest.mark.parametrize("argv, layers", [
    (["coeff", "--window", "-1:1,-1:1"], []),
    (["hfpss", "einf", "--n", "1", "--window", "-1:1,-1:1"], ["hfpss"]),
    (["hfpss", "pages", "--window", "0:1,-1:0"], ["hfpss"]),
    (["chart", "bpr", "--window", "-1:1,-1:1"], ["charts"]),
    (["blocks", "bb", "--n", "1", "--window", "-1:1,-1:1"], RING_LAYERS),
    (["lc", "bb", "--n", "1", "--window", "-1:1,0:0"], BLOCK_LAYERS),
    (["coeff", "--spectrum", "bprn", "--n", "1", "--window", "-1:1,-1:1"],
     RING_LAYERS),
    (["coeff", "--spectrum", "bprn", "--n", "1", "--window", "-2:2,-2:2"],
     RING_LAYERS),
    (["chart", "assembled", "--n", "1", "--window", "-1:1,-1:1"],
     RING_LAYERS + ["charts"]),
    (["lc", "--oracle", "--n", "1", "--window", "0:0,0:0"],
     ["abelian", "localcoh"]),
    (["verify", "--n", "1", "--window", "-1:1,-1:1"],
     BLOCK_LAYERS + ["duality"]),
    (["verify", "--spectrum", "bpr", "--window", "0:0,0:0"],
     BLOCK_LAYERS + ["duality"]),
], ids=["coeff", "hfpss-einf", "hfpss-pages", "chart-bpr", "blocks", "lc",
        "coeff-bprn", "coeff-bprn-wide", "chart-assembled", "lc-oracle", "verify", "verify-bpr"])
def test_cache_miss_loads_only_the_layers_it_runs(argv, layers):
    loaded = LIGHT + [f"realspectra.{m}"
                      for m in ["coefficients", "commands", *layers]]
    assert fresh_process(argv) == (0, repr(sorted(loaded)))


@pytest.mark.parametrize("argv", [
    ["lc", "--oracle", "--n", "1"],
    ["verify", "--n", "1", "--window", "-2:2,-2:2"],
])
def test_cache_miss_computes_without_numpy(tmp_path, argv):
    # a None entry in sys.modules makes every `import numpy` fail
    probe = ("import sys\n"
             "sys.modules['numpy'] = None\n"
             "from realspectra.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=SRC, REALSPECTRA_CACHE_DIR=str(tmp_path))
    done = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    [entry] = tmp_path.iterdir()   # it was a miss, and it was stored


# --- python -m realspectra.cli ----------------------------------------------------

def module_run(argv) -> subprocess.CompletedProcess:
    """`python -m realspectra.cli argv` in a new interpreter, no cache."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REALSPECTRA_CACHE_DIR", None)
    return subprocess.run([sys.executable, "-m", "realspectra.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)


def test_python_m_reports_config_errors_of_commands(tmp_path):
    # `commands` raises this one, after the compute stack is loaded
    garbage = tmp_path / "garbage.json"
    garbage.write_text("[not ssdata")
    done = module_run(["verify", "--n", "1", "--window", "0:0,0:0",
                       "--ssdata", str(garbage)])
    assert "Traceback" not in done.stderr
    assert done.returncode == 2
    assert done.stderr.startswith("error: cannot load ssdata: ")


def test_inline_ssdata_that_is_no_object_is_malformed():
    # inline JSON, not a path named `[]`, and not an object: malformed
    done = module_run(["verify", "--n", "2", "--ssdata", "[]"])
    assert done.returncode == 2
    assert "malformed SSData" in done.stderr
    assert "Traceback" not in done.stderr


def test_missing_n_message_names_the_spectrum(capsys):
    # coeff has no mode: the message joins only the parts it has
    assert main(["coeff", "--spectrum", "bprn"]) == 2
    assert capsys.readouterr().err == "error: coeff --spectrum bprn needs --n\n"


@pytest.mark.parametrize("argv, message", [
    (["blocks", "bb"], "blocks bb needs --n"),
    (["verify"], "verify needs --n"),
    (["chart", "nb", "--window", "2:1,0:0"], "chart nb needs --n"),
    (["coeff", "--n", "1"], "coeff reads no --n"),
    (["verify", "--spectrum", "bpr", "--n", "1"],
     "verify --spectrum bpr reads no --n"),
    (["chart", "bpr", "--n", "2"], "chart bpr reads no --n"),
])
def test_n_messages_name_the_invocation(capsys, argv, message):
    # a --spectrum at the command's default goes unnamed
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_python_m_prints_what_main_prints(capsys):
    argv = ["hfpss", "einf", "--n", "2", "--window", "-3:3,-3:3"]
    done = module_run(argv)
    assert (done.returncode, done.stdout) == run(capsys, *argv)
    assert done.returncode == 0 and done.stdout


# --- fuzzed argv ----------------------------------------------------------------

FUZZ_MODES = {
    "coeff": (),
    "hfpss": ("einf", "pages", "tate", "geo"),
    "blocks": ("bb", "nb", "assembled"),
    "lc": ("bb", "nb"),
    "verify": (),
    "chart": ("bb", "nb", "assembled", "bpr"),
}
FUZZ_FORMATS = ("json", "csv", "ascii", "svg")
# the flags each command takes beyond --n, --window, --format and --out,
# and the values drawn for each (None: a switch)
FUZZ_OWN = {"coeff": ("--spectrum",), "hfpss": ("--caps",),
            "lc": ("--oracle",), "verify": ("--spectrum", "--ssdata")}
FUZZ_VALUES = {"--spectrum": ("bpr", "bprn"), "--caps": ("0", "4", "40"),
               "--oracle": (None,), "--ssdata": ('{"n": 1}', '{"n": 2}')}
FUZZ_SECONDS = 30   # per call; far above any call here, so only a hang trips


@st.composite
def fuzz_argv(draw) -> list[str]:
    """Any command with one of its modes (now and then a foreign one) or
    none, n in {None, 0, 1, 2}, a window within radius 3 (now and then
    empty), any format or none, each flag of the command's own or not, and
    now and then one flag the command does not take."""
    command = draw(st.sampled_from(sorted(FUZZ_MODES)))
    argv = [command]
    mode = draw(st.sampled_from((None, None, "bpr") + FUZZ_MODES[command] * 2))
    if mode:
        argv.append(mode)
    n = draw(st.sampled_from((None, 0, 1, 2)))
    if n is not None:
        argv += ["--n", str(n)]
    coords = [sorted(draw(st.lists(st.integers(-3, 3), min_size=2,
                                   max_size=2))) for _ in "ts"]
    if draw(st.sampled_from((False, False, False, True))):
        coords[0].reverse()
    argv += ["--window", ",".join(f"{lo}:{hi}" for lo, hi in coords)]
    fmt = draw(st.sampled_from((None,) + FUZZ_FORMATS))
    if fmt:
        argv += ["--format", fmt]
    own = FUZZ_OWN.get(command, ())
    flags = [flag for flag in own if draw(st.booleans())]
    if draw(st.sampled_from((False,) * 7 + (True,))):
        flags.append(draw(st.sampled_from(
            sorted(set(FUZZ_VALUES) - set(own)))))
    for flag in flags:
        value = draw(st.sampled_from(FUZZ_VALUES[flag]))
        argv += [flag] if value is None else [flag, value]
    return argv


def captured_main(argv) -> tuple[int, str, str]:
    """main(argv) in process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert time.monotonic() - start < FUZZ_SECONDS, argv
    return code, out.getvalue(), err.getvalue()


# 125 examples, about 50 of which compute and the rest stop at exit 2;
# 1-2 s of tier-1
@settings(max_examples=125, deadline=None)
@given(argv=fuzz_argv())
def test_fuzzed_argv_ends_cleanly_and_replays(argv):
    with tempfile.TemporaryDirectory() as cache, \
            mock.patch.dict(os.environ, {"REALSPECTRA_CACHE_DIR": cache}):
        code, out, err = captured_main(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err, argv
        again, out_again, _ = captured_main(argv)
    assert (again, out_again) == (code, out), argv


# --- the README's examples --------------------------------------------------------

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "README.md")


def readme_commands() -> list[list[str]]:
    """Each `realspectra ...` line of the README's command block, as argv."""
    with open(README) as handle:
        text = handle.read()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    return [shlex.split(line.split("#", 1)[0])[1:] for line in lines
            if line.startswith("realspectra ")]


def test_readme_has_command_examples():
    assert len(readme_commands()) >= 8


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_runs(capsys, tmp_path, argv):
    argv = list(argv)
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
    else:
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 0, capsys.readouterr().err
