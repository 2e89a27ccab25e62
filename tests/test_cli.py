"""Command line surface: exit codes, table formats, charts, caching."""

import json
import time

import pytest

from realspectra.blocks import lc_of_block
from realspectra.charts import ChartClass, ascii_chart, svg_chart, _actions
from realspectra.cli import MAX_N, main
from realspectra.coefficients import Monomial
from realspectra.duality import default_ssdata
from realspectra.grading import Degree, Window
from realspectra.hfpss import e_infinity_groups


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
    assert main(["coeff", "--caps", "fast", "--window", "0:0,0:0"]) == 2
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


def test_jobs_do_not_change_output(capsys):
    args = ("coeff", "--spectrum", "bprn", "--n", "2", "--window", "-5:5,-5:5")
    assert run(capsys, *args) == run(capsys, *args, "--jobs", "3")


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


def test_verify_unreadable_ssdata_is_config_error(capsys, tmp_path):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("[not ssdata")
    assert main(["verify", "--spectrum", "bprn", "--n", "1",
                 "--ssdata", str(garbage)]) == 2
    assert main(["verify", "--spectrum", "bprn", "--n", "1",
                 "--ssdata", str(tmp_path / "missing.json")]) == 2


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
    cells = {Degree(0, 0): [ChartClass(1, False, one)],
             Degree(0, -1): [ChartClass(1, True, one.times(Monomial(1, 0)))],
             Degree(1, 1): [ChartClass(1, False,
                                       one.times(Monomial(0, 0, (1,))))]}
    window = Window(-1, 2, -2, 2)
    pairs = _actions(cells, window, max_index=2)
    assert (Degree(0, 0), Degree(0, -1)) in pairs
    assert (Degree(0, 0), Degree(1, 1)) in pairs
    art = svg_chart(cells, window)
    assert art.count("<line") > 4   # grid plus the two action segments


def test_ascii_chart_multiplicity_digit():
    cells = {Degree(0, 0): [ChartClass(1, False, None),
                            ChartClass(1, True, None)]}
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
    data.write_text(json.dumps(default_ssdata(2).to_dict()))
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
