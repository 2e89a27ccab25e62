"""Command line front end: tables, charts, and duality verification.

Commands
    coeff    graded coefficient groups of the full ring or a truncation
    hfpss    fixed point spectral sequence pages, final page, Tate data
    blocks   basic block bases (BB, NB) and their assembly
    lc       local cohomology tables of the blocks, with a Koszul oracle
    verify   Gorenstein duality (truncations) or quotient duality (full ring)
    chart    plane chart of classes, text or SVG

Shared flags: --n, --spectrum, --window, --caps, --format, --out,
--ssdata, --oracle, --jobs.  Window syntax is `a:b,c:d` (trivial range,
sign range); an empty range is allowed and yields an empty table.

--n is the truncation height, an integer from 0 to MAX_N (4); any
other value is a configuration error, reported before any computation.

Exit codes: 0 success or clean verification, 1 verification mismatch or
inconsistent data, 2 configuration error, 3 stabilization failure.

Set REALSPECTRA_CACHE_DIR to memoize finished runs.  An entry is keyed on
the package version, the argv and the sha256 of every input file the
argv names (the --ssdata file), so editing an input is never served a
stale result; entries are written atomically.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

from . import __version__, localcoh
from .blocks import (TowerClass, assemble, assemble_groups, bb_basis,
                     bb_groups, lc_of_block, nb_basis, nb_groups)
from .charts import ChartClass, Cells, ascii_chart, svg_chart
from .coefficients import (DEFAULT_CAPS, Caps, Monomial, QuotientIdeal,
                           StabilizationFailure, UnknownExtension,
                           group_in_degree, tower_group)
from .duality import (DualityReport, InconsistentSSData, load_ssdata,
                      verify_gorenstein, verify_quotient_duality)
from .grading import Degree, Window
from .hfpss import (InternalInconsistency, MismatchError,
                    e_infinity_groups, geometric_cofibre_groups,
                    run_differentials, tate_groups)


# largest accepted --n: costs grow with 2^n (U-powers per degree, diagonals
# per block), and on the default window `verify` at n = 5 or `lc` at n = 6
# already runs for over a minute
MAX_N = 4


class ConfigError(Exception):
    """Bad command line input; maps to exit code 2."""


@dataclasses.dataclass
class RunConfig:
    """Validated inputs of one run; window is None for an empty range."""

    command: str
    mode: str
    n: int | None
    spectrum: str
    window: Window | None
    caps: Caps
    fmt: str
    out: str | None
    ssdata: str | None
    oracle: bool
    jobs: int


_WINDOW_RE = re.compile(r"\s*(-?\d+)\s*:\s*(-?\d+)\s*,\s*(-?\d+)\s*:\s*(-?\d+)\s*$")

_FORMATS = {
    "coeff": ("json", "csv", "ascii"),
    "hfpss": ("json", "csv", "ascii"),
    "blocks": ("json", "csv", "ascii"),
    "lc": ("json", "csv", "ascii"),
    "verify": ("json", "ascii"),
    "chart": ("ascii", "svg"),
}


def _parse_window(text: str) -> Window | None:
    match = _WINDOW_RE.match(text)
    if not match:
        raise ConfigError(f"window must look like a:b,c:d, got {text!r}")
    t_lo, t_hi, s_lo, s_hi = map(int, match.groups())
    if t_lo > t_hi or s_lo > s_hi:
        return None
    return Window(t_lo, t_hi, s_lo, s_hi)


def _parse_caps(text: str) -> Caps:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return Caps(a_cap=int(parts[0]))
        if len(parts) == 2:
            return Caps(a_cap=int(parts[0]), rounds=int(parts[1]))
    except ValueError:
        pass
    raise ConfigError(f"caps must be A or A,R with integer bounds, got {text!r}")


def _require_n(cfg: RunConfig) -> int:
    if cfg.n is None:
        raise ConfigError(f"{cfg.command} {cfg.mode} needs --n".rstrip())
    return cfg.n


def _degrees(window: Window) -> list[Degree]:
    return sorted(window, key=lambda d: (d.triv, d.sgn))


def _map_degrees(fn, degrees, jobs: int) -> list:
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, degrees))
    return [fn(alpha) for alpha in degrees]


# --- table rendering ------------------------------------------------------------

def _envelope(cfg: RunConfig, rows: list[dict], **extra) -> dict:
    body = {"command": cfg.command, "rows": rows}
    if cfg.mode:
        body["mode"] = cfg.mode
    if cfg.n is not None:
        body["n"] = cfg.n
    if cfg.window is not None:
        body["window"] = [cfg.window.triv_min, cfg.window.triv_max,
                          cfg.window.sgn_min, cfg.window.sgn_max]
    body.update(extra)
    return body


def _emit_json(body: dict) -> str:
    return json.dumps(body, sort_keys=True, indent=1) + "\n"


def _emit_csv(header: list[str], rows: list[list]) -> str:
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return sink.getvalue()


def _emit_ascii(header: list[str], rows: list[list]) -> str:
    cells = [header] + [[str(x) for x in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths))
             for row in cells]
    return "\n".join(lines) + "\n"


def _table(cfg: RunConfig, header: list[str], rows: list[list],
           json_rows: list[dict], **extra) -> str:
    if cfg.fmt == "json":
        return _emit_json(_envelope(cfg, json_rows, **extra))
    if cfg.fmt == "csv":
        return _emit_csv(header, rows)
    return _emit_ascii(header, rows)


def _group_rows(cfg: RunConfig, fn) -> str:
    """Shared (free, f2)-per-degree table; drops zero rows."""
    header = ["triv", "sgn", "free", "f2"]
    if cfg.window is None:
        return _table(cfg, header, [], [])
    degrees = _degrees(cfg.window)
    groups = _map_degrees(fn, degrees, cfg.jobs)
    rows, json_rows = [], []
    for alpha, (free, f2) in zip(degrees, groups):
        if free or f2:
            rows.append([alpha.triv, alpha.sgn, free, f2])
            json_rows.append({"degree": [alpha.triv, alpha.sgn],
                              "free": free, "f2": f2})
    return _table(cfg, header, rows, json_rows)


# --- commands -------------------------------------------------------------------

def cmd_coeff(cfg: RunConfig) -> tuple[int, str]:
    if cfg.spectrum == "bpr":
        fn = lambda a: group_in_degree(a, QuotientIdeal(), cfg.caps)
    elif cfg.spectrum == "bprn":
        n = _require_n(cfg)
        fn = lambda a: assemble_groups(n, a)
    else:
        raise ConfigError(f"coeff supports --spectrum bpr or bprn, "
                          f"got {cfg.spectrum!r}")
    return 0, _group_rows(cfg, fn)


def cmd_hfpss(cfg: RunConfig) -> tuple[int, str]:
    if cfg.mode == "einf":
        return 0, _group_rows(cfg, lambda a: e_infinity_groups(cfg.n, a))
    if cfg.mode in ("tate", "geo"):
        n = _require_n(cfg)
        fn = tate_groups if cfg.mode == "tate" else geometric_cofibre_groups
        header = ["triv", "sgn", "rank"]
        if cfg.window is None:
            return 0, _table(cfg, header, [], [])
        degrees = _degrees(cfg.window)
        ranks = _map_degrees(lambda a: fn(n, a), degrees, cfg.jobs)
        rows = [[a.triv, a.sgn, r] for a, r in zip(degrees, ranks) if r]
        json_rows = [{"degree": row[:2], "rank": row[2]} for row in rows]
        return 0, _table(cfg, header, rows, json_rows)
    if cfg.mode == "pages":
        if cfg.window is None:
            if cfg.fmt == "json":
                return 0, _emit_json(_envelope(cfg, [], pages=[]))
            return 0, ""
        pages = run_differentials(cfg.n, cfg.window, a_cap=cfg.caps.a_cap)
        dumped = []
        for page in pages:
            classes = {f"{a.triv},{a.sgn}": [e.describe() for e in entries]
                       for a, entries in sorted(
                           page.classes.items(),
                           key=lambda kv: (kv[0].triv, kv[0].sgn))
                       if entries}
            dumped.append({"r_first": page.r_first, "r_last": page.r_last,
                           "classes": classes,
                           "fired": [[str(x), str(y)] for x, y in page.fired]})
        if cfg.fmt == "json":
            return 0, _emit_json(_envelope(cfg, [], pages=dumped))
        lines = []
        for page in dumped:
            total = sum(len(v) for v in page["classes"].values())
            lines.append(f"E_{page['r_first']}..E_{page['r_last']}: "
                         f"{total} classes, {len(page['fired'])} fired")
            lines.extend(f"  d: {x} -> {y}" for x, y in page["fired"])
        return 0, "\n".join(lines) + "\n"
    raise ConfigError(f"unknown hfpss mode {cfg.mode!r}")


def _block_classes(cfg: RunConfig, n: int, alpha: Degree) -> list:
    if cfg.mode == "bb":
        return bb_basis(n, alpha)
    if cfg.mode == "nb":
        return nb_basis(n, alpha)
    return assemble(n, alpha)


def cmd_blocks(cfg: RunConfig) -> tuple[int, str]:
    n = _require_n(cfg)
    header = ["triv", "sgn", "free", "f2", "classes"]
    if cfg.window is None:
        return 0, _table(cfg, header, [], [])
    degrees = _degrees(cfg.window)
    listed = _map_degrees(lambda a: _block_classes(cfg, n, a),
                          degrees, cfg.jobs)
    rows, json_rows = [], []
    for alpha, classes in zip(degrees, listed):
        if not classes:
            continue
        f2 = sum(1 for c in classes
                 if (c.entry if hasattr(c, "entry") else c).torsion)
        names = [c.describe() for c in classes]
        rows.append([alpha.triv, alpha.sgn, len(classes) - f2, f2,
                     "; ".join(names)])
        json_rows.append({"degree": [alpha.triv, alpha.sgn],
                          "free": len(classes) - f2, "f2": f2,
                          "classes": names})
    return 0, _table(cfg, header, rows, json_rows)


_LC_CATALOGUE = {
    1: lambda: (localcoh.p_module(), localcoh.dual_p(), localcoh.pbar(0),
                localcoh.pbar(1), localcoh.dual_pbar(0), localcoh.ideal_z(0),
                localcoh.ideal_z(1), localcoh.ideal_f2(0, 1),
                localcoh.tower_f2(), localcoh.dual_tower_f2()),
    2: lambda: (localcoh.p_module(), localcoh.pbar(0), localcoh.pbar(1),
                localcoh.pbar(2), localcoh.ideal_z(0), localcoh.ideal_z(1),
                localcoh.ideal_z(2), localcoh.ideal_f2(0, 1),
                localcoh.ideal_f2(0, 2), localcoh.ideal_f2(1, 2)),
}


def cmd_lc(cfg: RunConfig) -> tuple[int, str]:
    n = _require_n(cfg)
    if cfg.oracle:
        if n not in _LC_CATALOGUE:
            raise ConfigError(f"--oracle catalogue covers n = 1, 2; got {n}")
        k_lo, k_hi = (-12, 12) if cfg.window is None else \
            (cfg.window.triv_min, cfg.window.triv_max)
        checked = []
        for mod in _LC_CATALOGUE[n]():
            localcoh.check_closed_form(mod, n, k_lo, k_hi)
            checked.append(mod.describe())
        notes = localcoh.convention_report()
        body = {"command": "lc", "oracle": True, "n": n,
                "range": [k_lo, k_hi], "checked": checked,
                "convention": notes, "diffs": 0}
        if cfg.fmt == "json":
            return 0, _emit_json(body)
        lines = [f"oracle agreement on {len(checked)} modules, "
                 f"k in [{k_lo}, {k_hi}], 0 diffs"] + notes
        return 0, "\n".join(lines) + "\n"
    header = ["d", "s", "column", "module"]
    if cfg.window is None:
        return 0, _table(cfg, header, [], [])
    table = lc_of_block(n, cfg.mode, d_lo=cfg.window.triv_min,
                        d_hi=cfg.window.triv_max)
    rows, json_rows = [], []
    for d in sorted(table):
        for s, column, module in table[d]:
            rows.append([d, s, column, module.describe()])
            json_rows.append({"d": d, "s": s, "column": column,
                              "module": module.describe()})
    return 0, _table(cfg, header, rows, json_rows)


def _report_text(cfg: RunConfig, report: DualityReport) -> str:
    if cfg.fmt == "json":
        return report.to_json() + "\n"
    lines = [report.summary]
    lines.extend(f"mismatch at {r.degree}: gamma {r.gamma} dual {r.dual}"
                 + (f"  [{r.note}]" if r.note else "")
                 for r in report.mismatches)
    lines.extend(f"skipped {r.degree}: {r.note}" for r in report.skipped)
    return "\n".join(lines) + "\n"


def cmd_verify(cfg: RunConfig) -> tuple[int, str]:
    if cfg.window is None:
        report = DualityReport([], "empty window: 0 degrees checked")
        return 0, _report_text(cfg, report)
    if cfg.spectrum == "bprn":
        n = _require_n(cfg)
        ss = None
        if cfg.ssdata is not None:
            try:
                ss = load_ssdata(cfg.ssdata)
                ss.check_height(n)
            except (OSError, ValueError, KeyError) as err:
                raise ConfigError(f"cannot load ssdata: {err}")
        report = verify_gorenstein(n, cfg.window, ss)
    elif cfg.spectrum == "bpr":
        records = []
        for k in range(cfg.window.triv_min, cfg.window.triv_max + 1):
            for line in (Window(k, k, k, k), Window(k - 1, k - 1, k, k)):
                records.extend(
                    verify_quotient_duality((), line, cfg.caps).records)
        records.sort(key=lambda r: (r.degree.triv, r.degree.sgn))
        bad = sum(1 for r in records if not r.ok)
        report = DualityReport(
            records, f"full ring rho lines k in [{cfg.window.triv_min}, "
                     f"{cfg.window.triv_max}]: {len(records)} degrees, "
                     f"{bad} mismatches")
    else:
        raise ConfigError(f"verify supports --spectrum bprn or bpr, "
                          f"got {cfg.spectrum!r}")
    return (0 if report.clean else 1), _report_text(cfg, report)


def _chart_classes(cfg: RunConfig, alpha: Degree) -> list[ChartClass]:
    if cfg.mode == "bpr":
        group = tower_group(QuotientIdeal(), alpha, cfg.caps)
        if not group.exact:
            raise UnknownExtension(f"unresolved extension at {alpha}")
        entries = group.entries
        n = None
    else:
        n = cfg.n
        entries = _block_classes(cfg, n, alpha)
    flat = []
    for cls in entries:
        u_power = 0
        if hasattr(cls, "entry"):
            u_power, cls = cls.u_power, cls.entry
        if isinstance(cls, TowerClass):
            flat.append(ChartClass(1, True, None))
            continue
        mono = cls.mono
        if u_power:
            mono = Monomial(mono.k, mono.l + u_power * 2 ** n, mono.c)
        flat.append(ChartClass(cls.lattice, cls.torsion, mono))
    return flat


def cmd_chart(cfg: RunConfig) -> tuple[int, str]:
    if cfg.window is None:
        return 0, ""
    if cfg.mode != "bpr":
        _require_n(cfg)
    degrees = _degrees(cfg.window)
    listed = _map_degrees(lambda a: _chart_classes(cfg, a),
                          degrees, cfg.jobs)
    cells: Cells = {a: classes for a, classes in zip(degrees, listed)
                    if classes}
    max_index = 3 if cfg.mode == "bpr" else max(cfg.n, 1)
    if cfg.fmt == "svg":
        return 0, svg_chart(cells, cfg.window, max_index)
    return 0, ascii_chart(cells, cfg.window)


_COMMANDS = {
    "coeff": cmd_coeff,
    "hfpss": cmd_hfpss,
    "blocks": cmd_blocks,
    "lc": cmd_lc,
    "verify": cmd_verify,
    "chart": cmd_chart,
}

_MODES = {
    "hfpss": (("einf", "pages", "tate", "geo"), "einf"),
    "blocks": (("bb", "nb", "assembled"), "assembled"),
    "lc": (("bb", "nb"), "bb"),
    "chart": (("bb", "nb", "assembled", "bpr"), "assembled"),
}

_DEFAULT_SPECTRUM = {"coeff": "bpr", "verify": "bprn"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="realspectra",
        description="Graded coefficient tables, charts, and duality checks.")
    subs = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        sub = subs.add_parser(command)
        if command in _MODES:
            choices, default = _MODES[command]
            sub.add_argument("mode", nargs="?", choices=choices,
                             default=default)
        sub.add_argument("--n", type=int, default=None)
        sub.add_argument("--spectrum",
                         default=_DEFAULT_SPECTRUM.get(command, "bpr"))
        sub.add_argument("--window", default="-8:8,-8:8")
        sub.add_argument("--caps", default=None)
        sub.add_argument("--format", dest="fmt", default=None)
        sub.add_argument("--out", default=None)
        sub.add_argument("--ssdata", default=None)
        sub.add_argument("--oracle", action="store_true")
        sub.add_argument("--jobs", type=int, default=1)
    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    fmt = args.fmt or _FORMATS[args.command][0]
    if fmt not in _FORMATS[args.command]:
        raise ConfigError(
            f"{args.command} supports --format "
            f"{'/'.join(_FORMATS[args.command])}, got {fmt!r}")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be positive, got {args.jobs}")
    if args.n is not None and not 0 <= args.n <= MAX_N:
        raise ConfigError(f"--n must be in 0..{MAX_N}, got {args.n}")
    return RunConfig(
        command=args.command,
        mode=getattr(args, "mode", ""),
        n=args.n,
        spectrum=args.spectrum,
        window=_parse_window(args.window),
        caps=_parse_caps(args.caps) if args.caps else DEFAULT_CAPS,
        fmt=fmt,
        out=args.out,
        ssdata=args.ssdata,
        oracle=args.oracle,
        jobs=args.jobs,
    )


def _input_digests(cfg: RunConfig) -> list[str]:
    """sha256 of each input file the argv names: the --ssdata file, unless
    the data is given inline as JSON text."""
    if cfg.ssdata is None or cfg.ssdata.lstrip().startswith("{"):
        return []
    try:
        with open(cfg.ssdata, "rb") as handle:
            return [hashlib.sha256(handle.read()).hexdigest()]
    except OSError:
        return ["unreadable"]


def _cache_path(argv: list[str], cfg: RunConfig) -> str | None:
    root = os.environ.get("REALSPECTRA_CACHE_DIR")
    if not root:
        return None
    blob = json.dumps([__version__, argv, _input_digests(cfg)])
    key = hashlib.sha256(blob.encode()).hexdigest()
    return os.path.join(root, key + ".json")


def _store(cache: str, code: int, text: str) -> None:
    """Write a cache entry atomically: a temp file beside it, then rename."""
    root = os.path.dirname(cache) or "."
    os.makedirs(root, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump({"code": code, "text": text}, handle)
        os.replace(tmp, cache)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _glue_window(argv: list[str]) -> list[str]:
    """Join `--window -8:8,...` into one token; argparse reads the bare
    value as an option string because of the leading dash."""
    out, i = [], 0
    while i < len(argv):
        if argv[i] == "--window" and i + 1 < len(argv):
            out.append(f"--window={argv[i + 1]}")
            i += 2
            continue
        out.append(argv[i])
        i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parsed = _build_parser().parse_args(_glue_window(argv))
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        cfg = _config_from(parsed)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    cache = _cache_path(argv, cfg)
    if cache and os.path.exists(cache):
        with open(cache) as handle:
            hit = json.load(handle)
        _emit(cfg, hit["text"])
        return hit["code"]
    try:
        code, text = _COMMANDS[cfg.command](cfg)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except StabilizationFailure as err:
        print(f"stabilization failure: {err}", file=sys.stderr)
        return 3
    except (MismatchError, InternalInconsistency, InconsistentSSData,
            UnknownExtension, AssertionError) as err:
        print(f"inconsistent: {err}", file=sys.stderr)
        return 1
    _emit(cfg, text)
    if cache and code != 2:
        _store(cache, code, text)
    return code


if __name__ == "__main__":
    sys.exit(main())
