"""The compute half of the command line: one function per command.

`cli.main` imports this module only on a cache miss, after every argument
has been validated.  It loads `coefficients`, the lowest layer, which
every command reads and which defines every failure `main` maps to an
exit code; each command imports the layers above it that it runs, so
`verify` alone loads `duality`.  Each `cmd_*` takes a complete
`cli.RunConfig`, in which every field a command reads is set, and
returns the exit code and the rendered text; the only `ConfigError`s
raised here are for --ssdata contents that are not SSData and for an
`hfpss pages` call that would list more than `cli.MAX_E2_CLASSES` E_2
classes, counted before any listing.  `main` maps
the exceptions listed in `INCONSISTENT` and `StabilizationFailure` to
exit codes.
"""

from __future__ import annotations

import csv
import io
import json

from .cli import MAX_E2_CLASSES, ConfigError, RunConfig
from .coefficients import (InconsistentSSData, InternalInconsistency,
                           QuotientIdeal, StabilizationFailure,
                           UnknownExtension, basis_in_degree,
                           group_in_degree)
from .grading import Degree, Window

# raised by a command when its data is inconsistent or a self-check fails:
# exit code 1
INCONSISTENT = (InternalInconsistency, InconsistentSSData, UnknownExtension,
                AssertionError)


def _degrees(window: Window | None) -> list[Degree]:
    """The window's degrees in (triv, sgn) order; none for an empty range."""
    return list(window or ())


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


def _json_row(header: list[str], row: list) -> dict:
    """A row keyed by column name; leading triv, sgn make one "degree"."""
    if header[:2] == ["triv", "sgn"]:
        return {"degree": row[:2], **dict(zip(header[2:], row[2:]))}
    return dict(zip(header, row))


def _table(cfg: RunConfig, header: list[str], rows: list[list]) -> str:
    """rows under header in cfg's format; a list cell is "; "-joined
    outside JSON."""
    if cfg.fmt == "json":
        return _emit_json(_envelope(cfg, [_json_row(header, r) for r in rows]))
    flat = [["; ".join(x) if isinstance(x, list) else x for x in row]
            for row in rows]
    if cfg.fmt == "csv":
        return _emit_csv(header, flat)
    return _emit_ascii(header, flat)


def _group_rows(cfg: RunConfig, fn) -> str:
    """Shared (free, f2)-per-degree table; drops zero rows."""
    groups = ((a, fn(a)) for a in _degrees(cfg.window))
    rows = [[a.triv, a.sgn, free, f2] for a, (free, f2) in groups
            if free or f2]
    return _table(cfg, ["triv", "sgn", "free", "f2"], rows)


# --- commands -------------------------------------------------------------------

def cmd_coeff(cfg: RunConfig) -> tuple[int, str]:
    if cfg.spectrum == "bprn":
        from .blocks import assemble_groups
        return 0, _group_rows(cfg, lambda a: assemble_groups(cfg.n, a))
    return 0, _group_rows(cfg, group_in_degree)


def cmd_hfpss(cfg: RunConfig) -> tuple[int, str]:
    from .hfpss import (e2_count, e_infinity_groups,
                        geometric_cofibre_groups, run_differentials,
                        tate_groups)
    if cfg.mode == "einf":
        return 0, _group_rows(cfg, lambda a: e_infinity_groups(cfg.n, a))
    if cfg.mode in ("tate", "geo"):
        fn = tate_groups if cfg.mode == "tate" else geometric_cofibre_groups
        ranks = ((a, fn(cfg.n, a)) for a in _degrees(cfg.window))
        rows = [[a.triv, a.sgn, r] for a, r in ranks if r]
        return 0, _table(cfg, ["triv", "sgn", "rank"], rows)
    pages = []   # mode pages
    if cfg.window is not None:
        count = e2_count(cfg.n, cfg.window, cfg.caps)
        if count > MAX_E2_CLASSES:
            raise ConfigError(
                f"hfpss pages would list {count} E_2 classes, over the "
                f"budget of {MAX_E2_CLASSES}; narrow --window or lower "
                f"--caps")
        pages = run_differentials(cfg.n, cfg.window, a_cap=cfg.caps)
    dumped = []
    for page in pages:
        classes = {f"{a.triv},{a.sgn}": [e.describe() for e in entries]
                   for a, entries in sorted(page.classes.items()) if entries}
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
    return 0, "".join(line + "\n" for line in lines)


def _block_classes(cfg: RunConfig, n: int, alpha: Degree) -> list:
    """The mode's classes at alpha, each an `AssembledClass`; the basic
    and negative blocks sit at U-power 0."""
    from .blocks import AssembledClass, assemble, bb_basis, nb_basis
    if cfg.mode == "bb":
        return [AssembledClass(0, e) for e in bb_basis(n, alpha)]
    if cfg.mode == "nb":
        return [AssembledClass(0, e) for e in nb_basis(n, alpha)]
    return assemble(n, alpha)


def cmd_blocks(cfg: RunConfig) -> tuple[int, str]:
    rows = []
    for alpha in _degrees(cfg.window):
        classes = _block_classes(cfg, cfg.n, alpha)
        if not classes:
            continue
        f2 = sum(1 for c in classes if c.entry.torsion)
        rows.append([alpha.triv, alpha.sgn, len(classes) - f2, f2,
                     [c.describe() for c in classes]])
    return 0, _table(cfg, ["triv", "sgn", "free", "f2", "classes"], rows)


def _lc_oracle(cfg: RunConfig, n: int) -> str:
    """Every catalogue closed form at height n against the Koszul oracle,
    on the window's trivial range; one row per module checked.  A
    mismatch raises AssertionError, so every row reads 0 diffs."""
    from . import localcoh
    checked, notes, k_range = [], [], None
    if cfg.window is not None:
        k_range = [cfg.window.triv_min, cfg.window.triv_max]
        for mod in localcoh.CATALOGUE[n]:
            localcoh.check_closed_form(mod, n, *k_range)
            checked.append(mod.describe())
        notes = localcoh.convention_report()
    if cfg.fmt == "json":
        return _emit_json({"command": "lc", "oracle": True, "n": n,
                           "range": k_range, "checked": checked,
                           "convention": notes, "diffs": 0})
    rows = [[name, *k_range, 0] for name in checked]
    return _table(cfg, ["module", "k_lo", "k_hi", "diffs"], rows)


def cmd_lc(cfg: RunConfig) -> tuple[int, str]:
    if cfg.oracle:   # cli has checked n against ORACLE_HEIGHTS
        return 0, _lc_oracle(cfg, cfg.n)
    from .blocks import lc_of_block
    table = {} if cfg.window is None else lc_of_block(
        cfg.n, cfg.mode, d_lo=cfg.window.triv_min, d_hi=cfg.window.triv_max)
    rows = [[d, s, column, module.describe()]
            for d in sorted(table) for s, column, module in table[d]]
    return 0, _table(cfg, ["d", "s", "column", "module"], rows)


def _report_text(cfg: RunConfig, report) -> str:
    if cfg.fmt == "json":
        return report.to_json() + "\n"
    lines = [report.summary]
    lines.extend(f"mismatch at {r.degree}: gamma {r.gamma} dual {r.dual}"
                 + (f"  [{r.note}]" if r.note else "")
                 for r in report.mismatches)
    lines.extend(f"skipped {r.degree}: {r.note}" for r in report.skipped)
    return "\n".join(lines) + "\n"


def cmd_verify(cfg: RunConfig) -> tuple[int, str]:
    from .duality import (DualityReport, load_ssdata, verify_gorenstein,
                          verify_quotient_duality)
    if cfg.window is None:
        report = DualityReport([], [], "empty window: 0 degrees checked")
        return 0, _report_text(cfg, report)
    if cfg.spectrum == "bprn":
        ss = None
        if cfg.ssdata is not None:
            try:
                ss = load_ssdata(cfg.ssdata)
                ss.check_height(cfg.n)
            except ValueError as err:
                raise ConfigError(f"cannot load ssdata: {err}")
        report = verify_gorenstein(cfg.n, cfg.window, ss)
    else:
        report = verify_quotient_duality(QuotientIdeal(), cfg.window.triv_min,
                                         cfg.window.triv_max)
    return (0 if report.clean else 1), _report_text(cfg, report)


def _chart_classes(cfg: RunConfig, alpha: Degree) -> list:
    if cfg.mode == "bpr":
        return basis_in_degree(alpha)
    return [c.folded(cfg.n) for c in _block_classes(cfg, cfg.n, alpha)]


def cmd_chart(cfg: RunConfig) -> tuple[int, str]:
    from .charts import ascii_chart, svg_chart
    if cfg.window is None:
        return 0, ""
    cells = {}
    for alpha in _degrees(cfg.window):
        classes = _chart_classes(cfg, alpha)
        if classes:
            cells[alpha] = classes
    max_index = 3 if cfg.mode == "bpr" else max(cfg.n, 1)
    if cfg.fmt == "svg":
        return 0, svg_chart(cells, cfg.window, max_index)
    return 0, ascii_chart(cells, cfg.window)


COMMANDS = {
    "coeff": cmd_coeff,
    "hfpss": cmd_hfpss,
    "blocks": cmd_blocks,
    "lc": cmd_lc,
    "verify": cmd_verify,
    "chart": cmd_chart,
}
