"""Command line front end: tables, charts, and duality verification.

Commands
    coeff    graded coefficient groups of the full ring or a truncation
    hfpss    fixed point spectral sequence pages, final page, Tate data
    blocks   basic block bases (BB, NB) and their assembly
    lc       local cohomology tables of the blocks, with a Koszul oracle
    verify   Gorenstein duality (truncations) or quotient duality (full ring)
    chart    plane chart of classes, text or SVG

Every command takes --n, --window, --format and --out; on top of them
    coeff    --spectrum {bpr,bprn}   (default bpr)
    hfpss    --caps                  (`hfpss pages` only)
    lc       --oracle                (`lc` or `lc bb` only)
    verify   --spectrum {bprn,bpr}   (default bprn), --ssdata (bprn only)
and any other flag is an argparse error.  --n is refused where no height
is read (`coeff` and `verify` with --spectrum bpr, `chart bpr`), optional
in `hfpss einf|pages` (absent: the full ring) and needed elsewhere.  Window
syntax is `a:b,c:d` (trivial range, sign range); an empty range is
allowed and yields an empty table.

`lc --oracle` (or `lc bb --oracle`) checks every catalogue closed form
at height --n against the Koszul oracle on the window's trivial
range and prints one row per module checked (module, k_lo, k_hi,
diffs); JSON lists the modules and the convention report instead.  An
empty window checks nothing.

`hfpss pages` prints a differential log, not a table: it takes --format
json or ascii, and csv is a configuration error.

Limits, each checked before any computation or cache lookup (a violation
is a configuration error):
    --n       an integer from 0 to MAX_N (4); with `lc --oracle`, one of
              ORACLE_HEIGHTS (1, 2);
    --window  every coordinate within -MAX_COORD..MAX_COORD (48), twice
              the radius of the acceptance windows; with `verify
              --spectrum bpr`, a trivial minimum of at least MIN_RHO_LINE
              (-28), below which a rho line's Koszul stages cost too much;
    --caps    `A`, an a-exponent cap 0 <= A <= MAX_CAPS (143): E_2 has
              infinite rank in each degree, and the pages list it to
              filtration A; MAX_CAPS is the most filtration a
              final-page class in an accepted window can need;
    --out     its directory must exist, and it must not be a directory.

Exit codes: 0 success or clean verification, 1 verification mismatch or
inconsistent data, 2 configuration error, 3 stabilization failure.

Set REALSPECTRA_CACHE_DIR to memoize finished runs.  An entry is keyed on
the validated `RunConfig` without --out (so argvs that differ only in
spelling or in a flag at its default share it), which holds the --ssdata
text the run parses, and on a sha256 of the package's `*.py` and
`ssdata/*.json` files, so neither an edited input nor changed code is
served a stale result; entries are written atomically.  An unreadable or
malformed entry counts as a miss and is overwritten; a failed write only
warns.

This module is the light half of the CLI and the one place that checks
arguments: it imports the standard library and `grading` only, so a
cache hit or a bad argument is served without loading any compute layer
(nor `dataclasses`, which nothing in the package loads).  It reads a
--ssdata file once, into the config.  `main` imports
`commands` only on a cache miss, and each command there loads only the
layers it runs.  Two configuration errors are left to it, as they need a
compute layer: --ssdata text that cannot be read as SSData, and an
`hfpss pages` call whose E_2 listing, counted before it is built, holds
more than MAX_E2_CLASSES (300,000) classes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import tempfile
from typing import NamedTuple

from .grading import Window, record


# largest accepted --n: costs grow with 2^n (U-powers per degree, diagonals
# per block), and on the default window `verify` at n = 5 or `lc` at n = 6
# already runs for over a minute
MAX_N = 4

# largest accepted |coordinate| of --window: twice the radius of the
# acceptance windows; work grows with the window's area and, per degree,
# with the distance from the origin (on -48:48,-48:48, `hfpss pages --n 4`
# at the default cap runs for 24 s and peaks at 1.6 GB on a 2-core Xeon VM
# with Python 3.11; a larger --caps lists more)
MAX_COORD = 48

# the heights whose module catalogue `lc --oracle` checks; the keys of
# `localcoh.CATALOGUE`, kept here so that a bad --n is refused before any
# compute layer is imported
ORACLE_HEIGHTS = (1, 2)

# the E_2 cap of `hfpss pages` without --caps
DEFAULT_A_CAP = 40

# the deepest rho line `verify --spectrum bpr` checks: one cold call on
# -28:48,0:0 takes 11-14 s and 186 MB, within the command's costliest call
# before (14-17 s, 210 MB; README), where -29:48,0:0 takes 216 MB
MIN_RHO_LINE = -28

# largest accepted --caps: the maximum of `coefficients._a_exponent_bound`
# over the MAX_COORD box, at every accepted height and for the full ring
# (reached by the ring at -33-48s), so every final-page class of an
# accepted window lies within an accepted cap; the E_2 listing, and with
# it time and memory, grows with the cap
MAX_CAPS = 143

# largest number of E_2 classes `hfpss pages` lists (`hfpss.e2_count`,
# counted before any listing): every height at the default cap on the
# acceptance windows [-24, 24]^2 fits (at most 260,311 classes), and a
# call just under it, the full ring on -8:8,-8:8 at --caps 98 (298,436
# classes), takes 3.4 to 5.2 s and 253 MB and prints 21 MB of JSON on a
# 2-core Xeon VM with Python 3.11; the largest accepted window at MAX_CAPS
# would list 53 million
MAX_E2_CLASSES = 300_000


class ConfigError(Exception):
    """Bad command line input; maps to exit code 2."""


@record
class RunConfig(NamedTuple):
    """Validated inputs of one run; window is None for an empty range.

    A flag the command does not take holds its default.  caps holds the
    --caps bound A, DEFAULT_A_CAP without the flag; only `hfpss pages`
    reads it.  ssdata holds the SSData JSON text: the --ssdata argument
    itself when it is inline JSON (its first non-blank character is `{`
    or `[`), and otherwise the text of the file it names.
    """

    command: str
    mode: str
    n: int | None
    spectrum: str
    window: Window | None
    caps: int
    fmt: str
    out: str | None
    ssdata: str | None
    oracle: bool


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
    if max(map(abs, (t_lo, t_hi, s_lo, s_hi))) > MAX_COORD:
        raise ConfigError(f"window coordinates must be in "
                          f"-{MAX_COORD}..{MAX_COORD}, got {text!r}")
    if t_lo > t_hi or s_lo > s_hi:
        return None
    return Window(t_lo, t_hi, s_lo, s_hi)


def _parse_caps(text: str) -> int:
    try:
        a_cap = int(text)
    except ValueError:
        raise ConfigError(f"caps must be an integer A, got {text!r}")
    if not 0 <= a_cap <= MAX_CAPS:
        raise ConfigError(f"caps need 0 <= A <= {MAX_CAPS}, got {text!r}")
    return a_cap


def _check_out(path: str | None) -> str | None:
    if path and os.path.isdir(path):
        raise ConfigError(f"cannot write --out: {path!r} is a directory")
    folder = os.path.dirname(path or "")
    if folder and not os.path.isdir(folder):
        raise ConfigError(f"--out directory does not exist: {folder!r}")
    return path


_MODES = {
    "hfpss": (("einf", "pages", "tate", "geo"), "einf"),
    "blocks": (("bb", "nb", "assembled"), "assembled"),
    "lc": (("bb", "nb"), "bb"),
    "chart": (("bb", "nb", "assembled", "bpr"), "assembled"),
}

# the --spectrum choices of the commands that take it; the first is the
# default, and every other command reads as "bpr"
_SPECTRA = {"coeff": ("bpr", "bprn"), "verify": ("bprn", "bpr")}

# the invocations, as typed, where --n is optional (absent: the full
# ring) and where nothing reads it; every other one needs it
_N_OPTIONAL = {"hfpss einf", "hfpss pages"}
_N_UNREAD = {"coeff", "verify --spectrum bpr", "chart bpr"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="realspectra",
        description="Graded coefficient tables, charts, and duality checks.")
    subs = parser.add_subparsers(dest="command", required=True)
    for command in _FORMATS:
        sub = subs.add_parser(command)
        # what a command does not take reads as its default
        sub.set_defaults(mode="", spectrum="bpr", caps=None, ssdata=None,
                         oracle=False)
        if command in _MODES:
            choices, default = _MODES[command]
            sub.add_argument("mode", nargs="?", choices=choices,
                             default=default)
        sub.add_argument("--n", type=int, default=None)
        sub.add_argument("--window", default="-8:8,-8:8")
        sub.add_argument("--format", dest="fmt", default=None)
        sub.add_argument("--out", default=None)
        if command in _SPECTRA:
            sub.add_argument("--spectrum", choices=_SPECTRA[command],
                             default=_SPECTRA[command][0])
        if command == "hfpss":
            sub.add_argument("--caps", default=None)
        if command == "lc":
            sub.add_argument("--oracle", action="store_true")
        if command == "verify":
            sub.add_argument("--ssdata", default=None)
    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    command = args.command
    fmt = args.fmt or _FORMATS[command][0]
    if fmt not in _FORMATS[command]:
        raise ConfigError(
            f"{command} supports --format "
            f"{'/'.join(_FORMATS[command])}, got {fmt!r}")
    if (command, args.mode) == ("hfpss", "pages") and fmt == "csv":
        raise ConfigError(
            f"hfpss pages supports --format json/ascii, got {fmt!r}")
    if args.n is not None and not 0 <= args.n <= MAX_N:
        raise ConfigError(f"--n must be in 0..{MAX_N}, got {args.n}")
    if args.oracle and args.n is not None and \
            args.n not in ORACLE_HEIGHTS:
        raise ConfigError(
            f"--oracle catalogue covers n = "
            f"{', '.join(map(str, ORACLE_HEIGHTS))}; got {args.n}")
    cfg = RunConfig(
        command=command, mode=args.mode, n=args.n, spectrum=args.spectrum,
        window=_parse_window(args.window),
        caps=DEFAULT_A_CAP if args.caps is None else _parse_caps(args.caps),
        fmt=fmt, out=_check_out(args.out), ssdata=args.ssdata,
        oracle=args.oracle)
    # the invocation as typed: command, mode, and a --spectrum other than
    # the command's default
    typed = [command, cfg.mode]
    if command in _SPECTRA and cfg.spectrum != _SPECTRA[command][0]:
        typed.append(f"--spectrum {cfg.spectrum}")
    named = " ".join(filter(None, typed))
    if cfg.n is None and named not in _N_OPTIONAL | _N_UNREAD:
        raise ConfigError(f"{named} needs --n")
    if cfg.n is not None and named in _N_UNREAD:
        raise ConfigError(f"{named} reads no --n")
    if args.caps is not None and cfg.mode != "pages":
        raise ConfigError(f"--caps bounds only hfpss pages, not {named}")
    if cfg.oracle and cfg.mode != "bb":
        raise ConfigError(f"--oracle runs only as lc or lc bb, not {named}")
    if cfg.ssdata is not None and cfg.spectrum != "bprn":
        raise ConfigError(f"--ssdata serves only verify --spectrum bprn, "
                          f"not {named}")
    if named == "verify --spectrum bpr" and cfg.window is not None and \
            cfg.window.triv_min < MIN_RHO_LINE:
        raise ConfigError(f"verify --spectrum bpr checks rho lines down to "
                          f"k = {MIN_RHO_LINE}, got {cfg.window.triv_min}")
    if cfg.ssdata is None or cfg.ssdata.lstrip().startswith(("{", "[")):
        return cfg
    # a path: read once, so the run parses the text its cache entry keys on
    try:
        with open(cfg.ssdata) as handle:
            return cfg._replace(ssdata=handle.read())
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot load ssdata: {err}")


# the package's own files, whose bytes every cache key holds
_PACKAGE = os.path.dirname(os.path.abspath(__file__))


def _package_digest() -> str:
    """sha256 over the names and bytes of the package's `*.py` and
    `ssdata/*.json` files: an entry written by other code is never read."""
    digest = hashlib.sha256()
    for folder, suffix in (("", ".py"), ("ssdata", ".json")):
        path = os.path.join(_PACKAGE, folder)
        for name in sorted(os.listdir(path)):
            if name.endswith(suffix):
                with open(os.path.join(path, name), "rb") as handle:
                    data = handle.read()
                digest.update(f"{folder}/{name} {len(data)}\n".encode())
                digest.update(data)
    return digest.hexdigest()


def _cache_path(cfg: RunConfig) -> str | None:
    """The entry of cfg's result: argvs that validate to one config, --out
    aside, print the same text with the same package and share it."""
    root = os.environ.get("REALSPECTRA_CACHE_DIR")
    if not root:
        return None
    fields = cfg._replace(out=None, window=cfg.window and str(cfg.window))
    blob = json.dumps([_package_digest(), fields._asdict()], sort_keys=True)
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


def _lookup(cache: str) -> tuple[int, str] | None:
    """The (code, text) stored at cache; None for a missing, unreadable or
    malformed entry, which the caller recomputes and overwrites."""
    try:
        with open(cache) as handle:
            hit = json.load(handle)
    except (OSError, ValueError):
        return None
    if not (isinstance(hit, dict) and isinstance(hit.get("code"), int)
            and isinstance(hit.get("text"), str)):
        return None
    return hit["code"], hit["text"]


def _emit(cfg: RunConfig, code: int, text: str) -> int:
    """Write text to --out or stdout; returns code, or 2 if --out cannot
    be written."""
    if not cfg.out:
        sys.stdout.write(text)
        return code
    try:
        with open(cfg.out, "w") as handle:
            handle.write(text)
    except OSError as err:
        print(f"error: cannot write --out: {err}", file=sys.stderr)
        return 2
    return code


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
    argv = sys.argv[1:] if argv is None else argv
    try:
        parsed = _build_parser().parse_args(_glue_window(argv))
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        cfg = _config_from(parsed)
        cache = _cache_path(cfg)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    hit = _lookup(cache) if cache else None
    if hit is not None:
        return _emit(cfg, *hit)
    from . import commands  # the compute stack: a miss only
    try:
        code, text = commands.COMMANDS[cfg.command](cfg)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except commands.StabilizationFailure as err:
        print(f"stabilization failure: {err}", file=sys.stderr)
        return 3
    except commands.INCONSISTENT as err:
        print(f"inconsistent: {err}", file=sys.stderr)
        return 1
    code = _emit(cfg, code, text)
    if cache and code != 2:
        try:
            _store(cache, code, text)
        except OSError as err:
            print(f"warning: cannot write cache entry: {err}",
                  file=sys.stderr)
    return code


if __name__ == "__main__":
    # `python -m realspectra.cli` runs this file as a second module,
    # __main__, whose ConfigError is not the class `commands` raises; hand
    # over to the canonical module
    from realspectra.cli import main as canonical_main
    sys.exit(canonical_main())
