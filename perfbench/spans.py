"""Spans around realspectra's layer functions, installed from outside.

`install` wraps the public module-level functions of each layer module and
rebinds every package namespace that holds the original, so a call through
`from .abelian import mat_mul` in `localcoh` is counted like a call through
`abelian.mat_mul`.  Spans are kept in memory as totals per name and per
(parent, name) edge; self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "realspectra"

# layer module -> the functions to wrap (None: every public function)
LAYERS = {
    "abelian": None,
    "coefficients": None,
    "hfpss": None,
    "blocks": None,
    "localcoh": None,
    "duality": None,
    "charts": None,
    "cli": ("main",),
}

# lru caches whose hit ratio is a per-layer metric
CACHES = {
    "coefficients.basis_cache": ("coefficients", "_basis_cached"),
    "blocks.bb_cache": ("blocks", "_bb_cached"),
    "duality.lc_row_cache": ("duality", "_lc_row"),
}

SNF = "abelian.smith_normal_form"
LC_ORACLE = "localcoh.lc_oracle"


class Tracer:
    """Nested spans on one thread, aggregated as they close."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []      # open spans: [name, start, child_s]
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[tuple, list] = {}  # (parent, name) -> [calls, total_s]
        self.counters: dict[str, float] = {}
        self.open_oracles = 0

    def enter(self, name: str) -> None:
        if name == LC_ORACLE:
            self.open_oracles += 1
        elif name == SNF and self.open_oracles:
            self.add("localcoh.lc_oracle.snf_calls", 1)
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        name, start, child_s = self.stack.pop()
        duration = end - start
        if self.stack:
            self.stack[-1][2] += duration
            parent = self.stack[-1][0]
        else:
            parent = None
        if name == LC_ORACLE:
            self.open_oracles -= 1
        agg = self.spans.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_s
        edge = self.edges.setdefault((parent, name), [0, 0.0])
        edge[0] += 1
        edge[1] += duration

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def note_max(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def summary(self) -> dict:
        return {
            "spans": {name: {"calls": c, "total_s": t, "self_s": s}
                      for name, (c, t, s) in self.spans.items()},
            "edges": [{"parent": p, "name": n, "calls": c, "total_s": t}
                      for (p, n), (c, t) in self.edges.items()],
            "counters": dict(self.counters),
        }


def _cells(matrix) -> int:
    shape = getattr(matrix, "shape", None)
    if shape is not None:
        return shape[0] * shape[1] if len(shape) == 2 else 0
    rows = list(matrix)
    return len(rows) * (len(rows[0]) if rows else 0)


def _observe_snf(tracer: Tracer, args, result) -> None:
    tracer.note_max("abelian.smith_normal_form.max_cells", _cells(args[0]))


def _observe_e2(tracer: Tracer, args, result) -> None:
    tracer.add("hfpss.e2_basis.monomials", len(result))


OBSERVERS = {SNF: _observe_snf, "hfpss.e2_basis": _observe_e2}


def wrap(tracer: Tracer, name: str, fn):
    """fn inside a span called name; lru cache methods stay reachable."""
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if observe is not None:
            observe(tracer, args, result)
        return result

    for attr in ("cache_info", "cache_clear"):
        if hasattr(fn, attr):
            setattr(traced, attr, getattr(fn, attr))
    return traced


def _layer_functions(module, names):
    for attr, value in vars(module).items():
        if names is not None and attr not in names:
            continue
        if attr.startswith("_") or not callable(value) or \
                isinstance(value, type):
            continue
        if getattr(value, "__module__", None) == module.__name__:
            yield attr, value


def install(tracer: Tracer) -> list[tuple]:
    """Wrap each layer's functions and rebind them in every package module.

    Returns (module, attribute, original) triples for `uninstall`.
    """
    import importlib
    for layer in LAYERS:
        importlib.import_module(f"{PACKAGE}.{layer}")
    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == PACKAGE or
                                     key.startswith(PACKAGE + "."))]
    wrapped = {}
    for layer, names in LAYERS.items():
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, fn in _layer_functions(module, names):
            wrapped[id(fn)] = (fn, wrap(tracer, f"{layer}.{attr}", fn))
    patched = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))
    return patched


def uninstall(patched: list[tuple]) -> None:
    for module, attr, original in patched:
        setattr(module, attr, original)


def cache_stats() -> dict:
    """Hits and misses of the lru caches named in CACHES."""
    out = {}
    for key, (layer, attr) in CACHES.items():
        info = getattr(sys.modules[f"{PACKAGE}.{layer}"], attr).cache_info()
        out[key] = {"hits": info.hits, "misses": info.misses}
    return out


def lru_caches() -> dict:
    """Every lru cache defined in the package, by qualified name."""
    out = {}
    for key, module in list(sys.modules.items()):
        if module is None or not key.startswith(PACKAGE + "."):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, "cache_info") and \
                    getattr(value, "__module__", None) == key:
                out[f"{key}.{attr}"] = value
    return out
