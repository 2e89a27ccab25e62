"""The four benchmark workloads: their sizes, op ids and op functions.

Op ids and the CLI mix are plain data, so the runner can plan and score a
run without importing realspectra.  `Ops` binds the ops to the package; it
is used by the worker (fresh interpreter per repetition) and the recorder.
The seed only permutes the op order (and, for `cli`, the call order); the
set of ops never depends on it.
"""

from __future__ import annotations

import random

WORKLOADS = ("descent", "duality", "koszul", "cli")

# descent: criterion 1 at height 4 on [-R, R]^2, one op per degree
DESCENT_N = 4
DESCENT_RADIUS = 8
DESCENT_A_CAP = 40

# duality: criterion 6 at height 2 on [-R, R]^2; one op per record subset.
# All 63 proper subsets still leave a mismatch at this radius.
DUALITY_N = 2
DUALITY_RADIUS = 12

# koszul: criterion 4, closed form against the Koszul oracle for k in
# [-K, K], plus the convention report
KOSZUL_K = 6
KOSZUL_CATALOGUE = {
    1: (("p_module",), ("dual_p",), ("pbar", 0), ("pbar", 1),
        ("dual_pbar", 0), ("ideal_z", 0), ("ideal_z", 1), ("ideal_f2", 0, 1),
        ("tower_f2",), ("dual_tower_f2",)),
    2: (("p_module",), ("pbar", 0), ("pbar", 1), ("pbar", 2), ("ideal_z", 0),
        ("ideal_z", 1), ("ideal_z", 2), ("ideal_f2", 0, 1), ("ideal_f2", 0, 2),
        ("ideal_f2", 1, 2)),
}
CONVENTION_OP = "convention_report"

# cli: one op per call.  Every argv runs twice against the same fresh cache
# directory: a miss that computes and writes, then a hit that reads.  The
# mutated SSData drops one shipped d_2, so `verify` must exit 1 there.
MUTATED_SSDATA = "perfbench/inputs/gorenstein_n2_without_first_d2.json"
CLI_CALLS = (
    ("coeff", "--window", "-6:6,-6:6"),
    ("coeff", "--spectrum", "bprn", "--n", "2", "--format", "csv",
     "--window", "-8:8,-8:8"),
    ("hfpss", "pages", "--n", "1", "--window", "-8:8,-8:8"),
    ("hfpss", "einf", "--n", "2", "--window", "-6:6,-6:6"),
    ("blocks", "bb", "--n", "1", "--format", "ascii"),
    ("lc", "bb", "--n", "2", "--window", "-2:13,0:0"),
    ("lc", "--oracle", "--n", "1"),
    ("verify", "--n", "1", "--window", "-12:12,-12:12"),
    ("verify", "--n", "2", "--window", "-12:12,-12:12"),
    ("verify", "--n", "2", "--ssdata", MUTATED_SSDATA,
     "--window", "-12:12,-12:12"),
    ("verify", "--spectrum", "bpr", "--window", "-3:3,0:0"),
    ("chart", "bpr", "--format", "svg", "--window", "-6:6,-6:6"),
    ("chart", "assembled", "--n", "1", "--window", "-8:8,-8:8"),
)


def cli_key(argv) -> str:
    return " ".join(argv)


def _spec_name(spec) -> str:
    return f"{spec[0]}({','.join(map(str, spec[1:]))})"


def op_ids(workload: str) -> list[str]:
    """Every op of one pass of a workload, in canonical order."""
    if workload == "descent":
        r = DESCENT_RADIUS
        return [f"{t},{s}" for t in range(-r, r + 1) for s in range(-r, r + 1)]
    if workload == "duality":
        return [f"mask{m:02d}" for m in range(64)]
    if workload == "koszul":
        return [f"n{n}/{_spec_name(spec)}/s{s}/k{k}"
                for n, specs in KOSZUL_CATALOGUE.items() for spec in specs
                for s in range(n + 1)
                for k in range(-KOSZUL_K, KOSZUL_K + 1)] + [CONVENTION_OP]
    if workload == "cli":
        return [cli_key(argv) for argv in CLI_CALLS]
    raise ValueError(f"unknown workload {workload!r}")


def warm_ops(workload: str, order: list) -> list:
    """The ops a worker repeats with its caches warm, in `order`'s order:
    every fourth op of the canonical order, the same set on every seed.
    Gives cached_call_p50_s at a quarter of a pass's cost."""
    sample = set(op_ids(workload)[::4])
    return [op for op in order if op in sample]


def shuffled(items, seed: int, salt: int = 0) -> list:
    """A seeded permutation; `salt` gives each repetition its own order."""
    out = list(items)
    random.Random(seed * 1000003 + salt).shuffle(out)
    return out


class Ops:
    """The ops of one workload bound to an imported realspectra.

    Functions are looked up through their modules at call time, so a
    traced run sees the wrapped versions.
    """

    def __init__(self, workload: str):
        from realspectra import (coefficients, duality, grading, hfpss,
                                 localcoh)
        self.workload = workload
        self.coefficients, self.duality = coefficients, duality
        self.grading, self.hfpss, self.localcoh = grading, hfpss, localcoh
        self.final = None
        self.specs = {_spec_name(spec): spec
                      for specs in KOSZUL_CATALOGUE.values() for spec in specs}

    def prepare(self) -> None:
        """Work done before the first op (part of the cold run_s); a no-op
        once done."""
        if self.workload == "descent" and self.final is None:
            window = self.grading.Window.square(DESCENT_RADIUS)
            pages = self.hfpss.run_differentials(DESCENT_N, window,
                                                 a_cap=DESCENT_A_CAP)
            self.final = pages[-1]
            if self.final.fired != ():
                raise AssertionError("differentials fire on the final page")

    def run(self, op: str):
        """The answer to one op, as JSON-ready lists."""
        return getattr(self, "_" + self.workload)(op)

    def _descent(self, op: str):
        t, s = map(int, op.split(","))
        alpha = self.grading.Degree(t, s)
        classes = self.final.classes.get(alpha, [])
        free = sum(1 for e in classes if not e.torsion)
        pages = [free, len(classes) - free]
        einf = list(self.hfpss.e_infinity_groups(DESCENT_N, alpha))
        coeff = list(self.coefficients.group_in_degree(alpha))
        return [pages, einf, coeff]

    def _duality(self, op: str):
        mask = int(op[len("mask"):])
        shipped = self.duality.default_ssdata(DUALITY_N)
        keep = [item for i, item in enumerate(shipped.items())
                if mask >> i & 1]
        ss = self.duality.SSData(
            DUALITY_N,
            tuple(d for d in shipped.differentials if d in keep),
            tuple(e for e in shipped.extensions if e in keep))
        report = self.duality.verify_gorenstein(
            DUALITY_N, self.grading.Window.square(DUALITY_RADIUS), ss=ss)
        return [len(report.mismatches), len(report.records)]

    def _koszul(self, op: str):
        if op == CONVENTION_OP:
            return self.localcoh.convention_report()
        n, name, s, k = op.split("/")
        n, s, k = int(n[1:]), int(s[1:]), int(k[1:])
        spec = self.specs[name]
        mod = getattr(self.localcoh, spec[0])(*spec[1:])
        alpha = mod.shift + self.grading.RHO * k
        closed = self.localcoh.lc_ranks(mod, n, s, alpha)
        oracle = self.localcoh.lc_oracle(mod, n, s, alpha)
        return [list(closed), list(oracle)]

