"""Degreewise local cohomology for the diagonal catalogue modules.

Along each diagonal the positive and negative cones of the truncated
rings split into modules over P = Z_(2)[vbar_1, ..., vbar_n] drawn from
a short catalogue: P itself, the mod-2 quotients
Pbar_s = F_2[vbar_(s+1), ..., vbar_n], ideals inside both, their graded
duals, and rank-one F_2 towers along the sigma axis.  This module owns
that catalogue: exact degreewise ranks and generator bases, the action
of the vbar_i on generators, closed-form local cohomology at
the augmentation ideal J = (vbar_1, ..., vbar_n), and an independent
unstable-Koszul oracle that recomputes each H^s_J degreewise and
certifies its own stabilization.

Every catalogue module is a monomial module, so each stage complex
C^0 -> ... -> C^n of the oracle splits into pieces, one per fine degree
m in Z^n, with at most one generator per Koszul slot S (the Z^n-graded
Cech/Koszul complex; Miller-Sturmfels, Combinatorial Commutative Algebra,
ch. 13).  A piece is fixed up to isomorphism by its shape: torsion, n,
the slots present and its coefficients.  Few shapes occur, so each shape's
complex is built and checked once, and one memo per shape holds its H^s
for every s; a transition step between two shapes is computed once too,
for every s.  Every module and degree share these memos.  The degree
alone fixes an oracle run, which has no tuning parameters: it starts two
stages past the diagonal weight, stops at MAX_E, and settles every s from
one walk per pair of stages, so that run is memoized per degree too.

Grading conventions.  Catalogue modules are concentrated on
shift + Z*rho, except the towers, which run along shift + Z*sigma.  A
shift beta means M(beta)_alpha = M_(alpha - beta), so the top class 1*
of dual_p(shift=-4*RHO) sits in degree -4*rho.  The weight of
vbar_1 * ... * vbar_n is D_n = 2^(n+1) - n - 2; the top local cohomology
of P is H^n = P*(-D_n * rho), placing 1* in degree -D_n * rho.

Two closed-form conventions are contested between equally plausible
readings (the shift of a principal ideal (vbar_(s+1))Pbar_s and the sign
of the duals' rho-shifts in the two-group ideal case); the shipped
formulas are the ones the Koszul oracle confirms, and
convention_report() reproduces that comparison on explicit witnesses.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from typing import NamedTuple

# mat_mul is not called here; perfbench/selftest.py checks that tracing
# rebinds it in this namespace
from .abelian import (CochainComplex, Subquotient, f2_relations,
                      induced_map, map_is_surjective, mat_mul, zeros)
from .coefficients import StabilizationFailure, _bump, weight_tuples
from .grading import Degree, RHO, ZERO, record, total_vbar_degree

KINDS = ("P", "DualP", "Pbar", "DualPbar", "IdealZ", "IdealF2",
         "TowerF2", "DualTowerF2")


def _span(lo: int, hi: int) -> str:
    return f"v{lo}" if lo == hi else f"v{lo}..v{hi}"


class _StandardModuleFields(NamedTuple):
    kind: str
    s: int = 0
    t: int = 0
    shift: Degree = ZERO


class StandardModule(_StandardModuleFields):
    """One catalogue module over P = Z_(2)[vbar_1, ..., vbar_n].

    kind "P" is P itself and "Pbar" is F_2[vbar_(s+1), ..., vbar_n], the
    quotient of P by (2, vbar_1, ..., vbar_s).  "IdealZ" is the ideal
    (2, vbar_1, ..., vbar_t) of P, with t = 0 meaning (2)P.  "IdealF2"
    is the ideal (vbar_(s+1), ..., vbar_t) of Pbar_s.  "DualP" and
    "DualPbar" are the graded duals, supported on non-positive multiples
    of rho.  "TowerF2" and "DualTowerF2" are rank-one F_2 towers running
    down (a-power style) and up the sigma axis; the vbar_i act as zero
    on both.  The ambient n is not stored; every query takes it.

    A tuple of its fields (kind, s, t, shift): hashing, equality and
    ordering run in C, and an instance equals the plain 4-tuple of its
    fields, so a dict or set must not mix modules with plain tuples.  The
    constructor (and `_replace`) rejects an unknown kind and bad s or t.
    """

    __slots__ = ()

    def __new__(cls, kind: str, s: int = 0, t: int = 0,
                shift: Degree = ZERO) -> "StandardModule":
        if kind not in KINDS:
            raise ValueError(f"unknown module kind {kind!r}")
        if kind in ("Pbar", "DualPbar") and s < 0:
            raise ValueError("Pbar index must be >= 0")
        if kind == "IdealZ" and t < 0:
            raise ValueError("IdealZ needs t >= 0")
        if kind == "IdealF2" and not 0 <= s < t:
            raise ValueError("IdealF2 needs 0 <= s < t")
        return tuple.__new__(cls, (kind, s, t, shift))

    @classmethod
    def _make(cls, fields) -> "StandardModule":
        # `_replace` builds through here: keep the constructor's checks
        return cls(*fields)

    @property
    def torsion(self) -> bool:
        """Whether every degree of the module is an F_2-vector space."""
        return self.kind not in ("P", "DualP", "IdealZ")

    def shifted(self, by: Degree) -> "StandardModule":
        return self._replace(shift=self.shift + by)

    def describe(self) -> str:
        name = {
            "P": "P",
            "DualP": "P*",
            "Pbar": f"Pbar{self.s}",
            "DualPbar": f"Pbar{self.s}^",
            "IdealZ": "(2)P" if self.t == 0
                      else f"(2,{_span(1, self.t)})P",
            "IdealF2": f"({_span(self.s + 1, self.t)})Pbar{self.s}",
            "TowerF2": "F2[a]",
            "DualTowerF2": "F2[a]^",
        }[self.kind]
        if self.shift != ZERO:
            name += f"({self.shift})"
        return name


def p_module(shift: Degree = ZERO) -> StandardModule:
    return StandardModule("P", shift=shift)


def dual_p(shift: Degree = ZERO) -> StandardModule:
    return StandardModule("DualP", shift=shift)


def pbar(s: int, shift: Degree = ZERO) -> StandardModule:
    return StandardModule("Pbar", s=s, shift=shift)


def dual_pbar(s: int, shift: Degree = ZERO) -> StandardModule:
    return StandardModule("DualPbar", s=s, shift=shift)


def ideal_z(t: int, shift: Degree = ZERO) -> StandardModule:
    return StandardModule("IdealZ", t=t, shift=shift)


def ideal_f2(s: int, t: int, shift: Degree = ZERO) -> StandardModule:
    return StandardModule("IdealF2", s=s, t=t, shift=shift)


def tower_f2(shift: Degree = ZERO) -> StandardModule:
    return StandardModule("TowerF2", shift=shift)


def dual_tower_f2(shift: Degree = ZERO) -> StandardModule:
    return StandardModule("DualTowerF2", shift=shift)


# the modules whose closed forms `lc --oracle` checks, per height n
CATALOGUE = {
    1: (p_module(), dual_p(), pbar(0), pbar(1), dual_pbar(0), ideal_z(0),
        ideal_z(1), ideal_f2(0, 1), tower_f2(), dual_tower_f2()),
    2: (p_module(), pbar(0), pbar(1), pbar(2), ideal_z(0), ideal_z(1),
        ideal_z(2), ideal_f2(0, 1), ideal_f2(0, 2), ideal_f2(1, 2)),
}


def _min_index(c: tuple[int, ...]) -> int | None:
    for i, e in enumerate(c, start=1):
        if e:
            return i
    return None


def _diag_weight(mod: StandardModule, alpha: Degree) -> int | None:
    """The rho-coordinate of alpha relative to the shift, if on the line."""
    beta = alpha - mod.shift
    if beta.triv != beta.sgn:
        return None
    return beta.triv


def _embedding(mod: StandardModule, c: tuple[int, ...]) -> int:
    """The embedding coefficient of generator c (see module_gens)."""
    if mod.kind != "IdealZ":
        return 1
    return 1 if (_min_index(c) or mod.t + 1) <= mod.t else 2


def module_gens(mod: StandardModule, n: int,
                alpha: Degree) -> list[tuple[tuple[int, ...], int]]:
    """Generators (exponent tuple, embedding coefficient) at one degree.

    The embedding coefficient is 2 exactly for the IdealZ generators that
    enter the ideal only as doubles (pure vbar_(>t) monomials); it is 1
    everywhere else.  F_2-ness is the module's `torsion` flag, not here.

    A fresh list per call, paired from the memoized listing `_gens`.
    """
    return [(c, _embedding(mod, c)) for c in _gens(mod, n, alpha)]


@lru_cache(maxsize=None)
def _gens(mod: StandardModule, n: int,
          alpha: Degree) -> tuple[tuple[int, ...], ...]:
    """The generators' exponent tuples at one degree, in module_gens'
    order, memoized for the hot callers; must not be altered.

    For every kind but IdealF2 and the towers this is the
    `coefficients.weight_tuples` listing object itself, so the two memos
    share it.
    """
    kind = mod.kind
    if kind in ("TowerF2", "DualTowerF2"):
        beta = alpha - mod.shift
        down = kind == "TowerF2"
        on = beta.triv == 0 and (beta.sgn <= 0 if down else beta.sgn >= 0)
        return ((),) if on else ()
    k = _diag_weight(mod, alpha)
    if k is None:
        return ()
    if kind in ("DualP", "DualPbar"):
        k = -k
    if k < 0:
        return ()
    lo = mod.s + 1 if kind in ("Pbar", "DualPbar", "IdealF2") else 1
    listing = weight_tuples(k, lo, n)
    if kind == "IdealF2":
        # at least one factor from the generating list
        return tuple(c for c in listing if (_min_index(c) or n + 1) <= mod.t)
    return listing


def module_ranks(mod: StandardModule, n: int,
                 alpha: Degree) -> tuple[int, int]:
    """(free rank, F_2 rank) of the module at one degree.

    >>> module_ranks(dual_p(shift=-4 * RHO), 2, -4 * RHO)
    (1, 0)
    >>> module_ranks(ideal_z(1), 2, ZERO)
    (1, 0)
    >>> module_ranks(ideal_f2(0, 1), 2, 2 * RHO)   # v1^2 alone has weight 2
    (0, 1)
    """
    gens = len(_gens(mod, n, alpha))
    return (0, gens) if mod.torsion else (gens, 0)


def _act(mod: StandardModule, c: tuple[int, ...], i: int,
         e: int) -> tuple[tuple[int, ...], int] | None:
    """vbar_i^e on the generator c: (image generator, coefficient), or None
    where it acts as zero.

    The one owner of the module action, read by the Koszul pieces for
    their differentials and their transitions.  The image moves the vbar_i
    exponent of c up by e, or down for the duals; the coefficient is 2
    exactly where a doubled pure IdealZ monomial lands on a plain ideal
    generator.  Whether the image is a generator of the target degree is
    the caller's to check.
    """
    kind = mod.kind
    if kind in ("TowerF2", "DualTowerF2"):
        return None
    if kind in ("Pbar", "DualPbar", "IdealF2") and i <= mod.s:
        return None
    if kind in ("DualP", "DualPbar"):
        if len(c) < i or c[i - 1] < e:
            return None
        return _bump(c, i, -e), 1
    image = _bump(c, i, e)
    if kind != "IdealZ":
        return image, 1
    return image, _embedding(mod, c) // _embedding(mod, image)


# --- the unstable Koszul complex, piece by piece ---------------------------

@lru_cache(maxsize=None)
def _cofaces(n: int) -> dict[tuple[int, ...], tuple]:
    """For each subset S of {1, ..., n}, the pairs (i, S + {i}) for i
    outside S, in increasing i.  The keys run by size, each size in
    lexicographic order, which orders the generators of each C^j."""
    return {subset: tuple((i, tuple(sorted(subset + (i,))))
                          for i in range(1, n + 1) if i not in subset)
            for size in range(n + 1)
            for subset in itertools.combinations(range(1, n + 1), size)}


def _stage(mod: StandardModule, n: int, e: int, alpha: Degree) -> dict:
    """The stage-e complex at alpha split by fine degree, as
    {m: (piece shape, {slot S: its generator})}.

    Slot S of C^|S| is M at alpha + e|vbar_S|.  Its generator c has fine
    degree m = c - e*1_S, or c + e*1_S for the duals, on which vbar lowers
    exponents; the differentials and the transition to stage e + 1
    preserve m, so a piece has at most one generator per slot.
    """
    step = e if mod.kind in ("DualP", "DualPbar") else -e
    pieces: dict[tuple[int, ...], dict] = {}
    for subset in _cofaces(n):
        at = alpha + RHO * (e * sum(2 ** i - 1 for i in subset))
        for c in _gens(mod, n, at):
            m = list(c) + [0] * (n - len(c))
            for i in subset:
                m[i - 1] += step
            pieces.setdefault(tuple(m), {})[subset] = c
    return {m: (_piece_key(mod, n, e, slots), slots)
            for m, slots in pieces.items()}


def _piece_key(mod: StandardModule, n: int, e: int, slots: dict) -> tuple:
    """The shape of a piece, which fixes its matrices: (torsion, n, the
    slots present, each coefficient of vbar_i^e out of slot S as (S, i, x)).

    Raises ValueError if an image is not the generator of slot S + {i}.
    """
    cofaces = _cofaces(n)
    edges = []
    for subset, c in slots.items():
        for i, union in cofaces[subset]:
            hit = _act(mod, c, i, e)
            if hit is None:
                continue
            if slots.get(union) != hit[0]:
                raise ValueError(f"vbar_{i}^{e} sends {c} out of its "
                                 f"piece of {mod.describe()}")
            edges.append((subset, i, hit[1]))
    return (mod.torsion, n, tuple(slots), tuple(edges))


@lru_cache(maxsize=None)
def _piece_homology(key: tuple) -> tuple[Subquotient, ...]:
    """H^0, ..., H^n of one piece shape, from its complex, which is built
    and checked (relations, d o d) once, when the shape is first met."""
    torsion, n, slots, edges = key
    layers = [[S for S in slots if len(S) == j] for j in range(n + 1)]
    index = {S: r for layer in layers for r, S in enumerate(layer)}
    maps = [zeros(len(layers[j + 1]), len(layers[j])) for j in range(n)]
    for subset, i, x in edges:
        sign = -1 if sum(1 for y in subset if y < i) % 2 else 1
        maps[len(subset)][index[tuple(sorted(subset + (i,)))],
                          index[subset]] = sign * x
    rels = [f2_relations([torsion] * len(layer)) for layer in layers]
    return tuple(map(CochainComplex(maps, rels).homology, range(n + 1)))


def _transition(mod: StandardModule, slots: dict,
                later: dict) -> tuple[int, ...]:
    """Coefficients of vbar_S on every slot S of a stage-e piece, in slot
    order; raises ValueError if an image is not the generator of slot S in
    `later`, the same piece at stage e + 1 (empty if there is none)."""
    coeffs = []
    for subset, c in slots.items():
        image, x = c, 1
        for i in subset:
            hit = _act(mod, image, i, 1)
            if hit is None:
                x = 0
                break
            image, x = hit[0], x * hit[1]
        if x and later.get(subset) != image:
            raise ValueError(f"vbar_{subset} sends {c} out of its piece "
                             f"of {mod.describe()}")
        coeffs.append(x)
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _piece_step(src: tuple, tgt: tuple,
                coeffs: tuple[int, ...]) -> tuple[bool, ...]:
    """Per s, whether vbar_S, with coefficients coeffs on the slots of the
    stage-e shape src, maps H^s of src onto H^s of the stage-(e+1) shape
    tgt."""
    onto = []
    for s, (was, now) in enumerate(zip(_piece_homology(src),
                                       _piece_homology(tgt))):
        rows = {S: r for r, S in enumerate(S for S in tgt[2] if len(S) == s)}
        cols = [(S, x) for S, x in zip(src[2], coeffs) if len(S) == s]
        step = zeros(len(rows), len(cols))
        for col, (subset, x) in enumerate(cols):
            if x:
                step[rows[subset], col] = x
        onto.append(map_is_surjective(induced_map(was, now, step),
                                      now.group))
    return tuple(onto)


def _stage_homology(stage: dict, n: int) -> list[tuple[int, int]]:
    """H^s of a stage as (free, F_2) ranks for each s = 0..n, summed over
    its pieces from the count of each shape."""
    totals = [(0, 0)] * (n + 1)
    for key, count in Counter(key for key, _ in stage.values()).items():
        for s, h in enumerate(_piece_homology(key)):
            a, b = h.group.summarize()
            totals[s] = (totals[s][0] + count * a, totals[s][1] + count * b)
    return totals


def _stage_onto(mod: StandardModule, n: int, prev: dict,
                here: dict) -> list[bool]:
    """Per s, whether the transition from stage prev to stage here is onto
    in H^s, piece by piece over one walk of prev's pieces: a piece of here
    with none in prev counts as onto for s only if its H^s is zero."""
    seen = set()
    for m, (key, slots) in prev.items():
        later = here.get(m)
        coeffs = _transition(mod, slots, later[1] if later else {})
        if later:
            seen.add(_piece_step(key, later[0], coeffs))
    seen.update(tuple(h.group.is_trivial() for h in _piece_homology(key))
                for m, (key, _) in here.items() if m not in prev)
    return [all(flags[s] for flags in seen) for s in range(n + 1)]


# the last stage an oracle run builds before it gives up
MAX_E = 60


def _first_stage(mod: StandardModule, alpha: Degree) -> int:
    """The oracle's first stage at alpha: two past the diagonal weight
    |k|, or 2 off the diagonal."""
    k = _diag_weight(mod, alpha)
    return 2 if k is None else abs(k) + 2


def lc_oracle(mod: StandardModule, n: int, s: int,
              alpha: Degree) -> tuple[int, int]:
    """H^s_J(M) at alpha as a certified stabilized Koszul colimit.

    The stages run from `_first_stage` up to MAX_E.  H^s settles at the
    first stage whose invariants equal the previous stage's and whose
    transition from it is onto in H^s (surjectivity plus equal invariants
    makes it an isomorphism of finitely generated groups).  Each stage is
    split into its pieces by fine degree, so invariants are summed over
    pieces and surjectivity is checked piece by piece, a stage-(e+1) piece
    with no stage-e piece being onto only if its H^s is zero.

    The degree fixes the whole run, so one memoized run per degree serves
    every s.  An s that does not settle by stage MAX_E raises
    StabilizationFailure, while the other s keep their answers.  A broken
    piece (a differential breaks the relations, d o d is not zero or an
    image leaves its piece) raises its ValueError for every s, and nothing
    of that run is memoized.  Each pair of stages is walked once for every
    s.  One memo per piece shape holds its H^s for every s, and the
    transition steps are memoized by shape pair; a whole sweep shares
    them, and a shape's relation and d o d checks run when it is first
    built.

    >>> lc_oracle(p_module(), 1, 1, -2 * RHO)
    (1, 0)
    >>> lc_oracle(dual_p(), 2, 0, -3 * RHO)
    (2, 0)
    """
    if s < 0 or s > n:
        return (0, 0)
    if n == 0:
        return module_ranks(mod, 0, alpha)
    got = _oracle_run(mod, n, alpha)[s]
    if got is None:
        raise StabilizationFailure(
            f"Koszul colimit for {mod.describe()} H^{s} at {alpha} "
            f"did not settle by stage {MAX_E}")
    return got


@lru_cache(maxsize=None)
def _oracle_run(mod: StandardModule, n: int, alpha: Degree) -> tuple:
    """lc_oracle's certificate for every s = 0..n over one pass of stages:
    per s its ranks, or None if it did not settle by stage MAX_E, the
    answer that a run for that s alone would give.  A pair of stages is
    walked once, for every s, and only when some unsettled s has equal
    totals at both.  A ValueError from a broken piece propagates, so
    lru_cache keeps nothing of the run."""
    out: list = [None] * (n + 1)
    totals = prev = None
    for e in range(_first_stage(mod, alpha), MAX_E + 1):
        if None not in out:
            break
        here = _stage(mod, n, e, alpha)
        now = _stage_homology(here, n)
        todo = [s for s in range(n + 1)
                if out[s] is None and totals and now[s] == totals[s]]
        if todo:
            onto = _stage_onto(mod, n, prev, here)
            for s in todo:
                if onto[s]:
                    out[s] = now[s]
        totals, prev = now, here
    return tuple(out)


# --- closed forms -----------------------------------------------------------

@record
class LCSummand(NamedTuple):
    """One summand of the local cohomology of a catalogue module."""

    s: int
    module: StandardModule


@lru_cache(maxsize=None)
def lc_closed_form(mod: StandardModule, n: int) -> tuple[LCSummand, ...]:
    """H^*_J(M) as a tuple of catalogue summands with absolute shifts,
    memoized per (mod, n).

    J-power-torsion modules (duals, towers, Pbar_n) are their own H^0.
    The polynomial-type modules concentrate in the top degree n - s, with
    a second group in degree n - t + 1 for the two-step ideals.  The
    contested conventions here are the oracle-confirmed ones; see
    convention_report().

    >>> [(m.s, m.module.describe()) for m in lc_closed_form(p_module(), 2)]
    [(2, 'P*(-4-4s)')]
    >>> [(m.s, m.module.describe()) for m in lc_closed_form(ideal_z(2), 2)]
    [(2, 'P*(-4-4s)'), (1, 'Pbar2^')]
    >>> lc_closed_form(pbar(1), 1) is lc_closed_form(pbar(1), 1)
    True
    """
    sh = mod.shift
    dn = total_vbar_degree(n)
    if n == 0:
        return (LCSummand(0, mod),)
    kind = mod.kind
    if kind in ("DualP", "DualPbar", "TowerF2", "DualTowerF2"):
        return (LCSummand(0, mod),)
    if kind == "P":
        return (LCSummand(n, dual_p(sh - dn)),)
    if kind == "Pbar":
        if mod.s >= n:
            return (LCSummand(0, mod),)
        ds = total_vbar_degree(mod.s)
        return (LCSummand(n - mod.s, dual_pbar(mod.s, sh + ds - dn)),)
    if kind == "IdealZ":
        out = [LCSummand(n, dual_p(sh - dn))]
        t = min(mod.t, n)
        if t >= 1:
            dt = total_vbar_degree(t)
            out.append(LCSummand(n - t + 1, dual_pbar(t, sh + dt - dn)))
        return tuple(out)
    # IdealF2(s, t): principal ideals are free of rank one over Pbar_s,
    # shifted by the weight 2^(s+1) - 1 of their generator.
    s, t = mod.s, min(mod.t, n)
    if s >= n:
        raise ValueError(f"{mod.describe()} is zero for n = {n}")
    ds = total_vbar_degree(s)
    extra = RHO * (2 ** (s + 1) - 1) if t == s + 1 else ZERO
    out = [LCSummand(n - s, dual_pbar(s, sh + ds - dn + extra))]
    if t >= s + 2:
        dt = total_vbar_degree(t)
        out.append(LCSummand(n - t + 1, dual_pbar(t, sh + dt - dn)))
    return tuple(out)


def lc_ranks(mod: StandardModule, n: int, s: int,
             alpha: Degree) -> tuple[int, int]:
    """(free, F_2) ranks of H^s_J(M) at alpha from the closed form.

    >>> lc_ranks(p_module(), 2, 2, -4 * RHO)
    (1, 0)
    >>> lc_ranks(pbar(1), 2, 1, -3 * RHO)
    (0, 1)
    """
    free = f2 = 0
    for summand in lc_closed_form(mod, n):
        if summand.s == s:
            a, b = module_ranks(summand.module, n, alpha)
            free += a
            f2 += b
    return (free, f2)


def check_closed_form(mod: StandardModule, n: int, k_lo: int,
                      k_hi: int) -> None:
    """Compare closed form against the Koszul oracle on a window.

    Scans the rho-line through the module's natural support in the given
    k-range, every cohomological degree 0..n at each k, and raises
    AssertionError on the first mismatch.  The oracle settles every s at a
    degree in one memoized run, so the scan order does not change its cost.
    """
    for k in range(k_lo, k_hi + 1):
        for s in range(n + 1):
            alpha = mod.shift + RHO * k
            want = lc_ranks(mod, n, s, alpha)
            got = lc_oracle(mod, n, s, alpha)
            if want != got:
                raise AssertionError(
                    f"{mod.describe()}, H^{s} at {alpha}: closed form "
                    f"{want}, oracle {got}")


def convention_report() -> list[str]:
    """Settle the contested closed-form conventions against the oracle.

    Each witness pits the shipped formula against the rejected variant at
    a degree where they differ, runs the Koszul oracle, and reports which
    one survives.  Returns human-readable lines; raises AssertionError if
    the oracle ever sides with a rejected variant.
    """
    lines = []
    # principal ideal (vbar_2)Pbar_1 in P = Z[v1, v2]: shift by the full
    # generator weight 3*rho, not by 2*rho
    mod = ideal_f2(1, 2)
    got = lc_oracle(mod, 2, 1, ZERO)
    ship = lc_ranks(mod, 2, 1, ZERO)
    variant = module_ranks(dual_pbar(1, RHO * (1 - 4 + 2)), 2, ZERO)
    if got != ship or got == variant:
        raise AssertionError(
            f"principal-ideal witness inconclusive: oracle {got}, "
            f"shipped {ship}, variant {variant}")
    lines.append(
        "principal ideal (v2)Pbar1, n=2, H^1 at 0: oracle "
        f"{got} confirms generator-weight shift 3*rho; the flat s+1 "
        f"shift predicts {variant}")
    # two-step ideal (v1, v2)Pbar0: the dual summands shift by
    # (D_s - D_n)*rho downward, not upward
    mod = ideal_f2(0, 2)
    at = -4 * RHO
    got = lc_oracle(mod, 2, 2, at)
    ship = lc_ranks(mod, 2, 2, at)
    variant = module_ranks(dual_pbar(0, 4 * RHO), 2, at)
    if got != ship or got == variant:
        raise AssertionError(
            f"two-step ideal witness inconclusive: oracle {got}, "
            f"shipped {ship}, variant {variant}")
    lines.append(
        "two-step ideal (v1,v2)Pbar0, n=2, H^2 at -4rho: oracle "
        f"{got} confirms the downward shift (D_0 - D_2)*rho; the "
        f"mirrored sign predicts {variant}")
    # the second group of the same ideal, and of (2, v1, v2)P, already
    # carries the downward sign in all readings; confirm it anyway
    for mod, s in ((ideal_f2(0, 2), 1), (ideal_z(2), 1)):
        got = lc_oracle(mod, 2, s, ZERO)
        ship = lc_ranks(mod, 2, s, ZERO)
        if got != ship:
            raise AssertionError(
                f"{mod.describe()} H^{s} at 0: oracle {got}, shipped {ship}")
        lines.append(
            f"{mod.describe()}, n=2, H^{s} at 0: oracle {got} matches "
            "the shipped (D_t - D_n)*rho shift")
    return lines
