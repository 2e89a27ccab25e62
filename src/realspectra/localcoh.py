"""Degreewise local cohomology for the diagonal catalogue modules.

Along each diagonal the positive and negative cones of the truncated
rings split into modules over P = Z_(2)[vbar_1, ..., vbar_n] drawn from
a short catalogue: P itself, the mod-2 quotients
Pbar_s = F_2[vbar_(s+1), ..., vbar_n], ideals inside both, their graded
duals, and rank-one F_2 towers along the sigma axis.  This module owns
that catalogue: exact degreewise ranks and generator bases,
multiplication matrices for the vbar_i, closed-form local cohomology at
the augmentation ideal J = (vbar_1, ..., vbar_n), and an independent
unstable-Koszul oracle that recomputes each H^s_J degreewise and
certifies its own stabilization.

The oracle's unit of work is one stage complex C^0 -> ... -> C^n per
(module, n, stage e, degree): it is built once, its relation and d o d
checks run once, and every H^s at that stage is computed from it.  Stages
are kept in a cache bounded by their total number of matrix entries
(STAGE_ENTRIES), which every s shares: a sweep over s = 0..n at one
degree, in any order, builds each stage once while it stays cached.

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

import dataclasses
import itertools
from functools import lru_cache, wraps
from typing import NamedTuple

from .abelian import (CochainComplex, Matrix, f2_relations, identity,
                      induced_map, map_is_surjective, mat_mul, zeros)
from .coefficients import StabilizationFailure, _bump, _weight_tuples_in
from .grading import Degree, RHO, ZERO, total_vbar_degree

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


def module_gens(mod: StandardModule, n: int,
                alpha: Degree) -> list[tuple[tuple[int, ...], int]]:
    """Generators (exponent tuple, embedding coefficient) at one degree.

    The embedding coefficient is 2 exactly for the IdealZ generators that
    enter the ideal only as doubles (pure vbar_(>t) monomials); it is 1
    everywhere else.  F_2-ness is carried by module_rels, not here.

    The listing is computed once per (mod, n, alpha) and cached as a tuple
    of tuples, which no caller can alter; each call returns a fresh list
    copy of it.
    """
    return list(_gens(mod, n, alpha))


@lru_cache(maxsize=None)
def _gens(mod: StandardModule, n: int,
          alpha: Degree) -> tuple[tuple[tuple[int, ...], int], ...]:
    """module_gens as an immutable cached tuple, for the hot callers."""
    kind = mod.kind
    if kind in ("TowerF2", "DualTowerF2"):
        beta = alpha - mod.shift
        down = kind == "TowerF2"
        on = beta.triv == 0 and (beta.sgn <= 0 if down else beta.sgn >= 0)
        return (((), 1),) if on else ()
    k = _diag_weight(mod, alpha)
    if k is None:
        return ()
    if kind in ("DualP", "DualPbar"):
        k = -k
    if k < 0:
        return ()
    lo = mod.s + 1 if kind in ("Pbar", "DualPbar", "IdealF2") else 1
    listing = _weight_tuples_in(k, lo, n)
    if kind == "IdealZ":
        out = []
        for c in listing:
            m = _min_index(c)
            out.append((c, 1 if m is not None and m <= mod.t else 2))
        return tuple(out)
    if kind == "IdealF2":
        # at least one factor from the generating list
        return tuple((c, 1) for c in listing
                     if (_min_index(c) or n + 1) <= mod.t)
    return tuple((c, 1) for c in listing)


def module_rels(mod: StandardModule, gens: int) -> Matrix:
    """Relation matrix for gens generators of the module, one summand or
    several (every degree of a catalogue module is free or F_2 alike)."""
    return f2_relations([mod.torsion] * gens)


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


def vbar_matrix(mod: StandardModule, n: int, i: int, e: int,
                alpha: Degree) -> Matrix:
    """Multiplication by vbar_i^e from degree alpha to alpha + e|vbar_i|.

    Rows index the target generators, columns the source generators; the
    IdealZ case can pick up a coefficient 2 when a doubled pure monomial
    lands on a plain ideal generator.
    """
    src = _gens(mod, n, alpha)
    tgt = _gens(mod, n, alpha + RHO * (e * (2 ** i - 1)))
    mat = zeros(len(tgt), len(src))
    kind = mod.kind
    if kind in ("TowerF2", "DualTowerF2"):
        return mat
    if kind in ("Pbar", "DualPbar", "IdealF2") and i <= mod.s:
        return mat
    where = {c: r for r, (c, _) in enumerate(tgt)}
    for col, (c, lam) in enumerate(src):
        if kind in ("DualP", "DualPbar"):
            if len(c) >= i and c[i - 1] >= e:
                mat[where[_bump(c, i, -e)], col] = 1
            continue
        image = _bump(c, i, e)
        if image not in where:
            continue
        row = where[image]
        if kind == "IdealZ":
            lam_tgt = tgt[row][1]
            mat[row, col] = lam // lam_tgt
        else:
            mat[row, col] = 1
    return mat


def mono_matrix(mod: StandardModule, n: int, exps: tuple[int, ...],
                alpha: Degree) -> Matrix:
    """Multiplication by the monomial with vbar-exponents exps."""
    mat = None
    here = alpha
    for i, e in enumerate(exps, start=1):
        if not e:
            continue
        step = vbar_matrix(mod, n, i, e, here)
        mat = step if mat is None else mat_mul(step, mat)
        here = here + RHO * (e * (2 ** i - 1))
    if mat is None:
        mat = identity(len(_gens(mod, n, alpha)))
    return mat


# --- the unstable Koszul complex -------------------------------------------

def _subsets(n: int, size: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(1, n + 1), size))


def _subset_weight(subset: tuple[int, ...]) -> int:
    return sum(2 ** i - 1 for i in subset)


@lru_cache(maxsize=None)
def _koszul_layer(mod: StandardModule, n: int, e: int, j: int,
                  alpha: Degree):
    """Summands of C^j at display degree alpha for the stage-e complex.

    C^j = direct sum over |S| = j of M in degree alpha + e * |vbar_S|,
    so that every multiplication in the differential preserves alpha.
    Returns ((S, its degree, its first generator index), ...) and the rank
    of C^j, listed once per (mod, n, e, j, alpha): each homology needs
    layer s three times and its transition map twice more.
    """
    summands = []
    start = 0
    for subset in _subsets(n, j):
        at = alpha + RHO * (e * _subset_weight(subset))
        summands.append((subset, at, start))
        start += len(_gens(mod, n, at))
    return tuple(summands), start


def _add_block(mat: Matrix, r0: int, c0: int, block: Matrix,
               sign: int = 1) -> None:
    """Add sign * block into mat with its top left corner at (r0, c0)."""
    for row, values in zip(mat.rows[r0:], block.rows):
        for c, x in enumerate(values, start=c0):
            row[c] += sign * x


def _koszul_differential(mod: StandardModule, n: int, e: int, j: int,
                         alpha: Degree) -> Matrix:
    """Matrix of C^j -> C^(j+1) at display degree alpha."""
    src, cols = _koszul_layer(mod, n, e, j, alpha)
    tgt, rows = _koszul_layer(mod, n, e, j + 1, alpha)
    row_of = {subset: r0 for subset, _, r0 in tgt}
    mat = zeros(rows, cols)
    for subset, at, c0 in src:
        for i in range(1, n + 1):
            if i in subset:
                continue
            bigger = tuple(sorted(subset + (i,)))
            sign = -1 if sum(1 for x in subset if x < i) % 2 else 1
            _add_block(mat, row_of[bigger], c0,
                       vbar_matrix(mod, n, i, e, at), sign)
    return mat


class _CacheInfo(NamedTuple):
    hits: int
    misses: int
    maxsize: int
    currsize: int


def _lru_by_size(maxsize: int, size):
    """An `lru_cache` bounded by the total `size` of the results it keeps
    instead of their count.

    The newest result is kept even when it alone exceeds `maxsize`.
    `cache_info` and `cache_clear` answer as on an `lru_cache`; `currsize`
    counts results, not their size.
    """
    def decorate(fn):
        kept: dict = {}   # args -> (result, its size), oldest first
        hits = misses = total = 0

        @wraps(fn)
        def cached(*args):
            nonlocal hits, misses, total
            got = kept.pop(args, None)
            if got is None:
                misses += 1
                result = fn(*args)
                got = (result, size(result))
                total += got[1]
            else:
                hits += 1
            kept[args] = got
            while total > maxsize and len(kept) > 1:
                total -= kept.pop(next(iter(kept)))[1]
            return got[0]

        def cache_clear() -> None:
            nonlocal hits, misses, total
            kept.clear()
            hits = misses = total = 0

        cached.cache_info = lambda: _CacheInfo(hits, misses, maxsize,
                                               len(kept))
        cached.cache_clear = cache_clear
        return cached
    return decorate


def _entries(stage: CochainComplex) -> int:
    return sum(m.size for m in stage.maps + stage.rels)


# matrix entries of the stage complexes kept at once, about 8 bytes each.
# check_closed_form runs every s at one degree before the next, so it
# needs only that degree's stages: up to about k = 3 for Pbar0 at n = 3
# (its stages e = 6, 7 at k = 4 hold 330,000).  Keeping every stage of a
# koszul sweep at n <= 2 (about 30,000 entries in all) across degrees
# serves only callers that visit degrees in shuffled order, as the
# perfbench koszul workload does.
STAGE_ENTRIES = 1 << 18


@_lru_by_size(STAGE_ENTRIES, _entries)
def _koszul_stage(mod: StandardModule, n: int, e: int,
                  alpha: Degree) -> CochainComplex:
    """The stage-e complex C^0 -> ... -> C^n at alpha, built and checked
    once while it stays in the bounded cache; every H^s of the stage is
    computed from it."""
    maps = [_koszul_differential(mod, n, e, j, alpha) for j in range(n)]
    rels = [module_rels(mod, _koszul_layer(mod, n, e, j, alpha)[1])
            for j in range(n + 1)]
    return CochainComplex(maps, rels)


def koszul_cohomology(mod: StandardModule, n: int, e: int, s: int,
                      alpha: Degree) -> tuple[int, int]:
    """H^s of the stage-e Koszul complex on (vbar_1^e, ..., vbar_n^e).

    This is one stage of the colimit defining H^s_J; lc_oracle drives e
    upward until the stages stabilize.

    >>> koszul_cohomology(p_module(), 1, 6, 1, -2 * RHO)
    (1, 0)
    >>> koszul_cohomology(pbar(0), 1, 5, 0, ZERO)
    (0, 0)
    """
    if s < 0 or s > n:
        return (0, 0)
    return _koszul_stage(mod, n, e, alpha).homology(s).group.summarize()


def _transition_matrix(mod: StandardModule, n: int, e: int, s: int,
                       alpha: Degree) -> Matrix:
    """Chain map C^s(stage e) -> C^s(stage e+1): multiply by vbar_S."""
    src, cols = _koszul_layer(mod, n, e, s, alpha)
    tgt, rows = _koszul_layer(mod, n, e + 1, s, alpha)
    mat = zeros(rows, cols)
    for (subset, at, c0), (_, _, r0) in zip(src, tgt):
        exps = tuple(int(i in subset)
                     for i in range(1, max(subset, default=0) + 1))
        _add_block(mat, r0, c0, mono_matrix(mod, n, exps, at))
    return mat


def lc_oracle(mod: StandardModule, n: int, s: int, alpha: Degree,
              e_start: int | None = None, confirm: int = 1,
              max_e: int = 60) -> tuple[int, int]:
    """H^s_J(M) at alpha as a certified stabilized Koszul colimit.

    The certificate demands `confirm` consecutive stages with equal
    invariants whose transition maps are isomorphisms (surjectivity plus
    equal invariants suffices for finitely generated groups); raises
    StabilizationFailure if max_e stages never settle.  Each stage complex
    comes from the bounded stage cache that every s shares, checked once
    when it was built (ValueError if a differential breaks the relations
    or d o d is not zero); H^s is computed from it on each call.

    >>> lc_oracle(p_module(), 1, 1, -2 * RHO)
    (1, 0)
    >>> lc_oracle(dual_p(), 2, 0, -3 * RHO)
    (2, 0)
    """
    if s < 0 or s > n:
        return (0, 0)
    if n == 0:
        return module_ranks(mod, 0, alpha)
    k = _diag_weight(mod, alpha)
    if e_start is None:
        e_start = max(2, abs(k) + 2 if k is not None else 2)
    prev = None
    good = 0
    for e in range(e_start, max_e + 1):
        here = _koszul_stage(mod, n, e, alpha).homology(s)
        if prev is not None:
            same = prev.group.summarize() == here.group.summarize()
            if same:
                step = _transition_matrix(mod, n, e - 1, s, alpha)
                induced = induced_map(prev, here, step)
                if map_is_surjective(induced, here.group):
                    good += 1
                    if good >= confirm:
                        return here.group.summarize()
                else:
                    good = 0
            else:
                good = 0
        prev = here
    raise StabilizationFailure(
        f"Koszul colimit for {mod.describe()} H^{s} at {alpha} "
        f"did not settle by stage {max_e}")


# --- closed forms -----------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class LCSummand:
    """One summand of the local cohomology of a catalogue module."""

    s: int
    module: StandardModule


def lc_closed_form(mod: StandardModule, n: int) -> list[LCSummand]:
    """H^*_J(M) as a list of catalogue summands with absolute shifts.

    J-power-torsion modules (duals, towers, Pbar_n) are their own H^0.
    The polynomial-type modules concentrate in the top degree n - s, with
    a second group in degree n - t + 1 for the two-step ideals.  The
    contested conventions here are the oracle-confirmed ones; see
    convention_report().

    >>> [(m.s, m.module.describe()) for m in lc_closed_form(p_module(), 2)]
    [(2, 'P*(-4-4s)')]
    >>> [(m.s, m.module.describe()) for m in lc_closed_form(ideal_z(2), 2)]
    [(2, 'P*(-4-4s)'), (1, 'Pbar2^')]
    """
    sh = mod.shift
    dn = total_vbar_degree(n)
    if n == 0:
        return [LCSummand(0, mod)]
    kind = mod.kind
    if kind in ("DualP", "DualPbar", "TowerF2", "DualTowerF2"):
        return [LCSummand(0, mod)]
    if kind == "P":
        return [LCSummand(n, dual_p(sh - dn))]
    if kind == "Pbar":
        if mod.s >= n:
            return [LCSummand(0, mod)]
        ds = total_vbar_degree(mod.s)
        return [LCSummand(n - mod.s, dual_pbar(mod.s, sh + ds - dn))]
    if kind == "IdealZ":
        out = [LCSummand(n, dual_p(sh - dn))]
        t = min(mod.t, n)
        if t >= 1:
            dt = total_vbar_degree(t)
            out.append(LCSummand(n - t + 1, dual_pbar(t, sh + dt - dn)))
        return out
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
    return out


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


def check_closed_form(mod: StandardModule, n: int, k_lo: int, k_hi: int,
                      confirm: int = 1) -> None:
    """Compare closed form against the Koszul oracle on a window.

    Scans the rho-line through the module's natural support in the given
    k-range, every cohomological degree 0..n at one k before the next k
    (so the stage complexes of a degree serve every s while cached), and
    raises AssertionError on the first mismatch.
    """
    for k in range(k_lo, k_hi + 1):
        for s in range(n + 1):
            alpha = mod.shift + RHO * k
            want = lc_ranks(mod, n, s, alpha)
            got = lc_oracle(mod, n, s, alpha, confirm=confirm)
            if want != got:
                raise AssertionError(
                    f"{mod.describe()}, H^{s} at {alpha}: closed form "
                    f"{want}, oracle {got}")


def convention_report(confirm: int = 1) -> list[str]:
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
    got = lc_oracle(mod, 2, 1, ZERO, confirm=confirm)
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
    got = lc_oracle(mod, 2, 2, at, confirm=confirm)
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
        got = lc_oracle(mod, 2, s, ZERO, confirm=confirm)
        ship = lc_ranks(mod, 2, s, ZERO)
        if got != ship:
            raise AssertionError(
                f"{mod.describe()} H^{s} at 0: oracle {got}, shipped {ship}")
        lines.append(
            f"{mod.describe()}, n=2, H^{s} at 0: oracle {got} matches "
            "the shipped (D_t - D_n)*rho shift")
    return lines
