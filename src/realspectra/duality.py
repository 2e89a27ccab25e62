"""Degreewise Anderson duals and Gorenstein duality of the truncated rings.

For a spectrum with coefficient groups G the integral Anderson dual has
pi_alpha = Hom(G(-alpha), Z) + Ext(G(-alpha - 1), Z), and the universal
coefficient sequence splits rank-wise, so the dual of a (free, F_2)
table is again such a table.  The derived vbar-power torsion Gamma has
pi assembled from the local cohomology tables of the two blocks: the
spectral sequence H^s(pi_(star + V)) => pi_(V - s) Gamma places an H^s
class one trivial degree down per s, which is how lc_of_block already
grades its rows, so each U-translate of a block contributes the row it
lands on.  The collapse leaves nothing to decide except finitely many
d_2 differentials and additive extensions; those ship as explicit SSData
(JSON files under ssdata/) that the verifier both consumes and
stress-tests, since removing any datum must break the comparison

    pi_alpha Gamma  ==  pi_(alpha + W) of the Anderson dual,

with W the Gorenstein shift of the truncation.  verify_gorenstein splits
into two parts.  gorenstein_table, cached per (n, window), holds
everything the SSData cannot change: the dual value of each checked
degree, the block degrees summed into its Gamma value, those blocks'
totals with no records applied (their H^s rank rows are cached per
(n, kind, block degree) and are the rows gamma_block reads), and the
degrees that mismatch with no records.  A verification under SSData then
costs one C-level copy of the record list, plus the blocks its records
can change and the degrees that sum over them: the ends of its d_2's,
and the blocks its extensions cover that hold both a free and an F_2
summand.  Each such block is recomputed from the records at it alone, by
the rule gamma_block applies, and only the degrees over it are summed
again.
`gamma_groups` in tests/oracles.py, the reference it is checked against,
sums the same blocks degree by degree with no shared table.

verify_quotient_duality checks the quotient counterpart against a Koszul
colimit built degreewise from quotient tower groups.  The mapping-group
computation that pins the duality equivalence down, including the
restriction index that distinguishes the correct suspension from the
plain one, and the duality shifts of the named spectra are certificates
in the tests (`maps_from_quotient` and `shift_for` in tests/oracles.py).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from functools import lru_cache, partial
from importlib import resources
from typing import NamedTuple

from .blocks import (_bbprime_diag_max, _unit_degree, assemble_groups,
                     lc_of_block)
from .coefficients import (InconsistentSSData, InternalInconsistency,
                           QuotientIdeal, UnknownExtension, group_in_degree)
from .grading import (DELTA, ONE, Degree, RHO, Window, _new, json_int,
                      record, total_vbar_degree)
# closed_form_state is not called here: perfbench/selftest.py checks that
# tracing rebinds it in this namespace
from .hfpss import closed_form_state  # noqa: F401
from .localcoh import module_ranks


# --- spectral sequence data --------------------------------------------------

class _DifferentialFields(NamedTuple):
    block: str
    source: Degree
    target: Degree
    rank: int = 1


@record
class Differential(_DifferentialFields):
    """One rank of d_2: H^0 at source to H^2 at target, block coordinates."""

    __slots__ = ()

    def __new__(cls, block: str, source: Degree, target: Degree,
                rank: int = 1) -> "Differential":
        if block not in ("bb", "nb"):
            raise ValueError(f"unknown block {block!r}")
        if rank < 1:
            raise ValueError("differential rank must be positive")
        # d_2 raises s by 2 and lands one display diagonal down
        if target.triv - target.sgn != source.triv - source.sgn - 1:
            raise ValueError(
                f"d_2 from {source} must land on the next diagonal "
                f"down, not at {target}")
        return tuple.__new__(cls, (block, source, target, rank))


class _ExtensionFields(NamedTuple):
    block: str
    degree: Degree


@record
class Extension(_ExtensionFields):
    """A non-split Z-by-F_2 extension at degree and every rho-step below.

    Wherever a free and an F_2 summand share a degree on that line the
    two merge into a single Z (one merge per record per degree).
    """

    __slots__ = ()

    def __new__(cls, block: str, degree: Degree) -> "Extension":
        if block not in ("bb", "nb"):
            raise ValueError(f"unknown block {block!r}")
        return tuple.__new__(cls, (block, degree))

    def covers(self, gamma: Degree) -> bool:
        off = self.degree - gamma
        return off.triv == off.sgn and off.triv >= 0


@record
class SSData(NamedTuple):
    """Differentials and extensions of one truncation's torsion assembly."""

    n: int
    differentials: tuple[Differential, ...] = ()
    extensions: tuple[Extension, ...] = ()

    def items(self) -> tuple:
        return self.differentials + self.extensions

    def check_height(self, n: int) -> None:
        """Raise ValueError unless the data is for the n-truncation."""
        if self.n != n:
            raise ValueError(f"SSData is for n={self.n}, not n={n}")

    @staticmethod
    def from_dict(data: dict) -> "SSData":
        """SSData from its JSON form; ValueError if it is malformed or holds
        a key that names no field (a misspelt key would load as absent
        data)."""
        try:
            diffs = tuple(
                Differential(d["block"], Degree.from_json(d["source"]),
                             Degree.from_json(d["target"]),
                             json_int(d.get("rank", 1)))
                for d in data.get("differentials", ()))
            exts = tuple(Extension(e["block"], Degree.from_json(e["degree"]))
                         for e in data.get("extensions", ()))
            ss = SSData(json_int(data["n"]), diffs, exts)
        except (AttributeError, KeyError, TypeError) as err:
            raise ValueError(f"malformed SSData: {err!r}") from None
        _check_keys(data, ("n", "differentials", "extensions"))
        for d in data.get("differentials", ()):
            _check_keys(d, ("block", "source", "target", "rank"))
        for e in data.get("extensions", ()):
            _check_keys(e, ("block", "degree"))
        return ss


def _check_keys(entry: dict, fields: tuple[str, ...]) -> None:
    """ValueError naming the first key of entry that is not in fields."""
    for key in entry:
        if key not in fields:
            raise ValueError(f"malformed SSData: unknown key {key!r}")


def load_ssdata(text: str) -> SSData:
    """Parse SSData from its JSON text; ValueError if malformed."""
    return SSData.from_dict(json.loads(text))


def _shipped_ssdata_path(n: int):
    return resources.files(__package__) / "ssdata" / f"gorenstein_n{n}.json"


@lru_cache(maxsize=None)
def default_ssdata(n: int) -> SSData:
    """The shipped differential/extension data for one truncation.

    n = 0 and n = 1 have collapsed spectral sequences (no differentials);
    n = 1 carries the one non-split extension, n = 2 the three d_2 ranks
    and three extensions.  Other truncations start empty.
    """
    path = _shipped_ssdata_path(n)
    if not path.is_file():
        return SSData(n)
    return load_ssdata(path.read_text())


# --- assembling pi of Gamma --------------------------------------------------

@lru_cache(maxsize=None)
def _lc_row(n: int, kind: str, d: int):
    return tuple(lc_of_block(n, kind, d_lo=d, d_hi=d).get(d, ()))


@lru_cache(maxsize=None)
def _block_rows(n: int, kind: str,
                gamma: Degree) -> tuple[tuple[int, int, int], ...]:
    """(s, free, F_2) of the local cohomology rows through a block degree.

    Ranks are summed per s; an s with nothing at gamma is left out.
    """
    by_s: dict[int, list[int]] = {}
    for s, _column, module in _lc_row(n, kind, gamma.triv - gamma.sgn):
        f, t = module_ranks(module, n, gamma)
        if f or t:
            acc = by_s.setdefault(s, [0, 0])
            acc[0] += f
            acc[1] += t
    return tuple((s, f, t) for s, (f, t) in by_s.items())


def _block_value(n: int, kind: str, gamma: Degree,
                 ranks: list[tuple[int, int]], merges: int) -> tuple[int, int]:
    """(free, F_2) of one block degree from the records at it: ranks lists
    the (slot, rank) of each d_2 ending there, in record order, and merges
    counts the extensions covering it.

    Raises InconsistentSSData when a differential asks for more rank than
    the row has at its end.
    """
    rows = _block_rows(n, kind, gamma)
    free = f2 = 0
    for _s, f, t in rows:
        free += f
        f2 += t
    if ranks:
        left = {s: t for s, _f, t in rows}
        for slot, rank in ranks:
            have = left.get(slot, 0)
            if have < rank:
                raise InconsistentSSData(
                    f"d_2 needs {rank} F_2 in H^{slot} of {kind} "
                    f"at {gamma}, found {have}")
            left[slot] = have - rank
            f2 -= rank
    # each covering extension merges one F_2 into a free summand
    if free:
        f2 = max(f2 - merges, 0)
    return (free, f2)


def gamma_block(n: int, kind: str, gamma: Degree,
                ss: SSData) -> tuple[int, int]:
    """(free, F_2) of GBB or GNB at one block degree.

    Sums the local cohomology row through the degree, cancels the d_2
    ranks of ss, then applies its extension merges, by the per-block rule
    that verify_gorenstein applies to each block its records reach.
    Raises InconsistentSSData when a differential asks for more rank than
    the row has at its end.
    """
    ranks = [(slot, rec.rank) for rec in ss.differentials
             if rec.block == kind
             for slot, at in ((0, rec.source), (2, rec.target))
             if at == gamma]
    merges = sum(1 for rec in ss.extensions
                 if rec.block == kind and rec.covers(gamma))
    return _block_value(n, kind, gamma, ranks, merges)


def _block_degrees(n: int, alpha: Degree) -> tuple[tuple[str, Degree], ...]:
    """The (kind, block degree) pairs whose values sum to pi_alpha Gamma:
    the U-translates of GBB[U] (u-power >= 0), then those of
    U^(-1) GNB[U^(-1)]."""
    step = _unit_degree(n)
    span = 2 ** (n + 2)
    d = alpha.triv - alpha.sgn
    bb = (("bb", alpha - step * k)  # display rows reach -n
          for k in range((d + n) // span + 1))
    nb = (("nb", alpha + step * j)
          for j in range(1, (_bbprime_diag_max(n) - d) // span + 1))
    return (*bb, *nb)


# --- Anderson duals -----------------------------------------------------------

def anderson_dual_groups(groups, alpha: Degree) -> tuple[int, int]:
    """(free, F_2) of the integral Anderson dual at alpha.

    groups is a callable Degree -> (free, F_2).  The universal
    coefficient sequence contributes Hom of the groups at -alpha and Ext
    of the groups one further down; both functors preserve the rank
    split.

    >>> table = {Degree(3, 0): (1, 1)}
    >>> g = lambda a: table.get(a, (0, 0))
    >>> anderson_dual_groups(g, Degree(-3, 0))
    (1, 0)
    >>> anderson_dual_groups(g, Degree(-4, 0))
    (0, 1)
    """
    return (groups(-alpha)[0], groups(-alpha - ONE)[1])


def gorenstein_shift(n: int) -> Degree:
    """W with Gamma = Sigma^(-W) of the Anderson dual, W = D rho + n + 2 delta.

    >>> gorenstein_shift(0), gorenstein_shift(1), gorenstein_shift(2)
    (Degree(triv=2, sgn=-2), Degree(triv=4, sgn=-1), Degree(triv=8, sgn=2))
    """
    return total_vbar_degree(n) + Degree(n, 0) + 2 * DELTA


# --- verification reports -----------------------------------------------------

@record
class DualityRecord(NamedTuple):
    degree: Degree
    gamma: tuple[int, int]
    dual: tuple[int, int]
    ok: bool
    note: str = ""

    def to_json(self) -> dict:
        out = {"degree": self.degree.to_json(),
               "gamma": list(self.gamma),
               "dual": list(self.dual),
               "ok": self.ok}
        if self.note:
            out["note"] = self.note
        return out


@record
class DualityReport(NamedTuple):
    """The checked degrees' records and, in the same order, those that
    fail; whoever builds the report lists the failures."""

    records: list[DualityRecord]
    mismatches: list[DualityRecord]
    summary: str = ""

    @property
    def skipped(self) -> list[DualityRecord]:
        return [r for r in self.records if r.ok and r.note]

    @property
    def clean(self) -> bool:
        return not self.mismatches

    def to_json(self) -> str:
        body = [r.to_json() for r in sorted(
            self.records, key=lambda r: (r.degree.triv, r.degree.sgn))]
        return json.dumps({"summary": self.summary, "records": body},
                          sort_keys=True)


@lru_cache(maxsize=None)
def _placement_line(n: int, rec: Differential) -> str:
    """One differential's line of the placement note; it reads only
    cached block rows, so it is memoized per (n, record)."""
    shifted = rec.source - ONE
    have = sum(t for s, _f, t in _block_rows(n, rec.block, shifted)
               if s == 0)
    verdict = "also available" if have >= rec.rank else "has no H^0 class"
    return (f"d_2 source placed at {rec.source} (H^0 of {rec.block}); "
            f"the reading one trivial degree down, {shifted}, {verdict}")


def _placement_note(n: int, ss: SSData) -> str:
    """Log which d_2 source reading is consistent with the H^0 ranks."""
    return "; ".join([_placement_line(n, rec) for rec in ss.differentials])


@record
class GorensteinTable(NamedTuple):
    """The SSData-independent half of verify_gorenstein on one window.

    records holds, in (triv, sgn) order, one record per checked degree,
    carrying the dual value and the Gamma total with no records applied;
    mismatches the indices of those records that fail.  blocks holds, at
    a record's index, the (kind, block degree) pairs summed into its
    total.  base maps each block degree to its value with no records,
    users to the indices that sum over it, and lines groups by (kind,
    display diagonal), the lines along which an extension record reaches,
    the block degrees whose base value has both a free and an F_2
    summand, in ascending order: the blocks an extension can change are a
    prefix of its line.  That is exact: `_block_value` merges only where
    the block has a free summand, and a d_2 only lowers F_2 and raises
    InconsistentSSData whatever the merges, so at a block without both
    summands a covering extension leaves the value, or the error, as it
    is.  Shared through a cache: read only.
    """

    n: int
    records: tuple[DualityRecord, ...]
    mismatches: tuple[int, ...]
    blocks: tuple[tuple[tuple[str, Degree], ...], ...]
    base: dict[tuple[str, Degree], tuple[int, int]]
    users: dict[tuple[str, Degree], tuple[int, ...]]
    lines: dict[tuple[str, int], tuple[Degree, ...]]


@lru_cache(maxsize=None)
def gorenstein_table(n: int, window: Window) -> GorensteinTable:
    """Everything verify_gorenstein reads that no SSData can change.

    Covers every alpha with both alpha and -alpha inside the window;
    built once per (n, window) and cached.
    """
    shift = gorenstein_shift(n)
    # one degree's Ext read is the next degree's Hom read
    dual_of = lru_cache(maxsize=None)(partial(assemble_groups, n))
    empty = SSData(n)
    records: list[DualityRecord] = []
    summed: list[tuple[tuple[str, Degree], ...]] = []
    base: dict[tuple[str, Degree], tuple[int, int]] = {}
    users: dict[tuple[str, Degree], list[int]] = {}
    lines: dict[tuple[str, int], list[Degree]] = {}
    for alpha in sorted(window):
        if -alpha not in window:
            continue
        blocks = _block_degrees(n, alpha)
        free = f2 = 0
        for key in blocks:
            value = base.get(key)
            if value is None:
                kind, gamma = key
                value = base[key] = gamma_block(n, kind, gamma, empty)
                if value[0] and value[1]:   # the blocks a merge can change
                    lines.setdefault((kind, gamma.triv - gamma.sgn),
                                     []).append(gamma)
            users.setdefault(key, []).append(len(records))
            free += value[0]
            f2 += value[1]
        dual = anderson_dual_groups(dual_of, alpha + shift)
        records.append(DualityRecord(alpha, (free, f2), dual,
                                     (free, f2) == dual))
        summed.append(blocks)
    return GorensteinTable(
        n, tuple(records),
        tuple(i for i, r in enumerate(records) if not r.ok),
        tuple(summed), base,
        {key: tuple(at) for key, at in users.items()},
        {key: tuple(sorted(at)) for key, at in lines.items()})


def _apply_records(table: GorensteinTable, ss: SSData
                   ) -> tuple[list[DualityRecord], list[DualityRecord]]:
    """The table's records with ss applied, and those that fail, in record
    order.

    Only the blocks a record can change are recomputed, each from the
    records at it alone: a differential reaches the block degrees of its
    two ends, an extension the blocks on its `lines` entry that it covers.
    A recomputed block's change from its base value is added to each
    degree summing over it; every other degree keeps its base record and
    verdict.
    """
    base = table.base
    # block -> [(slot, rank) of each d_2 ending there, in record order,
    # number of extensions covering it]
    at: dict = {}
    for rec in ss.differentials:
        for slot, end in ((0, rec.source), (2, rec.target)):
            key = (rec.block, end)
            if key in base:
                at.setdefault(key, [[], 0])[0].append((slot, rec.rank))
    for rec in ss.extensions:
        degree = rec.degree
        line = table.lines.get((rec.block, degree.triv - degree.sgn), ())
        for gamma in line[:bisect_right(line, degree)]:
            at.setdefault((rec.block, gamma), [[], 0])[1] += 1
    delta: dict[int, list[int]] = {}   # record index -> change of its total
    errors: dict = {}
    for key, (ranks, merges) in at.items():
        try:
            free, f2 = _block_value(table.n, *key, ranks, merges)
        except InconsistentSSData as err:
            errors[key] = err
            continue
        plain = base[key]
        free -= plain[0]
        f2 -= plain[1]
        if free or f2:
            for i in table.users[key]:
                acc = delta.get(i)
                if acc is None:
                    delta[i] = [free, f2]
                else:
                    acc[0] += free
                    acc[1] += f2
    records = list(table.records)
    for i, (free, f2) in delta.items():
        plain = records[i]
        gamma = (plain.gamma[0] + free, plain.gamma[1] + f2)
        records[i] = _new(DualityRecord, (plain.degree, gamma, plain.dual,
                                          gamma == plain.dual, ""))
    broken = {i for key in errors for i in table.users[key]}
    for i in broken:
        # in _block_degrees order: the first bad block reports
        note = next(str(errors[key]) for key in table.blocks[i]
                    if key in errors)
        plain = records[i]
        records[i] = _new(DualityRecord, (plain.degree, (-1, -1), plain.dual,
                                          False, note))
    changed = delta.keys() | broken
    bad = sorted([i for i in table.mismatches if i not in changed]
                 + [i for i in changed if not records[i].ok])
    return records, [records[i] for i in bad]


def verify_gorenstein(n: int, window: Window,
                      ss: SSData | None = None) -> DualityReport:
    """Compare pi of Gamma with the W-shifted Anderson dual degreewise.

    Checks every alpha with both alpha and -alpha inside the window.
    gorenstein_table(n, window) supplies the dual side, the Gamma blocks
    with no records applied and the records that then mismatch.  The
    report copies the table's records once and recomputes only the blocks
    a record of ss can change: the ends of its d_2's and the covered
    blocks with both a free and an F_2 summand.  It re-sums only the
    degrees over them and lists as mismatches, in record order, the
    table's outside those degrees and the re-summed ones that fail.  The
    answers equal summing gamma_block over _block_degrees degree by
    degree, as `gamma_groups` in tests/oracles.py does.  Inconsistent
    differential data is recorded as a mismatch at the degree that
    exposes it, not raised.  Raises
    ValueError when ss is for another truncation.  When ss is None and no
    SSData ships for n, a summary with mismatches says so.
    """
    unshipped = ss is None and not _shipped_ssdata_path(n).is_file()
    ss = default_ssdata(n) if ss is None else ss
    ss.check_height(n)
    records, mismatches = _apply_records(gorenstein_table(n, window), ss)
    summary = (f"n={n}: {len(records)} degrees on {window}, "
               f"{len(mismatches)} mismatches")
    placement = _placement_note(n, ss)
    if placement:
        summary += "; " + placement
    if mismatches and unshipped:
        summary += f"; no SSData shipped for n={n}"
    return DualityReport(records, mismatches, summary)


# --- quotient duality ----------------------------------------------------------

def _quotient_weight(ideal: QuotientIdeal) -> int:
    """m' = sum (e - 1)(2^i - 1) over the vbar_i killed at a power e > 1.

    >>> _quotient_weight(QuotientIdeal((2, 0, 3)))
    15
    """
    return sum((e - 1) * (2 ** (i + 1) - 1)
               for i, e in enumerate(ideal.exponents) if e > 1)


def _kappa_stage(ideal: QuotientIdeal, gamma: Degree,
                 probe: int) -> tuple[QuotientIdeal, Degree]:
    """One cofinal Koszul stage at gamma: a boxed quotient and its offset.

    Each direction still alive in the quotient is killed deep enough that
    no monomial of the rho-weight reachable from gamma can escape the box;
    directions whose weight alone exceeds the reach are cut at power one.
    The colimit enters pi at gamma + sum (depth_i - 1) |vbar_i|.  The probe
    deepens every boxed direction (and opens the first cut one) so a second
    reading certifies the count is stable.
    """
    reach = max(0, -min(gamma.triv, gamma.sgn)) + _quotient_weight(ideal)
    size = max(len(ideal.exponents), (reach + 1).bit_length() + 2)
    exps: list[int] = []
    offset = Degree(0, 0)
    opened = False
    for index in range(1, size + 1):
        if index <= len(ideal.exponents):
            e = ideal.exponents[index - 1]
        else:
            e = 1 if ideal.tail else 0
        if e:
            exps.append(e)
            continue
        part = 2 ** index - 1
        if part <= reach:
            depth = reach // part + 2 + probe
        elif probe and not opened:
            depth, opened = 2, True
        else:
            depth = 1
        exps.append(depth)
        offset += (depth - 1) * part * RHO
    return QuotientIdeal(tuple(exps), tail=1), offset


def kappa_groups(ideal, gamma: Degree) -> tuple[int, int]:
    """(free, F_2) of the stable Koszul complex on the kept generators.

    The defining colimit runs over quotients by growing powers of the kept
    vbar, entering at gamma plus the accumulated generator degrees.  On the
    k rho and k rho - 1 lines of gamma the transition maps include each
    boxed stage into the next, so the colimit is read off one stage whose
    box already covers the reachable weight; a deeper probe stage must
    agree, and disagreement raises InternalInconsistency.  Degrees without
    a trusted extension raise UnknownExtension.  The degree alone fixes
    each stage's tower.
    """
    ideal = QuotientIdeal.of(ideal)
    values = []
    for probe in (0, 1):
        stage, offset = _kappa_stage(ideal, gamma, probe)
        values.append(group_in_degree(gamma + offset, stage))
    if len(set(values)) != 1:
        raise InternalInconsistency(
            f"kappa colimit not stable at {gamma}: {values}")
    return values[0]


def verify_quotient_duality(m_seq, k_lo: int, k_hi: int) -> DualityReport:
    """Check the Koszul colimit of a quotient against its Anderson dual.

    The dual of B/vbar^m is the kappa complex of the kept generators,
    suspended by -m' + 4 - 2 rho; equivalently pi_gamma of the colimit
    is pi_{gamma + shift} of the dual.  The colimit reading is
    single-staged on the k rho and k rho - 1 lines, so those are the
    colimit-side degrees gamma checked, for k_lo <= k <= k_hi, in
    ascending order.  Degrees whose quotient groups carry an unresolved
    extension are listed but not judged.
    """
    ideal = QuotientIdeal.of(m_seq)
    kappa_shift = Degree(4, 0) - 2 * RHO - _quotient_weight(ideal) * RHO

    target = partial(group_in_degree, ideal=ideal)

    records = []
    for k in range(k_lo, k_hi + 1):
        for gamma in (k * RHO - ONE, k * RHO):
            try:
                dual = anderson_dual_groups(target, gamma + kappa_shift)
                kappa = kappa_groups(ideal, gamma)
            except UnknownExtension as err:
                records.append(DualityRecord(
                    gamma, (0, 0), (0, 0), True, f"skipped: {err}"))
                continue
            records.append(DualityRecord(gamma, kappa, dual, kappa == dual))
    bad = [r for r in records if not r.ok]
    name = ("full ring" if ideal == QuotientIdeal() else
            f"quotient {tuple(ideal.exponents)} tail={ideal.tail}")
    summary = (f"{name} rho lines k in [{k_lo}, {k_hi}]: "
               f"{len(records)} degrees, {len(bad)} mismatches")
    return DualityReport(records, bad, summary)

