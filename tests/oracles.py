"""Independent brute-force oracles, references and certificates shared by
the test modules.

The oracles first recompute answers from first principles (generator
products, with `multiply` on `CoeffElement` and the generators
`twisted_vbar`; raw monomial enumeration; explicit chain complexes) without
using the closed forms or shortcuts from the package, so agreement is
meaningful.  The references after them are different: they redo a package
computation the direct, slower way (`verify_gorenstein_per_degree` over
`gamma_groups`, `e_infinity_basis_two_rounds`,
`basis_cached_two_listings` over `enumerate_with_cap_reference`, `bb_cached_reference`,
`cell_listing_reference`,
`e2_basis_reference`, `smith_normal_form_full_rescan`, `module_gens_uncached`,
`vbar_matrix_reference`, `lc_oracle_dense` with its dense Koszul stages,
`tower_group_fresh`), to check an optimised path against; `mult_map`
builds the matrix of multiplication by a monomial between two degrees.
`PageStatesReference` and `run_differentials_reference` are the second
route for the spectral sequence: the propagation engine, which the package
no longer runs, against its closed-form pages.

The certificates at the end check statements of the paper that no
`realspectra` command prints, on top of the package's layers:
`underlying_groups` and `restriction_rank` (criterion 2),
`nilpotence_check` (criterion 8), `borel_classes` and
`completion_comparison` (the Borel completion against the geometric
cofibre), `gamma_a` (the negative block as the a-local cohomology of the
basic block, through `blocks.action_matrix`), `shift_for` with `ShiftSpec`
(criterion 7), and `maps_from_quotient` with `MapGroup` (the restriction
index of the duality map).
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from realspectra.abelian import (CochainComplex, Matrix, cokernel_of_map,
                                 f2_relations, map_is_surjective, zeros)
from realspectra.blocks import (AssembledClass, TowerClass, _bbprime_diag_max,
                                _unit_degree, action_matrix, assemble,
                                bb_basis, nb_basis)
from realspectra.coefficients import (BasisEntry, InternalInconsistency,
                                      Monomial, QuotientIdeal,
                                      StabilizationFailure, UnknownExtension,
                                      _image_class, _page_lattice,
                                      rank_summary, tower_group,
                                      vbar_monomial, weight_tuples)
from realspectra.duality import (_block_degrees, _quotient_weight,
                                 default_ssdata, gamma_block,
                                 gorenstein_shift)
from realspectra.grading import RHO, SIGMA, Degree, Window, record


def annihilated(mono: Monomial) -> bool:
    """Whether a relation vbar_i a^(2^(i+1)-1) = 0 of the presentation
    applies to mono."""
    return any(ci > 0 and mono.k >= 2 ** (i + 1) - 1
               for i, ci in enumerate(mono.c, start=1))


def bumped(c, i: int, by: int) -> list[int]:
    """c with its vbar_i entry moved by `by`, padded, not stripped: the
    plain formula for `coefficients._bump`."""
    out = list(c) + [0] * i
    out[i - 1] += by
    return out


def truncation(n: int) -> QuotientIdeal:
    """The quotient of the n-truncation: kill vbar_i for all i > n.

    >>> truncation(2)
    QuotientIdeal(exponents=(0, 0), tail=1)
    """
    return QuotientIdeal((0,) * n, tail=1)


def generator_pool(max_index: int, max_twist: int):
    """(monomial, coeff_2val) pairs for a and all vbar_m(n) within bounds.

    vbar_0(n) = 2u^n carries 2-valuation 1; other generators valuation 0.
    """
    gens = [(Monomial(1, 0), 0)]
    for n in range(-max_twist, max_twist + 1):
        gens.append((Monomial(0, n), 1))
    for m in range(1, max_index + 1):
        c = [0] * m
        c[m - 1] = 1
        for n in range(-max_twist, max_twist + 1):
            gens.append((Monomial(0, 2 ** m * n, tuple(c)), 0))
    return gens


def reachable_products(max_factors: int, max_index: int, max_twist: int):
    """Map monomial -> least coefficient 2-valuation over products of at
    most max_factors generators (a counts one factor per power)."""
    gens = generator_pool(max_index, max_twist)
    best: dict[Monomial, int] = {Monomial(0, 0): 0}
    level: dict[Monomial, int] = dict(best)
    for _ in range(max_factors):
        nxt: dict[Monomial, int] = {}
        for mono, val in level.items():
            for g, gval in gens:
                prod = mono.times(g)
                if annihilated(prod):
                    continue
                v = val + gval
                if prod.k > 0 and v >= 1:
                    continue  # 2a = 0
                if nxt.get(prod, 99) > v:
                    nxt[prod] = v
        for mono, val in nxt.items():
            if best.get(mono, 99) > val:
                best[mono] = val
        level = nxt
    return best


def span_in_degree(best: dict[Monomial, int], alpha: Degree):
    """The reachable span at one degree: monomial -> least 2-valuation."""
    return {m: v for m, v in best.items() if m.degree() == alpha}


# ---------------------------------------------------------------------------
# the coefficient ring by products of generators

class CoeffElement:
    """A 2-locally integral combination of subalgebra monomials.

    Stored as monomial -> integer coefficient; coefficients on a-divisible
    monomials are reduced mod 2, terms the presentation's relations kill
    are dropped, and every stored term is certified by the package's page
    rule: its lattice (`_page_lattice`, 1 or 2) divides the coefficient.
    """

    def __init__(self, terms: dict[Monomial, int] | None = None):
        self.terms: dict[Monomial, int] = {}
        for mono, coeff in (terms or {}).items():
            self._accumulate(mono, coeff)

    def _accumulate(self, mono: Monomial, coeff: int) -> None:
        if coeff == 0 or annihilated(mono):
            return
        if mono.k > 0:
            coeff %= 2
            if coeff == 0:
                return
        lattice = _page_lattice(mono)
        if not lattice or coeff % lattice:
            raise ValueError(f"{coeff}*{mono} is not in the coefficient ring")
        self.terms[mono] = self.terms.get(mono, 0) + coeff
        if self.terms[mono] == 0 or (mono.k > 0 and self.terms[mono] % 2 == 0):
            del self.terms[mono]

    def __add__(self, other: "CoeffElement") -> "CoeffElement":
        out = CoeffElement(dict(self.terms))
        for mono, coeff in other.terms.items():
            out._accumulate(mono, coeff)
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, CoeffElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> Degree | None:
        degs = {m.degree() for m in self.terms}
        if len(degs) != 1:
            return None
        return degs.pop()

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms):
            coeff = self.terms[mono]
            head = "" if coeff == 1 else f"{coeff}*"
            bits.append(f"{head}{mono}")
        return " + ".join(bits)


def element(mono: Monomial, coeff: int = 1) -> CoeffElement:
    return CoeffElement({mono: coeff})


def twisted_vbar(m: int, twist: int = 0) -> CoeffElement:
    """The generator vbar_m(twist); vbar_0(j) is the element 2u^j.

    >>> str(twisted_vbar(1, 1))
    'u^2 v1'
    >>> str(twisted_vbar(0, 3))
    '2*u^3'
    """
    if m == 0:
        return element(Monomial(0, twist), 2)
    return element(Monomial(0, 2 ** m * twist, vbar_monomial(m).c))


def multiply(x: CoeffElement, y: CoeffElement) -> CoeffElement:
    """Product in the coefficient ring; the result re-checks membership.

    >>> str(multiply(twisted_vbar(1, 1), twisted_vbar(0, 3)))
    '2*u^5 v1'
    >>> multiply(element(Monomial(1, 0)), twisted_vbar(0, 1)).is_zero()
    True
    """
    out = CoeffElement()
    for mx, cx in x.terms.items():
        for my, cy in y.terms.items():
            out._accumulate(mx.times(my), cx * cy)
    return out


@functools.lru_cache(maxsize=None)
def weight_tuples_reference(w: int, lo: int = 1, hi: int | None = None):
    """coefficients.weight_tuples by brute force: every exponent vector
    over the indices i with 2^i - 1 <= w (up to hi), each c_i in
    0..w // (2^i - 1) and 0 below lo, kept when its weight is w, sorted by
    the reversed zero-padded tuple, descending, and stripped."""
    if w < 0:
        return ()
    top = 0
    while 2 ** (top + 1) - 1 <= w and (hi is None or top < hi):
        top += 1
    ranges = [range(w // (2 ** i - 1) + 1) if i >= lo else range(1)
              for i in range(1, top + 1)]
    found = [c for c in itertools.product(*ranges)
             if sum(ci * (2 ** i - 1) for i, ci in enumerate(c, start=1)) == w]
    found.sort(key=lambda c: c[::-1], reverse=True)
    out = []
    for c in found:
        while c and c[-1] == 0:
            c = c[:-1]
        out.append(c)
    return tuple(out)


def brute_coefficient_group(alpha: Degree, a_cap: int = 60):
    """(free_rank, f2_rank) at alpha by raw enumeration with a generous cap.

    Counts nonzero quotient-ring monomials that are subalgebra members:
    a-free monomials contribute Z (at lattice 1 or 2), a-divisible ones F2.
    Used to cross-check the certified enumerator on windows where the cap
    is visibly sufficient.
    """
    t, s = alpha.triv, alpha.sgn
    d = t - s
    free = tors = 0
    k = d % 4
    while k <= a_cap:
        if (t + s + k) % 2 == 0 and (t + s + k) // 2 >= 0:
            w = (t + s + k) // 2
            l = (d - k) // 4
            if k == 0:
                free += len(weight_tuples_reference(w))
            else:
                # vbar_i a^k = 0 once k >= 2^(i+1) - 1
                lo = next(i for i in range(1, k + 2) if k < 2 ** (i + 1) - 1)
                for c in weight_tuples_reference(w, lo):
                    if _page_lattice(Monomial(k, l, c)):
                        tors += 1
        k += 4
    return (free, tors)


def polynomial_rank(weights: list[int], total: int) -> int:
    """Number of monomials of a given total weight in generators of the
    listed weights (plain integer composition count, memoized)."""
    key = (tuple(weights), total)
    cache = polynomial_rank.__dict__.setdefault("cache", {})
    if key in cache:
        return cache[key]
    if total == 0:
        return 1
    if total < 0 or not weights:
        return 0
    head, rest = weights[0], list(weights[1:])
    count = sum(polynomial_rank(rest, total - i * head)
                for i in range(total // head + 1))
    cache[key] = count
    return count


def gamma_groups(n: int, ss, alpha: Degree,
                 parts: tuple[str, ...] = ("bb", "nb")) -> tuple[int, int]:
    """(free, F_2) of the derived vbar-power torsion at alpha, degree by
    degree: gamma_block summed over the U-translates GBB[U] (u-power >= 0)
    and U^(-1) GNB[U^(-1)], with ss, or the shipped SSData for None; pass
    parts=("bb",) or ("nb",) for one side of the split.

    >>> gamma_groups(1, None, Degree(0, -3))
    (1, 0)
    >>> gamma_groups(1, None, Degree(-2, -1))
    (1, 0)
    """
    ss = default_ssdata(n) if ss is None else ss
    ss.check_height(n)
    free = f2 = 0
    for kind, gamma in _block_degrees(n, alpha):
        if kind in parts:
            f, t = gamma_block(n, kind, gamma, ss)
            free += f
            f2 += t
    return (free, f2)


def ssdata_dict(ss) -> dict:
    """The JSON form of SSData, which `SSData.from_dict` reads."""
    return {
        "n": ss.n,
        "differentials": [
            {"block": d.block, "source": d.source.to_json(),
             "target": d.target.to_json(), "rank": d.rank}
            for d in ss.differentials],
        "extensions": [
            {"block": e.block, "degree": e.degree.to_json()}
            for e in ss.extensions],
    }


def without(ss, item):
    """ss minus one record, for mutation runs."""
    return type(ss)(ss.n,
                    tuple(d for d in ss.differentials if d != item),
                    tuple(e for e in ss.extensions if e != item))


def verify_gorenstein_per_degree(n: int, window, ss=None):
    """verify_gorenstein the direct way: for each checked alpha, sum
    gamma_groups and read the Anderson dual, with no shared table.

    Returns a DualityReport built with the same records, note handling and
    summary as the package's verifier, so the two can be compared exactly.
    """
    from realspectra.blocks import assemble_groups
    from realspectra.duality import (DualityRecord, DualityReport,
                                     InconsistentSSData, _placement_note,
                                     _shipped_ssdata_path,
                                     anderson_dual_groups)
    unshipped = ss is None and not _shipped_ssdata_path(n).is_file()
    ss = default_ssdata(n) if ss is None else ss
    shift = gorenstein_shift(n)
    records = []
    for alpha in window:
        if -alpha not in window:
            continue
        dual = anderson_dual_groups(functools.partial(assemble_groups, n),
                                    alpha + shift)
        try:
            gamma = gamma_groups(n, ss, alpha)
            note = ""
        except InconsistentSSData as err:
            gamma = (-1, -1)
            note = str(err)
        records.append(DualityRecord(
            alpha, gamma, dual, gamma == dual and not note, note))
    records.sort(key=lambda r: (r.degree.triv, r.degree.sgn))
    bad = [r for r in records if not r.ok]
    summary = (f"n={n}: {len(records)} degrees on {window}, "
               f"{len(bad)} mismatches")
    placement = _placement_note(n, ss)
    if placement:
        summary += "; " + placement
    if bad and unshipped:
        summary += f"; no SSData shipped for n={n}"
    return DualityReport(records, bad, summary)


class MismatchError(Exception):
    """The propagation engine and the closed-form page disagree."""


def e_infinity_basis_two_rounds(n, alpha):
    """e_infinity_basis as two full enumerations, to caps bound and bound + 8.

    Each round runs a fresh `PageStatesReference` against the closed form on
    every monomial and raises MismatchError where they disagree; the answers
    must agree between the rounds, else a survivor lies past the bound.  The
    closed form is looked up through the hfpss module and the bound through
    coefficients, so a test that patches them there patches this reference
    too.
    """
    from realspectra import coefficients, hfpss

    bound = coefficients._a_exponent_bound(alpha, n)
    rounds = []
    for cap in (bound, bound + 8):
        engine = PageStatesReference(n)
        entries = []
        for x in hfpss.e2_basis(n, alpha, cap):
            got = engine.final_state(x)
            want = hfpss.closed_form_state(n, x)
            if got != want:
                raise MismatchError(
                    f"engines disagree on {x} at {alpha}: "
                    f"propagation {got}, closed form {want}")
            if got == hfpss._DEAD:
                continue
            if x.k == 0:
                entries.append(BasisEntry(x, got, False))
            else:
                entries.append(BasisEntry(x, 1, True))
        rounds.append(entries)
    if rounds[0] != rounds[1]:
        raise StabilizationFailure(
            f"final-page classes at {alpha} appear past filtration {bound}")
    return rounds[0]


def enumerate_with_cap_reference(alpha, a_cap):
    """The full ring's basis at alpha up to filtration a_cap, listed by its
    own inversion of the degree, a-exponent by a-exponent, and sorted."""
    from realspectra.coefficients import _first_index_above, weight_tuples

    t, s = alpha.triv, alpha.sgn
    d = t - s
    out = []
    k = d % 4
    while k <= a_cap:
        if (t + s + k) % 2 == 0:
            w = (t + s + k) // 2
            l = (d - k) // 4
            if w >= 0:
                lo = 1 if k == 0 else _first_index_above(k)
                for c in weight_tuples(w, lo):
                    mono = Monomial(k, l, c)
                    lattice = _page_lattice(mono)
                    if lattice:
                        out.append(BasisEntry(mono, lattice, k > 0))
        k += 4
    return sorted(out)


def e2_basis_reference(n, alpha, a_cap):
    """hfpss.e2_basis by stepping the vbar weight w, not the filtration:
    k = 2w - sgn - triv for w = triv (mod 2), kept while 0 <= k <= a_cap."""
    from realspectra.coefficients import weight_tuples

    t, s = alpha.triv, alpha.sgn
    out = []
    w = t % 2
    while True:
        k = 2 * w - s - t
        if k > a_cap:
            break
        if k >= 0:
            l = (t - w) // 2
            for c in weight_tuples(w, 1, n):
                out.append(Monomial(k, l, c))
        w += 2
    return out


def bb_cached_reference(n, alpha):
    """blocks._bb_cached by its own inversion of the degree: one
    u-exponent 0 <= l < 2^n at a time, every E_2 monomial through
    `final_entry`, sorted by (l, k, c)."""
    from realspectra.coefficients import weight_tuples
    from realspectra.hfpss import final_entry

    t, s = alpha.triv, alpha.sgn
    d = t - s
    out = []
    for l in range(2 ** n):
        w = t - 2 * l
        k = d - 4 * l
        if w < 0 or k < 0:
            continue
        for c in weight_tuples(w, 1, n):
            entry = final_entry(n, Monomial(k, l, c))
            if entry is not None:
                out.append(entry)
    return tuple(sorted(out, key=lambda e: (e.mono.l, e.mono.k, e.mono.c)))


def cell_listing_reference(n: int, kind: str, l: int, k: int,
                           alpha: Degree) -> list[tuple]:
    """The sorted (c, lattice, torsion) of the block classes on u^l a^k
    at alpha, filtered out of the whole block basis: what
    `blocks._cell_index` must hold for that cell."""
    basis = nb_basis if kind == "nb" else bb_basis
    return sorted((e.mono.c, e.lattice, e.torsion) for e in basis(n, alpha)
                  if isinstance(e, BasisEntry) and e.mono.l == l
                  and e.mono.k == k)


def basis_cached_two_listings(alpha):
    """coefficients._basis_cached as two full listings by
    `enumerate_with_cap_reference`: to the provable bound and to bound + 8.
    They must agree, else a class lies past the bound.

    The bound is looked up through the coefficients module, so a test that
    patches it there patches this reference too.
    """
    from realspectra import coefficients

    bound = coefficients._a_exponent_bound(alpha)
    first = enumerate_with_cap_reference(alpha, bound)
    if first != enumerate_with_cap_reference(alpha, bound + 8):
        raise coefficients.StabilizationFailure(
            f"final-page classes at {alpha} appear past filtration {bound}")
    return tuple(first)


def smith_normal_form_full_rescan(rows: list[list[int]], cols: int):
    """The Smith normal form with its divisibility-chain scan after every
    pivot, a unit pivot included; returns the row lists of D, S, T, S_inv
    and T_inv.  Same pivot rule and operations as the package's engine.
    """
    m, n = len(rows), cols
    d = [list(row) for row in rows]
    s = [[int(i == j) for j in range(m)] for i in range(m)]
    s_inv = [row[:] for row in s]
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    t_inv = [row[:] for row in t]

    def add_rows(mat, i, j, q):
        mat[i] = [x + q * y for x, y in zip(mat[i], mat[j])]

    def add_cols(mat, i, j, q):
        for r in mat:
            r[i] += q * r[j]

    def swap_cols(mat, i, j):
        for r in mat:
            r[i], r[j] = r[j], r[i]

    def row_addmul(i, j, q):
        add_rows(d, i, j, q)
        add_rows(s, i, j, q)
        add_cols(s_inv, j, i, -q)

    def col_addmul(i, j, q):
        add_cols(d, i, j, q)
        add_cols(t, i, j, q)
        add_rows(t_inv, j, i, -q)

    k = 0
    while k < m and k < n:
        piv = None
        for i in range(k, m):
            for j in range(k, n):
                if d[i][j] != 0 and (piv is None or abs(d[i][j]) < least):
                    piv, least = (i, j), abs(d[i][j])
        if piv is None:
            break
        if piv[0] != k:
            d[k], d[piv[0]] = d[piv[0]], d[k]
            s[k], s[piv[0]] = s[piv[0]], s[k]
            swap_cols(s_inv, k, piv[0])
        if piv[1] != k:
            swap_cols(d, k, piv[1])
            swap_cols(t, k, piv[1])
            t_inv[k], t_inv[piv[1]] = t_inv[piv[1]], t_inv[k]
        if d[k][k] < 0:
            d[k] = [-x for x in d[k]]
            s[k] = [-x for x in s[k]]
            for r in s_inv:
                r[k] = -r[k]
        dirty = False
        for i in range(k + 1, m):
            if d[i][k] != 0:
                row_addmul(i, k, -(d[i][k] // d[k][k]))
                dirty = dirty or d[i][k] != 0
        for j in range(k + 1, n):
            if d[k][j] != 0:
                col_addmul(j, k, -(d[k][j] // d[k][k]))
                dirty = dirty or d[k][j] != 0
        if dirty:
            continue
        pivot = d[k][k]
        offender = next((i for i in range(k + 1, m)
                         if any(x % pivot for x in d[i][k + 1:])), None)
        if offender is not None:
            row_addmul(k, offender, 1)
            continue
        k += 1
    return d, s, t, s_inv, t_inv


def module_gens_uncached(mod, n: int, alpha: Degree):
    """localcoh.module_gens as a fresh list per call, read from the brute
    force listing weight_tuples_reference."""
    def least(c):
        return next((i for i, e in enumerate(c, start=1) if e), None)

    kind = mod.kind
    beta = alpha - mod.shift
    if kind in ("TowerF2", "DualTowerF2"):
        down = kind == "TowerF2"
        on = beta.triv == 0 and (beta.sgn <= 0 if down else beta.sgn >= 0)
        return [((), 1)] if on else []
    if beta.triv != beta.sgn:
        return []
    k = -beta.triv if kind in ("DualP", "DualPbar") else beta.triv
    if k < 0:
        return []
    lo = mod.s + 1 if kind in ("Pbar", "DualPbar", "IdealF2") else 1
    listing = weight_tuples_reference(k, lo, n)
    if kind == "IdealZ":
        return [(c, 1 if least(c) is not None and least(c) <= mod.t else 2)
                for c in listing]
    if kind == "IdealF2":
        return [(c, 1) for c in listing if (least(c) or n + 1) <= mod.t]
    return [(c, 1) for c in listing]


def koszul_layer_uncached(mod, n: int, e: int, j: int, alpha: Degree):
    """Summands of C^j of the dense stage-e complex at alpha: M at
    alpha + e|vbar_S| for each |S| = j, as (S, its degree, its first
    generator index), with the rank of C^j; generators counted by
    module_gens_uncached."""
    summands, start = [], 0
    for subset in itertools.combinations(range(1, n + 1), j):
        at = alpha + RHO * (e * sum(2 ** i - 1 for i in subset))
        summands.append((subset, at, start))
        start += len(module_gens_uncached(mod, n, at))
    return summands, start


def vbar_matrix_reference(mod, n: int, i: int, e: int, alpha: Degree):
    """Multiplication by vbar_i^e from degree alpha to alpha + e|vbar_i|,
    rows indexing the target generators and columns the source ones: the
    module action `localcoh._act` with each kind written out here."""
    from realspectra.abelian import zeros
    from realspectra.coefficients import _bump
    from realspectra.localcoh import module_gens

    src = module_gens(mod, n, alpha)
    tgt = module_gens(mod, n, alpha + RHO * (e * (2 ** i - 1)))
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


def koszul_stage_uncached(mod, n: int, e: int, alpha: Degree):
    """The whole stage-e Koszul complex C^0 -> ... -> C^n at alpha, dense,
    as (rows, cols) pairs: each d^j entry by entry from
    koszul_layer_uncached and vbar_matrix_reference, the block
    S -> S + {i} signed by the members of S below i; each C^j presented by
    2 * identity on an F_2 module and by no relation on a free one."""
    layers = [koszul_layer_uncached(mod, n, e, j, alpha)
              for j in range(n + 1)]
    maps = []
    for (src, cols), (tgt, rows) in zip(layers, layers[1:]):
        start = {subset: r0 for subset, _, r0 in tgt}
        mat = [[0] * cols for _ in range(rows)]
        for subset, at, c0 in src:
            for i in range(1, n + 1):
                if i in subset:
                    continue
                sign = (-1) ** sum(1 for x in subset if x < i)
                r0 = start[tuple(sorted(subset + (i,)))]
                block = vbar_matrix_reference(mod, n, i, e, at)
                for r, row in enumerate(block.rows):
                    for c, x in enumerate(row):
                        mat[r0 + r][c0 + c] += sign * x
        maps.append((mat, cols))
    rels = []
    for _, dim in layers:
        if mod.torsion:
            rels.append(([[2 * (r == c) for c in range(dim)]
                          for r in range(dim)], dim))
        else:
            rels.append(([[] for _ in range(dim)], 0))
    return maps, rels


@functools.lru_cache(maxsize=16)
def koszul_complex_dense(mod, n: int, e: int, alpha: Degree):
    """koszul_stage_uncached as a checked abelian.CochainComplex, kept for
    the last few stages so that a sweep over s at one degree builds each
    stage once; the complex must not be altered."""
    from realspectra.abelian import CochainComplex, Matrix

    maps, rels = koszul_stage_uncached(mod, n, e, alpha)
    return CochainComplex([Matrix(rows, cols) for rows, cols in maps],
                          [Matrix(rows, cols) for rows, cols in rels])


@functools.lru_cache(maxsize=16)
def transition_matrix_dense(mod, n: int, e: int, s: int, alpha: Degree):
    """The chain map C^s(stage e) -> C^s(stage e + 1) at alpha: each
    summand multiplied by vbar_S, one vbar_matrix_reference per member of
    S in increasing order."""
    from realspectra.abelian import identity, mat_mul, zeros

    src, cols = koszul_layer_uncached(mod, n, e, s, alpha)
    tgt, rows = koszul_layer_uncached(mod, n, e + 1, s, alpha)
    mat = zeros(rows, cols)
    for (subset, at, c0), (_, _, r0) in zip(src, tgt):
        block = identity(len(module_gens_uncached(mod, n, at)))
        for i in subset:
            block = mat_mul(vbar_matrix_reference(mod, n, i, 1, at), block)
            at = at + RHO * (2 ** i - 1)
        for r, row in enumerate(block.rows):
            for c, x in enumerate(row):
                mat[r0 + r, c0 + c] += x
    return mat


def lc_oracle_dense(mod, n: int, s: int, alpha: Degree):
    """localcoh.lc_oracle on whole dense stage complexes, not split into
    pieces by fine degree: the same stages and the same certificate (equal
    invariants and a surjective transition from the stage before), read
    off one complex per stage."""
    from realspectra.abelian import induced_map, map_is_surjective
    from realspectra.coefficients import StabilizationFailure
    from realspectra.localcoh import MAX_E, _first_stage, module_ranks

    if s < 0 or s > n:
        return (0, 0)
    if n == 0:
        return module_ranks(mod, 0, alpha)
    prev = None
    for e in range(_first_stage(mod, alpha), MAX_E + 1):
        here = koszul_complex_dense(mod, n, e, alpha).homology(s)
        if prev is not None and \
                prev.group.summarize() == here.group.summarize():
            step = transition_matrix_dense(mod, n, e - 1, s, alpha)
            induced = induced_map(prev, here, step)
            if map_is_surjective(induced, here.group):
                return here.group.summarize()
        prev = here
    raise StabilizationFailure(
        f"Koszul colimit for {mod.describe()} H^{s} at {alpha} "
        f"did not settle by stage {MAX_E}")


def tower_group_fresh(ideal, alpha: Degree):
    """coefficients.tower_group with one memo per tower, as before towers
    shared their stages: the towers at the tail stop and one index past it
    each compute every stage from the basis up, and a stage builds all four
    of its inputs before it asks whether each is a trusted basis.  The
    per-stage cokernel and kernel layers are the package's.  Returns the
    group and its layers' (free, F_2) ranks, (sub, quot), summed here from
    the two layers a stage builds, not read off the group; (-1, -1) each on
    a stage built from an untrusted one."""
    from realspectra import coefficients as co

    def tower(steps):
        memo = {}

        def group(stage, beta):
            if (stage, beta) not in memo:
                memo[stage, beta] = compute(stage, beta)
            return memo[stage, beta]

        def compute(stage, beta):
            if stage == 0:
                entries = tuple(co.basis_in_degree(beta))
                return (co.TowerGroup(entries, (), True),
                        (co.rank_summary(entries), (0, 0)))
            index, exp = steps[stage - 1]
            shift = exp * (2 ** index - 1) * RHO
            down = Degree(1, 0)
            tgt, src = group(stage - 1, beta), group(stage - 1, beta - shift)
            ker_tgt = group(stage - 1, beta - down)
            ker_src = group(stage - 1, beta - down - shift)
            if not all(layers[1] == (0, 0)
                       for _, layers in (tgt, src, ker_tgt, ker_src)):
                return co.TowerGroup((), (), False), ((-1, -1), (-1, -1))
            mult = co.vbar_monomial(index, exp)
            sub, _ = co._multiply(src[0].sub, tgt[0].sub, mult)
            _, quot = co._multiply(ker_src[0].sub, ker_tgt[0].sub, mult)
            return (co.TowerGroup(sub, quot, True),
                    (co.rank_summary(sub), co.rank_summary(quot)))

        return group(len(steps), alpha)

    ideal = co.QuotientIdeal.of(ideal)
    stop = co._tail_stop(ideal, alpha)
    g, layers = tower(ideal.steps_up_to(stop))
    if ideal.tail:
        g2, layers2 = tower(ideal.steps_up_to(stop + 1))
        if (g.exact, g.entries if g.exact else layers[0]) != \
           (g2.exact, g2.entries if g2.exact else layers2[0]):
            raise co.StabilizationFailure(
                f"tail truncation unstable at {alpha}: index {stop} vs {stop+1}")
    return g, layers


def _product_class(e: BasisEntry, x: Monomial,
                   layer) -> tuple[int, int | None]:
    """(coefficient, index in layer) of x times the class e, found by a
    scan of the target layer's classes; (0, None) when no class carries
    the product."""
    prod = e.mono.times(x)
    for i, cand in enumerate(layer):
        if cand.mono == prod:
            return _image_class(e, cand), i
    return 0, None


def mult_map(x: Monomial, ideal, alpha: Degree):
    """Matrix of multiplication by x from degree alpha to alpha + |x|.

    Columns index the source basis, rows the target basis; entries are the
    integer multipliers of the monomial-to-monomial action.  Raises
    UnknownExtension when either group lacks a trusted basis.
    """
    from realspectra import coefficients as co
    from realspectra.abelian import zeros
    ideal = co.QuotientIdeal.of(ideal)
    src = co.tower_group(ideal, alpha)
    tgt = co.tower_group(ideal, alpha + x.degree())
    if not (src.known and tgt.known) or src.quot or tgt.quot:
        raise co.UnknownExtension(
            f"no trusted bases for multiplication at {alpha}")
    out = zeros(len(tgt.sub), len(src.sub))
    for j, e in enumerate(src.sub):
        coeff, i = _product_class(e, x, tgt.sub)
        if coeff:
            out[i, j] = coeff
    return out


class PageStatesReference:
    """The propagation engine, the independent route that certifies the
    closed-form pages of `hfpss`: it follows the differentials class by
    class, with per-class fire and hit bookkeeping through the pages.  Each
    state recurses to the page before it, fire targets and hit sources are
    validated Monomials, and `_hit` asks whether its source fires by
    rebuilding that source's target.
    """

    def __init__(self, n):
        self.n = n
        self._memo = {}     # monomial -> row; row[p - 2] is page p

    def state(self, x, p):
        if p <= 1:
            return 1 if x.k == 0 else True
        row = self._memo.setdefault(x, [])
        if p - 2 < len(row):
            return row[p - 2]
        st = self._advance(x, p)
        row.append(st)
        return st

    def _advance(self, x, p):
        from realspectra.hfpss import _DEAD
        i = p - 1   # transition E_{2^i} -> E_{2^(i+1)} via d_{2^(i+1)-1}
        prev = self.state(x, p - 1)
        if self.n is not None and i > self.n:
            return prev
        if prev == _DEAD:
            return _DEAD
        if x.k == 0:
            if prev == 2:
                return 2
            return 2 if self._fires(x, i, p - 1) else 1
        fires = self._fires(x, i, p - 1)
        hit = self._hit(x, i, p - 1)
        # firing needs l = 2^(i-1) (mod 2^i), being hit needs 2^i | l
        assert not (fires and hit)
        return _DEAD if fires or hit else True

    @staticmethod
    def fire_target(x, i):
        c = list(x.c) + [0] * i
        c[i - 1] += 1
        return Monomial(x.k + 2 ** (i + 1) - 1, x.l - 2 ** (i - 1), c)

    def _fires(self, x, i, page):
        step = 2 ** (i - 1)
        if x.l % (2 * step) != step:
            return False
        return self.state(self.fire_target(x, i), page) is True

    def _hit(self, x, i, page):
        r = 2 ** (i + 1) - 1
        if x.k < r or len(x.c) < i or x.c[i - 1] == 0:
            return False
        c = list(x.c)
        c[i - 1] -= 1
        z = Monomial(x.k - r, x.l + 2 ** (i - 1), c)
        st = self.state(z, page)
        if not (st is True or (z.k == 0 and st == 1)):
            return False    # dead source, or lattice 2 contributing 2 d(z) = 0
        return self._fires(z, i, page)

    def final_page(self, x):
        if self.n is not None:
            return self.n + 1
        top = (x.l & -x.l).bit_length() if x.l else 1
        return max(top, len(x.c)) + 1

    def final_state(self, x):
        return self.state(x, self.final_page(x))


def run_differentials_reference(n, window, a_cap=40):
    """run_differentials on `PageStatesReference`: every page asks the
    engine for the state of every listed class and whether each live one
    fires, and builds and checks the target of each that does."""
    from realspectra import hfpss
    from realspectra.coefficients import BasisEntry

    engine = PageStatesReference(n)
    degrees = list(window)
    per_degree = {alpha: hfpss.e2_basis(n, alpha, a_cap) for alpha in degrees}
    if n is not None:
        p_top = n + 1
    else:
        p_top = max([1] + [engine.final_page(x)
                           for monos in per_degree.values() for x in monos])
    pages = []
    for p in range(1, p_top + 1):
        classes = {}
        for alpha in degrees:
            classes[alpha] = [
                BasisEntry(x, st if x.k == 0 else 1, x.k > 0)
                for x in per_degree[alpha]
                for st in (engine.state(x, p),) if st != hfpss._DEAD]
        fired = []
        i, r = p, 2 ** (p + 1) - 1
        if p < p_top and (n is None or i <= n):
            for alpha in degrees:
                for entry in classes[alpha]:
                    x = entry.mono
                    if not entry.torsion and entry.lattice == 2:
                        continue
                    if not engine._fires(x, i, p):
                        continue
                    y = engine.fire_target(x, i)
                    assert y.degree() == alpha - Degree(1, 0)
                    assert y.k == x.k + r
                    assert not engine._fires(y, i, p)
                    fired.append((x, y))
        pages.append(hfpss.Page(2 ** p,
                                2 ** (p + 1) - 1 if p < p_top else 2 ** p,
                                classes, tuple(fired)))
    return pages


# ---------------------------------------------------------------------------
# restriction to the underlying ring and nilpotence (criteria 2 and 8)

def underlying_groups(ideal, t: int) -> tuple[int, int]:
    """Degree-t part of Z_(2)[v_1, v_2, ...]/(v^l), |v_i| = 2(2^i - 1).

    >>> underlying_groups(QuotientIdeal(), 6)
    (2, 0)
    >>> underlying_groups(QuotientIdeal(), 5)
    (0, 0)
    """
    ideal = QuotientIdeal.of(ideal)
    if t % 2 != 0 or t < 0:
        return (0, 0)
    # tail = 1 kills every vbar_i past the listed ones
    hi = len(ideal.exponents) if ideal.tail else None
    count = sum(1 for c in weight_tuples(t // 2, 1, hi)
                if not any(0 < e <= ci
                           for e, ci in zip(ideal.exponents, c)))
    return (count, 0)


def restriction_rank(ideal, alpha: Degree) -> int | None:
    """Per-summand index of the restriction image in the underlying group.

    Restriction sends a to 0, u to a unit, vbar_i to v_i; a lattice-2 free
    generator therefore lands on twice a monomial.  When all free summands
    at alpha share one lattice index that index is returned (1 for constant
    behaviour, 2 for the dual pattern); mixed degrees return None, no free
    part returns 1.  Rank agreement with the underlying group is asserted.
    """
    g = tower_group(ideal, alpha)
    free = [e for e in g.entries if not e.torsion]
    under_free, _ = underlying_groups(ideal, alpha.triv + alpha.sgn)
    if len(free) != under_free:
        raise AssertionError(
            f"free rank {len(free)} at {alpha} vs underlying rank {under_free}")
    lattices = {e.lattice for e in free}
    if not lattices:
        return 1
    if len(lattices) > 1:
        return None
    return lattices.pop()

def nilpotence_check(i: int, k: int, window: Window,
                     exponent: int | None = None) -> bool:
    """Whether vbar_i^exponent provably acts as zero on pi(B/vbar_i^k).

    exponent defaults to 3k.  For exponent >= 2k the action is zero by the
    two layer factorization (the first k factors land the class in the
    cokernel layer, the next k kill it); the induced layer maps are computed
    and asserted zero as a sanity check.  For smaller exponents: a nonzero
    induced layer map decides False; all-zero layer maps decide True only
    when no degree leaves room for a filtration jump, else False (a jump
    cannot be excluded from layer data).  Raises UnknownExtension when a
    tested degree's group is not even known as a sum of layers.
    """
    if exponent is None:
        exponent = 3 * k
    ideal = QuotientIdeal.of([0] * (i - 1) + [k])
    mult = vbar_monomial(i, exponent)
    shift = mult.degree()

    jump_room = False
    for alpha in window:
        src = tower_group(ideal, alpha)
        tgt = tower_group(ideal, alpha + shift)
        for g in (src, tgt):
            if g.sub_summary == (-1, -1):
                raise UnknownExtension(f"layers unknown at {alpha}")
        if not src.entries or not tgt.entries:
            continue
        # induced maps on both layers, computed symbolically
        for src_layer, tgt_layer in ((src.sub, tgt.sub), (src.quot, tgt.quot)):
            for e in src_layer:
                if _product_class(e, mult, tgt_layer)[0]:
                    if exponent >= 2 * k:
                        raise AssertionError(
                            "layer map should vanish for exponent >= 2k")
                    return False
        # layers all zero here; can a jump happen?
        if src.quot and tgt.sub:
            jump_room = True
    if exponent >= 2 * k:
        return True
    return not jump_room


# ---------------------------------------------------------------------------
# the Borel comparison and the a-local cohomology of BB

def borel_classes(n: int, alpha: Degree) -> list[AssembledClass]:
    """Basis of BB[U^(+-1)] at alpha (the Borel-complete coefficients)."""
    step = _unit_degree(n)
    period = 2 ** (n + 1)
    t = alpha.triv
    d = t - alpha.sgn
    k_hi = t // period  # need t - k*period >= 0
    k_lo = min(k_hi, -((_bbprime_diag_max(n) - d) // (2 * period)))
    out = []
    for k in range(k_lo, k_hi + 1):
        for entry in bb_basis(n, alpha - step * k):
            out.append(AssembledClass(k, entry))
    return out


def completion_comparison(n: int, alpha: Degree) -> tuple[int, int]:
    """(cokernel F_2 rank at alpha, kernel F_2 rank at alpha).

    The comparison map sends every assembled BB[U]- and BB'-class to its
    Borel monomial (the doubled unit lands with index 2) and the dual
    tower to zero, so the kernel is the tower and the cokernel counts the
    missed pure a-power translates plus one F_2 per doubled unit.  The
    long exact sequence of the completion puts these against the
    geometric cofibre: cofibre(alpha) = coker(alpha) + ker(alpha - 1).
    """
    ours = assemble(n, alpha)
    kernel = sum(1 for c in ours if isinstance(c.entry, TowerClass))
    doubles = sum(1 for c in ours
                  if isinstance(c.entry, BasisEntry)
                  and not c.entry.torsion and c.u_power < 0
                  and c.entry.mono.c == () and c.entry.mono.l == 0)
    mapped = {(c.u_power, c.entry.mono)
              for c in ours if isinstance(c.entry, BasisEntry)}
    missed = 0
    for b in borel_classes(n, alpha):
        key = (b.u_power, b.entry.mono)
        if key not in mapped:
            if not b.entry.torsion:
                raise InternalInconsistency(
                    f"free Borel class {b.describe()} not hit at {alpha}")
            missed += 1
    return (missed + doubles, kernel)


def bb_classes(n: int, alpha: Degree) -> list[AssembledClass]:
    """BB at alpha as the classes `blocks.action_matrix` multiplies."""
    return [AssembledClass(0, e) for e in bb_basis(n, alpha)]


def _a_power(n: int, e: int, alpha: Degree) -> Matrix:
    """Multiplication by a^e from BB at alpha to BB at alpha - e sigma."""
    return action_matrix(n, Monomial(e, 0), bb_classes(n, alpha),
                         bb_classes(n, alpha - SIGMA * e))


def _stable_kernel(n: int, alpha: Degree) -> tuple[int, int]:
    # by e = 2^(n+1) every class has settled: vbar-content classes are
    # past their annihilator exponent, doubled frees died at e = 1, and
    # pure a-powers plus the unit never die, so ker(a^e) is constant
    rels_src = f2_relations(c.torsion for c in bb_basis(n, alpha))
    prev = None
    for e in range(2 ** (n + 1), 2 ** (n + 1) + 2):
        tgt = bb_basis(n, alpha - SIGMA * e)
        rels_tgt = f2_relations(c.torsion for c in tgt)
        ker = CochainComplex([_a_power(n, e, alpha)], [rels_src, rels_tgt]
                             ).homology(0).group.summarize()
        if prev is not None and ker != prev:
            raise StabilizationFailure(
                f"a-power kernel at {alpha} moved past its floor")
        prev = ker
    return prev


def _cokernel_floor(n: int, alpha: Degree) -> int:
    # past this stage the target degree alpha - e sigma holds pure
    # a-powers only: every vbar-content class has hit its annihilator
    # exponent and every weight-zero free class has scrolled by, so the
    # colimit transitions are structurally constant
    return 2 ** (n + 1) + 4 * (2 ** n - 1) + max(0, alpha.sgn - alpha.triv) + 2


def _stable_cokernel(n: int, alpha: Degree) -> tuple[int, int]:
    floor = _cokernel_floor(n, alpha)
    prev = None
    for e in range(floor, floor + 3):
        tgt = bb_basis(n, alpha - SIGMA * e)
        coker = cokernel_of_map(_a_power(n, e, alpha),
                                f2_relations(c.torsion for c in tgt))
        if prev is not None:
            step = _a_power(n, 1, alpha - SIGMA * (e - 1))
            if (prev.summarize() != coker.summarize()
                    or not map_is_surjective(step, coker)):
                raise StabilizationFailure(
                    f"a-power cokernel at {alpha} moved past its floor")
        prev = coker
    return prev.summarize()


def gamma_a(n: int, window: Window) -> tuple[dict, dict]:
    """(H^0, H^1) of the a-multiplication colimit on BB, degreewise.

    H^0 is the kernel of a^e for e past the annihilator exponents (the
    a-power torsion).  H^1 is the cokernel colimit along the tower one
    sigma down at a time, read past the structural floor where only pure
    a-powers remain, with two transition isomorphisms confirmed.  Both
    floors are forced by the annihilator bounds, not guessed from
    repeated values, since a class can enter a kernel or cokernel stage
    late even after several equal stages.  Certifies against the
    negative block: NB = H^0 + H^1 shifted one trivial suspension down,
    degree by degree; InternalInconsistency otherwise.  Returns dicts
    over the window (H^1 also covers the right-shifted column the
    certificate needs).
    """
    h0: dict[Degree, tuple[int, int]] = {}
    h1: dict[Degree, tuple[int, int]] = {}
    one = Degree(1, 0)
    for alpha in window:
        h0[alpha] = _stable_kernel(n, alpha)
        for at in (alpha, alpha + one):
            if at not in h1:
                h1[at] = _stable_cokernel(n, at)
    for alpha in window:
        a0, b0 = h0[alpha]
        a1, b1 = h1[alpha + one]
        nb = rank_summary(nb_basis(n, alpha))
        if nb != (a0 + a1, b0 + b1):
            raise InternalInconsistency(
                f"negative block at {alpha} is {nb}, "
                f"local cohomology gives {(a0 + a1, b0 + b1)}")
    return h0, h1


# ---------------------------------------------------------------------------
# duality shifts of the named spectra (criterion 7)

@record
class ShiftSpec(NamedTuple):
    """A duality statement: Anderson dual = shift applied to Gamma_ideal.

    An empty ideal means the spectrum is its own derived torsion (a plain
    self-duality up to suspension).
    """

    tag: str
    shift: Degree
    ideal: tuple[str, ...]


def _vbar_names(lo: int, hi: int) -> tuple[str, ...]:
    return tuple(f"vbar{i}" for i in range(lo, hi + 1))


def shift_for(tag: str, n: int | None = None, m=None) -> ShiftSpec:
    """Suspension and support ideal of one catalogue duality.

    Tags: BPRn, kR, kRn, KRn, ERn (integral grading), TMF13, Tmf13, and
    quotient (pass m, exponents as for QuotientIdeal).  kRn is
    normalised on the cofibre of the completion map, KRn and Tmf13 are
    self-dualities, ERn returns the integral suspension.

    >>> shift_for("BPRn", 1).shift
    Degree(triv=4, sgn=-1)
    >>> shift_for("ERn", 1).shift
    Degree(triv=4, sgn=0)
    >>> shift_for("KRn", 5).shift
    Degree(triv=2, sgn=-2)
    """
    if tag == "BPRn":
        return ShiftSpec(tag, gorenstein_shift(n), _vbar_names(1, n))
    if tag == "kR":
        return ShiftSpec(tag, gorenstein_shift(1), ("vbar1",))
    if tag == "kRn":
        return ShiftSpec(tag, (2 ** n - 3) * RHO + Degree(4, 0),
                         (f"vbar{n}",))
    if tag == "KRn":
        return ShiftSpec(tag, Degree(4, 0) - 2 * RHO, ())
    if tag == "ERn":
        t = (n + 2) * (2 ** (2 * n + 1) - 2 ** (n + 2)) + n + 3
        return ShiftSpec(tag, Degree(t, 0), _vbar_names(1, n - 1))
    if tag == "TMF13":
        return ShiftSpec(tag, Degree(5, 0) + 2 * RHO, ("vbar1",))
    if tag == "Tmf13":
        return ShiftSpec(tag, Degree(5, 0) + 2 * RHO, ())
    if tag == "quotient":
        ideal = QuotientIdeal.of(m)
        mprime = _quotient_weight(ideal)
        kept = [i + 1 for i, e in enumerate(ideal.exponents) if e == 0]
        vbar = sum(2 ** i - 1 for i in kept)
        shift = (vbar - mprime - 2) * RHO + Degree(len(kept) + 4, 0)
        return ShiftSpec(tag, shift, tuple(f"vbar{i}" for i in kept))
    raise ValueError(f"unknown spectrum tag {tag!r}")


# ---------------------------------------------------------------------------
# mapping groups out of kR quotients

ONE = Degree(1, 0)


def _mult_blocks(n: int, exps: tuple[int, ...], alpha: Degree):
    """Free-to-free and torsion-to-torsion blocks of vbar^exps at alpha."""
    x = Monomial(0, 0, exps)
    src = assemble(n, alpha)
    tgt = assemble(n, alpha + x.degree())
    mat = action_matrix(n, x, src, tgt)

    def block(torsion: bool) -> Matrix:
        cols = [j for j, c in enumerate(src) if c.entry.torsion == torsion]
        return Matrix([[mat[i, j] for j in cols]
                       for i, c in enumerate(tgt)
                       if c.entry.torsion == torsion], len(cols))

    return block(False), block(True)


def _dual_map_summaries(n: int, exps: tuple[int, ...], mirror: Degree,
                        gamma: Degree, vdeg: Degree):
    """Kernel and cokernel of vbar^exps on the dual, at gamma -> gamma+v.

    The dual of a degreewise multiplication is its transpose on the Hom
    part (the free block of the mirrored multiplication) plus the
    transpose of the torsion block one degree down on the Ext part; both
    are folded through honest presentations so unsaturated images
    contribute their finite cokernels.
    """
    free, _ = _mult_blocks(n, exps, mirror - gamma - vdeg)
    _, tors = _mult_blocks(n, exps, mirror - gamma - vdeg - ONE)
    hom_t = free.T
    ext_t = tors.T
    a, b = hom_t.shape
    ker = CochainComplex([hom_t], [zeros(b, 0), zeros(a, 0)]
                         ).homology(0).group.summarize()
    cok = cokernel_of_map(hom_t, zeros(a, 0)).summarize()
    c, d = ext_t.shape
    rels_d, rels_c = f2_relations([True] * d), f2_relations([True] * c)
    ker2 = CochainComplex([ext_t], [rels_d, rels_c]
                          ).homology(0).group.summarize()
    cok2 = cokernel_of_map(ext_t, rels_c).summarize()
    kernel = (ker[0] + ker2[0], ker[1] + ker2[1])
    coker = (cok[0] + cok2[0], cok[1] + cok2[1])
    return kernel, coker


@record
class MapGroup(NamedTuple):
    """A mapping group out of a quotient, with its restriction index.

    restriction_index 1 marks a free generator whose restriction hits
    the full underlying group, 2 one landing on doubles; None when the
    group is not free of rank one or the index is not forced.
    """

    free: int
    f2: int
    restriction_index: int | None = None


def maps_from_quotient(n_exp: int,
                       dual_shift: Degree = 2 * RHO - Degree(4, 0)
                       ) -> MapGroup:
    """Maps from the vbar_1^n_exp quotient of the height-1 ring, suspended
    by alpha = -(n_exp - 1) rho, to the dual.

    Computes [quotient, X] for X the dual_shift suspension of the
    Anderson dual via the cofibre sequence: a kernel of multiplication
    by vbar_1^n_exp on pi_alpha(X) against a cokernel one degree up.
    Raises UnknownExtension when both sides are nonzero (the group is
    then only known up to extension).

    >>> maps_from_quotient(1)
    MapGroup(free=1, f2=0, restriction_index=1)
    """
    n, alpha = 1, -(n_exp - 1) * RHO
    exps = (n_exp,)
    vdeg = Monomial(0, 0, exps).degree()
    mirror = dual_shift  # pi_gamma X has Hom at mirror - gamma
    kernel, _ = _dual_map_summaries(n, exps, mirror, alpha, vdeg)
    _, coker = _dual_map_summaries(n, exps, mirror, alpha + ONE, vdeg)
    if kernel != (0, 0) and coker != (0, 0):
        raise UnknownExtension(
            f"mapping group at {alpha} is an unresolved extension")
    free = kernel[0] + coker[0]
    f2 = kernel[1] + coker[1]
    index = None
    if (free, f2) == (1, 0) and kernel == (1, 0):
        basis = [c for c in assemble(n, mirror - alpha)
                 if not c.entry.torsion]
        free_block, _ = _mult_blocks(n, exps, mirror - alpha - vdeg)
        if len(basis) == 1 and 0 in free_block.shape:
            index = 3 - basis[0].entry.lattice
    return MapGroup(free, f2, index)
