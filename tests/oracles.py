"""Independent brute-force oracles shared by the test modules.

Everything here recomputes answers from first principles (generator products,
raw monomial enumeration, explicit chain complexes) without using the closed
forms or shortcuts from the package, so agreement is meaningful.  The two
references at the end are different: they redo a package computation the
direct, slower way (`verify_gorenstein_per_degree`,
`e_infinity_basis_two_rounds`), to check an optimised path against.
"""

from __future__ import annotations

import itertools

from realspectra.coefficients import Monomial
from realspectra.grading import Degree


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
                if prod.is_zero():
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


def brute_coefficient_group(alpha: Degree, a_cap: int = 60):
    """(free_rank, f2_rank) at alpha by raw enumeration with a generous cap.

    Counts nonzero quotient-ring monomials that are subalgebra members:
    a-free monomials contribute Z (at lattice 1 or 2), a-divisible ones F2.
    Used to cross-check the certified enumerator on windows where the cap
    is visibly sufficient.
    """
    from realspectra.coefficients import is_in_subalgebra, weight_tuples

    t, s = alpha.triv, alpha.sgn
    d = t - s
    free = tors = 0
    k = d % 4
    while k <= a_cap:
        if (t + s + k) % 2 == 0 and (t + s + k) // 2 >= 0:
            w = (t + s + k) // 2
            l = (d - k) // 4
            if k == 0:
                free += len(weight_tuples(w, lambda i: True))
            else:
                for c in weight_tuples(w, lambda i, kk=k: kk < 2 ** (i + 1) - 1):
                    if is_in_subalgebra(Monomial(k, l, c)):
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


def verify_gorenstein_per_degree(n: int, window, ss=None):
    """verify_gorenstein the direct way: for each checked alpha, sum
    gamma_groups and read the Anderson dual, with no shared table.

    Returns a DualityReport built with the same records, note handling and
    summary as the package's verifier, so the two can be compared exactly.
    """
    from realspectra.duality import (DualityRecord, DualityReport,
                                     InconsistentSSData, _placement_note,
                                     _shipped_ssdata_path,
                                     anderson_dual_groups, default_ssdata,
                                     gamma_groups, gorenstein_shift,
                                     spectrum_groups)
    unshipped = ss is None and not _shipped_ssdata_path(n).is_file()
    ss = default_ssdata(n) if ss is None else ss
    shift = gorenstein_shift(n)
    records = []
    for alpha in window:
        if -alpha not in window:
            continue
        dual = anderson_dual_groups(spectrum_groups(n), alpha + shift)
        try:
            gamma = gamma_groups(n, ss, alpha)
            note = ""
        except InconsistentSSData as err:
            gamma = (-1, -1)
            note = str(err)
        records.append(DualityRecord(
            alpha, gamma, dual, gamma == dual and not note, note))
    records.sort(key=lambda r: (r.degree.triv, r.degree.sgn))
    bad = sum(1 for r in records if not r.ok)
    summary = (f"n={n}: {len(records)} degrees on {window}, "
               f"{bad} mismatches")
    placement = _placement_note(n, ss)
    if placement:
        summary += "; " + placement
    if bad and unshipped:
        summary += f"; no SSData shipped for n={n}"
    return DualityReport(records, summary)


def e_infinity_basis_two_rounds(n, alpha, a_cap=None):
    """e_infinity_basis as two full enumerations, to caps bound and bound + 8.

    Each round runs a fresh propagation engine against the closed form on
    every monomial; the answers must agree between the rounds, else a
    survivor lies past the bound.  The engines and the bound are looked up
    through the hfpss module, so a test that patches them there patches
    this reference too.
    """
    from realspectra import hfpss
    from realspectra.coefficients import BasisEntry, StabilizationFailure

    bound = max(hfpss._exponent_bound(n, alpha), a_cap or 0)
    rounds = []
    for cap in (bound, bound + 8):
        engine = hfpss._PageStates(n)
        entries = []
        for x in hfpss.e2_basis(n, alpha, cap):
            got = engine.final_state(x)
            want = hfpss.closed_form_state(n, x)
            if got != want:
                raise hfpss.MismatchError(
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
