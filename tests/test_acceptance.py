"""Acceptance runs: the headline computations, exact and timed.

One test per criterion; each asserts exact group equality (the underlying
algebra is exact, so there is no tolerance to tune) and, where a budget is
stated, a wall-clock bound.
"""

import itertools
import time

from realspectra import localcoh
from realspectra.blocks import (bb_basis, diagonal_decompose, lc_of_block,
                               nb_basis)
from realspectra.coefficients import (QuotientIdeal, group_in_degree,
                                      rank_summary, weight_tuples)
from realspectra.duality import (SSData, default_ssdata, verify_gorenstein,
                                 verify_quotient_duality)
from realspectra.grading import RHO, Degree, Window
from realspectra.hfpss import (e_infinity_groups, geometric_cofibre_groups,
                               run_differentials, tate_groups)
from realspectra.localcoh import (check_closed_form, convention_report, dual_p,
                                  dual_pbar, dual_tower_f2, ideal_f2, ideal_z,
                                  lc_ranks, p_module, pbar, tower_f2)

import oracles
from oracles import (gamma_block, gamma_groups, nilpotence_check,
                     restriction_rank, shift_for, truncation)

ONE = Degree(1, 0)


# --- 1: the descent spectral sequence reproduces the coefficient groups --------

def test_criterion_1_spectral_sequence_agrees_with_coefficients():
    # height 4 suffices on this window: vbar_5 multiples land outside it,
    # so the truncation and the full ring coincide degree for degree
    start = time.monotonic()
    window = Window.square(20)
    pages = run_differentials(4, window, a_cap=40)
    # the propagation engine certifies every page, fired pairs included
    assert pages == oracles.run_differentials_reference(4, window, a_cap=40)
    final = pages[-1]
    assert final.fired == ()
    for alpha in window:
        classes = final.classes.get(alpha, [])
        ranks = (sum(1 for e in classes if not e.torsion),
                 sum(1 for e in classes if e.torsion))
        assert ranks == e_infinity_groups(4, alpha) == group_in_degree(alpha), alpha
    assert time.monotonic() - start < 60.0


# --- 2: strong evenness across the ring and its quotients ----------------------

EVEN_IDEALS = (
    QuotientIdeal(),
    truncation(1),
    truncation(2),
    truncation(3),
    QuotientIdeal((1,)),
    QuotientIdeal((2,)),
    QuotientIdeal((1, 2)),
)


def test_criterion_2_evenness_and_restriction_index_on_rho_line():
    start = time.monotonic()
    for ideal in EVEN_IDEALS:
        for k in range(-10, 11):
            assert group_in_degree(k * RHO - ONE, ideal) == (0, 0), (ideal, k)
            assert restriction_rank(ideal, k * RHO) == 1, (ideal, k)
    assert time.monotonic() - start < 10.0


# --- 3: the three lines below the rho diagonal ----------------------------------

def test_criterion_3_lines_below_rho_diagonal_count_monomials():
    # free classes on the rho-4 line are 2 u^-1 vbar^c with c of weight k-2;
    # the rho-6 line carries a^2 u^-2 vbar_1 vbar^c, so vbar_1-free weight
    # tuples drop out of the count
    for k in range(-8, 9):
        total = len(weight_tuples(k - 2)) if k >= 2 else 0
        no_first = len(weight_tuples(k - 2, 2)) if k >= 2 else 0
        assert group_in_degree(k * RHO - Degree(4, 0)) == (total, 0), k
        if total:
            assert restriction_rank(QuotientIdeal(), k * RHO - Degree(4, 0)) == 2, k
        assert group_in_degree(k * RHO - Degree(5, 0)) == (0, 0), k
        assert group_in_degree(k * RHO - Degree(6, 0)) == (0, total - no_first), k


# --- 4: local cohomology closed forms against the Koszul oracle ----------------

CATALOGUE = {
    1: (p_module(), dual_p(), pbar(0), pbar(1), dual_pbar(0), ideal_z(0),
        ideal_z(1), ideal_f2(0, 1), tower_f2(), dual_tower_f2()),
    2: (p_module(), pbar(0), pbar(1), pbar(2), ideal_z(0), ideal_z(1),
        ideal_z(2), ideal_f2(0, 1), ideal_f2(0, 2), ideal_f2(1, 2)),
}


def test_shipped_catalogue_lists_the_spec_modules():
    # `lc --oracle` checks localcoh.CATALOGUE; this one is the spec
    def names(catalogue):
        return {n: [m.describe() for m in mods] for n, mods in catalogue.items()}
    assert names(localcoh.CATALOGUE) == names(CATALOGUE)


def test_criterion_4_closed_forms_match_koszul_oracle():
    start = time.monotonic()
    for n, modules in CATALOGUE.items():
        for mod in modules:
            check_closed_form(mod, n, -12, 12)
    report = convention_report()
    assert any("sign" in line for line in report), report
    assert all("oracle" in line for line in report), report
    assert time.monotonic() - start < 30.0


def test_criterion_4_height3_closed_forms_where_they_are_nonzero():
    # the unshifted modules that the n = 3 blocks split into; the H^3 of
    # the P and Pbar0 families starts at k = -D_3 = -11, so the window
    # reaches it and two steps past it
    start = time.monotonic()
    modules = sorted({cell.module._replace(shift=Degree(0, 0))
                      for kind in ("bb", "nb") for d in range(-24, 40)
                      for cell in diagonal_decompose(3, d, kind)})
    assert len(modules) == 15
    for mod in modules:
        check_closed_form(mod, 3, -13, 2)
        assert any(lc_ranks(mod, 3, s, RHO * k) != (0, 0)
                   for k in range(-13, 3) for s in range(4)), mod
    assert time.monotonic() - start < 30.0


# --- 5: the height-1 ring, its blocks, and its torsion duality ------------------

def _bb_height1(alpha):
    # lattice part Z[vbar,a]/(2a, vbar a^3) plus the doubled line (2u)Z[vbar]
    t, s = alpha.triv, alpha.sgn
    free1 = 1 if (s == t and t >= 0) else 0
    free2 = 1 if (t >= 2 and s == t - 4) else 0
    f2 = 1 if ((t == 0 and s <= -1) or (t >= 1 and s in (t - 1, t - 2))) else 0
    return free1, free2, f2


def _nb_height1(alpha):
    # augmentation kernel of the lattice part plus the left a-tower
    t, s = alpha.triv, alpha.sgn
    free1 = 1 if (s == t and t >= 1) else 0
    free2 = 1 if ((t, s) == (0, 0) or (t >= 2 and s == t - 4)) else 0
    f2 = 1 if ((t >= 1 and s in (t - 1, t - 2)) or (t == -1 and s >= 1)) else 0
    return free1, free2, f2


def _gamma_bb_height1(alpha):
    t, d = alpha.triv, alpha.sgn - alpha.triv
    free = (t <= -2 and d == 1) + (t <= 0 and d == -3)
    f2 = (t <= -2 and d == 0) + (t <= -2 and d == -1) + \
        (t == 0 and alpha.sgn <= -4)
    return int(free), int(f2)


def _gamma_nb_height1(alpha):
    t, d = alpha.triv, alpha.sgn - alpha.triv
    free = (t <= -2 and d == 1) + (t <= 0 and d == -3)
    f2 = ((t, alpha.sgn) == (-1, 0)) + (t <= -1 and d == 0) + \
        (t <= -1 and d == -1) + (t == -1 and alpha.sgn >= 1)
    return int(free), int(f2)


# local cohomology of the height-1 blocks by display diagonal:
# (s, column, module) with the column-0 generator on diagonal d at (0, -d)
HEIGHT1_BB_TABLE = {
    -1: [(1, 0, "P*(-2-s)")],
    0: [(1, 0, "Pbar0^(-2-2s)")],
    1: [(1, 0, "Pbar0^(-2-3s)")],
    3: [(0, 0, "Pbar1(-3s)"), (1, 1, "P*(-3s)")],
    4: [(0, 0, "Pbar1(-4s)")],
    5: [(0, 0, "Pbar1(-5s)")],
    6: [(0, 0, "Pbar1(-6s)")],
    7: [(0, 0, "Pbar1(-7s)")],
    8: [(0, 0, "Pbar1(-8s)")],
}

HEIGHT1_NB_TABLE = {
    -4: [(0, -1, "Pbar1(-1+3s)")],
    -3: [(0, -1, "Pbar1(-1+2s)")],
    -2: [(0, -1, "Pbar1(-1+s)")],
    -1: [(1, 0, "P*(-2-s)"), (1, 0, "Pbar1^(-1)")],
    0: [(1, 0, "Pbar0^(-1-s)")],
    1: [(1, 0, "Pbar0^(-1-2s)")],
    3: [(1, 1, "P*(-3s)")],
}


def test_criterion_5_height1_blocks_duality_and_forced_extension():
    start = time.monotonic()
    for alpha in Window.square(10):
        for basis, expect in ((bb_basis, _bb_height1),
                              (nb_basis, _nb_height1)):
            free1, free2, f2 = expect(alpha)
            assert rank_summary(basis(1, alpha)) == (free1 + free2, f2), alpha
            doubled = sum(1 for e in basis(1, alpha)
                          if not e.torsion and e.lattice == 2)
            assert doubled == free2, alpha

    for kind, table in (("bb", HEIGHT1_BB_TABLE), ("nb", HEIGHT1_NB_TABLE)):
        got = lc_of_block(1, kind, d_lo=-4, d_hi=8)
        for d in range(-4, 9):
            rows = [(s, col, mod.describe()) for s, col, mod in got.get(d, [])]
            assert rows == table.get(d, []), (kind, d)

    ss = default_ssdata(1)
    for alpha in Window.square(12):
        assert gamma_block(1, "bb", alpha, ss) == _gamma_bb_height1(alpha), alpha
        assert gamma_block(1, "nb", alpha, ss) == _gamma_nb_height1(alpha), alpha

    report = verify_gorenstein(1, Window.square(16))
    assert report.clean, report.summary
    # the non-split extension: Z at -3 sigma, and a mutation run without the
    # merge record must be caught
    assert gamma_groups(1, None, Degree(0, -3)) == (1, 0)
    assert len(verify_gorenstein(1, Window.square(16), ss=SSData(1)).mismatches) >= 1
    assert time.monotonic() - start < 30.0


# --- 6: the height-2 ring, its displayed table, and minimal spectral data ------

HEIGHT2_BB_TABLE = {
    -2: [(2, 0, "P*(-6-4s)")],
    -1: [(2, 0, "Pbar0^(-6-5s)")],
    0: [(2, 0, "Pbar0^(-6-6s)")],
    2: [(1, 0, "Pbar1^(-4-6s)"), (2, 1, "P*(-4-6s)")],
    3: [(1, 0, "Pbar1^(-4-7s)")],
    4: [(1, 0, "Pbar1^(-4-8s)")],
    5: [(1, 0, "Pbar1^(-4-9s)")],
    6: [(2, 2, "P*(-2-8s)"), (2, 2, "Pbar1^(-1-7s)")],
    7: [(0, 0, "Pbar2(-7s)"), (2, 2, "Pbar0^(-1-8s)")],
    8: [(0, 0, "Pbar2(-8s)"), (2, 2, "Pbar0^(-1-9s)")],
    9: [(0, 0, "Pbar2(-9s)")],
    10: [(0, 0, "Pbar2(-10s)"), (2, 3, "P*(-10s)")],
    11: [(0, 0, "Pbar2(-11s)")],
    12: [(0, 0, "Pbar2(-12s)")],
    13: [(0, 0, "Pbar2(-13s)")],
}


def test_criterion_6_height2_table_and_minimal_ssdata():
    start = time.monotonic()
    got = lc_of_block(2, "bb", d_lo=-2, d_hi=13)
    for d in range(-2, 14):
        rows = [(s, col, mod.describe()) for s, col, mod in got.get(d, [])]
        assert rows == HEIGHT2_BB_TABLE.get(d, []), d

    window = Window.square(24)
    ss = default_ssdata(2)
    assert verify_gorenstein(2, window, ss=ss).clean

    # the three differentials and three extensions are jointly forced: every
    # proper subset of the six records leaves a visible mismatch
    items = ss.items()
    assert len(items) == 6
    for size in range(len(items)):
        for keep in itertools.combinations(items, size):
            sub = SSData(2,
                         tuple(d for d in ss.differentials if d in keep),
                         tuple(e for e in ss.extensions if e in keep))
            assert verify_gorenstein(2, window, ss=sub).mismatches, keep
    assert time.monotonic() - start < 120.0


# --- 7: duality suspensions of the named spectra --------------------------------

def test_criterion_7_duality_shifts():
    assert shift_for("ERn", 1).shift == Degree(4, 0)
    assert shift_for("BPRn", 2).shift == Degree(8, 2)
    for n in (1, 2, 3, 5):
        assert shift_for("KRn", n).shift == Degree(4, 0) - 2 * RHO


# --- 8: quotient duality along the rho diagonals --------------------------------

def test_criterion_8_quotient_duality_on_rho_lines():
    start = time.monotonic()
    for ideal in (QuotientIdeal(), QuotientIdeal((1,))):
        report = verify_quotient_duality(ideal, -8, 8)
        assert not report.mismatches, report.summary
        assert not report.skipped, report.summary
    # killing vbar_1 with its tower truncated is the height-1 ring; the
    # quotient route and the torsion route must both come back clean
    trunc = verify_quotient_duality(truncation(1), -8, 8)
    assert not trunc.mismatches and not trunc.skipped, trunc.summary
    assert verify_gorenstein(1, Window.square(8)).clean
    assert nilpotence_check(1, 1, Window.square(8))
    assert time.monotonic() - start < 30.0


# --- 9: Tate ring and geometric cofibre ------------------------------------------

def test_criterion_9_tate_ring_and_geometric_cofibre():
    for n in (1, 2):
        period = 2 ** (n + 1)
        # F_2[x^{+-1}] with |x| = period, constant in the twisted direction
        for t in range(-40, 41):
            expected = sum(1 for j in range(-10, 11) if j * period == t)
            assert tate_groups(n, Degree(t, 0)) == expected, (n, t)
        for alpha in Window.square(18):
            assert tate_groups(n, alpha) == tate_groups(n, Degree(alpha.triv, 0))
            # F_2[a^{+-1}, U^-1] U^-1: one class per (t, s) with t a negative
            # multiple of the period, none elsewhere
            geo = sum(1 for m in range(1, 41) if -period * m == alpha.triv)
            assert geometric_cofibre_groups(n, alpha) == geo, (n, alpha)
