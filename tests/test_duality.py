"""Degreewise Anderson duals, Gorenstein verification, quotient duality."""

import collections
import doctest
import json
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from realspectra import blocks, duality
from realspectra.blocks import assemble, assemble_groups
from realspectra.coefficients import (Monomial, StabilizationFailure,
                                      group_in_degree, rank_summary,
                                      weight_tuples)
from realspectra.duality import (
    Differential, DualityRecord, Extension, InconsistentSSData, SSData,
    anderson_dual_groups, default_ssdata, gamma_block, gorenstein_shift, kappa_groups, load_ssdata, verify_gorenstein,
    verify_quotient_duality)
from realspectra.grading import RHO, Degree, Window, total_vbar_degree

from oracles import (gamma_groups, maps_from_quotient, nilpotence_check,
                     shift_for, ssdata_dict, truncation,
                     verify_gorenstein_per_degree, without)

ONE = Degree(1, 0)


def test_doctests():
    result = doctest.testmod(duality)
    assert result.failed == 0 and result.attempted > 0


# ---------------------------------------------------------------------------
# spectral sequence data records

def test_differential_validates_diagonal():
    Differential("bb", Degree(0, -7), Degree(-1, -7))
    with pytest.raises(ValueError):
        Differential("bb", Degree(0, -7), Degree(-1, -8))
    with pytest.raises(ValueError):
        Differential("xx", Degree(0, -7), Degree(-1, -7))
    with pytest.raises(ValueError):
        Differential("bb", Degree(0, -7), Degree(-1, -7), rank=0)


def test_extension_covers_rho_multiples():
    ext = Extension("bb", Degree(-4, -6))
    assert ext.covers(Degree(-4, -6))
    assert ext.covers(Degree(-7, -9))
    assert not ext.covers(Degree(-3, -5))
    assert not ext.covers(Degree(-4, -7))


def test_ssdata_json_round_trip():
    ss = default_ssdata(2)
    again = SSData.from_dict(json.loads(json.dumps(ssdata_dict(ss))))
    assert again == ss
    assert len(ss.items()) == 6


def test_packaged_ssdata_contents():
    ss1 = default_ssdata(1)
    assert ss1.differentials == ()
    assert ss1.extensions == (Extension("bb", Degree(0, -3)),)
    ss2 = default_ssdata(2)
    assert len(ss2.differentials) == 3
    assert all(d.source.triv == 0 and d.target.triv == -1
               for d in ss2.differentials)
    assert {d.source.sgn for d in ss2.differentials} == {-7, -8, -9}
    assert set(ss2.extensions) == {Extension("bb", Degree(-4, -6)),
                                   Extension("bb", Degree(0, -10)),
                                   Extension("nb", Degree(-4, -6))}


def test_load_ssdata_from_text():
    ss = load_ssdata(json.dumps({
        "n": 1, "differentials": [],
        "extensions": [{"block": "bb", "degree": [0, -3]}]}))
    assert ss == default_ssdata(1)


# ---------------------------------------------------------------------------
# the two assembled blocks of Gamma for the height-1 ring, degree by degree

def _gbb_expected(a: Degree) -> tuple[int, int]:
    # dual tower from (-2,-1), two a-shifted F_2 rows under it, the dual
    # tower from (0,-3) with its torsion partner merged away at the top,
    # and the surviving a-power classes above it
    t, d = a.triv, a.sgn - a.triv
    free = (t <= -2 and d == 1) + (t <= 0 and d == -3)
    f2 = (t <= -2 and d == 0) + (t <= -2 and d == -1) + \
        (t == 0 and a.sgn <= -4)
    return (int(free), int(f2))


def _gnb_expected(a: Degree) -> tuple[int, int]:
    t, d = a.triv, a.sgn - a.triv
    free = (t <= -2 and d == 1) + (t <= 0 and d == -3)
    f2 = ((t, a.sgn) == (-1, 0)) + (t <= -1 and d == 0) + \
        (t <= -1 and d == -1) + (t == -1 and a.sgn >= 1)
    return (int(free), int(f2))


def test_gamma_blocks_match_height1_tables():
    ss = default_ssdata(1)
    for a in Window.square(12):
        assert gamma_block(1, "bb", a, ss) == _gbb_expected(a), a
        assert gamma_block(1, "nb", a, ss) == _gnb_expected(a), a


def test_height1_extension_is_forced():
    # without the merge record the top of the (0,-3) tower carries Z + F_2
    assert gamma_block(1, "bb", Degree(0, -3), SSData(1)) == (1, 1)
    assert gamma_block(1, "bb", Degree(0, -3), default_ssdata(1)) == (1, 0)
    # one rho deeper there is no torsion partner, so nothing to merge
    assert gamma_block(1, "bb", Degree(-1, -4), SSData(1)) == (1, 0)


def test_gamma_groups_minus_3_sigma_is_z():
    # the non-split additive extension: Z, not Z + F_2
    assert gamma_groups(1, None, Degree(0, -3)) == (1, 0)
    assert gamma_groups(1, SSData(1), Degree(0, -3)) == (1, 1)


def test_gamma_groups_sums_translates():
    ss = default_ssdata(1)
    for a in [Degree(4, -7), Degree(-4, 1), Degree(-3, 2)]:
        total = gamma_groups(1, ss, a)
        parts = [gamma_groups(1, ss, a, parts=("bb",)),
                 gamma_groups(1, ss, a, parts=("nb",))]
        assert total == (parts[0][0] + parts[1][0], parts[0][1] + parts[1][1])


def test_inconsistent_differential_raises():
    bogus = SSData(1, differentials=(
        Differential("bb", Degree(0, -3), Degree(-1, -3)),))
    with pytest.raises(InconsistentSSData):
        gamma_block(1, "bb", Degree(-1, -3), bogus)


# ---------------------------------------------------------------------------
# Anderson duals

def test_anderson_dual_reads_mirror_degrees():
    table = {Degree(2, 1): (2, 1), Degree(1, 1): (0, 3)}
    groups = lambda a: table.get(a, (0, 0))
    assert anderson_dual_groups(groups, Degree(-2, -1)) == (2, 3)
    assert anderson_dual_groups(groups, Degree(-3, -1)) == (0, 1)
    assert anderson_dual_groups(groups, Degree(5, 5)) == (0, 0)


def test_double_dual_is_identity_on_ranks():
    groups = partial(assemble_groups, 1)
    double = lambda a: anderson_dual_groups(
        lambda b: anderson_dual_groups(groups, b), a)
    for a in Window.square(6):
        assert double(a) == groups(a), a


def test_base_case_self_duality():
    # height 0 is ordinary integral cohomology: dual = itself twisted by 2 delta
    groups = partial(assemble_groups, 0)
    twist = 2 * (ONE - Degree(0, 1))
    for a in Window.square(6):
        assert anderson_dual_groups(groups, a + twist) == groups(a), a


# ---------------------------------------------------------------------------
# Gorenstein verification

def test_gorenstein_shift_values():
    assert gorenstein_shift(0) == Degree(2, -2)
    assert gorenstein_shift(1) == Degree(4, -1)
    assert gorenstein_shift(2) == Degree(8, 2)


def test_verify_gorenstein_height0_clean():
    rep = verify_gorenstein(0, Window.square(8))
    assert not rep.mismatches
    assert rep.clean


def test_verify_gorenstein_height1_clean():
    rep = verify_gorenstein(1, Window.square(10))
    assert not rep.mismatches


def test_verify_gorenstein_height1_extension_mutation():
    rep = verify_gorenstein(1, Window.square(12), ss=SSData(1))
    assert {r.degree for r in rep.mismatches} == {
        Degree(0, -3), Degree(4, -7), Degree(8, -11)}
    r = next(r for r in rep.mismatches if r.degree == Degree(0, -3))
    assert r.gamma == (1, 1) and r.dual == (1, 0)


def test_verify_gorenstein_height1_rejects_any_differential():
    bogus = SSData(1, differentials=(
        Differential("bb", Degree(0, -3), Degree(-1, -3)),),
        extensions=default_ssdata(1).extensions)
    rep = verify_gorenstein(1, Window.square(8), ss=bogus)
    assert rep.mismatches
    assert any("d_2" in r.note for r in rep.mismatches)


def test_verify_gorenstein_height2_clean():
    rep = verify_gorenstein(2, Window.square(14))
    assert not rep.mismatches
    assert "d_2 source placed at -7s" in rep.summary


@pytest.mark.parametrize("n", [1, 2])
def test_heights_1_and_2_clean_on_radius_48(n):
    rep = verify_gorenstein(n, Window.square(48))
    assert rep.mismatches == []
    assert rep.summary.startswith(
        f"n={n}: 9409 degrees on -48:48,-48:48, 0 mismatches")


# mismatches of the shipped data on [-r, r]^2 for r = 12, 24, 36, 48; no
# SSData ships for n = 3 or 4, so theirs are the empty data's
_MISMATCHES_BY_RADIUS = {1: (0, 0, 0, 0), 2: (0, 0, 0, 0),
                         3: (0, 48, 127, 271), 4: (0, 0, 41, 155)}


@pytest.mark.parametrize("n", sorted(_MISMATCHES_BY_RADIUS))
def test_gorenstein_mismatches_by_height_and_radius(n):
    got = tuple(len(verify_gorenstein(n, Window.square(r)).mismatches)
                for r in (12, 24, 36, 48))
    assert got == _MISMATCHES_BY_RADIUS[n]


def test_verify_gorenstein_height2_leave_one_out():
    ss = default_ssdata(2)
    for item in ss.items():
        rep = verify_gorenstein(2, Window.square(24), ss=without(ss, item))
        assert rep.mismatches, item


def test_missing_shipped_ssdata_is_named_in_the_summary():
    # no gorenstein_n3.json ships; on [-20,20]^2 the empty data leaves
    # 24 excess F_2 on the Gamma side
    rep = verify_gorenstein(3, Window.square(20))
    assert rep.summary == ("n=3: 1681 degrees on -20:20,-20:20, "
                           "24 mismatches; no SSData shipped for n=3")
    assert rep.summary == \
        verify_gorenstein_per_degree(3, Window.square(20)).summary
    # data passed in, even empty, is not a missing shipment
    explicit = verify_gorenstein(3, Window.square(20), ss=SSData(3))
    assert explicit.summary == ("n=3: 1681 degrees on -20:20,-20:20, "
                                "24 mismatches")
    # a clean run says nothing, shipped or not
    assert verify_gorenstein(3, Window.square(12)).summary == \
        "n=3: 625 degrees on -12:12,-12:12, 0 mismatches"
    assert verify_gorenstein(0, Window.square(8)).summary == \
        "n=0: 289 degrees on -8:8,-8:8, 0 mismatches"
    assert "shipped" not in verify_gorenstein(
        1, Window.square(12), ss=SSData(1)).summary


def test_verify_gorenstein_rejects_ssdata_of_another_height():
    with pytest.raises(ValueError, match="SSData is for n=1, not n=2"):
        verify_gorenstein(2, Window.square(4), ss=default_ssdata(1))


# the table-and-pass verifier against the degree-by-degree route

def _record_subsets(ss: SSData):
    items = ss.items()
    for mask in range(2 ** len(items)):
        keep = [item for i, item in enumerate(items) if mask >> i & 1]
        yield SSData(ss.n,
                     tuple(d for d in ss.differentials if d in keep),
                     tuple(e for e in ss.extensions if e in keep))


def _assert_matches_per_degree(n: int, window: Window, ss: SSData):
    got = verify_gorenstein(n, window, ss=ss)
    want = verify_gorenstein_per_degree(n, window, ss)
    assert got.records == want.records, ss
    assert got.mismatches == [r for r in want.records if not r.ok], ss
    assert got.summary == want.summary, ss


def test_table_pass_matches_per_degree_on_all_height2_subsets():
    subsets = list(_record_subsets(default_ssdata(2)))
    assert len(subsets) == 64
    for sub in subsets:
        _assert_matches_per_degree(2, Window.square(12), sub)


@pytest.mark.parametrize("n", [0, 1])
def test_table_pass_matches_per_degree_low_heights(n):
    for ss in (default_ssdata(n), SSData(n)):
        _assert_matches_per_degree(n, Window.square(10), ss)


def test_table_pass_matches_per_degree_on_asymmetric_window():
    for sub in _record_subsets(default_ssdata(2)):
        _assert_matches_per_degree(2, Window(-9, 5, -3, 11), sub)


@st.composite
def _bogus_ssdata(draw):
    """A few d_2 records near the origin, most asking for F_2 ranks the
    rows do not have, optionally with the shipped extensions, and up to
    three more extensions: at a random degree near the origin, whose line
    mostly holds blocks without both summands, or a few rho-steps above
    a d_2 end, so that it covers a block the d_2 also reaches."""
    n = draw(st.sampled_from((1, 2)))
    kinds = st.sampled_from(("bb", "nb"))
    diffs = []
    for _ in range(draw(st.integers(1, 3))):
        source = Degree(draw(st.integers(-6, 2)), draw(st.integers(-10, 2)))
        step = draw(st.integers(-2, 2))
        target = source + Degree(step - 1, step)
        diffs.append(Differential(draw(kinds), source, target,
                                  draw(st.integers(1, 3))))
    exts = default_ssdata(n).extensions if draw(st.booleans()) else ()
    ends = [(d.block, end) for d in diffs for end in (d.source, d.target)]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            block, end = draw(st.sampled_from(ends))
            degree = end + draw(st.integers(0, 2)) * RHO
        else:
            block = draw(kinds)
            degree = Degree(draw(st.integers(-8, 4)),
                            draw(st.integers(-12, 4)))
        exts += (Extension(block, degree),)
    return SSData(n, tuple(diffs), exts)


@given(_bogus_ssdata())
@settings(max_examples=40, deadline=None)
def test_table_pass_matches_per_degree_on_bogus_differentials(ss):
    _assert_matches_per_degree(ss.n, Window.square(8), ss)


def test_extension_over_a_differential_end_matches_per_degree():
    # -4-6s holds one free and one F_2 summand in bb, so the extension's
    # merge and the d_2's cancellation meet at one block
    end = Degree(-4, -6)
    assert duality.gorenstein_table(2, Window.square(8)).base["bb", end] \
        == (1, 1)
    for rank in (1, 2):
        for top in (end, end + RHO):
            ss = SSData(2, (Differential("bb", end, end - ONE, rank),),
                        (Extension("bb", top),))
            _assert_matches_per_degree(2, Window.square(8), ss)


def test_a_merge_changes_exactly_the_blocks_with_both_summands():
    table = duality.gorenstein_table(2, Window.square(24))
    for (kind, gamma), base in table.base.items():
        both = base[0] > 0 and base[1] > 0
        for merges in (1, 2):
            merged = duality._block_value(2, kind, gamma, [], merges)
            assert (merged != base) == both, (kind, gamma, merges)
    on_lines = {(kind, gamma) for (kind, _diag), line in table.lines.items()
                for gamma in line}
    assert on_lines == {key for key, (free, f2) in table.base.items()
                        if free and f2}


def test_table_pass_matches_per_degree_on_radius_48():
    ss = default_ssdata(2)
    for sub in (ss, *(without(ss, item) for item in ss.items())):
        _assert_matches_per_degree(2, Window.square(48), sub)


@pytest.mark.parametrize("radius, recomputed", [(12, 11), (48, 35)])
def test_shipped_verification_recomputes_only_blocks_it_can_change(
        monkeypatch, radius, recomputed):
    # the d_2 ends and the covered blocks with both a free and an F_2
    # summand; the table itself is built before counting
    window = Window.square(radius)
    duality.gorenstein_table(2, window)
    seen = []
    block_value = duality._block_value

    def counted(n, kind, gamma, ranks, merges):
        seen.append((kind, gamma))
        return block_value(n, kind, gamma, ranks, merges)

    monkeypatch.setattr(duality, "_block_value", counted)
    assert verify_gorenstein(2, window).clean
    assert len(seen) == len(set(seen)) == recomputed


def test_bogus_differentials_are_reported_where_exposed():
    # the shipped d_2 out of -7s, asking for three F_2 where there is one
    bogus = SSData(2, differentials=(
        Differential("bb", Degree(0, -7), Degree(-1, -7), rank=3),))
    rep = verify_gorenstein(2, Window.square(8), ss=bogus)
    noted = {r.degree: r for r in rep.records if r.note}
    assert set(noted) == {Degree(0, -7), Degree(-1, -7)}
    assert noted[Degree(0, -7)].note == \
        "d_2 needs 3 F_2 in H^0 of bb at -7s, found 1"
    assert all(r.gamma == (-1, -1) and not r.ok for r in noted.values())
    _assert_matches_per_degree(2, Window.square(8), bogus)


def test_mutation_sweep_builds_the_table_once():
    duality.gorenstein_table.cache_clear()
    for sub in _record_subsets(default_ssdata(2)):
        verify_gorenstein(2, Window.square(12), ss=sub)
    info = duality.gorenstein_table.cache_info()
    assert (info.misses, info.hits) == (1, 63)


def _clear_memos(*modules):
    for module in modules:
        for memo in vars(module).values():
            if hasattr(memo, "cache_clear") and \
                    getattr(memo, "__module__", None) == module.__name__:
                memo.cache_clear()


def test_cold_verification_validates_each_cell_once(monkeypatch):
    # the table reads each block diagonal from n + 1 display rows; the
    # cells of a diagonal are still checked against the basis only once
    _clear_memos(duality, blocks)
    seen = collections.Counter()
    validate = blocks._validate_cell

    def counted(n, d, l, kind, module, probe):
        seen[n, d, l, kind] += 1
        validate(n, d, l, kind, module, probe)

    monkeypatch.setattr(blocks, "_validate_cell", counted)
    verify_gorenstein(2, Window.square(12))
    assert seen
    assert [cell for cell, calls in seen.items() if calls > 1] == []


def test_misplaced_differential_source_is_inconsistent():
    # reading the d_2 sources one trivial degree down leaves no H^0 class
    ss = default_ssdata(2)
    shifted = SSData(2, differentials=tuple(
        Differential(d.block, d.source - ONE, d.target - ONE)
        for d in ss.differentials), extensions=ss.extensions)
    with pytest.raises(InconsistentSSData):
        gamma_block(2, "bb", Degree(-1, -7) - ONE, shifted)


def test_duality_record_json_shape():
    rec = DualityRecord(Degree(0, -3), (1, 0), (1, 0), True)
    assert rec.to_json() == {"degree": [0, -3], "gamma": [1, 0],
                             "dual": [1, 0], "ok": True}
    rep = verify_gorenstein(1, Window(-2, 2, -2, 2))
    blob = rep.to_json()
    assert json.loads(blob)["summary"].startswith("n=1")
    # serialization is bit-stable
    assert blob == verify_gorenstein(1, Window(-2, 2, -2, 2)).to_json()


# ---------------------------------------------------------------------------
# block pairing across the duality

def part_groups(n: int, alpha: Degree, part: str) -> tuple[int, int]:
    """(free, F_2) of one side of the assembly split at alpha.

    part "bb" is BB[U] (u-powers >= 0), "nb" is U^(-1) NB[U^(-1)].
    """
    return rank_summary(c.entry for c in assemble(n, alpha)
                        if (c.u_power >= 0) == (part == "bb"))


def test_blocks_pair_under_duality():
    for n in (1, 2):
        shift = gorenstein_shift(n)
        ss = default_ssdata(n)
        for a in Window.square(7):
            dual_nb = anderson_dual_groups(
                lambda d: part_groups(n, d, "nb"), a + shift)
            dual_bb = anderson_dual_groups(
                lambda d: part_groups(n, d, "bb"), a + shift)
            assert gamma_groups(n, ss, a, parts=("bb",)) == dual_nb, (n, a)
            assert gamma_groups(n, ss, a, parts=("nb",)) == dual_bb, (n, a)


# ---------------------------------------------------------------------------
# shifts for the catalogue

def test_shift_for_truncations():
    assert shift_for("BPRn", n=0).shift == Degree(2, -2)
    assert shift_for("BPRn", n=1).shift == Degree(4, -1)
    assert shift_for("BPRn", n=2).shift == Degree(8, 2)
    assert shift_for("BPRn", n=2).ideal == ("vbar1", "vbar2")


def test_shift_for_catalogue():
    assert shift_for("kR").shift == Degree(4, -1)
    assert shift_for("kRn", n=2).shift == Degree(5, 1)
    assert shift_for("KRn", n=1).shift == Degree(2, -2)
    assert shift_for("KRn", n=5).shift == Degree(2, -2)
    assert shift_for("ERn", n=1).shift == Degree(4, 0)
    assert shift_for("ERn", n=2).shift == Degree(69, 0)
    assert shift_for("TMF13").shift == Degree(7, 2)
    assert shift_for("Tmf13").shift == Degree(7, 2)
    assert shift_for("Tmf13").ideal == ()
    with pytest.raises(ValueError):
        shift_for("unknown")


def test_shift_for_quotients_extend_truncations():
    # killing nothing beyond the tail reproduces the truncation shifts
    assert shift_for("quotient", m=(0,)).shift == shift_for("kR").shift
    assert shift_for("quotient", m=(0, 0)).shift == \
        shift_for("BPRn", n=2).shift
    assert shift_for("quotient", m=(2,)).shift == Degree(1, -3)
    assert shift_for("quotient", m=(0, 2)).shift == Degree(1, -4)


# ---------------------------------------------------------------------------
# quotient duality through the Koszul colimit

def test_kappa_groups_count_dual_monomials():
    # on the k rho line the colimit is the weight -k piece of the dual
    # polynomial ring, and the k rho - 1 line vanishes
    for k in range(-6, 3):
        expected = len(weight_tuples(-k)) if k <= 0 else 0
        assert kappa_groups((), k * RHO) == (expected, 0), k
        assert kappa_groups((), k * RHO - ONE) == (0, 0), k


def test_kappa_groups_boxed_quotient():
    # with vbar_1 square-killed the dual counts drop accordingly
    assert kappa_groups((2,), Degree(0, 0)) == (1, 0)
    assert kappa_groups(truncation(1), -3 * RHO) == (1, 0)
    assert kappa_groups(truncation(1), -2 * RHO) == (1, 0)


def test_kappa_route_agrees_with_gamma_groups_on_the_rho_lines():
    # Gamma_J of the n-truncation is the colimit of its quotients by
    # (vbar_1^e, ..., vbar_n^e), suspended by -D_n rho - n (Greenlees-May);
    # kappa_groups reads that colimit on the k rho and k rho - 1 lines, with
    # no SSData.  Degrees whose quotient towers do not stabilize are
    # counted, not dropped from the range.
    agreeing, raising = [], []
    for n in range(1, 5):
        ideal = truncation(n)
        offset = total_vbar_degree(n) + Degree(n, 0)
        agree = fail = 0
        for k in range(-16, 9):
            for gamma in (k * RHO - ONE, k * RHO):
                try:
                    kappa = kappa_groups(ideal, gamma)
                except StabilizationFailure:
                    fail += 1
                    continue
                assert kappa == gamma_groups(n, None, gamma - offset), \
                    (n, gamma)
                agree += 1
        agreeing.append(agree)
        raising.append(fail)
    assert agreeing == [50, 49, 47, 46]
    assert raising == [0, 1, 3, 4]


def test_verify_quotient_duality_lines():
    summaries = []
    for m in ((), truncation(1), (2,)):
        rep = verify_quotient_duality(m, -5, 5)
        assert not rep.mismatches, (m, rep.summary)
        assert not rep.skipped
        assert [r.degree for r in rep.records] == \
            [g for k in range(-5, 6) for g in (k * RHO - ONE, k * RHO)]
        summaries.append(rep.summary)
    assert summaries[0] == \
        "full ring rho lines k in [-5, 5]: 22 degrees, 0 mismatches"
    assert summaries[2] == \
        "quotient (2,) tail=0 rho lines k in [-5, 5]: 22 degrees, 0 mismatches"


def test_quotient_route_agrees_with_gorenstein_route():
    # two independent pipelines for the height-1 ring must both be clean
    rep_q = verify_quotient_duality(truncation(1), -4, 4)
    rep_g = verify_gorenstein(1, Window.square(8))
    assert not rep_q.mismatches and not rep_g.mismatches


def test_nilpotence_of_a_on_vbar_content():
    assert nilpotence_check(1, 1, Window.square(6))


# ---------------------------------------------------------------------------
# mapping groups out of height-1 quotients

def test_maps_from_quotient_is_constant_z():
    for n_exp in (1, 2, 3):
        g = maps_from_quotient(n_exp)
        assert (g.free, g.f2) == (1, 0)
        assert g.restriction_index == 1, n_exp


def test_maps_from_quotient_wrong_shift_control():
    g = maps_from_quotient(1, dual_shift=Degree(0, 0))
    assert g.restriction_index == 2


# ---------------------------------------------------------------------------
# properties

@given(st.integers(-10, 10), st.integers(-10, 10), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_extension_cover_translation(t, s, w):
    ext = Extension("bb", Degree(t, s))
    assert ext.covers(Degree(t, s) - w * RHO)
    assert not ext.covers(Degree(t, s) + RHO)
    assert not ext.covers(Degree(t + 1, s))


@given(st.integers(-8, 8), st.integers(-8, 8))
@settings(max_examples=40, deadline=None)
def test_dual_window_symmetry(t, s):
    # duality pairs a with -a - shift; verifying at a and reading the
    # record back gives the same verdict as the defining comparison
    a = Degree(t, s)
    groups = partial(assemble_groups, 1)
    dual = anderson_dual_groups(groups, a + gorenstein_shift(1))
    assert dual == gamma_groups(1, None, a)
