"""Catalogue modules, Koszul oracle, and closed-form local cohomology."""

import collections
import doctest
from fractions import Fraction

import pytest

from realspectra import localcoh
from realspectra.coefficients import StabilizationFailure
from realspectra.grading import RHO, Degree
from realspectra.localcoh import (
    StandardModule, check_closed_form, convention_report, dual_p, dual_pbar,
    dual_tower_f2, ideal_f2, ideal_z, lc_closed_form,
    lc_oracle, lc_ranks, module_gens, module_ranks, p_module, pbar, tower_f2,
)

ZERO = Degree(0, 0)


def test_doctests():
    result = doctest.testmod(localcoh)
    assert result.failed == 0 and result.attempted > 0


# ---------------------------------------------------------------------------
# module plumbing

def test_describe_shapes():
    assert p_module().describe() == "P"
    assert dual_p(RHO * -2).describe() == "P*(-2-2s)"
    assert pbar(1).describe() == "Pbar1"
    assert dual_pbar(0).describe() == "Pbar0^"
    assert ideal_z(0).describe() == "(2)P"
    assert ideal_z(1).describe() == "(2,v1)P"
    assert ideal_z(3).describe() == "(2,v1..v3)P"
    assert ideal_f2(0, 1).describe() == "(v1)Pbar0"
    assert ideal_f2(1, 3).describe() == "(v2..v3)Pbar1"
    assert tower_f2().describe() == "F2[a]"
    assert dual_tower_f2().describe() == "F2[a]^"


def test_module_validation():
    with pytest.raises(ValueError):
        StandardModule("Pbar", s=-1)
    with pytest.raises(ValueError):
        ideal_f2(2, 2)
    with pytest.raises(ValueError):
        StandardModule("IdealZ", t=-1)


def test_module_ranks_basics():
    # P has one generator per weight tuple, all free
    assert module_ranks(p_module(), 2, ZERO) == (1, 0)
    assert module_ranks(p_module(), 2, RHO * 3) == (2, 0)  # v1^3, v2
    assert module_ranks(p_module(), 2, RHO * -1) == (0, 0)
    # duals mirror onto non-positive multiples of rho
    assert module_ranks(dual_p(), 2, RHO * -3) == (2, 0)
    assert module_ranks(dual_p(), 2, RHO) == (0, 0)
    # Pbar0 kills 2 only; Pbar1 kills vbar_1 too
    assert module_ranks(pbar(0), 2, RHO * 3) == (0, 2)
    assert module_ranks(pbar(1), 2, RHO * 3) == (0, 1)  # v2 alone
    assert module_ranks(pbar(2), 2, RHO * 3) == (0, 0)
    # towers live on the sigma axis only
    assert module_ranks(tower_f2(), 1, Degree(0, -5)) == (0, 1)
    assert module_ranks(tower_f2(), 1, Degree(0, 5)) == (0, 0)
    assert module_ranks(dual_tower_f2(), 1, Degree(0, 5)) == (0, 1)
    assert module_ranks(tower_f2(), 1, Degree(1, -5)) == (0, 0)


def test_ideal_generator_lattices():
    # (2, v1)P in weight 0 is generated by 2; in weight 1 by v1 itself
    gens = module_gens(ideal_z(1), 2, ZERO)
    assert gens == [((), 2)]
    gens = module_gens(ideal_z(1), 2, RHO)
    assert gens == [((1,), 1)]
    # weight 3: v1^3 inside, v2 outside so doubled
    gens = sorted(module_gens(ideal_z(1), 2, RHO * 3))
    assert gens == [((0, 1), 2), ((3,), 1)]
    # (v1)Pbar0 keeps only tuples touching v1
    assert module_gens(ideal_f2(0, 1), 2, RHO * 3) == [((3,), 1)]
    assert module_gens(ideal_f2(0, 2), 2, RHO * 3) == \
        sorted([((3,), 1), ((0, 1), 1)])


def test_shift_moves_support():
    m = p_module(Degree(3, -1))
    assert module_ranks(m, 1, Degree(3, -1)) == (1, 0)
    assert module_ranks(m, 1, ZERO) == (0, 0)
    assert m.shifted(Degree(-3, 1)) == p_module()


# ---------------------------------------------------------------------------
# Koszul oracle

def test_koszul_spot_values():
    # H^s of the single stage e of the oracle's colimit, at n = 1
    for mod, e, s, alpha, want in ((p_module(), 6, 1, RHO * -2, (1, 0)),
                                   (p_module(), 6, 0, RHO * 2, (0, 0)),
                                   (pbar(0), 5, 0, ZERO, (0, 0))):
        stage = localcoh._stage(mod, 1, e, alpha)
        assert localcoh._stage_homology(stage, 1)[s] == want


def test_oracle_stabilizes_and_is_radical_invariant(monkeypatch,
                                                    cold_pieces):
    # raising every Koszul exponent replaces the ideal with a power; the
    # stabilized answer only depends on the radical, from any first stage
    cases = [
        (p_module(), 1, 1, RHO * -2),
        (ideal_z(1), 2, 2, RHO * -4),
        (ideal_f2(0, 1), 2, 2, RHO * -2),
        (pbar(0), 2, 2, RHO * -3),
    ]
    base = [lc_oracle(mod, n, s, alpha) for mod, n, s, alpha in cases]
    for first in (12, 13):
        _clear_pieces()
        monkeypatch.setattr(localcoh, "_first_stage",
                            lambda mod, alpha: first)
        for (mod, n, s, alpha), want in zip(cases, base):
            assert lc_oracle(mod, n, s, alpha) == want, \
                (mod.describe(), s, alpha, first)


def test_oracle_out_of_range_degrees_vanish():
    assert lc_oracle(p_module(), 1, 2, ZERO) == (0, 0)
    assert lc_oracle(p_module(), 1, -1, ZERO) == (0, 0)


def _clear_pieces():
    # every memo of localcoh, so that no warmed entry answers without
    # calling a patched _act
    for memo in vars(localcoh).values():
        if hasattr(memo, "cache_clear") and \
                getattr(memo, "__module__", None) == localcoh.__name__:
            memo.cache_clear()


@pytest.fixture
def cold_pieces():
    _clear_pieces()
    yield
    _clear_pieces()


def _weight(c):
    return sum(x * (2 ** i - 1) for i, x in enumerate(c, start=1))


def _scale_vbar1(monkeypatch, factor, at: Degree):
    """Patch _act: vbar_1 on a generator in degree `at` of a module with
    no shift (its exponents have weight at.triv) is scaled by factor; every
    other action is the true one."""
    true = localcoh._act

    def scaled(mod, c, i, e):
        hit = true(mod, c, i, e)
        if hit is None or i != 1 or _weight(c) != at.triv:
            return hit
        return hit[0], factor * hit[1]

    monkeypatch.setattr(localcoh, "_act", scaled)


@pytest.mark.parametrize("mod, factor, at, message", [
    # d^1 d^0 (1) = (1 - 3) v1 v2 in P: not zero
    (p_module(), 3, ZERO, "g o f is not zero in the target group"),
    # d^0 halves v1 on an F_2 module: 2 * 1 goes to v1, not to zero
    (pbar(0), Fraction(1, 2), ZERO, "f does not respect relations"),
    # d^1 halves v1 on the summand C^1 at 0 + 2|v2| of stage e = 2
    (pbar(0), Fraction(1, 2), RHO * 6, "g does not respect relations"),
])
def test_oracle_checks_every_stage_complex(monkeypatch, cold_pieces, mod,
                                           factor, at, message):
    # every s sums the H^s of every piece of a stage, so each meets the
    # checks of the broken piece
    _scale_vbar1(monkeypatch, factor, at)
    for s in range(3):
        _clear_pieces()
        with pytest.raises(ValueError) as err:
            lc_oracle(mod, 2, s, ZERO)
        assert str(err.value) == message, s


def test_oracle_reads_d_squared_in_the_target_group(monkeypatch,
                                                    cold_pieces):
    # (1 - 3) v1 v2 is zero in the F_2 module Pbar0, so no check fires
    _scale_vbar1(monkeypatch, 3, ZERO)
    assert [lc_oracle(pbar(0), 2, s, ZERO) for s in range(3)] == \
        [(0, 0)] * 3


@pytest.mark.parametrize("exponent", [2, 1])
def test_oracle_refuses_an_image_outside_its_piece(monkeypatch, cold_pieces,
                                                   exponent):
    # vbar_1^exponent fixing every generator breaks the fine grading: at
    # exponent 2 in the stage-2 differentials, at 1 in the transitions
    true = localcoh._act

    def fixed(mod, c, i, e):
        return (c, 1) if (i, e) == (1, exponent) else true(mod, c, i, e)

    monkeypatch.setattr(localcoh, "_act", fixed)
    with pytest.raises(ValueError, match="out of its piece of P$"):
        lc_oracle(p_module(), 2, 2, ZERO)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_oracle_failure_is_per_s(monkeypatch, cold_pieces, order):
    # at -3 rho, stages 2 and 3 agree in H^0 but not in H^1
    monkeypatch.setattr(localcoh, "_first_stage", lambda mod, alpha: 2)
    monkeypatch.setattr(localcoh, "MAX_E", 3)
    for s in order:
        if s == 0:
            assert lc_oracle(p_module(), 1, 0, RHO * -3) == (0, 0)
        else:
            with pytest.raises(StabilizationFailure) as err:
                lc_oracle(p_module(), 1, 1, RHO * -3)
            assert str(err.value) == \
                "Koszul colimit for P H^1 at -3-3s did not settle by stage 3"


def test_oracle_error_ends_the_run_for_every_s(monkeypatch, cold_pieces):
    # vbar_1 fixing every generator breaks only the transitions out of the
    # slots that contain 1, which H^0 never reads; the run still fails for
    # H^0, at the first transition H^1 reads
    true = localcoh._act

    def fixed(mod, c, i, e):
        return (c, 1) if (i, e) == (1, 1) else true(mod, c, i, e)

    monkeypatch.setattr(localcoh, "_act", fixed)
    for s in range(3):
        with pytest.raises(ValueError, match=r"vbar_\(1,\) sends \(2,\) out"):
            lc_oracle(p_module(), 2, s, ZERO)


def test_oracle_does_not_memoize_an_error(monkeypatch, cold_pieces):
    def broken(mod, c, i, e):
        raise ValueError("broken action")

    monkeypatch.setattr(localcoh, "_act", broken)
    for _ in range(2):
        with pytest.raises(ValueError, match="broken action"):
            lc_oracle(p_module(), 2, 1, ZERO)
    monkeypatch.undo()
    assert lc_oracle(p_module(), 2, 1, ZERO) == (0, 0)


def test_oracle_builds_each_stage_once_per_degree(monkeypatch, cold_pieces):
    # every s at a degree reads one pass over the stages: two stages per
    # degree on this window, where one pass per s built each three times
    built = collections.Counter()
    true = localcoh._stage

    def counting(mod, n, e, alpha):
        built[e, alpha] += 1
        return true(mod, n, e, alpha)

    monkeypatch.setattr(localcoh, "_stage", counting)
    check_closed_form(p_module(), 2, -5, 5)
    assert sum(built.values()) == 22
    assert set(built.values()) == {1}


def test_torsion_modules_have_no_higher_lc():
    # J-power-torsion input: everything sits in H^0
    for mod in (tower_f2(), dual_tower_f2(), pbar(2)):
        for s in (1, 2):
            for k in range(-4, 5):
                assert lc_oracle(mod, 2, s, RHO * k) == (0, 0)
        assert lc_oracle(mod, 2, 0, ZERO) == module_ranks(mod, 2, ZERO)


# ---------------------------------------------------------------------------
# closed forms against the oracle

def test_closed_form_catalogue_n1():
    for mod in (p_module(), dual_p(), pbar(0), pbar(1), dual_pbar(0),
                ideal_z(0), ideal_z(1), ideal_f2(0, 1), tower_f2(),
                dual_tower_f2()):
        check_closed_form(mod, 1, -6, 6)


def test_closed_form_catalogue_n2():
    for mod in (p_module(), pbar(0), pbar(1), pbar(2), ideal_z(0),
                ideal_z(1), ideal_z(2), ideal_f2(0, 1), ideal_f2(0, 2),
                ideal_f2(1, 2)):
        check_closed_form(mod, 2, -5, 5)


def test_closed_form_shapes():
    [h1] = lc_closed_form(p_module(), 1)
    assert (h1.s, h1.module.describe()) == (1, "P*(-1-s)")
    [h2] = lc_closed_form(p_module(), 2)
    assert (h2.s, h2.module.describe()) == (2, "P*(-4-4s)")
    got = {(x.s, x.module.describe()) for x in lc_closed_form(ideal_z(1), 2)}
    assert got == {(2, "P*(-4-4s)"), (2, "Pbar1^(-3-3s)")}
    got = {(x.s, x.module.describe()) for x in lc_closed_form(ideal_f2(0, 1), 2)}
    assert got == {(2, "Pbar0^(-3-3s)")}
    got = {(x.s, x.module.describe()) for x in lc_closed_form(ideal_f2(0, 2), 2)}
    assert got == {(2, "Pbar0^(-4-4s)"), (1, "Pbar2^")}
    assert lc_closed_form(pbar(2), 2) == \
        lc_closed_form(pbar(2), 2)
    [h0] = lc_closed_form(tower_f2(), 2)
    assert h0.s == 0 and h0.module == tower_f2()
    # degenerate ambient ring: no vbar generators at all, H^0 only
    [h0] = lc_closed_form(p_module(), 0)
    assert h0.s == 0 and h0.module == p_module()


def test_closed_form_rejects_overflow_index():
    with pytest.raises(ValueError):
        lc_closed_form(ideal_f2(2, 3), 2)


def test_lc_ranks_sums_summands():
    assert lc_ranks(ideal_z(1), 2, 2, RHO * -4) == (1, 0)
    assert lc_ranks(ideal_z(1), 2, 2, RHO * -3) == (0, 1)  # dual Pbar1 leg
    assert lc_ranks(ideal_z(1), 2, 1, RHO * -4) == (0, 0)
    assert lc_ranks(p_module(), 1, 1, RHO * -1) == (1, 0)


def test_convention_report():
    lines = convention_report()
    assert len(lines) == 4
    assert all("confirms" in line or "matches" in line for line in lines)
