"""The Koszul oracle's shortcuts give exactly what the direct work gives.

`smith_normal_form` skips the divisibility-chain scan where a known common
divisor of the remaining entries already answers it, `SmithForm` reads its
diagonal once, `localcoh.module_gens` is cached per (module, n, degree),
and the weight listings are cached per index range.  Each is checked here
against the uncached computation it replaces.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import module_gens_uncached, smith_normal_form_full_rescan
from realspectra import localcoh
from realspectra.abelian import smith_normal_form, to_matrix, zeros
from realspectra.coefficients import (_first_index_above, _weight_tuples_in,
                                      weight_tuples)
from realspectra.grading import RHO, SIGMA


def _matrices(entries):
    return st.integers(0, 6).flatmap(lambda m: st.integers(0, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(entries, min_size=n, max_size=n),
                     min_size=m, max_size=m),
            st.just(n))))


# a diagonal with coprime or non-dividing entries needs the chain fixed
_DIAGONAL = st.lists(st.sampled_from([0, 1, 2, 3, 4, 6, 9]),
                     min_size=1, max_size=6).map(
    lambda ds: ([[ds[i] if i == j else 0 for j in range(len(ds))]
                 for i in range(len(ds))], len(ds)))


# even entries: pivots of 2 and 4 repeat, so the chain scan is skipped
_EVEN = st.sampled_from([-8, -4, -2, 0, 0, 0, 2, 4, 6, 12])


@settings(max_examples=400, deadline=None)
@given(st.one_of(_matrices(st.integers(-6, 6)), _matrices(_EVEN),
                 _DIAGONAL))
@example(([[2, 0], [0, 3]], 2))
@example(([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], 3))
@example(([], 0))
@example(([], 4))
@example(([[], [], []], 0))
def test_smith_form_matches_full_rescan(shaped):
    rows, cols = shaped
    a = to_matrix(rows, width=cols)
    f = smith_normal_form(a)
    want = smith_normal_form_full_rescan(a.rows, cols)
    got = (f.D.rows, f.S.rows, f.T.rows, f.S_inv.rows, f.T_inv.rows)
    assert got == want
    diagonal = (want[0][i][i] for i in range(min(len(rows), cols)))
    assert f.diagonal() == [x for x in diagonal if x]
    assert f.rank == len(f.diagonal())


def test_diagonal_is_a_fresh_list_each_call():
    f = smith_normal_form([[2, 0], [0, 3]])
    f.diagonal().append(5)
    assert f.diagonal() == [1, 6] and f.rank == 2
    assert smith_normal_form(zeros(2, 3)).diagonal() == []


def _modules():
    extra = (localcoh.ideal_z(3), localcoh.ideal_f2(0, 3),
             localcoh.dual_pbar(1), localcoh.dual_pbar(2),
             localcoh.p_module(shift=3 * RHO), localcoh.dual_p(-4 * RHO),
             localcoh.tower_f2(SIGMA * 2))
    mods = [m for row in localcoh.CATALOGUE.values() for m in row]
    return list(dict.fromkeys(mods + list(extra)))


@pytest.mark.parametrize("mod", _modules(), ids=lambda m: m.describe())
def test_module_gens_matches_uncached_listing(mod):
    for n in range(4):
        for k in range(-8, 9):
            for off in (-2, 0, 1):
                alpha = mod.shift + RHO * k + SIGMA * off
                want = module_gens_uncached(mod, n, alpha)
                assert localcoh.module_gens(mod, n, alpha) == want, \
                    (mod.describe(), n, alpha)
                assert localcoh.module_ranks(mod, n, alpha) == \
                    ((0, len(want)) if mod.torsion else (len(want), 0))


def test_module_gens_returns_a_private_copy():
    mod, alpha = localcoh.ideal_z(1), 6 * RHO
    first = localcoh.module_gens(mod, 2, alpha)
    assert isinstance(first, list) and first
    want = list(first)
    first.append(((9,), 1))
    first[0] = ((), 7)
    assert localcoh.module_gens(mod, 2, alpha) == want
    assert localcoh.module_ranks(mod, 2, alpha) == (len(want), 0)


@pytest.mark.parametrize("w", range(0, 25))
def test_ranged_listing_matches_predicate(w):
    for lo in range(1, 5):
        for hi in (None, 0, 1, 2, 3, 5):
            want = weight_tuples(
                w, lambda i: lo <= i and (hi is None or i <= hi))
            assert _weight_tuples_in(w, lo, hi) == tuple(want)
    for k in range(0, 70):
        want = weight_tuples(w, lambda i: k < 2 ** (i + 1) - 1)
        assert _weight_tuples_in(w, _first_index_above(k), None) == \
            tuple(want)

