"""Basic/negative blocks, ring assembly, diagonal cells, a-local cohomology."""

import doctest

import pytest
from hypothesis import given, settings, strategies as st

from realspectra import blocks
from realspectra.blocks import (
    AssembledClass, TowerClass, UnclassifiedModule, _validate_cell,
    action_matrix, assemble, assemble_groups, bb_basis, diagonal_decompose,
    lc_of_block, nb_basis, ref_degree,
)
from realspectra.cli import MAX_COORD, MAX_N
from realspectra.coefficients import (BasisEntry, Monomial,
                                      StabilizationFailure, UnknownExtension,
                                      group_in_degree, rank_summary,
                                      tower_group)
from realspectra.grading import RHO, Degree, Window
from realspectra.hfpss import (e_infinity_groups, geometric_cofibre_groups,
                               tate_groups)
from realspectra.localcoh import (dual_p, dual_pbar, ideal_z, p_module, pbar)

from oracles import (bb_classes, borel_classes, cell_listing_reference,
                     completion_comparison, gamma_a, truncation)

ONE = Degree(1, 0)


def test_doctests():
    result = doctest.testmod(blocks)
    assert result.failed == 0 and result.attempted > 0


# ---------------------------------------------------------------------------
# block bases

def test_bb_basis_examples():
    assert [e.describe() for e in bb_basis(1, Degree(2, -2))] == ["2*u"]
    assert [e.describe() for e in bb_basis(1, Degree(0, 0))] == ["1"]
    assert [e.describe() for e in bb_basis(1, Degree(1, 1))] == ["v1"]
    assert [e.describe() for e in bb_basis(1, Degree(0, -5))] == ["a^5"]
    # u^2 left the window for n=1: it is U times the unit
    assert bb_basis(1, Degree(4, -4)) == []
    assert [e.describe() for e in bb_basis(2, Degree(4, -4))] == ["2*u^2"]
    # the doubled class 2u and the odd twisted class u^2 v1 of n=2
    assert [e.describe() for e in bb_basis(2, Degree(2, -2))] == ["2*u"]
    assert [e.describe() for e in bb_basis(2, Degree(5, -3))] == ["u^2 v1"]
    [entry] = bb_basis(2, Degree(5, -3))
    assert entry.lattice == 1 and not entry.torsion


def test_bb_vs_spectral_sequence():
    # the S^1-fixed-point ring of the Borel theory is BB[U, U^-1]: block
    # translates must reproduce the final page of the descent spectral
    # sequence in every degree
    for n in (1, 2):
        for alpha in Window.square(12):
            cls = borel_classes(n, alpha)
            free = sum(1 for c in cls if not c.entry.torsion)
            assert (free, len(cls) - free) == e_infinity_groups(n, alpha), \
                (n, alpha)


def test_bb_n1_splits_as_br_plus_doubled_u():
    # the n=1 basic block is the connective real K-theory pattern in
    # column one plus a doubled copy of Z[vbar_1] on u
    want = {
        0: [(0, "P")], 1: [(0, "Pbar0(-s)")], 2: [(0, "Pbar0(-2s)")],
        3: [(0, "Pbar1(-3s)")], 4: [(0, "Pbar1(-4s)"), (1, "(2)P(2-2s)")],
    }
    for d in range(0, 13):
        got = [(c.column, c.module.describe())
               for c in diagonal_decompose(1, d)]
        assert got == want.get(d, [(0, f"Pbar1(-{d}s)")]), d


def test_nb_basis_examples():
    assert [e.describe() for e in nb_basis(1, Degree(0, 0))] == ["2*1"]
    entries = nb_basis(1, Degree(-1, 3))
    assert [e.describe() for e in entries] == ["t3"]
    assert isinstance(entries[0], TowerClass)
    assert entries[0].degree() == Degree(-1, 3)
    assert nb_basis(1, Degree(0, -1)) == []          # a dropped
    assert nb_basis(2, Degree(0, -1)) == []
    assert [e.describe() for e in nb_basis(1, Degree(1, 1))] == ["v1"]
    assert rank_summary(nb_basis(1, Degree(0, 0))) == (1, 0)
    # the tower starts at sigma
    assert rank_summary(nb_basis(1, Degree(-1, 0))) == (0, 0)


# ---------------------------------------------------------------------------
# assembled coefficient ring

def test_assemble_spot_values():
    assert assemble_groups(1, Degree(2, -2)) == (1, 0)
    assert assemble_groups(1, Degree(-4, 4)) == (1, 0)   # doubled unit on U^-1
    assert assemble_groups(1, Degree(-5, 5)) == (0, 1)   # tower class
    assert assemble_groups(1, Degree(-4, -3)) == (0, 0)  # Borel tower pruned
    assert [c.describe() for c in assemble(1, Degree(-4, 4))] == ["U^-1 2*1"]
    assert [c.describe() for c in assemble(1, Degree(-5, 5))] == ["U^-1 t1"]
    assert [c.describe() for c in assemble(1, Degree(4, -4))] == ["U^1 1"]


def test_assemble_groups_counts_the_assembled_classes():
    # the block ranks summed per translate, against the classes listed
    for n in range(5):
        for alpha in Window.square(16):
            assert assemble_groups(n, alpha) == \
                rank_summary(c.entry for c in assemble(n, alpha)), (n, alpha)


# degrees of [-16, 16]^2 whose truncation tower raises, by n: the towers
# give up on these (an unresolved extension, a tail that does not settle)
_TRUNCATION_HOLES = {1: {"UnknownExtension": 180, "StabilizationFailure": 29},
                     2: {"UnknownExtension": 28, "StabilizationFailure": 9},
                     3: {"UnknownExtension": 1, "StabilizationFailure": 0}}


@pytest.mark.parametrize("n", sorted(_TRUNCATION_HOLES))
def test_truncation_towers_agree_with_the_descent_route(n):
    # two independent routes to pi BPR<n>: the iterated-cofibre tower and
    # the assembled blocks; every degree the tower answers agrees
    ideal = truncation(n)
    holes = {"UnknownExtension": 0, "StabilizationFailure": 0}
    for alpha in Window.square(16):
        try:
            got = tower_group(ideal, alpha).summarize()
        except (UnknownExtension, StabilizationFailure) as exc:
            holes[type(exc).__name__] += 1
            continue
        assert got == assemble_groups(n, alpha), alpha
    assert holes == _TRUNCATION_HOLES[n]


def test_assemble_rho_minus_one_vanishes():
    for n in (1, 2):
        for k in range(-8, 9):
            assert assemble_groups(n, RHO * k - ONE) == (0, 0), (n, k)


def test_assemble_matches_quotient_in_agreement_range():
    # the finite-cell comparison is an isomorphism on k rho - c for
    # 0 <= c <= 2^(n+2)
    for n in (1, 2):
        ideal = truncation(n)
        for c in range(0, 2 ** (n + 2) + 1):
            for k in range(-6, 7):
                alpha = RHO * k - Degree(c, 0)
                assert assemble_groups(n, alpha) == \
                    group_in_degree(alpha, ideal), (n, c, k)


def test_completion_kernel_and_cokernel_match_cofibre():
    # completion map bookkeeping: the kernel is the dual tower, the
    # cokernel the doubled units and missed a-towers, and together they
    # fill the geometric cofibre degreewise
    for n in (1, 2):
        for alpha in Window.square(10):
            coker, _ = completion_comparison(n, alpha)
            _, ker = completion_comparison(n, alpha - ONE)
            assert coker + ker == geometric_cofibre_groups(n, alpha), \
                (n, alpha)


def test_completion_spot_values():
    assert completion_comparison(1, Degree(-4, 4)) == (1, 0)
    assert completion_comparison(1, Degree(-5, 5)) == (0, 1)
    assert completion_comparison(1, Degree(0, 0)) == (0, 0)


def test_tate_pattern():
    # the Tate construction inverts a: one F_2 per multiple of 2^(n+1)
    # on the trivial axis, in every sign degree
    for n in (1, 2):
        for t in range(-10, 11):
            for s in (-3, 0, 5):
                want = 1 if t % 2 ** (n + 1) == 0 else 0
                assert tate_groups(n, Degree(t, s)) == want


# ---------------------------------------------------------------------------
# action closure

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.integers(-8, 8), st.integers(-8, 8))
def test_block_action_closure(n, t, s):
    # products with a and each vbar_i stay inside the block span; the
    # matrix builder raises if a product escapes
    alpha = Degree(t, s)
    src = bb_basis(n, alpha)
    for x in [Monomial(1, 0, ())] + \
             [Monomial(0, 0, (0,) * (i - 1) + (1,)) for i in range(1, n + 1)]:
        mat = action_matrix(n, x, bb_classes(n, alpha),
                            bb_classes(n, alpha + x.degree()))
        assert mat.shape[1] == len(src)


def test_mult_matrix_values():
    # 2u * v1 = 1 * (2 u v1) for n = 2: lattice 2 source to lattice 2
    # target, so the matrix entry on the u v1 row is 1
    v1 = Monomial(0, 0, (1,))
    tgt = bb_basis(2, Degree(2, -2) + v1.degree())
    mat = action_matrix(2, v1, bb_classes(2, Degree(2, -2)),
                        bb_classes(2, Degree(2, -2) + v1.degree()))
    [row] = [r for r, e in enumerate(tgt) if e.mono.l == 1]
    assert mat[row, 0] == 1 and sum(map(sum, mat.rows)) == 1
    # a * doubled unit dies (2a = 0)
    a = Monomial(1, 0, ())
    mat = action_matrix(1, a, bb_classes(1, Degree(2, -2)),
                        bb_classes(1, Degree(2, -2) + a.degree()))
    assert 0 in mat.shape or not mat.any()


def test_action_matrix_reads_the_tower_product_rule():
    # hand-built classes: an F_2 class onto a free one is zero, and a
    # lattice-1 class cannot land on a lattice-2 class
    v1, a = Monomial(0, 0, (1,)), Monomial(1, 0)
    f2 = [AssembledClass(0, BasisEntry(a, 1, True))]
    free = [AssembledClass(0, BasisEntry(a.times(v1), 1, False))]
    assert not action_matrix(1, v1, f2, free).any()
    src = [AssembledClass(0, BasisEntry(Monomial(0, 0), 1, False))]
    tgt = [AssembledClass(0, BasisEntry(v1, 2, False))]
    with pytest.raises(AssertionError, match=r"lattice mismatch 1 -> 2\*v1"):
        action_matrix(1, v1, src, tgt)


# ---------------------------------------------------------------------------
# diagonal decomposition

def test_diagonal_tables():
    for n, d, want in [
        (1, -1, []),
        (2, 0, [(0, "P")]),
        (2, 4, [(0, "Pbar1(-4s)"), (1, "(2)P(2-2s)")]),
        (2, 8, [(0, "Pbar2(-8s)"), (2, "(2,v1)P(4-4s)")]),
        (2, 9, [(0, "Pbar2(-9s)"), (2, "(v1)Pbar0(4-5s)")]),
        (2, 10, [(0, "Pbar2(-10s)"), (2, "(v1)Pbar0(4-6s)")]),
        (2, 11, [(0, "Pbar2(-11s)")]),
        (2, 12, [(0, "Pbar2(-12s)"), (3, "(2)P(6-6s)")]),
        (2, 13, [(0, "Pbar2(-13s)")]),
    ]:
        got = [(c.column, c.module.describe())
               for c in diagonal_decompose(n, d)]
        assert got == want, (n, d)


def test_diagonal_cells_record_position():
    [cell] = diagonal_decompose(2, 0)
    assert (cell.d, cell.column) == (0, 0)
    assert ref_degree(3, 12) == Degree(6, -6)


def test_nb_diagonal_transform():
    # column one keeps its shape, column zero swaps in the ideals, and
    # each diagonal d <= -2 gains the tower cell
    got = [(c.column, c.module.describe()) for c in diagonal_decompose(1, 0, "nb")]
    assert got == [(0, "(2,v1)P")]
    got = [(c.column, c.module.describe()) for c in diagonal_decompose(1, 1, "nb")]
    assert got == [(0, "(v1)Pbar0(-s)")]
    got = [(c.column, c.module.describe()) for c in diagonal_decompose(1, 3, "nb")]
    assert got == []                       # Pbar1 cell dies in the kernel
    got = [(c.column, c.module.describe()) for c in diagonal_decompose(1, 4, "nb")]
    assert got == [(1, "(2)P(2-2s)")]
    got = [(c.column, c.module.describe())
           for c in diagonal_decompose(1, -3, "nb")]
    assert got == [(-1, "Pbar1(-1+2s)")]


def test_cell_index_matches_the_filtered_basis(monkeypatch):
    # every cell that diagonal_decompose validates, at every weight it
    # probes, against the listing filtered out of the whole block basis
    validated = []
    validate = blocks._validate_cell

    def recorded(*args):
        validated.append(args)
        validate(*args)

    monkeypatch.setattr(blocks, "_validate_cell", recorded)
    for n in (1, 2, 3):
        for kind in ("bb", "nb"):
            for d in range(-6, 3 * 2 ** (n + 1) + 3):
                diagonal_decompose.__wrapped__(n, d, kind)
    assert {(n, kind) for n, _d, _l, kind, _m, _p in validated} == \
        {(n, kind) for n in (1, 2, 3) for kind in ("bb", "nb")}
    for n, d, l, kind, _module, probe in validated:
        for w in range(probe + 1):
            at = ref_degree(l, d) + RHO * w
            index = blocks._cell_index(n, kind, at)
            assert list(index.get((l, d - 4 * l), ())) == \
                cell_listing_reference(n, kind, l, d - 4 * l, at), \
                (n, kind, l, d, w)


def test_unclassified_module_raises():
    with pytest.raises(UnclassifiedModule) as err:
        _validate_cell(1, 0, 0, "bb", pbar(0), 4)
    assert str(err.value) == ("diagonal 0 column u^0 (bb): generators "
                              "[((), 1, False)] at weight 0 do not match Pbar0")
    with pytest.raises(UnclassifiedModule) as err:
        _validate_cell(1, 0, 0, "nb", p_module(), 4)
    assert str(err.value) == ("diagonal 0 column u^0 (nb): generators "
                              "[((), 2, False)] at weight 0 do not match P")


def test_diagonal_decompose_rejects_unknown_kind():
    with pytest.raises(ValueError):
        diagonal_decompose(1, 0, "borel")


@pytest.mark.parametrize("kind", ("bb", "nb"))
@pytest.mark.parametrize("n", range(MAX_N + 1))
def test_every_diagonal_lc_reads_is_classified(n, kind):
    # the widest table the lc command accepts: every cell on every diagonal
    # it reads fits a catalogue module, so none raises UnclassifiedModule
    table = lc_of_block(n, kind, d_lo=-MAX_COORD, d_hi=MAX_COORD)
    assert table and set(table) <= set(range(-MAX_COORD, MAX_COORD + 1))


# ---------------------------------------------------------------------------
# local cohomology tables of the blocks

def test_lc_table_bb_n1():
    table = lc_of_block(1, "bb", d_lo=-1, d_hi=8)
    assert table[-1] == [(1, 0, dual_p(Degree(-2, -1)))]
    assert table[0] == [(1, 0, dual_pbar(0, Degree(-2, -2)))]
    assert table[1] == [(1, 0, dual_pbar(0, Degree(-2, -3)))]
    assert 2 not in table
    assert table[3] == [(0, 0, pbar(1, Degree(0, -3))),
                        (1, 1, dual_p(Degree(0, -3)))]
    for d in range(4, 9):
        assert table[d] == [(0, 0, pbar(1, Degree(0, -d)))], d


def test_lc_table_bb_n2():
    table = lc_of_block(2, "bb", d_lo=-2, d_hi=13)
    assert table[-2] == [(2, 0, dual_p(Degree(-6, -4)))]
    assert table[-1] == [(2, 0, dual_pbar(0, Degree(-6, -5)))]
    assert table[0] == [(2, 0, dual_pbar(0, Degree(-6, -6)))]
    assert 1 not in table
    assert table[2] == [(1, 0, dual_pbar(1, Degree(-4, -6))),
                        (2, 1, dual_p(Degree(-4, -6)))]
    for d in range(3, 6):
        assert table[d] == [(1, 0, dual_pbar(1, Degree(-4, -4 - d)))], d
    assert table[6] == [(2, 2, dual_p(Degree(-2, -8))),
                        (2, 2, dual_pbar(1, Degree(-1, -7)))]
    assert table[7] == [(0, 0, pbar(2, Degree(0, -7))),
                        (2, 2, dual_pbar(0, Degree(-1, -8)))]
    assert table[8] == [(0, 0, pbar(2, Degree(0, -8))),
                        (2, 2, dual_pbar(0, Degree(-1, -9)))]
    assert table[9] == [(0, 0, pbar(2, Degree(0, -9)))]
    assert table[10] == [(0, 0, pbar(2, Degree(0, -10))),
                         (2, 3, dual_p(Degree(0, -10)))]
    assert table[11] == [(0, 0, pbar(2, Degree(0, -11)))]
    assert table[13] == [(0, 0, pbar(2, Degree(0, -13)))]


def test_lc_table_nb_n1():
    table = lc_of_block(1, "nb", d_lo=-4, d_hi=3)
    # towers are their own H^0, one per diagonal below -1
    for d in (-4, -3, -2):
        assert table[d] == [(0, -1, pbar(1, Degree(-1, -1 - d)))], d
    # the unit column: Z[vbar]^dual over 2*unit^dual plus its F_2
    assert table[-1] == [(1, 0, dual_p(Degree(-2, -1))),
                         (1, 0, dual_pbar(1, Degree(-1, 0)))]
    assert table[0] == [(1, 0, dual_pbar(0, Degree(-1, -1)))]
    assert table[1] == [(1, 0, dual_pbar(0, Degree(-1, -2)))]
    assert 2 not in table
    assert table[3] == [(1, 1, dual_p(Degree(0, -3)))]


# ---------------------------------------------------------------------------
# a-local cohomology of the basic block

def test_gamma_a_certifies_negative_block():
    h0, h1 = gamma_a(1, Window.square(6))
    assert h0[Degree(0, 0)] == (1, 0)       # 2 * unit
    assert h0[Degree(0, -3)] == (0, 0)      # a^3 is not a-power torsion
    assert h0[Degree(1, 1)] == (1, 0)       # all of Z*vbar_1 dies under a^3
    assert h1[Degree(0, 4)] == (0, 1)       # tower feeding (-1, 3)
    assert h1[Degree(1, 0)] == (0, 0)
    gamma_a(2, Window.square(5))


def test_gamma_a_matches_nb_off_axis():
    h0, h1 = gamma_a(2, Window(-3, 3, -6, 6))
    for alpha in Window(-3, 3, -6, 6):
        a0, b0 = h0[alpha]
        a1, b1 = h1[alpha + ONE]
        assert rank_summary(nb_basis(2, alpha)) == (a0 + a1, b0 + b1)
