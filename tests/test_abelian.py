"""Smith normal form, presented groups, subquotients, induced maps."""

import doctest

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from realspectra import abelian
from realspectra.abelian import (
    CochainComplex, PresGroup, cokernel_of_map, f2_relations, hstack,
    identity, image_basis, induced_map, kernel_basis, map_is_surjective, mat_mul, smith_normal_form, solve_matrix, to_matrix,
    zeros,
)


def _is_unimodular(m) -> bool:
    return abs(round(np.linalg.det(np.array(m.rows, dtype=float)))) == 1


def test_doctests():
    result = doctest.testmod(abelian)
    assert result.failed == 0 and result.attempted > 0


def test_smith_known_matrix():
    # invariant factors from minor gcds: d1 = gcd of entries = 2,
    # d1*d2 = gcd of 2x2 minors = 4, d1*d2*d3 = |det| = 624
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    f = smith_normal_form(a)
    assert f.diagonal == (2, 2, 156)
    am = to_matrix(a)
    assert mat_mul(mat_mul(f.S, am), f.T) == f.D
    assert mat_mul(f.S, f.S_inv) == identity(3)
    assert _is_unimodular(f.T)


def test_smith_zero_and_empty():
    assert smith_normal_form(zeros(3, 2)).diagonal == ()
    assert smith_normal_form(zeros(0, 4)).rank == 0
    assert smith_normal_form(zeros(4, 0)).rank == 0


def test_divisibility_chain_needs_work():
    # diag(2, 3) is not in normal form; invariant factors are 1, 6
    f = smith_normal_form([[2, 0], [0, 3]])
    assert f.diagonal == (1, 6)


def test_kernel_is_saturated():
    k = kernel_basis([[2, 4]])
    assert k.shape == (2, 1)
    x, y = int(k[0, 0]), int(k[1, 0])
    assert 2 * x + 4 * y == 0
    # primitive vector (2, -1), not (4, -2)
    assert abs(x) == 2 and abs(y) == 1


def test_image_basis_spans_image():
    a = to_matrix([[2, 4], [0, 0]])
    im = image_basis(a)
    assert im.shape == (2, 1)
    assert abs(int(im[0, 0])) == 2 and int(im[1, 0]) == 0


def test_solve():
    x = solve_matrix([[2, 0], [0, 3]], [[4], [9]])
    assert [int(v) for v in x[:, 0]] == [2, 3]
    assert solve_matrix([[2]], [[3]]) is None
    assert solve_matrix([[1, 1]], [[5]]) is not None
    assert solve_matrix([[2], [3]], [[2], [2]]) is None


def test_presgroup_summaries():
    assert PresGroup(2, [[2, 0], [0, 0]]).summarize() == (1, 1)
    assert PresGroup(1).summarize() == (1, 0)
    assert PresGroup(1, [[6]]).summarize() == (0, 1)   # Z/6 is Z/2 2-locally
    assert PresGroup(1, [[3]]).summarize() == (0, 0)   # odd torsion is invisible
    assert PresGroup(1, [[3]]).is_trivial()
    with pytest.raises(ArithmeticError):
        PresGroup(1, [[4]]).summarize()
    assert PresGroup(5, f2_relations([False] * 2 + [True] * 3)).summarize() \
        == (2, 3)


def test_homology_of_two_step_complex():
    # Z --2--> Z --0--> Z has middle homology Z/2
    none = zeros(1, 0)
    h = CochainComplex([[[2]], [[0]]], [none, none, none]).homology(1)
    assert h.group.summarize() == (0, 1)

    # Z --1--> Z --0--> Z is exact in the middle
    h = CochainComplex([[[1]], [[0]]], [none, none, none]).homology(1)
    assert h.group.is_trivial()


def test_homology_with_torsion_groups():
    # F2 --1--> F2 --0--> 0 : middle homology vanishes
    two = to_matrix([[2]])
    h = CochainComplex([[[1]], zeros(0, 1)],
                       [two, two, zeros(0, 0)]).homology(1)
    assert h.group.is_trivial()
    # 0 --> F2 --0--> 0 : middle homology is the F2
    h = CochainComplex([zeros(1, 0), zeros(0, 1)],
                       [zeros(0, 0), two, zeros(0, 0)]).homology(1)
    assert h.group.summarize() == (0, 1)


def test_complex_condition_is_enforced():
    none = zeros(1, 0)
    with pytest.raises(ValueError):
        # g o f = 1 != 0
        CochainComplex([[[1]], [[1]]], [none, none, none]).homology(1)


def test_kernel_and_cokernel_of_map():
    # multiplication by 2 on Z/4 reported as a plain presented group
    k = CochainComplex([[[2]]], [[[4]], [[4]]]).homology(0)
    # kernel is 2Z/4Z, one generator of order 2
    assert k.group.invariant_factors == [2]
    c = cokernel_of_map([[2]], [[4]])
    assert c.invariant_factors == [2]

    # kernel of Z^2 --(x+y)--> Z
    k = CochainComplex([[[1, 1]]], [zeros(2, 0), zeros(1, 0)]).homology(0)
    assert k.group.summarize() == (1, 0)
    assert k.cycles.shape == (2, 1)


def test_induced_map_and_surjectivity():
    none = zeros(1, 0)
    # H(Z --2--> Z --> 0) = Z/2 at the middle; identity chain map induces iso
    h1 = CochainComplex([[[2]], zeros(0, 1)],
                        [none, none, zeros(0, 0)]).homology(1)
    h2 = CochainComplex([[[2]], zeros(0, 1)],
                        [none, none, zeros(0, 0)]).homology(1)
    m = induced_map(h1, h2, identity(1))
    assert map_is_surjective(m, h2.group)
    # doubling chain map induces the zero (hence non-surjective) map
    m0 = induced_map(h1, h2, [[2]])
    assert not map_is_surjective(m0, h2.group)


def test_map_respecting_relations_is_required():
    with pytest.raises(ValueError):
        # Z/2 -> Z along the identity is not well defined
        CochainComplex([[[1]]], [[[2]], zeros(1, 0)]).homology(0)


small = st.integers(min_value=-9, max_value=9)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_smith_properties_random(m, n, data):
    a = to_matrix([[data.draw(small) for _ in range(n)] for _ in range(m)])
    f = smith_normal_form(a)
    assert mat_mul(mat_mul(f.S, a), f.T) == f.D
    assert mat_mul(f.S, f.S_inv) == identity(m)
    assert mat_mul(f.S_inv, f.S) == identity(m)
    assert _is_unimodular(f.T)
    d = f.diagonal
    assert all(x > 0 for x in d)
    for i in range(len(d) - 1):
        assert d[i + 1] % d[i] == 0
    k = kernel_basis(a)
    assert k.shape == (n, n - f.rank)
    prod = mat_mul(a, k)
    assert prod == zeros(*prod.shape)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_smith_invariant_factors_match_sympy(m, n, data):
    """An independent Smith form (sympy's) finds the same invariant factors."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    rows = [[data.draw(small) for _ in range(n)] for _ in range(m)]
    theirs = invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
    assert smith_normal_form(rows).diagonal == \
        tuple(sorted(abs(int(x)) for x in theirs if x != 0))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_solve_finds_exact_solutions(m, n, data):
    a = to_matrix([[data.draw(small) for _ in range(n)] for _ in range(m)])
    x = to_matrix([[data.draw(small)] for _ in range(n)])
    b = mat_mul(a, x)
    sol = solve_matrix(a, b)
    assert sol is not None
    assert mat_mul(a, sol) == b


def test_matrix_equality_is_one_bool():
    # an entrywise matrix of bools is always truthy, so `assert a == b`
    # could never fail
    assert not (zeros(1, 1) == identity(1))
    assert (zeros(1, 1) == identity(1)) is False
    assert to_matrix([[1, 2]]) == to_matrix([[1, 2]])
    # shapes count, empty ones included
    assert zeros(0, 2) != zeros(0, 3) and zeros(2, 0) != zeros(3, 0)
    assert zeros(2, 2) != zeros(2, 3) and zeros(2, 2) != [[0, 0], [0, 0]]


def test_hstack_vstack_edge_cases():
    a = zeros(2, 0)
    b = to_matrix([[1, 2], [3, 4]])
    assert hstack(a, b) == b
    assert hstack(a, a).shape[1] == 0
    with pytest.raises(ValueError):
        hstack(b, zeros(3, 1))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.data())
def test_image_basis_is_a_basis_of_the_image(m, n, data):
    # rank columns that span exactly what the columns of A span
    a = to_matrix([[data.draw(small) for _ in range(n)] for _ in range(m)],
                  width=n)
    lattice = image_basis(a)
    assert lattice.shape == (m, smith_normal_form(a).rank)
    assert solve_matrix(lattice, a) is not None
    assert solve_matrix(a, lattice) is not None
