"""Degree arithmetic, diagonals, generator degrees, windows."""

import doctest

import pytest
from hypothesis import given, strategies as st

from realspectra import grading
from realspectra.coefficients import Monomial
from realspectra.grading import (
    DELTA, ONE, RHO, SIGMA, ZERO, Degree, Window, total_vbar_degree,
)

from oracles import twisted_vbar

small_ints = st.integers(min_value=-50, max_value=50)
degrees = st.builds(Degree, small_ints, small_ints)


def test_doctests():
    result = doctest.testmod(grading)
    assert result.failed == 0 and result.attempted > 0


def test_basic_constants():
    assert RHO == Degree(1, 1)
    assert SIGMA == Degree(0, 1)
    assert DELTA == Degree(1, -1)
    assert RHO + RHO == Degree(2, 2)
    assert DELTA + SIGMA == ONE == Degree(1, 0)


def test_tmf13_duality_shift_assembles():
    # 4*rho + 2 + 2*delta = 8 + 2*sigma, the height-2 duality suspension
    assert 4 * RHO + Degree(2, 0) + 2 * DELTA == Degree(8, 2)


@given(degrees, degrees)
def test_addition_matches_components(x, y):
    assert (x + y).triv == x.triv + y.triv
    assert (x + y).sgn == x.sgn + y.sgn
    assert x + y == y + x
    assert (x - y) + y == x
    assert x + (-x) == ZERO


@given(degrees, degrees, small_ints)
def test_arithmetic_builds_exact_degrees(x, y, k):
    # the results skip the constructor: each must still be a Degree, not a
    # bare tuple or another subclass, equal in value and repr to one built
    # through it
    for got, want in ((x + y, Degree(x.triv + y.triv, x.sgn + y.sgn)),
                      (x - y, Degree(x.triv - y.triv, x.sgn - y.sgn)),
                      (-x, Degree(-x.triv, -x.sgn)),
                      (x * k, Degree(x.triv * k, x.sgn * k)),
                      (k * x, Degree(x.triv * k, x.sgn * k))):
        assert type(got) is Degree
        assert got == want and repr(got) == repr(want)
        assert hash(got) == hash(want)


def test_arithmetic_with_a_plain_pair_raises():
    # a pair has no triv or sgn: no silent tuple arithmetic
    with pytest.raises(AttributeError):
        Degree(1, 1) + (1, 1)
    with pytest.raises(AttributeError):
        Degree(1, 1) - (1, 1)


@pytest.mark.parametrize("factor", [1.5, 2.0, True, False, Degree(1, 1),
                                    (1, 1), "2", None],
                         ids=repr)
def test_multiplying_by_anything_but_an_int_raises(factor):
    # no float coordinates, no nested degree, no tuple repetition; a bool
    # is refused like a float, as `json_int` refuses it
    with pytest.raises(TypeError, match="a degree multiplies by an int"):
        RHO * factor
    with pytest.raises(TypeError):
        factor * RHO


# the diagonal decomposition alpha = d + k rho, d = triv - sgn and k = sgn,
# which every display diagonal of the package reads

@given(degrees)
def test_diagonal_roundtrip(x):
    d, k = x.triv - x.sgn, x.sgn
    assert Degree(d, 0) + k * RHO == x
    assert (x - k * RHO).sgn == 0 and (x - d * ONE) == k * RHO


def test_diagonal_examples():
    assert Degree(0, -1) == 1 * ONE - 1 * RHO    # |a| = 1 - rho
    assert Degree(2, -2) == 4 * ONE - 2 * RHO    # 2u lives on the 4-diagonal
    assert Degree(0, 0) == 0 * ONE + 0 * RHO


def test_diagonal_roundtrip_exhaustive_window():
    for alpha in Window.square(12):
        d, k = alpha.triv - alpha.sgn, alpha.sgn
        assert Degree(d + k, k) == d * ONE + k * RHO == alpha


def test_degrees_of_the_generators():
    assert Monomial(1, 0).degree() == Degree(0, -1)                # a
    assert Monomial(0, 1).degree() == 2 * DELTA == Degree(2, -2)   # u
    assert Monomial(0, 2).degree() == 4 * DELTA     # U = u^(2^n), n = 1
    assert Monomial(0, 4).degree() == 8 * DELTA     # U at n = 2
    # vbar_1 twisted by -1: -8 + 5*rho = (-3, 5)
    assert twisted_vbar(1, -1).degree() == Degree(-3, 5)
    assert twisted_vbar(2).degree() == 3 * RHO == Degree(3, 3)
    assert Monomial(0, 0).degree() == ZERO                         # u^0


def test_untwisted_vbar_degree_is_on_the_zero_diagonal():
    for m in range(0, 9):
        assert twisted_vbar(m).degree() == (2 ** m - 1) * RHO


def test_twisted_vbar_is_u_power_times_vbar():
    for m in range(0, 5):
        for j in range(-4, 5):
            expected = (Monomial(0, 2 ** m * j).degree()
                        + twisted_vbar(m).degree())
            assert twisted_vbar(m, j).degree() == expected


def test_total_vbar_degree_two_forms():
    # D_n * rho with D_n = 2^(n+1) - n - 2; both closed forms of the duality
    # shift must agree as degrees.
    for n in range(0, 9):
        dn_rho = total_vbar_degree(n)
        dn = 2 ** (n + 1) - n - 2
        assert dn_rho == dn * RHO
        # the sum of the generator degrees, as Monomial.degree() grades them
        assert sum((twisted_vbar(i).degree() for i in range(1, n + 1)),
                   ZERO) == dn_rho
        lhs = dn_rho + Degree(n, 0) + 2 * DELTA
        rhs = Degree(dn + n + 2, dn - 2)
        assert lhs == rhs


def test_degree_json_roundtrip():
    for alpha in Window.square(5):
        assert Degree.from_json(alpha.to_json()) == alpha
    assert Degree(3, -2).to_json() == [3, -2]
    with pytest.raises(ValueError):
        Degree.from_json([1, 2, 3])
    # int() would read each of these as some degree
    for pair in ([0.9, -7], [1, 2.0], [-4, True], ["1", 2], "12"):
        with pytest.raises(TypeError):
            Degree.from_json(pair)


def test_window_str_reads_back_through_the_cli_parser():
    from realspectra.cli import _parse_window
    w = Window(-2, 3, 0, 1)
    assert str(w) == "-2:3,0:1"
    assert _parse_window(str(w)) == w
    with pytest.raises(ValueError):
        Window(1, 0, 0, 0)


def test_window_membership_and_iteration():
    w = Window(-1, 1, 2, 3)
    degs = list(w)
    assert len(degs) == len(w) == 6
    assert all(d in w for d in degs)
    assert Degree(0, 0) not in w
    assert len(set(degs)) == 6
