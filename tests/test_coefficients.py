"""Coefficient ring of the Real Brown-Peterson spectrum and its quotients."""

import doctest

import pytest
from hypothesis import given, settings, strategies as st

from realspectra import coefficients
from realspectra.abelian import Matrix
from realspectra.coefficients import (
    BasisEntry, Monomial, QuotientIdeal, StabilizationFailure, TowerGroup,
    _multiply, _page_lattice, basis_in_degree, degree_monomials,
    group_in_degree, tower_group, vbar_monomial, weight_tuples,
)
from realspectra.grading import RHO, SIGMA, Degree, Window

import oracles
from oracles import (CoeffElement, element, multiply, nilpotence_check,
                     restriction_rank, truncation, twisted_vbar,
                     underlying_groups)


def test_doctests():
    result = doctest.testmod(coefficients)
    assert result.failed == 0 and result.attempted > 0


# ---------------------------------------------------------------------------
# monomials and membership

class _Int(int):
    """An int subclass, as bool is."""


class _IntLike:
    """Not an int but convertible to one, as a fixed-width integer scalar
    of an array library is."""

    def __init__(self, value: int):
        self.value = value

    def __int__(self) -> int:
        return self.value


def test_monomial_validation():
    with pytest.raises(ValueError, match="negative a-exponent"):
        Monomial(-1, 0)
    with pytest.raises(ValueError, match="negative vbar-exponent"):
        Monomial(0, 0, (1, -1))
    with pytest.raises(ValueError, match="negative vbar-exponent"):
        Monomial(2, 0, (-1, 0, 0))
    # trailing zeros are stripped, so equality and hashing are structural
    m = Monomial(1, 2, (1, 0, 0))
    assert m.c == (1,)
    assert m == Monomial(1, 2, (1,)) and hash(m) == hash(Monomial(1, 2, (1,)))
    assert Monomial(0, 3, (0, 0)) == Monomial(0, 3)
    assert Monomial(0, 0, (0, 2, 0)).c == (0, 2)
    # lists, int subclasses and objects with __int__ become a plain int tuple
    for c in ([2, 0, 1, 0], [_IntLike(2), _IntLike(0), _IntLike(1)],
              (_Int(2), _IntLike(0), 1)):
        got = Monomial(0, 0, c).c
        assert got == (2, 0, 1) and type(got) is tuple
        assert all(type(x) is int for x in got)
    assert hash(Monomial(0, 0, [_Int(1), _IntLike(0)])) \
        == hash(Monomial(0, 0, (1,)))


def test_monomial_degree_and_zero():
    assert Monomial(1, 0).degree() == Degree(0, -1)
    assert Monomial(0, 1).degree() == Degree(2, -2)
    assert vbar_monomial(2).degree() == Degree(3, 3)
    assert _page_lattice(Monomial(3, 0, (1,))) == 0      # vbar_1 a^3 = 0
    assert _page_lattice(Monomial(2, 0, (1,))) == 1
    assert _page_lattice(Monomial(7, 0, (0, 1))) == 0    # vbar_2 a^7 = 0
    assert _page_lattice(Monomial(6, 0, (0, 1))) == 1
    # a page reaching only vbar_1 keeps vbar_2 a^7, not vbar_1 a^3
    assert _page_lattice(Monomial(7, 0, (0, 1)), 1) == 1
    assert _page_lattice(Monomial(3, 0, (1, 1)), 1) == 0
    assert coefficients._weight(Monomial(0, -5, (3, 1)).c) == 6


def test_exponent_tuple_memos_match_their_formulas():
    """`_weight` is memoized on the exponent tuple and `_bump` is not;
    each answers as its formula, computed here, cold or warm."""
    coefficients._weight.cache_clear()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 40), st.integers(-20, 20),
           st.lists(st.integers(0, 5), max_size=8), st.integers(1, 9),
           st.integers(-5, 5))
    def check(k, l, c, i, by):
        x = Monomial(k, l, c)
        w = 0
        for j, cj in enumerate(c):
            w += cj * (2 ** (j + 1) - 1)
        for _ in range(2):
            assert coefficients._weight(x.c) == w
            assert x.degree() == Degree(2 * l + w, -k - 2 * l + w)
            want = oracles.bumped(x.c, i, by)
            while want and want[-1] == 0:
                want.pop()
            got = coefficients._bump(x.c, i, by)
            assert type(got) is tuple and all(type(e) is int for e in got)
            assert got == tuple(want)

    check()
    with pytest.raises(TypeError):
        coefficients._bump([1], 1, 1)     # tuples only


def test_membership_examples():
    # lattice 1: the monomial is a class; 2: only its double is; 0: neither
    assert _page_lattice(Monomial(0, 1)) == 2            # u off, 2u on
    assert _page_lattice(Monomial(0, 2, (1,))) == 1      # u^2 vbar_1
    assert _page_lattice(Monomial(0, 1, (1,))) == 2      # u vbar_1
    assert _page_lattice(Monomial(0, 4, (0, 1))) == 1    # u^4 vbar_2
    assert _page_lattice(Monomial(0, 2, (0, 1))) == 2    # u^2 vbar_2
    assert _page_lattice(Monomial(0, 2, (1, 1))) == 1    # vbar_1 absorbs u^2
    assert _page_lattice(Monomial(5, 0, (0, 1))) == 1    # l = 0 always in
    assert _page_lattice(Monomial(0, -6, (1,))) == 1     # negative twists too
    assert _page_lattice(Monomial(1, 1)) == 0            # a u: 2a = 0
    assert _page_lattice(Monomial(2, 2, (0, 1))) == 0    # a^2 u^2 vbar_2
    # a page's cap: E_2 (cap 0) holds every monomial, E_4 (cap 1) u^2
    assert _page_lattice(Monomial(1, 1), 0) == 1
    assert _page_lattice(Monomial(1, 1), 1) == 0
    assert _page_lattice(Monomial(1, 2), 1) == 1
    assert _page_lattice(Monomial(0, 2, (0, 1)), 1) == 1  # 2^min(2, 1) | 2


def test_membership_equals_generation():
    """The page rule at cap None agrees with honest generator products.

    Every E_2 monomial of a degree in a small window, up to the degree's
    provable a-exponent bound, is compared against the span of all
    products of at most seven generators (a^6 vbar_2 at (3,-3) needs all
    seven): the rule's lattice 1 or 2 is a reachable monomial of least
    2-valuation 0 or 1, and its 0 an unreachable one, zero monomials
    included.  The certified basis is the same span.
    """
    best = oracles.reachable_products(max_factors=7, max_index=3, max_twist=4)
    for alpha in Window(-4, 4, -3, 3):
        span = oracles.span_in_degree(best, alpha)
        bound = coefficients._a_exponent_bound(alpha)
        ruled = {}
        for x in degree_monomials(None, alpha, 0, bound, 0):
            lattice = _page_lattice(x)
            if lattice:
                ruled[x] = lattice - 1
        assert span == ruled, f"degree {alpha}"
        assert span == {e.mono: e.lattice - 1
                        for e in basis_in_degree(alpha)}, f"degree {alpha}"


def test_basis_examples():
    assert [e.describe() for e in basis_in_degree(Degree(0, 0))] == ["1"]
    assert [e.describe() for e in basis_in_degree(Degree(0, -1))] == ["a"]
    # (2,-2): only 2u survives; a^4 u^-1 vbar_1^2 dies to vbar_1 a^3 = 0
    entries = basis_in_degree(Degree(2, -2))
    assert [e.describe() for e in entries] == ["2*u"]
    assert not entries[0].torsion and entries[0].lattice == 2


def test_basis_against_raw_enumeration():
    for alpha in Window(-6, 6, -6, 6):
        certified = basis_in_degree(alpha)
        free = sum(1 for e in certified if not e.torsion)
        tors = sum(1 for e in certified if e.torsion)
        assert (free, tors) == oracles.brute_coefficient_group(alpha)


def _basis_outcome(fn, *args):
    """("ok", basis) from fn, or ("raised", type, message)."""
    try:
        return ("ok", fn(*args))
    except StabilizationFailure as err:
        return ("raised", type(err), str(err))


def test_single_listing_matches_every_round():
    for alpha in Window(-10, 10, -10, 10):
        got = _basis_outcome(coefficients._basis_cached.__wrapped__, alpha)
        assert got[0] == "ok", (alpha, got)
        assert got == _basis_outcome(oracles.basis_cached_two_listings,
                                     alpha), alpha


def test_single_listing_fails_as_every_round(monkeypatch):
    # a bound far too low: the listing goes to filtration bound + 8 only,
    # so every degree with a class in (bound, bound + 8] must raise
    truth = {alpha: basis_in_degree(alpha)
             for alpha in Window(-10, 10, -10, 10)}
    seen = set()
    for bound in (-4, 0, 4):
        monkeypatch.setattr(coefficients, "_a_exponent_bound",
                            lambda alpha, n=None, bound=bound: bound)
        for alpha, basis in truth.items():
            got = _basis_outcome(coefficients._basis_cached.__wrapped__,
                                 alpha)
            assert got == _basis_outcome(oracles.basis_cached_two_listings,
                                         alpha), (alpha, bound)
            if any(bound < e.mono.k <= bound + 8 for e in basis):
                assert got == ("raised", StabilizationFailure,
                               f"final-page classes at {alpha} appear "
                               f"past filtration {bound}")
            else:
                assert got == ("ok", tuple(e for e in basis
                                           if e.mono.k <= bound)), alpha
            seen.add(got[0])
    assert seen == {"ok", "raised"}


def test_rho_minus_4_line():
    # pi_{k rho - 4}: free of rank p(k-2) on 2 u^-1 vbar^c, lattice 2
    for k in range(-6, 9):
        alpha = k * RHO - Degree(4, 0)
        free, tors = group_in_degree(alpha)
        assert tors == 0
        assert free == oracles.polynomial_rank([1, 3, 7, 15], k - 2)
        if free:
            for e in basis_in_degree(alpha):
                assert e.lattice == 2 and e.mono.l == -1 and e.mono.k == 0


def test_rho_minus_5_and_6_lines():
    for k in range(-6, 9):
        assert group_in_degree(k * RHO - Degree(5, 0)) == (0, 0)
        free, tors = group_in_degree(k * RHO - Degree(6, 0))
        assert free == 0
        # F2 on a^2 u^-2 vbar_1 vbar^c: one class per monomial of weight k-3
        assert tors == oracles.polynomial_rank([1, 3, 7, 15], k - 3)


def test_strong_evenness_of_ground_ring():
    for k in range(-8, 9):
        assert group_in_degree(k * RHO - Degree(1, 0)) == (0, 0)
        assert group_in_degree(k * RHO - Degree(2, 0)) == (0, 0)
        assert group_in_degree(k * RHO - Degree(3, 0)) == (0, 0)
        free, tors = group_in_degree(k * RHO)
        assert tors == 0
        assert free == oracles.polynomial_rank([1, 3, 7, 15], k)


def test_rho_plus_one_tower():
    # pi_{k rho + 1} is F2{a} tensor Z[vbar]: weight k + 1 with one a
    for k in range(0, 7):
        free, tors = group_in_degree(k * RHO + Degree(1, 0))
        assert free == 0
        assert tors == oracles.polynomial_rank([1, 3, 7], k + 1)


def test_shared_degree_of_twisted_products():
    # vbar_5 vbar_1(1) and a^8 vbar_3^3 vbar_4 both live at (36, 28)
    x = Monomial(0, 2, (1, 0, 0, 0, 1))
    y = Monomial(8, 0, (0, 0, 3, 1))
    assert x.degree() == y.degree() == Degree(36, 28)
    assert _page_lattice(y) == _page_lattice(x) == 1
    entries = basis_in_degree(Degree(36, 28))
    assert BasisEntry(x, 1, False) in entries
    assert BasisEntry(y, 1, True) in entries


# ---------------------------------------------------------------------------
# elements and multiplication

def test_multiply_spec_examples():
    # vbar_1(1) * vbar_0(3) = vbar_1 vbar_0(5) = 2 u^5 vbar_1
    assert multiply(twisted_vbar(1, 1), twisted_vbar(0, 3)) == \
        element(Monomial(0, 5, (1,)), 2)
    # a * vbar_0(1) = 0
    assert multiply(element(Monomial(1, 0)), twisted_vbar(0, 1)).is_zero()
    # vbar_1(1) * vbar_2(1) = vbar_2 * vbar_1(3)
    lhs = multiply(twisted_vbar(1, 1), twisted_vbar(2, 1))
    rhs = multiply(twisted_vbar(2, 0), twisted_vbar(1, 3))
    assert lhs == rhs == element(Monomial(0, 6, (1, 1)))


def test_presentation_relations_sampled():
    for m in range(0, 5):
        for n in range(-4, 5):
            x = multiply(element(Monomial(2 ** (m + 1) - 1, 0)),
                         twisted_vbar(m, n))
            assert x.is_zero(), (m, n)
    for i in range(0, 5):
        for m in range(0, i + 1):
            for j in range(-4, 5):
                for n in range(-4, 5):
                    lhs = multiply(twisted_vbar(i, j), twisted_vbar(m, n))
                    rhs = multiply(twisted_vbar(i, 0),
                                   twisted_vbar(m, 2 ** (i - m) * j + n))
                    assert lhs == rhs, (i, m, j, n)


def test_products_stay_in_subalgebra():
    gens = [twisted_vbar(m, n) for m in range(0, 4) for n in range(-3, 4)]
    gens.append(element(Monomial(1, 0)))
    # CoeffElement construction membership-checks every term
    for x in gens:
        for y in gens:
            multiply(x, y)


def test_nonmember_element_rejected():
    with pytest.raises(ValueError):
        element(Monomial(0, 1))  # u alone


def test_mult_map_examples():
    m = oracles.mult_map(vbar_monomial(1), QuotientIdeal(), Degree(0, 0))
    assert m == Matrix([[1]], 1)
    m = oracles.mult_map(Monomial(1, 0), QuotientIdeal(), Degree(0, 0))
    assert m == Matrix([[1]], 1)
    # vbar_1 from (2,-2): 2u -> 2u vbar_1 on the nose; the target degree
    # (3,-1) also holds the torsion class a^4 vbar_2, which is not hit
    tgt = basis_in_degree(Degree(3, -1))
    assert sorted(e.describe() for e in tgt) == ["2*u v1", "a^4 v2"]
    m = oracles.mult_map(vbar_monomial(1), QuotientIdeal(), Degree(2, -2))
    assert m.shape == (2, 1)
    hit = [i for i, [x] in enumerate(m.rows) if x]
    assert len(hit) == 1 and m.rows[hit[0]] == [1]
    assert not tgt[hit[0]].torsion


# ---------------------------------------------------------------------------
# quotients

def test_integral_cohomology_reduction():
    hz = truncation(0)
    assert group_in_degree(Degree(0, 0), hz) == (1, 0)
    for k in range(1, 7):
        assert group_in_degree(k * RHO, hz) == (0, 0)
    # the sigma-family of the positive cone: a-power classes survive
    assert group_in_degree(-SIGMA, hz) == (0, 1)


def test_single_vbar_quotient_range():
    # killing vbar_1^n: on k rho - c for 0 <= c <= 4 the kernel layer is 0
    # and the group exact; layers (-1, -1) would mean an untrusted tower
    # multiplication, an unknown extension
    for n in (1, 2, 3):
        ideal = QuotientIdeal((n,))
        for k in range(-4, 7):
            for c in range(0, 5):
                g = tower_group(ideal, k * RHO - Degree(c, 0))
                assert g.sub_summary != (-1, -1), (n, k, c)
                assert g.exact and g.quot_summary == (0, 0), (n, k, c)


def test_quotient_strong_evenness():
    ideals = [QuotientIdeal((1,)), QuotientIdeal((2,)),
              QuotientIdeal((1, 2)), truncation(1),
              truncation(2)]
    for ideal in ideals:
        for k in range(-6, 7):
            assert group_in_degree(k * RHO - Degree(1, 0), ideal) == (0, 0)
            free, tors = group_in_degree(k * RHO, ideal)
            assert tors == 0
            assert restriction_rank(ideal, k * RHO) == 1


def test_quotient_kro_basis_counts():
    # pi_{k rho}(B/vbar_1^l) = monomials of Z[vbar]/vbar_1^l in weight k
    ideal = QuotientIdeal((2,))
    for k in range(0, 8):
        free, tors = group_in_degree(k * RHO, ideal)
        full = oracles.polynomial_rank([1, 3, 7], k)
        killed = oracles.polynomial_rank([1, 3, 7], k - 2)  # vbar_1^2 multiples
        assert (free, tors) == (full - killed, 0)


def test_er1_reads_pi_ko():
    # ER(1) = BPR<1>[vbar_1^-1] is 2-local Real K-theory, whose fixed points
    # are KO_(2) (Hu-Kriz); vbar_1 steps (t + k, k) by rho, so far enough
    # out along it the 1-truncation reads pi_t KO = Z, Z/2, Z/2, 0, Z, 0, 0, 0
    ko = [(1, 0), (0, 1), (0, 1), (0, 0), (1, 0), (0, 0), (0, 0), (0, 0)]
    for t, want in enumerate(ko):
        for k in range(6, 13):
            g = tower_group(truncation(1), Degree(t + k, k))
            assert g.summarize() == want, (t, k)


def test_truncation_matches_small_polynomial_ring():
    trunc = truncation(2)
    for k in range(0, 9):
        free, tors = group_in_degree(k * RHO, trunc)
        assert (free, tors) == (oracles.polynomial_rank([1, 3], k), 0)


def test_underlying_groups():
    assert underlying_groups(QuotientIdeal(), 6) == (2, 0)   # v_1^3, v_2
    assert underlying_groups(QuotientIdeal(), 5) == (0, 0)
    assert underlying_groups(QuotientIdeal(), 0) == (1, 0)
    assert underlying_groups(QuotientIdeal(), -2) == (0, 0)
    assert underlying_groups(truncation(1), 6) == (1, 0)
    assert underlying_groups(QuotientIdeal((1,)), 6) == (1, 0)


def test_restriction_indices():
    for k in range(-4, 6):
        assert restriction_rank(QuotientIdeal(), k * RHO) == 1
    for k in range(2, 7):
        alpha = k * RHO - Degree(4, 0)
        assert restriction_rank(QuotientIdeal(), alpha) == 2


def test_quotient_groups_layer_reporting():
    # at (5,1) + rho the kernel layer of B/vbar_1 is genuinely nonzero
    g = tower_group(QuotientIdeal((1,)), Degree(5, 1))
    assert g.sub_summary != (-1, -1) and g.quot_summary != (0, 0)


# the tower layer's self-checks, on hand-built groups: a stage reads its
# four groups one stage down, at alpha (tgt), alpha - |x| (src), and one
# triv lower each for the kernel map (ker_tgt, ker_src)

ONE, V1 = Monomial(0, 0), vbar_monomial(1)


def test_layers_are_read_off_the_entries():
    unknown = TowerGroup((), (), False)
    assert unknown.sub_summary == unknown.quot_summary == (-1, -1)
    assert not unknown.exact and unknown.entries == ()
    assert TowerGroup((), (), True).sub_summary == (0, 0)
    free, f2, ker = (BasisEntry(ONE, 2, False), BasisEntry(V1, 1, True),
                     BasisEntry(ONE, 1, True))
    g = TowerGroup((free, f2), (ker,), True)
    assert (g.sub_summary, g.quot_summary) == ((1, 1), (0, 1))
    assert not g.exact and g.entries == (free, f2, ker)
    with pytest.raises(coefficients.UnknownExtension,
                       match=r"layers \(1, 1\) / \(0, 1\)"):
        g.summarize()
    # both layers F_2: the group is their sum
    assert TowerGroup((f2,), (ker,), True).summarize() == (0, 2)


def test_multiply_rejects_a_lattice_mismatch():
    src = (BasisEntry(ONE, 1, False),)
    tgt = (BasisEntry(V1, 2, False),)
    with pytest.raises(AssertionError, match=r"lattice mismatch 1 -> 2\*v1"):
        _multiply(src, tgt, V1)


def test_multiply_rejects_an_image_multiplier_past_two():
    # a lattice-4 class cannot arise from lattices 1 and 2
    src = (BasisEntry(ONE, 4, False),)
    tgt = (BasisEntry(V1, 1, False),)
    with pytest.raises(AssertionError, match="unexpected image multiplier"):
        _multiply(src, tgt, V1)


def test_multiply_returns_tuples():
    # an F_2 class onto a free one is zero: both classes stay
    tgt = (BasisEntry(V1, 1, False),)
    for src in ((), (BasisEntry(ONE, 1, True),)):
        assert _multiply(src, tgt, V1) == (tgt, src)
    coker, kernel = _multiply((BasisEntry(ONE, 2, False),), tgt, V1)
    assert coker == (BasisEntry(V1, 1, True),) and kernel == ()


def _stage_on(monkeypatch, below: dict) -> TowerGroup:
    """The stage killing vbar_1 at degree 0 after a leading step, built on
    the hand-built groups one stage down, keyed by degree (empty where
    none is given).  Past the first step they are no base classes, whose
    products the stage would check against the base."""
    build = coefficients._stage_group.__wrapped__
    steps = ((2, 1), (1, 1))

    def stage(top, st, beta):
        return build(top, st, beta) if st == steps else \
            below.get(beta, TowerGroup((), (), True))

    monkeypatch.setattr(coefficients, "_stage_group", stage)
    return build(None, steps, Degree(0, 0))


class _Reads(dict):
    """Hand-built groups by degree that log the degrees a stage reads."""

    def __init__(self, groups):
        super().__init__(groups)
        self.read = []

    def get(self, beta, default):
        self.read.append(beta)
        return super().get(beta, default)


def test_a_stage_is_unknown_from_its_first_untrusted_input(monkeypatch):
    # read in turn: tgt, src, ker_tgt, ker_src; an unknown input, or one
    # with a kernel layer, decides the stage, and the rest go unread
    order = [Degree(0, 0), -RHO, -Degree(1, 0), -Degree(1, 0) - RHO]
    kernel = TowerGroup((), (BasisEntry(ONE, 1, True),), True)
    for bad in (TowerGroup((), (), False), kernel):
        for i, beta in enumerate(order):
            below = _Reads({beta: bad})
            with monkeypatch.context() as patch:
                assert _stage_on(patch, below) == \
                    TowerGroup((), (), False), (bad, beta)
            assert below.read == order[:i + 1], (bad, beta)


def test_free_class_in_the_read_kernel_raises(monkeypatch):
    # ker_src holds a free class and ker_tgt is empty
    ker_src = Degree(0, 0) - Degree(1, 0) - RHO
    with pytest.raises(AssertionError,
                       match="free class 1 unexpectedly in a kernel"):
        _stage_on(monkeypatch,
                  {ker_src: TowerGroup((BasisEntry(ONE, 1, False),), (),
                                       True)})


def test_free_class_killed_on_the_cokernel_side_is_no_error(monkeypatch):
    # src holds the same free class and tgt is empty: it maps to zero, but
    # the stage reads only that map's cokernel
    g = _stage_on(monkeypatch,
                  {Degree(0, 0) - RHO: TowerGroup((BasisEntry(ONE, 1, False),),
                                                  (), True)})
    assert g == TowerGroup((), (), True)


def test_a_withheld_base_class_raises(monkeypatch):
    # BPR<1> without v1 at rho: the first step's product 1 * v1 survives
    # the final page but lands on no class of the base
    from realspectra import blocks
    full = blocks.assemble

    def withheld(n, alpha):
        return [c for c in full(n, alpha) if c.describe() != "v1"]

    with monkeypatch.context() as patch:
        patch.setattr(blocks, "assemble", withheld)
        coefficients._stage_group.cache_clear()
        try:
            with pytest.raises(coefficients.InternalInconsistency,
                               match="product v1 of v1 and 1 escapes"):
                tower_group(QuotientIdeal((1,), tail=1), RHO)
        finally:
            coefficients._stage_group.cache_clear()
    assert tower_group(QuotientIdeal((1,), tail=1), RHO).summarize() == \
        (0, 0)


# ---------------------------------------------------------------------------
# nilpotence

NILP_WINDOW = Window(-6, 6, -4, 4)


def test_nilpotence_default_exponent():
    assert nilpotence_check(1, 1, NILP_WINDOW) is True          # vbar_1^3
    assert nilpotence_check(2, 1, NILP_WINDOW, exponent=3) is True


def test_nilpotence_small_exponent_not_provable():
    assert nilpotence_check(1, 1, NILP_WINDOW, exponent=1) is False


def test_nilpotence_two_k_suffices():
    assert nilpotence_check(1, 2, NILP_WINDOW, exponent=4) is True
    assert nilpotence_check(1, 1, NILP_WINDOW, exponent=2) is True


# ---------------------------------------------------------------------------
# assorted properties

@settings(max_examples=80, deadline=None)
@given(st.integers(-10, 10), st.integers(-10, 10))
def test_no_torsion_of_higher_exponent(t, s):
    free, tors = group_in_degree(Degree(t, s))
    assert free >= 0 and tors >= 0


def test_weight_tuples():
    assert sorted(weight_tuples(3)) == [(0, 1), (3,)]
    assert weight_tuples(0) == ((),)
    assert weight_tuples(-1) == ()
    assert sorted(weight_tuples(4)) == [(1, 1), (4,)]
    assert sorted(weight_tuples(4, 2)) == []
    assert len(weight_tuples(7)) == 4  # 7, 1+2*3, 4*1+3, 7*1
