"""Spectral sequence engine: pages, differentials, final-page groups."""

import doctest

import pytest
from hypothesis import given, settings, strategies as st

from realspectra import coefficients, hfpss
from realspectra.coefficients import (BasisEntry, Monomial,
                                      StabilizationFailure, _weight,
                                      basis_in_degree, vbar_monomial)
from realspectra.grading import RHO, Degree, Window
from realspectra.hfpss import (
    _DEAD, InternalInconsistency, closed_form_state, e2_basis, e2_count,
    e_infinity_basis, e_infinity_groups, geometric_cofibre_groups,
    run_differentials, tate_groups,
)

import oracles


def test_doctests():
    result = doctest.testmod(hfpss)
    assert result.failed == 0 and result.attempted > 0


@pytest.mark.parametrize("n", [None, 0, 1, 2, 4])
@pytest.mark.parametrize("window, a_cap", [
    (Window(0, 0, 0, 0), 0), (Window(-4, 4, -4, 4), 13),
    (Window(-9, 2, -1, 6), 40), (Window(3, 5, -12, -10), 97)])
def test_e2_count_is_the_length_of_the_listing(n, window, a_cap):
    assert e2_count(n, window, a_cap) == sum(
        len(e2_basis(n, alpha, a_cap)) for alpha in window)


def test_e2_basis_families():
    assert [str(m) for m in e2_basis(None, Degree(0, -1), a_cap=4)] == ["a"]
    got = [str(m) for m in e2_basis(2, Degree(0, 0), a_cap=8)]
    assert got == ["1", "a^4 u^-1 v1^2", "a^8 u^-2 v1 v2", "a^8 u^-2 v1^4"]
    # truncation prunes vbar indices: n=1 drops the v2^2 tuple
    got = [str(m) for m in e2_basis(1, Degree(0, 0), a_cap=8)]
    assert got == ["1", "a^4 u^-1 v1^2", "a^8 u^-2 v1^4"]
    for n in (None, 1, 3):
        for m in e2_basis(n, Degree(5, -2), a_cap=12):
            assert m.degree() == Degree(5, -2)


def test_final_page_matches_coefficient_ring():
    """The untruncated final page is the coefficient ring on the nose."""
    for alpha in Window(-8, 8, -6, 6):
        assert sorted(e_infinity_basis(None, alpha)) == \
            sorted(basis_in_degree(alpha)), str(alpha)


def _outcome(fn, n, alpha):
    """The entries fn returns, or the type and message of what it raises."""
    try:
        return fn(n, alpha)
    except (oracles.MismatchError, StabilizationFailure) as err:
        return (type(err), str(err))


def _assert_matches_two_rounds(n, alpha):
    got = _outcome(e_infinity_basis, n, alpha)
    assert got == _outcome(oracles.e_infinity_basis_two_rounds, n, alpha), \
        (n, alpha)
    return got


@pytest.mark.parametrize("n", [1, 2, 4, None])
def test_single_enumeration_matches_two_rounds(n):
    for alpha in Window(-6, 6, -6, 6):
        _assert_matches_two_rounds(n, alpha)


def test_survivor_past_the_bound_is_stabilization_failure(monkeypatch):
    monkeypatch.setattr(coefficients, "_a_exponent_bound",
                        lambda alpha, n=None: 0)
    alpha = Degree(0, -3)    # a^3 survives, at filtration 3
    got = _assert_matches_two_rounds(1, alpha)
    assert got == (StabilizationFailure,
                   f"final-page classes at {alpha} appear past filtration 0")


def test_known_differentials_n1():
    pages = run_differentials(1, Window(0, 4, -4, 0), a_cap=10)
    assert [p.r_first for p in pages] == [2, 4]
    assert pages[0].r_last == 3 and pages[1].fired == ()
    fired = {(str(x), str(y)) for x, y in pages[0].fired}
    assert ("u", "a^3 v1") in fired
    assert all(src != "u^2" for src, _ in fired)  # even powers are cycles


def test_known_differentials_n2():
    pages = run_differentials(2, Window(0, 8, -8, 0), a_cap=12)
    assert [p.r_first for p in pages] == [2, 4, 8]
    d3 = {(str(x), str(y)) for x, y in pages[0].fired}
    d7 = {(str(x), str(y)) for x, y in pages[1].fired}
    assert ("u", "a^3 v1") in d3
    assert ("u^2", "a^7 v2") in d7
    assert all(src != "u^2" for src, _ in d3)
    assert all(src != "u^4" for src, _ in d7)
    # u^4 = U survives integrally at (8, -8)
    final = pages[-1].classes[Degree(8, -8)]
    assert any(str(e.mono) == "u^4" and e.lattice == 1 and not e.torsion
               for e in final)


def test_vbar_classes_are_permanent_cycles():
    for n in (1, 2, 3):
        engine = oracles.PageStatesReference(n)
        for i in range(1, n + 1):
            for power in (1, 2):
                assert engine.final_state(vbar_monomial(i, power)) == 1


def test_doubled_classes_never_die():
    # 2 u^l has vbar_0 content; its differential is 2 (anything) = 0
    for n in (1, 2, None):
        engine = oracles.PageStatesReference(n)
        for l in range(-4, 5):
            assert engine.final_state(Monomial(0, l)) in (1, 2)


def test_evenness_on_final_page():
    # untruncated: even everywhere; truncated: the Borel completion keeps
    # pure a-power towers a^(2^(n+2)j - 1) U^(-j) at k = 1 - 2^(n+1) j,
    # which the fixed-point assembly later replaces by the negative block
    for k in range(-6, 7):
        assert e_infinity_groups(None, k * RHO - Degree(1, 0)) == (0, 0)
    for n in (1, 2):
        for k in range(-6, 7):
            want = (0, 1) if (1 - k) % 2 ** (n + 1) == 0 and k < 0 else (0, 0)
            assert e_infinity_groups(n, k * RHO - Degree(1, 0)) == want, (n, k)
    entries = e_infinity_basis(1, -3 * RHO - Degree(1, 0))
    assert [e.describe() for e in entries] == ["a^7 u^-2"]


def test_truncated_final_page_spot_checks():
    # n=1: 2u in (2,-2); U = u^2 integral in (4,-4); a tower classes
    assert e_infinity_groups(1, Degree(2, -2)) == (1, 0)
    assert e_infinity_groups(1, Degree(4, -4)) == (1, 0)
    assert e_infinity_groups(1, Degree(0, -1)) == (0, 1)
    assert e_infinity_groups(1, Degree(0, -3)) == (0, 1)   # a^3 alive: no v1
    assert e_infinity_groups(None, Degree(0, -3)) == (0, 1)
    # n=2 keeps a^3 v2-multiples that n=1 lacks: (3, -3+3) = 3 rho - k sigma
    assert e_infinity_groups(2, Degree(3, 0)) == (0, 1)    # a^3 v2
    assert e_infinity_groups(1, Degree(3, 0)) == (0, 0)


def test_filtration_jump_of_doubled_generators():
    # at (2,-2) the integral class u dies to lattice 2 precisely at page 4
    engine = oracles.PageStatesReference(1)
    u = Monomial(0, 1)
    assert engine.state(u, 1) == 1
    assert engine.state(u, 2) == 2


def test_tate_pattern():
    assert [t for t in range(-8, 9) if tate_groups(1, Degree(t, 0))] == \
        [-8, -4, 0, 4, 8]
    assert [t for t in range(-16, 17) if tate_groups(2, Degree(t, 0))] == \
        [-16, -8, 0, 8, 16]
    # sigma coordinate is free
    for s in range(-5, 6):
        assert tate_groups(1, Degree(4, s)) == 1
        assert tate_groups(1, Degree(2, s)) == 0


def test_geometric_cofibre_pattern():
    hits = [(t, s) for t in range(-10, 3) for s in (-2, 0, 5)
            if geometric_cofibre_groups(1, Degree(t, s))]
    assert sorted({t for t, _ in hits}) == [-8, -4]
    assert len(hits) == 6   # every sigma coordinate counts once
    assert geometric_cofibre_groups(2, Degree(-8, 0)) == 1
    assert geometric_cofibre_groups(2, Degree(-4, 0)) == 0


def test_page_monotonicity_random():
    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 9), st.integers(-8, 8),
           st.lists(st.integers(0, 3), max_size=3),
           st.sampled_from([1, 2, 3, None]))
    def check(k, l, c, n):
        if n is not None:
            c = c[:n]
        x = Monomial(k, l, c)
        reference = oracles.PageStatesReference(n)
        top = reference.final_page(x)
        # run_differentials drops a dead class for good, so the closed form
        # must be monotone as well as the propagation engine
        for state in (reference.state,
                      lambda x, p: closed_form_state(n, x, p)):
            prev = state(x, 1)
            for p in range(2, top + 2):
                cur = state(x, p)
                if x.k == 0:
                    assert cur >= prev      # lattice only grows
                elif prev == "dead":
                    assert cur == "dead"    # death is permanent
                prev = cur

    check()


def _assert_states_match_reference(n, reference, x):
    top = hfpss._final_page(n, x)
    assert top == reference.final_page(x), str(x)
    for p in range(1, top + 2):
        assert closed_form_state(n, x, p) == reference.state(x, p), \
            (str(x), p)
    assert closed_form_state(n, x) == reference.final_state(x), str(x)


@pytest.mark.parametrize("n", [1, 2, 3, 4, None])
def test_kernel_matches_reference_engine(n):
    """The closed form, the kernel of the product path, answers as the
    propagation engine: every state on every page up to one past the
    final page, the final state, and every page of run_differentials with
    its classes, lattices and fired pairs in order.  A second call, with
    the exponent-tuple memos warm, answers as the first with them cold,
    and no two pages of either call share a classes list."""
    window = Window.square(8)
    reference = oracles.PageStatesReference(n)
    for alpha in window:
        for x in e2_basis(n, alpha, a_cap=40):
            _assert_states_match_reference(n, reference, x)
    hfpss._target_tuple.cache_clear()
    coefficients._weight.cache_clear()
    first = run_differentials(n, window, a_cap=40)
    second = run_differentials(n, window, a_cap=40)
    lists = [id(entries) for pages in (first, second) for page in pages
             for entries in page.classes.values()]
    assert len(set(lists)) == len(lists)
    assert second == first == \
        oracles.run_differentials_reference(n, window, a_cap=40)


def test_kernel_matches_reference_engine_on_single_monomials():
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 40), st.integers(-64, 64),
           st.lists(st.integers(0, 4), max_size=5),
           st.sampled_from([1, 2, 3, 4, None]))
    def check(k, l, c, n):
        if n is not None:
            c = c[:n]
        _assert_states_match_reference(
            n, oracles.PageStatesReference(n), Monomial(k, l, c))

    check()


def test_page_loop_reads_one_state_per_live_class(monkeypatch):
    """One `_page_lattice` call per live class per page transition, and no
    `closed_form_state` call: no honest target reaches the d*d states."""
    calls = {"_page_lattice": 0, "closed_form_state": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(hfpss, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(hfpss, name, counted)
    pages = run_differentials(4, Window.square(8), a_cap=40)
    live = [sum(map(len, page.classes.values())) for page in pages]
    assert live == [21606, 1347, 298, 183, 166]
    assert [len(page.fired) for page in pages] == [10804, 604, 76, 17, 0]
    assert calls == {"_page_lattice": sum(live[:-1]),     # 23,434
                     "closed_form_state": 0}


def test_wrong_fire_target_is_internal_inconsistency(monkeypatch):
    real = hfpss._fire_target
    monkeypatch.setattr(hfpss, "_fire_target",
                        lambda x, i: real(x, i).times(Monomial(1, 0)))
    with pytest.raises(InternalInconsistency,
                       match="d_3 bookkeeping broken on "):
        run_differentials(1, Window(0, 4, -4, 0), a_cap=10)


class _Disguised(Monomial):
    """A monomial that reports the degree of another one, `honest`."""

    def degree(self):
        return self.honest.degree()


def test_target_firing_on_its_own_page_is_internal_inconsistency(monkeypatch):
    # an honest target has u-exponent l - 2^(p-1) = 0 (mod 2^p), so no
    # closed form can make it fire on the page it is hit on; this target
    # has the residue of a source and the degree of the honest target, and
    # the patched closed form kills it on the next page
    real_target, real_state = hfpss._fire_target, closed_form_state

    def target(x, i):
        y = real_target(x, i)
        fake = tuple.__new__(_Disguised, (y.k, y.l + 2 ** (i - 1), y.c))
        object.__setattr__(fake, "honest", y)
        return fake

    def state(n, x, p=None):
        if isinstance(x, _Disguised):
            return True if p == 1 else _DEAD
        return real_state(n, x, p)

    monkeypatch.setattr(hfpss, "_fire_target", target)
    monkeypatch.setattr(hfpss, "closed_form_state", state)
    with pytest.raises(InternalInconsistency,
                       match="d_3 squared nonzero through "):
        run_differentials(1, Window(0, 4, -4, 0), a_cap=10)


# ---------------------------------------------------------------------------
# the values the hot paths build in C with tuple.__new__, unchecked

def _assert_same_monomial(got: Monomial, want: Monomial):
    """got, built on a trusted path, is want in every observable way."""
    assert type(got) is Monomial
    assert type(got.c) is tuple and all(type(ci) is int for ci in got.c)
    assert got == want and hash(got) == hash(want)
    assert str(got) == str(want) and repr(got) == repr(want)
    # tuple equality ignores the class: check the degree's class too
    assert type(got.degree()) is Degree
    w = _weight(got.c)
    assert got.degree() == Degree(2 * got.l + w, -got.k - 2 * got.l + w)


def _assert_same_entry(got: BasisEntry):
    """got, built on a trusted path, is the validating BasisEntry of its
    fields, and has exactly its three fields."""
    assert type(got) is BasisEntry and len(got) == 3
    assert got == BasisEntry(got.mono, got.lattice, got.torsion)
    assert type(got.lattice) is int and type(got.torsion) is bool
    _assert_same_monomial(got.mono, Monomial(got.mono.k, got.mono.l,
                                             got.mono.c))


_exponents = st.lists(st.integers(0, 3), max_size=4)


def test_trusted_e2_basis_monomials_equal_validated():
    @settings(max_examples=150, deadline=None)
    @given(st.integers(-12, 12), st.integers(-12, 12), st.integers(0, 24),
           st.sampled_from([1, 2, 3, 4, None]))
    def check(t, s, a_cap, n):
        for m in e2_basis(n, Degree(t, s), a_cap):
            _assert_same_monomial(m, Monomial(m.k, m.l, list(m.c) + [0]))

    check()


def test_trusted_fire_targets_and_hit_sources_equal_validated():
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 20), st.integers(-16, 16), _exponents,
           st.integers(1, 4))
    def check(k, l, c, i):
        x = Monomial(k, l, c)
        r = 2 ** (i + 1) - 1
        y = hfpss._fire_target(x, i)
        _assert_same_monomial(
            y, Monomial(k + r, l - 2 ** (i - 1), oracles.bumped(x.c, i, 1)))
        # the validated hit source of the target is the class it came from
        _assert_same_monomial(Monomial(y.k - r, y.l + 2 ** (i - 1),
                                       oracles.bumped(y.c, i, -1)), x)

    check()


def test_trusted_page_entries_equal_validated():
    pages = run_differentials(2, Window(-4, 4, -4, 4), a_cap=12)
    first = [e for entries in pages[0].classes.values() for e in entries]
    assert first and all(e.lattice == 1 and e.torsion == (e.mono.k > 0)
                         for e in first)
    for page in pages:
        for e in (e for entries in page.classes.values() for e in entries):
            _assert_same_entry(e)
        for x, y in page.fired:
            _assert_same_monomial(y, Monomial(y.k, y.l, y.c))


def test_trusted_final_page_entries_equal_validated():
    @settings(max_examples=100, deadline=None)
    @given(st.integers(-12, 12), st.integers(-12, 12),
           st.sampled_from([0, 1, 2, 3, None]))
    def check(t, s, n):
        alpha = Degree(t, s)
        for e in coefficients._page_basis(n, alpha):
            _assert_same_entry(e)
            assert hfpss.final_entry(n, e.mono) == e
        for x in e2_basis(n, alpha, 12):
            entry = hfpss.final_entry(n, x)
            if entry is not None:
                _assert_same_entry(entry)

    check()
