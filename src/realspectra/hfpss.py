"""Homotopy fixed point spectral sequence for Real Brown-Peterson theories.

The second page is Z_(2)[vbar_1, ..., vbar_n, u^{+-1}, a] / (2a), with
a^k u^l vbar^c in degree (2l + w, -k - 2l + w) where w is the vbar weight;
the a-exponent k is the filtration.  All differentials are generated by

    d_{2^(i+1)-1}(u^(2^(i-1))) = a^(2^(i+1)-1) vbar_i,      1 <= i <= n,

and the page after the last of these is the final one.  For the untruncated
theory the generator list is unbounded, but only finitely many indices act
on any given monomial.

Differentials here are monomial to monomial: a and the vbar_i are permanent
cycles, so on a monomial only the u-power differentiates, and the twisted
carriers vbar_j u^(2^j s) that witness page membership only contribute terms
killed by 2a = 0 or by a lower a-power relation.  Each class therefore fires
at most once, on the page matching the 2-valuation of its u-exponent, and
each target has a unique firing source.

Every page is read off one closed form: page E_{2^p} is the subalgebra of
E_2 / (a^3 vbar_1, ..., a^(2^p - 1) vbar_{p-1}) generated by a,
u^{+-2^(p-1)}, the vbar_i, and the twisted classes vbar_i u^(2^i j) for
i < p - 1, so membership reduces to a 2-adic divisibility of the
u-exponent against the least vbar content.  That rule is
`coefficients._page_lattice`, which reads the coefficient ring as the final
page at n = infinity; `_page_cap` names the vbar indices a page reaches,
and `closed_form_state` reads one class on one page with them.
`run_differentials` builds each listed class's `BasisEntry` once, on E_2,
and carries it from page to page: one `_page_lattice` call per live class
per page gives its lattice on the next page, which decides whether it
lives on and whether it fires, and the entry is rebuilt only when an
a-free class moves from lattice 1 to lattice 2.  The E_2 monomials and
their entries, the fire targets and the targets' degrees are built in C
with `tuple.__new__`, without the constructors' checks, which hold by
construction; every fired pair still passes the degree, filtration and
d*d checks of `run_differentials`.  `final_entry` is the
final-page class on one monomial, or None, for the blocks and their
action; `e_infinity_basis` is the certified listing
`coefficients._page_basis`, which the ring's basis reads too.  The
propagation engine that follows the differentials class by class is the
independent route that certifies this one; it lives in the tests
(`tests/oracles.py`, `PageStatesReference`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .coefficients import (
    BasisEntry, InternalInconsistency, Monomial, _bump, _first_a_exponent,
    _page_basis, _page_lattice, degree_monomials, rank_summary,
    weight_tuples,
)
from .grading import ONE, Degree, Window, _new, record, v2

_DEAD = "dead"


def e2_basis(n: int | None, alpha: Degree, a_cap: int) -> list[Monomial]:
    """Monomials a^k u^l vbar^c of degree alpha with filtration k <= a_cap.

    Per degree the page has infinite rank (the vbar weight w is unbounded
    and k = 2w - s - t), so listings are capped by filtration.  n = None
    means no truncation of the vbar indices.  Monomials come in increasing
    k, so the listing under a smaller cap is a prefix of this one.

    >>> [str(m) for m in e2_basis(1, Degree(0, -1), a_cap=4)]
    ['a']
    >>> [str(m) for m in e2_basis(1, Degree(2, -2), a_cap=4)]
    ['u', 'a^4 v1^2']
    >>> [str(m) for m in e2_basis(1, Degree(0, 0), a_cap=8)]
    ['1', 'a^4 u^-1 v1^2', 'a^8 u^-2 v1^4']
    """
    return degree_monomials(n, alpha, 0, a_cap, 0)


def e2_count(n: int | None, window: Window, a_cap: int) -> int:
    """The number of monomials e2_basis lists over the window, read off the
    lengths of the `weight_tuples` listings it steps through, so without
    building a monomial.

    >>> e2_count(1, Window(0, 0, 0, 0), 8)   # 1, a^4 u^-1 v1^2, a^8 u^-2 v1^4
    3
    """
    # E_2 (page cap 0) keeps every vbar index from 1 at every a-exponent
    total = 0
    for t, s in window:
        for k in range(_first_a_exponent(t, s, 0), a_cap + 1, 4):
            total += len(weight_tuples((t + s + k) // 2, 1, n))
    return total


@lru_cache(maxsize=None)
def _target_tuple(c: tuple[int, ...], i: int) -> tuple[int, ...]:
    """`_bump(c, i, 1)`, memoized on the E_2 listing's shared tuples."""
    return _bump(c, i, 1)


def _fire_target(x: Monomial, i: int) -> Monomial:
    return _new(Monomial, (x.k + 2 ** (i + 1) - 1, x.l - 2 ** (i - 1),
                           _target_tuple(x.c, i)))


def _final_page(n: int | None, x: Monomial) -> int:
    """The page exponent past which no differential acts on x."""
    if n is not None:
        return n + 1
    top = v2(x.l) + 1 if x.l else 1
    return max(top, len(x.c)) + 1


def _fires(x: Monomial, p: int, now, after) -> bool:
    """Whether x, on lattice `now` on page p and `after` on page p + 1,
    fires d_{2^(p+1)-1}: a lattice-1 class on page p with l = 2^(p-1)
    (mod 2^p) that is no lattice-1 class on page p + 1, being dead (k > 0)
    or on lattice 2 (k = 0) there.

    A lattice is 0 (dead), 1 or 2, as `_page_lattice` reads it; a
    `closed_form_state` value reads the same way, True (an F_2 class,
    whose entry has lattice 1) as 1 and `_DEAD` as no lattice."""
    step = 2 ** (p - 1)
    return now == 1 and x.l % (2 * step) == step and after != 1


def _page_cap(n: int | None, p: int | None) -> int | None:
    """The last vbar index whose relation and twists page E_{2^p} reaches
    (p = None: the final page), the cap `_page_lattice` reads: vbar_1 ..
    vbar_(p-1), and at most vbar_n."""
    if p is None:
        return n
    return p - 1 if n is None else min(p - 1, n)


def closed_form_state(n: int | None, x: Monomial, p: int | None = None):
    """State of x on page E_{2^p} (p = None: the final page): `_DEAD`, or
    the lattice 1 or 2 of an a-free class, or True for an F_2 class.

    `_page_lattice` reads x at the page's cap, `_page_cap`.  The
    lattice-2 option for k = 0 comes from the 2 u^j classes (vbar_0
    twists), which are cycles for every differential.
    """
    lattice = _page_lattice(x, _page_cap(n, p))
    if not lattice:
        return _DEAD
    return lattice if x.k == 0 else True


def final_entry(n: int | None, x: Monomial) -> BasisEntry | None:
    """The final-page class on x, or None when x dies.

    A surviving a-free monomial is a free class on the lattice
    `_page_lattice` names (1, or 2 for a doubled class); an a-divisible
    one is an F_2 class.

    >>> final_entry(1, Monomial(0, 1)).describe()
    '2*u'
    >>> final_entry(1, Monomial(3, 0, (1,))) is None
    True
    """
    lattice = _page_lattice(x, n)
    return _new(BasisEntry, (x, lattice, x.k > 0)) if lattice else None


def e_infinity_basis(n: int | None, alpha: Degree) -> list[BasisEntry]:
    """Certified final-page classes at alpha: `_page_basis`.

    Lists once, up to filtration bound + 8, where bound is the provable
    filtration bound; raises StabilizationFailure if a class lies past it.

    >>> [e.describe() for e in e_infinity_basis(1, Degree(2, -2))]
    ['2*u']
    >>> [e.describe() for e in e_infinity_basis(1, Degree(4, -4))]
    ['u^2']
    """
    return _page_basis(n, alpha)


def e_infinity_groups(n: int | None, alpha: Degree) -> tuple[int, int]:
    """(free rank, F2 rank) on the final page.

    >>> e_infinity_groups(None, Degree(2, -2))
    (1, 0)
    >>> e_infinity_groups(1, Degree(0, 1))   # rho - 1: evenness
    (0, 0)
    """
    return rank_summary(e_infinity_basis(n, alpha))


@record
class Page(NamedTuple):
    """One stable stretch of pages E_{r_first} = ... = E_{r_last}.

    classes maps each window degree to its surviving entries; fired lists
    the d_{r_last} differentials leaving the stretch as (source, target)
    monomial pairs, and is empty on the final stretch.
    """

    r_first: int
    r_last: int
    classes: dict[Degree, list[BasisEntry]]
    fired: tuple[tuple[Monomial, Monomial], ...]


def run_differentials(n: int | None, window: Window,
                      a_cap: int) -> list[Page]:
    """All pages of the spectral sequence over a degree window.

    Returns one Page per stable stretch E_{2^p} .. E_{2^(p+1)-1}; the last
    entry is the final page.  Each listed class's `BasisEntry` is built
    once, on E_2, and carried from page to page: one `_page_lattice` call
    per live class per page gives its lattice on the next page, and it
    leaves the list when it dies.  An a-free entry is rebuilt only when its
    lattice moves from 1 to 2.  A page's `classes[alpha]` is the list of
    that page's live entries, and the next page gets a fresh one, so no
    two pages share a list.  x fires on page p when it is alive there on
    lattice 1, has l = 2^(p-1) (mod 2^p) (a hit class has 2^p | l), and is
    dead (k > 0) or on lattice 2 (k = 0) on page p + 1 (`_fires`); only
    the targets of fired pairs are built.
    Raises InternalInconsistency if a fired differential fails degree
    bookkeeping (total degree must drop by exactly (1,0) and filtration
    rise by exactly r) or hits a class that fires again on the same page
    (d*d must vanish).  That d*d check is decided on the target's
    u-exponent residue first, and only a target with l = 2^(p-1)
    (mod 2^p) pays for its two page states, read by `closed_form_state`.
    An honest target never gets that far: its u-exponent is l - 2^(p-1)
    with l = 2^(p-1) (mod 2^p), so it is 0 (mod 2^p) and the target cannot
    fire on page p.
    """
    degrees = list(window)
    per_degree = {alpha: e2_basis(n, alpha, a_cap) for alpha in degrees}
    if n is not None:
        p_top = n + 1
    else:
        p_top = max([1] + [_final_page(n, x)
                           for monos in per_degree.values() for x in monos])
    # every listed class is alive on E_2, on lattice 1
    live = {alpha: [_new(BasisEntry, (x, 1, x.k > 0)) for x in monos]
            for alpha, monos in per_degree.items()}
    pages = []
    for p in range(1, p_top + 1):
        classes = {}
        fired = []
        r, step = 2 ** (p + 1) - 1, 2 ** (p - 1)
        cap = _page_cap(n, p + 1)
        for alpha in degrees:
            classes[alpha] = entries = live[alpha]
            if p == p_top:
                continue
            below = alpha - ONE
            carried = []
            for e in entries:
                x = e.mono
                after = _page_lattice(x, cap)
                if after == e.lattice:
                    carried.append(e)
                elif after:
                    carried.append(e._replace(lattice=after))
                if not _fires(x, p, e.lattice, after):
                    continue
                y = _fire_target(x, p)
                if y.degree() != below or y.k != x.k + r:
                    raise InternalInconsistency(
                        f"d_{r} bookkeeping broken on {x}: target {y}")
                if (y.l % (2 * step) == step
                        and _fires(y, p, closed_form_state(n, y, p),
                                   closed_form_state(n, y, p + 1))):
                    raise InternalInconsistency(
                        f"d_{r} squared nonzero through {x} -> {y}")
                fired.append((x, y))
            live[alpha] = carried
        pages.append(Page(2 ** p,
                          2 ** (p + 1) - 1 if p < p_top else 2 ** p,
                          classes, tuple(fired)))
    return pages


def tate_groups(n: int, alpha: Degree) -> int:
    """F2 rank of the a-inverted final page F2[u^{+-2^n}, a^{+-1}].

    The integer-degree slice is F2[x^{+-1}] with x = u^(2^n) a^(-2^(n+1)),
    |x| = 2^(n+1); a-periodicity frees the sigma coordinate entirely.

    >>> [t for t in range(-8, 9) if tate_groups(1, Degree(t, 0))]
    [-8, -4, 0, 4, 8]
    >>> tate_groups(2, Degree(8, 3))
    1
    """
    return 1 if alpha.triv % 2 ** (n + 1) == 0 else 0


def geometric_cofibre_groups(n: int, alpha: Degree) -> int:
    """F2 rank of F2[a^{+-1}, u^(-2^n)] u^(-2^n) at alpha.

    >>> geometric_cofibre_groups(1, Degree(-4, 7))
    1
    >>> geometric_cofibre_groups(1, Degree(-2, 0))
    0
    """
    t = alpha.triv
    return 1 if t % 2 ** (n + 1) == 0 and t <= -(2 ** (n + 1)) else 0
