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
each target has a unique firing source.  Two independent engines exploit
this:

* propagation (`_PageStates`): per-class fire/hit bookkeeping through the
  pages, as a kernel on plain (k, l, c) keys that fills each class's row
  of page states in a loop and tells a hit class by the u-exponent residue
  of its source;
* closed form (`closed_form_state`): page E_{2^p} is the subalgebra of
  E_2 / (a^3 vbar_1, ..., a^(2^p - 1) vbar_{p-1}) generated by a,
  u^{+-2^(p-1)}, the vbar_i, and the twisted classes vbar_i u^(2^i j) for
  i < p - 1; membership reduces to a 2-adic divisibility of the u-exponent
  against the least vbar content.

`e_infinity_basis` enumerates each degree once, past the provable filtration
bound, runs both engines on every monomial and raises MismatchError the
moment they disagree; a survivor above the bound is a StabilizationFailure.

Propagation states are memoized per height for the life of the process
(`_engine`): a state depends on (n, monomial, page) only, so
`run_differentials` and every `e_infinity_basis` call share one memo and no
state is worked out twice.  `run_differentials` fills every listed class's
row once and reads each page's classes, and the pairs fired on it, from the
rows.  The memo saves propagation work, not checks: both engines still run
on every monomial listed.
"""

from __future__ import annotations

import dataclasses
import functools

from .coefficients import (
    BasisEntry, Monomial, StabilizationFailure, _a_exponent_bound, _bump,
    _weight_tuples_in, rank_summary,
)
from .grading import Degree, Window, v2


class InternalInconsistency(Exception):
    """Differential bookkeeping failed an arithmetic self-check."""


class MismatchError(Exception):
    """The propagation engine and the closed-form page disagree."""


_DEAD = "dead"


def e2_basis(n: int | None, alpha: Degree, a_cap: int = 40) -> list[Monomial]:
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
    t, s = alpha.triv, alpha.sgn
    out = []
    w = t % 2
    while True:
        k = 2 * w - s - t
        if k > a_cap:
            break
        if k >= 0:
            l = (t - w) // 2
            for c in _weight_tuples_in(w, 1, n):
                out.append(Monomial._trusted(k, l, c))
        w += 2
    return out


def _fire_target(x: Monomial, i: int) -> Monomial:
    return Monomial._trusted(x.k + 2 ** (i + 1) - 1, x.l - 2 ** (i - 1),
                             _bump(x.c, i, 1))


class _PageStates:
    """Lazy per-class page states; page exponent p stands for page E_{2^p}.

    States: for k = 0 the lattice index 1 or 2 of the surviving free class
    (2 u^l survives every differential since 2a = 0); for k > 0 either True
    (alive F2 class) or "dead".

    The kernel works on plain (k, l, c) keys: `state`, `final_state` and
    `final_page` take a Monomial, everything below them a key, and no
    Monomial is built inside but to name a class in an error.
    `_state(k, l, c, p)` fills the key's row of page states with a loop
    from its last filled page: page q follows from page q - 1, whether the
    class fires there (`_fires`, through the state of its target) and
    whether it is hit (`_hit`).  `_hit` reads the state of its source z and
    decides "z fires" from z's u-exponent residue alone, because z's target
    is this very class, alive on that page.
    """

    def __init__(self, n: int | None):
        self.n = n
        # one row per monomial, keyed by a plain tuple so that hashing and
        # comparing keys stays in C: row[p - 2] is the state on page p.
        # Filling page q reads other keys on page q - 1 only, so a row
        # grows in page order even when the fill recurses.
        self._memo: dict[tuple[int, int, tuple[int, ...]], list] = {}

    def state(self, x: Monomial, p: int):
        return self._state(x.k, x.l, x.c, p)

    def _state(self, k: int, l: int, c: tuple[int, ...], p: int):
        if p <= 1:
            return 1 if k == 0 else True
        key = (k, l, c)
        row = self._memo.get(key)
        if row is None:
            row = self._memo[key] = []
        elif p - 2 < len(row):
            return row[p - 2]
        n = self.n
        st = row[-1] if row else (1 if k == 0 else True)
        for i in range(len(row) + 1, p):
            # transition E_{2^i} -> E_{2^(i+1)} via d_{2^(i+1)-1}; lattice 2
            # and death are final, and past n no differential acts
            if st != _DEAD and st != 2 and (n is None or i <= n):
                fires = self._fires(k, l, c, i, i)
                if k == 0:
                    st = 2 if fires else 1
                else:
                    hit = self._hit(k, l, c, i, i)
                    # firing needs l = 2^(i-1) (mod 2^i), being hit 2^i | l
                    if fires and hit:
                        raise InternalInconsistency(
                            f"d_{2 ** (i + 1) - 1} both leaves and hits "
                            f"{Monomial._trusted(k, l, c)}")
                    if fires or hit:
                        st = _DEAD
            row.append(st)
        return st

    def _fires(self, k: int, l: int, c: tuple[int, ...], i: int,
               page: int) -> bool:
        """d_{2^(i+1)-1} is nonzero on the integral generator of the class."""
        step = 2 ** (i - 1)
        if l % (2 * step) != step:
            return False
        return self._state(k + 4 * step - 1, l - step, _bump(c, i, 1),
                           page) is True

    def _hit(self, k: int, l: int, c: tuple[int, ...], i: int,
             page: int) -> bool:
        """d_{2^(i+1)-1} of the source z = (k - r, l + 2^(i-1), c - e_i) is
        this class, taken alive on `page`; so z fires exactly when it is
        alive on lattice 1 there and its u-exponent has the residue of a
        source, l + 2^(i-1) = 2^(i-1) (mod 2^i)."""
        r = 2 ** (i + 1) - 1
        if k < r or len(c) < i or c[i - 1] == 0:
            return False
        step = 2 ** (i - 1)
        st = self._state(k - r, l + step, _bump(c, i, -1), page)
        # True == 1: an alive F2 source, or a free one on lattice 1 (a
        # lattice-2 source contributes 2 d(z) = 0)
        return st == 1 and l % (2 * step) == 0

    def final_page(self, x: Monomial) -> int:
        if self.n is not None:
            return self.n + 1
        top = v2(x.l) + 1 if x.l else 1
        return max(top, len(x.c)) + 1

    def final_state(self, x: Monomial):
        return self._state(x.k, x.l, x.c, self.final_page(x))


@functools.lru_cache(maxsize=None)
def _engine(n: int | None) -> _PageStates:
    """The propagation memo for height n, shared by every call in the
    process.  A page state depends on (n, monomial, page) alone, never on a
    window or a filtration cap, so a warm memo answers as a cold one."""
    return _PageStates(n)


def closed_form_state(n: int | None, x: Monomial, p: int | None = None):
    """State of x on page E_{2^p} (p = None: the final page) by membership.

    The page is the subalgebra of E_2/(a^3 vbar_1, ..., a^(2^p-1) vbar_{p-1})
    generated by a, u^{+-2^(p-1)}, the vbar_i, and vbar_i u^(2^i j) for
    i < p - 1.  The lattice-2 option for k = 0 comes from the 2 u^j classes
    (vbar_0 twists), which are cycles for every differential.
    """
    if p is None:
        cap = n
    elif n is None:
        cap = p - 1
    else:
        cap = min(p - 1, n)
    if x.k > 0:
        for i, ci in enumerate(x.c, start=1):
            if ci and (cap is None or i <= cap) and x.k >= 2 ** (i + 1) - 1:
                return _DEAD
    m = x.min_content()
    if cap is None:
        ok = x.l == 0 if m is None else x.l % 2 ** m == 0
    else:
        e = cap if m is None else min(m, cap)
        ok = x.l % 2 ** e == 0
    if x.k == 0:
        return 1 if ok else 2
    return True if ok else _DEAD


def _exponent_bound(n: int | None, alpha: Degree) -> int:
    """Filtration above which no class survives to the final page."""
    if n is None:
        return _a_exponent_bound(alpha)
    # torsion survivors need k < 2^(n+1) - 1 against any content; the only
    # content-free class at alpha has k = -s - t
    return max(2 ** (n + 1) - 2, -alpha.sgn - alpha.triv, 0)


def e_infinity_basis(n: int | None, alpha: Degree,
                     a_cap: int | None = None) -> list[BasisEntry]:
    """Certified final-page classes at alpha, dual-route checked.

    Enumerates once, up to filtration bound + 8, where bound is the provable
    filtration bound (or a_cap if larger), and runs both engines on every
    monomial.  Propagation reads the process-wide memo of its height, so a
    monomial an earlier call (say `run_differentials`) already propagated
    costs a lookup; the closed form is still compared on it.  Raises
    MismatchError at the first class on which the propagation and
    closed-form engines disagree, and otherwise StabilizationFailure if a
    class above the bound survives; the classes returned are those of
    filtration at most the bound.

    >>> [e.describe() for e in e_infinity_basis(1, Degree(2, -2))]
    ['2*u']
    >>> [e.describe() for e in e_infinity_basis(1, Degree(4, -4))]
    ['u^2']
    """
    bound = max(_exponent_bound(n, alpha), a_cap or 0)
    engine = _engine(n)
    entries = []
    past_bound = False
    for x in e2_basis(n, alpha, bound + 8):
        got = engine.final_state(x)
        want = closed_form_state(n, x)
        if got != want:
            raise MismatchError(
                f"engines disagree on {x} at {alpha}: "
                f"propagation {got}, closed form {want}")
        if got == _DEAD:
            continue
        if x.k > bound:
            # keep checking the engines: a disagreement outranks this
            past_bound = True
        elif x.k == 0:
            entries.append(BasisEntry(x, got, False))
        else:
            entries.append(BasisEntry(x, 1, True))
    if past_bound:
        raise StabilizationFailure(
            f"final-page classes at {alpha} appear past filtration {bound}")
    return entries


def e_infinity_groups(n: int | None, alpha: Degree,
                      a_cap: int | None = None) -> tuple[int, int]:
    """(free rank, F2 rank) on the final page.

    >>> e_infinity_groups(None, Degree(2, -2))
    (1, 0)
    >>> e_infinity_groups(1, Degree(0, 1))   # rho - 1: evenness
    (0, 0)
    """
    return rank_summary(e_infinity_basis(n, alpha, a_cap))


@dataclasses.dataclass
class Page:
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
                      a_cap: int = 40) -> list[Page]:
    """All pages of the spectral sequence over a degree window.

    Returns one Page per stable stretch E_{2^p} .. E_{2^(p+1)-1}; the last
    entry is the final page.  x fires on page p when it is alive there, not
    on lattice 2, has l = 2^(p-1) (mod 2^p) (a hit class has 2^p | l), and
    is dead (k > 0) or on lattice 2 (k = 0) on page p + 1; only the targets
    of fired pairs are built.  Raises InternalInconsistency if a fired
    differential fails degree bookkeeping (total degree must drop by exactly
    (1,0) and filtration rise by exactly r) or hits a class that fires again
    on the same page (d*d must vanish).
    """
    engine = _engine(n)
    degrees = list(window)
    per_degree = {alpha: e2_basis(n, alpha, a_cap) for alpha in degrees}
    if n is not None:
        p_top = n + 1
    else:
        p_top = 1
        for monos in per_degree.values():
            for x in monos:
                p_top = max(p_top, engine.final_page(x))
    # fill every listed monomial's row of states once; row[p - 2] is the
    # state on page p (no row when p_top = 1), and each page walks only the
    # classes alive on it
    memo = engine._memo
    live = {}
    for alpha, monos in per_degree.items():
        for x in monos:
            engine._state(x.k, x.l, x.c, p_top)
        live[alpha] = [(x, memo.get((x.k, x.l, x.c))) for x in monos]
    pages = []
    for p in range(1, p_top + 1):
        classes = {}
        fired = []
        i, r, step = p, 2 ** (p + 1) - 1, 2 ** (p - 1)
        fire_page = p < p_top and (n is None or i <= n)
        for alpha in degrees:
            entries = []
            below = alpha - Degree(1, 0)
            for x, row in live[alpha]:
                # every listed class is alive on E_2, on lattice 1
                st = row[p - 2] if p > 1 else 1
                entries.append(BasisEntry(x, st if x.k == 0 else 1, x.k > 0))
                if not fire_page or st == 2 or x.l % (2 * step) != step:
                    continue
                if row[p - 1] != _DEAD and row[p - 1] != 2:
                    continue
                y = _fire_target(x, i)
                if y.degree() != below or y.k != x.k + r:
                    raise InternalInconsistency(
                        f"d_{r} bookkeeping broken on {x}: target {y}")
                if engine._fires(y.k, y.l, y.c, i, p):
                    raise InternalInconsistency(
                        f"d_{r} squared nonzero through {x} -> {y}")
                fired.append((x, y))
            classes[alpha] = entries
            if p < p_top:
                live[alpha] = [(x, row) for x, row in live[alpha]
                               if row[p - 1] != _DEAD]
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
