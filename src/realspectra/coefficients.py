"""The RO(C2)-graded coefficient ring of the Real Brown-Peterson spectrum.

The ring is presented as the subalgebra of

    Z_(2)[a, vbar_1, vbar_2, ..., u^{+-1}] / (2a,  vbar_i a^(2^(i+1)-1))

generated by a and the twisted classes vbar_m(j) = u^(2^m j) vbar_m, with
vbar_0 = 2 (so vbar_0(j) = 2u^j).  Degrees: |a| = -sigma, |u| = 2 - 2 sigma,
|vbar_i| = (2^i - 1) rho.

The ring is the final page, at n = infinity, of the homotopy fixed point
spectral sequence (`hfpss`), and one rule, `_page_lattice`, reads both: a
nonzero monomial a^k u^l vbar^c lies in the subalgebra iff l = 0 or 2^m
divides l, where m is the least index with positive content, and 2 u^l
(vbar_0 content) always does.  This divisibility shortcut is not part of the
presentation; it is validated against products of generators in
tests/oracles.py.  `_page_basis` lists a degree's classes once, certified
by the provable a-exponent bound, for the ring and for every final page.

Quotients by powers of the vbar_i are computed through the cofibre sequence

  0 -> pi(M)/x -> pi(M/x) -> ker(x) -> 0      (kernel taken one degree lower)

iterated one generator at a time, over the ring or, for an ideal that kills
every vbar_i past its m listed ones, over pi BPR<m> = pi BPR/(vbar_(m+1),
vbar_(m+2), ...), which `blocks.assemble` lists.  A stage (`TowerGroup`)
keeps the two layers of its last step, the cokernel pi(M)/x and the kernel
ker(x), as tuples of basis classes.  A stage is built only on trusted
bases, known stages with no kernel layer, and is unknown otherwise.  A group
with a kernel layer is exact when both layers are F_2; otherwise only its
two layers' ranks are known.
"""

from __future__ import annotations

import functools
import operator
from typing import NamedTuple, Sequence

from .grading import ONE, Degree, _new, record, v2


# the failures of every layer, here in the lowest one, which every command
# loads: `commands.INCONSISTENT` names them without importing their users

class StabilizationFailure(RuntimeError):
    """Enlarging enumeration caps kept changing a degree's answer."""


class UnknownExtension(RuntimeError):
    """A requested value depends on an unresolved group extension."""


class InternalInconsistency(Exception):
    """Differential bookkeeping failed an arithmetic self-check."""


class InconsistentSSData(RuntimeError):
    """A differential or extension datum does not fit the available ranks."""


# ---------------------------------------------------------------------------
# monomials

def _strip(c: Sequence[int]) -> tuple[int, ...]:
    c = tuple(map(int, c))
    end = len(c)
    while end and c[end - 1] == 0:
        end -= 1
    return c[:end]


def _bump(c: tuple[int, ...], i: int, by: int) -> tuple[int, ...]:
    """The exponent tuple c with its vbar_i entry moved by `by`, stripped.

    c must be a stripped tuple of ints, and so is the result.  Not
    memoized: the Koszul pieces call it with every stage exponent, so a
    memo here would grow with the stages, not with the listings; a caller
    whose tuples repeat keeps its own (`hfpss._target_tuple`).

    >>> _bump((2, 1), 2, -1), _bump((1,), 3, 1), _bump((0, 0, 1), 3, -1)
    ((2,), (1, 0, 1), ())
    """
    if i <= len(c):
        out = c[:i - 1] + (c[i - 1] + by,) + c[i:]
    else:
        out = c + (0,) * (i - 1 - len(c)) + (by,)
    end = len(out)
    while end and out[end - 1] == 0:
        end -= 1
    return out if end == len(out) else out[:end]


@functools.lru_cache(maxsize=None)
def _weight(c: tuple[int, ...]) -> int:
    """Sum c_i (2^i - 1), the rho-weight of vbar^c."""
    return sum(ci * (2 ** i - 1) for i, ci in enumerate(c, start=1))


class _MonomialFields(NamedTuple):
    k: int
    l: int
    c: tuple[int, ...] = ()


class Monomial(_MonomialFields):
    """Ambient monomial a^k u^l vbar_1^c1 vbar_2^c2 ...

    c omits vbar_0; trailing zeros are stripped so equality is structural.
    The constructor (and `_replace`) converts c to ints, strips it and
    rejects negative exponents.  The hot listings (`degree_monomials`,
    `hfpss._fire_target`) and `times`, where k >= 0 and a stripped,
    nonnegative int tuple c hold by construction, skip all of that and
    build their monomials in C with `tuple.__new__`, as `degree` builds
    its Degree.

    A tuple of its fields (k, l, c): hashing, equality and ordering run in
    C, and an instance equals the plain triple (k, l, c), so a dict or set
    must not mix monomials with plain triples.

    >>> Monomial(1, 0, (2,)).degree()
    Degree(triv=2, sgn=1)
    """

    __slots__ = ()

    def __new__(cls, k: int, l: int, c: Sequence[int] = ()) -> "Monomial":
        c = _strip(c)
        if k < 0:
            raise ValueError("negative a-exponent")
        if c and min(c) < 0:
            raise ValueError("negative vbar-exponent")
        return tuple.__new__(cls, (k, l, c))

    @classmethod
    def _make(cls, fields) -> "Monomial":
        # `_replace` builds through here: keep the constructor's checks
        return cls(*fields)

    def degree(self) -> Degree:
        """The package's one grading formula: |a| = -sigma,
        |u| = 2 - 2 sigma, |vbar_i| = (2^i - 1) rho."""
        w = _weight(self.c)
        return _new(Degree, (2 * self.l + w, -self.k - 2 * self.l + w))

    def times(self, other: "Monomial") -> "Monomial":
        # the sum of two stripped, nonnegative tuples is stripped
        a, b = (self.c, other.c) if len(self.c) >= len(other.c) \
            else (other.c, self.c)
        c = tuple(map(operator.add, a, b)) + a[len(b):]
        return _new(Monomial, (self.k + other.k, self.l + other.l, c))

    def __str__(self) -> str:
        parts = []
        if self.k:
            parts.append(f"a^{self.k}" if self.k != 1 else "a")
        if self.l:
            parts.append(f"u^{self.l}" if self.l != 1 else "u")
        for i, ci in enumerate(self.c, start=1):
            if ci:
                parts.append(f"v{i}^{ci}" if ci != 1 else f"v{i}")
        return " ".join(parts) if parts else "1"


def vbar_monomial(i: int, power: int = 1) -> Monomial:
    if i < 1:
        raise ValueError("vbar_monomial wants index >= 1 (vbar_0 is the number 2)")
    c = [0] * i
    c[i - 1] = power
    return Monomial(0, 0, c)


def _page_lattice(x: Monomial, cap: int | None = None) -> int:
    """The lattice of the class on x on a page whose relations and twists
    reach vbar_1 .. vbar_cap (cap = None: every index, the ring itself);
    0 when x is zero or off the page.

    With m the least index of positive content, x is zero once a^k
    annihilates vbar_m (m <= cap, k >= 2^(m+1) - 1), and otherwise lies
    on the page iff 2^e divides l, e = min(m, cap); without content and
    with cap = None, iff l = 0.  An a-free monomial off the page still
    carries its double, a vbar_0 twist, on lattice 2.

    >>> _page_lattice(Monomial(0, 1)), _page_lattice(Monomial(0, 2, (1,)))
    (2, 1)
    >>> x = Monomial(3, 0, (1,))   # vbar_1 a^3: zero in the ring, not on E_2
    >>> _page_lattice(x), _page_lattice(x, 0)
    (0, 1)
    """
    e = cap
    for i, ci in enumerate(x.c, start=1):
        if ci:
            if cap is None or i <= cap:
                if x.k >= 2 ** (i + 1) - 1:
                    return 0
                e = i
            break
    if x.l == 0 if e is None else x.l % 2 ** e == 0:
        return 1
    return 2 if x.k == 0 else 0


# ---------------------------------------------------------------------------
# degreewise bases of the coefficient ring

class _BasisEntryFields(NamedTuple):
    mono: Monomial
    lattice: int
    torsion: bool


class BasisEntry(_BasisEntryFields):
    """One basis class: the image of lattice * mono (free) or mono (F2).

    A tuple of its fields (mono, lattice, torsion): hashing, equality and
    ordering run in C, and an instance equals the plain triple of its
    fields, so a dict or set must not mix entries with plain tuples.  The
    page listings (`_page_basis`, `hfpss`) build their entries in C with
    `tuple.__new__`, all three fields given.  In a quotient tower the
    stage, not the class, records which layer a class lies in.
    """

    __slots__ = ()

    def describe(self) -> str:
        head = "" if self.lattice == 1 else f"{self.lattice}*"
        return f"{head}{self.mono}"


@functools.lru_cache(maxsize=None)
def weight_tuples(w: int, lo: int = 1,
                  hi: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Stripped exponent tuples c with sum c_i (2^i - 1) = w whose nonzero
    indices i lie in lo..hi (lo >= 1; hi = None: no upper limit).

    The one listing of the monomials vbar^c of a rho-weight, memoized; the
    caller must not alter it.  The order is descending lexicographic on
    the reversed, zero-padded tuple: the top index's exponent highest
    first, then the same order one index lower, whose memoized listings
    each listing is built from.

    >>> weight_tuples(3), weight_tuples(3, 2), weight_tuples(7, 1, 2)
    (((0, 1), (3,)), ((0, 1),), ((1, 2), (4, 1), (7,)))
    >>> weight_tuples(0, 3, 2), weight_tuples(-1), weight_tuples(2, 2)
    (((),), (), ())
    """
    if w < 0:
        return ()
    top = (w + 1).bit_length() - 1  # the largest i with 2^i - 1 <= w
    if hi is not None:
        top = min(top, hi)
    if top != hi:
        return weight_tuples(w, lo, top)
    if top < lo:
        return ((),) if w == 0 else ()
    part = 2 ** top - 1
    if top == lo:   # one index (so w >= part): one tuple or none, directly
        return ((0,) * (top - 1) + (w // part,),) if w % part == 0 else ()
    out = []
    for ci in range(w // part, 0, -1):
        for c in weight_tuples(w - ci * part, lo, top - 1):
            out.append(c + (0,) * (top - 1 - len(c)) + (ci,))
    out.extend(weight_tuples(w, lo, top - 1))
    return tuple(out)


def _first_index_above(k: int) -> int:
    """The least index i >= 1 with 2^(i+1) - 1 > k (k >= 0)."""
    return max(1, (k + 1).bit_length() - 1)


def _first_a_exponent(t: int, s: int, k_lo: int) -> int:
    """The least k >= max(k_lo, 0) of a monomial a^k u^l vbar^c in degree
    (t, s): k = t - s (mod 4), and below -(t + s) the vbar weight is < 0.
    Each further one is 4 higher."""
    k = max(k_lo, 0, -(t + s))
    return k + (t - s - k) % 4


def degree_monomials(n: int | None, alpha: Degree, k_lo: int, k_hi: int,
                     cap: int | None) -> list[Monomial]:
    """Monomials a^k u^l vbar^c of degree alpha with k_lo <= k <= k_hi and
    vbar indices in 1..n (n = None: no limit), in increasing k and, within
    each k, in `weight_tuples` order.

    A vbar_i with i <= cap that a^k annihilates (k >= 2^(i+1) - 1) is left
    out; cap is the page cap of `_page_lattice`: 0 on E_2, n on the final
    page, None (every i) for the full ring.  The one inversion of
    |a^k u^l vbar^c| = (2l + w, -k - 2l + w): k = triv - sgn (mod 4),
    l = (triv - sgn - k) / 4 and w = (triv + sgn + k) / 2.

    >>> degree_monomials(1, Degree(2, -2), 0, 4, 1)   # E_2 adds a^4 v1^2
    [Monomial(k=0, l=1, c=())]
    """
    t, s = alpha.triv, alpha.sgn
    d = t - s
    k = _first_a_exponent(t, s, k_lo)
    out = []
    append = out.append
    while k <= k_hi:
        lo = _first_index_above(k)
        if cap is not None:
            lo = min(lo, cap + 1)
        l = (d - k) // 4
        for c in weight_tuples((t + s + k) // 2, lo, n):
            append(_new(Monomial, (k, l, c)))
        k += 4
    return out


def _a_exponent_bound(alpha: Degree, n: int | None = None) -> int:
    """Past this a-exponent the degree provably holds no more classes of
    the ring (n = None) or of the final page of the n-truncated theory.

    On a final page a class with vbar content needs k < 2^(n+1) - 1, and
    the only content-free class at alpha has k = -sgn - triv.  In the ring,
    for k > triv + sgn + 2 a nonzero member class has at most one vbar
    factor.  With none at all it is a pure a-power (u-exponent 0 forces
    triv = 0, k = -sgn); with one factor vbar_i the weight 2^i - 1 and the
    divisibility 2^i | l pin i to the 2-valuation of triv + 1.
    """
    t, s = alpha.triv, alpha.sgn
    if n is not None:
        return max(2 ** (n + 1) - 2, -s - t, 0)
    bound = max(t + s + 2, 0)
    if t == 0:
        bound = max(bound, -s)
    if t % 2 == 1 and t != -1:  # sparse regime candidates need t odd
        i = v2(t + 1)
        bound = max(bound, 2 ** (i + 1) - 2 - (t + s))
    return bound


def _page_basis(n: int | None, alpha: Degree) -> list[BasisEntry]:
    """Certified classes at alpha of the final page of the n-truncated
    theory; n = None is the ring itself.

    Lists the degree once, up to filtration bound + 8, where bound is
    `_a_exponent_bound`, and reads each class off `_page_lattice`.  Raises
    StabilizationFailure if a class lies past the bound.  Classes come in
    `degree_monomials` order.
    """
    bound = _a_exponent_bound(alpha, n)
    entries = []
    for x in degree_monomials(n, alpha, 0, bound + 8, n):
        lattice = _page_lattice(x, n)
        if not lattice:
            continue
        if x.k > bound:
            raise StabilizationFailure(f"final-page classes at {alpha} "
                                       f"appear past filtration {bound}")
        entries.append(_new(BasisEntry, (x, lattice, x.k > 0)))
    return entries


def basis_in_degree(alpha: Degree) -> list[BasisEntry]:
    """Certified basis of the coefficient ring in one degree, sorted by
    monomial: `_page_basis` at n = None.

    >>> [e.describe() for e in basis_in_degree(Degree(0, 0))]
    ['1']
    >>> [e.describe() for e in basis_in_degree(Degree(0, -1))]
    ['a']
    >>> [e.describe() for e in basis_in_degree(Degree(2, -2))]
    ['2*u']
    """
    return list(_basis_cached(alpha))


@functools.lru_cache(maxsize=None)
def _basis_cached(alpha: Degree) -> tuple[BasisEntry, ...]:
    return tuple(sorted(_page_basis(None, alpha)))


# ---------------------------------------------------------------------------
# quotient towers

class _QuotientIdealFields(NamedTuple):
    exponents: tuple[int, ...] = ()
    tail: int = 0


@record
class QuotientIdeal(_QuotientIdealFields):
    """Which vbar powers to kill: exponents[i] is the power on vbar_(i+1);
    0 keeps the generator.  tail = 1 kills every generator beyond the listed
    ones (truncations and integral cohomology), tail = 0 keeps them.
    """

    __slots__ = ()

    def __new__(cls, exponents: tuple[int, ...] = (),
                tail: int = 0) -> "QuotientIdeal":
        if tail not in (0, 1):
            raise ValueError("tail must be 0 or 1")
        if any(e < 0 for e in exponents):
            raise ValueError("negative exponent")
        return tuple.__new__(cls, (exponents, tail))


@record
class TowerGroup(NamedTuple):
    """One degree of an iterated quotient: the layers of its last step,
    sub (the cokernel pi(M)/x) and quot (the kernel ker(x)), as tuples of
    basis classes; the base, before any step, is all sub.  An unknown
    stage (known = False) has empty layers, each read as (-1, -1).  A
    known stage without a kernel layer is a trusted basis, on which
    further products are filtration safe.  A kernel layer is F_2, and the
    group is exact (entries an honest basis) when it has no kernel layer
    or its cokernel layer is F_2 too.
    """

    sub: tuple[BasisEntry, ...]
    quot: tuple[BasisEntry, ...]
    known: bool

    @property
    def entries(self) -> tuple[BasisEntry, ...]:
        """Both layers' classes, cokernel first."""
        return self.sub + self.quot

    @property
    def exact(self) -> bool:
        return self.known and (not self.quot
                               or all(e.torsion for e in self.sub))

    @property
    def sub_summary(self) -> tuple[int, int]:
        """(free, F_2) ranks of the cokernel layer pi(M)/x."""
        return rank_summary(self.sub) if self.known else (-1, -1)

    @property
    def quot_summary(self) -> tuple[int, int]:
        """(free, F_2) ranks of the kernel layer ker(x)."""
        return rank_summary(self.quot) if self.known else (-1, -1)

    def summarize(self) -> tuple[int, int]:
        if not self.exact:
            raise UnknownExtension(
                "group known only as layers "
                f"{self.sub_summary} / {self.quot_summary}")
        return rank_summary(self.entries)


def rank_summary(entries) -> tuple[int, int]:
    """(free rank, F_2 rank) of basis entries, read off their torsion flags."""
    flags = [e.torsion for e in entries]
    return (flags.count(False), flags.count(True))


@functools.lru_cache(maxsize=None)
def _step_constants(step: tuple[int, int]) -> tuple[Monomial, Degree, Degree]:
    """(vbar_i^e, its degree, its degree + 1) for the step (i, e): the
    multiplier of a quotient stage and the shifts of its source and of
    its kernel's source."""
    mult = vbar_monomial(*step)
    shift = mult.degree()
    return mult, shift, shift + ONE


@functools.lru_cache(maxsize=None)
def _stage_group(top: int | None, steps: tuple[tuple[int, int], ...],
                 alpha: Degree) -> TowerGroup:
    """Degree alpha of B modulo the vbar-power steps, applied in order: B
    is the ring (top = None) or BPR<top>, the classes of `blocks.assemble`
    each read as one entry (`AssembledClass.folded`).

    The last step's multiplier x reads four stages one step down, in turn:
    its cokernel's target alpha and source alpha - |x|, then its kernel's
    pair one triv lower.  The stage is unknown at the first of them that
    is not a trusted basis, and the rest are not built.  On the first step
    they are B's own classes, whose products `_multiply` checks.

    A stage depends only on B, the steps up to it and alpha, so this one
    memo serves every tower over B that shares them as a prefix.
    """
    if not steps:
        if top is None:
            return TowerGroup(_basis_cached(alpha), (), True)
        from .blocks import assemble
        return TowerGroup(tuple(c.folded(top) for c in assemble(top, alpha)),
                          (), True)
    below = steps[:-1]
    mult, shift, ker_shift = _step_constants(steps[-1])
    layers = []
    for beta in (alpha, alpha - shift, alpha - ONE, alpha - ker_shift):
        g = _stage_group(top, below, beta)
        if not g.known or g.quot:
            return TowerGroup((), (), False)
        layers.append(g.sub)
    tgt, src, ker_tgt, ker_src = layers
    sub, _ = _multiply(src, tgt, mult, top, not below)
    _, quot = _multiply(ker_src, ker_tgt, mult, top, not below)
    for e in quot:
        if not e.torsion:
            raise AssertionError(
                f"free class {e.describe()} unexpectedly in a kernel")
    return TowerGroup(sub, quot, True)


def _image_class(entry: BasisEntry, cand: BasisEntry) -> int:
    """The coefficient on the class cand of a product of the class entry
    that lands on cand's monomial; 0 when it is zero there.  The one
    product rule of the quotient towers and of `blocks.action_matrix`."""
    if entry.torsion:
        return 1 if cand.torsion else 0
    # free source: class lattice*mono lands on lattice'*mono'
    coeff = entry.lattice
    if cand.torsion:
        return coeff % 2
    q, r = divmod(coeff, cand.lattice)
    if r != 0:
        raise AssertionError(
            f"lattice mismatch {entry.describe()} -> {cand.describe()}")
    return q


def _multiply(src: tuple[BasisEntry, ...], tgt: tuple[BasisEntry, ...],
              mult: Monomial, cap: int | None = None, base: bool = False
              ) -> tuple[tuple[BasisEntry, ...], tuple[BasisEntry, ...]]:
    """Multiplication by mult from the classes src to the classes tgt, two
    trusted bases, in one pass over src: (the cokernel's classes, from
    tgt's; the kernel's classes, from src's); a class with no monomial
    maps to zero.  For base classes (base), a product that the base's page
    (cap) keeps but tgt lacks raises InternalInconsistency, the check
    `blocks.action_matrix` makes."""
    if not src:
        return tgt, ()
    classes = {e.mono: e for e in tgt}
    erased: set[BasisEntry] = set()
    torsionized: set[BasisEntry] = set()
    kernel = []
    for e in src:
        y = None if e.mono is None else e.mono.times(mult)
        cand = None if y is None else classes.get(y)
        if cand is None and base and y is not None and _page_lattice(y, cap):
            raise InternalInconsistency(
                f"product {y} of {mult} and {e.describe()} escapes the basis")
        coeff = 0 if cand is None else _image_class(e, cand)
        if coeff == 0:
            kernel.append(e)
        elif cand.torsion or coeff % 2 == 1:
            erased.add(cand)
        elif coeff != 2:
            raise AssertionError("unexpected image multiplier")
        else:
            torsionized.add(cand)
    coker = tuple(e._replace(torsion=True) if e in torsionized else e
                  for e in tgt if e not in erased)
    return coker, tuple(kernel)


def tower_group(ideal: QuotientIdeal, alpha: Degree) -> TowerGroup:
    """Groups of B modulo the ideal's listed vbar powers, at alpha: B is
    the ring for tail = 0, and for tail = 1 and m listed exponents BPR<m> =
    BPR/(vbar_(m+1), vbar_(m+2), ...) (`blocks.assemble`).  The route that
    rebuilds BPR<m> from the ring one generator at a time is the
    certificate in tests/oracles.py (`tail_tower`).
    """
    top = len(ideal.exponents) if ideal.tail else None
    steps = tuple((i, e) for i, e in enumerate(ideal.exponents, start=1)
                  if e)
    return _stage_group(top, steps, alpha)


def group_in_degree(alpha: Degree, ideal=QuotientIdeal()) -> tuple[int, int]:
    """(free rank, F2 rank) of the coefficient ring or a quotient.

    >>> group_in_degree(Degree(0, 0))
    (1, 0)
    >>> group_in_degree(Degree(0, -1))
    (0, 1)
    >>> group_in_degree(Degree(-3, 1))   # rho - 4 is below the 2/u pattern
    (0, 0)
    >>> group_in_degree(Degree(-2, 2))   # 2 rho - 4 carries 2/u, lattice 2
    (1, 0)
    """
    return tower_group(ideal, alpha).summarize()
