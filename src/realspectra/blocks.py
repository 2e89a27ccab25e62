"""Basic and negative blocks of the truncated coefficient rings.

The Borel completion of the n-truncated ring has coefficients
BB[U^(+-1)] with U = u^(2^n), where the basic block BB collects the
final-page classes whose u-exponent lies in [0, 2^n): the submodule of
the positive cone generated over Z_(2)[a, vbar_1..vbar_n]/2a by the unit
and the twisted classes vbar_k(m) = u^(2^k m) vbar_k, 0 <= k < n,
0 < m < 2^(n-k).  The ring itself is BB[U] plus U^(-1) NB[U^(-1)]: the
negative block NB is the kernel BB' of the map BB -> F_2[a] that kills
all vbar_k and vbar_k(m) (drop the pure a-powers, keep the unit only as
its double), direct sum a rank-one dual tower in degrees -1 + k sigma,
k >= 1, one column to the left of the origin.

Along each diagonal d = (trivial) - (sign) and in each column u^l the
blocks split into catalogue modules over P = Z_(2)[vbar_1..vbar_n]:
diagonal_decompose classifies the cells from their generator lattices
and annihilator exponents and validates the match degreewise, so the
same code covers truncations no chart has been drawn for, and
lc_of_block applies the closed-form local cohomology at
J = (vbar_1..vbar_n) cellwise to produce the dual tables.  The tests
recompute NB honestly as the (a)-local cohomology of BB and compare the
assembly with the Borel completion (`gamma_a` and
`completion_comparison` in tests/oracles.py).
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .coefficients import (BasisEntry, InternalInconsistency, Monomial,
                           _first_index_above, _image_class, degree_monomials,
                           rank_summary)
from .grading import DELTA, Degree, RHO, _new, record, v2
# closed_form_state is not called here: perfbench/selftest.py checks that
# tracing rebinds it in this namespace
from .hfpss import closed_form_state, final_entry  # noqa: F401

if TYPE_CHECKING:
    from .abelian import Matrix
    from .localcoh import StandardModule


class UnclassifiedModule(InternalInconsistency):
    """A diagonal cell fits no module of the standard catalogue: a command
    exits 1 on it, as on any failed self-check."""


@record
class TowerClass(NamedTuple):
    """One F_2 class of the negative block's dual tower, at (-1, level);
    it has no monomial name."""

    level: int
    torsion = True
    lattice = 1
    mono = None

    def describe(self) -> str:
        return f"t{self.level}"


@lru_cache(maxsize=None)
def _bb_cached(n: int, alpha: Degree) -> tuple[BasisEntry, ...]:
    d = alpha.triv - alpha.sgn
    # u-exponents 0 <= l < 2^n, so d - 4(2^n - 1) <= k <= d
    entries = (final_entry(n, x) for x in
               degree_monomials(n, alpha, d - 4 * (2 ** n - 1), d, n))
    return tuple(sorted(filter(None, entries),
                        key=lambda e: (e.mono.l, e.mono.k, e.mono.c)))


def bb_basis(n: int, alpha: Degree) -> list[BasisEntry]:
    """Monomial basis of the basic block in one degree.

    Free classes carry lattice index 1 or 2 (the doubled vbar_0 twists);
    torsion classes are F_2 on the printed monomial.

    >>> [e.describe() for e in bb_basis(1, Degree(2, -2))]
    ['2*u']
    >>> [e.describe() for e in bb_basis(2, Degree(3, 3))]
    ['v2', 'v1^3']
    >>> [e.describe() for e in bb_basis(1, Degree(0, -5))]
    ['a^5']
    """
    return list(_bb_cached(n, alpha))


def _is_pure_tower(entry: BasisEntry) -> bool:
    return entry.mono.c == () and entry.mono.l == 0 and entry.lattice == 1


def bbprime_basis(n: int, alpha: Degree) -> list[BasisEntry]:
    """The kernel block BB': pure a-powers dropped, the unit doubled."""
    out = []
    for entry in _bb_cached(n, alpha):
        if _is_pure_tower(entry):
            if entry.mono.k == 0:
                out.append(BasisEntry(entry.mono, 2, False))
            continue
        out.append(entry)
    return out


def nb_basis(n: int, alpha: Degree) -> list[BasisEntry | TowerClass]:
    """Basis of the negative block: BB' plus the dual tower at -1 + k sigma.

    >>> [e.describe() for e in nb_basis(1, Degree(0, 0))]
    ['2*1']
    >>> [e.describe() for e in nb_basis(1, Degree(-1, 3))]
    ['t3']
    >>> nb_basis(1, Degree(0, -1))
    []
    """
    out: list[BasisEntry | TowerClass] = bbprime_basis(n, alpha)
    if alpha.triv == -1 and alpha.sgn >= 1:
        out.append(TowerClass(alpha.sgn))
    return out


# --- assembling the whole coefficient ring ----------------------------------

def _unit_degree(n: int) -> Degree:
    return DELTA * 2 ** (n + 1)


def _bbprime_diag_max(n: int) -> int:
    # free cells reach d = 4(2^n - 1), torsion cells d = K + 4l with
    # K <= 2^(n+1) - 2; both bounded by this
    return 3 * 2 ** (n + 1) - 6


@record
class AssembledClass(NamedTuple):
    """A block basis class translated by a power of U = u^(2^n)."""

    u_power: int
    entry: BasisEntry | TowerClass

    def folded(self, n: int) -> BasisEntry | TowerClass:
        """U^p x as the one class x u^(p 2^n); a tower class as it is."""
        x = self.entry.mono
        if x is None or not self.u_power:
            return self.entry
        x = _new(Monomial, (x.k, x.l + self.u_power * 2 ** n, x.c))
        return _new(BasisEntry, (x, self.entry.lattice, self.entry.torsion))

    def describe(self) -> str:
        body = self.entry.describe()
        if self.u_power:
            return f"U^{self.u_power} {body}"
        return body


def _block_basis(n: int, kind: str,
                 alpha: Degree) -> Sequence[BasisEntry | TowerClass]:
    """The basis of BB or NB at alpha, to be read, not altered."""
    return nb_basis(n, alpha) if kind == "nb" else _bb_cached(n, alpha)


def _translates(n: int, alpha: Degree,
                reach: int = 0) -> list[tuple[int, str, Degree]]:
    """(u-power, kind, block degree) of each U-translate that meets alpha:
    BB at alpha - k U for k >= 0 whose diagonal d has d + reach >= 0
    (reach n for local cohomology, whose rows go n below a block), then NB
    at alpha + j U for j >= 1."""
    step = _unit_degree(n)
    span = 2 ** (n + 2)   # the diagonal of U
    d = alpha.triv - alpha.sgn
    out = [(k, "bb", alpha - step * k) for k in range((d + reach) // span + 1)]
    out.extend((-j, "nb", alpha + step * j)
               for j in range(1, (_bbprime_diag_max(n) - d) // span + 1))
    return out


def assemble(n: int, alpha: Degree) -> list[AssembledClass]:
    """Basis of the n-truncated ring at alpha: BB[U] + U^(-1) NB[U^(-1)].

    >>> [c.describe() for c in assemble(1, Degree(2, -2))]
    ['2*u']
    >>> [c.describe() for c in assemble(1, Degree(-4, 4))]
    ['U^-1 2*1']
    >>> [c.describe() for c in assemble(1, Degree(-5, 5))]
    ['U^-1 t1']
    """
    return [AssembledClass(power, entry)
            for power, kind, beta in _translates(n, alpha)
            for entry in _block_basis(n, kind, beta)]


@lru_cache(maxsize=None)
def _block_ranks(n: int, kind: str, alpha: Degree) -> tuple[int, int]:
    return rank_summary(_block_basis(n, kind, alpha))


def assemble_groups(n: int, alpha: Degree) -> tuple[int, int]:
    """(free rank, F_2 rank) of the assembled coefficient ring: the ranks
    of the blocks that assemble lists, summed without listing a class.

    >>> assemble_groups(1, Degree(-4, -3))   # the Borel tower is pruned
    (0, 0)
    >>> assemble_groups(2, Degree(3, 3))
    (2, 0)
    """
    free = f2 = 0
    for _power, kind, beta in _translates(n, alpha):
        f, t = _block_ranks(n, kind, beta)
        free += f
        f2 += t
    return (free, f2)


# --- diagonal decomposition --------------------------------------------------

@record
class DiagonalCell(NamedTuple):
    """One column's catalogue module on a fixed diagonal."""

    d: int
    column: int
    module: StandardModule


def ref_degree(column: int, d: int) -> Degree:
    """Where column u^column meets diagonal d (the shift reference)."""
    return Degree(2 * column, 2 * column - d)


def _cell_candidate(n: int, d: int, l: int,
                    kind: str) -> StandardModule | None:
    from .localcoh import ideal_f2, ideal_z, p_module, pbar
    k = d - 4 * l
    if k < 0 or not 0 <= l < 2 ** n:
        return None
    shift = ref_degree(l, d)
    val = v2(l) if l else None
    if k == 0:
        if kind == "nb" and l == 0:
            return ideal_z(n, shift)
        if val is None or val >= n:
            return p_module(shift)
        return ideal_z(val, shift)
    s = _first_index_above(k) - 1   # a^k kills vbar_1 .. vbar_s
    if l == 0:
        if kind == "nb":
            return ideal_f2(s, n, shift) if s < n else None
        return pbar(min(s, n), shift)
    if s >= n or val <= s:
        return None
    return ideal_f2(s, val, shift)


@lru_cache(maxsize=None)
def _cell_index(n: int, kind: str, alpha: Degree
                ) -> dict[tuple[int, int], tuple[tuple, ...]]:
    """The monomial classes of a block degree by cell: (u-exponent,
    a-exponent) -> their sorted (c, lattice, torsion).  Tower classes
    have no cell.  Shared through a cache: read only."""
    cells: dict[tuple[int, int], list[tuple]] = {}
    for e in _block_basis(n, kind, alpha):
        if isinstance(e, BasisEntry):
            cells.setdefault((e.mono.l, e.mono.k), []).append(
                (e.mono.c, e.lattice, e.torsion))
    return {cell: tuple(sorted(gens)) for cell, gens in cells.items()}


def _validate_cell(n: int, d: int, l: int, kind: str,
                   module: StandardModule | None, probe: int) -> None:
    from .localcoh import module_gens
    mod_torsion = module is not None and module.torsion
    cell = (l, d - 4 * l)
    at = ref_degree(l, d)
    for w in range(probe + 1):
        seen = list(_cell_index(n, kind, at).get(cell, ()))
        want = [] if module is None else \
            sorted((c, lam, mod_torsion)
                   for c, lam in module_gens(module, n, at))
        if seen != want:
            raise UnclassifiedModule(
                f"diagonal {d} column u^{l} ({kind}): generators {seen} "
                f"at weight {w} do not match "
                f"{module.describe() if module else 'the empty cell'}")
        at += RHO


@lru_cache(maxsize=None)
def diagonal_decompose(n: int, d: int,
                       kind: str = "bb") -> tuple[DiagonalCell, ...]:
    """Split one diagonal of a block into catalogue modules per column.

    Classification reads the a-exponent (annihilator pattern) and the
    2-valuation of the column (lattice pattern) off the cell, then checks
    the predicted generators against the block basis at each weight from 0
    to 2^(n+1) + 4, once per diagonal (memoized); a mismatch raises
    UnclassifiedModule.

    >>> [(c.column, c.module.describe()) for c in diagonal_decompose(2, 0)]
    [(0, 'P')]
    >>> [(c.column, c.module.describe()) for c in diagonal_decompose(2, 12)]
    [(0, 'Pbar2(-12s)'), (3, '(2)P(6-6s)')]
    >>> [(c.column, c.module.describe()) for c in diagonal_decompose(1, 3)]
    [(0, 'Pbar1(-3s)')]
    """
    from .localcoh import pbar
    if kind not in ("bb", "nb"):
        raise ValueError(f"unknown block kind {kind!r}")
    cells = []
    for l in range(2 ** n):
        if d - 4 * l < 0:
            continue
        module = _cell_candidate(n, d, l, kind)
        _validate_cell(n, d, l, kind, module, 2 ** (n + 1) + 4)
        if module is not None:
            cells.append(DiagonalCell(d, l, module))
    if kind == "nb" and d <= -2:
        shift = Degree(-1, -1 - d)
        if not any(isinstance(e, TowerClass) for e in nb_basis(n, shift)):
            raise UnclassifiedModule(
                f"negative block misses its tower class on diagonal {d}")
        cells.append(DiagonalCell(d, -1, pbar(n, shift)))
    return tuple(cells)


def lc_of_block(n: int, kind: str = "bb", *, d_lo: int,
                d_hi: int) -> dict[int, list[tuple[int, int, StandardModule]]]:
    """Local cohomology table of a block at J = (vbar_1..vbar_n).

    Keys are display diagonals; values list (s, column, module) where the
    module's shift is the absolute position of its contribution: an H^s
    summand of the cell on diagonal d lands on diagonal d - s, one
    trivial suspension down per cohomological degree.
    """
    from .localcoh import lc_closed_form
    table: dict[int, list[tuple[int, int, StandardModule]]] = {}
    lo_src = d_lo if kind == "nb" else max(d_lo, 0)
    for d in range(lo_src, d_hi + n + 1):
        for cell in diagonal_decompose(n, d, kind):
            for summand in lc_closed_form(cell.module, n):
                shown = d - summand.s
                if not d_lo <= shown <= d_hi:
                    continue
                module = summand.module.shifted(Degree(-summand.s, 0))
                table.setdefault(shown, []).append(
                    (summand.s, cell.column, module))
    for row in table.values():
        row.sort(key=lambda item: (item[1], item[0]))
    return table


# --- multiplication on the classes ------------------------------------------

def action_matrix(n: int, x: Monomial, src: list[AssembledClass],
                  tgt: list[AssembledClass]) -> Matrix:
    """Matrix of multiplication by x from the classes src to tgt.

    x must keep the column (u-exponent zero), so a product stays at its
    class's power of U.  Tower classes and products that die on the final
    page map to zero.  Each entry is read by `coefficients._image_class`,
    the product rule of the quotient towers.
    Raises InternalInconsistency if a product escapes the target classes,
    so the action-closure invariant is checked on every call.
    """
    from .abelian import zeros
    where = {(c.u_power, c.entry.mono): (row, c.entry)
             for row, c in enumerate(tgt) if isinstance(c.entry, BasisEntry)}
    mat = zeros(len(tgt), len(src))
    for col, c in enumerate(src):
        if isinstance(c.entry, TowerClass):
            continue
        y = c.entry.mono.times(x)
        if final_entry(n, y) is None:
            continue
        hit = where.get((c.u_power, y))
        if hit is None:
            raise InternalInconsistency(
                f"product {y} of {x} and {c.describe()} escapes the basis")
        row, te = hit
        mat[row, col] = _image_class(c.entry, te)
    return mat

