"""Exact integer linear algebra and finitely presented abelian groups.

A Matrix is a list of rows of Python ints plus a column count, so all
arithmetic is arbitrary precision and 0 x n and n x 0 shapes survive.  The
Smith engine tracks the unimodular transforms and their inverses, which is
what makes kernels, integer solves, image lattices, and induced maps on
subquotients one-liners downstream.

Everything is 2-local by convention: an odd integer is a unit, and the only
torsion the graded summaries admit is elementary 2-torsion (the rings under
study satisfy 2a = 0, and every torsion class is an a-multiple).  A group
with 4-torsion in a summary position is a bug upstream, and summarize()
refuses it loudly rather than rounding it away.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import operator


# ---------------------------------------------------------------------------
# matrices

class Matrix:
    """An integer matrix stored as row lists, with its column count.

    m[i, j] reads and writes one entry and m[:, j] lists a column; ==
    compares entrywise and gives a matrix of bools for all() or any().

    >>> m = to_matrix([[1, 2], [3, 4]])
    >>> m.T[0, 1], m[:, 1], m.shape
    (3, [2, 4], (2, 2))
    >>> (m == m).all(), zeros(2, 0).T.shape
    (True, (0, 2))
    """

    __slots__ = ("rows", "cols")

    def __init__(self, rows: list[list[int]], cols: int):
        self.rows = rows
        self.cols = cols

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.cols)

    @property
    def size(self) -> int:
        return len(self.rows) * self.cols

    @property
    def T(self) -> Matrix:
        if not self.rows:
            return zeros(self.cols, 0)
        return Matrix([list(col) for col in zip(*self.rows)], len(self.rows))

    def __getitem__(self, key):
        i, j = key
        if isinstance(i, slice):
            return [row[j] for row in self.rows[i]]
        return self.rows[i][j]

    def __setitem__(self, key, value: int) -> None:
        i, j = key
        self.rows[i][j] = value

    def __eq__(self, other: Matrix) -> Matrix:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} == {other.shape}")
        return Matrix([[x == y for x, y in zip(r, s)]
                       for r, s in zip(self.rows, other.rows)], self.cols)

    def all(self) -> bool:
        return all(map(all, self.rows))

    def any(self) -> bool:
        return any(map(any, self.rows))

    def sum(self) -> int:
        return sum(map(sum, self.rows))

    def __repr__(self) -> str:
        return f"Matrix({self.rows!r}, {self.cols})"


def zeros(m: int, n: int) -> Matrix:
    return Matrix([[0] * n for _ in range(m)], n)


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out.rows[i][i] = 1
    return out


def to_matrix(rows, width: int | None = None) -> Matrix:
    """Build a matrix from nested lists (or pass a Matrix through).

    Args:
        rows: list of rows, or a Matrix.
        width: required for an empty row list, where the column count is
            otherwise unknowable.
    """
    if isinstance(rows, Matrix):
        return rows
    if not rows:
        return zeros(0, 0 if width is None else width)
    out = [[int(x) for x in row] for row in rows]
    cols = len(out[0])
    if any(len(row) != cols for row in out):
        raise ValueError("ragged matrix")
    return Matrix(out, cols)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product.

    Each row of the product sums the rows of b that the nonzero entries of
    the matching row of a pick out, so the work grows with the nonzeros of
    a, not with its size; the Koszul matrices are mostly zeros.
    """
    if a.cols != len(b.rows):
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    picks = [(j, brow) for j, brow in enumerate(b.rows) if any(brow)]
    out = []
    for row in a.rows:
        acc = [0] * b.cols
        for j, brow in picks:
            x = row[j]
            if x:
                acc = list(map(operator.add, acc, map(x.__mul__, brow)))
        out.append(acc)
    return Matrix(out, b.cols)


def hstack(*mats: Matrix) -> Matrix:
    mats = [m for m in mats if m.cols] or [mats[0]]
    if len({len(m.rows) for m in mats}) != 1:
        raise ValueError("hstack with differing row counts")
    return Matrix([list(itertools.chain(*parts))
                   for parts in zip(*(m.rows for m in mats))],
                  sum(m.cols for m in mats))


def f2_relations(torsion) -> Matrix:
    """Relations making the flagged generators F_2: a column 2*e_i for each
    true flag, in order; unflagged generators stay free.

    >>> f2_relations([False, True, True])
    Matrix([[0, 0], [2, 0], [0, 2]], 2)
    """
    torsion = list(torsion)
    flagged = [i for i, t in enumerate(torsion) if t]
    out = zeros(len(torsion), len(flagged))
    for j, i in enumerate(flagged):
        out.rows[i][j] = 2
    return out


# ---------------------------------------------------------------------------
# Smith normal form

@dataclasses.dataclass
class SmithForm:
    """D = S A T with S, T unimodular; S_inv, T_inv their exact inverses.

    D is diagonal with nonnegative entries d_1 | d_2 | ... | d_r followed by
    zeros.  The nonzero diagonal is read off D once, when the form is made,
    and kept as a tuple; `rank` and `diagonal()` answer from it, so D must
    not be altered afterwards.
    """

    D: Matrix
    S: Matrix
    T: Matrix
    S_inv: Matrix
    T_inv: Matrix
    _diagonal: tuple[int, ...] = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        rows = self.D.rows
        diagonal = (rows[i][i] for i in range(min(self.D.shape)))
        self._diagonal = tuple(x for x in diagonal if x)

    @property
    def rank(self) -> int:
        return len(self._diagonal)

    def diagonal(self) -> list[int]:
        return list(self._diagonal)


def _swap_rows(rows: list[list[int]], i: int, j: int) -> None:
    rows[i], rows[j] = rows[j], rows[i]


def _swap_cols(rows: list[list[int]], i: int, j: int) -> None:
    for r in rows:
        r[i], r[j] = r[j], r[i]


def _add_rows(rows: list[list[int]], i: int, j: int, q: int) -> None:
    # row_i += q * row_j
    rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]


def _add_cols(rows: list[list[int]], i: int, j: int, q: int) -> None:
    # col_i += q * col_j
    for r in rows:
        r[i] += q * r[j]


def smith_normal_form(a) -> SmithForm:
    """Smith normal form with transforms.

    >>> f = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    >>> f.diagonal()
    [2, 2, 156]
    >>> bool((mat_mul(mat_mul(f.S, to_matrix([[2,4,4],[-6,6,12],[10,4,16]])), f.T) == f.D).all())
    True
    """
    a = to_matrix(a)
    m, n = a.shape
    d = [row[:] for row in a.rows]
    s, s_inv = identity(m).rows, identity(m).rows
    t, t_inv = identity(n).rows, identity(n).rows

    def row_addmul(i, j, q):
        _add_rows(d, i, j, q)
        _add_rows(s, i, j, q)
        _add_cols(s_inv, j, i, -q)

    def col_addmul(i, j, q):
        _add_cols(d, i, j, q)
        _add_cols(t, i, j, q)
        _add_rows(t_inv, j, i, -q)

    k = 0
    chain = 1  # divides every entry in rows and columns k onwards
    while k < m and k < n:
        # pick the nonzero entry of least magnitude as pivot, the first
        # one in row-major order; none is smaller than chain
        piv = None
        for i in range(k, m):
            mags = list(map(abs, d[i][k:]))
            low = min(filter(None, mags), default=0)
            if low and (piv is None or low < least):
                piv, least = (i, k + mags.index(low)), low
                if low == chain:
                    break
        if piv is None:
            break
        if piv[0] != k:
            _swap_rows(d, k, piv[0])
            _swap_rows(s, k, piv[0])
            _swap_cols(s_inv, k, piv[0])
        if piv[1] != k:
            _swap_cols(d, k, piv[1])
            _swap_cols(t, k, piv[1])
            _swap_rows(t_inv, k, piv[1])
        if d[k][k] < 0:
            d[k] = [-x for x in d[k]]
            s[k] = [-x for x in s[k]]
            for r in s_inv:
                r[k] = -r[k]

        dirty = False
        for i in range(k + 1, m):
            if d[i][k] != 0:
                row_addmul(i, k, -(d[i][k] // d[k][k]))
                dirty = dirty or d[i][k] != 0
        for j in range(k + 1, n):
            if d[k][j] != 0:
                col_addmul(j, k, -(d[k][j] // d[k][k]))
                dirty = dirty or d[k][j] != 0
        if dirty:
            continue  # smaller remainders appeared; re-pick pivot

        # pivot must divide the rest of the submatrix for the chain
        # condition.  Every entry there is a multiple of `chain`, so the
        # scan is needed only when the pivot does not divide chain: a unit
        # pivot never scans, nor does a repeat of the last scanned one.
        pivot = d[k][k]
        if chain % pivot:
            offender = next((i for i in range(k + 1, m)
                             if any(x % pivot for x in d[i][k + 1:])), None)
            if offender is not None:
                row_addmul(k, offender, 1)
                continue
            chain = pivot
        k += 1

    return SmithForm(Matrix(d, n), Matrix(s, m), Matrix(t, n),
                     Matrix(s_inv, m), Matrix(t_inv, n))


def kernel_basis(a) -> Matrix:
    """Basis (as columns) of the integer kernel of A; a saturated lattice.

    >>> kernel_basis([[1, 2, 3]]).shape
    (3, 2)
    >>> k = kernel_basis([[2, 4]])
    >>> [int(2 * k[0, 0] + 4 * k[1, 0])]
    [0]
    """
    f = smith_normal_form(a)
    return Matrix([row[f.rank:] for row in f.T.rows], f.T.cols - f.rank)


def image_basis(a) -> Matrix:
    """Basis (as columns) of the image lattice of A inside Z^rows."""
    f = smith_normal_form(a)
    scale = f._diagonal
    return Matrix([[x * dj for x, dj in zip(row, scale)]
                   for row in f.S_inv.rows], len(scale))


def solve_matrix(a, b) -> Matrix | None:
    """Solve A X = B over the integers; None if any column has no solution.

    >>> x = solve_matrix([[2, 0], [0, 3]], [[4], [9]])
    >>> [int(v) for v in x[:, 0]]
    [2, 3]
    >>> solve_matrix([[2]], [[3]]) is None
    True
    """
    a, b = to_matrix(a), to_matrix(b)
    if a.shape[0] != b.shape[0]:
        raise ValueError("solve shape mismatch")
    f = smith_normal_form(a)
    scale = f._diagonal
    w = zeros(a.cols, b.cols)
    for i, row in enumerate(mat_mul(f.S, b).rows):
        if i >= len(scale):
            if any(row):
                return None
            continue
        for j, x in enumerate(row):
            q, rem = divmod(x, scale[i])
            if rem != 0:
                return None
            w.rows[i][j] = q
    return mat_mul(f.T, w)


# ---------------------------------------------------------------------------
# finitely presented abelian groups

class PresGroup:
    """Z^gens modulo the column span of the relation matrix.

    >>> PresGroup(2, [[2, 0], [0, 0]]).summarize()
    (1, 1)
    >>> PresGroup(1, zeros(1, 0)).summarize()
    (1, 0)
    """

    def __init__(self, gens: int, rels=None):
        self.gens = gens
        if rels is None:
            rels = zeros(gens, 0)
        self.rels = to_matrix(rels)
        if self.rels.shape[0] != gens:
            raise ValueError(
                f"relations have {self.rels.shape[0]} rows for {gens} generators")

    @functools.cached_property
    def _smith(self) -> SmithForm:
        return smith_normal_form(self.rels)

    @functools.cached_property
    def invariant_factors(self) -> list[int]:
        """Nontrivial invariant factors (2-parts only, ascending), torsion part."""
        return sorted(d & -d for d in self._smith._diagonal if d % 2 == 0)

    @property
    def free_rank(self) -> int:
        return self.gens - self._smith.rank

    def summarize(self) -> tuple[int, int]:
        """(free_rank, f2_rank), refusing torsion of exponent > 2."""
        for d in self.invariant_factors:
            if d != 2:
                raise ArithmeticError(
                    f"torsion Z/{d} cannot be summarized as (free, F2) ranks")
        return (self.free_rank, len(self.invariant_factors))

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors


def group_from_summary(free: int, f2: int) -> PresGroup:
    """The group Z^free + (Z/2)^f2, free generators first."""
    return PresGroup(free + f2, f2_relations([False] * free + [True] * f2))


@dataclasses.dataclass
class Subquotient:
    """A subquotient of Z^n: the group (column span of cycles)/(relations).

    group.gens equals cycles.shape[1]; cycles columns are a lattice basis, so
    elements of the subquotient have unique coordinate vectors and induced
    maps are exact solves.
    """

    group: PresGroup
    cycles: Matrix  # n x group.gens


def _in_span(m: Matrix, cols: Matrix) -> bool:
    return solve_matrix(m, cols) is not None


def _cycles_modulo(g_mat: Matrix, rels_tgt: Matrix,
                   boundaries: Matrix) -> Subquotient:
    """ker(g into Z^c/rels_tgt) modulo the columns of boundaries."""
    ker = kernel_basis(hstack(g_mat, rels_tgt))
    lattice = image_basis(Matrix(ker.rows[: g_mat.cols], ker.cols))
    coords = solve_matrix(lattice, boundaries)
    if coords is None:
        raise AssertionError("boundaries escaped the cycle lattice")
    return Subquotient(PresGroup(lattice.cols, coords), lattice)


def kernel_of_map(f_mat, rels_src, rels_tgt) -> Subquotient:
    """Kernel of a map of presented groups Z^a/R_a -> Z^b/R_b.

    f_mat is b x a on generators and must be well defined
    (f * R_a inside span R_b).
    """
    f_mat = to_matrix(f_mat)
    rels_src, rels_tgt = to_matrix(rels_src), to_matrix(rels_tgt)
    if not _in_span(rels_tgt, mat_mul(f_mat, rels_src)):
        raise ValueError("map does not respect source relations")
    return _cycles_modulo(f_mat, rels_tgt, rels_src)


def cokernel_of_map(f_mat, rels_tgt) -> PresGroup:
    """Cokernel Z^b / (im f + span R_b)."""
    f_mat, rels_tgt = to_matrix(f_mat), to_matrix(rels_tgt)
    return PresGroup(f_mat.shape[0], hstack(f_mat, rels_tgt))


def homology_at(f_mat, g_mat, rels_a, rels_b, rels_c) -> Subquotient:
    """ker(g)/im(f) for presented groups A --f--> B --g--> C.

    Matrices act on generator columns; all three groups are Z^k modulo the
    column span of their relation matrix.  Raises if the data is not a well
    defined complex.
    """
    f_mat, g_mat = to_matrix(f_mat), to_matrix(g_mat)
    rels_a, rels_b, rels_c = (to_matrix(rels_a), to_matrix(rels_b),
                              to_matrix(rels_c))
    if not _in_span(rels_b, mat_mul(f_mat, rels_a)):
        raise ValueError("f does not respect relations")
    if not _in_span(rels_c, mat_mul(g_mat, rels_b)):
        raise ValueError("g does not respect relations")
    if not _in_span(rels_c, mat_mul(g_mat, f_mat)):
        raise ValueError("g o f is not zero in the target group")
    return _cycles_modulo(g_mat, rels_c, hstack(f_mat, rels_b))


def induced_map(src: Subquotient, tgt: Subquotient, chain_map) -> Matrix:
    """Matrix of the map src.group -> tgt.group induced by a chain map.

    chain_map sends the ambient Z^n of src.cycles to the ambient Z^m of
    tgt.cycles and must carry the cycle lattice into the cycle lattice.
    """
    moved = mat_mul(to_matrix(chain_map), src.cycles)
    coords = solve_matrix(tgt.cycles, moved)
    if coords is None:
        raise ValueError("chain map does not preserve cycles")
    return coords


def map_is_surjective(m, tgt: PresGroup) -> bool:
    """Whether a matrix into Z^gens/rels hits everything (2-locally)."""
    return cokernel_of_map(m, tgt.rels).is_trivial()
