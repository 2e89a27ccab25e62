"""Exact integer linear algebra and finitely presented abelian groups.

A Matrix is a list of rows of Python ints plus a column count, so all
arithmetic is arbitrary precision and 0 x n and n x 0 shapes survive.  The
Smith engine gives D = S A T with the unimodular S and T and the inverse of
S; each job built on it has one routine: `kernel_basis`, `image_basis`,
`solve_matrix`, and, for subquotients, `CochainComplex.homology` and
`induced_map`.  The engine logs its row and column operations and builds
each transform from the log the first time it is read, so a caller pays
only for the transforms it uses; a transform once read is shared and must
not be altered.

Everything is 2-local by convention: an odd integer is a unit, and the only
torsion the graded summaries admit is elementary 2-torsion (the rings under
study satisfy 2a = 0, and every torsion class is an a-multiple).  A group
with 4-torsion in a summary position is a bug upstream, and summarize()
refuses it loudly rather than rounding it away.
"""

from __future__ import annotations

import functools
import itertools
import operator


# ---------------------------------------------------------------------------
# matrices

class Matrix:
    """An integer matrix stored as row lists, with its column count.

    m[i, j] reads and writes one entry and m[:, j] lists a column; ==
    is True when shapes and entries agree, and any() whether an entry is
    nonzero.

    >>> m = to_matrix([[1, 2], [3, 4]])
    >>> m.T[0, 1], m[:, 1], m.shape
    (3, [2, 4], (2, 2))
    >>> m == m, m == m.T, zeros(2, 0).T.shape
    (True, False, (0, 2))
    """

    __slots__ = ("rows", "cols")

    def __init__(self, rows: list[list[int]], cols: int):
        self.rows = rows
        self.cols = cols

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.cols)

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.cols == other.cols and self.rows == other.rows

    def any(self) -> bool:
        return any(map(any, self.rows))

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

class SmithForm:
    """D = S A T with S, T unimodular; S_inv the exact inverse of S.

    D is diagonal with nonnegative entries d_1 | d_2 | ... | d_r followed by
    zeros.  The nonzero diagonal d_1 .. d_r is read off D once, when the
    form is made, and kept as the tuple `diagonal`; `rank` answers from
    it, so D must not be altered afterwards.

    The reduction logs its elementary row and column operations instead of
    applying them to three transforms.  Each of S, T and S_inv is built
    from that log the first time it is read and then kept, so a caller
    pays only for the ones it reads, and must not alter them.
    """

    def __init__(self, D: Matrix, row_ops: list, col_ops: list):
        self.D = D
        self._row_ops = row_ops
        self._col_ops = col_ops
        rows = D.rows
        diagonal = (rows[i][i] for i in range(min(D.shape)))
        self.diagonal = tuple(x for x in diagonal if x)

    @property
    def rank(self) -> int:
        return len(self.diagonal)

    @functools.cached_property
    def S(self) -> Matrix:
        return _replay(self._row_ops, len(self.D.rows))

    @functools.cached_property
    def T(self) -> Matrix:
        return _replay(self._col_ops, self.D.cols).T

    @functools.cached_property
    def S_inv(self) -> Matrix:
        return _replay_inverse(self._row_ops, len(self.D.rows)).T


# one logged operation on rows (or on columns): (_SWAP, i, j, 0) swaps i
# and j, (_NEGATE, i, i, -1) negates i, (_ADD, i, j, q) adds q times j to i
_SWAP, _NEGATE, _ADD = range(3)


def _replay(ops: list, size: int) -> Matrix:
    """The logged operations, in order, on the rows of the identity.

    The row log gives S; the column log gives the transpose of T.
    """
    rows = identity(size).rows
    for op, i, j, q in ops:
        if op == _ADD:
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
        elif op == _SWAP:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    return Matrix(rows, size)


def _replay_inverse(ops: list, size: int) -> Matrix:
    """The inverse operations, in order, on the rows of the identity.

    The row log gives the transpose of S_inv.  An inverse multiplies from
    the other side, so adding q times j to i is undone by adding -q times
    i to j.
    """
    return _replay([(op, j, i, -q) if op == _ADD else (op, i, j, q)
                    for op, i, j, q in ops], size)


def smith_normal_form(a) -> SmithForm:
    """Smith normal form with transforms.

    An input already in Smith form comes back as a copy with an empty
    operation log: each pivot is already in place and divides the rest.

    >>> f = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    >>> f.diagonal
    (2, 2, 156)
    >>> mat_mul(mat_mul(f.S, to_matrix([[2,4,4],[-6,6,12],[10,4,16]])), f.T) == f.D
    True
    """
    a = to_matrix(a)
    m, n = a.shape
    d = [row[:] for row in a.rows]
    row_ops: list[tuple[int, int, int, int]] = []
    col_ops: list[tuple[int, int, int, int]] = []
    k = 0
    chain = 1  # divides every entry in rows and columns k onwards
    while k < m and k < n:
        # pick the nonzero entry of least magnitude as pivot, the first
        # one in row-major order; none is smaller than chain.  A row's
        # magnitudes are listed only when it holds a new least one.
        piv = None
        for i in range(k, m):
            row = d[i]
            low = min(map(abs, filter(None, row[k:])), default=0)
            if low and (piv is None or low < least):
                piv, least = (i, k + list(map(abs, row[k:])).index(low)), low
                if low == chain:
                    break
        if piv is None:
            break
        pi, pj = piv
        if pi != k:
            d[k], d[pi] = d[pi], d[k]
            row_ops.append((_SWAP, k, pi, 0))
        # rows above k are zero from column k on, so column operations
        # need only rows k onwards
        if pj != k:
            for r in d[k:]:
                r[k], r[pj] = r[pj], r[k]
            col_ops.append((_SWAP, k, pj, 0))
        if d[k][k] < 0:
            d[k] = [-x for x in d[k]]
            row_ops.append((_NEGATE, k, k, -1))

        top = d[k]
        pivot = top[k]
        dirty = False
        for i in range(k + 1, m):
            x = d[i][k]
            if x:
                q = -(x // pivot)
                d[i] = [y + q * z for y, z in zip(d[i], top)]
                row_ops.append((_ADD, i, k, q))
                dirty = dirty or d[i][k] != 0
        for j in range(k + 1, n):
            x = top[j]
            if x:
                q = -(x // pivot)
                for r in d[k:]:
                    r[j] += q * r[k]
                col_ops.append((_ADD, j, k, q))
                dirty = dirty or top[j] != 0
        if dirty:
            continue  # smaller remainders appeared; re-pick pivot

        # pivot must divide the rest of the submatrix for the chain
        # condition.  Every entry there is a multiple of `chain`, so the
        # scan is needed only when the pivot does not divide chain: a unit
        # pivot never scans, nor does a repeat of the last scanned one.
        if chain % pivot:
            offender = next((i for i in range(k + 1, m)
                             if any(x % pivot for x in d[i][k + 1:])), None)
            if offender is not None:
                d[k] = [x + y for x, y in zip(top, d[offender])]
                row_ops.append((_ADD, k, offender, 1))
                continue
            chain = pivot
        k += 1

    return SmithForm(Matrix(d, n), row_ops, col_ops)


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
    """Basis (as columns) of the image lattice of A inside Z^rows: the
    first rank columns of S^-1 D.

    >>> image_basis([[2, 4], [0, 0]])
    Matrix([[2], [0]], 1)
    """
    f = smith_normal_form(a)
    scale = f.diagonal
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
    if len(a.rows) != len(b.rows):
        raise ValueError("solve shape mismatch")
    f = smith_normal_form(a)
    scale = f.diagonal
    w = zeros(f.D.cols, b.cols)
    # an empty operation log means S (or T) is the identity
    sb = mat_mul(f.S, b) if f._row_ops else b
    for i, row in enumerate(sb.rows):
        if i >= len(scale):
            if any(row):
                return None
            continue
        d, out = scale[i], w.rows[i]
        for j, x in enumerate(row):
            if x:
                q, rem = divmod(x, d)
                if rem:
                    return None
                out[j] = q
    return mat_mul(f.T, w) if f._col_ops else w


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
        return sorted(d & -d for d in self._smith.diagonal if d % 2 == 0)

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


class Subquotient:
    """A subquotient of Z^n: the group (column span of cycles)/(relations).

    group.gens equals cycles.shape[1]; cycles columns are a lattice basis, so
    elements of the subquotient have unique coordinate vectors and induced
    maps are exact solves against `cycles`.
    """

    __slots__ = ("group", "cycles")

    def __init__(self, group: PresGroup, cycles: Matrix):
        self.group = group
        self.cycles = cycles  # n x group.gens


def _in_span(m: Matrix, cols: Matrix) -> bool:
    if len(m.rows) != len(cols.rows):
        raise ValueError("solve shape mismatch")
    # zero lies in every span: no Smith form needed
    return not cols.any() or solve_matrix(m, cols) is not None


def _cycles_modulo(g_mat: Matrix, rels_tgt: Matrix,
                   boundaries: Matrix) -> Subquotient:
    """ker(g into Z^c/rels_tgt) modulo the columns of boundaries."""
    ker = kernel_basis(hstack(g_mat, rels_tgt))
    lattice = image_basis(Matrix(ker.rows[: g_mat.cols], ker.cols))
    coords = solve_matrix(lattice, boundaries)
    if coords is None:
        raise AssertionError("boundaries escaped the cycle lattice")
    return Subquotient(PresGroup(lattice.cols, coords), lattice)


def cokernel_of_map(f_mat, rels_tgt) -> PresGroup:
    """Cokernel Z^b / (im f + span R_b)."""
    f_mat, rels_tgt = to_matrix(f_mat), to_matrix(rels_tgt)
    return PresGroup(f_mat.shape[0], hstack(f_mat, rels_tgt))


class CochainComplex:
    """C^0 --d^0--> C^1 --> ... --> C^m of presented groups.

    maps[j] is d^j on generator columns and rels[j] presents C^j as Z^k
    modulo its column span, so there is one more relation matrix than
    maps.  The complex is checked once, when it is made: each map must
    respect the relations, and each composite of two consecutive maps must
    vanish in its target group, in the order d^0, d^1, d^1 d^0, d^2,
    d^2 d^1, ...  A failure raises ValueError naming d^0 "f" and every
    later map "g".  The complex keeps its maps and relations, which must
    not be altered, so that every homology(s) reads the checked data.

    >>> c = CochainComplex([[[2]], [[0]]], [zeros(1, 0)] * 3)
    >>> [c.homology(s).group.summarize() for s in range(3)]
    [(0, 0), (0, 1), (1, 0)]
    """

    def __init__(self, maps, rels):
        self.maps = [to_matrix(m) for m in maps]
        self.rels = [to_matrix(r) for r in rels]
        if len(self.rels) != len(self.maps) + 1:
            raise ValueError(f"{len(self.maps)} maps need "
                             f"{len(self.maps) + 1} relation matrices")
        for j, d in enumerate(self.maps):
            if not _in_span(self.rels[j + 1], mat_mul(d, self.rels[j])):
                raise ValueError(
                    f"{'g' if j else 'f'} does not respect relations")
            if j and not _in_span(self.rels[j + 1],
                                  mat_mul(d, self.maps[j - 1])):
                raise ValueError("g o f is not zero in the target group")

    def homology(self, s: int) -> Subquotient:
        """ker(d^s)/im(d^(s-1)) at C^s; the maps beyond either end are
        zero."""
        if not 0 <= s < len(self.rels):
            raise ValueError(f"no term C^{s} in a complex of "
                             f"{len(self.rels)} terms")
        dim = len(self.rels[s].rows)
        last = s == len(self.maps)
        into = self.maps[s - 1] if s else zeros(dim, 0)
        out = zeros(0, dim) if last else self.maps[s]
        rels_out = zeros(0, 0) if last else self.rels[s + 1]
        return _cycles_modulo(out, rels_out, hstack(into, self.rels[s]))


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
