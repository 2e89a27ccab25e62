"""Exact integer linear algebra and finitely presented abelian groups.

Matrices are numpy arrays with dtype=object holding Python ints, so all
arithmetic is arbitrary precision.  The Smith engine tracks the unimodular
transforms and their inverses, which is what makes kernels, integer solves,
image lattices, and induced maps on subquotients one-liners downstream.

Everything is 2-local by convention: an odd integer is a unit, and the only
torsion the graded summaries admit is elementary 2-torsion (the rings under
study satisfy 2a = 0, and every torsion class is an a-multiple).  A group
with 4-torsion in a summary position is a bug upstream, and summarize()
refuses it loudly rather than rounding it away.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np


# ---------------------------------------------------------------------------
# matrix helpers (dtype=object everywhere)

def zeros(m: int, n: int) -> np.ndarray:
    out = np.empty((m, n), dtype=object)
    out[...] = 0
    return out


def identity(n: int) -> np.ndarray:
    out = zeros(n, n)
    for i in range(n):
        out[i, i] = 1
    return out


def to_matrix(rows, width: int | None = None) -> np.ndarray:
    """Build an object matrix from nested lists (or pass an array through).

    Args:
        rows: list of rows, or an ndarray.
        width: required for an empty row list, where the column count is
            otherwise unknowable.
    """
    if isinstance(rows, np.ndarray):
        if rows.dtype == object:
            return rows
        return rows.astype(object)
    if not rows:
        return zeros(0, 0 if width is None else width)
    out = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        if len(row) != out.shape[1]:
            raise ValueError("ragged matrix")
        for j, x in enumerate(row):
            out[i, j] = int(x)
    return out


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with explicit loops (np.dot mishandles empty object
    arrays)."""
    m, p = a.shape
    p2, n = b.shape
    if p != p2:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    out = zeros(m, n)
    for i in range(m):
        for j in range(n):
            s = 0
            for k in range(p):
                s += a[i, k] * b[k, j]
            out[i, j] = s
    return out


def hstack(*mats: np.ndarray) -> np.ndarray:
    mats = [m for m in mats if m.shape[1] > 0] or [mats[0]]
    rows = {m.shape[0] for m in mats}
    if len(rows) != 1:
        raise ValueError("hstack with differing row counts")
    return np.concatenate(mats, axis=1) if len(mats) > 1 else mats[0].copy()


def vstack(*mats: np.ndarray) -> np.ndarray:
    mats = [m for m in mats if m.shape[0] > 0] or [mats[0]]
    cols = {m.shape[1] for m in mats}
    if len(cols) != 1:
        raise ValueError("vstack with differing column counts")
    return np.concatenate(mats, axis=0) if len(mats) > 1 else mats[0].copy()


# ---------------------------------------------------------------------------
# Smith normal form

@dataclasses.dataclass
class SmithForm:
    """D = S A T with S, T unimodular; S_inv, T_inv their exact inverses.

    D is diagonal with nonnegative entries d_1 | d_2 | ... | d_r followed by
    zeros.
    """

    D: np.ndarray
    S: np.ndarray
    T: np.ndarray
    S_inv: np.ndarray
    T_inv: np.ndarray

    @property
    def rank(self) -> int:
        r = 0
        for i in range(min(self.D.shape)):
            if self.D[i, i] != 0:
                r += 1
        return r

    def diagonal(self) -> list[int]:
        return [self.D[i, i] for i in range(min(self.D.shape))
                if self.D[i, i] != 0]


def smith_normal_form(a) -> SmithForm:
    """Smith normal form with transforms.

    >>> f = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    >>> f.diagonal()
    [2, 2, 156]
    >>> bool((mat_mul(mat_mul(f.S, to_matrix([[2,4,4],[-6,6,12],[10,4,16]])), f.T) == f.D).all())
    True
    """
    d = to_matrix(a).copy()
    m, n = d.shape
    s, s_inv = identity(m), identity(m)
    t, t_inv = identity(n), identity(n)

    def row_swap(i, j):
        d[[i, j], :] = d[[j, i], :]
        s[[i, j], :] = s[[j, i], :]
        s_inv[:, [i, j]] = s_inv[:, [j, i]]

    def col_swap(i, j):
        d[:, [i, j]] = d[:, [j, i]]
        t[:, [i, j]] = t[:, [j, i]]
        t_inv[[i, j], :] = t_inv[[j, i], :]

    def row_addmul(i, j, q):
        # row_i += q * row_j
        d[i, :] += q * d[j, :]
        s[i, :] += q * s[j, :]
        s_inv[:, j] -= q * s_inv[:, i]

    def col_addmul(i, j, q):
        # col_i += q * col_j
        d[:, i] += q * d[:, j]
        t[:, i] += q * t[:, j]
        t_inv[j, :] -= q * t_inv[i, :]

    def row_negate(i):
        d[i, :] *= -1
        s[i, :] *= -1
        s_inv[:, i] *= -1

    k = 0
    while k < m and k < n:
        # pick the nonzero entry of least magnitude as pivot
        piv = None
        for i in range(k, m):
            for j in range(k, n):
                if d[i, j] != 0 and (piv is None
                                     or abs(d[i, j]) < abs(d[piv[0], piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != k:
            row_swap(k, piv[0])
        if piv[1] != k:
            col_swap(k, piv[1])
        if d[k, k] < 0:
            row_negate(k)

        dirty = False
        for i in range(k + 1, m):
            if d[i, k] != 0:
                row_addmul(i, k, -(d[i, k] // d[k, k]))
                dirty = dirty or d[i, k] != 0
        for j in range(k + 1, n):
            if d[k, j] != 0:
                col_addmul(j, k, -(d[k, j] // d[k, k]))
                dirty = dirty or d[k, j] != 0
        if dirty:
            continue  # smaller remainders appeared; re-pick pivot

        # pivot must divide the rest of the submatrix for the chain condition
        offender = None
        for i in range(k + 1, m):
            for j in range(k + 1, n):
                if d[i, j] % d[k, k] != 0:
                    offender = (i, j)
                    break
            if offender:
                break
        if offender:
            row_addmul(k, offender[0], 1)
            continue
        k += 1

    return SmithForm(d, s, t, s_inv, t_inv)


def kernel_basis(a) -> np.ndarray:
    """Basis (as columns) of the integer kernel of A; a saturated lattice.

    >>> kernel_basis([[1, 2, 3]]).shape
    (3, 2)
    >>> k = kernel_basis([[2, 4]])
    >>> [int(2 * k[0, 0] + 4 * k[1, 0])]
    [0]
    """
    a = to_matrix(a)
    f = smith_normal_form(a)
    return f.T[:, f.rank:]


def image_basis(a) -> np.ndarray:
    """Basis (as columns) of the image lattice of A inside Z^rows."""
    a = to_matrix(a)
    f = smith_normal_form(a)
    out = zeros(a.shape[0], f.rank)
    for j in range(f.rank):
        for i in range(a.shape[0]):
            out[i, j] = f.S_inv[i, j] * f.D[j, j]
    return out


def solve_matrix(a, b) -> np.ndarray | None:
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
    rhs = mat_mul(f.S, b)
    w = zeros(a.shape[1], b.shape[1])
    r = f.rank
    for j in range(b.shape[1]):
        for i in range(a.shape[0]):
            if i < r:
                q, rem = divmod(rhs[i, j], f.D[i, i])
                if rem != 0:
                    return None
                if i < a.shape[1]:
                    w[i, j] = q
            elif rhs[i, j] != 0:
                return None
    return mat_mul(f.T, w)


# ---------------------------------------------------------------------------
# finitely presented abelian groups

class PresGroup:
    """Z^gens modulo the column span of the relation matrix.

    >>> PresGroup(2, [[2, 0], [0, 0]]).summarize()
    (1, 1)
    >>> PresGroup(1, to_matrix([], width=0).reshape(1, 0)).summarize()
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
        out = []
        for di in self._smith.diagonal():
            two = 1
            while di % 2 == 0:
                two *= 2
                di //= 2
            if two > 1:
                out.append(two)
        return sorted(out)

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
    rels = zeros(free + f2, f2)
    for j in range(f2):
        rels[free + j, j] = 2
    return PresGroup(free + f2, rels)


@dataclasses.dataclass
class Subquotient:
    """A subquotient of Z^n: the group (column span of cycles)/(relations).

    group.gens equals cycles.shape[1]; cycles columns are a lattice basis, so
    elements of the subquotient have unique coordinate vectors and induced
    maps are exact solves.
    """

    group: PresGroup
    cycles: np.ndarray  # n x group.gens


def _in_span(m: np.ndarray, cols: np.ndarray) -> bool:
    return solve_matrix(m, cols) is not None


def kernel_of_map(f_mat, rels_src, rels_tgt) -> Subquotient:
    """Kernel of a map of presented groups Z^a/R_a -> Z^b/R_b.

    f_mat is b x a on generators and must be well defined
    (f * R_a inside span R_b).
    """
    f_mat = to_matrix(f_mat)
    rels_src, rels_tgt = to_matrix(rels_src), to_matrix(rels_tgt)
    if not _in_span(rels_tgt, mat_mul(f_mat, rels_src)):
        raise ValueError("map does not respect source relations")
    stacked = hstack(f_mat, rels_tgt) if rels_tgt.shape[1] else f_mat
    ker = kernel_basis(stacked)[: f_mat.shape[1], :]
    lattice = image_basis(ker)  # basis of the cycle subgroup of Z^a
    rel_coords = solve_matrix(lattice, rels_src)
    if rel_coords is None:
        raise AssertionError("source relations escaped the kernel lattice")
    return Subquotient(PresGroup(lattice.shape[1], rel_coords), lattice)


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

    stacked = hstack(g_mat, rels_c) if rels_c.shape[1] else g_mat
    ker = kernel_basis(stacked)[: g_mat.shape[1], :]
    lattice = image_basis(ker)
    boundaries = hstack(f_mat, rels_b)
    coords = solve_matrix(lattice, boundaries)
    if coords is None:
        raise AssertionError("boundaries escaped the cycle lattice")
    return Subquotient(PresGroup(lattice.shape[1], coords), lattice)


def induced_map(src: Subquotient, tgt: Subquotient, chain_map) -> np.ndarray:
    """Matrix of the map src.group -> tgt.group induced by a chain map.

    chain_map sends the ambient Z^n of src.cycles to the ambient Z^m of
    tgt.cycles and must carry the cycle lattice into the cycle lattice.
    """
    chain_map = to_matrix(chain_map)
    moved = mat_mul(chain_map, src.cycles)
    coords = solve_matrix(tgt.cycles, moved)
    if coords is None:
        raise ValueError("chain map does not preserve cycles")
    return coords


def map_is_surjective(m, tgt: PresGroup) -> bool:
    """Whether a matrix into Z^gens/rels hits everything (2-locally)."""
    return cokernel_of_map(to_matrix(m), tgt.rels).is_trivial()
