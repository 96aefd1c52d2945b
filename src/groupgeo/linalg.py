"""Dense exact linear algebra over cyclotomic fields.

Matrices are immutable rectangular tuples of Cyclotomic entries.  Vectors
are plain Python lists (or tuples) of scalars; a matrix acts on a vector
with ``@``.  Elimination always picks the first row with a nonzero entry
as pivot, so every reduction is deterministic and reproducible.

Gauss-Jordan elimination updates each row only in the nonzero columns of
the pivot row, which keeps the sparse systems of the torsion and Ricci
solves cheap.  Rational entries need no branch of their own: order-1 scalars
take the cyclotomic arithmetic's own rational path.

Nothing here is floating point.  Rank, kernels and inverses are exact,
which is what makes downstream eigenvalue certification possible.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .cyclotomic import Cyclotomic, rat
from .errors import InfeasibleSystemError

Scalar = Cyclotomic
Vector = list


def as_scalar(value) -> Cyclotomic:
    return Cyclotomic._wrap(value)


class Mat:
    """An immutable matrix of exact cyclotomic scalars."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        rs = tuple(tuple(as_scalar(x) for x in row) for row in rows)
        if rs and any(len(r) != len(rs[0]) for r in rs):
            raise ValueError("ragged rows in matrix constructor")
        object.__setattr__(self, "rows", rs)

    def __setattr__(self, *_):
        raise AttributeError("Mat is immutable")

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Mat":
        z = rat(0)
        return cls([[z] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, n: int) -> "Mat":
        z, o = rat(0), rat(1)
        return cls([[o if i == j else z for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, pos):
        i, j = pos
        return self.rows[i][j]

    def __add__(self, other: "Mat") -> "Mat":
        return Mat([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat") -> "Mat":
        return Mat([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self) -> "Mat":
        return Mat([[-a for a in row] for row in self.rows])

    def __mul__(self, scalar) -> "Mat":
        s = as_scalar(scalar)
        return Mat([[a * s for a in row] for row in self.rows])

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
            cols = list(zip(*other.rows)) if other.rows else []
            return Mat([[_dot(row, c) for c in cols] for row in self.rows])
        vec = [as_scalar(x) for x in other]
        if self.ncols != len(vec):
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ vector[{len(vec)}]")
        return [_dot(row, vec) for row in self.rows]

    def transpose(self) -> "Mat":
        return Mat(list(zip(*self.rows))) if self.rows else Mat([])

    def conj_transpose(self) -> "Mat":
        return Mat([[a.conj() for a in row] for row in zip(*self.rows)]) if self.rows else Mat([])

    def trace(self) -> Cyclotomic:
        t = rat(0)
        for i in range(min(self.nrows, self.ncols)):
            t = t + self.rows[i][i]
        return t

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.rows for a in row)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        return all(a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb))

    __hash__ = None

    def hstack(self, other: "Mat") -> "Mat":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch in hstack")
        return Mat([list(ra) + list(rb) for ra, rb in zip(self.rows, other.rows)])

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Mat":
        return Mat([[self.rows[i][j] for j in col_idx] for i in row_idx])

    def __repr__(self):
        body = "\n".join("  [" + ", ".join(repr(a) for a in row) + "]" for row in self.rows)
        return f"Mat {self.nrows}x{self.ncols}\n{body}"


def _dot(a: Sequence[Cyclotomic], b: Sequence[Cyclotomic]) -> Cyclotomic:
    t = rat(0)
    for x, y in zip(a, b):
        if x and y:
            t = t + x * y
    return t


def rref(matrix: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices.

    Pivot choice is positional (first nonzero in the column), never by
    magnitude, so the result is identical on every run.
    """
    rows = [list(r) for r in matrix.rows]
    nr, nc = len(rows), matrix.ncols
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        src = next((i for i in range(r, nr) if rows[i][c]), None)
        if src is None:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        prow = rows[r]
        inv = 1 / prow[c]
        # the pivot row is zero left of c, so updates touch only its
        # nonzero columns
        nonzero = [j for j in range(c, nc) if prow[j]]
        for j in nonzero:
            prow[j] = prow[j] * inv
        for i in range(nr):
            row = rows[i]
            f = row[c]
            if i != r and f:
                for j in nonzero:
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
        r += 1
    return Mat(rows), tuple(pivots)


def _kernel_from_rref(red: Mat, pivots: Sequence[int], nc: int) -> list[Vector]:
    """One kernel vector per free column among the first ``nc`` columns of
    a reduced matrix, with a 1 in the free position."""
    pivot_set = set(pivots)
    zero, one = rat(0), rat(1)
    basis = []
    for fc in range(nc):
        if fc in pivot_set:
            continue
        v = [zero] * nc
        v[fc] = one
        for r_i, pc in enumerate(pivots):
            v[pc] = -red.rows[r_i][fc]
        basis.append(v)
    return basis


def kernel_basis(matrix: Mat) -> list[Vector]:
    """A deterministic basis of the right null space, one vector per free
    column, with a 1 in the free position."""
    red, pivots = rref(matrix)
    return _kernel_from_rref(red, pivots, matrix.ncols)


def solve_affine(matrix: Mat, rhs: Sequence) -> tuple[Vector, list[Vector]]:
    """All solutions of ``matrix @ x = rhs`` as particular + span(kernel),
    from one reduction of ``[matrix | rhs]``.

    The right-hand side comes last, so it never changes the pivots among
    the matrix's own columns and the kernel is read off the same reduction.
    The particular solution sets every free variable to zero.  Raises
    InfeasibleSystemError when the system is inconsistent.
    """
    b = [as_scalar(x) for x in rhs]
    if len(b) != matrix.nrows:
        raise ValueError("right hand side length does not match row count")
    red, pivots = rref(Mat([list(row) + [b[i]] for i, row in enumerate(matrix.rows)]))
    nc = matrix.ncols
    if pivots and pivots[-1] == nc:
        raise InfeasibleSystemError(
            f"inconsistent system: row {len(pivots) - 1} of the reduced form reads 0 = 1")
    particular = [rat(0)] * nc
    for r_i, pc in enumerate(pivots):
        particular[pc] = red.rows[r_i][nc]
    return particular, _kernel_from_rref(red, pivots, nc)


def inverse(matrix: Mat) -> Mat:
    if matrix.nrows != matrix.ncols:
        raise ValueError("only square matrices invert")
    n = matrix.nrows
    red, pivots = rref(matrix.hstack(Mat.identity(n)))
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("matrix is singular")
    return red.submatrix(range(n), range(n, 2 * n))
