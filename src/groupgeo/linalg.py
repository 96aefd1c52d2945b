"""Dense exact linear algebra over cyclotomic fields.

Matrices are immutable rectangular tuples of Cyclotomic entries.  Vectors
are plain Python lists (or tuples) of scalars; a matrix acts on a vector
with ``@``.  Elimination always picks the first row with a nonzero entry
as pivot, so every reduction is deterministic and reproducible.

Gauss-Jordan elimination updates each row only in the nonzero columns of
the pivot row, which keeps the sparse systems of the torsion and Ricci
solves cheap.  Each update is one fused ``submul`` and each entry of a
product one fused ``dot``, from the cyclotomic module: on rational entries,
which the torsion and Ricci systems are throughout, they build one scalar
per step and sum a row-by-column product as integers before reducing once.
The constructor keeps entries that are already Cyclotomic as they are.

Nothing here is floating point.  Rank, kernels and inverses are exact,
which is what makes downstream eigenvalue certification possible.

The Ricci system and the Dirac and wave operators are group-algebra
elements sum_h M_h (x) R(h), constant nrows x ncols coefficients times
right translations, and this module alone lays out their coefficient form
{h: M_h} as rows: assemble writes the matrix on functions on K, the p-th
element of K in component i at index i*|K| + p (spectra.irreducible_blocks
reads the same coefficients in the coordinates of matrix coefficients),
and nullity counts its kernel, for rational coefficients, without
building it.  Such an operator commutes with left translation, so with a
constant right-hand side curvature.solve_invariant finds a constant
solution from sum_h M_h alone.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .cyclotomic import ONE, ZERO, Cyclotomic, dot, rat, submul
from .errors import InfeasibleSystemError
from .groups import FiniteGroup


class Mat:
    """An immutable matrix of exact cyclotomic scalars."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        rs = tuple(tuple([x if type(x) is Cyclotomic else rat(x) for x in row])
                   for row in rows)
        if rs and any(len(r) != len(rs[0]) for r in rs):
            raise ValueError("ragged rows in matrix constructor")
        object.__setattr__(self, "rows", rs)

    def __setattr__(self, *_):
        raise AttributeError("Mat is immutable")

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Mat":
        return cls([[ZERO] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, pos):
        i, j = pos
        return self.rows[i][j]

    def _same_shape(self, other: "Mat", op: str) -> None:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} {op} "
                             f"{other.nrows}x{other.ncols}")

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other, "+")
        return Mat([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other, "-")
        return Mat([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self) -> "Mat":
        return Mat([[-a for a in row] for row in self.rows])

    def __mul__(self, scalar) -> "Mat":
        s = rat(scalar)
        return Mat([[a * s for a in row] for row in self.rows])

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
            cols = list(zip(*other.rows)) if other.rows else []
            return Mat([[dot(row, c) for c in cols] for row in self.rows])
        vec = [rat(x) for x in other]
        if self.ncols != len(vec):
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ vector[{len(vec)}]")
        return [dot(row, vec) for row in self.rows]

    def transpose(self) -> "Mat":
        return Mat(list(zip(*self.rows))) if self.rows else Mat([])

    def conj_transpose(self) -> "Mat":
        return Mat([[a.conj() for a in row] for row in zip(*self.rows)]) if self.rows else Mat([])

    def trace(self) -> Cyclotomic:
        return sum((self.rows[i][i] for i in range(min(self.nrows, self.ncols))), ZERO)

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
                    row[j] = submul(row[j], f, prow[j])
        pivots.append(c)
        r += 1
    return Mat(rows), tuple(pivots)


def _kernel_from_rref(red: Mat, pivots: Sequence[int], nc: int) -> list[list]:
    """One kernel vector per free column among the first ``nc`` columns of
    a reduced matrix, with a 1 in the free position."""
    pivot_set = set(pivots)
    basis = []
    for fc in range(nc):
        if fc in pivot_set:
            continue
        v = [ZERO] * nc
        v[fc] = ONE
        for r_i, pc in enumerate(pivots):
            v[pc] = -red.rows[r_i][fc]
        basis.append(v)
    return basis


def kernel_basis(matrix: Mat) -> list[list]:
    """A deterministic basis of the right null space, one vector per free
    column, with a 1 in the free position."""
    red, pivots = rref(matrix)
    return _kernel_from_rref(red, pivots, matrix.ncols)


def solve_affine(matrix: Mat, rhs: Sequence) -> tuple[list, list[list]]:
    """All solutions of ``matrix @ x = rhs`` as particular + span(kernel),
    from one reduction of ``[matrix | rhs]``.

    The right-hand side comes last, so it never changes the pivots among
    the matrix's own columns and the kernel is read off the same reduction.
    The particular solution sets every free variable to zero.  Raises
    InfeasibleSystemError when the system is inconsistent.
    """
    b = [rat(x) for x in rhs]
    if len(b) != matrix.nrows:
        raise ValueError("right hand side length does not match row count")
    red, pivots = rref(Mat([list(row) + [b[i]] for i, row in enumerate(matrix.rows)]))
    nc = matrix.ncols
    if pivots and pivots[-1] == nc:
        raise InfeasibleSystemError(
            f"inconsistent system: row {len(pivots) - 1} of the reduced form reads 0 = 1")
    particular = [ZERO] * nc
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


# -- left-covariant operators in coefficient form ----------------------------

def assemble(coeffs: Mapping[int, Mat], group: FiniteGroup,
             elements: Sequence[int] | None = None) -> Mat:
    """The matrix of sum_h coeffs[h] (x) R(h), each coeffs[h] nrows x ncols,
    on the functions on elements (by default all of G), written entry by
    entry: entry ((i, g), (j, gh)) is coeffs[h][i, j].  elements must be
    closed under right multiplication by every h, such as a subgroup
    holding every h.
    """
    if elements is None:
        elements = range(group.order)
    pos = {g: p for p, g in enumerate(elements)}
    m = len(elements)
    shape = next(iter(coeffs.values()))
    rows = [[ZERO] * (shape.ncols * m) for _ in range(shape.nrows * m)]
    for h, block in coeffs.items():
        for p, g in enumerate(elements):
            q = pos.get(group.mul(g, h))
            if q is None:
                raise ValueError("elements are not closed under right "
                                 f"multiplication by {group.label(h)}")
            for i, coeff_row in enumerate(block.rows):
                row = rows[i * m + p]
                for j, w in enumerate(coeff_row):
                    row[j * m + q] = w
    return Mat(rows)


def nullity(coeffs: Mapping[int, Mat], group: FiniteGroup, elements: Sequence[int]) -> int:
    """The kernel dimension of assemble(coeffs, group, elements) for
    rational coefficients, by fraction-free elimination over the integers:
    row i of every M_h is cleared by one common denominator, and the rows
    join an echelon form element by element, breadth first along right
    multiplication by the keys, which keeps the fill-in near the diagonal.
    ValueError on elements not closed under the keys, as from assemble,
    and on an irrational coefficient.  Each reduction uses a distinct pivot,
    so a row that needs more raises RuntimeError instead of looping."""
    shape = next(iter(coeffs.values()))
    ncols = shape.ncols * len(elements)
    members = set(elements)
    order, pos, k = [], {}, 0
    for start in elements:
        if start not in pos:
            pos[start] = len(order)
            order.append(start)
        while k < len(order):
            for h in coeffs:
                gh = group.mul(order[k], h)
                if gh not in members:
                    raise ValueError("elements are not closed under right "
                                     f"multiplication by {group.label(h)}")
                if gh not in pos:
                    pos[gh] = len(order)
                    order.append(gh)
            k += 1
    comps = []
    for i in range(shape.nrows):
        row = [(h, j, x.as_fraction()) for h, m in coeffs.items() for j, x in enumerate(m.rows[i])]
        scale = lcm(*(x.denominator for _, _, x in row))
        comps.append([(h, j, int(x * scale)) for h, j, x in row if x])
    pivots: dict[int, dict[int, int]] = {}
    for g in order:
        for entries in comps:
            row = {pos[group.mul(g, h)] * shape.ncols + j: v for h, j, v in entries}
            # reduced in place by integer cross-multiplication, then a new
            # pivot row is divided by its content
            reductions = 0
            while row:
                c = min(row)
                if c not in pivots:
                    content = gcd(*row.values())
                    pivots[c] = {j: v // content for j, v in row.items()}
                    if len(pivots) == ncols:
                        return 0
                    break
                reductions += 1
                if reductions > len(pivots):
                    raise RuntimeError("linalg.nullity: a row took more reductions than "
                                       f"the {len(pivots)} pivots; the elimination is broken")
                pivot = pivots[c]
                common = gcd(row[c], pivot[c])
                f, d = row[c] // common, pivot[c] // common
                if d != 1:
                    for j in row:
                        row[j] *= d
                for j, v in pivot.items():
                    # f * v is nonzero, so a zero result was an entry of row
                    w = row.get(j, 0) - f * v
                    if w:
                        row[j] = w
                    else:
                        del row[j]
    return ncols - len(pivots)


def same_element(x: Mapping[int, Mat], y: Mapping[int, Mat]) -> bool:
    """Whether two coefficient dicts are one group-algebra element: distinct
    h fill distinct entries, so every coefficient must agree, an h missing
    from a dict counting as a zero coefficient."""
    return all(x[h] == y[h] if h in x and h in y else (x[h] if h in x else y[h]).is_zero()
               for h in x.keys() | y.keys())


def is_hermitian(coeffs: Mapping[int, Mat], group: FiniteGroup) -> bool:
    """Whether sum_h M_h (x) R(h) equals its conjugate transpose
    sum_h M_h^dagger (x) R(h^-1), that is M_{h^-1} = M_h^dagger for every h."""
    return same_element(coeffs, {group.inv(h): m.conj_transpose() for h, m in coeffs.items()})
