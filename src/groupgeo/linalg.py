"""Dense exact linear algebra over cyclotomic fields.

Matrices are immutable rectangular tuples of Cyclotomic entries.  Vectors
are plain Python lists (or tuples) of scalars; a matrix acts on a vector
with ``@``, each entry of the product one fused ``dot`` from the
cyclotomic module.  The constructor keeps entries that are already
Cyclotomic as they are.

Every elimination in the package is one fraction-free Echelon, which
divides in the field only to read a row out and, on an irrational system,
once per new pivot row: rref reads out each pivot row, nullity counts the
pivots, and spectra's Krylov step reads a minimal polynomial off the first
row that reduces to its trailing columns.  Nothing here is floating point:
rank, kernels and inverses are exact, as eigenvalue certification needs.

The Ricci system and the Dirac and wave operators are group-algebra
elements sum_h M_h (x) R(h), constant nrows x ncols coefficients times
right translations, and this module alone lays out their coefficient form
{h: M_h} as rows: assemble writes the matrix on functions on K, the p-th
element of K in component i at index i*|K| + p (spectra.irreducible_blocks
reads the same coefficients in the coordinates of matrix coefficients),
and nullity counts its kernel without building it.  Such an operator
commutes with left translation, so with a constant right-hand side
curvature.solve_invariant finds a constant solution from sum_h M_h alone.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import floordiv, truediv
from typing import Iterable, Mapping, Sequence

from .cyclotomic import ONE, ZERO, Cyclotomic, dot, rat
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


class Echelon:
    """The package's one elimination: a fraction-free echelon form with
    primitive rows, over Z or over Z[zeta_N] for N the common order of the
    rows it is made for; clear writes a row as a sparse dict of integral
    coordinates, ints when every scalar is rational.  A row joins at its
    leftmost nonzero column, reduced there by integer cross-multiplication
    with that column's pivot row, a new pivot each time, so a row that
    needs more reductions than there are pivots raises RuntimeError."""

    def __init__(self, rows: Iterable[Sequence[Cyclotomic]]):
        self.pivots = {}
        self.rational = all(x.is_rational() for row in rows for x in row)
        self.content, self.exact = (gcd, floordiv) if self.rational else (_content, truediv)

    def clear(self, xs: Sequence[Cyclotomic]) -> dict:
        """The nonzero scalars of xs by position, times the lcm of their
        denominators: ints on a rational echelon, integral elements otherwise."""
        scale = lcm(*(x.den for x in xs))
        if self.rational:
            return {j: x.nums[0] * (scale // x.den) for j, x in enumerate(xs) if x}
        return {j: x * scale for j, x in enumerate(xs) if x}

    def insert(self, row: dict) -> int | None:
        """Reduce row in place and add what is left, made primitive, as a
        pivot row: its column, or None when the row reduces to zero."""
        for _ in range(len(self.pivots) + 1):
            if not row:
                return None
            c = min(row)
            if c not in self.pivots:
                if not self.rational:
                    # a gcd keeps ring factors such as 1 - zeta, so the row times 1/lead,
                    # cleared of denominators, leads with an integer for every reduction
                    inv = row[c].inverse()
                    row = {j: v * (inv * inv.den) for j, v in row.items()}
                self.pivots[c] = self._primitive(row)
                return c
            self.eliminate(row, c)
        raise RuntimeError("linalg.Echelon: a row took more reductions than "
                           f"the {len(self.pivots)} pivots; the elimination is broken")

    def eliminate(self, row: dict, c: int) -> None:
        """row <- d row - f pivot for the pivot row of column c, f / d being
        row[c] / pivot[c] cancelled by their content: clears column c."""
        pivot = self.pivots[c]
        common = self.content(row[c], pivot[c])
        f, d = self.exact(row[c], common), self.exact(pivot[c], common)
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

    def back_reduce(self) -> None:
        """Clear each pivot row at the other pivot columns, right to left,
        with pivot rows that are already clear."""
        for c in sorted(self.pivots, reverse=True):
            row = self.pivots[c]
            for k in [k for k in row if k != c and k in self.pivots]:
                self.eliminate(row, k)
            self.pivots[c] = self._primitive(row)

    def _primitive(self, row: dict) -> dict:
        g = self.content(*row.values())
        return row if g == 1 else {j: self.exact(v, g) for j, v in row.items()}


def _content(*scalars: Cyclotomic) -> int:
    """The gcd of the integer coordinates of integral elements."""
    return gcd(*(n for x in scalars for n in x.nums))


def quotient(row: dict, column: int, columns: Iterable[int]) -> list[Cyclotomic]:
    """An echelon row's entries in the given columns over its entry at
    column, as exact scalars, by one field division."""
    inv = ONE / row[column]
    return [inv * row[j] if j in row else ZERO for j in columns]


def rref(matrix: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices: every row
    joins one Echelon, the pivot rows are back-reduced, and each is divided
    by its pivot once.  The form is unique, whatever the order of reduction."""
    echelon = Echelon(matrix.rows)
    for row in matrix.rows:
        echelon.insert(echelon.clear(row))
    echelon.back_reduce()
    pivots = sorted(echelon.pivots)
    rows = [quotient(echelon.pivots[c], c, range(matrix.ncols)) for c in pivots]
    return Mat(rows + [[ZERO] * matrix.ncols] * (matrix.nrows - len(pivots))), tuple(pivots)


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
    """The kernel dimension of assemble(coeffs, group, elements), by one
    Echelon and without writing the matrix out: row i of every M_h is
    cleared by one common denominator, and the rows join element by
    element, breadth first along right multiplication by the keys, which
    keeps the fill-in near the diagonal, until the column rank is full.
    ValueError on elements not closed under the keys, as from assemble."""
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
    echelon = Echelon(row for m in coeffs.values() for row in m.rows)
    keys = [(h, j) for h in coeffs for j in range(shape.ncols)]
    comps = [[(*keys[p], v) for p, v in echelon.clear(
        [x for m in coeffs.values() for x in m.rows[i]]).items()]
        for i in range(shape.nrows)]
    for g in order:
        for entries in comps:
            echelon.insert({pos[group.mul(g, h)] * shape.ncols + j: v for h, j, v in entries})
            if len(echelon.pivots) == ncols:
                return 0
    return ncols - len(echelon.pivots)


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
