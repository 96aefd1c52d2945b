"""Exact linear algebra over cyclotomic fields."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from groupgeo.cyclotomic import Cyclotomic, cyclo, rat
from groupgeo.errors import InfeasibleSystemError
from groupgeo.linalg import (
    Mat,
    inverse,
    kernel_basis,
    rref,
    solve_affine,
)
from oracles import FractionCyclotomic, eval_poly, kron, oracle_rref, rank, vec_is_zero


def _random_mat(rng, n, m, order=6):
    return Mat([[rat(rng.randint(-3, 3)) + cyclo(order) * rng.randint(-1, 1)
                 for _ in range(m)] for _ in range(n)])


def test_constructors_and_shape():
    a = Mat([[1, 2], [3, 4]])
    assert (a.nrows, a.ncols) == (2, 2)
    assert a[0, 1] == rat(2)
    assert Mat.zeros(2, 3).is_zero()
    assert Mat.identity(2) == Mat([[1, 0], [0, 1]])
    assert Mat.identity(2) @ a == a
    assert a @ Mat.identity(2) == a


def test_matmul_and_vector_action():
    a = Mat([[1, 2], [3, 4]])
    b = Mat([[0, 1], [1, 0]])
    assert a @ b == Mat([[2, 1], [4, 3]])
    # matrix times sequence gives a tuple of scalars
    v = a @ [1, 1]
    assert list(v) == [rat(3), rat(7)]


def test_rref_idempotent_and_rank():
    a = Mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    r, pivots = rref(a)
    assert pivots == (0, 1)
    assert rank(a) == 2
    r2, _ = rref(r)
    assert r2 == r


def test_rank_of_outer_products():
    rng = random.Random(7)
    for n in (3, 4):
        u = [rat(rng.randint(1, 3)) for _ in range(n)]
        v = [rat(rng.randint(1, 3)) for _ in range(n)]
        outer = Mat([[u[i] * v[j] for j in range(n)] for i in range(n)])
        assert rank(outer) == 1


def test_kernel_vectors_annihilate():
    rng = random.Random(99)
    a = _random_mat(rng, 3, 5)
    ker = kernel_basis(a)
    assert len(ker) == 5 - rank(a)
    for v in ker:
        assert vec_is_zero(a @ v)


def test_solve_affine_particular_plus_kernel():
    a = Mat([[1, 1, 0], [0, 1, 1]])
    x0, ker = solve_affine(a, [3, 5])
    assert list(a @ x0) == [rat(3), rat(5)]
    assert len(ker) == 1
    for v in ker:
        assert vec_is_zero(a @ v)
    # the kernel read off the augmented reduction is kernel_basis's
    rng = random.Random(11)
    for mat, rhs in ((a, [3, 5]), (_random_mat(rng, 3, 6), [1, 0, 2])):
        x0, ker = solve_affine(mat, rhs)
        assert list(mat @ x0) == [rat(b) for b in rhs]
        assert ker == kernel_basis(mat)


def test_solve_affine_infeasible():
    a = Mat([[1, 1], [1, 1]])
    with pytest.raises(InfeasibleSystemError):
        solve_affine(a, [0, 1])


def test_inverse_round_trip():
    rng = random.Random(3)
    for _ in range(5):
        a = _random_mat(rng, 3, 3)
        if rank(a) < 3:
            continue
        assert a @ inverse(a) == Mat.identity(3)
        assert inverse(a) @ a == Mat.identity(3)
    with pytest.raises(ValueError):
        inverse(Mat([[1, 1], [1, 1]]))


def test_kron_block_layout():
    a = Mat([[1, 2], [3, 4]])
    b = Mat([[0, 1], [1, 0]])
    k = kron(a, b)
    assert (k.nrows, k.ncols) == (4, 4)
    # block (i,j) of the product is a[i,j] * b
    for i in range(2):
        for j in range(2):
            for p in range(2):
                for q in range(2):
                    assert k[2 * i + p, 2 * j + q] == a[i, j] * b[p, q]
    # mixed-product law
    c = _random_mat(random.Random(5), 2, 2)
    d = _random_mat(random.Random(6), 2, 2)
    assert kron(a @ c, b @ d) == kron(a, b) @ kron(c, d)


def test_eval_poly_constant_first():
    a = Mat([[2, 0], [0, 3]])
    # 1 + x + x^2 at a
    p = eval_poly(a, [1, 1, 1])
    assert p == Mat([[7, 0], [0, 13]])
    assert eval_poly(a, [Fraction(1, 2)]) == Mat.identity(2) * Fraction(1, 2)


def test_conjugate_transpose():
    w = cyclo(6)
    a = Mat([[w, 1], [0, w ** 2]])
    h = a.conj_transpose()
    assert h[0, 0] == w.conj()
    assert h[1, 0] == rat(1)
    assert (a @ a.conj_transpose()).conj_transpose() == a @ a.conj_transpose()


def test_trace_and_scalar_mul():
    a = Mat([[1, 2], [3, 4]])
    assert a.trace() == rat(5)
    assert (a * Fraction(1, 2)) + (a * Fraction(1, 2)) == a


def _dense_rref(matrix):
    """The elimination loop that rewrites the whole row at every step: the
    oracle for the sparse rref."""
    rows = [list(r) for r in matrix.rows]
    nr, nc = len(rows), matrix.ncols
    pivots = []
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        src = next((i for i in range(r, nr) if rows[i][c]), None)
        if src is None:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Mat(rows), tuple(pivots)


def test_rref_of_rational_matrix_at_any_order():
    rng = random.Random(21)
    base = [[rat(rng.choice([0, 0, 1, -1, 2, Fraction(1, 3)])) for _ in range(7)]
            for _ in range(4)]
    # dependent rows force free columns and zero rows
    base.append([x + y for x, y in zip(base[0], base[1])])
    base.append([x * 2 for x in base[2]])
    order_one = Mat(base)
    promoted = Mat([[x.to_order(6) for x in row] for row in base])
    assert promoted[0, 0].order == 6
    expected = _dense_rref(order_one)
    assert rref(order_one) == expected
    assert rref(promoted) == expected
    assert _dense_rref(promoted) == expected


def test_rref_of_mixed_cyclotomic_matrix():
    w3, w4 = cyclo(3), cyclo(4)
    a = Mat([[1, w3, 0, w4],
             [w4, w3 * w4, 1, -1],
             [Fraction(1, 2), 0, w3 ** 2, w4 + w3],
             [1 + w4, w3 + w3 * w4, 1, w4 - 1]])  # row 0 + row 1
    red, pivots = rref(a)
    assert (red, pivots) == _dense_rref(a)
    assert pivots == (0, 1, 2)
    ker = kernel_basis(a)
    assert len(ker) == 1
    assert vec_is_zero(a @ ker[0])


def test_cyclotomic_entries_exact_rref():
    w = cyclo(6)
    # rows are parallel over the field, so the rank collapses to 1
    a = Mat([[1, w], [w, w ** 2]])
    assert rank(a) == 1
    ker = kernel_basis(a)
    assert len(ker) == 1
    assert vec_is_zero(a @ ker[0])


def test_submatrix_and_hstack():
    a = Mat([[1, 2, 3], [4, 5, 6]])
    assert a.submatrix([1], [0, 2]) == Mat([[4, 6]])
    wide = a.hstack(a)
    assert wide.ncols == 6
    assert wide.submatrix([0, 1], [3, 4, 5]) == a


_small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def _matrices(draw, order):
    """Small matrices over Q (order 1) or Q(zeta_6), with many zeros and,
    now and then, a row that repeats the sum of the first two."""
    nr, nc = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    degree = 1 if order == 1 else 2
    entry = st.lists(_small, min_size=degree, max_size=degree).map(
        lambda cs: Cyclotomic(order, cs))
    rows = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    if nr > 2 and draw(st.booleans()):
        rows[-1] = [x + y for x, y in zip(rows[0], rows[1])]
    return Mat(rows)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, 6)).flatmap(_matrices))
def test_rref_rank_and_kernel_match_elimination_over_the_oracle_scalar(a):
    expected, pivots = oracle_rref(a.rows)
    red, got = rref(a)
    assert list(got) == pivots
    assert rank(a) == len(pivots)
    assert all(FractionCyclotomic.of(x) == y
               for row, want in zip(red.rows, expected) for x, y in zip(row, want))
    kernel = kernel_basis(a)
    assert len(kernel) == a.ncols - len(pivots)
    for v in kernel:
        image = [sum((FractionCyclotomic.of(x) * FractionCyclotomic.of(y)
                      for x, y in zip(row, v)), FractionCyclotomic(1, [0]))
                 for row in a.rows]
        assert all(x.is_zero() for x in image)
