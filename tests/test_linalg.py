"""Exact linear algebra over cyclotomic fields."""

import os
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA_DIR, dicyclic3, direct_product_cyclic, relabelled
from groupgeo.curvature import solve_invariant
from groupgeo.cyclotomic import Cyclotomic, cyclo, rat
from groupgeo.errors import InfeasibleSystemError
from groupgeo.groups import FiniteGroup, conjugacy_class, dihedral
from groupgeo.linalg import (
    Mat,
    assemble,
    inverse,
    kernel_basis,
    nullity,
    rref,
    solve_affine,
)
from oracles import (FractionCyclotomic, apply, dense_system, eval_poly, kron, left_cosets,
                     oracle_rref, rank, unfused_rref, vec_is_zero)


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


@pytest.mark.parametrize("other", [
    Mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]]), Mat([[1, 2]]), Mat([[1], [2]]), Mat([])])
def test_sum_and_difference_refuse_a_shape_mismatch(other):
    a = Mat([[1, 2], [3, 4]])
    for op, combine in (("+", Mat.__add__), ("-", Mat.__sub__)):
        message = f"shape mismatch 2x2 {op} {other.nrows}x{other.ncols}"
        with pytest.raises(ValueError, match=re.escape(message)):
            combine(a, other)
    assert a + a == a * 2 and (a - a).is_zero()


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


@pytest.mark.parametrize("rows, rhs, row", [
    ([[1, 0], [0, 1], [1, 1]], [1, 1, 3], 2),
    ([[1, 1], [1, 1]], [0, 1], 1),
], ids=["third-row", "second-row"])
def test_solve_affine_names_the_row_that_reads_0_eq_1(rows, rhs, row):
    with pytest.raises(InfeasibleSystemError) as info:
        solve_affine(Mat(rows), rhs)
    assert str(info.value) == f"inconsistent system: row {row} of the reduced form reads 0 = 1"


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
    a = Mat([[w, 1], [0, cyclo(6, 2)]])
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
             [Fraction(1, 2), 0, cyclo(3, 2), w4 + w3],
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
    a = Mat([[1, w], [w, cyclo(6, 2)]])
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


@st.composite
def _dependent_matrices(draw, order):
    """Small matrices over Q (order 1) or Q(zeta_12) with many zeros; now
    and then the last row is a combination of two others, or a column is a
    multiple of another, so the rank falls short."""
    nr, nc = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    degree = 1 if order == 1 else 4
    entry = st.lists(st.sampled_from((0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3))),
                     min_size=degree, max_size=degree).map(lambda cs: Cyclotomic(order, cs))
    rows = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    if nr > 2 and draw(st.booleans()):
        f = draw(entry)
        rows[-1] = [x + f * y for x, y in zip(rows[0], rows[1])]
    if nc > 1 and draw(st.booleans()):
        f = draw(entry)
        for row in rows:
            row[-1] = f * row[0]
    return Mat(rows)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, 12)).flatmap(_dependent_matrices))
def test_fused_rref_matches_the_unfused_update(a):
    red, pivots = rref(a)
    want, want_pivots = unfused_rref(a)
    assert pivots == want_pivots
    assert [[(x.order, x.nums, x.den) for x in row] for row in red.rows] == \
        [[(x.order, x.nums, x.den) for x in row] for row in want.rows]


# -- group-algebra coefficients ---------------------------------------------

# H = <C> of index 1, 2, 1 and 4
CLASSES = [conjugacy_class(dihedral(3), "sr"), conjugacy_class(dihedral(6), "sr"),
           conjugacy_class(dicyclic3(), "a0x1"),
           conjugacy_class(direct_product_cyclic(dihedral(6), 2), "sr")]

_RATIONALS = st.sampled_from((0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))
_ENTRIES = st.builds(lambda x, y: rat(x) + cyclo(4) * y, _RATIONALS, st.integers(-1, 1))


def _matrices(nrows, ncols, entries=_ENTRIES):
    return st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows).map(Mat)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), nrows=st.integers(1, 3), ncols=st.integers(1, 3))
def test_assemble_at_the_identity_is_a_kronecker_product(data, nrows, ncols):
    group = data.draw(st.sampled_from(CLASSES)).group
    m = data.draw(_matrices(nrows, ncols))
    assert assemble({0: m}, group) == kron(m, Mat.identity(group.order))


@settings(max_examples=25, deadline=None)
@given(data=st.data(), nrows=st.integers(1, 3), ncols=st.integers(1, 3))
def test_block_on_h_is_the_operator_on_g_restricted(data, nrows, ncols):
    cls = data.draw(st.sampled_from(CLASSES))
    group, subgroup = cls.group, cls.generated_subgroup()
    n = group.order
    coeffs = data.draw(st.dictionaries(st.sampled_from(subgroup), _matrices(nrows, ncols),
                                       min_size=1))
    op = assemble(coeffs, group)
    assert (op.nrows, op.ncols) == (nrows * n, ncols * n)
    assert assemble(coeffs, group, subgroup) == op.submatrix(
        [i * n + g for i in range(nrows) for g in subgroup],
        [j * n + g for j in range(ncols) for g in subgroup])
    vec = data.draw(st.lists(_ENTRIES, min_size=op.ncols, max_size=op.ncols))
    assert apply(coeffs, group, vec) == op @ vec


def _subgroup(cls):
    """H = <C> as a group of its own, and its elements in G in ascending
    order: element p of H is elements[p] of G."""
    group, elements = cls.group, cls.generated_subgroup()
    pos = {g: p for p, g in enumerate(elements)}
    return FiniteGroup([group.label(g) for g in elements],
                       [[pos[group.mul(a, b)] for b in elements] for a in elements]), elements


# H of index 2 on D6 and on a D6 table that lists the second coset of H out
# of index order, and of index 1 on S3
INVARIANT_CLASSES = [conjugacy_class(dihedral(6), "sr"),
                     conjugacy_class(relabelled(dihedral(6), 0), "sr"),
                     conjugacy_class(FiniteGroup.from_json_file(
                         os.path.join(DATA_DIR, "s3_cayley.json")), "u")]


def test_a_relabelled_d6_lists_a_coset_of_h_out_of_order():
    assert any(list(coset) != sorted(coset) for coset in left_cosets(INVARIANT_CLASSES[1]))


@settings(max_examples=30, deadline=None)
@given(data=st.data(), nrows=st.integers(1, 3), ncols=st.integers(1, 3),
       consistent=st.booleans())
def test_solve_invariant_matches_the_dense_solve(data, nrows, ncols, consistent):
    """solve_invariant on the block over H agrees with solve_affine on the
    system over G: both find a solution or neither does, the constant
    solution solves the system on G, and the kernel on G is [G:H] copies
    of the kernel on H."""
    cls = data.draw(st.sampled_from(INVARIANT_CLASSES))
    sub, elements = _subgroup(cls)
    coeffs = data.draw(st.dictionaries(st.integers(0, sub.order - 1),
                                       _matrices(nrows, ncols, _RATIONALS), min_size=1))
    if consistent:
        # a constant x is carried to the constant (sum_h M_h) x
        total = Mat.zeros(nrows, ncols)
        for m in coeffs.values():
            total = total + m
        rhs = total @ data.draw(st.lists(_RATIONALS, min_size=ncols, max_size=ncols))
    else:
        rhs = data.draw(st.lists(_RATIONALS, min_size=nrows, max_size=nrows))
    group = cls.group
    op, b = dense_system({elements[h]: m for h, m in coeffs.items()}, rhs, group)
    try:
        _, dense_kernel = solve_affine(op, b)
    except InfeasibleSystemError:
        assert not consistent
        with pytest.raises(InfeasibleSystemError):
            solve_invariant(coeffs, rhs, sub, range(sub.order))
        return
    constant, nullity = solve_invariant(coeffs, rhs, sub, range(sub.order))
    assert len(constant) == ncols
    assert op @ [c for c in constant for _ in range(group.order)] == b
    assert nullity * (group.order // sub.order) == len(dense_kernel)


# -- the kernel count of the Ricci solve --------------------------------------

# on the one-element group the coefficients {e: M} are the matrix M itself
TRIVIAL = FiniteGroup(["e"], [[0]])

WORD_PRIME = 2 ** 31 - 1

_HARD_ENTRIES = st.one_of(
    st.integers(-3, 3),
    # multiples of a word-size prime
    st.integers(-2, 2).map(lambda k: k * WORD_PRIME),
    # denominators that prime divides
    st.builds(Fraction, st.integers(-3, 3),
              st.sampled_from([WORD_PRIME, 2 * WORD_PRIME, WORD_PRIME ** 2])),
    # wide denominators
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 40)),
)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), nrows=st.integers(1, 6), ncols=st.integers(2, 5), thin=st.booleans(),
       zeta=st.sampled_from([None] * 3 + [cyclo(3), cyclo(4) * 2 - 1]))
def test_nullity_is_the_exact_rref_nullity(data, nrows, ncols, thin, zeta):
    """nullity counts the kernel the exact rref finds, on hard integers and
    on products through fewer than ncols dimensions, and solve_invariant
    returns that count; an irrational entry (zeta added to one entry) is
    refused."""
    if thin:
        inner = data.draw(st.integers(1, ncols - 1))
        matrix = (data.draw(_matrices(nrows, inner, _HARD_ENTRIES))
                  @ data.draw(_matrices(inner, ncols, _HARD_ENTRIES)))
    else:
        matrix = data.draw(_matrices(nrows, ncols, _HARD_ENTRIES))
    if zeta is not None:
        i, j = data.draw(st.integers(0, nrows - 1)), data.draw(st.integers(0, ncols - 1))
        rows = [list(row) for row in matrix.rows]
        rows[i][j] = rows[i][j] + zeta
        with pytest.raises(ValueError, match="not rational"):
            nullity({0: Mat(rows)}, TRIVIAL, [0])
        with pytest.raises(ValueError, match="not rational"):
            solve_invariant({0: Mat(rows)}, [0] * nrows, TRIVIAL, [0])
        return
    kernel = ncols - len(rref(matrix)[1])
    if thin:
        assert kernel > 0
    assert nullity({0: matrix}, TRIVIAL, [0]) == kernel
    assert solve_invariant({0: matrix}, [0] * nrows, TRIVIAL, [0]) == ([rat(0)] * ncols, kernel)


def test_nullity_refuses_elements_not_closed_under_the_keys():
    # as assemble refuses them, and before any row is reduced
    d6 = dihedral(6)
    coeffs = {d6.index("s"): Mat.identity(2)}
    for count in (nullity, assemble):
        with pytest.raises(ValueError, match="not closed"):
            count(coeffs, d6, [0])
    with pytest.raises(ValueError, match="not closed"):
        solve_invariant(coeffs, [0, 0], d6, [0])
