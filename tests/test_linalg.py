"""Exact linear algebra over cyclotomic fields."""

import math
import os
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA_DIR, dicyclic3, direct_product_cyclic, relabelled
from groupgeo import spectra
from groupgeo.curvature import solve_invariant
from groupgeo.cyclotomic import cyclo, cyclotomic_polynomial, rat
from groupgeo.errors import InfeasibleSystemError
from groupgeo.groups import FiniteGroup, conjugacy_class, dihedral
from groupgeo.linalg import (
    Echelon,
    Mat,
    assemble,
    inverse,
    kernel_basis,
    nullity,
    rref,
    solve_affine,
)
from oracles import (FractionCyclotomic, apply, cyclotomic, dense_system, eval_poly, kron,
                     left_cosets, oracle_rref, rank, vec_is_zero)


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

# Q and the cyclotomic fields the package's operators live in
ORDERS = (1, 3, 4, 6, 12)


def _entries(order):
    degree = len(cyclotomic_polynomial(order)) - 1
    return st.lists(_small, min_size=degree, max_size=degree).map(
        lambda cs: cyclotomic(order, cs))


@st.composite
def _field_matrices(draw, order, square=False):
    """Small matrices over Q(zeta_order), with many zeros and, now and
    then, a row that repeats the sum of the first two."""
    nr = draw(st.integers(1, 4))
    nc = nr if square else draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(_entries(order), min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))
    if nr > 2 and draw(st.booleans()):
        rows[-1] = [x + y for x, y in zip(rows[0], rows[1])]
    return Mat(rows)


def _oracle_equal(got, want):
    return len(got) == len(want) and all(FractionCyclotomic.of(x) == y for x, y in zip(got, want))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), order=st.sampled_from(ORDERS))
def test_rref_rank_and_kernel_match_elimination_over_the_oracle_scalar(data, order):
    """rref, kernel_basis, solve_affine and inverse agree with Gauss-Jordan
    over the oracle scalar: the reduced form, the particular solution with
    every free variable zero or the row that reads 0 = 1, and the inverse
    or the singular refusal."""
    a = data.draw(_field_matrices(order))
    expected, pivots = oracle_rref(a.rows)
    red, got = rref(a)
    assert list(got) == pivots
    assert rank(a) == len(pivots)
    assert all(_oracle_equal(row, want) for row, want in zip(red.rows, expected))
    kernel = kernel_basis(a)
    assert len(kernel) == a.ncols - len(pivots)
    for v in kernel:
        image = [sum((FractionCyclotomic.of(x) * FractionCyclotomic.of(y)
                      for x, y in zip(row, v)), FractionCyclotomic(1, [0]))
                 for row in a.rows]
        assert all(x.is_zero() for x in image)

    nc = a.ncols
    if data.draw(st.booleans()):
        rhs = a @ data.draw(st.lists(_entries(order), min_size=nc, max_size=nc))
    else:
        rhs = data.draw(st.lists(_entries(order), min_size=a.nrows, max_size=a.nrows))
    augmented, pivots = oracle_rref([list(row) + [b] for row, b in zip(a.rows, rhs)])
    if pivots and pivots[-1] == nc:
        with pytest.raises(InfeasibleSystemError) as info:
            solve_affine(a, rhs)
        assert str(info.value) == (f"inconsistent system: row {len(pivots) - 1} "
                                   "of the reduced form reads 0 = 1")
    else:
        want = [FractionCyclotomic(1, [0])] * nc
        for r, c in enumerate(pivots):
            want[c] = augmented[r][nc]
        assert _oracle_equal(solve_affine(a, rhs)[0], want)

    square = data.draw(_field_matrices(order, square=True))
    n = square.nrows
    joined, pivots = oracle_rref(square.hstack(Mat.identity(n)).rows)
    if pivots[-1] >= n:
        with pytest.raises(ValueError, match="singular"):
            inverse(square)
    else:
        got = inverse(square)
        assert all(_oracle_equal(row, want[n:]) for row, want in zip(got.rows, joined))


def _bits(echelon):
    return max(abs(n).bit_length() for row in echelon.pivots.values() for v in row.values()
               for n in v.nums)


@pytest.mark.parametrize("order", ORDERS[1:])
def test_irrational_echelon_rows_stay_small(order):
    """On dense 12 x 10 systems over Z[zeta_order] with coordinates in
    [-3, 3], every pivot row leads with a rational integer and no
    coordinate passes 256 bits, before or after back-reduction, while the
    reduced form is the oracle's.  Without the rational lead, a pivot row
    keeps ring factors its gcd cannot divide out, and these draws reach
    9,760 to 74,377 bits."""
    rng = random.Random(order)
    degree = len(cyclotomic_polynomial(order)) - 1
    for _ in range(3):
        rows = [[cyclotomic(order, [rng.randint(-3, 3) for _ in range(degree)])
                 if rng.random() < 0.5 else rat(0) for _ in range(10)] for _ in range(12)]
        echelon = Echelon(rows)
        assert not echelon.rational
        for row in rows:
            echelon.insert(echelon.clear(row))
        assert all(row[c].is_rational() for c, row in echelon.pivots.items())
        assert _bits(echelon) <= 256
        echelon.back_reduce()
        assert _bits(echelon) <= 256
        expected, pivots = oracle_rref(rows)
        red, got = rref(Mat(rows))
        assert list(got) == pivots
        assert all(_oracle_equal(row, want) for row, want in zip(red.rows, expected))


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
    """nullity counts the kernel that Gauss-Jordan over the oracle scalar
    finds, on hard integers, on products through fewer than ncols
    dimensions and with zeta added to one entry, and solve_invariant
    returns that count."""
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
        matrix = Mat(rows)
    kernel = ncols - len(oracle_rref(matrix.rows)[1])
    if thin and zeta is None:
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


# -- the one elimination's other callers ---------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(ORDERS).flatmap(_entries), max_size=6))
def test_clear_writes_a_row_over_one_common_denominator(xs):
    """Each nonzero scalar times the lcm of the denominators: an int on a
    rational echelon, an element of denominator 1 otherwise."""
    echelon = Echelon([xs])
    row = echelon.clear(xs)
    scale = math.lcm(*(x.den for x in xs))
    assert sorted(row) == [j for j, x in enumerate(xs) if x]
    for j, v in row.items():
        assert v == xs[j] * scale
        assert type(v) is int if echelon.rational else v.den == 1


@settings(max_examples=20, deadline=None)
@given(data=st.data(), order=st.sampled_from(ORDERS), n=st.integers(1, 6))
def test_vector_minimal_polynomial_is_the_least_annihilating_one(data, order, n):
    """For every start, the Krylov polynomial is monic, annihilates e_start,
    and its degree is the rank of the Krylov vectors."""
    op = data.draw(st.lists(st.lists(_entries(order), min_size=n, max_size=n),
                            min_size=n, max_size=n).map(Mat))
    for start in range(n):
        poly = spectra._vector_minimal_polynomial(op, start)
        assert poly[-1] == rat(1)
        unit = [rat(1) if i == start else rat(0) for i in range(n)]
        assert vec_is_zero(eval_poly(op, poly) @ unit)
        krylov = [unit]
        for _ in range(n - 1):
            krylov.append(op @ krylov[-1])
        assert len(poly) - 1 == len(oracle_rref(krylov)[1])


@pytest.mark.parametrize("eliminate", [
    lambda: rref(Mat([[1, 2], [3, 4]])),
    lambda: nullity({0: Mat([[1, 2], [3, 4]])}, TRIVIAL, [0]),
    lambda: spectra._vector_minimal_polynomial(Mat([[0, 1], [1, 0]]), 0),
], ids=["rref", "nullity", "krylov"])
def test_a_reduction_that_keeps_its_column_raises_instead_of_looping(monkeypatch, eliminate):
    """A reduction that fails to clear its column, as a broken content or
    gcd step would, meets the bound on reductions per row: RuntimeError,
    not a hang."""
    monkeypatch.setattr(Echelon, "eliminate", lambda self, row, c: None)
    with pytest.raises(RuntimeError, match=r"a row took more reductions than the \d pivots"):
        eliminate()
