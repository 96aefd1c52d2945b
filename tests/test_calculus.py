"""First-order calculus on a conjugacy class and its degree-2 quotient.

The braiding fixes each diagonal monomial and cycles the off-diagonal ones
in two 3-cycles, so the relation space has dimension 5 and the quotient
dimension 4.  The cycle decomposition is recomputed here from scratch and
used as the oracle for every dimension claim.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import alternating4, dicyclic3, direct_product_cyclic, relabelled
from groupgeo import linalg
from groupgeo.calculus import Calculus, TensorOneOne, TwoForm, braiding
from groupgeo.connections import chart_connection
from groupgeo.curvature import LIFT_VARIANTS, covariant_derivative, lift, wedge_of_tensor
from groupgeo.cyclotomic import rat
from groupgeo.errors import NonCyclicClassError
from groupgeo.groups import conjugacy_class, dihedral
from oracles import (Field, conjugacy_classes, constant_fields, cyclotomic, d_function, delta,
                     eliminated_quotient, field_covariant_derivative, one_form_field, translate)


def _braiding_cycles(cls):
    """Cycle decomposition of the braiding permutation on index pairs."""
    m = cls.size
    todo = {(i, j) for i in range(m) for j in range(m)}
    cycles = []
    while todo:
        start = min(todo)
        cyc = [start]
        todo.remove(start)
        cur = braiding(cls, *start)
        while cur != start:
            cyc.append(cur)
            todo.remove(cur)
            cur = braiding(cls, *cur)
        cycles.append(tuple(cyc))
    return cycles


def test_braiding_cycle_structure(cls_d6):
    cycles = _braiding_cycles(cls_d6)
    lengths = sorted(len(c) for c in cycles)
    assert lengths == [1, 1, 1, 3, 3]
    fixed = {c[0] for c in cycles if len(c) == 1}
    assert fixed == {(0, 0), (1, 1), (2, 2)}


def test_relation_dimension_equals_cycle_count(cal_d6, cls_d6):
    # each cycle of a permutation contributes exactly one fixed vector
    assert cal_d6.relation_dim == len(_braiding_cycles(cls_d6)) == 5
    assert cal_d6.quotient_dim == 9 - 5 == 4


def test_relation_vectors_are_braiding_fixed(cal_d6):
    # the relations are the orbit sums, fixed by the braiding because the
    # orbits partition the monomials and each is closed under it: the
    # braiding cycles an orbit from its least pair
    orbits = cal_d6.orbits
    assert sorted(p for orbit in orbits for p in orbit) == sorted(cal_d6.pairs)
    for orbit in orbits:
        assert orbit[0] == min(orbit)
        assert [cal_d6.braid_perm[p] for p in orbit] == list(orbit[1:] + orbit[:1])


def test_quotient_basis_choice(cal_d6):
    assert cal_d6.quotient_pairs == [(1, 0), (2, 1), (2, 0), (1, 2)]


REDUCTION = {
    (0, 0): (0, 0, 0, 0),
    (1, 1): (0, 0, 0, 0),
    (2, 2): (0, 0, 0, 0),
    (1, 0): (1, 0, 0, 0),
    (2, 1): (0, 1, 0, 0),
    (2, 0): (0, 0, 1, 0),
    (1, 2): (0, 0, 0, 1),
    (0, 1): (0, 0, -1, -1),
    (0, 2): (-1, -1, 0, 0),
}


def test_monomial_reduction_table(cal_d6):
    for pair, coords in REDUCTION.items():
        assert cal_d6.reduction[pair] == tuple(rat(c) for c in coords)


def test_reduction_table_takes_one_reduction(monkeypatch, cls_d6):
    shapes = []

    def counted(matrix):
        shapes.append((matrix.nrows, matrix.ncols))
        return rref(matrix)

    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", counted)
    cal = Calculus(cls_d6)
    # the relations and the reduction are read off the braid orbits
    assert shapes == []
    assert cal.reduction == {p: tuple(rat(c) for c in coords)
                             for p, coords in REDUCTION.items()}


def _cyclic_classes(group):
    """Every conjugacy class of the group that has a calculus."""
    out = []
    for members in conjugacy_classes(group):
        cls = conjugacy_class(group, members[0])
        try:
            cls.require_calculus_admissible()
        except NonCyclicClassError:
            continue
        out.append(cls)
    return out


def _assert_matches_elimination(cal):
    free, relation_dim, reduction = eliminated_quotient(cal)
    assert sorted(cal.quotient_pairs) == free
    assert cal.relation_dim == relation_dim
    assert list(cal.reduction) == cal.pairs
    assert cal.reduction == reduction


@pytest.mark.parametrize("build,count", [
    (lambda: dihedral(3), 1),
    (lambda: dihedral(6), 2),
    (lambda: direct_product_cyclic(dihedral(6), 2), 4),
    (lambda: direct_product_cyclic(dihedral(3), 4), 4),
    (dicyclic3, 2),
    (alternating4, 2),
], ids=["d3", "d6", "d6xz2", "d3xz4", "dic3", "a4"])
def test_orbit_quotient_matches_elimination(build, count):
    classes = _cyclic_classes(build())
    assert len(classes) == count
    for cls in classes:
        _assert_matches_elimination(Calculus(cls))


@pytest.mark.parametrize("build", [
    lambda: dihedral(3),
    lambda: dihedral(6),
    lambda: direct_product_cyclic(dihedral(6), 2),
    lambda: direct_product_cyclic(dihedral(3), 4),
    dicyclic3,
    alternating4,
], ids=["d3", "d6", "d6xz2", "d3xz4", "dic3", "a4"])
def test_an_admissible_class_always_has_a_calculus(build):
    # the command line checks require_calculus_admissible alone before it
    # builds a calculus: the quotient basis of every admissible class
    # complements the relations
    classes = _cyclic_classes(build())
    assert classes
    for cls in classes:
        cal = Calculus(cls)
        assert cal.quotient_dim == cal.n_members ** 2 - cal.relation_dim


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), label=st.sampled_from(["sr", "s"]))
def test_orbit_quotient_matches_elimination_after_relabelling(d6, seed, label):
    _assert_matches_elimination(Calculus(conjugacy_class(relabelled(d6, seed), label)))


def test_reduction_respects_cycle_relations(cal_d6, cls_d6):
    # the sum over any braiding cycle must reduce to zero
    for cyc in _braiding_cycles(cls_d6):
        total = [rat(0)] * 4
        for p in cyc:
            total = [t + c for t, c in zip(total, cal_d6.reduction[p])]
        if len(cyc) > 1:
            assert all(v.is_zero() for v in total)


def test_basis_wedges_match_reduction(cal_d6):
    for i in range(3):
        for j in range(3):
            w = cal_d6.wedge(cal_d6.basis_one_form(i), cal_d6.basis_one_form(j))
            expect = cal_d6.reduction[(i, j)]
            for k in range(4):
                assert w.coeffs[k] == expect[k]


def test_background_differentials_pinned(cal_d6):
    expect = {0: (0, -1, 0, -1), 1: (1, 1, -1, 0), 2: (-1, 0, 1, 1)}
    for pos, coords in expect.items():
        de = cal_d6.d_basis(pos)
        for k in range(4):
            assert de.coeffs[k] == rat(coords[k])


def test_theta_properties(cal_d6):
    theta = cal_d6.theta
    assert all(c == rat(1) for c in theta.coeffs)
    assert cal_d6.d_one_form(theta).is_zero()
    assert cal_d6.wedge(theta, theta).is_zero()


# -- forms whose coefficients vary, by the oracle --------------------------------

def _random_function(cal, rng):
    return tuple(rat(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
                 for _ in range(cal.group.order))


def _random_one_form(cal, rng):
    return one_form_field(cal, [_random_function(cal, rng) for _ in range(cal.n_members)])


def test_differential_is_theta_commutator(cal_d6):
    rng = random.Random(1234)
    theta = Field.constant(cal_d6.group, cal_d6.theta)
    for _ in range(20):
        f = _random_function(cal_d6, rng)
        assert d_function(cal_d6, f) == theta.right_mul(f) - theta * f


def test_partials_are_translates_minus_identity(cal_d6, cls_d6):
    rng = random.Random(77)
    f = _random_function(cal_d6, rng)
    df = d_function(cal_d6, f)
    for pos, a in enumerate(cls_d6.members):
        assert df.coefficient(pos) == tuple(x - y for x, y in zip(translate(cal_d6.group, f, a), f))


def test_d_squared_vanishes(cal_d6):
    rng = random.Random(5150)
    for _ in range(10):
        f = _random_function(cal_d6, rng)
        assert d_function(cal_d6, f).d().is_zero()


def test_d_of_constant_vanishes(cal_d6):
    assert d_function(cal_d6, (rat(Fraction(3, 7)),) * cal_d6.group.order).is_zero()


def test_d_basis_consistent_with_d_one_form(cal_d6):
    for pos in range(3):
        assert cal_d6.d_one_form(cal_d6.basis_one_form(pos)) == cal_d6.d_basis(pos)


def test_leibniz_rule_for_one_forms(cal_d6):
    rng = random.Random(31)
    for _ in range(5):
        f = _random_function(cal_d6, rng)
        alpha = _random_one_form(cal_d6, rng)
        assert (alpha * f).d() == d_function(cal_d6, f).wedge(alpha) + alpha.d() * f


def test_right_module_relation(cal_d6, cls_d6):
    # e_a . f = (R_a f) e_a
    rng = random.Random(8)
    f = _random_function(cal_d6, rng)
    zero = (rat(0),) * cal_d6.group.order
    for pos, a in enumerate(cls_d6.members):
        moved = Field.constant(cal_d6.group, cal_d6.basis_one_form(pos)).right_mul(f)
        for k in range(3):
            assert moved.coefficient(k) == (translate(cal_d6.group, f, a) if k == pos else zero)


def test_wedge_balances_middle_function(cal_d6):
    # (alpha . f) ^ beta = alpha ^ (f . beta)
    rng = random.Random(99)
    f = _random_function(cal_d6, rng)
    alpha = _random_one_form(cal_d6, rng)
    beta = _random_one_form(cal_d6, rng)
    assert alpha.right_mul(f).wedge(beta) == alpha.wedge(beta * f)


def test_s3_calculus_matches_d6_structure(s3_cal):
    assert s3_cal.relation_dim == 5
    assert s3_cal.quotient_dim == 4
    assert s3_cal.quotient_pairs == [(1, 0), (2, 1), (2, 0), (1, 2)]
    expect = {0: (0, -1, 0, -1), 1: (1, 1, -1, 0), 2: (-1, 0, 1, 1)}
    for pos, coords in expect.items():
        de = s3_cal.d_basis(pos)
        for k in range(4):
            assert de.coeffs[k] == rat(coords[k])


def test_delta_functions_and_arithmetic(cal_d6, d6):
    f = delta(d6, 3)
    assert f[3] == rat(1) and f.count(rat(0)) == 11
    assert translate(d6, f, d6.index("r"))[2] == rat(1)  # (R_r f)(r2) = f(r3)
    e_t = cal_d6.basis_one_form(0)
    form = Field.constant(d6, e_t) * f * rat(2)
    assert form.at[3] == e_t * 2 and form.at[4].is_zero()
    assert form + form - form == form
    assert (-form).at[3] == e_t * -2


# -- the package's constant forms against the oracle's varying ones ------------

_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=3)
# rationals and elements of Q(zeta_12), which has degree 4
_SCALARS = st.one_of(
    st.builds(rat, _RATIONALS),
    st.builds(lambda cs: cyclotomic(12, cs), st.lists(_RATIONALS, min_size=4, max_size=4)))


def _group(which, seed):
    if which == "d3":
        return dihedral(3)
    if which == "d6xz2":
        return direct_product_cyclic(dihedral(6), 2)
    return relabelled(dihedral(6), seed) if which == "relabelled" else dihedral(6)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), which=st.sampled_from(["d3", "d6", "relabelled", "d6xz2"]),
       seed=st.integers(0, 10**6))
def test_constant_forms_match_the_varying_algebra(data, which, seed):
    # each package operation on constant coefficients is the oracle's
    # operation on the same forms held at every group element
    group = _group(which, seed)
    cal = Calculus(conjugacy_class(group, "sr"))
    m, qdim = cal.n_members, cal.quotient_dim

    def scalars(n):
        return data.draw(st.lists(_SCALARS, min_size=n, max_size=n))

    alpha, beta = cal.one_form(scalars(m)), cal.one_form(scalars(m))
    omega = TwoForm(cal, scalars(qdim))
    t = TensorOneOne(cal, [scalars(m) for _ in range(m)])
    s = data.draw(_SCALARS)
    conn = chart_connection(cal, *scalars(3))
    A, B, W, T = constant_fields(group, (alpha, beta, omega, t))

    def same(constant, varying):
        assert varying == Field.constant(group, constant)

    same(alpha + beta, A + B)
    same(alpha - beta, A - B)
    same(-alpha, -A)
    same(alpha * s, A * s)
    same(s * omega, W * s)
    same(t * s, T * s)
    same(cal.wedge(alpha, beta), A.wedge(B))
    same(cal.d_one_form(alpha), A.d())
    for variant in LIFT_VARIANTS:
        same(lift(omega, variant), W.lift(variant))
    same(wedge_of_tensor(t), T.wedge_of_tensor())
    same(covariant_derivative(conn, alpha),
         field_covariant_derivative(constant_fields(group, conn.components), A))
