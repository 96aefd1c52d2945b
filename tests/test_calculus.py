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
from groupgeo.calculus import Calculus, GroupFunction, braiding
from groupgeo.cyclotomic import Cyclotomic, rat
from groupgeo.errors import NonCyclicClassError
from groupgeo.groups import conjugacy_class, dihedral
from oracles import conjugacy_classes, eliminated_quotient, right_mul


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


@pytest.mark.parametrize("basis", [
    # e_t (x) e_t is braiding-fixed, so a relation itself: some monomial
    # has no coordinates
    [(0, 0), (1, 0), (2, 1), (2, 0)],
    # one monomial too many: every coordinate is ambiguous
    [(1, 0), (2, 1), (2, 0), (1, 2), (0, 1)],
], ids=["inconsistent", "kernel"])
def test_quotient_monomials_must_complement_the_relations(monkeypatch, cls_d6, basis):
    monkeypatch.setattr(Calculus, "_choose_quotient_basis", lambda self: basis)
    with pytest.raises(NonCyclicClassError, match="do not complement"):
        Calculus(cls_d6)


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
    basis, relation_dim, reduction = eliminated_quotient(cal)
    assert cal.quotient_pairs == basis
    assert cal.relation_dim == relation_dim
    assert list(cal.reduction) == cal.pairs
    assert cal.reduction == reduction


@pytest.mark.parametrize("build,count", [
    (lambda: dihedral(3), 1),
    (lambda: dihedral(6), 2),
    (lambda: direct_product_cyclic(dihedral(6), 2), 4),
    (dicyclic3, 2),
    (alternating4, 2),
], ids=["d3", "d6", "d6xz2", "dic3", "a4"])
def test_orbit_quotient_matches_elimination(build, count):
    classes = _cyclic_classes(build())
    assert len(classes) == count
    for cls in classes:
        _assert_matches_elimination(Calculus(cls))


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
                assert w.coeffs[k] == cal_d6.constant(expect[k])


def test_background_differentials_pinned(cal_d6):
    expect = {0: (0, -1, 0, -1), 1: (1, 1, -1, 0), 2: (-1, 0, 1, 1)}
    for pos, coords in expect.items():
        de = cal_d6.d_basis(pos)
        for k in range(4):
            assert de.coeffs[k] == cal_d6.constant(coords[k])


def test_theta_properties(cal_d6):
    theta = cal_d6.theta
    one = cal_d6.constant(1)
    assert all(c == one for c in theta.coeffs)
    assert cal_d6.d_one_form(theta).is_zero()
    assert cal_d6.wedge(theta, theta).is_zero()


def _random_function(cal, rng):
    return GroupFunction(cal.group, [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                                     for _ in range(cal.group.order)])


def test_differential_is_theta_commutator(cal_d6):
    rng = random.Random(1234)
    theta = cal_d6.theta
    for _ in range(20):
        f = _random_function(cal_d6, rng)
        lhs = cal_d6.d_function(f)
        rhs = right_mul(theta, f) - cal_d6.one_form([f * c for c in theta.coeffs])
        assert lhs == rhs


def test_partials_are_translates_minus_identity(cal_d6, cls_d6):
    rng = random.Random(77)
    f = _random_function(cal_d6, rng)
    df = cal_d6.d_function(f)
    for pos, a in enumerate(cls_d6.members):
        assert df.coeffs[pos] == f.translate(a) - f
        assert df.coeffs[pos] == f.partial(a)


def test_d_squared_vanishes(cal_d6):
    rng = random.Random(5150)
    for _ in range(10):
        f = _random_function(cal_d6, rng)
        assert cal_d6.d_one_form(cal_d6.d_function(f)).is_zero()


def test_d_of_constant_vanishes(cal_d6):
    assert cal_d6.d_function(cal_d6.constant(Fraction(3, 7))).is_zero()


def test_d_basis_consistent_with_d_one_form(cal_d6):
    for pos in range(3):
        assert cal_d6.d_one_form(cal_d6.basis_one_form(pos)) == cal_d6.d_basis(pos)


def test_leibniz_rule_for_one_forms(cal_d6):
    rng = random.Random(31)
    for _ in range(5):
        f = _random_function(cal_d6, rng)
        alpha = cal_d6.one_form([_random_function(cal_d6, rng) for _ in range(3)])
        f_alpha = cal_d6.one_form([f * c for c in alpha.coeffs])
        lhs = cal_d6.d_one_form(f_alpha)
        rhs = cal_d6.wedge(cal_d6.d_function(f), alpha) + _scale_two_form(cal_d6.d_one_form(alpha), f)
        assert lhs == rhs


def _scale_two_form(w, f):
    return type(w)(w.calculus, [f * c for c in w.coeffs])


def test_right_module_relation(cal_d6, cls_d6):
    # e_a . f = (R_a f) e_a
    rng = random.Random(8)
    f = _random_function(cal_d6, rng)
    for pos, a in enumerate(cls_d6.members):
        moved = right_mul(cal_d6.basis_one_form(pos), f)
        for k in range(3):
            expect = f.translate(a) if k == pos else cal_d6.zero_function()
            assert moved.coeffs[k] == expect


def test_wedge_balances_middle_function(cal_d6):
    # (alpha . f) ^ beta = alpha ^ (f . beta)
    rng = random.Random(99)
    f = _random_function(cal_d6, rng)
    alpha = cal_d6.one_form([_random_function(cal_d6, rng) for _ in range(3)])
    beta = cal_d6.one_form([_random_function(cal_d6, rng) for _ in range(3)])
    f_beta = cal_d6.one_form([f * c for c in beta.coeffs])
    assert cal_d6.wedge(right_mul(alpha, f), beta) == cal_d6.wedge(alpha, f_beta)


def test_s3_calculus_matches_d6_structure(s3_cal):
    assert s3_cal.relation_dim == 5
    assert s3_cal.quotient_dim == 4
    assert s3_cal.quotient_pairs == [(1, 0), (2, 1), (2, 0), (1, 2)]
    expect = {0: (0, -1, 0, -1), 1: (1, 1, -1, 0), 2: (-1, 0, 1, 1)}
    for pos, coords in expect.items():
        de = s3_cal.d_basis(pos)
        for k in range(4):
            assert de.coeffs[k] == s3_cal.constant(coords[k])


def test_delta_functions_and_arithmetic(d6):
    f = GroupFunction.delta(d6, 3)
    g = GroupFunction.constant(d6, 2)
    assert (f * g)(3) == rat(2)
    assert (f * g)(4) == rat(0)
    assert (f + g - g)(3) == rat(1)
    assert (-f)(3) == rat(-1)
    assert f.translate(d6.index("r"))(2) == rat(1)  # (R_r f)(r2) = f(r3)


# -- the one-value form of constants, against plain tuple arithmetic ---------

_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=3)
# rationals and elements of Q(zeta_12), which has degree 4
_SCALARS = st.one_of(
    st.builds(rat, _RATIONALS),
    st.builds(lambda cs: Cyclotomic(12, cs), st.lists(_RATIONALS, min_size=4, max_size=4)))


def _one_value_form(f: GroupFunction) -> bool:
    return f.constant_value is not None


def _constant_values(vals) -> bool:
    return all(v == vals[0] for v in vals)


@st.composite
def _function_values(draw, n):
    """|G| values: constant (its rationals sometimes written in Q(zeta_12),
    an equal value in a wider field) or drawn element by element."""
    if draw(st.booleans()):
        c = draw(_SCALARS)
        wide = c.to_order(12)
        return [draw(st.sampled_from([c, wide])) for _ in range(n)]
    return draw(st.lists(_SCALARS, min_size=n, max_size=n))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), which=st.sampled_from(["d6", "s3", "relabelled"]),
       seed=st.integers(0, 10**6))
def test_one_value_form_matches_tuple_arithmetic(d6, s3_group, data, which, seed):
    group = {"d6": d6, "s3": s3_group}.get(which) or relabelled(d6, seed)
    n = group.order
    fv = data.draw(_function_values(n))
    gv = data.draw(_function_values(n))
    s = data.draw(_SCALARS)
    a = data.draw(st.integers(0, n - 1))
    f, g = GroupFunction(group, fv), GroupFunction(group, gv)
    assert _one_value_form(f) == _constant_values(fv)
    assert _one_value_form(g) == _constant_values(gv)

    def same(h, expected):
        expected = tuple(expected)
        assert h.values == expected
        assert [h(x) for x in range(n)] == list(expected)
        assert _one_value_form(h) == _constant_values(expected)

    same(f, fv)
    same(f + g, (x + y for x, y in zip(fv, gv)))
    same(f - g, (x - y for x, y in zip(fv, gv)))
    same(-f, (-x for x in fv))
    same(f * g, (x * y for x, y in zip(fv, gv)))
    same(f * s, (x * s for x in fv))
    same(s * f, (s * x for x in fv))
    same(f.translate(a), (fv[group.mul(x, a)] for x in range(n)))
    same(f.partial(a), (fv[group.mul(x, a)] - fv[x] for x in range(n)))
    assert f.is_zero() == all(x.is_zero() for x in fv)
    assert (f == g) == all(x == y for x, y in zip(fv, gv))
    assert f == GroupFunction(group, list(fv))


@settings(max_examples=30, deadline=None)
@given(c=_SCALARS, which=st.sampled_from(["d6", "s3", "relabelled"]),
       seed=st.integers(0, 10**6))
def test_equal_values_build_the_constant(d6, s3_group, c, which, seed):
    group = {"d6": d6, "s3": s3_group}.get(which) or relabelled(d6, seed)
    listed = GroupFunction(group, [c] * group.order)
    constant = GroupFunction.constant(group, c)
    assert listed == constant
    assert _one_value_form(listed) and _one_value_form(constant)
    assert listed.constant_value == constant.constant_value == c
