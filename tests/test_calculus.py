"""First-order calculus on a conjugacy class and its degree-2 quotient.

The braiding fixes each diagonal monomial and cycles the off-diagonal ones
in two 3-cycles, so the relation space has dimension 5 and the quotient
dimension 4.  The cycle decomposition is recomputed here from scratch and
used as the oracle for every dimension claim.
"""

import random
from fractions import Fraction

from groupgeo.calculus import GroupFunction, braiding
from groupgeo.cyclotomic import rat


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
    pairs = cal_d6.pairs
    pos = {p: k for k, p in enumerate(pairs)}
    for v in cal_d6.relation_basis:
        pushed = [rat(0)] * len(pairs)
        for k, p in enumerate(pairs):
            image = cal_d6.braid_perm[p]
            pushed[pos[image]] = pushed[pos[image]] + v[k]
        assert list(pushed) == list(v)


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
        rhs = theta.right_mul(f) - cal_d6.one_form([f * c for c in theta.coeffs])
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
        moved = cal_d6.basis_one_form(pos).right_mul(f)
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
    assert cal_d6.wedge(alpha.right_mul(f), beta) == cal_d6.wedge(alpha, f_beta)


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
