"""Representations of dihedral-structured groups and their completeness."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import relabelled
from groupgeo.cyclotomic import cyclo, rat
from groupgeo.errors import UnsupportedGroupError
from groupgeo.groups import dihedral
from groupgeo.linalg import Mat
from groupgeo.representations import Representation, irreducibles
from oracles import (
    character,
    conj_entries,
    conjugacy_classes,
    conjugate,
    homomorphism_violation,
    matrix_element,
    peter_weyl_matrix,
    peter_weyl_rank,
    planar1,
    rank,
    sign2,
)


def test_spinor_matrices_pinned(d6, rep_d6):
    w = cyclo(6)
    assert rep_d6.dim == 2
    assert rep_d6(d6.index("r")) == Mat([[w, 0], [0, cyclo(6, 5)]])
    assert rep_d6(d6.index("s")) == Mat([[0, 1], [1, 0]])
    assert rep_d6(d6.index("sr")) == Mat([[0, cyclo(6, 5)], [w, 0]])
    assert rep_d6(0) == Mat.identity(2)


def test_spinor_class_sum_vanishes(rep_d6, cls_d6):
    total = Mat.zeros(2, 2)
    for a in cls_d6:
        total = total + rep_d6(a)
    assert total.is_zero()


def test_spinor_unitary(d6, rep_d6):
    for g in range(12):
        assert rep_d6(g) @ rep_d6(g).conj_transpose() == Mat.identity(2)


def test_sign2_values(d6):
    rep = sign2(d6)
    assert rep(d6.index("r")) == Mat.identity(2)
    assert rep(d6.index("s")) == Mat([[-1, 0], [0, 1]])
    assert rep(d6.index("sr3")) == Mat([[-1, 0], [0, 1]])


def test_non_dihedral_group_rejected():
    from groupgeo.groups import FiniteGroup
    z3 = FiniteGroup(["e", "a", "b"], [[0, 1, 2], [1, 2, 0], [2, 0, 1]], name="z3")
    with pytest.raises(UnsupportedGroupError, match="no dihedral presentation"):
        irreducibles(z3)


def test_irreducible_catalog_of_d6(d6):
    reps = irreducibles(d6)
    assert [r.name for r in reps] == [
        "trivial", "sign", "rot-parity", "rot-parity*sign", "planar1", "planar2"]
    assert [r.dim for r in reps] == [1, 1, 1, 1, 2, 2]
    assert sum(r.dim ** 2 for r in reps) == 12


def test_character_orthogonality_d6(d6):
    reps = irreducibles(d6)
    chars = [character(r) for r in reps]
    for i, ci in enumerate(chars):
        for j, cj in enumerate(chars):
            inner = rat(0)
            for g in range(12):
                inner = inner + ci[g] * cj[g].conj()
            assert inner == rat(12 if i == j else 0)


def test_peter_weyl_rank_d6(d6):
    assert peter_weyl_rank(irreducibles(d6)) == 12


def test_irreducible_catalog_of_d3():
    d3 = dihedral(3)
    reps = irreducibles(d3)
    assert [r.dim for r in reps] == [1, 1, 2]
    assert sum(r.dim ** 2 for r in reps) == 6
    assert peter_weyl_rank(reps) == 6


def test_spinor_on_loaded_cayley_group(s3_group, s3_cls):
    rep = planar1(s3_group)
    assert rep.dim == 2
    total = Mat.zeros(2, 2)
    for a in s3_cls:
        total = total + rep(a)
    assert total.is_zero()


def test_homomorphism_check_rejects_garbage(d6):
    mats = [Mat.identity(2)] * 11 + [Mat([[0, 1], [1, 0]])]
    with pytest.raises(ValueError, match="not a homomorphism"):
        Representation(d6, mats, name="broken")


def _reps_to_perturb(group):
    return [sign2(group)] + [
        rep for rep in irreducibles(group) if rep.name.startswith("planar")]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), which=st.sampled_from(["d6", "s3", "relabelled"]),
       seed=st.integers(0, 2 ** 32 - 1),
       change=st.sampled_from(["swap", "conjugate", "identity", "negate coset"]))
def test_generator_check_rejects_exactly_what_the_full_scan_rejects(
        d6, s3_group, data, which, seed, change):
    group = {"d6": d6, "s3": s3_group}.get(which) or relabelled(d6, seed)
    rep = data.draw(st.sampled_from(_reps_to_perturb(group)))
    mats = list(rep.matrices)
    a = data.draw(st.integers(0, group.order - 1))
    if change == "swap":
        b = data.draw(st.integers(0, group.order - 1))
        mats[a], mats[b] = mats[b], mats[a]
    elif change == "conjugate":
        mats[a] = conj_entries(mats[a])
    elif change == "identity":
        mats[a] = Mat.identity(rep.dim)
    else:
        # negate rho on the left coset a<s> of one generator: this passes the
        # products with s, so only the other generators can reject it
        s = data.draw(st.sampled_from(group.generators))
        x = a
        while True:
            mats[x] = mats[x] * -1
            x = group.mul(x, s)
            if x == a:
                break
    try:
        Representation(group, mats)
        rejected = None
    except ValueError as exc:
        # a unitarity failure means the homomorphism check passed
        rejected = None if "not unitary" in str(exc) else str(exc)
    assert (rejected is None) == (homomorphism_violation(group, mats) is None)
    if rejected is None:
        return
    if "identity must map" in rejected:
        assert mats[0] != Mat.identity(rep.dim)
        return
    # the named pair really fails
    x, y = (group.index(name) for name in re.search(
        r"not a homomorphism at \(([^,]+), ([^)]+)\)", rejected).groups())
    assert y in group.generators
    assert mats[x] @ mats[y] != mats[group.mul(x, y)]


def test_homomorphism_check_costs_generators_times_order_products(monkeypatch, d6):
    products = []
    matmul = Mat.__matmul__

    def counted(self, other):
        if isinstance(other, Mat):
            products.append((self.nrows, other.ncols))
        return matmul(self, other)

    spinor = planar1(d6).matrices
    monkeypatch.setattr(Mat, "__matmul__", counted)
    rep = Representation(d6, spinor, name="spinor")
    # S = (r, s): 2 x 12 products instead of all 144 pairs
    assert len(products) == len(d6.generators) * d6.order == 24
    # the conjugate representation runs the same check
    products.clear()
    conjugate(rep)
    assert len(products) == 24


def test_character_is_a_class_function(d6, rep_d6):
    chi = character(rep_d6)
    for cls in conjugacy_classes(d6):
        vals = {str(chi[g]) for g in cls}
        assert len(vals) == 1


def test_conjugate_representation(rep_d6):
    conj = conjugate(rep_d6)
    for g in range(12):
        assert conj(g) == conj_entries(rep_d6(g))


def test_matrix_element_functions(rep_d6, d6):
    # row k column l of the spinor, evaluated across the group
    f = matrix_element(rep_d6, 1, 0)
    assert f[d6.index("r")] == rat(0)
    assert f[d6.index("sr")] == cyclo(6)
    assert f[0] == rat(0)
    assert len(f) == 12


def test_planar2_has_real_character(d6):
    planar2 = [r for r in irreducibles(d6) if r.name == "planar2"][0]
    for v in character(planar2):
        assert v.conj() == v


def test_rank_drops_without_the_planar_family(d6):
    reps = [r for r in irreducibles(d6) if r.dim == 1]
    assert rank(peter_weyl_matrix(reps)) == 4
