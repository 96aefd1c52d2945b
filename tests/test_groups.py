"""Finite groups, Cayley validation, conjugacy classes, cyclic witnesses."""

import itertools
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from groupgeo import groups
from groupgeo.errors import CayleyValidationError, NonCyclicClassError
from groupgeo.groups import (
    FiniteGroup,
    ad_table,
    class_product_table,
    conjugacy_class,
    dihedral,
)
from groupgeo.linalg import Mat
from oracles import associativity_violation, cayley_dict, conjugacy_classes


def test_dihedral_6_structure(d6):
    assert d6.order == 12
    assert d6.names == ("e", "r", "r2", "r3", "r4", "r5",
                        "s", "sr", "sr2", "sr3", "sr4", "sr5")
    r, s = d6.index("r"), d6.index("s")
    # defining relations of the dihedral presentation
    acc = r
    for _ in range(5):
        acc = d6.mul(acc, r)
    assert acc == 0
    assert d6.mul(s, s) == 0
    assert d6.mul(s, r) == d6.mul(d6.inv(r), s)


def test_inverses_and_index(d6):
    for g in range(12):
        assert d6.mul(g, d6.inv(g)) == 0
        assert d6.mul(d6.inv(g), g) == 0
    assert d6.index("sr3") == 9
    with pytest.raises(KeyError):
        d6.index("q")


def test_conjugacy_class_partition(d6):
    classes = conjugacy_classes(d6)
    assert sorted(classes) == [
        (0,), (1, 5), (2, 4), (3,), (6, 8, 10), (7, 9, 11)]


def test_reflection_class_ordering(cls_d6, d6):
    # witness first, then its conjugation orbit
    assert cls_d6.members == (7, 9, 11)
    assert cls_d6.labels() == ("sr", "sr3", "sr5")
    assert cls_d6.cyclic_witness == 7
    assert cls_d6.size == 3
    assert cls_d6.position(9) == 1
    assert 9 in cls_d6 and 1 not in cls_d6
    assert list(cls_d6) == [7, 9, 11]
    # all members are involutions
    for a in cls_d6:
        assert d6.mul(a, a) == 0


def test_string_lookup_matches_index_lookup(d6, cls_d6):
    by_name = conjugacy_class(d6, "sr")
    assert by_name.members == cls_d6.members


def test_other_reflection_class_is_cyclic_too(d6):
    cls = d6.conjugacy_class(d6.index("s"))
    assert cls.cyclic_witness == d6.index("s")
    assert cls.labels() == ("s", "sr2", "sr4")


def test_rotation_class_is_not_cyclic(d6):
    cls = d6.conjugacy_class(d6.index("r"))
    assert cls.cyclic_witness is None
    with pytest.raises(NonCyclicClassError, match="not cyclic"):
        cls.require_calculus_admissible()


def test_identity_class_rejected(d6):
    cls = d6.conjugacy_class(0)
    with pytest.raises(NonCyclicClassError, match="identity"):
        cls.require_calculus_admissible()


def test_ad_table_values(cls_d6):
    assert ad_table(cls_d6) == [[0, 2, 1], [2, 1, 0], [1, 0, 2]]


def test_class_product_table_values(cls_d6, d6):
    r2, r4 = d6.index("r2"), d6.index("r4")
    table = class_product_table(cls_d6)
    assert [[d6.label(v) for v in row] for row in table] == [
        ["e", "r2", "r4"], ["r4", "e", "r2"], ["r2", "r4", "e"]]
    # products of distinct members avoid e and land in the rotation subgroup
    for i in range(3):
        for j in range(3):
            if i != j:
                assert table[i][j] in (r2, r4)


def test_right_translation_composition(d6):
    # (R_a f)(g) = f(ga), so matrices compose covariantly
    for a, b in [(1, 6), (7, 9), (3, 11)]:
        ra, rb = d6.right_translation(a), d6.right_translation(b)
        assert ra @ rb == d6.right_translation(d6.mul(a, b))
    assert d6.right_translation(0) == Mat.identity(12)


def test_right_translation_is_permutation(d6):
    m = d6.right_translation(7)
    for g in range(12):
        row = [m[g, h] for h in range(12)]
        assert sum(v.as_fraction() for v in row) == 1
        assert m[g, d6.mul(g, 7)].as_fraction() == 1


def test_cayley_rejects_duplicate_names():
    with pytest.raises(CayleyValidationError, match="unique"):
        FiniteGroup(["e", "a", "a"], [[0, 1, 2], [1, 2, 0], [2, 0, 1]])


def test_cayley_rejects_bad_shape():
    with pytest.raises(CayleyValidationError, match="table must be"):
        FiniteGroup(["e", "a"], [[0, 1]])


def test_cayley_rejects_out_of_range_entry():
    with pytest.raises(CayleyValidationError, match="not an element index"):
        FiniteGroup(["e", "a"], [[0, 1], [1, 7]])


def test_cayley_rejects_broken_identity():
    with pytest.raises(CayleyValidationError, match="identity axiom"):
        FiniteGroup(["e", "a"], [[1, 0], [0, 1]])


def test_cayley_rejects_repeating_row():
    with pytest.raises(CayleyValidationError, match="row of a"):
        FiniteGroup(["e", "a", "b"], [[0, 1, 2], [1, 1, 2], [2, 2, 0]])


def test_cayley_rejects_repeating_column():
    with pytest.raises(CayleyValidationError, match="column of"):
        FiniteGroup(["e", "a", "b"], [[0, 1, 2], [1, 2, 0], [2, 1, 0]])


def test_cayley_rejects_nonassociative_loop():
    # a Latin square with identity that is not a group: names the bad triple
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(CayleyValidationError, match="associativity violated at triple"):
        FiniteGroup(["e", "a", "b", "c", "d"], table)


def _intercalates(table):
    # 2x2 subsquares [[u, v], [v, u]] off the identity row and column: swapping
    # u and v inside one keeps the identity and Latin-square axioms
    n = len(table)
    return [(r1, r2, c1, c2)
            for r1, r2 in itertools.combinations(range(1, n), 2)
            for c1, c2 in itertools.combinations(range(1, n), 2)
            if table[r1][c1] == table[r2][c2] and table[r1][c2] == table[r2][c1]]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), which=st.sampled_from([0, 1]), swaps=st.integers(0, 3))
def test_light_test_rejects_exactly_what_the_full_scan_rejects(
        d6, s3_group, data, which, swaps):
    group = (d6, s3_group)[which]
    table = [list(row) for row in group.table]
    for _ in range(swaps):
        r1, r2, c1, c2 = data.draw(st.sampled_from(_intercalates(table)))
        table[r1][c1], table[r1][c2] = table[r1][c2], table[r1][c1]
        table[r2][c1], table[r2][c2] = table[r2][c2], table[r2][c1]
    if associativity_violation(table) is None:
        assert FiniteGroup(group.names, table).table == tuple(map(tuple, table))
        return
    with pytest.raises(CayleyValidationError, match="associativity violated") as info:
        FiniteGroup(group.names, table)
    # the named triple really fails
    g, h, k = (group.names.index(x) for x in re.search(
        r"triple \(([^,]+), ([^,]+), ([^)]+)\)", str(info.value)).groups())
    assert table[table[g][h]][k] != table[g][table[h][k]]


def test_generated_subgroup(d6, cls_d6, cls_d6z2, s3_cls):
    # ascending, so the identity is the first basis function of a block
    assert [d6.label(g) for g in cls_d6.generated_subgroup()] == [
        "e", "r2", "r4", "sr", "sr3", "sr5"]
    assert [cls_d6z2.group.label(g) for g in cls_d6z2.generated_subgroup()] == [
        "e", "r2", "r4", "sr", "sr3", "sr5"]
    assert s3_cls.generated_subgroup() == list(range(6))


def test_light_test_checks_a_small_generating_set():
    assert groups._right_generators(dihedral(6).table) == [1, 6]
    # r and s: two of the 512 elements instead of all of them
    assert len(groups._right_generators(dihedral(256).table)) == 2


def test_validation_keeps_its_generating_set(monkeypatch):
    calls = []

    def recorded(table):
        calls.append(len(table))
        return right_generators(table)

    right_generators = groups._right_generators
    monkeypatch.setattr(groups, "_right_generators", recorded)
    # computed once, by the associativity check, and kept for
    # representations to prove their homomorphism over
    assert dihedral(6).generators == (1, 6)
    assert calls == [12]


def test_round_trip_through_dict(d6):
    again = FiniteGroup.from_dict(cayley_dict(d6))
    assert again == d6
    assert again.name == d6.name


def test_round_trip_through_json_file(d6, tmp_path):
    path = tmp_path / "d6.json"
    path.write_text(json.dumps(cayley_dict(d6)))
    assert FiniteGroup.from_json_file(path) == d6


def test_from_json_file_missing(tmp_path):
    with pytest.raises(CayleyValidationError, match="cannot read"):
        FiniteGroup.from_json_file(tmp_path / "absent.json")


def test_from_dict_requires_keys():
    with pytest.raises(CayleyValidationError, match="names"):
        FiniteGroup.from_dict({"table": [[0]]})


def test_loaded_s3_is_isomorphic_to_dihedral_3(s3_group):
    ref = dihedral(3)
    assert s3_group.order == 6
    found = False
    # brute force over bijections fixing the identity
    for perm in itertools.permutations(range(1, 6)):
        phi = (0,) + perm
        if all(phi[ref.mul(a, b)] == s3_group.mul(phi[a], phi[b])
               for a in range(6) for b in range(6)):
            found = True
            break
    assert found


def test_s3_class_of_u(s3_cls, s3_group):
    assert s3_cls.labels() == ("u", "v", "uvu")
    assert s3_cls.cyclic_witness == s3_group.index("u")
    table = class_product_table(s3_cls)
    assert [[s3_group.label(v) for v in row] for row in table] == [
        ["e", "uv", "vu"], ["vu", "e", "uv"], ["uv", "vu", "e"]]
