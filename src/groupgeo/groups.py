"""Finite groups as validated Cayley tables.

Elements are integer indices into a list of names; index 0 must be the
identity.  The constructor checks the group axioms outright (identity,
Latin-square invertibility, and associativity by Light's test over a
generating set) and reports the first violation with the offending
entries, so anything that gets past it is a genuine group.  The group
keeps that generating set as ``generators``: a representation is proved a
homomorphism over it by the same closure argument.

For the dihedral family the element order is fixed as
e, r, r^2, ..., r^(n-1), s, sr, ..., sr^(n-1); several matrix displays
downstream depend on exactly this ordering.

A conjugacy class keeps its members in a canonical order: if the class is
'cyclic' (it has a cyclic_witness), the witness comes first and the rest follow
its conjugation orbit; otherwise ascending element index.
"""

from __future__ import annotations

import json
from typing import Sequence

from .cyclotomic import rat
from .errors import CayleyValidationError, NonCyclicClassError
from .linalg import Mat


class FiniteGroup:
    """A finite group given by names and a Cayley table of indices."""

    __slots__ = ("names", "table", "name", "generators", "_inv", "_index")

    def __init__(self, names: Sequence[str], table: Sequence[Sequence[int]], name: str | None = None):
        names = tuple(str(x) for x in names)
        table = tuple(tuple(row) for row in table)
        generators = _validate_cayley(names, table)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "name", name or f"order{len(names)}")
        object.__setattr__(self, "_inv", tuple(row.index(0) for row in table))
        object.__setattr__(self, "_index", {lab: i for i, lab in enumerate(names)})

    def __setattr__(self, *_):
        raise AttributeError("FiniteGroup is immutable")

    @property
    def order(self) -> int:
        return len(self.names)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conj(self, g: int, a: int) -> int:
        """g a g^-1."""
        return self.mul(self.mul(g, a), self.inv(g))

    def index(self, label: str) -> int:
        if label not in self._index:
            raise KeyError(f"no element named {label!r} in group {self.name}")
        return self._index[label]

    def label(self, a: int) -> str:
        return self.names[a]

    def conjugacy_class(self, g: int) -> "ConjClass":
        return ConjClass(self, g)

    def right_translation(self, a: int) -> Mat:
        """Matrix of f -> R_a f, (R_a f)(g) = f(ga), in the delta basis."""
        n = self.order
        rows = [[0] * n for _ in range(n)]
        for g in range(n):
            rows[g][self.mul(g, a)] = 1
        return Mat(rows)

    @classmethod
    def from_dict(cls, data: dict) -> "FiniteGroup":
        if not isinstance(data, dict) or "names" not in data or "table" not in data:
            raise CayleyValidationError("Cayley data must be an object with 'names' and 'table'")
        names, table = data["names"], data["table"]
        if not isinstance(names, list) or not isinstance(table, list):
            raise CayleyValidationError("Cayley 'names' and 'table' must be lists")
        if not all(isinstance(row, list) for row in table):
            raise CayleyValidationError("every Cayley table row must be a list")
        return cls(names, table, name=data.get("name"))

    @classmethod
    def from_json_file(cls, path) -> "FiniteGroup":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            # ValueError covers malformed JSON and bytes that are not UTF-8
            raise CayleyValidationError(f"cannot read Cayley table {path}: {exc}") from exc
        return cls.from_dict(data)

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.names == other.names and self.table == other.table

    __hash__ = None

    def __repr__(self):
        return f"FiniteGroup({self.name}, order {self.order})"


def _validate_cayley(names: tuple[str, ...], table: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Check the group axioms; return the generating set of Light's test."""
    n = len(names)
    if n == 0:
        raise CayleyValidationError("empty group: no elements")
    if len(set(names)) != n:
        dup = next(x for x in names if names.count(x) > 1)
        raise CayleyValidationError(f"element names must be unique: {dup!r} repeats")
    if len(table) != n or any(len(row) != n for row in table):
        raise CayleyValidationError(f"table must be {n}x{n} to match the {n} names")
    for g in range(n):
        for h in range(n):
            v = table[g][h]
            if isinstance(v, bool) or not isinstance(v, int) or not (0 <= v < n):
                raise CayleyValidationError(
                    f"table entry ({names[g]}, {names[h]}) = {v!r} is not an element index")
    for g in range(n):
        if table[0][g] != g:
            raise CayleyValidationError(
                f"identity axiom violated: e*{names[g]} = {names[table[0][g]]}, expected {names[g]}")
        if table[g][0] != g:
            raise CayleyValidationError(
                f"identity axiom violated: {names[g]}*e = {names[table[g][0]]}, expected {names[g]}")
    for g in range(n):
        if len(set(table[g])) != n:
            raise CayleyValidationError(
                f"invertibility axiom violated: row of {names[g]} is not a permutation")
        col = [table[h][g] for h in range(n)]
        if len(set(col)) != n:
            raise CayleyValidationError(
                f"invertibility axiom violated: column of {names[g]} is not a permutation")
    gens = tuple(_right_generators(table))
    for h in gens:
        row_h = table[h]
        for g in range(n):
            row_g, row_gh = table[g], table[table[g][h]]
            if list(row_gh) != [row_g[x] for x in row_h]:
                k = next(k for k in range(n) if row_gh[k] != row_g[row_h[k]])
                raise CayleyValidationError(
                    "associativity violated at triple "
                    f"({names[g]}, {names[h]}, {names[k]}): "
                    f"({names[g]}*{names[h]})*{names[k]} = {names[row_gh[k]]} but "
                    f"{names[g]}*({names[h]}*{names[k]}) = {names[row_g[row_h[k]]]}")
    return gens


def _right_generators(table: tuple[tuple[int, ...], ...]) -> list[int]:
    """Elements S, chosen greedily in index order, such that every element
    is a left-to-right product (...((e s_1) s_2)...) s_k of members of S.

    Light's associativity test needs (g h) k = g (h k) only for h in S: the
    h that satisfy it for every g and k form a set closed under the
    product, and it holds h = e, so it holds for all of the table.  In a
    group each new member at least doubles the subgroup reached, so S has
    at most log2(n) members and the check costs O(n^2 log n), not O(n^3).
    """
    gens: list[int] = []
    reached = {0}
    while len(reached) < len(table):
        gens.append(next(g for g in range(len(table)) if g not in reached))
        reached = _right_closure(table, gens)
    return gens


def _right_closure(table, gens: Sequence[int]) -> set[int]:
    """The elements reached from the identity by right multiplications with
    members of gens; in a group, the subgroup they generate."""
    reached = {0}
    todo = [0]
    while todo:
        g = todo.pop()
        for h in gens:
            gh = table[g][h]
            if gh not in reached:
                reached.add(gh)
                todo.append(gh)
    return reached


class ConjClass:
    """A conjugacy class with a canonical member order.

    For cyclic classes the order is witness first, then the witness's
    conjugation orbit; the dihedral(6) class of sr comes out as
    (sr, sr3, sr5), the ordering every table downstream assumes.
    """

    __slots__ = ("group", "members", "cyclic_witness")

    def __init__(self, group: FiniteGroup, representative: int):
        orbit = sorted({group.conj(h, representative) for h in range(group.order)})
        witness = None
        if len(orbit) >= 2:
            witness = _find_cyclic_witness(group, orbit)
        if witness is not None:
            rest = [a for a in orbit if a != witness]
            ordered = [witness]
            cur = rest[0]
            for _ in rest:
                ordered.append(cur)
                cur = group.conj(witness, cur)
            members = tuple(ordered)
        else:
            members = tuple(orbit)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "cyclic_witness", witness)

    def __setattr__(self, *_):
        raise AttributeError("ConjClass is immutable")

    @property
    def size(self) -> int:
        return len(self.members)

    def labels(self) -> tuple[str, ...]:
        return tuple(self.group.label(a) for a in self.members)

    def generated_subgroup(self) -> list[int]:
        """The elements of H = <C> in ascending order, so the identity
        comes first."""
        return sorted(_right_closure(self.group.table, self.members))

    def left_cosets(self) -> list[tuple[int, ...]]:
        """The left cosets gH of H = <C>, g the least element of its coset,
        in ascending order of g.  Each coset lists g h for h in the order of
        generated_subgroup(), so it starts with g, and position p of every
        coset is the left translate of the subgroup's position p."""
        group = self.group
        subgroup = self.generated_subgroup()
        cosets: list[tuple[int, ...]] = []
        covered: set[int] = set()
        for g in range(group.order):
            if g not in covered:
                coset = tuple(group.mul(g, h) for h in subgroup)
                cosets.append(coset)
                covered.update(coset)
        return cosets

    def position(self, element: int) -> int:
        """Index of a group element inside the class member order."""
        return self.members.index(element)

    def __contains__(self, element: int) -> bool:
        return element in self.members

    def __iter__(self):
        return iter(self.members)

    def require_calculus_admissible(self) -> int:
        """The cyclic witness, or a NonCyclicClassError explaining the failure."""
        if 0 in self.members:
            raise NonCyclicClassError(
                f"class {self.labels()} contains the identity; no calculus exists for it")
        if self.size < 2:
            raise NonCyclicClassError(
                f"class {self.labels()} has fewer than 2 members")
        if self.cyclic_witness is None:
            raise NonCyclicClassError(
                f"class {self.labels()} is not cyclic: no member's conjugation action "
                "cyclically permutes the others with a -> a t a^-1 onto the class")
        return self.cyclic_witness

    def __repr__(self):
        return f"ConjClass({', '.join(self.labels())})"


def coset_lift(vec: Sequence, cosets: Sequence[Sequence[int]], order: int) -> list:
    """Carry a vector on a subgroup K to the group of the given order by
    left translation over the given left cosets of K.

    vec holds blocks of |K| values, entry i*|K| + p at the p-th element of
    K; each coset lists g k for k in K in that order.  The result holds the
    same blocks of |G| values, with entry i*|G| + coset[p] = vec[i*|K| + p]
    on every given coset and zero off them.  A system that commutes with
    left translation and keeps each coset gK to itself is one copy of its
    restriction to K per coset, so lifting a solution over one coset gives
    a solution and over all of them the solution's induced copy (Serre,
    Linear Representations of Finite Groups, section 7).
    """
    k = len(cosets[0])
    out = [rat(0)] * (len(vec) // k * order)
    for start in range(0, len(vec), k):
        base = start // k * order
        for coset in cosets:
            for p, x in enumerate(coset):
                out[base + x] = vec[start + p]
    return out


def _find_cyclic_witness(group: FiniteGroup, orbit: list[int]) -> int | None:
    """First t in ascending order such that conjugation by t is one cycle on
    the other members and a -> a t a^-1 permutes the class."""
    cls = set(orbit)
    for t in orbit:
        rest = [a for a in orbit if a != t]
        cur = rest[0]
        cycle_len = 0
        seen = set()
        while cur in cls and cur != t and cur not in seen:
            seen.add(cur)
            cycle_len += 1
            cur = group.conj(t, cur)
        if not (cycle_len == len(rest) and cur == rest[0]):
            continue
        image = {group.conj(a, t) for a in orbit}
        if image == cls:
            return t
    return None


def ad_table(cls: ConjClass) -> list[list[int]]:
    """Conjugation table in class positions: entry [i][j] is the position
    of c_i c_j c_i^-1."""
    g = cls.group
    return [[cls.position(g.conj(a, b)) for b in cls.members] for a in cls.members]


def class_product_table(cls: ConjClass) -> list[list[int]]:
    """Group products of class members: entry [i][j] is the element c_i c_j."""
    g = cls.group
    return [[g.mul(a, b) for b in cls.members] for a in cls.members]


def conjugacy_class(group: FiniteGroup, g) -> ConjClass:
    """Class of a representative given by index or by element name."""
    if isinstance(g, str):
        g = group.index(g)
    return group.conjugacy_class(g)


def dihedral(n: int) -> FiniteGroup:
    """The dihedral group of order 2n: rotations r^k and reflections s r^k,
    with s r^a = r^(-a) s."""
    if n < 1:
        raise ValueError(f"dihedral parameter must be a positive integer, got {n}")
    names = ["e"] + [f"r{k}" if k > 1 else "r" for k in range(1, n)]
    names += ["s"] + [f"sr{k}" if k > 1 else "sr" for k in range(1, n)]

    def code(flip: int, rot: int) -> int:
        return flip * n + rot % n

    def mul(a: int, b: int) -> int:
        fa, ra = divmod(a, n)
        fb, rb = divmod(b, n)
        # (s^fa r^ra)(s^fb r^rb) = s^(fa+fb) r^(rb - ra) if fb else s^fa r^(ra+rb)
        if fb:
            return code((fa + fb) % 2, rb - ra)
        return code(fa, ra + rb)

    table = [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]
    return FiniteGroup(names, table, name=f"dihedral:{n}")
