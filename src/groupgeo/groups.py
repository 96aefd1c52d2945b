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
its conjugation orbit; otherwise ascending element index.  Beside that
order it builds, once, the two tables every layer reads: ad[i][j], the
position of c_i c_j c_i^-1, and products[i][j], the element c_i c_j.  A
conjugate x = c^-1 a c is read as a = ad[c][x], so no inverse is needed.
It also gives the subgroup H = <C> it generates, on which the layers
build a left-covariant operator's block.

Preconditions.  Every refusal that depends on the input alone is stated
here, so the command line can run it before it imports a layer: a calculus
needs require_calculus_admissible, the connection chart a 3-member class
with circulant products (require_chart_class), the frame metric
mu != -1/|C| (require_invertible_metric) and the spinor representations a
dihedral presentation (dihedral_structure).  The layers call the same
functions.  Each command meets them in this order, after the calculus
check:

    calculus                  none
    connection                chart, metric
    curvature, ricci          chart
    dirac, spectral-action    dihedral presentation, chart, metric
    wave                      metric
    report-all                chart, metric, dihedral presentation

The casimir normalisation mu != -1/4 is checked by dirac alone; it comes
after these for every command that needs it.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from typing import Sequence

from .errors import (CayleyValidationError, NonCyclicClassError, SingularMetricError,
                     UnsupportedGroupError)

# longest Cayley table file read, in bytes (one byte more shows a file
# longer): almost seven times the 1.23 MB table of AGL(1,23), of order 506
MAX_CAYLEY_BYTES = 8 * 2 ** 20


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

    @classmethod
    def from_dict(cls, data: dict) -> "FiniteGroup":
        if not isinstance(data, dict) or "names" not in data or "table" not in data:
            raise CayleyValidationError("Cayley data must be an object with 'names' and 'table'")
        names, table = data["names"], data["table"]
        if not isinstance(names, list) or not isinstance(table, list):
            raise CayleyValidationError("Cayley 'names' and 'table' must be lists")
        if not all(isinstance(row, list) for row in table):
            raise CayleyValidationError("every Cayley table row must be a list")
        for i, label in enumerate(names):
            if not isinstance(label, str):
                raise CayleyValidationError(
                    f"Cayley 'names'[{i}] must be a string, got {type(label).__name__}")
        if "name" in data and not isinstance(data["name"], str):
            raise CayleyValidationError(
                f"Cayley 'name' must be a string, got {type(data['name']).__name__}")
        return cls(names, table, name=data.get("name"))

    @classmethod
    def from_json_file(cls, path) -> "FiniteGroup":
        try:
            with open(path, "rb") as fh:
                raw = fh.read(MAX_CAYLEY_BYTES + 1)
            if len(raw) > MAX_CAYLEY_BYTES:
                raise CayleyValidationError(
                    f"Cayley table {path} is longer than the limit of {MAX_CAYLEY_BYTES} bytes")
            data = json.loads(raw.decode("utf-8"))
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
    counts = Counter(names)
    if len(counts) != n:
        dup = next(x for x in names if counts[x] > 1)
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
    (sr, sr3, sr5), the ordering every table downstream assumes.  In that
    order, ad[i][j] is the position of c_i c_j c_i^-1 and products[i][j]
    the element c_i c_j.
    """

    __slots__ = ("group", "members", "cyclic_witness", "ad", "products")

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
        position = {a: i for i, a in enumerate(members)}
        object.__setattr__(self, "ad", tuple(
            tuple(position[group.conj(a, b)] for b in members) for a in members))
        object.__setattr__(self, "products", tuple(
            tuple(group.mul(a, b) for b in members) for a in members))

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

    def circulant_products(self) -> bool:
        """Class products follow the 3x3 pattern [[d,v,u],[u,d,v],[v,u,d]]
        with u, v off the class; the pattern behind the calculus's fixed
        2-form basis and the connection chart."""
        if self.size != 3:
            return False
        pt = self.products
        d, u, v = pt[0][0], pt[1][0], pt[2][0]
        return len({d, u, v}) == 3 and pt == ((d, v, u), (u, d, v), (v, u, d))

    def __repr__(self):
        return f"ConjClass({', '.join(self.labels())})"


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


def conjugacy_class(group: FiniteGroup, g) -> ConjClass:
    """Class of a representative given by index or by element name."""
    if isinstance(g, str):
        g = group.index(g)
    return group.conjugacy_class(g)


# -- preconditions that read only the input --------------------------------

def require_chart_class(cls: ConjClass) -> None:
    """Raise UnsupportedGroupError unless the class has the 3 members with
    circulant products that the connection chart is stated for."""
    if not cls.circulant_products():
        raise UnsupportedGroupError(
            "connection chart requires a 3-member class with circulant products")


def require_invertible_metric(size: int, mu) -> None:
    """Raise SingularMetricError at mu = -1/size, where the frame metric
    delta_{ab} + mu of a class of that size degenerates."""
    if 1 + size * Fraction(mu) == 0:
        raise SingularMetricError(
            f"metric modulus mu = {Fraction(mu)} is singular for a class of size {size}")


def dihedral_structure(group: FiniteGroup) -> tuple[tuple[int, int], ...]:
    """Detect dihedral structure: the first element r of order n = |G|/2 and
    the first involution s outside <r> with s r s^-1 = r^-1.  Returns the
    decomposition of the group by them, in element order: (0, i) for r^i
    and (1, i) for s r^i.  Raises UnsupportedGroupError when the group has
    no such presentation."""
    order = group.order
    if order % 2 or order < 2:
        raise UnsupportedGroupError(
            f"group {group.name} of order {order} has no dihedral presentation")
    n = order // 2
    for r in range(order):
        subgroup = _right_closure(group.table, [r])
        if len(subgroup) != n:
            continue
        for s in range(order):
            if s in subgroup or group.mul(s, s) != 0:
                continue
            if group.conj(s, r) == group.inv(r):
                return _decomposition(group, r, s)
    raise UnsupportedGroupError(
        f"group {group.name} of order {order} has no dihedral presentation")


def _decomposition(group: FiniteGroup, rotation: int,
                   reflection: int) -> tuple[tuple[int, int], ...]:
    n = group.order // 2
    decomp = [None] * group.order
    cur = 0
    for i in range(n):
        decomp[cur] = (0, i)
        decomp[group.mul(reflection, cur)] = (1, i)
        cur = group.mul(cur, rotation)
    assert None not in decomp, "rotation/reflection pair does not decompose the group"
    return tuple(decomp)


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
