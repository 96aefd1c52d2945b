"""Cayley tables for the D6 x Z2 workload, generated from ``dihedral(6)``.

Three tables are written, all deterministic functions of the seed:

* ``d6z2.json``: the direct product in its natural order, elements of
  D6 first (same names), then their products with the central z.
* ``d6z2-relabelled.json``: the same group with indices 1..23 permuted by
  the seed.  Index 0 stays the identity and every element keeps its name,
  so ``--class sr`` names the same class in both tables.
* ``d6z2-corrupt.json``: the relabelled table with the two values of one
  2x2 subsquare swapped.  It keeps the identity and Latin-square axioms, so
  validation has to run the associativity scan to reject it.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

# rows g, g.z and columns h, h.z hold a 2x2 subsquare because z is a
# central involution: g h = (g z)(h z) and g (h z) = (g z) h
CORRUPT_ROW, CORRUPT_COL = "r", "s"


def direct_product_z2(group) -> dict:
    n = group.order
    names = list(group.names) + ["z" if a == "e" else f"{a}.z" for a in group.names]

    def mul(x: int, y: int) -> int:
        return ((x // n + y // n) % 2) * n + group.mul(x % n, y % n)

    table = [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]
    return {"name": f"{group.name}xZ2", "names": names, "table": table}


def relabel(data: dict, seed: int) -> dict:
    """Permute indices 1..n-1 with a seeded shuffle; names travel with
    their elements."""
    n = len(data["names"])
    rest = list(range(1, n))
    random.Random(seed).shuffle(rest)
    perm = [0] + rest  # old index -> new index
    names = [None] * n
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        names[perm[i]] = data["names"][i]
        for j in range(n):
            table[perm[i]][perm[j]] = perm[data["table"][i][j]]
    return {"name": data["name"], "names": names, "table": table}


def corrupt(data: dict) -> dict:
    names = data["names"]
    rows = (names.index(CORRUPT_ROW), names.index(CORRUPT_ROW + ".z"))
    cols = (names.index(CORRUPT_COL), names.index(CORRUPT_COL + ".z"))
    table = [list(row) for row in data["table"]]
    for g in rows:
        table[g][cols[0]], table[g][cols[1]] = table[g][cols[1]], table[g][cols[0]]
    return {"name": data["name"] + "-corrupt", "names": list(names), "table": table}


KEYS = ("d6z2", "d6z2-relabelled", "d6z2-corrupt")


def table_paths(out_dir: Path) -> dict[str, Path]:
    return {key: out_dir / f"{key}.json" for key in KEYS}


def write_tables(out_dir: Path, seed: int) -> dict[str, Path]:
    """Write the three tables and check each against ``FiniteGroup``
    validation: the first two must load, the corrupted one must fail."""
    from groupgeo.errors import CayleyValidationError
    from groupgeo.groups import FiniteGroup, dihedral

    natural = direct_product_z2(dihedral(6))
    shuffled = relabel(natural, seed)
    tables = {
        "d6z2": natural,
        "d6z2-relabelled": shuffled,
        "d6z2-corrupt": corrupt(shuffled),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = table_paths(out_dir)
    for key, data in tables.items():
        paths[key].write_text(json.dumps(data, sort_keys=True) + "\n", encoding="utf-8")
    for key in ("d6z2", "d6z2-relabelled"):
        FiniteGroup.from_json_file(paths[key])
    try:
        FiniteGroup.from_json_file(paths["d6z2-corrupt"])
    except CayleyValidationError as exc:
        if "associativity" not in str(exc):
            raise RuntimeError(f"corrupted table failed the wrong axiom: {exc}") from exc
    else:
        raise RuntimeError("corrupted D6 x Z2 table passed validation")
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write the D6 x Z2 tables.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    write_tables(args.out, args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
