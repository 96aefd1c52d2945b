"""Print how the Ricci-flat solve scales with H = <C>.

For D3 x Z_m, m = 2, 4, 6, 10, 14, 20, 30 and 40, the script builds the
Cayley table itself (D3 from the package's dihedral(3), then the direct
product with z generating Z_m, named as the tests name it: s.z is s times
z), takes the class of s.z, whose members generate H of order 3m and
index 2, and times curvature.ricci_flat_solve on that calculus in process
(CPU seconds, time.process_time, the calculus built beforehand).  It
times the same group again with its non-identity elements renumbered by a
seeded shuffle (RELABEL_SEED), as the tests relabel groups, since an
elimination whose row order follows the element numbering does work that
depends on the numbering.  Per size and labelling it prints |G|, |H|, the
labelling, the CPU seconds and, for each lift variant, the kernel
dimension and the constant parameter triple of the solution, so that two
source trees can be compared line by line.

Run from the repository root:

    python tools/ricci_scaling.py [src-dir]

The default source directory is src next to this script.  Only the
standard library is used.
"""

import os
import random
import sys
import time

SIZES = (2, 4, 6, 10, 14, 20, 30, 40)
RELABEL_SEED = 7


def d3_times_cyclic(groups, m: int):
    """D3 x Z_m: the elements of D3 first, then their products with z^k
    for k = 1 .. m-1, named f"{name}.z" for k = 1 and f"{name}.z{k}"
    after."""
    d3 = groups.dihedral(3)
    n = d3.order

    def name(a: str, k: int) -> str:
        power = "z" if k == 1 else f"z{k}"
        return a if k == 0 else power if a == "e" else f"{a}.{power}"

    names = [name(a, k) for k in range(m) for a in d3.names]
    table = [[((x // n + y // n) % m) * n + d3.mul(x % n, y % n)
              for y in range(m * n)] for x in range(m * n)]
    return groups.FiniteGroup(names, table, name=f"dihedral:3xZ{m}")


def relabelled(groups, group, seed: int):
    """The same group with its non-identity elements renumbered by a
    seeded shuffle; each name moves with its element."""
    n = group.order
    perm = [0] + random.Random(seed).sample(range(1, n), n - 1)
    names = [None] * n
    for old, new in enumerate(perm):
        names[new] = group.names[old]
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[group.mul(a, b)]
    return groups.FiniteGroup(names, table, name=f"{group.name}-relabelled")


def main(argv: list[str]) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, argv[0] if argv else os.path.join(here, os.pardir, "src"))
    from groupgeo import calculus, curvature, groups

    for m in SIZES:
        natural = d3_times_cyclic(groups, m)
        for labels, group in (("natural", natural),
                              ("relabelled", relabelled(groups, natural, RELABEL_SEED))):
            cls = groups.conjugacy_class(group, "s.z")
            cal = calculus.differential_calculus(cls)
            start = time.process_time()
            solves = curvature.ricci_flat_solve(cal)
            seconds = time.process_time() - start
            parts = [f"|G| {cls.group.order}", f"|H| {len(cls.generated_subgroup())}",
                     labels, f"cpu_s {seconds:.4f}"]
            for variant, (params, kernel_dimension) in solves.items():
                triple = " ".join(map(repr, params))
                parts.append(f"{variant} kernel {kernel_dimension} parameters {triple}")
            print("  ".join(parts), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
