"""The behaviour ledger: the outcome of every CLI command on a fixed grid.

The grid is seven tables built by the tests/conftest.py builders (D3, D4,
D6, the dicyclic group of order 12, A4, D6 x Z2 and S3 x Z4), each written
as a Cayley file, with one representative per non-identity class (the
least element index of the class), the 8 commands and six moduli.  Each
run is ``cli.main`` in process; its outcome is the exit code, the sha256
of stdout and the full stderr.  tests/test_ledger.py replays the recorded
ledger, so any input whose outcome a change moves is named.

Record it again, from the repository root, only when a change is meant to
move an outcome:

    PYTHONPATH=src python tests/ledger.py

which rewrites tests/data/ledger.json.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from conftest import alternating4, dicyclic3, direct_product_cyclic
from groupgeo.cli import COMMANDS, main
from groupgeo.groups import FiniteGroup, conjugacy_class, dihedral

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
LEDGER = os.path.join(DATA_DIR, "ledger.json")

TABLES = {
    "D3": lambda: dihedral(3),
    "D4": lambda: dihedral(4),
    "D6": lambda: dihedral(6),
    "Dic3": dicyclic3,
    "A4": alternating4,
    "D6xZ2": lambda: direct_product_cyclic(dihedral(6), 2),
    "S3xZ4": lambda: direct_product_cyclic(
        FiniteGroup.from_json_file(os.path.join(DATA_DIR, "s3_cayley.json")), 4),
}

MUS = ("0", "-1/3", "-1/4", "-1/2", "1/2", "2/5")


def write_table(name: str, directory: str) -> tuple[str, FiniteGroup]:
    """Write the named table as a Cayley file; its path and its group."""
    group = TABLES[name]()
    path = os.path.join(directory, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"name": group.name, "names": list(group.names),
                   "table": [list(row) for row in group.table]}, fh)
    return path, group


def representatives(group: FiniteGroup) -> list[str]:
    """The least element of each non-identity class, by name, ascending."""
    reps = {min(conjugacy_class(group, g).members) for g in range(1, group.order)}
    return [group.label(g) for g in sorted(reps)]


def outcome(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
            "stderr": err.getvalue()}


def table_outcomes(name: str, directory: str) -> dict[str, dict]:
    """Every grid outcome on one table, keyed "<table> <class> <cmd> <mu>"."""
    path, group = write_table(name, directory)
    return {f"{name} {label} {cmd} {mu}": outcome(
                ["--cayley", path, "--class", label, f"--mu={mu}", "--cmd", cmd])
            for label in representatives(group) for cmd in COMMANDS for mu in MUS}


def record() -> dict[str, dict]:
    ledger = {}
    with tempfile.TemporaryDirectory() as directory:
        for name in TABLES:
            ledger.update(table_outcomes(name, directory))
    return ledger


if __name__ == "__main__":
    entries = record()
    # one entry per line, so a re-recording diffs by input
    with open(LEDGER, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(key)}: {json.dumps(entries[key], sort_keys=True)}"
            for key in sorted(entries)) + "\n}\n")
    codes = [e["exit"] for e in entries.values()]
    print(f"{len(entries)} runs: " + ", ".join(
        f"{codes.count(c)} exit {c}" for c in sorted(set(codes))), file=sys.stderr)
