"""The benchmark's workloads and the oracle every operation is checked by.

An operation is one ``groupgeo`` command line.  Each workload is a fixed
list of operations; the seed only relabels the D6 x Z2 table and shuffles
the order of the spinor sweep, so every seed runs the same mathematics.

* ``d6-report-all``: the paper's worked case, the one input with a golden
  file.  One process runs every layer and recomputes ``levi_civita`` five
  times and the Dirac operator and its spectrum twice, so per-run
  memoisation can show here and nowhere else.
* ``d6z2-cayley``: the order-24 D6 x Z2 table, the largest accepted input,
  with only rational matrices.  Time goes to the ``linalg`` solves behind
  the torsion and Ricci systems; no Dirac operator is built.  Three
  rejected inputs ride along: a corrupted table and ``dirac`` on a
  non-dihedral group (exit 3), and a singular metric (exit 4, reached only
  after the torsion solve).
* ``spinor-mu-sweep``: ``dirac``, ``spectral-action`` and ``wave`` on D6
  at four metric moduli and on D3 at mu = 0.  Time goes to operator build,
  spectrum certification, chirality, minimal polynomial and catalogs; no
  torsion or Ricci system is solved.  Every command is its own process.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

GOLDEN = Path("tests") / "data" / "golden_d6_report.json"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

VALIDATION_EXIT = 3
PRECONDITION_EXIT = 4


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what it must produce.

    ``oracle`` is ``golden`` (bytes equal the golden report), ``digest``
    (sha256 recorded in expected.json), ``invariants`` (the fields that do
    not depend on element order equal those recorded for the natural
    labelling) or ``reject`` (non-zero exit, empty stdout, and stderr
    naming ``stderr_has``).
    """

    key: str
    command: str
    argv: tuple[str, ...]
    oracle: str
    exit_code: int = 0
    stderr_has: str = ""

    @property
    def metric(self) -> str:
        """Name of the per-command wall-time figure this op feeds."""
        if self.oracle == "reject":
            return "reject_s"
        return self.command.replace("-", "_") + "_s"


def _dihedral(n: int, cmd: str, mu: str = "0") -> tuple[str, ...]:
    return ("--group", f"dihedral:{n}", "--class", "sr", f"--mu={mu}", "--cmd", cmd)


def _cayley(path: Path, cmd: str, mu: str = "0") -> tuple[str, ...]:
    return ("--cayley", str(path), "--class", "sr", f"--mu={mu}", "--cmd", cmd)


D6Z2_COMMANDS = ("calculus", "connection", "curvature", "ricci", "wave")
SWEEP_COMMANDS = ("dirac", "spectral-action", "wave")
SWEEP_MUS = ("0", "1", "1/2", "2/5")
NAMES = ("d6-report-all", "d6z2-cayley", "spinor-mu-sweep")


def d6z2_natural_ops(tables: dict[str, Path]) -> list[Op]:
    """The valid D6 x Z2 commands on the natural labelling; their reports
    define the order-independent fields the relabelled runs must match."""
    return [Op(f"d6z2:{cmd}", cmd, _cayley(tables["d6z2"], cmd), "digest")
            for cmd in D6Z2_COMMANDS]


def sweep_ops() -> list[Op]:
    ops = [Op(f"dihedral:6:{cmd}@{mu}", cmd, _dihedral(6, cmd, mu), "digest")
           for mu in SWEEP_MUS for cmd in SWEEP_COMMANDS]
    ops += [Op(f"dihedral:3:{cmd}@0", cmd, _dihedral(3, cmd), "digest")
            for cmd in SWEEP_COMMANDS]
    return ops


def build(name: str, seed: int, tables: dict[str, Path]) -> list[Op]:
    """The operation list of one workload pass."""
    if name == "d6-report-all":
        return [Op("report-all", "report-all", _dihedral(6, "report-all"), "golden")]
    if name == "d6z2-cayley":
        shuffled = tables["d6z2-relabelled"]
        ops = [Op(f"d6z2:{cmd}", cmd, _cayley(shuffled, cmd), "invariants")
               for cmd in D6Z2_COMMANDS]
        ops += [
            Op("reject:corrupt-table", "calculus",
               _cayley(tables["d6z2-corrupt"], "calculus"), "reject",
               VALIDATION_EXIT, "associativity violated"),
            Op("reject:dirac-non-dihedral", "dirac", _cayley(shuffled, "dirac"),
               "reject", VALIDATION_EXIT, "error(validation)"),
            Op("reject:singular-metric", "connection",
               _cayley(shuffled, "connection", "-1/3"), "reject",
               PRECONDITION_EXIT, "error(precondition)"),
        ]
        return ops
    if name == "spinor-mu-sweep":
        ops = sweep_ops()
        random.Random(seed).shuffle(ops)
        return ops
    raise KeyError(name)


# -- the oracle --------------------------------------------------------------

def invariants(report) -> dict:
    """Fields of a report that survive a relabelling of the group: every
    boolean, every integer under a key naming a dimension, and every
    spectrum table.  Matrices, chart parameters and member orders are left
    out because they follow the element order."""
    out = {}

    def walk(node, path):
        if isinstance(node, dict):
            if path.endswith("spectrum"):
                out[path + ".table"] = node["table"]
                out[path + ".dimension"] = node["dimension"]
                return
            for key in sorted(node):
                walk(node[key], f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            for i, item in enumerate(node):
                walk(item, f"{path}[{i}]")
        elif isinstance(node, bool):
            out[path] = node
        elif isinstance(node, int) and "dimension" in path:
            out[path] = node

    walk(report, "")
    return out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def check(op: Op, code: int, out: bytes, err: bytes, expected: dict) -> str | None:
    """None when the op behaved as recorded, otherwise what went wrong."""
    if code != op.exit_code:
        tail = err.decode("utf-8", "replace").strip().splitlines()[-1:] or [""]
        return f"exit {code}, expected {op.exit_code}: {tail[0][:200]}"
    if op.oracle == "reject":
        if out:
            return "rejected input wrote a report"
        if op.stderr_has not in err.decode("utf-8", "replace"):
            return f"error message does not name {op.stderr_has!r}"
        return None
    if op.oracle == "golden":
        if out != GOLDEN.read_bytes():
            return "report differs from the golden file"
        return None
    if op.oracle == "digest":
        if sha256(out) != expected["sha256"].get(op.key):
            return "report digest differs from the recorded one"
        return None
    try:
        got = invariants(json.loads(out))
    except ValueError:
        return "report is not JSON"
    want = expected["invariants"][op.command]
    bad = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    if bad:
        return f"order-independent fields differ: {', '.join(bad[:5])}"
    return None
