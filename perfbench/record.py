"""Record the oracle for the benchmark's fixed-input operations.

Run from the root of a checkout whose reports are trusted:

    python3 perfbench/record.py

It writes ``perfbench/expected.json``: the sha256 of every fixed-input
report (the spinor sweep and the D6 x Z2 commands on the natural
labelling) and, per D6 x Z2 command, the order-independent fields that
the relabelled runs are compared with.  The D6 report-all is checked
against ``tests/data/golden_d6_report.json`` instead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from run import Checkout, SpeedProbe  # noqa: E402


def main() -> int:
    box = Checkout(Path.cwd())
    tables, _ = box.setup(0, SpeedProbe())
    digests, fields = {}, {}
    for op in workloads.sweep_ops() + workloads.d6z2_natural_ops(tables):
        res = box.cli(op.argv)
        if res["code"] != 0:
            raise RuntimeError(f"{op.key} exited {res['code']}")
        digests[op.key] = workloads.sha256(res["out"])
        if op.key.startswith("d6z2:"):
            fields[op.command] = workloads.invariants(json.loads(res["out"]))
        print(f"{op.key}: {res['wall']:.2f} s")
    workloads.EXPECTED.write_text(
        json.dumps({"sha256": digests, "invariants": fields}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
