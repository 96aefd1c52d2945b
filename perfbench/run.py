"""Benchmark of the ``groupgeo`` CLI on three workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload d6z2-cayley --seed 1 --seconds 20 --trace 0

With ``--trace 0`` every operation of a workload runs as a fresh
``python3 -m groupgeo.cli`` child, one at a time (closed loop, one
client), and passes repeat until ``--seconds`` is used up; the last line is
a JSON object with the end-to-end metrics.  With ``--trace 1`` one pass runs
in this process three times (untraced, with spans, with arithmetic counters)
and the last line carries the per-layer metrics instead.  Every output is
checked against its oracle (see ``workloads.py``); a wrong exit code or a
wrong report counts as a failed operation.

Every end-to-end time is CPU seconds at a reference speed.  On a small
shared machine the speed of a CPU swings by tens of percent within seconds
and drifts over minutes, so this process times a fixed pure-Python
``Fraction`` loop (the kind of work ``groupgeo`` does) before and after
each child and, once a second, while the child is held stopped; the
child's CPU time is scaled by ``REFERENCE_CHUNK_S`` over the loop's mean
time.  Raw wall times are printed beside the scaled ones.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tables  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
STARTUP_REPEATS = 5

# CPU seconds of one probe chunk at the reference speed.  A running child is
# paused every PROBE_EVERY_S of wall time for PROBE_CHUNKS chunks, and
# PROBE_CHUNKS more run after it ends.
REFERENCE_CHUNK_S = 0.045
PROBE_EVERY_S = 1.0
PROBE_CHUNKS = 2


class SpeedProbe:
    """Machine speed, sampled in this process while no child runs."""

    def __init__(self):
        self._before = self.sample()
        self._chunks: list[float] = []

    @staticmethod
    def _chunk() -> float:
        start = time.process_time()
        step, acc = Fraction(1, 3), Fraction(0)
        for i in range(1, 8000):
            acc = acc + step * Fraction(i, i + 1)
            if i % 97 == 0:
                acc = Fraction(acc.numerator % 1000003, acc.denominator % 1000003 or 1)
        return time.process_time() - start

    def sample(self) -> list[float]:
        return [self._chunk() for _ in range(PROBE_CHUNKS)]

    def start(self) -> None:
        self._chunks = list(self._before)

    def during(self) -> None:
        self._chunks += self.sample()

    def finish(self) -> float:
        """Factor that turns the CPU time of the child that just ended into
        reference seconds, from the chunks run before, during and after it."""
        self._before = self.sample()
        chunks = self._chunks + self._before
        return REFERENCE_CHUNK_S / statistics.mean(chunks)


def wait_probing(pid: int, probe: SpeedProbe | None):
    """Wait for a child; with a probe, stop the child every PROBE_EVERY_S,
    sample the speed while it is stopped, then continue it.  Returns the
    exit status, the child's resource use and the seconds it was stopped."""
    if probe is None:
        _, status, usage = os.wait4(pid, 0)
        return status, usage, 0.0
    stopped = 0.0
    while True:
        deadline = time.monotonic() + PROBE_EVERY_S
        while time.monotonic() < deadline:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                return status, usage, stopped
            time.sleep(0.02)
        os.kill(pid, signal.SIGSTOP)
        _, status, usage = os.wait4(pid, os.WUNTRACED)
        if not os.WIFSTOPPED(status):
            return status, usage, stopped
        paused = time.perf_counter()
        try:
            probe.during()
        finally:
            os.kill(pid, signal.SIGCONT)
            stopped += time.perf_counter() - paused


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Checkout:
    """The source tree under test and the scratch directory of a run."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.work = HERE / "work"
        self.env = dict(os.environ, PYTHONPATH=str(self.src))

    def missing(self) -> list[str]:
        need = [self.src / "groupgeo" / "cli.py", self.root / workloads.GOLDEN,
                workloads.EXPECTED]
        return [str(p) for p in need if not p.is_file()]

    def child(self, args: list[str], probe: SpeedProbe | None = None) -> dict:
        """Run one child to completion.  Wall time leaves out the time the
        probe held it stopped; CPU time and peak RSS come from ``os.wait4``
        on that child alone; ``seconds`` is the CPU time at reference speed."""
        self.work.mkdir(parents=True, exist_ok=True)
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            if probe:
                probe.start()
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.root,
                                    env=self.env, stdout=out, stderr=err)
            try:
                status, usage, stopped = wait_probing(proc.pid, probe)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start - stopped
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return {
            "code": proc.returncode,
            "out": out_path.read_bytes(),
            "err": err_path.read_bytes(),
            "wall": wall,
            "cpu": cpu,
            "seconds": cpu * probe.finish() if probe else None,
            "rss_mb": usage.ru_maxrss / 1024.0,
        }

    def cli(self, argv, probe: SpeedProbe | None = None) -> dict:
        return self.child(["-m", "groupgeo.cli", *argv], probe)

    def setup(self, seed: int, probe: SpeedProbe) -> tuple[dict[str, Path], float]:
        """Generate and validate the tables ``SETUP_REPEATS`` times, each in
        a fresh interpreter that imports ``groupgeo``; median time."""
        tables_dir = self.work / "tables"
        times = []
        for _ in range(SETUP_REPEATS):
            res = self.child([str(HERE / "tables.py"), "--seed", str(seed),
                              "--out", str(tables_dir)], probe)
            if res["code"] != 0:
                raise RuntimeError("table set-up failed: "
                                   + res["err"].decode("utf-8", "replace"))
            times.append(res["seconds"])
        paths = {key: path.relative_to(self.root)
                 for key, path in tables.table_paths(tables_dir).items()}
        return paths, statistics.median(times)


def summarize(values: list[float]) -> str:
    return (f"p50 {statistics.median(values):.4f}  max {max(values):.4f}  "
            f"n {len(values)}")


# -- untraced: end-to-end metrics --------------------------------------------

def measure(box: Checkout, ops, seconds: float, expected: dict,
            probe: SpeedProbe) -> tuple[dict, int, int]:
    passes, per_metric, walls, peak_rss = [], {}, {}, 0.0
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        times = []
        for op in ops:
            res = box.cli(op.argv, probe)
            attempted += 1
            problem = workloads.check(op, res["code"], res["out"], res["err"], expected)
            if problem:
                failed += 1
                print(f"FAIL {op.key}: {problem}")
            times.append(res["seconds"])
            peak_rss = max(peak_rss, res["rss_mb"])
            per_metric.setdefault(op.metric, []).append(times[-1])
            walls.setdefault(op.metric, []).append(res["wall"])
        passes.append(sum(times))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) > seconds:
            break
    for name in sorted(per_metric):
        print(f"{name:<20} {summarize(per_metric[name])} s  "
              f"(wall p50 {statistics.median(walls[name]):.4f} s)")
    print(f"{'op_failure_ratio':<20} {failed / attempted:.4f}  ({failed}/{attempted} ops)")
    print(f"passes {len(passes)}: " + ", ".join(f"{p:.3f}" for p in passes) + " s")
    metrics = {
        "pass_s": (statistics.median(passes), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    return metrics, attempted, failed


# -- traced: per-layer metrics -----------------------------------------------

def traced(box: Checkout, ops, expected: dict, name: str) -> tuple[dict, int, int, list[str]]:
    """One pass untraced, one with spans, one with counters, all in this
    process; reports must be byte-identical across the three."""
    import tracing

    sys.path.insert(0, str(box.src))
    import sympy  # noqa: F401  -- imported lazily by the CLI; keep it out of the first pass

    startup = [box.cli(["--help"])["wall"] for _ in range(STARTUP_REPEATS)]
    attempted = failed = 0
    plain, problems = {}, []
    for op in ops:
        plain[op.key] = tracing.run_cli(op.argv)
        code, out, err, _ = plain[op.key]
        attempted += 1
        problem = workloads.check(op, code, out, err, expected)
        if problem:
            failed += 1
            print(f"FAIL {op.key}: {problem}")

    tracer, patches = tracing.Tracer(), tracing.Patches()
    tracer.instrument(patches)
    try:
        spanned = {}
        for op in ops:
            tracer.op = op.key
            spanned[op.key] = tracing.run_cli(op.argv)
    finally:
        patches.restore()
    counter = tracing.ArithmeticCounter()
    counter.instrument(patches)
    try:
        counted = {op.key: tracing.run_cli(op.argv) for op in ops}
    finally:
        patches.restore()

    for op in ops:
        for label, runs in (("spans", spanned), ("counters", counted)):
            if runs[op.key][:2] != plain[op.key][:2]:
                problems.append(f"{op.key}: report bytes differ with {label} on")

    table = tracing.SpanTable(tracer.spans)
    problems += rationale_problems(name, ops, table)
    plain_s = sum(r[3] for r in plain.values())
    spanned_s = sum(r[3] for r in spanned.values())
    failed_ops = {op.key for op in ops if plain[op.key][0] != 0}
    m = layer_metrics(table, failed_ops)
    m.update({
        "cli.startup_s": (statistics.median(startup), "s"),
        "cyclotomic.mul_ops": (counter.mul_ops, "count"),
        "cyclotomic.add_ops": (counter.add_ops, "count"),
        "cyclotomic.inverse_ops": (counter.inverse_ops, "count"),
        "cyclotomic.max_order": (counter.max_order, "count"),
        "trace.untraced_pass_s": (plain_s, "s"),
        "trace.overhead_ratio": (spanned_s / plain_s, "ratio"),
    })
    return m, attempted, failed, problems


# Spans that only the Dirac path opens.  The wave operator lives in the same
# module and is expected on every workload.
DIRAC_ONLY = ("dirac.dirac_operator", "dirac.gamma_matrices", "dirac.chirality",
              "dirac.eigenmode_catalog", "representations.builtin_rep")
SOLVES = ("connections.torsion_free_family", "curvature.ricci_flat_solve")


def rationale_problems(name: str, ops, table) -> list[str]:
    """The reasons each workload was chosen, checked against its trace."""
    if name == "d6z2-cayley":
        valid = {op.key for op in ops if op.oracle != "reject"}
        seen = table.names_in(valid) & set(DIRAC_ONLY)
        return [f"valid D6 x Z2 ops opened Dirac spans: {sorted(seen)}"] if seen else []
    if name == "spinor-mu-sweep":
        seen = table.names_in({op.key for op in ops}) & set(SOLVES)
        return [f"spinor sweep opened solve spans: {sorted(seen)}"] if seen else []
    calls = table.calls("connections.levi_civita")
    return [] if calls > 1 else [f"report-all called levi_civita {calls} time(s)"]


SECTIONS = ("calculus", "connection", "curvature", "ricci", "dirac", "wave",
            "spectral_action")


def layer_metrics(t, failed_ops: set[str]) -> dict:
    rref = [t.spans[i][5] for i in t.select("linalg.rref")]
    m = {
        "groups.load_s": (t.seconds(("groups.dihedral", "groups.from_json_file")), "s"),
        "groups.class_s": (t.seconds("groups.conjugacy_class"), "s"),
        "calculus.build_s": (t.seconds("calculus.differential_calculus"), "s"),
        "connections.torsion_solve_s": (t.seconds("connections.torsion_free_family"), "s"),
        "connections.regular_scan_s": (t.seconds("connections.constant_regular_scan"), "s"),
        "connections.levi_civita_calls": (t.calls("connections.levi_civita"), "count"),
        "connections.levi_civita_s": (t.seconds("connections.levi_civita"), "s"),
        "connections.wasted_solve_s": (t.seconds(SOLVES, failed_ops), "s"),
        "curvature.ricci_flat_solve_s": (t.seconds("curvature.ricci_flat_solve"), "s"),
        "curvature.ricci_calls": (t.calls("curvature.ricci"), "count"),
        "curvature.forms_s": (t.seconds("curvature.curvature_forms"), "s"),
        "linalg.rref_s": (t.seconds("linalg.rref"), "s"),
        "linalg.rref_calls": (len(rref), "count"),
        "linalg.rref_cells": (sum(rref), "count"),
        "linalg.rref_max_cells": (max(rref, default=0), "count"),
        "linalg.matmul_s": (t.seconds("linalg.matmul"), "s"),
        "linalg.matmul_calls": (t.calls("linalg.matmul"), "count"),
        "representations.build_s": (t.seconds("representations.builtin_rep"), "s"),
        "dirac.operator_s": (t.seconds("dirac.dirac_operator"), "s"),
        "dirac.operator_builds": (t.calls("dirac.dirac_operator"), "count"),
        "dirac.wave_operator_s": (t.seconds("dirac.wave_operator"), "s"),
        "dirac.spectrum_s": (t.seconds("dirac.spectrum"), "s"),
        "dirac.spectrum_calls": (t.calls("dirac.spectrum"), "count"),
        "dirac.chirality_s": (t.seconds("dirac.chirality"), "s"),
        "dirac.minpoly_s": (t.seconds("dirac.minimal_polynomial"), "s"),
        "dirac.catalog_s": (t.seconds(("dirac.eigenmode_catalog",
                                       "dirac.wave_eigenmode_catalog")), "s"),
        "dirac.action_s": (t.seconds("dirac.spectral_action"), "s"),
        "reporting.self_s": (t.layer_self("reporting"), "s"),
        "reporting.render_s": (t.seconds("cli.render"), "s"),
    }
    for section in SECTIONS:
        m[f"reporting.{section}_s"] = (t.seconds(f"reporting.{section}_report"), "s")
    for layer in ("groups", "calculus", "connections", "curvature", "linalg",
                  "representations", "dirac"):
        m[f"{layer}.self_s"] = (t.layer_self(layer), "s")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    # unwind on SIGTERM so a child held stopped by the probe is killed, not left
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    box = Checkout(Path.cwd())
    missing = box.missing()
    if missing:
        print("error: run from the root of a groupgeo checkout; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2
    expected = workloads.load_expected()
    probe = SpeedProbe()
    table_files, setup_s = box.setup(args.seed, probe)
    ops = workloads.build(args.workload, args.seed, table_files)
    problems = []
    if args.trace:
        metrics, attempted, failed, problems = traced(box, ops, expected, args.workload)
    else:
        metrics, attempted, failed = measure(box, ops, args.seconds, expected, probe)
        metrics["setup_s"] = (setup_s, "s")
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name:<34} {shown} {unit}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
