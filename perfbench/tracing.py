"""In-process tracing of ``groupgeo`` from outside the package.

Spans: every public function of each ``groupgeo`` module (and the two
methods that stand for a layer's work, ``Mat.__matmul__`` and
``FiniteGroup.from_json_file``) is replaced by a wrapper that records a
span with its name, start, end, parent span and operation.  A function is
replaced under every name that refers to it, so the names other modules
imported by value (``connections.solve_affine``, ``dirac.rank``, ...) are
traced as well.  Nothing under ``src/`` changes; ``Patches.restore`` puts
every original back.

Counts: a separate pass counts cyclotomic additions, multiplications and
inversions and the largest cyclotomic order, so the cost of a wrapper on
every scalar operation stays out of the span times.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import time

LAYERS = ("groups", "calculus", "connections", "curvature", "linalg",
          "representations", "dirac", "reporting", "cli")

# Called once per matrix entry: a span would cost more than the work it
# times, and the counting pass already covers scalar arithmetic.
SKIP = frozenset({"linalg.as_scalar"})


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


def modules() -> dict:
    names = ("groupgeo",) + tuple(f"groupgeo.{m}" for m in LAYERS + ("cyclotomic", "errors"))
    return {name: importlib.import_module(name) for name in names}


def _replace_everywhere(patches: Patches, mods, original, replacement) -> None:
    for mod in mods:
        for attr, value in list(vars(mod).items()):
            if value is original:
                patches.set(mod, attr, replacement)


class Tracer:
    """Spans kept in memory as [name, start, end, parent, op, cells]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, cells=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op,
                    cells(*args) if cells else 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def instrument(self, patches: Patches) -> None:
        mods = modules()
        for layer in LAYERS:
            mod = mods[f"groupgeo.{layer}"]
            for name, fn in list(vars(mod).items()):
                span = f"{layer}.{name}"
                if (name.startswith("_") or span in SKIP or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                cells = _matrix_cells if span == "linalg.rref" else None
                _replace_everywhere(patches, mods.values(), fn, self.wrap(span, fn, cells))
        linalg, groups = mods["groupgeo.linalg"], mods["groupgeo.groups"]
        patches.set(linalg.Mat, "__matmul__",
                    self.wrap("linalg.matmul", linalg.Mat.__matmul__))
        loader = groups.FiniteGroup.__dict__["from_json_file"].__func__
        patches.set(groups.FiniteGroup, "from_json_file",
                    classmethod(self.wrap("groups.from_json_file", loader)))


def _matrix_cells(matrix, *_args) -> int:
    return matrix.nrows * matrix.ncols


class ArithmeticCounter:
    """Counts of cyclotomic operations; ``sub`` counts as an addition
    because ``Cyclotomic.__sub__`` adds the negation."""

    def __init__(self):
        self.mul_ops = 0
        self.add_ops = 0
        self.inverse_ops = 0
        self.max_order = 1

    def instrument(self, patches: Patches) -> None:
        cyc = modules()["groupgeo.cyclotomic"].Cyclotomic
        mul, add, inverse = cyc.__mul__, cyc.__add__, cyc.inverse
        counter = self

        def counted_mul(a, b):
            counter.mul_ops += 1
            out = mul(a, b)
            if out is not NotImplemented and out.order > counter.max_order:
                counter.max_order = out.order
            return out

        def counted_add(a, b):
            counter.add_ops += 1
            out = add(a, b)
            if out is not NotImplemented and out.order > counter.max_order:
                counter.max_order = out.order
            return out

        def counted_inverse(a):
            counter.inverse_ops += 1
            return inverse(a)

        for name, fn in (("__mul__", counted_mul), ("__rmul__", counted_mul),
                         ("__add__", counted_add), ("__radd__", counted_add),
                         ("inverse", counted_inverse)):
            patches.set(cyc, name, fn)


def run_cli(argv) -> tuple[int, bytes, bytes, float]:
    """Run ``groupgeo.cli.main`` in this process: exit code, stdout and
    stderr bytes, wall seconds.  ``main`` is looked up at call time so a
    traced wrapper is used when one is installed."""
    cli = importlib.import_module("groupgeo.cli")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    seconds = time.perf_counter() - start
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8"), seconds


# -- turning spans into per-layer figures ------------------------------------

class SpanTable:
    """Inclusive and self time per span name, over a list of spans.

    Inclusive time counts only the outermost span of a name, so recursion
    is not counted twice.  Self time is a span's duration minus the time
    its direct children cover; children run inside their parent on one
    thread, so their intervals do not overlap.
    """

    def __init__(self, spans: list[list]):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _op, _cells in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.self_time = [s[2] - s[1] - child_time[i] for i, s in enumerate(spans)]

    def _outermost(self, i: int) -> bool:
        name, parent = self.spans[i][0], self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return False
            parent = self.spans[parent][3]
        return True

    def select(self, names, ops=None) -> list[int]:
        names = {names} if isinstance(names, str) else set(names)
        return [i for i, s in enumerate(self.spans)
                if s[0] in names and (ops is None or s[4] in ops)]

    def seconds(self, names, ops=None) -> float:
        return sum(self.spans[i][2] - self.spans[i][1]
                   for i in self.select(names, ops) if self._outermost(i))

    def calls(self, names, ops=None) -> int:
        return len(self.select(names, ops))

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for s, t in zip(self.spans, self.self_time) if s[0].startswith(prefix))

    def names_in(self, ops) -> set[str]:
        return {s[0] for s in self.spans if s[4] in ops}
