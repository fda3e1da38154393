"""Spans and counters for the traced run, installed from outside the program.

The tracer replaces each public function of every trihopf module by a
wrapper, in every namespace that imported it by name, so that calls
between modules are seen (``triangular.tensor2_inv`` and
``constructions.tensor2_inv`` both lead to the span
``tensor.tensor2_inv``).  Public methods and classmethods of the group
classes are wrapped too.  CycScalar arithmetic is counted, not spanned,
at class level: a span per scalar operation would cost more than the
operation.  Spans live in memory with their parent's id and are written
out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from program import MODULES

# called once per group-table lookup; a span there would dwarf the work
UNWRAPPED_METHODS = {"mul"}

ELIM = ("solve_linear", "mat_rank", "mat_kernel", "mat_inv")


def _elim_hook(counts, args, result):
    m = args[0]
    counts["tensor.elim.cells"] += m.nrows * m.ncols
    counts["tensor.elim.max_rows"] = max(counts["tensor.elim.max_rows"], m.nrows)


def _terms_hook(name):
    def hook(counts, args, result):
        counts[f"tensor.{name}.terms"] += len(args[0].nonzeros) * len(args[1].nonzeros)

    return hook


def _dump_hook(counts, args, result):
    counts["serialize.dump.bytes"] += len(result.encode())


def _load_hook(counts, args, result):
    counts["serialize.load.bytes"] += os.path.getsize(args[0])


HOOKS = {
    **{f"tensor.{n}": _elim_hook for n in ELIM},
    "tensor.tensor2_mul": _terms_hook("tensor2_mul"),
    "tensor.tensor3_mul": _terms_hook("tensor3_mul"),
    "serialize.dumps": _dump_hook,
    "serialize.load": _load_hook,
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [id, parent id or -1, name, t0, t1, op]
        self.counts: Counter = Counter()
        self.op = -1  # index of the benchmark op the next spans belong to
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original value)

    # --- recording -------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [sid, stack[-1] if stack else -1, name, 0.0, 0.0, tracer.op]
            spans.append(span)
            stack.append(sid)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def _count_scalars(self, cls):
        counts = self.counts
        mul, inv = cls.__mul__, cls.inv

        def counted_mul(a, b):
            counts["scalars.mul_calls"] += 1
            if a.order != 1 or getattr(b, "order", 1) != 1:
                counts["scalars.cyc_mul_calls"] += 1
            return mul(a, b)

        def counted_inv(a):
            counts["scalars.inv_calls"] += 1
            if a.order != 1:
                counts["scalars.cyc_inv_calls"] += 1
            return inv(a)

        for attr, fn in (("__mul__", counted_mul), ("__rmul__", counted_mul), ("inv", counted_inv)):
            self._patch(cls, attr, fn)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, prog):
        """Wrap the program's public functions; undo with uninstall()."""
        wrapped = {}
        for modname in MODULES:
            mod = getattr(prog, modname)
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(f"{modname}.{attr}", obj)
                elif inspect.isclass(obj) and modname == "groups":
                    self._wrap_class(obj, f"groups.{attr}")
        for ns in [prog.package] + [getattr(prog, m) for m in MODULES]:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(ns, attr, wrapped[obj])
        self._count_scalars(prog.scalars.CycScalar)

    def _wrap_class(self, cls, prefix):
        for attr, obj in list(vars(cls).items()):
            if attr in UNWRAPPED_METHODS or (attr.startswith("_") and attr != "__init__"):
                continue
            if isinstance(obj, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(f"{prefix}.{attr}", obj.__func__)))
            elif inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(f"{prefix}.{attr}", obj))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- output ----------------------------------------------------------

    def write(self, path: Path):
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))


def load(path: Path):
    obj = json.loads(path.read_text())
    return obj["spans"], Counter(obj["counts"])


def span_stats(spans) -> dict:
    """Per span name: calls, total seconds, and self seconds (minus children)."""
    child_time = defaultdict(float)
    for _, parent, _, t0, t1, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, _, name, t0, t1, _ in spans:
        s = stats[name]
        s["calls"] += 1
        s["total_s"] += t1 - t0
        s["self_s"] += t1 - t0 - child_time[sid]
    return stats

