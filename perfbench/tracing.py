"""Outside-in tracer: spans around the calls into each einlog layer.

The tracer patches the name each caller looks up (a module global such as
``einlog.planner.execute`` or a class attribute such as
``PremiseInput.gather``) with a wrapper that records a span: name, start,
end, parent span and run id, plus counts computed from the call's arguments
and result.  A target that no longer exists is reported as absent and the
run goes on, so a refactor that removes a wrapped function does not fail the
benchmark.  Spans stay in memory; the benchmark writes them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from math import prod

import numpy as np


def _lines(text: str) -> int:
    return sum(1 for ln in text.splitlines() if ln.split("#", 1)[0].strip())


def _array(x) -> np.ndarray:
    return x if isinstance(x, np.ndarray) else np.asarray(x.data)


def _plan_counts(args, plan) -> dict:
    ext = plan.extents
    biggest = max((prod(ext[ch] for ch in s.result_subscript) for s in plan.steps),
                  default=0)
    return {"mprime": plan.max_intermediate_arity, "intermediate_bytes": 8 * biggest}


# (span name, module, attribute path, counts from (args, result) or None)
TARGETS = (
    ("fol.parse", "einlog", "parse_rules", None),
    ("kb.load_evidence", "einlog", "load_evidence",
     lambda a, r: {"lines": _lines(a[0])}),
    ("kb.load_queries", "einlog", "load_queries", None),
    ("kb.masks", "einlog.kb", "KnowledgeBase.masks", None),
    ("io.load_unary", "einlog.io", "load_unary", lambda a, r: {"lines": _lines(a[0])}),
    ("io.format", "einlog.io", "format_marginals_csv",
     lambda a, r: {"rows": r.count("\n"), "bytes": len(r.encode())}),
    ("engine.validate", "einlog.engine", "UnaryTable.validate", None),
    ("engine.compile", "einlog.engine", "compile_rules", None),
    ("engine.iterate", "einlog.engine", "iterate", None),
    ("engine.message", "einlog.engine", "message", None),
    ("engine.gather", "einlog.engine", "PremiseInput.gather",
     lambda a, r: {"bytes": _array(r).nbytes}),
    ("planner.plan", "einlog.planner", "plan", _plan_counts),
    ("planner.execute", "einlog.planner", "execute",
     lambda a, r: {"flops": a[0].total_cost}),
    ("tensor.broadcast", "einlog.planner", "broadcast_output",
     lambda a, r: {"bytes": _array(r).nbytes}),
    ("tensor.softmax", "einlog.engine", "softmax_lastaxis",
     lambda a, r: {"elems": _array(r).size}),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int            # index of the enclosing span, -1 at top level
    run: int
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Install with ``with Tracer(run_id) as tracer:``; patches are undone on exit."""

    def __init__(self, run: int = 0, targets=TARGETS):
        self.run = run
        self.targets = targets
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for name, module, path, counter in self.targets:
            *owner_path, attr = path.split(".")
            try:
                owner = importlib.import_module(module)
                for part in owner_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0.0, 0.0, parent, self.run)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    span.counts = counter(args, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    pass  # a changed signature loses the counts, not the run
            return result
        return traced


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, covered)]


LAYERS = ("fol", "kb", "io", "engine", "planner", "tensor")
# Entry points every workload calls, so none of these times is structurally
# zero; the text loaders of kb are summed into one figure for the same reason.
# Entries that only some workloads reach (io.load_unary, tensor.broadcast)
# show in their layer's self time and in the trace file.
TIMED = ("fol.parse", "kb.masks", "io.format", "engine.validate", "engine.compile",
         "engine.message", "engine.gather", "planner.plan", "planner.execute",
         "tensor.softmax")


def layer_metrics(spans: list[Span], solve_window: tuple[float, float]
                  ) -> tuple[dict, dict]:
    """Per-layer self times, and computed counts, of one traced run."""
    own = self_seconds(spans)

    def self_time(match) -> float:
        return sum(t for s, t in zip(spans, own) if match(s.name))

    def calls(name) -> int:
        return sum(1 for s in spans if s.name == name)

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    def peak(name, key):
        return max((s.counts.get(key, 0) for s in spans if s.name == name), default=0)

    times = {f"{name}_s": self_time(name.__eq__) for name in TIMED}
    times["kb.load_s"] = self_time({"kb.load_evidence", "kb.load_queries"}.__contains__)
    times["engine.iterate_s"] = sum(s.seconds for s in spans if s.name == "engine.iterate")
    times["engine.iterate_self_s"] = self_time("engine.iterate".__eq__)
    for layer in LAYERS:
        times[f"{layer}.self_s"] = self_time(lambda n: n.split(".")[0] == layer)
    lo, hi = solve_window
    times["trace.solve_self_sum_s"] = sum(t for s, t in zip(spans, own)
                                          if lo <= s.start and s.end <= hi)
    counts = {
        "planner.execute_calls": calls("planner.execute"),
        "planner.flops": total("planner.execute", "flops"),
        "planner.max_mprime": peak("planner.plan", "mprime"),
        "planner.max_intermediate_bytes": peak("planner.plan", "intermediate_bytes"),
        "tensor.softmax_elems": total("tensor.softmax", "elems"),
        "tensor.broadcast_bytes": total("tensor.broadcast", "bytes"),
        "engine.gather_calls": calls("engine.gather"),
        "engine.gather_bytes": total("engine.gather", "bytes"),
        "engine.implications": calls("planner.plan"),
        "kb.evidence_lines": total("kb.load_evidence", "lines"),
        "io.unary_lines": total("io.load_unary", "lines"),
        "io.report_rows": total("io.format", "rows"),
        "io.report_bytes": total("io.format", "bytes"),
    }
    return times, counts
