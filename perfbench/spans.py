"""Outside-in instrumentation of rosevent: call tallies and timed spans.

Every layer is observed from outside the package, by replacing a public
function with a wrapper in every rosevent module that binds it (the same
function is often imported under a second name, e.g. ``bench.integrate``
is ``events.integrate``). ``problems.h`` is wrapped on each problem
instance the benchmark builds. Nothing inside the package changes.

A span is (name, start, end, parent). Spans are kept in flat arrays while a
batch runs and reduced to per-name call counts, inclusive time and self
time (duration minus the durations of its wrapped children) afterwards.
"""

from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

#: (module, function) pairs wrapped in a traced run
LAYERS = (
    ("linalg", "lu_factor"),
    ("linalg", "lu_solve"),
    ("linalg", "fd_jacobian"),
    ("linalg", "fd_gradient"),
    ("rosenbrock", "step_matrix"),
    ("rosenbrock", "ros1_step"),
    ("rosenbrock", "ros2_step"),
    ("rosenbrock", "ros2_finish"),
    ("rosenbrock", "dense_eval"),
    ("rosenbrock", "dense_derivative"),
    ("problems", "eval_field"),
    ("problems", "field_jacobian"),
    ("problems", "h_gradient"),
    ("events", "integrate"),
    ("events", "locate_event"),
    ("bench", "reference_event_state"),
    ("bench", "run_order_study"),
    ("filippov", "filippov_coeffs"),
    ("filippov", "classify_spp"),
    ("filippov", "classify_general"),
    ("onesided", "resolve_case_1b"),
    ("onesided", "guard_ros2_dense"),
)

#: span name of the per-instance event-function wrapper
H_SPAN = "problems.h"

#: spans whose return values are kept for the derived per-layer metrics
OBSERVED = ("events.locate_event", "onesided.guard_ros2_dense")

NAMES = tuple(f"{mod}.{fn}" for mod, fn in LAYERS) + (H_SPAN,)


@dataclass
class LayerTotals:
    """One traced batch reduced per span name: calls, inclusive and self
    nanoseconds, the kept return values, and how many factorizations ran
    directly inside a case-1b shortening."""

    calls: dict
    incl_ns: dict
    self_ns: dict
    results: dict
    lu_in_case_1b: int


class Tracer:
    """Span recorder. The wrappers it makes append to its arrays, which
    `reduce` folds into totals and empties in place."""

    def __init__(self):
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.results = {name: [] for name in OBSERVED}
        self._stack = [-1]

    def wrap(self, name: str, fn):
        name_id = NAMES.index(name)
        keep = self.results.get(name)
        clock = time.perf_counter_ns
        stack = self._stack
        ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends

        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(name_id)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if keep is not None:
                keep.append(out)
            return out

        return traced

    def reduce(self) -> LayerTotals:
        if self._stack != [-1]:
            raise RuntimeError("spans are still open")
        ids = np.array(self.name_ids, dtype=np.intp)
        parents = np.array(self.parents, dtype=np.int64)
        dur = np.array(self.ends, dtype=np.int64) - np.array(self.starts, dtype=np.int64)
        nested = parents >= 0
        child_ns = np.bincount(parents[nested], weights=dur[nested], minlength=len(ids))
        k = len(NAMES)
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - child_ns, minlength=k)
        lu = nested & (ids == NAMES.index("linalg.lu_factor"))
        lu_in_case_1b = int(np.count_nonzero(
            ids[parents[lu]] == NAMES.index("onesided.resolve_case_1b")))
        totals = LayerTotals(
            calls={name: int(calls[i]) for i, name in enumerate(NAMES)},
            incl_ns={name: float(incl[i]) for i, name in enumerate(NAMES)},
            self_ns={name: float(own[i]) for i, name in enumerate(NAMES)},
            results={name: list(kept) for name, kept in self.results.items()},
            lu_in_case_1b=lu_in_case_1b,
        )
        for arr in (self.name_ids, self.parents, self.starts, self.ends):
            del arr[:]
        for kept in self.results.values():
            kept.clear()
        return totals


class Instrumentation:
    """Installs wrappers into the loaded rosevent modules and takes them out
    again on exit.

    `events.integrate` is always wrapped to collect each integration result
    (steps, factorizations, evaluations, events) into `integrations`. With a
    tracer, every function in LAYERS and `h` of each given problem are timed
    as well.
    """

    def __init__(self, pkg, problems_list=(), tracer: Tracer | None = None):
        self.pkg = pkg
        self.problems = problems_list
        self.tracer = tracer
        self.integrations: list = []
        self._undo: list = []

    def _rebind(self, fn, wrapper) -> None:
        prefix = self.pkg.__name__
        for name, module in list(sys.modules.items()):
            if module is None or not (name == prefix or name.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, fn))

    def __enter__(self):
        integrate = self.pkg.events.integrate
        keep = self.integrations

        def tallied(*args, **kwargs):
            out = integrate(*args, **kwargs)
            keep.append(out)
            return out

        self._rebind(integrate, tallied)
        if self.tracer is not None:
            for mod, name in LAYERS:
                fn = getattr(getattr(self.pkg, mod), name)
                self._rebind(fn, self.tracer.wrap(f"{mod}.{name}", fn))
            for problem in {id(p): p for p in self.problems}.values():
                h = problem.h
                problem.h = self.tracer.wrap(H_SPAN, h)
                self._undo.append((problem, "h", h))
        return self

    def __exit__(self, *exc):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)
        return False
