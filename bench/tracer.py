"""Per-layer tracing of soft_irl from outside the program.

:meth:`Tracer.install` wraps every public function of the traced modules and
binds the wrapper in every ``soft_irl`` namespace that holds the function
(``opt.solve_model``, ``linear_reward.soft_backward``,
``experiments.sample_trajectories`` and so on), so calls between modules are
seen too.  Each wrapped call records a span ``(name, start, end, parent)`` in
memory; :meth:`Tracer.uninstall` restores the original bindings.  Counts come
from the arguments and returned objects of a few functions (see
``_OBSERVERS``), never from inside the program.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

PACKAGE = "soft_irl"
LAYERS = ("cli", "experiments", "opt", "linear_reward", "soft_dp", "mdp", "io")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _fit_counts(args, kwargs, result):
    config = _arg(args, kwargs, 3, "config")
    return {
        "iterations": result.iterations,
        "converged": bool(result.converged),
        "max_iters": result.iterations >= config.max_iters,
        "ridge": sum(1 for record in result.trace if record.ridge_used),
    }


_OBSERVERS = {
    "mdp.sample_trajectories": lambda a, k, r: {"rows": len(r)},
    "mdp.batch_trajectory_probs": lambda a, k, r: {"rows": len(r)},
    "mdp.enumerate_support": lambda a, k, r: {"rows": len(r[0])},
    "linear_reward.max_score_norm": lambda a, k, r: {"thetas": len(_arg(a, k, 3, "thetas"))},
    "opt.fit_empirical": _fit_counts,
}


class Tracer:
    """Spans of wrapped calls, kept in memory until :meth:`dump`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[int, dict] = {}
        self._stack = [-1]
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        observe = _OBSERVERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1]]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                counts[index] = observe(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._bindings.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in self._bindings:
            setattr(module, attr, obj)
        self._bindings.clear()

    def call_cost(self, calls: int = 20000, repeats: int = 5) -> float:
        """Seconds a wrapper adds to one call: the median over ``repeats`` of
        ``calls`` wrapped against ``calls`` bare calls of a no-op."""

        def noop():
            return None

        wrapped = Tracer()._wrap("noop", noop)
        costs = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                noop()
            bare = time.perf_counter()
            for _ in range(calls):
                wrapped()
            costs.append((time.perf_counter() - bare - (bare - start)) / calls)
        return statistics.median(costs)

    def summary(self) -> dict:
        """Per span name: ``calls``, ``busy_s``, ``self_s`` and summed counts.

        ``self_s`` is ``busy_s`` minus the time of direct wrapped children.
        Fit statistics for ``opt.fit_empirical`` are added under ``opt``:
        ``loss_evals`` counts ``solve_model`` calls made directly by a fit
        (the line-search and initial loss evaluations), and ``backtracks``
        the loss evaluations that did not become the next iterate.
        """
        child_time = defaultdict(float)
        child_solves = defaultdict(int)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name == "linear_reward.solve_model":
                    child_solves[parent] += 1
        stats = defaultdict(lambda: defaultdict(float))
        fits = stats["opt"]
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = stats[name]
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            for key, value in self.counts.get(index, {}).items():
                entry[key] += value
            if name == "opt.fit_empirical":
                counts = self.counts[index]
                fits["loss_evals"] += child_solves[index]
                fits["backtracks"] += child_solves[index] - 1 - counts["iterations"]
                if not counts["converged"]:
                    fits["not_converged_busy_s"] += end - start
                    fits["fits_max_iters" if counts["max_iters"] else "fits_stalled"] += 1
        return stats

    def dump(self, path) -> None:
        """Write the spans as JSON lines ``[name, start, end, parent]``."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
