"""Per-layer spans recorded from outside the library.

A :class:`Tracer` patches every public function of the traced layers of
``forcing_lab`` in each module namespace that bound it (so a call made
through ``forcing_lab.verify.min_zero_forcing`` is seen as well as one
through ``forcing_lab.solvers.min_zero_forcing``), plus
``Digraph.__init__`` and the entries of ``verify.SUITES``.  Each call
becomes a span ``(name, layer, start, end, parent, op)`` kept in memory;
per-layer work counts are read off the arguments and results at the same
boundary.  :meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from types import ModuleType
from typing import Callable, Iterable, NamedTuple

# Modules of ``forcing_lab`` whose public functions are traced.
# ``families`` only builds inputs during set-up, and no workload reaches
# ``critical`` or ``io``.
LAYERS = (
    "digraph",
    "lines",
    "propagation",
    "solvers",
    "linalg",
    "iso",
    "constructions",
    "corpus",
    "verify",
    "cli",
)

# Validators called inside every neighborhood query: a span around each
# would cost more than the work of the layers that call them.
UNTRACED = {"digraph.check_vertex", "digraph.check_vertex_set"}

_FACTOR_FUNCTIONS = {"one_factor", "cycle_factorization"}

Count = Callable[["Tracer", tuple, object], None]


class Span(NamedTuple):
    name: str
    layer: str
    start: float
    end: float
    parent: int
    op: int


def _layer_of(module: str, function: str) -> str:
    if module == "constructions":
        if function in _FACTOR_FUNCTIONS:
            return "constructions.factor"
        return "constructions.witness"
    return module


def _count_result(
    module: str, function: str, tracer: "Tracer", args: tuple, result: object
) -> None:
    """Work counts read at the layer boundary, from arguments and results."""
    counts = tracer.counts
    if module == "solvers":
        counts["solvers.subsets_tested"] += result.subsets_tested
        suite = tracer.enclosing("verify.")
        if suite is not None:
            counts[f"{suite}.subsets_tested"] += result.subsets_tested
    elif module == "propagation" and function in ("zf_closure", "pd_closure"):
        counts["propagation.rounds"] += len(result.rounds)
        counts["propagation.forces"] += len(result.certificate)
    elif module == "lines":
        counts["lines.vertices"] += result.graph.n
    elif module == "linalg" and function == "rank_exact":
        counts["linalg.cells"] += args[0].rows * args[0].cols
    elif module == "iso" and function == "are_isomorphic":
        counts["iso.found" if result is not None else "iso.refuted"] += 1


def _count_arcs(tracer: "Tracer", args: tuple, _result: object) -> None:
    tracer.counts["digraph.arcs"] += len(args[0].arcs)


class Tracer:
    """Spans and counts of one traced run; patches only while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._open: list[str] = []  # layers of the open spans, innermost last
        self._errors: list[tuple[BaseException, str]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._errors = []

    def call(
        self,
        name: str,
        layer: str,
        module: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        count: Count | None,
    ) -> object:
        """Run ``fn`` inside a span.

        ``StopIteration`` ends a generator resume normally; any other
        exception is counted once per module it passes through.
        """
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)  # reserved, so that children index after it
        self._stack.append(index)
        self._open.append(layer)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except StopIteration:
            self._close(index, name, layer, start, parent)
            raise
        except BaseException as exc:
            self._close(index, name, layer, start, parent)
            if not any(e is exc and m == module for e, m in self._errors):
                self._errors.append((exc, module))
                self.counts[f"{module}.errors"] += 1
            raise
        self._close(index, name, layer, start, parent)
        if count is not None:
            count(self, args, result)
        return result

    def _close(self, index: int, name: str, layer: str, start: float, parent: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self._open.pop()
        self.spans[index] = Span(name, layer, start, end, parent, self.op)

    def enclosing(self, prefix: str) -> str | None:
        """The innermost open layer whose name starts with ``prefix``."""
        for layer in reversed(self._open):
            if layer.startswith(prefix):
                return layer
        return None

    # -- patching ------------------------------------------------------

    def _wrap(
        self, name: str, layer: str, module: str, fn: Callable, count: Count | None
    ) -> Callable:
        calls = f"{layer}.calls"
        if inspect.isgeneratorfunction(fn):
            # One call, but a span per resume, so that the consumer's work
            # between items is not charged to the generator.
            def generator_wrapper(*args, **kwargs):
                self.counts[calls] += 1
                gen = fn(*args, **kwargs)
                while True:
                    try:
                        item = self.call(name, layer, module, next, (gen,), {}, None)
                    except StopIteration:
                        return
                    yield item

            return functools.update_wrapper(generator_wrapper, fn)

        def wrapper(*args, **kwargs):
            self.counts[calls] += 1
            return self.call(name, layer, module, fn, args, kwargs, count)

        return functools.update_wrapper(wrapper, fn)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package: ModuleType) -> None:
        """Patch the traced layers of ``package``, the imported ``forcing_lab``."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        prefix = package.__name__
        namespaces = [package] + [
            module
            for key, module in sorted(sys.modules.items())
            if key.startswith(prefix + ".")
        ]
        wrappers: dict[int, Callable] = {}
        for layer_module in LAYERS:
            module = sys.modules[f"{prefix}.{layer_module}"]
            for fname, fn in sorted(vars(module).items()):
                if (
                    fname.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or f"{layer_module}.{fname}" in UNTRACED
                ):
                    continue
                wrappers[id(fn)] = self._wrap(
                    f"{layer_module}.{fname}",
                    _layer_of(layer_module, fname),
                    layer_module,
                    fn,
                    functools.partial(_count_result, layer_module, fname),
                )
        for namespace in namespaces:
            for attr, value in sorted(vars(namespace).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._set(namespace, attr, wrapper)

        digraph = sys.modules[f"{prefix}.digraph"].Digraph
        self._set(
            digraph,
            "__init__",
            self._wrap("digraph.Digraph", "digraph", "digraph", digraph.__init__, _count_arcs),
        )

        suites = sys.modules[f"{prefix}.verify"].SUITES
        for suite, fn in list(suites.items()):
            self._restore.append((suites, suite, fn))
            suites[suite] = self._wrap(
                f"verify.{suite}", f"verify.{suite}", "verify", fn, None
            )

    def restore(self) -> None:
        """Put back every original, last patch first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


# -- analysis --------------------------------------------------------------


def _covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the part of ``[start, end]`` that the intervals cover."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - _covered(span.start, span.end, children[i])
        for i, span in enumerate(spans)
    ]


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.layer] = totals.get(span.layer, 0.0) + own
    return totals


def top_level_time(spans: list[Span]) -> float:
    """Time spent inside outermost spans, the library's share of a pass."""
    return sum(span.end - span.start for span in spans if span.parent < 0)
