"""Span recording around the library's layers, from outside the library.

:class:`Tracer` wraps the public functions listed in :data:`LAYERS` and
installs the wrappers by rebinding module attributes: the defining module's
name and every name another ``combdmr`` module imported it under, so calls
between modules are recorded as well.  Nothing under ``src/`` changes, and
:meth:`Tracer.remove` restores the original functions.

A span is ``(trace_id, span_id, parent_id, name, start_ns, end_ns, value)``.
``value`` is the clause count of a formula builder's result and 1/0 for a
satisfiable/unsatisfiable ``twosat.solve``; other spans carry ``None``.
Spans are kept in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# Layer module -> functions wrapped in it.  Anything not listed (argparse,
# file I/O, small helpers) counts towards the self time of its caller.
LAYERS = {
    "cli": ("main",),
    "textio": ("parse_matrix", "parse_graph", "emit_graph"),
    "matrix": ("validate",),
    "graph": (
        "anchor_distances",
        "verify_realisation",
        "bfs_apsp",
        "unit_graph",
        "skeleton_distances",
        "q_zero",
    ),
    "solvers": (
        "build_phi1",
        "build_phi2",
        "build_phi2_prime",
        "solve_k0",
        "solve_k1",
        "solve_k2",
        "bounds",
    ),
    "twosat": ("solve",),
    "tree": ("check_zareckii", "build_weighted_tree", "solve_tree"),
    "reduction": ("reduce", "extract_colouring"),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
BUILDERS = {"solvers.build_phi1", "solvers.build_phi2", "solvers.build_phi2_prime"}


class Tracer:
    """Records nested spans of the wrapped functions while installed."""

    def __init__(self, modules: dict) -> None:
        """``modules`` maps each layer name, plus ``generate``, to its module."""
        self.spans: list[tuple | None] = []
        self.trace_id = 0
        self._stack: list[int] = []
        wrappers = {}
        for layer, fns in LAYERS.items():
            for fn in fns:
                original = getattr(modules[layer], fn)
                wrappers[id(original)] = (original, self._wrap(f"{layer}.{fn}", original))
        self._patches = []
        for mod in modules.values():
            for attr, value in vars(mod).items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value, hit[1]))

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        builder, twosat = name in BUILDERS, name == "twosat.solve"

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(span_id)
            value = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if builder:
                    value = len(result.clauses)
                elif twosat:
                    value = int(result is not None)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (self.trace_id, span_id, parent, name, start, end, value)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def patched_names(self) -> list[str]:
        return sorted(f"{mod.__name__}.{attr}" for mod, attr, _, _ in self._patches)

    def write(self, path) -> None:
        keys = ("trace", "span", "parent", "name", "start_ns", "end_ns", "value")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_times(spans) -> dict[str, list[int]]:
    """Per span name: [self ns, inclusive ns, calls].

    Self time is a span's duration minus the durations of its direct
    children; calls on one thread nest, so children never overlap.
    Inclusive time counts each span whose ancestors have another name.
    """
    child_ns = defaultdict(int)
    for _, _, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = {name: [0, 0, 0] for name in SPAN_NAMES}
    for _, span_id, parent, name, start, end, _ in spans:
        row = totals[name]
        row[0] += end - start - child_ns[span_id]
        row[2] += 1
        while parent >= 0 and spans[parent][3] != name:
            parent = spans[parent][2]
        if parent < 0:
            row[1] += end - start
    return totals
