"""Per-layer tracing for the bbf benchmark, done from outside the library.

The tracer wraps the functions of each bbf module that the per-layer
metrics name.  bbf modules import kernels by name (``from .exactlinalg
import lll_gram``), so replacing ``exactlinalg.lll_gram`` alone would miss
the calls made from ``periods`` or ``enumeration``: every namespace of the
``bbf`` package that bound the function object is patched, and methods are
patched on ``BBFLattice`` itself.

Each wrapped call is a span whose parent is the innermost span still open.
Spans are folded into per-name totals as they close: the total time is the
span's duration, the self time is that duration minus the durations of its
direct children.  Counts are recorded at the same boundaries.
"""
from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# "<layer>.<attribute path>": the metric name is "<layer>.<last component>".
TARGETS = (
    "exactlinalg.lll_gram",
    "exactlinalg.mat_mul",
    "exactlinalg.integral_gso",
    "exactlinalg.inertia",
    "exactlinalg.kernel_int",
    "exactlinalg.hnf_with_transform",
    "exactlinalg.gram_restrict",
    "exactlinalg.short_vectors",
    "exactlinalg._enumerate_int",
    "lattice.BBFLattice.inner",
    "lattice.BBFLattice.signature",
    "lattice.definiteness",
    "lattice.BBFLattice.orthogonal_complement_integral",
    "enumeration.separating_walls",
    "enumeration.wall_classes_through",
    "periods.fiber_connectivity_experiment",
    "catalog.builtin_catalog",
)

SPAN_NAMES = tuple(
    "%s.%s" % (target.split(".")[0], target.split(".")[-1]) for target in TARGETS
)

# Counts recorded at span boundaries, beside the per-span calls.
COUNT_NAMES = (
    "exactlinalg.lll_gram.dim_sum",
    "exactlinalg._enumerate_int.vectors",
    "enumeration.candidates",
    "enumeration.walls",
    "periods.planes",
    "periods.geometric_rejections",
    "periods.wall_hits",
    "periods.path_retries",
)


def _count_lll(counts, args, result, parent):
    counts["exactlinalg.lll_gram.dim_sum"] += len(args[0])


def _count_enumerate(counts, args, result, parent):
    counts["exactlinalg._enumerate_int.vectors"] += len(result)


def _count_candidates(counts, args, result, parent):
    # the Fincke-Pohst candidates of a segment search are the short vectors
    # separating_walls asks for directly; its endpoint searches go through
    # wall_classes_through and are not candidates of the segment
    if parent == "enumeration.separating_walls":
        counts["enumeration.candidates"] += len(result)


def _count_walls(counts, args, result, parent):
    counts["enumeration.walls"] += len(result)


def _count_fiber(counts, args, result, parent):
    counts["periods.planes"] += result.planes_sampled
    counts["periods.geometric_rejections"] += result.geometric_rejections
    counts["periods.wall_hits"] += result.wall_hits
    counts["periods.path_retries"] += result.path_retries


HOOKS = {
    "exactlinalg.lll_gram": _count_lll,
    "exactlinalg._enumerate_int": _count_enumerate,
    "exactlinalg.short_vectors": _count_candidates,
    "enumeration.separating_walls": _count_walls,
    "periods.fiber_connectivity_experiment": _count_fiber,
}


class Tracer:
    """Span totals per wrapped function: calls, self seconds, total seconds."""

    def __init__(self):
        self.spans = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.counts = Counter({name: 0 for name in COUNT_NAMES})
        self._open: list[list] = []  # [span name, seconds of closed children]
        self._bindings = None

    def _wrap(self, name, fn):
        totals = self.spans[name]
        counts = self.counts
        stack = self._open
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                totals[0] += 1
                totals[1] += elapsed - frame[1]
                totals[2] += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(counts, args, result, stack[-1][0] if stack else None)
            return result

        return traced

    def _patches(self):
        """(owner, attribute, original, wrapper) for every target in every
        bbf namespace that binds it.  A target the library no longer has is
        skipped and reads zero."""
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "bbf" or key.startswith("bbf."))
        ]
        out = []
        for target, name in zip(TARGETS, SPAN_NAMES):
            layer, *path = target.split(".")
            owner = sys.modules.get("bbf." + layer)
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                out.append((owner, path[-1], original, wrapper))
                continue
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is original:
                        out.append((mod, attr, original, wrapper))
        return out

    @contextmanager
    def patched(self):
        """Route every call into the targets through their spans; restore
        the originals on exit."""
        if self._bindings is None:
            self._bindings = self._patches()
        try:
            for owner, attr, _, wrapper in self._bindings:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original, _ in self._bindings:
                setattr(owner, attr, original)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer value by metric name, with its unit."""
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            calls, self_s, total_s = self.spans[name]
            out[name + ".calls"] = (calls, "count")
            out[name + ".self_s"] = (self_s, "s")
            out[name + ".total_s"] = (total_s, "s")
        for name in COUNT_NAMES:
            out[name] = (self.counts[name], "count")
        candidates = self.counts["enumeration.candidates"]
        out["enumeration.useful_ratio"] = (
            self.counts["enumeration.walls"] / candidates if candidates else 0.0,
            "ratio",
        )
        return out
