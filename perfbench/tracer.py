"""Span recorder that wraps the package's public functions from outside.

Each wrapped function records a span (name, start, end, parent) while the
tracer is installed. Installing replaces the function object under every
name that points at it in every loaded ``conicmirror`` module, because
``cli``, ``tropical_curves`` and others bind imported names at import time.
Uninstalling puts the originals back, so untraced rounds run the program
exactly as shipped. Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from typing import Any, Callable, Optional

# (module, function) of every wrapped function. Its spans are named
# "<module>.<function>", the module being the layer that defines it.
WRAPPED: tuple[tuple[str, str], ...] = (
    ("cli", "main"),
    ("serialize", "polygon_from_json"),
    ("serialize", "mirror_element_from_json"),
    ("serialize", "theta_element_from_json"),
    ("serialize", "cover_element_from_json"),
    ("serialize", "sublattice_from_json"),
    ("serialize", "canonical_json"),
    ("serialize", "polygon_to_json"),
    ("serialize", "triangulation_to_json"),
    ("serialize", "curve_to_json"),
    ("serialize", "mirror_element_to_json"),
    ("serialize", "theta_element_to_json"),
    ("serialize", "cover_element_to_json"),
    ("serialize", "section_to_json"),
    ("serialize", "degree_vector_to_json"),
    ("serialize", "cloud_to_json"),
    ("lattice_geometry", "regular_triangulation"),
    ("lattice_geometry", "is_adapted"),
    ("lattice_geometry", "is_unimodular"),
    ("tropical_curves", "tropical_curve"),
    ("tropical_curves", "chambers"),
    ("sections_bundles", "classification_report"),
    ("sections_bundles", "enumerate_sections"),
    ("sections_bundles", "degree_vector"),
    ("mirror_ring", "multiply"),
    ("mirror_ring", "oracle_product"),
    ("mirror_ring", "embed"),
    ("mirror_ring", "oracle_multiply"),
    ("mirror_ring", "canonicalize"),
    ("theta_ring", "theta_multiply"),
    ("theta_ring", "verify_mirror_iso"),
    ("mckay_covers", "cover_compose"),
    ("mckay_covers", "quotient"),
    ("numerics", "amoeba_sample"),
    ("numerics", "hausdorff_to_tropical"),
    ("numerics", "leg_zero_samples"),
)

# Functions that are only counted, not timed: they run thousands of times
# inside one span, and a span each would swamp what it measures.
COUNTED: tuple[tuple[str, str], ...] = (("numerics", "h_localized"),)


def _result_size(name: str, result: Any) -> Optional[tuple[str, int]]:
    """Work counted from a span's return value, as (counter, amount)."""
    if name == "mirror_ring.multiply":
        return ("mirror_ring.terms_out", len(result.coefficients))
    if name == "tropical_curves.tropical_curve":
        return ("tropical_curves.legs", len(result.legs))
    if name == "sections_bundles.enumerate_sections":
        return ("sections_bundles.classes", len(result))
    if name == "serialize.canonical_json":
        return ("serialize.bytes_out", len(result.encode("utf-8")))
    if name == "numerics.amoeba_sample":
        return ("numerics.roots_kept", len(result.points))
    if name == "numerics.leg_zero_samples":
        return ("numerics.leg_zeros", len(result))
    return None


class Tracer:
    """In-memory spans and counters for the wrapped functions."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            sized = _result_size(name, result)
            if sized is not None:
                counts[sized[0]] += sized[1]
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every binding of the wrapped functions in conicmirror modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "conicmirror" or key.startswith("conicmirror."))
        ]
        plan = [(spec, self._span_wrapper) for spec in WRAPPED]
        plan += [(spec, self._count_wrapper) for spec in COUNTED]
        for (module_name, fn_name), make in plan:
            home = sys.modules["conicmirror." + module_name]
            original = getattr(home, fn_name)
            wrapper = make(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------- summaries

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """(total seconds per span name, self seconds per span name)."""
        total: dict[str, float] = {}
        child: dict[int, float] = {}
        for name, start, end, parent in self.spans:
            d = end - start
            total[name] = total.get(name, 0.0) + d
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + d
        self_time: dict[str, float] = {}
        for idx, (name, start, end, _parent) in enumerate(self.spans):
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child.get(idx, 0.0)
        return total, self_time

    def calls_under(self, outer: str, inner: str) -> int:
        """Number of ``inner`` spans that have an ``outer`` span among their ancestors."""
        found = 0
        for name, _s, _e, parent in self.spans:
            if name != inner:
                continue
            while parent >= 0:
                if self.spans[parent][0] == outer:
                    found += 1
                    break
                parent = self.spans[parent][3]
        return found

    def calls_in_roots_with(self, marker: str, inner: str) -> int:
        """``inner`` spans sharing a root span with at least one ``marker`` span."""
        roots: dict[int, int] = {}
        marked: set[int] = set()
        for idx, (name, _s, _e, parent) in enumerate(self.spans):
            root = roots[parent] if parent >= 0 else idx
            roots[idx] = root
            if name == marker:
                marked.add(root)
        return sum(
            1 for idx, span in enumerate(self.spans)
            if span[0] == inner and roots[idx] in marked
        )

    def write(self, path: str) -> None:
        """Spans as [name, start, end, parent] rows plus the counters."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "names": names,
                    "spans": [
                        [index[n], round(s, 7), round(e, 7), p] for n, s, e, p in self.spans
                    ],
                    "counts": dict(sorted(self.counts.items())),
                },
                f,
                separators=(",", ":"),
            )
