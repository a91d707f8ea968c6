"""Spans around calls into phstab's public functions, recorded from outside.

Tracing works by rebinding: every ``phstab.*`` module attribute that *is*
one of the traced function objects is replaced by a wrapper that records a
span, so call sites written as ``from .x import f`` are covered too.  Spans
stay in memory until the run ends.  A traced name that does not exist at
the commit under test is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# module -> public functions timed by the traced run
TRACED = {
    "cli": ("run_command",),
    "instances": ("parse_instance",),
    "complexes": ("validate_filtration", "find_duplicate_value", "has_unique_values"),
    "ordering": ("total_order", "check_order_compatible", "is_order_constant"),
    "interpolation": ("interpolate", "sup_norm", "crossing_times"),
    "persistence": ("pivot_pairs", "diagram", "diagram_from_pivots"),
    "bottleneck": ("bottleneck_bijection", "bottleneck_diagonal", "matching_cost"),
    "stability": (
        "verify_stability",
        "interval_matching",
        "breakpoint_matching",
        "compose_matchings",
    ),
}

# counts read from what the public functions return or receive
COUNTERS = (
    "interpolation.crossings",
    "interpolation.swap_pairs",
    "interpolation.multi_swap_times",
    "stability.intervals",
    "persistence.points",
    "bottleneck.max_dim_points",
)
MAX_COUNTERS = ("bottleneck.max_dim_points",)  # a largest size, not a sum


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: "int | None"


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children[s.span_id], key=lambda c: c.start):
            lo, hi = max(c.start, cursor, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = (s.end - s.start) - covered
    return out


def _schedule_counts(args, schedule, counts):
    pairs_at = schedule.pairs_at
    counts["interpolation.crossings"] += len(schedule.times)
    counts["interpolation.swap_pairs"] += sum(len(p) for p in pairs_at)
    counts["interpolation.multi_swap_times"] += sum(1 for p in pairs_at if len(p) > 1)


def _report_counts(args, report, counts):
    counts["stability.intervals"] += len(report.certificates)


def _diagram_counts(args, diag, counts):
    counts["persistence.points"] += len(diag.points)


def _matcher_input_counts(args, result, counts):
    for diag in args[:2]:
        per_dim = defaultdict(int)
        for p in diag.points:
            per_dim[p.dim] += 1
        biggest = max(per_dim.values(), default=0)
        if biggest > counts["bottleneck.max_dim_points"]:
            counts["bottleneck.max_dim_points"] = biggest


# name -> reader(call args, return value, counts)
_READERS = {
    "interpolation.crossing_times": _schedule_counts,
    "stability.verify_stability": _report_counts,
    "persistence.diagram": _diagram_counts,
    "bottleneck.bottleneck_bijection": _matcher_input_counts,
    "bottleneck.bottleneck_diagonal": _matcher_input_counts,
}


class Tracer:
    """Installs span-recording wrappers and keeps every span in memory."""

    def __init__(self, traced=TRACED):
        self.traced = traced
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.unreadable: set[str] = set()
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------
    def install(self) -> None:
        self.absent = []
        originals = {}
        for mod_name, fns in self.traced.items():
            try:
                mod = importlib.import_module(f"phstab.{mod_name}")
            except ImportError:
                self.absent.extend(f"{mod_name}.{fn}" for fn in fns)
                continue
            for fn in fns:
                name = f"{mod_name}.{fn}"
                target = getattr(mod, fn, None)
                if not callable(target):
                    self.absent.append(name)
                    continue
                originals[id(target)] = (target, self._wrap(name, target))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "phstab" or mod_name.startswith("phstab.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    def _wrap(self, name, fn):
        reader = _READERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(name, start, end, span_id, parent))
            if reader is not None:
                self._read(name, reader, args, result)
            return result

        return traced

    def _read(self, name, reader, args, result):
        try:
            reader(args, result, self.counts)
        except (AttributeError, TypeError, IndexError):
            self.unreadable.add(name)

    # -- summarising ----------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, total (inclusive) seconds, self seconds."""
        own = self_times(self.spans)
        out = {
            f"{mod}.{fn}": {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            for mod, fns in self.traced.items()
            for fn in fns
        }
        for s in self.spans:
            row = out[s.name]
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += own[s.span_id]
        return out
