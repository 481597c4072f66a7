"""Outside-in tracer: spans around the public functions of each cangeo module.

Nothing inside the program changes.  `Tracer.install` replaces each traced
function with a timing wrapper and rebinds *every* module attribute that
refers to the same function object: `cli`, `invariants` and `atlas` bind
`classify`, `smooth_cover_exists`, `deformation_class`, `cover_invariants`
and `scroll_admissible` through from-imports, and the package itself
re-exports functions under names that shadow their modules, so patching
only the defining module would miss most calls.

Spans are aggregated in memory as they close (nothing is written while the
workload runs).  A span's self time is its duration minus the durations of
the spans it directly contains.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (span, module, attribute path).  Several functions may share one span.
TARGETS = [
    ("fatpoints.draw", "fatpoints", "PointConfiguration.random"),
    ("fatpoints.build", "fatpoints", "vanishing_matrix"),
    ("fatpoints.eliminate", "fatpoints", "rank_mod_p"),
    ("fatpoints.rref", "fatpoints", "rref_mod_p"),
    ("fatpoints.kernel", "fatpoints", "kernel_basis_mod_p"),
    ("fatpoints.alpha", "fatpoints", "alpha_rank"),
    ("fatpoints.h0", "fatpoints", "h0_fatpoints"),
    ("classify.classify", "classify", "classify"),
    ("classify.zone_rule", "classify", "zone_rule"),
    ("classify.smooth_cover", "classify", "smooth_cover_exists"),
    ("classify.deformation", "classify", "deformation_class"),
    ("invariants.cover", "invariants", "cover_invariants"),
    ("atlas.enumerate", "atlas", "two_component_points"),
    ("atlas.lines", "atlas", "geography_lines"),
    ("scrolls.admissible", "scrolls", "scroll_admissible"),
    ("cli.records", "cli", "classification_record"),
    ("cli.records", "cli", "measurement_record"),
    ("cli.records", "cli", "alpha_record"),
    ("cli.emit", "cli", "emit"),
]

SPANS = sorted({span for span, _, _ in TARGETS})


def _matrix_entries(args, result):
    return getattr(args[0], "size", 0)


def _result_entries(args, result):
    return getattr(result, "size", 0)


def _records(args, result):
    records = args[0] if args else ()
    return len(records) if hasattr(records, "__len__") else 0


# Work counted at a span, beyond its calls: span -> (counter, how).
COUNTERS = {
    "fatpoints.build": ("entries", _result_entries),
    "fatpoints.eliminate": ("entries", _matrix_entries),
    "cli.emit": ("rows", _records),
}
# Spans whose stdout output is counted, read from the sink's byte count.
BYTE_SPANS = {"cli.emit"}


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(int))


class Tracer:
    """Times calls into cangeo modules from outside the program."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self._stack: list[list[float]] = []   # per open span: [child time]
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = defaultdict(SpanStats)

    def _wrap(self, span: str, fn):
        counter = COUNTERS.get(span)
        count_bytes = span in BYTE_SPANS
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            sink_before = getattr(sys.stdout, "nbytes", 0) if count_bytes else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats = self.stats[span]
                stats.calls += 1
                stats.self_s += elapsed - frame[0]
                if count_bytes:
                    stats.counts["bytes"] += getattr(sys.stdout, "nbytes", 0) - sink_before
            if counter is not None:
                stats.counts[counter[0]] += counter[1](args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target and rebind each alias of it in cangeo.*."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name in ("cangeo", *{f"cangeo.{mod}" for _, mod, _ in TARGETS}):
            importlib.import_module(name)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "cangeo" or n.startswith("cangeo.")]
        for span, mod, path in TARGETS:
            owner = importlib.import_module(f"cangeo.{mod}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._wrap(span, raw.__func__)))
                continue
            wrapper = self._wrap(span, raw)
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is raw:
                        self._set(module, alias, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        """Per span: calls, self time and extra counters, as plain data."""
        return {span: {"calls": s.calls, "self_s": s.self_s, **s.counts}
                for span, s in self.stats.items()}
