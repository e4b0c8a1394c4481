"""Outside-in tracing of sumfree: spans and call counts recorded by wrapping
the package's public functions from the benchmark, with no change to the
package itself.

A wrapper is installed by rebinding every module-level name across
`sumfree.*` that refers to the original function, plus every value in a
module-level dict (the check registry holds its functions that way).
Patching only the defining module would miss callers that bound the
function with `from ... import`.

Spans live in memory as flat records with parent ids; metrics are computed
from them after the traced calls return.  Very hot functions are counted,
not spanned.  Work done inside forked pool workers runs the wrapped code
but its spans and counts stay in the worker and are lost.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

SPAN = "span"
COUNT = "count"


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    size: Optional[int] = None  # result size, when the probe asks for one

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Probe:
    """One function to wrap: `module.attr` in sumfree, recorded as `name`."""

    module: str
    attr: str
    name: str
    kind: str = SPAN
    size: Optional[Callable[[Any], int]] = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[Any, Any, Any, bool]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack.clear()  # the wrappers hold this list

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, probe: Probe, fn: Callable) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        size = probe.size

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(self.spans), stack[-1] if stack else None,
                        probe.name, clock())
            self.spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            if size is not None:
                span.size = size(result)
            return result

        return wrapper

    def _count_wrapper(self, probe: Probe, fn: Callable) -> Callable:
        name = probe.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, probes: Iterable[Probe], package: str = "sumfree") -> None:
        """Wrap every probe's function wherever `package` refers to it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for probe in probes:
            original = getattr(sys.modules[f"{package}.{probe.module}"], probe.attr)
            make = self._span_wrapper if probe.kind == SPAN else self._count_wrapper
            wrapped = make(probe, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original, True))
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapped
                                self._undo.append((value, k, original, False))

    def uninstall(self) -> None:
        for target, key, original, is_attr in reversed(self._undo):
            if is_attr:
                setattr(target, key, original)
            else:
                target[key] = original
        self._undo = []


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


class SpanTree:
    """Queries over one list of spans."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def parent_name(self, span: Span) -> Optional[str]:
        return None if span.parent is None else self.by_id[span.parent].name

    def self_time(self, span: Span) -> float:
        # one call stack: direct children are disjoint and inside their parent
        return span.duration - sum(c.duration for c in self.children.get(span.id, ()))

    def _has_ancestor_in(self, span: Span, names: set[str]) -> bool:
        pid = span.parent
        while pid is not None:
            parent = self.by_id[pid]
            if parent.name in names:
                return True
            pid = parent.parent
        return False

    def outermost(self, *names: str) -> list[Span]:
        """Spans named in `names` that are not nested inside another one."""
        wanted = set(names)
        return [s for s in self.spans
                if s.name in wanted and not self._has_ancestor_in(s, wanted)]

    def total(self, *names: str) -> float:
        """Wall time inside any of `names`, counting nested calls once."""
        return sum(s.duration for s in self.outermost(*names))

    def self_total(self, name: str) -> float:
        return sum(self.self_time(s) for s in self.spans if s.name == name)

    def calls(self, name: str, parent: Optional[str] = None) -> int:
        return sum(1 for s in self.named(name, parent))

    def sizes(self, name: str, parent: Optional[str] = None) -> int:
        return sum(s.size or 0 for s in self.named(name, parent))

    def named(self, name: str, parent: Optional[str] = None) -> Iterable[Span]:
        for s in self.spans:
            if s.name == name and (parent is None or self.parent_name(s) == parent):
                yield s
