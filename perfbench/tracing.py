"""Per-layer wall-time attribution from the benchmark's own files.

A :class:`LayerTracer` replaces a layer's public entry points with
timing wrappers while it is active and puts the originals back on exit,
so no wrapper ever outlives the traced repetition it was installed for.
Every wrapped call is a span; spans nest on one stack (the batch
workloads are single-threaded), and a layer's *self* time is its span
time minus the time its child spans cover.  Nothing inside the program
is changed.
"""

from __future__ import annotations

import time
from collections import defaultdict

_NOT_SET = object()


class Patches:
    """Attribute replacements that are always undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attribute: str, make_wrapper) -> None:
        """Set ``owner.attribute`` to ``make_wrapper(original)``.

        Only attributes defined on ``owner`` itself may be replaced, so
        restoring one can never shadow an inherited definition.
        """
        original = vars(owner).get(attribute, _NOT_SET)
        if original is _NOT_SET:
            raise AttributeError(
                f"{owner.__name__}.{attribute} is not defined there"
            )
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


class LayerTracer:
    """Calls, self time and (optionally) per-call durations per layer."""

    def __init__(self, targets, keep_durations=()):
        #: ``(layer, owner, attribute)`` triples; ``owner`` is a class, or
        #: a module whose attribute its callers look up at call time.
        self.targets = list(targets)
        self.keep_durations = frozenset(keep_durations)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self._stack: list[float] = []
        self._patches = Patches()

    def __enter__(self) -> "LayerTracer":
        try:
            for layer, owner, attribute in self.targets:
                self._patches.replace(
                    owner, attribute, lambda f, layer=layer: self._wrap(layer, f)
                )
        except BaseException:
            self._patches.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def _wrap(self, layer: str, func):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        durations = (
            self.durations[layer] if layer in self.keep_durations else None
        )
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
                if durations is not None:
                    durations.append(elapsed)

        return span


def operator_classes(base) -> list[type]:
    """Every subclass of ``base`` that defines its own ``execute``."""
    found, todo = set(), [base]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "execute" in vars(cls) and cls is not base:
            found.add(cls)
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))
