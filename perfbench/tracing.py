"""In-memory spans around calls into the program's public functions.

The benchmark measures every layer from outside: :func:`instrument`
replaces a public function with a timing wrapper everywhere the loaded
modules bind it (``from x import f`` copies included), and restores
every original on exit.  Spans stay in memory; :func:`self_times`
turns them into nesting-aware self time, so a layer called inside
another (``average_distance`` inside ``anneal_mapping``) is not
counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One call into a wrapped function."""

    name: str
    start: float
    end: float
    #: Index of the enclosing span in :attr:`Recorder.spans`, if any.
    parent: Optional[int]
    #: ``"setup"`` while inputs are prepared, ``"timed"`` inside the
    #: measured region.
    phase: str
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


#: ``attrs(args, kwargs, result) -> dict`` records counts at a boundary.
Attrs = Optional[Callable[[tuple, dict, object], Dict[str, float]]]


class Recorder:
    """Collects spans from the wrappers :func:`instrument` installs."""

    def __init__(self):
        self.spans: List[Span] = []
        self.phase = "setup"
        self._stack: List[int] = []

    def wrap(self, name: str, function: Callable, attrs: Attrs = None):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = Span(
                name,
                time.perf_counter(),
                0.0,
                self._stack[-1] if self._stack else None,
                self.phase,
            )
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return wrapper


#: ``(span name, module, attribute path, attrs)``; the attribute path
#: may name a method (``"Machine.run"``).
Target = Tuple[str, str, str, Attrs]


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *owners, attribute = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attribute


@contextlib.contextmanager
def instrument(
    recorder: Recorder, targets: Sequence[Target]
) -> Iterator[Recorder]:
    """Wrap each target wherever a loaded module binds it; undo on exit."""
    patches: List[Tuple[object, str, object]] = []

    def patch(owner, attribute, original, wrapper):
        patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    try:
        for name, module_name, path, attrs in targets:
            owner, attribute = _resolve(module_name, path)
            original = getattr(owner, attribute)
            wrapper = recorder.wrap(name, original, attrs)
            patch(owner, attribute, original, wrapper)
            if "." in path:
                continue  # a method: callers reach it through the class
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if module is owner or not isinstance(namespace, dict):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        patch(module, key, original, wrapper)
        yield recorder
    finally:
        for owner, attribute, original in reversed(patches):
            setattr(owner, attribute, original)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own
