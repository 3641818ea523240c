"""In-memory span recorder for the traced benchmark pass.

Spans are recorded from the benchmark's own code: `Tracer.install` replaces a
library function at the module attribute its caller looks up (for example
``fimcowp.oracle.cyk_member``) with a wrapper that records one span per call,
and `Tracer.uninstall` puts the originals back.  Nothing in the library
changes.  Each span is (name, start, end, parent, size); ``size`` is the input
length for the layers timed by length bucket, else -1.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from itertools import islice
from time import perf_counter
from typing import Callable, Iterator

NO_PARENT = -1
NO_SIZE = -1

# enumerators are generators; one span covers this many items, so that the
# span cost stays small next to the work of producing the items
ENUM_CHUNK = 256


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.size = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [NO_PARENT]
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int, size: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.size.append(size)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self._open(self._name_id(name), NO_SIZE)
        try:
            yield
        finally:
            self._close(idx)

    def current(self) -> str | None:
        """Name of the innermost open span."""
        idx = self._stack[-1]
        return None if idx == NO_PARENT else self.names[self.name[idx]]

    def wrap(
        self,
        name: str,
        fn: Callable,
        size_of: Callable | None = None,
        on_result: Callable | None = None,
    ) -> Callable:
        """`fn` recording one span per call.  `on_result(args, result, parent)`
        runs after the span closes, with the name of the enclosing span."""
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            idx = self._open(name_id, size_of(args) if size_of else NO_SIZE)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(args, result, self.current())
            return result

        return traced

    def wrap_iter(self, name: str, fn: Callable, on_items: Callable[[int], None]) -> Callable:
        """Generator function `fn` whose items are produced inside spans of
        ENUM_CHUNK items each; `on_items(count)` gets each chunk's size."""
        name_id = self._name_id(name)

        def chunks(it: Iterator) -> Iterator:
            while True:
                idx = self._open(name_id, NO_SIZE)
                try:
                    chunk = list(islice(it, ENUM_CHUNK))
                finally:
                    self._close(idx)
                if not chunk:
                    return
                on_items(len(chunk))
                yield from chunk

        def traced(*args, **kwargs):
            return chunks(fn(*args, **kwargs))

        return traced

    def install(self, module: object, attr: str, replacement: Callable) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        n = len(self.start)
        own = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p != NO_PARENT:
                child[p] += own[i]
        return [own[i] - child[i] for i in range(n)]
