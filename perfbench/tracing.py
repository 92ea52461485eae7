"""In-memory span tracing by wrapping module-level functions from outside.

Spans hold (id, name, start, end, parent id, query id). A span's parent is
the innermost open span of its own thread, or, for a worker thread with no
open span, the innermost open span of the main thread (so the per-query
spans of a thread pool hang under the batch call that started them). The
program's files are not changed: `Tracer.wrap` swaps a module or class
attribute for a timing wrapper, and `Tracer.restore` puts the originals back.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[int, str, float, float, int, Optional[int]]  # id, name, start, end, parent, qid


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: List[Tuple[int, Optional[int]]] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[Tuple[int, Optional[int]]]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, qid: Optional[int] = None) -> Iterator[Optional[int]]:
        """Record a span around the with-block; yields the span's query id."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        outer = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else (0, None))
        if qid is None:
            qid = outer[1]
        sid = next(self._ids)
        stack.append((sid, qid))
        start = time.perf_counter()
        try:
            yield qid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, outer[0], qid))

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        qid_of: Optional[Callable[..., Optional[int]]] = None,
        on_result: Optional[Callable[[Any, Optional[int]], None]] = None,
    ) -> None:
        """Replace owner.attr by a wrapper recording span `name` around each call.

        `qid_of(*args)` names the query a call belongs to (else it inherits
        the enclosing span's); `on_result(result, qid)` sees every return
        value while tracing is on (for counts taken at the boundary).
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            qid = qid_of(*args) if qid_of is not None and tracer.enabled else None
            with tracer.span(name, qid) as span_qid:
                result = original(*args, **kwargs)
            if on_result is not None and tracer.enabled:
                on_result(result, span_qid)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def children(self) -> Dict[int, List[Span]]:
        kids: Dict[int, List[Span]] = {}
        for s in self.spans:
            kids.setdefault(s[4], []).append(s)
        return kids

    def self_time(self, span: Span, kids: Dict[int, List[Span]]) -> float:
        """Duration minus the union of the intervals its child spans cover."""
        covered = 0.0
        cur_start = cur_end = None
        for _, _, s, e, _, _ in sorted(kids.get(span[0], ()), key=lambda c: c[2]):
            s, e = max(s, span[2]), min(e, span[3])
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        return (span[3] - span[2]) - covered

    def write(self, path: str) -> None:
        """Spans as TSV: id, name, start, end, parent, query id (times in seconds)."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tname\tstart\tend\tparent\tqid\n")
            for sid, name, start, end, parent, qid in self.spans:
                f.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{'' if qid is None else qid}\n")
