"""In-memory span tracer that instruments layers from the outside.

:meth:`Tracer.wrap` replaces a public function at the name its caller looks
it up by (``repro.core.pilp.run_phase1``, ``Model.solve`` ...), so the
program under test is not edited.  Each call records a span: name, start,
end, parent span and request id.  The wrapper's own bookkeeping is timed
too: it is reported as the tracing overhead and left out of the parent's
self time.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, request: Optional[str]) -> Dict[str, object]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "request": request if request is not None else (parent or {}).get("request"),
            "error": False,
            "overhead": 0.0,
            "attrs": {},
        }
        stack.append(span)
        return span

    def _close(self, span: Dict[str, object]) -> None:
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[str] = None):
        """A span around a block of the benchmark's own code."""
        entered = time.perf_counter()
        span = self._open(name, request)
        span["start"] = time.perf_counter()
        try:
            yield span
        except BaseException:
            span["error"] = True
            raise
        finally:
            span["end"] = time.perf_counter()
            self._close(span)
            span["overhead"] = (span["start"] - entered) + (time.perf_counter() - span["end"])

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        on_exit: Optional[Callable[[Dict[str, object], tuple, object], None]] = None,
    ) -> None:
        """Trace every call made through ``owner.attr`` until :meth:`restore`."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span = tracer._open(name, None)
            result = None
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                tracer._close(span)
                if on_exit is not None:
                    on_exit(span, args, result)
                span["overhead"] = (span["start"] - entered) + (
                    time.perf_counter() - span["end"]
                )

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #

    def children(self) -> Dict[object, List[Dict[str, object]]]:
        out: Dict[object, List[Dict[str, object]]] = defaultdict(list)
        for span in self.spans:
            out[span["parent"]].append(span)
        return out

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, each span minus what its children cover
        (the children's wrapper overhead included)."""
        kids = self.children()
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            covered = sum(
                (c["end"] - c["start"]) + c["overhead"] for c in kids.get(span["id"], ())
            )
            totals[span["name"]] += (span["end"] - span["start"]) - covered
        return dict(totals)

    def overhead_s(self) -> float:
        return sum(span["overhead"] for span in self.spans)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                record = {
                    key: span[key]
                    for key in ("id", "name", "start", "end", "parent", "request", "error")
                }
                if span["attrs"]:
                    record["attrs"] = span["attrs"]
                handle.write(json.dumps(record, sort_keys=True) + "\n")
