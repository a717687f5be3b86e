"""Span recording for the traced run, and the shims that feed it.

Spans are recorded from the benchmark's own files, around the public calls
into each layer: a provider wrapper, instance shims on the service, prompt
cache and cache journal, and — for the duration of one traced job only —
module or class attribute shims on ``os.fsync``, the shard ledger, plan
compilation and the dedup candidate kernel.  The untraced run installs none
of them.

Every span has a name, start, end, parent and request id.  Spans a worker
thread opens with nothing open on its own stack are parented to the job's
root span.  A layer's *self* time is each of its spans' duration minus the
union of its child spans' intervals, so overlapping children on several
workers are not subtracted twice.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.llm.providers import LLMProvider, LLMRequest, LLMResponse

__all__ = ["Recorder", "TracedProvider", "span_metrics"]

#: Service methods the modules and executors call.
SERVICE_METHODS = ("complete", "complete_many", "prime")
#: Prompt-cache lookups (exact and near tier) and inserts.
CACHE_METHODS = {"get": "llm.cache.get", "get_near": "llm.cache.get", "put": "llm.cache.put"}
#: Shard-ledger calls whose busy time is ``workqueue.ledger_s``.
LEDGER_METHODS = ("begin", "record_shard", "delete", "close")


class Recorder:
    """In-memory span store; one request (job) is open at a time."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._request = 0
        self._root = 0
        self._mark = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else self._root
        request = self._request
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, name, start, end, parent, request))

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def request(self, request_id: int) -> Iterator[dict]:
        """Open one job's root span; yields a dict filled with its spans
        and counts when the job ends."""
        result: dict = {}
        with self._lock:
            self._mark = len(self.spans)
            self.counts = Counter()
            self._request = request_id
        with self.span("bench.job"):
            self._root = self._stack()[-1]
            try:
                yield result
            finally:
                self._root = 0
        with self._lock:
            result["spans"] = self.spans[self._mark :]
            result["counts"] = dict(self.counts)
            self._request = 0

    # -- shims -----------------------------------------------------------------

    def shim_service(self, service: Any) -> None:
        """Instance shims on a service, its prompt cache and cache journal."""
        if getattr(service, "_bench_traced", False):
            return
        service._bench_traced = True
        for method in SERVICE_METHODS:
            setattr(service, method, self.wrap(f"llm.service.{method}", getattr(service, method)))
        self.shim_cache(service.cache)

    def shim_cache(self, cache: Any) -> None:
        if getattr(cache, "_bench_traced", False):
            return
        cache._bench_traced = True
        for method, name in CACHE_METHODS.items():
            setattr(cache, method, self.wrap(name, getattr(cache, method)))
        if cache.journal is not None:
            cache.journal.append = self.wrap("llm.cache.append", cache.journal.append)

    @contextmanager
    def process_shims(self) -> Iterator[None]:
        """Module- and class-level shims, installed for one traced job.

        ``run_stream`` builds its shard ledger and every run builds its plan
        internally, so those are shimmed on their classes; the candidate
        kernel is shimmed where each caller looks it up.
        """
        from repro.core.compiler import curation as compiler_curation
        from repro.core.runtime.system import LinguaManga
        from repro.core.runtime.workqueue import ShardLedger
        from repro.tasks import curation as task_curation

        saved: list[tuple[Any, str, Any]] = []

        def patch(owner: Any, attr: str, value: Any) -> None:
            saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
            setattr(owner, attr, value)

        recorder = self
        original_compile = LinguaManga.compile

        def compile(system: Any, *args: Any, **kwargs: Any) -> Any:
            with recorder.span("plan.compile"):
                plan = original_compile(system, *args, **kwargs)
            plan.execute = recorder.wrap("plan.execute", plan.execute)
            return plan

        original_fsync = os.fsync

        def fsync(fd: Any) -> None:
            recorder.count("io.fsync_calls")
            with recorder.span("io.fsync"):
                original_fsync(fd)

        patch(os, "fsync", fsync)
        patch(LinguaManga, "compile", compile)
        for method in LEDGER_METHODS:
            patch(ShardLedger, method, self.wrap("workqueue.ledger", getattr(ShardLedger, method)))
        for module in (compiler_curation, task_curation):
            if hasattr(module, "dedup_candidate_pairs"):
                kernel = getattr(module, "dedup_candidate_pairs")

                def candidates(*args: Any, _kernel: Callable = kernel, **kwargs: Any) -> Any:
                    recorder.count("curation.candidate_calls")
                    with recorder.span("curation.candidates"):
                        return _kernel(*args, **kwargs)

                patch(module, "dedup_candidate_pairs", candidates)
        try:
            yield
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def dump(self, path: Path) -> None:
        """Write every recorded span as one JSON line each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, request in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )


class TracedProvider(LLMProvider):
    """Delegates to a simulated provider and records every round trip.

    Keeps the inner model name and cache identity, so cache keys are the
    untraced run's, and forwards ``complete_batch`` as one batch, so
    round trips stay what the service asked for.
    """

    def __init__(self, inner: LLMProvider, recorder: Recorder):
        self.inner = inner
        self.model_name = inner.model_name
        self.recorder = recorder

    def cache_identity(self) -> str:
        return self.inner.cache_identity()

    def complete(self, request: LLMRequest) -> LLMResponse:
        with self.recorder.span("llm.providers.complete"):
            response = self.inner.complete(request)
        self.recorder.count("llm.providers.calls")
        self.recorder.count("llm.providers.round_trips")
        return response

    def complete_batch(self, requests: list[LLMRequest]) -> list[LLMResponse]:
        with self.recorder.span("llm.providers.complete_batch"):
            responses = self.inner.complete_batch(requests)
        self.recorder.count("llm.providers.calls", len(requests))
        self.recorder.count("llm.providers.round_trips")
        return responses


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def span_metrics(spans: list[tuple], counts: dict) -> dict[str, float]:
    """Per-layer busy and self times plus counts for one request's spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _span_id, _name, start, end, parent, _request in spans:
        children[parent].append((start, end))
    busy: Counter = Counter()
    own: Counter = Counter()
    for span_id, name, start, end, _parent, _request in spans:
        busy[name] += end - start
        clipped = [
            (max(s, start), min(e, end)) for s, e in children.get(span_id, ()) if e > start and s < end
        ]
        own[name] += (end - start) - _union_length(clipped)

    def total(prefix: str, table: Counter = busy) -> float:
        return float(sum(value for name, value in table.items() if name.startswith(prefix)))

    return {
        "llm.providers.calls": counts.get("llm.providers.calls", 0),
        "llm.providers.round_trips": counts.get("llm.providers.round_trips", 0),
        "llm.providers.busy_s": total("llm.providers."),
        "llm.service.self_s": total("llm.service.", own),
        "llm.cache.open_s": total("llm.cache.open"),
        "llm.cache.get_s": total("llm.cache.get"),
        "llm.cache.append_s": total("llm.cache.append"),
        "workqueue.ledger_s": total("workqueue.ledger"),
        "plan.compile_s": total("plan.compile"),
        "plan.execute_s": total("plan.execute"),
        "curation.candidates_s": total("curation.candidates"),
        "curation.candidate_calls": counts.get("curation.candidate_calls", 0),
        "tasks.curation.dedup_s": total("tasks.curation.dedup"),
        "tasks.curation.quality_s": total("tasks.curation.quality"),
        "tasks.curation.decontam_s": total("tasks.curation.decontam"),
        "serve.submit_s": total("serve.submit"),
        "io.fsync_calls": counts.get("io.fsync_calls", 0),
        "io.fsync_s": total("io.fsync"),
    }
