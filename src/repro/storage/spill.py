"""Disk spill store: bounded scratch space for in-flight streaming shards.

The streaming executor (:mod:`repro.core.runtime.workqueue`) pulls records
lazily from a source iterator and must be able to *retry* a shard without
rewinding that iterator — so every materialized shard's input records are
spilled to disk here and the in-memory copy is dropped.  A shard's spill
file lives exactly as long as its ledger entry is open: written at
materialization, read on each execution attempt, deleted when the shard's
results are folded downstream.

The store is scratch space, not a durability layer: a durable resume
rebuilds shard inputs by re-iterating the (seeded, deterministic) source,
so spill files carry no crash-safety obligations and are written with plain
buffered I/O.  What the store *does* enforce is the spill **budget**: the
executor consults :meth:`SpillStore.has_room` before materializing another
shard, which is one half of streaming backpressure (the other half is the
in-flight shard window).

Fault injection: arm a :class:`repro.llm.faults.TriggerPoint` on the
``spill:write`` boundary via ``write_fault`` and the Nth write raises
:class:`SpillWriteError`, which the executor treats as a transient
materialization failure — the pulled chunk is kept and the spill retried,
never silently dropped.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import threading
from pathlib import Path
from typing import Any, Callable

__all__ = ["SpillWriteError", "SpillStore"]


class SpillWriteError(RuntimeError):
    """A shard spill write failed (disk full, injected fault)."""


class SpillStore:
    """Byte-budgeted scratch files, one per in-flight shard.

    Parameters
    ----------
    directory:
        Where spill files live; created on first write.  ``None`` means a
        private temporary directory, made on first write and removed by
        :meth:`close`.
    budget_bytes:
        Soft cap consulted by :meth:`has_room`; ``None`` means unbounded.
        ``put`` itself never refuses — the budget throttles *materialization*
        (backpressure), it does not fail work already pulled from the source.
    encode / decode:
        Per-record codecs; default to plain JSON.  The executor passes the
        checkpoint codec so shard inputs may contain tuples and other
        journal-safe values.
    write_fault:
        Optional :class:`repro.llm.faults.TriggerPoint`; when it fires at
        ``spill:write`` the write raises :class:`SpillWriteError` before
        touching disk.
    """

    def __init__(
        self,
        directory: str | Path | None,
        budget_bytes: int | None = None,
        encode: Callable[[Any], Any] | None = None,
        decode: Callable[[Any], Any] | None = None,
        write_fault: Any = None,
    ):
        if budget_bytes is not None and budget_bytes < 1:
            raise ValueError("budget_bytes must be positive (or None)")
        self.directory = Path(directory) if directory is not None else None
        self._private = directory is None
        self.budget_bytes = budget_bytes
        self._encode = encode or (lambda value: value)
        self._decode = decode or (lambda value: value)
        self.write_fault = write_fault
        #: optional repro.obs.metrics.MetricsRegistry (attached by the executor)
        self.metrics = None
        self.spilled_bytes = 0
        self.peak_bytes = 0
        self.writes = 0
        self.write_failures = 0
        self._sizes: dict[str, int] = {}
        self._lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.spill"

    def has_room(self, estimate_bytes: int = 0) -> bool:
        """Whether the budget admits roughly ``estimate_bytes`` more."""
        if self.budget_bytes is None:
            return True
        with self._lock:
            return self.spilled_bytes + estimate_bytes <= self.budget_bytes

    def put(self, key: str, records: list) -> int:
        """Spill one shard's records; returns bytes written.

        Re-putting a key replaces its file (retried materialization after a
        failed write).  Raises :class:`SpillWriteError` when the armed write
        fault fires or the OS write fails.
        """
        if self.write_fault is not None and self.write_fault.fires("spill:write"):
            with self._lock:
                self.write_failures += 1
            if self.metrics is not None:
                self.metrics.counter("spill.write_failures").inc()
            raise SpillWriteError(f"injected spill-write failure for shard {key!r}")
        payload = json.dumps(
            [self._encode(record) for record in records], ensure_ascii=False
        )
        data = payload.encode("utf-8")
        try:
            with self._lock:
                if self.directory is None:
                    self.directory = Path(tempfile.mkdtemp(prefix="repro-spill-"))
            self.directory.mkdir(parents=True, exist_ok=True)
            self._path(key).write_bytes(data)
        except OSError as error:
            with self._lock:
                self.write_failures += 1
            if self.metrics is not None:
                self.metrics.counter("spill.write_failures").inc()
            raise SpillWriteError(f"spill write failed for shard {key!r}: {error}")
        with self._lock:
            previous = self._sizes.get(key, 0)
            self._sizes[key] = len(data)
            self.spilled_bytes += len(data) - previous
            self.peak_bytes = max(self.peak_bytes, self.spilled_bytes)
            self.writes += 1
        if self.metrics is not None:
            self.metrics.counter("spill.writes").inc()
            self.metrics.gauge("spill.bytes").set(self.spilled_bytes)
        return len(data)

    def get(self, key: str) -> list:
        """Load one spilled shard's records (every retry re-reads disk)."""
        raw = json.loads(self._path(key).read_text(encoding="utf-8"))
        return [self._decode(record) for record in raw]

    def remove(self, key: str) -> int:
        """Delete one shard's spill file; returns bytes freed."""
        with self._lock:
            freed = self._sizes.pop(key, 0)
            self.spilled_bytes -= freed
        if self.directory is not None:
            self._path(key).unlink(missing_ok=True)
        if self.metrics is not None:
            self.metrics.gauge("spill.bytes").set(self.spilled_bytes)
        return freed

    def clear(self) -> None:
        """Drop every spill file (end of run)."""
        with self._lock:
            keys = list(self._sizes)
        for key in keys:
            self.remove(key)

    def close(self) -> None:
        """Remove the private temporary directory, if one was made.

        A directory the caller named is left as it is.
        """
        if self._private and self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sizes)
