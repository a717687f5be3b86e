"""Summary statistics and process counters for the benchmark."""

from __future__ import annotations

import statistics
import time
from pathlib import Path

__all__ = [
    "median",
    "quartiles",
    "tail",
    "peak_rss_mb",
    "io_counters",
    "ProcessSample",
]


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if not values:
        return (0.0, 0.0, 0.0)
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (float(q1), float(q2), float(q3))


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``.  With fewer than eleven samples no
    such percentile exists; the maximum is returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return (0.0, 0.0, 0)
    if n < 11:
        return (ordered[-1], 100.0, n)
    return (ordered[n - 11], 100.0 * (n - 10) / n, n)


def peak_rss_mb() -> float:
    """The process's peak resident set size (``VmHWM``) in MiB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def io_counters() -> dict[str, int]:
    """Bytes and calls written by this process so far (``/proc/self/io``)."""
    counters = {}
    for line in Path("/proc/self/io").read_text(encoding="ascii").splitlines():
        key, _, value = line.partition(":")
        counters[key.strip()] = int(value)
    return {"write_bytes": counters["wchar"], "write_calls": counters["syscw"]}


class ProcessSample:
    """Wall, CPU and write counters at one instant; subtract two for deltas."""

    def __init__(self) -> None:
        self.wall = time.perf_counter()
        self.cpu = time.process_time()
        self.io = io_counters()

    def delta(self, earlier: "ProcessSample") -> dict[str, float]:
        wall = self.wall - earlier.wall
        cpu = self.cpu - earlier.cpu
        return {
            "io.write_bytes": self.io["write_bytes"] - earlier.io["write_bytes"],
            "io.write_calls": self.io["write_calls"] - earlier.io["write_calls"],
            "proc.cpu_s": cpu,
            "proc.cpu_per_wall": cpu / wall if wall > 0 else 0.0,
        }
