"""Machine-speed calibration for the compile benchmark.

The shared machines this benchmark runs on change speed by 20-50% over
tens of seconds (noisy neighbours; CPU time moves with wall time, so it
is not time stolen from the process but slower execution). Every run
therefore times a fixed piece of interpreter work, which shares no code
with bluefish, once before each request. The run's slowdown is the
median of those times over ``REFERENCE_MS``, and end-to-end times are
divided by it (rates multiplied): they read as on a machine running at
the reference speed. A change to bluefish cannot move the calibration,
so it still shows in full; only the machine's drift cancels.
"""

from __future__ import annotations

import json
import statistics
import time

# about the median of kernel() on the 2-vCPU virtual machine the bounds were set on
REFERENCE_MS = 4.0


class _Box:
    __slots__ = ("x", "y", "w", "h")

    def __init__(self, x: float, y: float, w: float, h: float):
        self.x = x
        self.y = y
        self.w = w
        self.h = h


def kernel() -> float:
    """Fixed work in the compiler's mix: objects, dicts, floats, strings, sorting, json."""
    boxes = []
    table = {}
    for i in range(600):
        b = _Box(i * 0.5, i % 7 * 1.25, (i % 11) + 1.0, (i % 5) + 2.0)
        boxes.append(b)
        table[f"n{i}"] = {"x": b.x + b.w, "y": b.y - b.h, "kids": [i, i + 1]}
    total = 0.0
    for b in boxes:
        total += max(b.x, b.y) + b.w * b.h
    text = json.dumps(table, sort_keys=True)
    return total + len(text) + len(sorted(table, key=lambda k: table[k]["x"]))


def sample() -> float:
    """One timed pass of the kernel, in ms."""
    started = time.perf_counter()
    kernel()
    return (time.perf_counter() - started) * 1000.0


def slowdown(samples: list[float]) -> float:
    return statistics.median(samples) / REFERENCE_MS
