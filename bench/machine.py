"""Measurements of the machine's speed that do not depend on curvelog.

The sandbox this benchmark was tuned on (2 vCPUs shared with other tenants)
runs the same code up to 1.8 times slower for seconds to minutes at a time,
so raw times of runs minutes apart spread by 20-30 %.  A fixed pure-Python
probe, timed right before every operation, slows down with it.  Scaling
each operation's time by ``PROBE_NOMINAL_NS`` over the probe's time around
that operation gives times at a fixed reference speed, whose spread across
runs is a few percent.  The raw wall times stay in the report.
"""

from __future__ import annotations

import gc
import statistics
import time

# A typical probe time on that sandbox; timings are scaled to it.
PROBE_NOMINAL_NS = 200_000
# Operations are scaled by the median of this many probes centred on them.
PROBE_WINDOW = 5


def probe_ns() -> int:
    """Time of a fixed pure-Python loop of about 0.15 ms, with the garbage
    collector held off so that it only measures the machine."""
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        acc, seen = 0, {}
        for k in range(1500):
            acc += (k * k) % 7
            seen[k & 63] = acc
        return time.perf_counter_ns() - t0
    finally:
        gc.enable()


def scaled(times_ns: list, probes_ns: list) -> list:
    """Each time scaled to the reference speed by the median probe of the
    window centred on it."""
    half = PROBE_WINDOW // 2
    out = []
    for i, t in enumerate(times_ns):
        window = probes_ns[max(0, i - half):i + half + 1]
        out.append(t * PROBE_NOMINAL_NS / statistics.median(window))
    return out


def ref_kernel_ms(samples: int = 5) -> float:
    """Median time of a fixed pure-Python plus numpy kernel.  It is only
    reported: its drift between runs shows machine noise."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((160, 160))

    def kernel():
        acc = 0.0
        for k in range(1, 40_000):
            acc += 1.0 / (k * k)
        b = a
        for _ in range(8):
            b = np.tanh(b @ a)
        return acc + float(b.sum())

    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        kernel()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)
