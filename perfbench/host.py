"""Host-speed calibration for the benchmark driver.

The benchmark runs on a share of a larger host whose speed drifts: every
invocation within a few seconds of another slows down or speeds up with it,
by up to 30% over minutes.  A fixed kernel, timed in the driver process
right before and right after each invocation, measures that speed where the
invocation ran.  The kernel uses no strategyshift code, so no change to the
package moves it.
"""

from __future__ import annotations

import marshal
import time

import numpy as np

#: Kernel seconds on the host that normalised seconds refer to.
REFERENCE_S = 0.25

#: A module of 600 small functions and classes, compiled once.
_SOURCE = "\n".join(
    f"def f{i}(a, b=1):\n    return {{'k': [a, b, {i}], 'v': a * {i}}}\n"
    f"class C{i}:\n    y = {i}\n    def m(self):\n        return self.y\n"
    for i in range(600))
_CODE = marshal.dumps(compile(_SOURCE, "<calibration>", "exec"))


def kernel() -> float:
    """Seconds of one pass of the kernel.

    It unmarshals and executes the module above 25 times, the work of an
    import, then steps 1M-element arrays 12 times, the work of the
    simulator, so that it mixes the two kinds of work the commands do.
    It runs in the driver process, so it measures the speed at which the
    host runs instructions, not the cost of starting a process (README.md,
    "Host-normalised times").
    """
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    for _ in range(25):
        exec(marshal.loads(_CODE), {})
    for _ in range(12):
        a = rng.random(1_000_000)
        (a < 0.5).sum() + np.cumsum(a)[-1]
    return time.perf_counter() - start
