"""Timings in reference seconds, steady on a machine whose speed drifts.

On a shared machine the speed of one core drifts as neighbours load it:
the same ``verify`` command measured on this benchmark's baseline machine
took 0.59 s and, 100 s later, 0.81 s, while the ratio of its time to a
fixed pure-Python loop timed just before and after it stayed within 5%.
So every interval the benchmark reports is scaled by the speed of that
loop measured around it:

    reference seconds = measured seconds * REF_S / (loop time around it)

``REF_S`` is the loop's median time on the baseline machine (see
``baseline.json``), so on that machine reference seconds read close to
seconds.  The loop lives here, outside the package, so no change to the
package can change it.
"""

from __future__ import annotations

import statistics
import time

REF_S = 0.0045         # median time of ``reference_loop()`` on the baseline machine
REF_ITERATIONS = 10_000
REF_REPEATS = 3        # loops per reference
INTERVAL_S = 0.25      # a reference is taken between commands at most this often
SMOOTH = 2             # one reference varies by about 10% within seconds; the drift is slower


def reference_loop() -> int:
    """Integer arithmetic and dict stores, like the package's inner loops."""
    s = 0
    seen = {}
    for i in range(REF_ITERATIONS):
        s = (s * 31 + (i & 0x5DEECE66D)) & 0xFFFFFFFF
        if s & 1:
            s ^= i
        seen[s & 1023] = i
    return len(seen)


def measure_reference() -> float:
    """Mean time of ``REF_REPEATS`` runs of the loop."""
    t0 = time.perf_counter()
    for _ in range(REF_REPEATS):
        reference_loop()
    return (time.perf_counter() - t0) / REF_REPEATS


class RefClock:
    """Reference measurements taken between timed intervals.

    ``mark()`` before an interval returns the index of the latest
    reference; ``close()`` after the last interval takes a final one.  An
    interval that began after reference ``i`` is scaled by the references
    taken around it (see ``factor``).
    """

    def __init__(self):
        self.refs: list[float] = []
        self._last = float("-inf")

    def mark(self, force: bool = False) -> int:
        if force or time.perf_counter() - self._last >= INTERVAL_S:
            self.refs.append(measure_reference())
            self._last = time.perf_counter()
        return len(self.refs) - 1

    def close(self) -> None:
        self.mark(force=True)

    def factor(self, first: int, last: int | None = None) -> float:
        """Scale of an interval between references ``first`` and ``last``
        (default ``first + 1``): REF_S over the median loop time of those
        references and of ``SMOOTH`` more on either side."""
        last = first + 1 if last is None else last
        window = self.refs[max(0, first - SMOOTH):last + SMOOTH + 1]
        return REF_S / statistics.median(window)
