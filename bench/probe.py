"""Machine-speed probe: request times scaled to a fixed machine speed.

On a shared host the speed of one virtual CPU changes from second to
second: a fixed loop of Python can take 60 ms in one second and 110 ms a
few seconds later, and CPU time slows just as much as wall time, so it is
no remedy.  Each timed request is therefore bracketed by a probe, a fixed
piece of work that does not touch `ifslab`, and its wall time is scaled by
``nominal / probe time``: the time the request would have taken at the
speed at which the probe takes its nominal time.  A change to `ifslab`
moves the scaled times as it moves the wall times; a change in the host's
speed moves the probe with them and cancels.

Interpreted Python and memory-bound array passes do not slow alike (in a
slow second the first can take twice as long while the second hardly
changes), so the probe is the sum of the kernels that resemble what the
request does, which its `Request.probe` names:

- ``python``: integer and `Fraction` arithmetic, for requests whose time
  goes to the exact similarity kernel, covers and descents;
- ``memory``: a numpy pass that reads and writes 4 MiB arrays, added for
  requests whose time goes to large dense arrays.

Each kernel is timed three times and the median kept, which drops a
repetition an interrupt landed in.  Set-up time is scaled by the Python
kernel run just before set-up starts and just after it ends; this module
imports only the standard library so that it can run first.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

#: the memory kernel's source and output arrays, made on first use
_ARRAYS = []


def python_kernel() -> int:
    acc, x = 0, 12345
    for i in range(1, 600):
        x = (x * 1103515245 + 12345) % 2147483648
        acc += Fraction(x % 97 + 1, i + 3).numerator
    return acc


def memory_kernel() -> float:
    if not _ARRAYS:
        import numpy as np   # not before set-up: `ifslab` imports it then
        src = np.arange(1 << 19, dtype=np.float64)
        _ARRAYS.extend((np, src, np.empty_like(src)))
    np, src, out = _ARRAYS
    np.multiply(src, 1.0001, out=out)
    return float(out[-1])


KERNELS = {"python": python_kernel, "memory": memory_kernel}
#: seconds each kernel takes at the nominal speed: the fastest times seen on
#: a 2.0 GHz Intel Xeon virtual CPU (Python 3.11, numpy 2.4)
NOMINAL_S = {"python": 0.60e-3, "memory": 0.45e-3}
REPEATS = 3


class Probe:
    """Times kernels of `KERNELS`; `scale()` is the factor that turns a wall
    time taken between two probes into one at the nominal speed."""

    def __init__(self, kernels: tuple[str, ...]):
        for _ in range(20):                  # warm caches and allocator
            self.seconds(kernels)

    def seconds(self, kernels: tuple[str, ...]) -> float:
        total = 0.0
        for name in kernels:
            kernel = KERNELS[name]
            times = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - t0)
            total += statistics.median(times)
        return total

    @staticmethod
    def scale(kernels: tuple[str, ...], before: float, after: float) -> float:
        """Nominal over the mean of the probes taken just before and just
        after a request."""
        nominal = sum(NOMINAL_S[name] for name in kernels)
        return nominal / (0.5 * (before + after))
