"""Host-speed probe: a fixed reference kernel timed between jobs.

The benchmark runs on two vCPUs of a shared host.  Two things slow it
there, in phases that last from a second to many minutes: the hypervisor
gives the vCPU to other guests (steal time, 10% on average and 30% in
bursts), and the host runs every instruction slower (1.2-2x).  Job times
are CPU times, which leave steal out.  For the second, a kernel that runs
no collusion_lab code is timed, in CPU time, before every job, in four
parts that each take about half a millisecond on the reference host:

    interp   float arithmetic and Python function calls
    objects  small frozen dataclasses, dicts and string formatting
    dispatch numpy ufuncs and einsum on 64-element arrays
    stream   one pass over a 2 MB array (memory bandwidth)

Each part runs once untimed and then once timed, so that the sample reads
the host's speed and not how much of the kernel the previous job evicted
from the caches.

A job that ran over [start, end] is scaled by the host factor there: per
part, the reference time over the median of that part's samples taken
within ``WINDOW_S`` seconds of the job, combined as a geometric mean.
Scaled times are CPU seconds at the speed at which each part takes
``REFERENCE_S``.  The program's own speed-ups and slow-downs pass through
unchanged, since the kernel never calls it.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass

import numpy as np

# Median time of each part, between jobs, on the 2-vCPU box the benchmark was
# tuned on.
REFERENCE_S = {"interp": 0.45e-3, "objects": 0.45e-3, "dispatch": 0.37e-3, "stream": 0.5e-3}
WINDOW_S = 2.0

_SMALL = np.linspace(0.0, 1.0, 64)
_STREAM = np.linspace(0.0, 1.0, 1 << 18)
_STREAM_OUT = np.empty_like(_STREAM)


def _step(x: float) -> float:
    return x * 0.5 + 1.0


def _interp() -> None:
    acc = 0.0
    for i in range(2000):
        acc += _step(i) % 7.0


@dataclass(frozen=True)
class _Point:
    a: float
    b: float

    def gap(self) -> float:
        return math.log(self.a + 1.0) - self.b


def _objects() -> None:
    rows = []
    for i in range(100):
        p = _Point(i * 0.1, i * 0.2)
        row = dict({"n": i, "v": p.gap()}, w=p.a)
        rows.append(f"{row['n']},{row['v']:.6g},{row['w']}")
    ",".join(rows)


def _dispatch() -> None:
    a = _SMALL
    for _ in range(85):
        a = np.minimum(a * 1.0001 + 0.5, 10.0)
    np.einsum("i,i->", a, _SMALL)


def _stream() -> None:
    np.multiply(_STREAM, 1.0001, out=_STREAM_OUT)
    _STREAM_OUT.sum()


PARTS = (("interp", _interp), ("objects", _objects), ("dispatch", _dispatch),
         ("stream", _stream))


class Probe:
    """Timestamped kernel samples and the host factor they give."""

    def __init__(self):
        for _, part in PARTS:  # page in the arrays, untimed
            part()
        self.stamps: list = []
        self.samples: list = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        times = []
        for _, part in PARTS:
            part()
            t0 = time.process_time()
            part()
            times.append(time.process_time() - t0)
        if enabled:
            gc.enable()
        self.stamps.append(time.perf_counter())
        self.samples.append(times)

    def factor(self, start: float, end: float) -> float:
        """Reference over local kernel speed for a job that ran over [start, end].

        A sample is taken just before every job, so the window is never empty.
        """
        stamps = np.asarray(self.stamps)
        near = (stamps >= start - WINDOW_S) & (stamps <= end + WINDOW_S)
        local = np.median(np.asarray(self.samples)[near], axis=0)
        ref = np.array([REFERENCE_S[name] for name, _ in PARTS])
        return float(np.exp(np.mean(np.log(ref / local))))

    def run_factor(self) -> float:
        """The host factor over the whole run, for set-ups run in other processes."""
        return self.factor(-math.inf, math.inf)
