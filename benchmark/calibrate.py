"""Host-speed calibration for the timed phase.

The benchmark shares a few cores of a busy host, whose speed while the
benchmark runs moves by tens of percent over seconds to minutes.  A fixed
kernel of the benchmark's own, timed in CPU time after every op, measures
that speed: it mixes what the package spends its time on (interpreted loops
over complex numbers, many small numpy calls, dense complex linear algebra,
sparse matrix-vector products and array sweeps larger than a core's cache)
and calls no package code, so a change to the package leaves it alone.

A speed factor is a median kernel time over ``REFERENCE_S``, the kernel's
CPU time on a reference host (a 2 vCPU Xeon VM at 2.0 GHz on a quiet shared
host).  Dividing a CPU time by the factor measured around it reports the
time at reference speed.  ``Calibrator.local_factors`` gives the factor at
given instants from the samples taken within a second of each, so that an
op's time is scaled by the speed of the host while it ran;
``Calibrator.factor`` gives one for a whole phase.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import sparse

REFERENCE_S = 0.0032
# The speed factor at an instant is the median of the samples within this
# many seconds of it, and of at least this many samples.
LOCAL_WINDOW_S = 1.0
LOCAL_MIN_SAMPLES = 11


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(20001017)
        self._dense = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        self._phases = rng.uniform(0.0, 2 * np.pi, 4096)
        self._small = rng.normal(size=8) + 1j * rng.normal(size=8)
        self._poly = rng.normal(size=13)
        self._sparse = sparse.random(1500, 1500, density=0.004, format="csr",
                                     random_state=7, dtype=complex)
        self._stream = np.exp(1j * rng.uniform(0.0, 2 * np.pi, 1 << 17))
        self._out = np.empty_like(self._stream)
        self.samples: list = []  # kernel durations, CPU seconds
        self.times: list = []  # their midpoints, time.perf_counter() readings

    def _kernel(self) -> None:
        acc = 0j
        table = {}
        for k in range(600):
            z = complex(k % 7, k % 5) * 0.3
            acc += z * z.conjugate() / (1.0 + abs(z))
            table[k % 32] = acc
        v = self._small
        for _ in range(60):
            v = np.exp(1j * np.angle(v)) * np.clip(np.abs(v), 0.5, 2.0)
        m = self._dense @ self._dense
        np.exp(1j * self._phases).sum()
        np.roots(self._poly)
        x = m[0].repeat(24)[:1500]
        for _ in range(10):
            x = self._sparse @ x
        np.multiply(self._stream, x[0], out=self._out)
        self._out += self._stream

    def sample(self) -> None:
        start, cpu = time.perf_counter(), time.process_time()
        self._kernel()
        self.samples.append(time.process_time() - cpu)
        self.times.append((start + time.perf_counter()) / 2)

    def factor(self) -> float:
        """Host speed factor over all samples."""
        return statistics.median(self.samples) / REFERENCE_S

    def local_factors(self, times) -> list:
        """Host speed factor at each of ``times`` (``time.perf_counter``
        readings): the median of the samples taken within LOCAL_WINDOW_S of
        it, or of the LOCAL_MIN_SAMPLES nearest ones when fewer were."""
        samples = np.asarray(self.samples)
        sampled_at = np.asarray(self.times)
        out = []
        for t in times:
            dist = np.abs(sampled_at - t)
            near = samples[dist <= LOCAL_WINDOW_S]
            if near.size < LOCAL_MIN_SAMPLES:
                near = samples[np.argsort(dist)[:LOCAL_MIN_SAMPLES]]
            out.append(float(np.median(near)) / REFERENCE_S)
        return out
