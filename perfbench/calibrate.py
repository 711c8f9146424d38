"""Job times calibrated against a fixed reference kernel.

The sandbox this benchmark was built on changes speed by up to a quarter,
over stretches from a fraction of a second to several seconds (other
tenants share the cores), and its two cores run at different speeds.  Raw
wall times of identical work move by as much.  The reference kernel below
(small-array numpy gathers, bincount, a 3x3 eigh and an interpreter loop:
the mix minksub spends its time in) slows down with the machine.

``Clock`` runs the kernel after every job, at least once and for at least
SAMPLE_SHARE of the job's time, and keeps the median as that moment's
speed sample.  Speed also changes within a long job, so a job still
running after LONG_JOB_S is sampled from inside as well, every
SAMPLE_EVERY_S from a SIGALRM handler, on the same CPU; the sampling time
is taken out of the job's time.  A job's calibrated time is its time
divided by the median of its inside samples and the after-samples within
WINDOW_S of it (the ones just before and just after it at least), times
REF_NOMINAL_S.  (Sampling shorter jobs from inside spread their times
more than sampling after them.)  A cold CLI call runs in a child process,
and samples taken by the waiting parent did not track it, so the child
samples itself the same way from its start (``cold_child.py``) and those
samples alone calibrate the call.  The kernel is benchmark code, so
calibrated times move with every change to minksub exactly as raw times
do; raw times are reported next to them.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REF_NOMINAL_S = 0.7e-3
SAMPLE_SHARE = 0.02
SAMPLE_EVERY_S = 0.05
WINDOW_S = 0.5
LONG_JOB_S = 0.5

_rng = np.random.default_rng(0)
_W = _rng.standard_normal(35)
_I = _rng.integers(0, 35, 400)
_K = _rng.integers(0, 35, 400)
_M = _rng.standard_normal((3, 3))
_M = _M @ _M.T + 3.0 * np.eye(3)


def kernel() -> float:
    """Run the reference kernel once; return its wall time."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(100):
        prod = _W[_I] * _W[_K]
        acc += float(np.bincount(_K, weights=prod, minlength=35)[1])
        for j in range(20):
            acc += j * 0.5
    for _ in range(10):
        acc += float(np.linalg.eigh(_M)[0][0])
    return time.perf_counter() - t0


class Sampler:
    """Runs the kernel from SIGALRM every SAMPLE_EVERY_S while started."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, kernel s)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append((t0, kernel()))

    def start(self, first: float = SAMPLE_EVERY_S) -> None:
        """Take the first sample after ``first`` seconds."""
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, first, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Clock:
    """Times jobs and calibrates them; see the module docstring."""

    def __init__(self):
        self.raw: list[float] = []
        self._inside: list[tuple] = []  # (kernel samples inside, by child)
        self._spans: list[tuple[float, float]] = []
        self._after: list[tuple[float, float]] = []  # (time, kernel s)
        self._sample_after(0.0)

    def _sample_after(self, budget: float) -> None:
        t0 = time.perf_counter()
        runs = [kernel()]
        while time.perf_counter() - t0 < budget:
            runs.append(kernel())
        self._after.append((t0, float(np.median(runs))))

    def time(self, call, samples_of=None):
        """Run ``call``; return (its result or the exception, raw seconds).

        Pass ``samples_of`` when ``call`` runs a child process: the parent
        then takes no samples while it waits, and ``samples_of(result)``
        returns the kernel times the child took inside itself (when it
        returns none, the samples around the call are used).
        """
        sampler = Sampler()
        t0 = time.perf_counter()
        if samples_of is None:
            sampler.start(first=LONG_JOB_S)
        try:
            out = call()
        except Exception as exc:  # reported by the caller as a failed check
            out = exc
        finally:
            sampler.stop()
        t1 = time.perf_counter()
        inside = [k for _, k in sampler.samples]
        child = samples_of is not None and not isinstance(out, Exception)
        if child:
            inside = list(samples_of(out))
        raw = t1 - t0 - sum(inside)
        self.raw.append(raw)
        self._inside.append((inside, child and bool(inside)))
        self._spans.append((t0, t1))
        self._sample_after(SAMPLE_SHARE * raw)
        return out, raw

    def calibrated(self) -> list[float]:
        """Calibrated seconds of every job timed so far, in order."""
        at = np.array([t for t, _ in self._after])
        ref = np.array([k for _, k in self._after])
        out = []
        for i, (raw, (inside, child), (t0, t1)) in enumerate(
                zip(self.raw, self._inside, self._spans)):
            if not child:
                # job i ran between after-samples i and i + 1
                near = (at >= t0 - WINDOW_S) & (at <= t1 + WINDOW_S)
                near[i:i + 2] = True
                inside = [*inside, *ref[near]]
            out.append(raw * REF_NOMINAL_S / float(np.median(inside)))
        return out
