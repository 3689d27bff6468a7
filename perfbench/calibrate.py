"""Per-core speed samples that make timings comparable across runs on a shared host.

On the shared 2-core host this benchmark was built on, each core's speed
switches between two levels about 1.6x apart every few seconds, the two
cores independently of each other and with no steal time, so the raw wall
times of a 36 s run spread 15-20% across seeds.  Probes taken between
program steps cannot follow that: a switch falls inside most steps.

So a `Clock` pins the benchmark's main thread to one core and runs a sampler
process on that core, and on each further core that a multi-threaded step
uses.  Every PERIOD_S a sampler times a ~0.1 ms probe (an oscillatory
quadrature with a Python integrand: benchmark code, never qetlab) and logs
it.  A step's wall time is scaled by NOMINAL_PROBE_S over the mean probe time
on the step's cores while it ran.  On recorded traces this cut the spread
(quartile distance over median) of one repeated 3.5 s `teleport` step from
0.19 to 0.06, and of the 5 s n=128 binary `density` step from 0.11 to 0.05.
The samplers take ~1% of each core they run on, the same in every run, and a
change to the program cannot move the probes.

Run as `python3 calibrate.py CPU LOG PARENT_PID` it is one sampler; it stops
when terminated or when its parent is gone.
"""

from __future__ import annotations

import collections
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from scipy.integrate import quad

PERIOD_S = 0.02
# Probe seconds at the host's nominal speed; only a fixed scale for the
# reported times, so it is a constant, never re-measured.
NOMINAL_PROBE_S = 1e-4
MIN_SAMPLES = 5  # a step shorter than this many periods uses the latest samples
START_TIMEOUT_S = 120.0


def _integrand(k: float) -> float:
    return k**5 * math.exp(-k * k) * math.cos(3.0 * k)


def probe() -> None:
    quad(_integrand, 0.0, 6.0, limit=50)


def sample(cpu: int, log: Path, parent: int) -> None:
    """Append 'start duration' of one probe every PERIOD_S until the parent is gone."""
    os.sched_setaffinity(0, {cpu})
    with open(log, "a", buffering=1, encoding="utf-8") as f:
        while os.getppid() == parent:
            time.sleep(PERIOD_S)
            start = time.monotonic()
            probe()
            f.write(f"{start!r} {time.monotonic() - start!r}\n")


class Clock:
    """Times program steps in seconds at the host's nominal speed.

    Use as a context manager: leaving it stops the samplers and waits for
    them.  `cores` is the most threads any step runs on.
    """

    def __init__(self, work: Path, cores: int = 1):
        allowed = sorted(os.sched_getaffinity(0))
        self.cpus = allowed[:max(1, min(cores, len(allowed)))]
        self.allowed = set(allowed)
        self.logs = {c: work / f"speed-cpu{c}.log" for c in self.cpus}
        self.offsets = dict.fromkeys(self.cpus, 0)
        self.samples = {c: collections.deque(maxlen=20000) for c in self.cpus}
        self.procs = []

    def __enter__(self):
        try:
            for c, log in self.logs.items():
                log.touch()
                self.procs.append(subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve()), str(c), str(log), str(os.getpid())],
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL))
            deadline = time.monotonic() + START_TIMEOUT_S
            while any(len(self._read(c)) < MIN_SAMPLES for c in self.cpus):
                if time.monotonic() > deadline or any(p.poll() is not None for p in self.procs):
                    raise RuntimeError("speed samplers did not start")
                time.sleep(PERIOD_S)
            os.sched_setaffinity(0, {self.cpus[0]})
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        os.sched_setaffinity(0, self.allowed)
        for p in self.procs:
            if p.poll() is None:
                p.terminate()
        for p in self.procs:
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        self.procs = []

    def _read(self, cpu: int):
        """The samples of `cpu` logged so far (complete lines only)."""
        with open(self.logs[cpu], "rb") as f:
            f.seek(self.offsets[cpu])
            data = f.read()
        done = data.rfind(b"\n") + 1
        self.offsets[cpu] += done
        for line in data[:done].splitlines():
            start, duration = line.split()
            self.samples[cpu].append((float(start), float(duration)))
        return self.samples[cpu]

    def time(self, fn, threads: int = 1):
        """Run fn() on `threads` cores; return (result, raw wall seconds, nominal seconds)."""
        cores = self.cpus[:max(1, threads)]
        os.sched_setaffinity(0, set(cores))
        start = time.monotonic()
        try:
            result = fn()
        finally:
            raw = time.monotonic() - start
            os.sched_setaffinity(0, {self.cpus[0]})
        end = start + raw
        probes = []
        for c in cores:
            samples = self._read(c)
            inside = [d for t, d in samples if start <= t <= end]
            if len(inside) < MIN_SAMPLES:
                inside = [d for t, d in samples if t <= end][-MIN_SAMPLES:]
            probes += inside
        return result, raw, raw * NOMINAL_PROBE_S / statistics.mean(probes)


if __name__ == "__main__":
    sample(int(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3]))
