"""Machine-speed probe: how fast the CPU ran while a campaign ran.

Shared, virtualised CPUs change speed by tens of percent over seconds to
minutes as neighbours come and go, so raw wall-clock times of one workload
spread far more than any code change worth measuring.  :class:`SpeedProbe`
runs a small fixed kernel (a pure-Python loop plus a numpy gather) from a
``SIGPROF`` timer every :data:`INTERVAL_S` of CPU time, in the campaign
process itself and in every process it forks (the pool workers, which log
their samples to files), and records how long each run of the kernel took.
Sampling on CPU time weights each sample by the work done around it.  Set-up
is too short for a timer; it is followed by a burst of back-to-back samples.

The kernel has to measure the machine, not the program around it.  A
cache-cold memory kernel would run faster or slower with the program's own
cache footprint, and the factor would then cancel part of any change to that
footprint.  So every sample first streams through a scrub buffer larger than
a core's private caches, which evicts the program's data from them, and then
reads its own table twice, untimed, from wherever it lies (one read is not
enough to undo a large program working set).  The timed run thus always
starts from the same cache state, whatever the program did before: its
table has just been read, partly into the private caches and partly into
the shared last-level cache, where the neighbours' load still slows it
down.  What is left of the program's influence is measured by running this
module (``python3 perfbench/speed.py``, see :func:`main`).  The probe's
buffers are allocated once, at import, and :data:`PROBE_BYTES` says how much
resident memory they add to each process, so that peak-memory figures can
leave them out.

:meth:`SpeedProbe.factor` is the mean of ``reference / sample``: the CPU's
average speed over the campaign relative to the reference speed (1.0 when
the kernel ran as fast as it typically does on the reference machine, 0.6
when it ran 40% slower).  Multiplying a measured time by it gives the time
the same work takes at the reference speed.  The probe costs about 2% of the
campaign.
"""

from __future__ import annotations

import glob
import os
import signal
import statistics
import time
from typing import List, Optional, Tuple

import numpy as np

#: Seconds of CPU time between two probe samples.
INTERVAL_S = 0.2
#: Duration of the timed kernel at the reference speed: its typical duration
#: on a 2-vCPU Intel Xeon VM (4 MiB L2 per core) with Python 3.11.7 and
#: numpy 2.4.6.
REFERENCE_S = 0.00115

_SCRUB = np.ones((8 << 20) // 8)
_TABLE = np.arange((4 << 20) // 8, dtype=np.int64)
_INDEX = np.random.default_rng(0).integers(0, _TABLE.size, size=1 << 16)
_GATHERED = np.empty(_INDEX.size, dtype=np.int64)
#: Resident bytes the probe's buffers add to every process that holds them.
PROBE_BYTES = sum(a.nbytes for a in (_SCRUB, _TABLE, _INDEX, _GATHERED))


def kernel() -> int:
    """A fixed amount of interpreter and memory work."""
    total = 0
    for value in range(6000):
        total = (total + value * 7) & 0xFFFF
    np.take(_TABLE, _INDEX, out=_GATHERED)
    return total + int(_GATHERED.sum())


class SpeedProbe:
    """Samples :func:`kernel` on a CPU-time timer between start and stop.

    With ``log_fd`` every sample is also appended to that file descriptor,
    one sample per line, for a parent process to read (:func:`logged`).
    A sample is the kernel's ``(wall, cpu)`` duration: its wall-clock time
    and the CPU time its thread was given, which leaves out the time the
    hypervisor ran other guests on the vCPU.
    """

    def __init__(self, log_fd: Optional[int] = None) -> None:
        self.log_fd = log_fd
        self.samples: List[Tuple[float, float]] = []

    def _sample(self, signum, frame) -> None:
        _SCRUB.sum()
        for _ in range(2):
            np.take(_TABLE, _INDEX, out=_GATHERED)
        wall, cpu = time.perf_counter(), time.thread_time()
        kernel()
        sample = (time.perf_counter() - wall, time.thread_time() - cpu)
        self.samples.append(sample)
        if self.log_fd is not None:
            os.write(self.log_fd, b"%.9f %.9f\n" % sample)

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def burst(self, runs: int = 30) -> "SpeedProbe":
        """Take ``runs`` samples back to back (for phases too short to time)."""
        for _ in range(runs):
            self._sample(None, None)
        return self

    def factor(
        self, extra: List[Tuple[float, float]] = (), *, cpu: bool = False
    ) -> float:
        """Mean speed relative to the reference over these and ``extra`` samples.

        The wall-clock factor scales wall-clock times; with ``cpu`` the
        factor comes from the kernel's CPU times and scales CPU times.
        """
        if not self.samples:
            self.burst(1)
        samples = self.samples + list(extra)
        return sum(REFERENCE_S / sample[cpu] for sample in samples) / len(samples)


def probe_forked_children(directory: str) -> None:
    """Run a logging probe in every process forked from now on.

    Each child appends its samples to ``directory/speed-<pid>.log``.  Only
    ``fork``-started children are covered; a ``spawn``-started pool is
    measured by the parent's samples alone.
    """

    def start_in_child() -> None:
        path = os.path.join(directory, f"speed-{os.getpid()}.log")
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        SpeedProbe(log_fd=fd).start()

    os.register_at_fork(after_in_child=start_in_child)


def logged(directory: str) -> List[Tuple[float, float]]:
    """Every sample the forked children of :func:`probe_forked_children` logged."""
    samples: List[Tuple[float, float]] = []
    for path in glob.glob(os.path.join(directory, "speed-*.log")):
        with open(path, encoding="ascii") as handle:
            for line in handle:
                if line.strip():
                    wall, cpu = line.split()
                    samples.append((float(wall), float(cpu)))
    return samples


def main() -> int:
    """Print how the kernel's time depends on the working set of the program.

    Before each sample a stand-in program reads and writes 0 to 64 MiB of
    its own data.  Each line gives the median sample after that program,
    relative to the median after the empty one; a probe that measures the
    machine alone reads close to 1.0 on every line.
    """
    sizes = (0, 2, 8, 32, 64)
    programs = {mib: np.ones((mib << 20) // 8) for mib in sizes}
    probe = SpeedProbe()
    samples: dict = {mib: [] for mib in sizes}
    for _ in range(40):
        for mib, data in programs.items():
            data *= 1.0
            probe._sample(None, None)
            samples[mib].append(probe.samples[-1])
    base = [statistics.median(s[clock] for s in samples[0]) for clock in (0, 1)]
    for mib in sizes:
        wall, cpu = (
            statistics.median(s[clock] for s in samples[mib]) / base[clock]
            for clock in (0, 1)
        )
        print(f"program working set {mib:3d} MiB: wall {wall:.3f}  cpu {cpu:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
