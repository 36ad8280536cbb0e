"""CPU speed probe that shares the measured CPU with the job children.

The benchmark runs on shared hosts whose per-CPU speed changes by up to half
within seconds and drifts over minutes, as other tenants come and go.  To
take that out of the timings, this process runs pinned to the CPU the job
children are pinned to, at the lowest priority, and repeats a fixed chunk of
interpreter work.  After each chunk it stores its chunk count and its own CPU
time in a small shared file::

    python3 perfbench/probe.py COUNTER_FILE

While a job runs, the probe gets only the scheduler's share for the lowest
priority (about 1.5 % of the CPU), spread over the job's whole life, so the
CPU time per chunk it sees is the speed of that CPU during that job.  The
benchmark reads the counters before and after each child (``Probe.read``)
and rescales the child's wall time to a CPU on which one chunk takes
``REFERENCE_CHUNK_S`` (``Probe.scale``).
"""

from __future__ import annotations

import mmap
import os
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

LAYOUT = struct.Struct("<qq")  # chunks done, CPU nanoseconds spent on them
# The reference speed: normalised times read as wall seconds on a CPU on
# which one chunk takes this long (about an uncontended current x86 server
# core running CPython 3.11).
REFERENCE_CHUNK_S = 25e-6
# Fewest chunks between two readings from which a speed is taken.
MIN_CHUNKS = 20


def chunk() -> int:
    """Fixed interpreter work: tuple-keyed dict updates and int arithmetic."""
    table: dict[tuple[int, int], int] = {}
    for i in range(96):
        key = (i & 7, i >> 3)
        table[key] = table.get(key, 0) + i * 1000003 % 97
    return len(table)


def serve(path: Path) -> None:
    os.nice(19)
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    with open(path, "r+b") as fh:
        buf = mmap.mmap(fh.fileno(), LAYOUT.size)
    done = 0
    start = time.process_time_ns()
    while not stop:
        chunk()
        done += 1
        LAYOUT.pack_into(buf, 0, done, time.process_time_ns() - start)
    buf.close()


class Probe:
    """Starts the probe child, which inherits this process's CPU affinity."""

    def __init__(self, path: Path):
        path.write_bytes(bytes(LAYOUT.size))
        with open(path, "r+b") as fh:
            self.buf = mmap.mmap(fh.fileno(), LAYOUT.size)
        self.proc = subprocess.Popen([sys.executable, __file__, str(path)])
        deadline = time.monotonic() + 30.0
        while self.read()[0] < 100:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise RuntimeError("the CPU speed probe did not start")
            time.sleep(0.01)
        self.last_scale = 1.0
        self.scale((0, 0), self.read())

    def read(self) -> tuple[int, int]:
        # The probe may write between the two fields; read until stable.
        while True:
            first = LAYOUT.unpack_from(self.buf, 0)
            if LAYOUT.unpack_from(self.buf, 0) == first:
                return first

    def scale(self, before: tuple[int, int], after: tuple[int, int]) -> float:
        """Factor from wall time between two readings to reference time.

        A window with too few chunks to judge keeps the previous factor.
        """
        chunks = after[0] - before[0]
        if chunks >= MIN_CHUNKS:
            self.last_scale = REFERENCE_CHUNK_S * chunks * 1e9 / (after[1] - before[1])
        return self.last_scale

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.buf.close()


if __name__ == "__main__":
    serve(Path(sys.argv[1]))
