"""Small process that starts the benchmark's children and reports their usage.

Linux starts a child's ``ru_maxrss`` at the resident-set high-water mark of
the process it was forked or vforked from, so a child started straight from
the benchmark, whose own resident set is larger than a small job's, would
report the benchmark's size.  This process imports almost nothing and stays
far below the smallest job.  The benchmark sends it one JSON request per line
on stdin::

    {"argv": [...], "stdout": PATH, "stderr": PATH, "timeout": SECONDS}

and reads one JSON line back::

    {"status": EXIT_CODE, "wall_s": SECONDS, "rss_kb": PEAK_RSS}

``status`` is null when the child was killed at the timeout.  Children
inherit this process's environment, working directory and CPU affinity.
Run it as ``python3 -S perfbench/spawn.py``; ``Spawner`` does that.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

OUTPUT = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def serve() -> None:
    running: list[int] = []  # pid of the child being waited for
    killed: list[bool] = []
    stopping: list[bool] = []

    def kill_child(*_) -> None:
        if running:
            try:
                os.kill(running[0], signal.SIGKILL)
            except ProcessLookupError:
                return
            killed.append(True)

    def stop(*_) -> None:
        if not running:
            raise SystemExit(0)
        stopping.append(True)
        kill_child()

    signal.signal(signal.SIGALRM, kill_child)
    signal.signal(signal.SIGTERM, stop)
    for line in sys.stdin:
        req = json.loads(line)
        killed.clear()
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], OUTPUT, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], OUTPUT, 0o644),
        ]
        t0 = time.perf_counter()
        running.append(os.posix_spawn(req["argv"][0], req["argv"], os.environ, file_actions=actions))
        signal.setitimer(signal.ITIMER_REAL, req["timeout"])
        _, status, usage = os.wait4(running[0], 0)
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        running.clear()
        if stopping:
            return
        code = None if killed else os.waitstatus_to_exitcode(status)
        print(json.dumps({"status": code, "wall_s": wall, "rss_kb": usage.ru_maxrss}), flush=True)


class Spawner:
    """Client side: starts ``spawn.py`` and runs one child per call."""

    def __init__(self, cwd: Path, env: dict[str, str]):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", __file__],
            cwd=cwd,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: list[str], stdout: Path, stderr: Path, timeout: float) -> dict:
        req = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr), "timeout": timeout}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the child spawner exited")
        return json.loads(line)

    def close(self) -> None:
        """Ends the spawner; a child still running is killed and reaped."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


if __name__ == "__main__":
    serve()
