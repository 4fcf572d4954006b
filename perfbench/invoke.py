"""Timed child processes with a hard timeout over the whole process tree.

Each child starts in its own session, so its process group holds the CLI and
every worker it forks.  Wall time runs from spawn to exit; kernel CPU time
and peak RSS come from ``wait4``, which includes the reaped workers.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass


@dataclass
class Invocation:
    wall_s: float
    exit_code: int | None  # None: killed at the timeout
    sys_s: float
    maxrss_mb: float
    stdout: str
    stderr: str

    @property
    def ok(self):
        return self.exit_code == 0


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid, limit_s=10.0):
    """Poll until no process of the group is left (workers orphaned by a
    killed parent are reaped by init, not by us)."""
    end = time.monotonic() + limit_s
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run(argv, env, timeout_s, out_path, err_path):
    """Run ``argv`` with stdout/stderr redirected to files; kill the whole
    process group after ``timeout_s`` seconds."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    timed_out = threading.Event()

    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions, setsid=True)

    def expire():
        timed_out.set()
        _kill_group(pid)

    timer = threading.Timer(max(timeout_s, 0.0), expire)
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
    finally:
        timer.cancel()
    # a CLI that exits while its workers live on leaves them in the group
    _kill_group(pid)
    _wait_group_gone(pid)

    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    code = None if timed_out.is_set() else os.waitstatus_to_exitcode(status)
    return Invocation(wall, code, usage.ru_stime, usage.ru_maxrss / 1024.0,
                      stdout, stderr)
