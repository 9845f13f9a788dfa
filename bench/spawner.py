"""Child processes for the benchmark: spawn, time, measure, collect output.

Linux charges a child's ``ru_maxrss`` with the high-water RSS of the address
space it replaced at ``exec``; for a child started with vfork that is its
parent's.  Started from ``run.py``, which holds whole CLI outputs, even
``info 3`` would read as the peak of ``run.py``.  So every timed child is
started by a helper: a fresh interpreter running this file, which imports
only the standard library and never grows.  Each reading is then the
child's own, or the helper's own resident set (about 16 MB on CPython
3.11) if that is more; every workload call peaks well above that.

The helper times each child from spawn to exit and takes its CPU time and
peak RSS from ``os.wait4`` on that child alone; ``getrusage(RUSAGE_CHILDREN)``
would give the running maximum over all children reaped so far.  ``run.py``
passes the child's stdout and stderr pipes to the helper over a Unix socket
and reads them itself, so no output passes through the helper.
"""
from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

CALL_TIMEOUT_S = 100


@dataclass
class Call:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int | None  # None when the call was killed at the time limit
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    """The caller's environment without PYTHON* and FIBSEMI_* settings.

    PYTHONUNBUFFERED, for one, turns every CSV row into a write system call
    and nearly doubles the time of ``apery 28``; the benchmark measures the
    defaults a user gets.  ``src`` of the current directory comes first on
    the import path.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "FIBSEMI_"))}
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


class Spawner:
    """Runs ``python <args>`` children through the helper process."""

    def __init__(self) -> None:
        self._sock, helper_end = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with helper_end:
            self._helper = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), str(helper_end.fileno())],
                pass_fds=[helper_end.fileno()], stdin=subprocess.DEVNULL, env=child_env())

    def spawn(self, args: list[str], timeout: float = CALL_TIMEOUT_S) -> Call:
        """Run ``python <args>`` and collect its output, time and usage."""
        out_r, out_w = os.pipe()
        err_r, err_w = os.pipe()
        try:
            request = json.dumps({"args": args, "timeout": timeout}).encode()
            socket.send_fds(self._sock, [request], [out_w, err_w])
        finally:
            os.close(out_w)
            os.close(err_w)
        err: list[bytes] = []
        with os.fdopen(out_r, "rb") as out_file, os.fdopen(err_r, "rb") as err_file:
            reader = threading.Thread(target=lambda: err.append(err_file.read()))
            reader.start()
            out = out_file.read()
            reader.join()
        reply = self._sock.recv(4096)
        if not reply:
            raise RuntimeError("the spawn helper exited")
        return Call(stdout=out.decode(errors="replace"), stderr=err[0].decode(errors="replace"),
                    **json.loads(reply))

    def close(self) -> None:
        self._sock.close()  # the helper reads end-of-file and exits
        self._helper.wait(timeout=CALL_TIMEOUT_S)

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve(sock: socket.socket) -> None:
    """Helper loop: one request (arguments plus stdout and stderr fds) per message."""
    child = None
    killed = False

    def kill(signum, frame) -> None:
        nonlocal killed
        if child is not None:
            killed = True
            os.kill(child, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    while True:
        msg, fds, _, _ = socket.recv_fds(sock, 4096, 2)
        if not msg:
            return
        req = json.loads(msg)
        killed = False
        t0 = time.perf_counter()
        child = os.posix_spawn(sys.executable, [sys.executable, *req["args"]], os.environ,
                               file_actions=[
                                   (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                                   (os.POSIX_SPAWN_DUP2, fds[0], 1),
                                   (os.POSIX_SPAWN_DUP2, fds[1], 2),
                               ])
        for fd in fds:
            os.close(fd)
        signal.setitimer(signal.ITIMER_REAL, req["timeout"])
        # wait without reaping, so the alarm can never signal a reused pid
        os.waitid(os.P_PID, child, os.WEXITED | os.WNOWAIT)
        signal.setitimer(signal.ITIMER_REAL, 0)
        _, status, usage = os.wait4(child, 0)
        wall = time.perf_counter() - t0
        child = None
        sock.send(json.dumps({
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
            "exit_code": None if killed else os.waitstatus_to_exitcode(status),
        }).encode())


if __name__ == "__main__":
    serve(socket.socket(fileno=int(sys.argv[1])))
