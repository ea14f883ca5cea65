"""Child processes of the benchmark: environment, launch, rusage, teardown."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple


def child_env(root: str, work: str,
              extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """The caller's environment without any ``REPRO_*`` knob.

    The program is imported from the checkout's ``src`` and the
    benchmark's own modules from the checkout root; temporary files go
    to the run's work directory.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
    env["TMPDIR"] = os.path.join(work, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    env.update(extra or {})
    return env


def run_timed(argv: List[str], env: Dict[str, str], cwd: str,
              log_path: str, timeout_s: float
              ) -> Tuple[float, float, int, float]:
    """Run a child to completion: ``(spawned, exited, ru_maxrss KiB,
    CPU seconds)``.

    ``spawned``/``exited`` are ``time.monotonic()`` readings (the same
    clock a child reads, so child timestamps compare with them).  A
    non-zero exit or a timeout raises ``RuntimeError`` after the child
    has been stopped and reaped.
    """
    with open(log_path, "ab") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=log,
                                stderr=subprocess.STDOUT)
        deadline = spawned + timeout_s
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    raise RuntimeError(f"{argv} timed out; see {log_path}")
                time.sleep(0.002)
        except BaseException:
            # Timed out, or the benchmark itself is being stopped.
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log_path, "rb") as log:
            tail = log.read()[-2000:].decode(errors="replace")
        raise RuntimeError(f"child {argv} exited {proc.returncode}:\n{tail}")
    return spawned, exited, usage.ru_maxrss, usage.ru_utime + usage.ru_stime


#: Linux's ``CPUCLOCK_SCHED``: a process CPU clock counting in ns.
_CPUCLOCK_SCHED = 2


class Server:
    """A ``repro serve`` child on an ephemeral loopback port.

    Construction spawns it and blocks until the ``listening`` line,
    timestamping every start-up line on the way; ``stop`` ends it with
    SIGINT (the CLI's clean shutdown) and reaps it.
    """

    def __init__(self, argv: List[str], env: Dict[str, str], cwd: str,
                 log_path: str, timeout_s: float = 120.0) -> None:
        self._log = open(log_path, "ab")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(argv, env=dict(env, PYTHONUNBUFFERED="1"),
                                     cwd=cwd, stdout=subprocess.PIPE,
                                     stderr=self._log)
        self.lines: List[Tuple[float, str]] = []
        self.port = 0
        try:
            self._await_listening(self.spawned + timeout_s, log_path)
        except BaseException:
            # Including the benchmark being stopped mid start-up: the
            # caller never gets an object to stop, so stop it here.
            self.stop()
            raise
        self.listening = self.lines[-1][0]

    def _await_listening(self, deadline: float, log_path: str) -> None:
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            raw = self.proc.stdout.readline()
            if not raw:
                raise RuntimeError(f"server exited during start-up; see "
                                   f"{log_path}")
            line = raw.decode().strip()
            self.lines.append((time.monotonic(), line))
            if line.startswith("listening on "):
                self.port = int(line.rsplit(":", 1)[1])
                return
        raise RuntimeError("server did not start listening in time")

    def line_time(self, prefix: str) -> float:
        for stamp, line in self.lines:
            if line.startswith(prefix):
                return stamp
        raise KeyError(prefix)

    def vm_hwm_mib(self) -> float:
        """Peak resident set of the live server (``VmHWM``), MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def cpu_s(self) -> float:
        """CPU seconds the live server has used so far, all threads.

        Read from the server's process CPU clock, the clock id Linux's
        ``clock_getcpuclockid(3)`` would return for it.
        """
        return time.clock_gettime(((~self.proc.pid) << 3) | _CPUCLOCK_SCHED)

    def wait_exit(self, timeout_s: float) -> bool:
        """Wait for the server to exit by itself; True if it did."""
        try:
            self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            return False
        self.exited = time.monotonic()
        return True

    def stop(self, timeout_s: float = 20.0) -> int:
        """SIGINT, then SIGKILL if it lingers; always reaps the child."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            if not self.wait_exit(timeout_s):
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


def steal_s() -> float:
    """CPU seconds the hypervisor gave to other guests so far (all CPUs)."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def python_argv(*args: str) -> List[str]:
    return [sys.executable, *args]
