"""Start, measure and stop a ``rowpoly serve --shards 2`` fleet."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time

SHARDS = 2
_LISTENING = re.compile(r"listening on (\S+)")


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie waiting for its reaper has
    ended)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state != "Z"


class Fleet:
    """One router plus ``SHARDS`` shard processes on a fresh store."""

    def __init__(self, src: str, workdir: str, name: str) -> None:
        self.src = src
        self.store = os.path.join(workdir, f"{name}-store")
        self.log_path = os.path.join(workdir, f"{name}.log")
        self.proc: subprocess.Popen | None = None
        self.client = None
        self.address = ""
        self.shard_pids: list[int] = []

    def start(self, timeout: float = 60.0) -> float:
        """Spawn the fleet; seconds from spawning to its first ``ping``."""
        from repro.server.client import ServeClient

        env = dict(os.environ, PYTHONPATH=self.src)
        env.pop("ROWPOLY_STORE", None)
        env.pop("ROWPOLY_FAULTS", None)
        started = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--shards", str(SHARDS), "--store", self.store,
                 "--tcp", "127.0.0.1:0"],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=log, env=env,
            )
        while True:
            with open(self.log_path) as log:
                match = _LISTENING.search(log.read())
            if match:
                break
            if self.proc.poll() is not None or (
                time.perf_counter() - started > timeout
            ):
                self.stop()
                raise RuntimeError("fleet did not start; see "
                                   + self.log_path)
            time.sleep(0.002)
        self.address = match.group(1)
        self.client = ServeClient(self.address, timeout=timeout)
        if not self.client.ping():
            raise RuntimeError("fleet did not answer ping")
        elapsed = time.perf_counter() - started
        self.shard_pids = [
            int(pid) for pid in
            self.client.stats()["router"]["pids"].values()
        ]
        return elapsed

    def rss_mb(self) -> float:
        """Summed peak RSS of the router and its shards."""
        pids = [self.proc.pid] + self.shard_pids
        return sum(peak_rss_mb(pid) for pid in pids)

    def stop(self, timeout: float = 30.0) -> None:
        """Shut the fleet down and wait until every process has ended."""
        if self.client is not None:
            try:
                self.client.shutdown()
            except (OSError, ValueError, RuntimeError):
                pass
            self.client.close()
            self.client = None
        if self.proc is not None:
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout)
            self.proc = None
        deadline = time.monotonic() + timeout
        for pid in self.shard_pids:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        self.shard_pids = []
