"""``repro serve`` hosts for the ``timeloop-pool`` workload, observed
from outside.

The benchmark never instruments the hosts. It starts each as a real
``python -m repro serve`` process, reads its ``/healthz`` counters with
plain ``urllib`` (so the probes do not count as service traffic), and
reads its CPU time from ``/proc/<pid>/stat`` before stopping it.
``tools/_check_common.py`` has a similar serve lifecycle; the benchmark
keeps its own, so that later edits to the checks cannot change what
the benchmark measures.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Dict, List

_TICKS = os.sysconf("SC_CLK_TCK")
#: Healthz counters whose deltas the benchmark reports.
COUNTERS = ("evaluations", "batch_requests", "memo_hits", "busy_s")


def healthz(url: str, timeout: float = 5.0) -> dict:
    with urllib.request.urlopen(url + "/healthz", timeout=timeout) as resp:
        return json.loads(resp.read())


def cpu_seconds(pid: int) -> float:
    """User plus system CPU of a live process."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    # Fields after the parenthesised command name; utime and stime are
    # fields 14 and 15 of the whole line.
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


class Host:
    """One spawned ``repro serve`` process."""

    def __init__(self, repo: Path, env_id: str, log_path: Path) -> None:
        env = dict(os.environ)
        src = str(repo / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.log_path = log_path
        # Output goes to a file, not a pipe nobody drains.
        with open(log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--envs", env_id,
                 "--port", "0"],
                env=env, cwd=repo, stdout=log, stderr=subprocess.STDOUT,
            )
        self.url = ""

    def wait_ready(self, deadline: float) -> str:
        """Parse the serve banner for the bound URL, then poll healthz."""
        while not self.url:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"host exited before its banner: {self.log_path.read_text()!r}"
                )
            for line in self.log_path.read_text().splitlines():
                if " at http://" in line:
                    self.url = line.rsplit(" at ", 1)[1].strip()
                    break
            else:
                if time.monotonic() > deadline:
                    raise RuntimeError("host never printed its serve banner")
                time.sleep(0.01)
        while True:
            try:
                if healthz(self.url, timeout=2.0).get("status") == "ok":
                    return self.url
            except (urllib.error.URLError, OSError, ValueError):
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"host {self.url} never became healthy")
            time.sleep(0.01)

    def snapshot(self) -> Dict[str, float]:
        """Healthz counters plus the process's CPU seconds."""
        health = healthz(self.url)
        snap = {name: float(health[name]) for name in COUNTERS}
        snap["cpu_s"] = cpu_seconds(self.proc.pid)
        return snap

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)


def start_hosts(repo: Path, env_id: str, n: int, work: Path) -> List[Host]:
    """Spawn ``n`` hosts at once and wait until every one is healthy."""
    hosts: List[Host] = []
    try:
        for i in range(n):
            hosts.append(Host(repo, env_id, work / f"host-{i}.log"))
        deadline = time.monotonic() + 60
        for host in hosts:
            host.wait_ready(deadline)
    except BaseException:
        stop_hosts(hosts)
        raise
    return hosts


def stop_hosts(hosts: List[Host]) -> None:
    for host in hosts:
        host.stop()
