#!/usr/bin/env python
"""Multi-host sweep integration check (CI's `multihost` job).

Drives the real CLI end to end, mirroring tools/check_service.py but
over a two-host pool with a mid-sweep kill:

1. launches **two** ``python -m repro serve`` processes and waits for
   both to answer ``GET /healthz``;
2. while both hosts are healthy, runs the GA-generation
   microbenchmark (``check_service.generation_microbench``): one real
   population-64 GA generation scattered over the 2-host pool must
   issue ≥ 32× fewer HTTP round trips than per-point dispatch (64
   one-point ``POST /evaluate_batch`` requests, checked on the hosts'
   ``/healthz`` ``batch_requests``, vs one per host) and be faster;
   stepped through ``env.step_batch`` with the replicated shared-cache
   tier, a generation must issue ≥ 32× fewer ``/cache`` round trips
   than per-point steps (3 vs 192), and a warm re-run must cost no
   host evaluations. That cache leg runs on MaestroGym-v0, which both hosts
   also serve: its design points share no parameter name with
   DRAMGym's, so the entries it leaves behind can never answer the
   sweep below;
3. starts a seeded sweep spread over both hosts (two ``--service-url``
   flags — round-robin scheduling with failover) with the replicated
   shared-cache tier on (``--shared-cache --cache-replicas 2`` — host
   A, the first URL, is the cache *primary*) exporting its report;
4. while the sweep runs, waits until host A has actually evaluated
   design points, then **SIGKILLs** it — the real thing, not a
   graceful shutdown — taking down the dispatch host *and* the cache
   primary in one blow;
5. the sweep must complete on the surviving host: the run is diffed
   against an identical in-process sweep with a local shared cache
   (timing and remote-eval provenance fields zeroed — everything
   else, including the cross-trial ``shared_cache_hits``, must match
   exactly, proving no trial was lost, duplicated, corrupted, or
   starved of its cache by the failover);
6. asserts the kill landed mid-sweep, that the survivor carried load
   afterwards, and that per-trial ``remote_hosts`` provenance accounts
   for every remote evaluation;
7. re-runs the identical sweep against the pool with host A still
   dead: every design point must be answered from host B's cache
   replica — **zero** re-simulated points (``remote_evals`` 0 on every
   trial, host B's ``evaluations`` counter unchanged) with search
   results still identical to the clean run.

Exit code 0 means a host died mid-sweep and nobody noticed in the
results — and its cache entries died with it without costing a single
re-simulation. Usage: ``python tools/check_multihost.py`` (repo root;
sets PYTHONPATH=src for its children itself).
"""

from __future__ import annotations

import copy
import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
from pathlib import Path
from tempfile import mkdtemp

from _check_common import (
    REPO_ROOT,
    check_env,
    cli,
    diff_reports,
    healthz,
    normalized_rows,
    spawn_server,
    wait_for_url,
)
from check_service import generation_microbench

SWEEP_ARGS = [
    "sweep", "--env", "DRAMGym-v0", "--agents", "rw,ga",
    "--trials", "2", "--samples", "80", "--seed", "11", "--workers", "1",
]

#: The replicated shared-cache tier: every put fans out to two pool
#: hosts, so the primary's death must not lose a single entry.
CACHE_ARGS = ["--shared-cache", "--cache-replicas", "2"]


def main() -> int:
    workdir = Path(mkdtemp(prefix="archgym-multihost-check-"))
    multihost_export = workdir / "multihost.json"
    clean_export = workdir / "clean.json"
    replay_export = workdir / "replay.json"

    # 1. two independent evaluation hosts
    server_a = spawn_server("DRAMGym-v0", "MaestroGym-v0")
    server_b = spawn_server("DRAMGym-v0", "MaestroGym-v0")
    sweep = None
    try:
        url_a, url_b = wait_for_url(server_a), wait_for_url(server_b)
        print(f"hosts healthy at {url_a} and {url_b}")

        # 2. generation-native dispatch must stay a transport win:
        # population 64 over 2 hosts = 2 round trips vs 64 per-point,
        # and 3 /cache round trips vs 192 per-point
        generation_microbench(
            [url_a, url_b], population=64, cache_env="MaestroGym-v0"
        )
        # the bench drove evaluations through both hosts; the kill
        # watch below must only count the *sweep's* evaluations
        baseline_a = healthz(url_a)["evaluations"]
        baseline_b = healthz(url_b)["evaluations"]

        # 3. the sweep, spread over both hosts, with the replicated
        # shared-cache tier (host A = cache primary)
        sweep = subprocess.Popen(
            cli(*SWEEP_ARGS, *CACHE_ARGS,
                "--service-url", url_a, "--service-url", url_b,
                "--service-timeout", "15", "--service-retries", "1",
                "--export", str(multihost_export)),
            env=check_env(), cwd=REPO_ROOT, stdout=subprocess.DEVNULL,
        )

        # 4. wait until host A demonstrably served part of the sweep,
        # then SIGKILL it mid-run
        kill_deadline = time.monotonic() + 120
        evals_a = baseline_a
        while time.monotonic() < kill_deadline:
            if sweep.poll() is not None:
                raise RuntimeError(
                    "sweep finished before host A served any evaluations — "
                    "raise --samples so the kill lands mid-run"
                )
            try:
                evals_a = healthz(url_a, timeout=1.0)["evaluations"]
            except (urllib.error.URLError, OSError, ValueError):
                evals_a = baseline_a
            if evals_a >= baseline_a + 10:
                break
            time.sleep(0.01)
        if evals_a < baseline_a + 10:
            raise RuntimeError("host A never reached 10 sweep evaluations")
        os.kill(server_a.pid, signal.SIGKILL)
        server_a.wait(timeout=30)
        print(
            f"SIGKILLed host A after {evals_a - baseline_a} sweep "
            "evaluations; sweep continues"
        )

        # 5. the sweep must survive on host B alone
        returncode = sweep.wait(timeout=600)
        if returncode != 0:
            print(f"FAIL: multi-host sweep exited {returncode} after the kill")
            return 1
        health_b = healthz(url_b)
        if health_b["evaluations"] <= baseline_b:
            print("FAIL: surviving host served zero sweep evaluations")
            return 1
        print(
            f"sweep survived the kill (host B served "
            f"{health_b['evaluations'] - baseline_b} sweep evaluations)"
        )

        # in-process reference run — shared cache in a local directory
        # so the cross-trial hit accounting is comparable row for row
        subprocess.run(
            cli(*SWEEP_ARGS, "--shared-cache",
                "--out-dir", str(workdir / "clean-shards"),
                "--export", str(clean_export)),
            env=check_env(), cwd=REPO_ROOT, check=True,
            stdout=subprocess.DEVNULL, timeout=600,
        )

        # 6. diff (remote participation + provenance asserted during load)
        multihost = normalized_rows(multihost_export, expect_remote=True)
        clean = normalized_rows(clean_export, expect_remote=False)
        if not diff_reports(multihost, clean, "multihost"):
            return 1
        print(
            "OK: a host died mid-sweep and the report is still identical "
            "to the in-process run (shared-cache hits included)"
        )

        # 7. zero-resimulation proof: the identical sweep again, with
        # the cache primary still dead — every point must come out of
        # host B's replica, never the simulator
        evals_b_before = healthz(url_b)["evaluations"]
        subprocess.run(
            cli(*SWEEP_ARGS, *CACHE_ARGS,
                "--service-url", url_a, "--service-url", url_b,
                "--service-timeout", "15", "--service-retries", "1",
                "--export", str(replay_export)),
            env=check_env(), cwd=REPO_ROOT, check=True,
            stdout=subprocess.DEVNULL, timeout=600,
        )
        evals_b_after = healthz(url_b)["evaluations"]
        replay = json.loads(replay_export.read_text())
        resimulated = sum(row["remote_evals"] for row in replay["rows"])
        if resimulated != 0:
            print(
                f"FAIL: cache replay re-simulated {resimulated} design "
                "point(s) after the cache primary's death"
            )
            return 1
        if evals_b_after != evals_b_before:
            print(
                f"FAIL: surviving host evaluated "
                f"{evals_b_after - evals_b_before} point(s) during the "
                "cache replay — the replica did not cover the sweep"
            )
            return 1
        # search results must still match the clean run; only the cache
        # accounting legitimately differs (every point is now a
        # cross-trial hit, so nothing ever misses through to the
        # simulator), so zero it on both sides
        for row in replay["rows"]:
            row["wall_time_s"] = 0.0
            row["sim_time_s"] = 0.0
            row["remote_evals"] = 0
            row["remote_hosts"] = {}
            row["shared_cache_hits"] = 0
            row["cache_misses"] = 0
        clean_no_hits = copy.deepcopy(clean)
        for row in clean_no_hits["rows"]:
            row["shared_cache_hits"] = 0
            row["cache_misses"] = 0
        if not diff_reports(replay, clean_no_hits, "cache-replay"):
            return 1
        print(
            "OK: the dead cache primary cost zero re-simulated points — "
            "host B's replica answered the whole sweep"
        )
        return 0
    finally:
        if sweep is not None and sweep.poll() is None:
            sweep.kill()
            sweep.wait(timeout=30)
        for server in (server_a, server_b):
            if server.poll() is None:
                server.terminate()
                server.wait(timeout=30)


if __name__ == "__main__":
    sys.exit(main())
