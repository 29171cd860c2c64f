#!/usr/bin/env python
"""Evaluation-service integration check (CI's `service` job).

Drives the real CLI end to end, mirroring tools/check_resume.py:

1. launches ``python -m repro serve`` on a free port and waits for
   ``GET /healthz`` to answer;
2. runs a seeded sweep through the service (``--service-url``) and
   exports the report;
3. microbenchmarks the transport: the same 64 design points evaluated
   per-point (64 one-point ``POST /evaluate_batch`` requests on one
   keep-alive connection, checked on the host's ``/healthz``
   ``batch_requests``) versus batched (one 64-point
   ``POST /evaluate_batch``) — the batch must use ≥ 3× fewer round
   trips (it uses 64× fewer) and less wall-clock;
   (:func:`generation_microbench` is the multi-host sibling — a real
   GA generation of 64 scattered over a 2-host pool must use ≥ 32×
   fewer round trips than per-point dispatch, and stepped through
   ``env.step_batch`` with the replicated shared-cache tier it must
   use ≥ 32× fewer ``/cache`` round trips than per-point steps — run
   by ``tools/check_multihost.py`` in the ``multihost`` CI job), then
   :func:`straggler_microbench` injects a deliberately slow host into
   a 2-host pool and requires streaming dispatch with work stealing
   (``--pipeline``'s transport) to beat the barrier scatter on
   wall-clock with at least one steal and identical metrics, and
   :func:`auto_weights_microbench` requires a pool with
   ``auto_weights=True`` to observe the same speed gap via healthz
   service rates and visibly shift scattered load off the slow host;
4. runs the identical sweep in-process into a second export;
5. diffs the two reports — trial order, metrics, hyperparameters, and
   cache counters must match exactly (timing fields and the
   remote-evaluation counters, which legitimately differ, are zeroed);
6. asserts the service run really did dispatch remotely (non-zero
   ``remote_evals`` per trial, non-zero ``evaluations`` on healthz).

Exit code 0 means the service-backed report is bit-identical to the
in-process one and batching beats per-point requests. Usage:
``python tools/check_service.py`` (repo root; sets PYTHONPATH=src for
its children itself).
"""

from __future__ import annotations

import subprocess
import sys
import time
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

sys.path.insert(0, str(REPO_ROOT / "src"))

SWEEP_ARGS = [
    "sweep", "--env", "DRAMGym-v0", "--agents", "rw,ga",
    "--trials", "2", "--samples", "40", "--seed", "11", "--workers", "1",
]


def _batch_requests(urls) -> int:
    """The hosts' ``/healthz`` ``batch_requests`` counters, summed."""
    return sum(healthz(url)["batch_requests"] for url in urls)


def _require_one_batch_per_point(urls, before: int, n_points: int) -> None:
    """Fail unless the hosts served exactly one ``/evaluate_batch``
    per point since their counters read ``before``: a per-point leg
    must cost one round trip per design point, as it claims."""
    sent = _batch_requests(urls) - before
    if sent != n_points:
        raise RuntimeError(
            f"per-point leg sent {sent} /evaluate_batch request(s) for "
            f"{n_points} points (want one per point)"
        )


def _microbench(url: str, n_points: int = 64) -> None:
    """Batched + keep-alive vs per-point requests over the same design
    points; fails the job unless batching wins on round trips (≥ 3×
    fewer) and wall-clock."""
    import numpy as np

    import repro
    from repro.core.env import canonical_action_key
    from repro.service import ServiceClient

    env = repro.make("DRAMGym-v0")
    rng = np.random.default_rng(0)
    actions, seen = [], set()
    while len(actions) < n_points:  # n_points *distinct* design points
        action = env.action_space.sample(rng)
        key = canonical_action_key(action)
        if key not in seen:
            seen.add(key)
            actions.append(action)
    env.close()

    per_point = ServiceClient(url, timeout_s=30.0, retries=0)
    batched = ServiceClient(url, timeout_s=30.0, retries=0)
    per_point_s, batched_s = float("inf"), float("inf")
    reps = 3  # best-of-3 per leg so one scheduler hiccup can't flake CI
    for _ in range(reps):
        before = _batch_requests([url])
        start = time.perf_counter()
        per_point_results = [
            per_point.evaluate("DRAMGym-v0", action) for action in actions
        ]
        per_point_s = min(per_point_s, time.perf_counter() - start)
        _require_one_batch_per_point([url], before, n_points)
        start = time.perf_counter()
        batched_results = batched.evaluate_batch("DRAMGym-v0", actions)
        batched_s = min(batched_s, time.perf_counter() - start)

    if per_point.connections_opened != 1:
        raise RuntimeError(
            f"keep-alive broken: {reps * n_points} requests opened "
            f"{per_point.connections_opened} connections"
        )
    if batched_results != per_point_results:
        raise RuntimeError("batched metrics differ from per-point metrics")
    rt_ratio = (per_point.requests_sent / reps) / (batched.requests_sent / reps)
    print(
        f"microbench ({n_points} points, best of {reps}): "
        f"{per_point.requests_sent // reps} round trips / {per_point_s:.3f}s "
        f"per-point vs {batched.requests_sent // reps} round trip(s) / "
        f"{batched_s:.3f}s batched ({rt_ratio:.0f}x fewer round trips, "
        f"{per_point_s / batched_s:.1f}x faster)"
    )
    if rt_ratio < 3.0:
        raise RuntimeError(
            f"batching saved only {rt_ratio:.1f}x round trips (need >= 3x)"
        )
    if batched_s >= per_point_s:
        raise RuntimeError(
            f"batched evaluation ({batched_s:.3f}s) was not faster than "
            f"per-point ({per_point_s:.3f}s)"
        )


def generation_microbench(
    urls, population: int = 64, min_rt_ratio: float = 32.0,
    cache_env: str = "MaestroGym-v0",
) -> None:
    """GA-generation dispatch over a host pool vs per-point dispatch.

    One real GA generation (``population`` distinct-by-construction
    design points from ``GAAgent.propose_batch``) is evaluated two
    ways over the same multi-host pool: per point (a one-point
    ``POST /evaluate_batch`` each, spread round-robin,
    checked on the hosts' ``/healthz`` ``batch_requests``) and
    scattered (``HostPool.evaluate_batch_scatter`` — one
    ``POST /evaluate_batch`` per host, in parallel). The scattered leg
    must use ≥ ``min_rt_ratio``× fewer HTTP round trips (population 64
    over 2 hosts: 64 vs 2 = 32×) and less wall-clock, and the metrics
    must match point for point. The hosts must also serve ``cache_env``
    for :func:`generation_cache_microbench`, which runs last. Raises on
    any violation — this is the CI gate for generation-native search
    staying a transport win.
    """
    import repro
    from repro.agents.ga import GAAgent
    from repro.sweeps.hostpool import HostPool

    env = repro.make("DRAMGym-v0")
    agent = GAAgent(env.action_space, seed=0, population_size=population)
    generation = agent.propose_batch()
    env.close()
    if len(generation) != population:
        raise RuntimeError(
            f"GA proposed {len(generation)} points, wanted {population}"
        )

    def pool_round_trips(pool):
        return sum(h.client.requests_sent for h in pool._hosts)

    per_point_pool = HostPool(urls, timeout_s=30.0, retries=0)
    scatter_pool = HostPool(urls, timeout_s=30.0, retries=0)
    per_point_s, scatter_s = float("inf"), float("inf")
    reps = 3  # best-of-3 per leg so one scheduler hiccup can't flake CI
    for _ in range(reps):
        before = _batch_requests(urls)
        start = time.perf_counter()
        per_point_results = [
            per_point_pool.evaluate("DRAMGym-v0", action)
            for action in generation
        ]
        per_point_s = min(per_point_s, time.perf_counter() - start)
        _require_one_batch_per_point(urls, before, population)
        start = time.perf_counter()
        scatter_results, scatter_hosts = scatter_pool.evaluate_batch_scatter(
            "DRAMGym-v0", generation
        )
        scatter_s = min(scatter_s, time.perf_counter() - start)

    if scatter_results != per_point_results:
        raise RuntimeError(
            "scattered generation metrics differ from per-point metrics"
        )
    hosts_used = {h for h in scatter_hosts if h is not None}
    if len(hosts_used) != len(scatter_pool.urls):
        raise RuntimeError(
            f"generation scatter used {sorted(hosts_used)}, expected all "
            f"of {scatter_pool.urls}"
        )
    per_point_rt = pool_round_trips(per_point_pool) / reps
    scatter_rt = pool_round_trips(scatter_pool) / reps
    rt_ratio = per_point_rt / scatter_rt
    print(
        f"generation microbench (population {population}, "
        f"{len(scatter_pool.urls)} hosts, best of {reps}): "
        f"{per_point_rt:.0f} round trips / {per_point_s:.3f}s per-point vs "
        f"{scatter_rt:.0f} round trips / {scatter_s:.3f}s scattered "
        f"({rt_ratio:.0f}x fewer round trips, "
        f"{per_point_s / scatter_s:.1f}x faster)"
    )
    if rt_ratio < min_rt_ratio:
        raise RuntimeError(
            f"generation dispatch saved only {rt_ratio:.1f}x round trips "
            f"(need >= {min_rt_ratio:.0f}x)"
        )
    if scatter_s >= per_point_s:
        raise RuntimeError(
            f"scattered generation ({scatter_s:.3f}s) was not faster than "
            f"per-point dispatch ({per_point_s:.3f}s)"
        )
    generation_cache_microbench(urls, cache_env, population, min_rt_ratio)


def generation_cache_microbench(
    urls, env_id: str, population: int = 64, min_rt_ratio: float = 32.0
) -> None:
    """A GA generation's ``/cache`` traffic: per-point steps vs one
    ``env.step_batch`` over the pool, with the replicated shared-cache
    tier (``ServerCacheStore``, 2 replicas) riding the backend's pool,
    as in a sweep. Only ``/cache`` round trips are counted; the
    pool's evaluation requests are not.

    Per point, ``env.step`` is a one-point batch: it looks each design
    point up (one ``POST /cache``) and writes each miss to both
    replicas (two ``PUT /cache`` requests); the batched step asks once
    for the whole generation and writes once per replica. Each leg
    steps its own generation (GA seeds 1 and 0) from a fresh env and
    store handle, so both start cold on fresh hosts. The batched leg
    must use ≥ ``min_rt_ratio``× fewer ``/cache`` round trips (64
    points: 192 vs 3), and a warm re-run of its
    generation from a fresh env and store must cost no host
    evaluations and reproduce every reward. ``env_id`` must be an
    environment whose parameter names no other caller of these hosts
    uses, so the entries written here can never answer another run's
    lookup. Raises on any violation.
    """
    import repro
    from repro.agents.ga import GAAgent
    from repro.core.cache_store import ServerCacheStore
    from repro.service import RemoteBackend, ServiceClient

    urls = list(urls)
    send = ServiceClient._send
    cache_requests = [0]

    def counting_send(client, method, path, body):
        if path == "/cache":  # the bulk lookup and write routes
            cache_requests[0] += 1
        return send(client, method, path, body)

    def step_generation(seed: int, batched: bool):
        env = repro.make(env_id)
        env.enable_cache()
        backend = RemoteBackend(urls, timeout_s=30.0, retries=0)
        env.attach_backend(backend)
        env.attach_shared_cache(ServerCacheStore(backend.pool, replicas=2))
        env.reset(seed=0)
        before = cache_requests[0]
        generation = GAAgent(
            env.action_space, seed=seed, population_size=population
        ).propose_batch()
        try:
            if batched:
                results = env.step_batch(generation)
            else:
                results = []
                for action in generation:
                    results.append(env.step(action))
                    if results[-1][2] or results[-1][3]:
                        env.reset()
        finally:
            backend.close()
            env.close()
        rewards = [result[1] for result in results]
        return rewards, env.stats, cache_requests[0] - before

    def host_evaluations() -> int:
        return sum(healthz(url)["evaluations"] for url in urls)

    ServiceClient._send = counting_send
    try:
        _, per_point, per_point_rt = step_generation(seed=1, batched=False)
        cold_rewards, cold, cold_rt = step_generation(seed=0, batched=True)
        before = host_evaluations()
        warm_rewards, warm, warm_rt = step_generation(seed=0, batched=True)
        warm_evals = host_evaluations() - before
    finally:
        ServiceClient._send = send
    rt_ratio = per_point_rt / max(cold_rt, 1)
    print(
        f"generation cache microbench ({env_id}, population {population}, "
        f"2 replicas): {per_point_rt} /cache round trips per-point "
        f"({per_point.cache_misses} misses) vs {cold_rt} batched "
        f"({cold.cache_misses} misses; {rt_ratio:.0f}x fewer); warm re-run "
        f"{warm_rt} round trip(s), {warm_evals} host evaluation(s), "
        f"{warm.shared_cache_hits} shared hits"
    )
    if rt_ratio < min_rt_ratio:
        raise RuntimeError(
            f"batched steps saved only {rt_ratio:.1f}x /cache round trips "
            f"(need >= {min_rt_ratio:.0f}x)"
        )
    if warm_evals or warm.cache_misses:
        raise RuntimeError(
            f"warm re-run evaluated {warm_evals} point(s) on the hosts "
            f"({warm.cache_misses} misses); the shared tier should answer all"
        )
    if warm_rewards != cold_rewards:
        raise RuntimeError("warm re-run rewards differ from the cold run")


def _slow_dram_env(delay_s: float):
    """A DRAMGym whose cost model is artificially slow — the injected
    straggler host of :func:`straggler_microbench`."""
    import time as _time

    import repro

    env = repro.make("DRAMGym-v0")
    true_evaluate = env.evaluate

    def slow_evaluate(action):
        _time.sleep(delay_s)
        return true_evaluate(action)

    env.evaluate = slow_evaluate
    return env


def straggler_microbench(
    population: int = 32, delay_s: float = 0.05, unit_size: int = 2
) -> None:
    """Barrier scatter vs streaming dispatch over a pool with one
    deliberately slow host.

    One real GA generation is evaluated two ways over a 2-host pool
    whose first host sleeps ``delay_s`` per design point: scattered
    (``HostPool.evaluate_batch_scatter`` — a *barrier*, so the call
    waits for the straggler's whole half) and streamed
    (``HostPool.evaluate_batch_stream`` — hosts pull small work units,
    the idle fast host work-steals the straggler's in-flight unit, and
    the stream finishes as soon as every result is known). The
    pipelined leg must beat the barrier on wall-clock, steal at least
    once, and produce point-identical metrics. Raises on any
    violation — this is the CI gate for streaming dispatch actually
    removing the straggler barrier.
    """
    import functools

    import repro
    from repro.agents.ga import GAAgent
    from repro.service import EvaluationService
    from repro.sweeps.hostpool import HostPool

    env = repro.make("DRAMGym-v0")
    agent = GAAgent(env.action_space, seed=0, population_size=population)
    generation = agent.propose_batch()
    env.close()

    slow = EvaluationService()
    slow.register("DRAMGym-v0", functools.partial(_slow_dram_env, delay_s))
    fast = EvaluationService()
    fast.register("DRAMGym-v0", functools.partial(repro.make, "DRAMGym-v0"))
    slow.start()
    fast.start()
    try:
        barrier_pool = HostPool([slow.url, fast.url], timeout_s=60.0, retries=0)
        stream_pool = HostPool([slow.url, fast.url], timeout_s=60.0, retries=0)

        start = time.perf_counter()
        barrier_results, _ = barrier_pool.evaluate_batch_scatter(
            "DRAMGym-v0", generation
        )
        barrier_s = time.perf_counter() - start

        start = time.perf_counter()
        streamed: list = [None] * len(generation)
        for begin, metrics_list, _ in stream_pool.evaluate_batch_stream(
            "DRAMGym-v0", generation, unit_size=unit_size
        ):
            streamed[begin:begin + len(metrics_list)] = metrics_list
        stream_s = time.perf_counter() - start
    finally:
        slow.stop()
        fast.stop()

    if streamed != barrier_results:
        raise RuntimeError("streamed metrics differ from barrier metrics")
    print(
        f"straggler microbench (population {population}, one host "
        f"{delay_s * 1e3:.0f}ms/point slower): {barrier_s:.3f}s barrier "
        f"scatter vs {stream_s:.3f}s pipelined "
        f"({barrier_s / stream_s:.1f}x faster, "
        f"{stream_pool.stream_steals} steal(s), "
        f"{stream_pool.stream_duplicates} duplicate(s) discarded)"
    )
    if stream_pool.stream_steals < 1:
        raise RuntimeError(
            "streaming dispatch never work-stole the straggler's remainder"
        )
    if stream_s >= barrier_s:
        raise RuntimeError(
            f"pipelined dispatch ({stream_s:.3f}s) was not faster than the "
            f"barrier scatter ({barrier_s:.3f}s) despite the straggler"
        )


def auto_weights_microbench(
    population: int = 32, delay_s: float = 0.03, generations: int = 6
) -> None:
    """Self-tuning dispatch weights over a heterogeneous 2-host pool.

    Scatters ``generations`` population-``population`` batches over a
    pool whose first host sleeps ``delay_s`` per design point, with
    ``auto_weights=True`` (observed service rates blended into the
    dispatch weights after every batch). The first batch splits evenly
    — the pool has no measurements yet — but once the speed gap is
    observed, the slow host's effective weight must drop below the
    fast host's (never below the starvation floor) and its share of
    the scattered points must fall visibly behind: over the whole run
    the slow host must answer less than half as many points as the
    fast one. Raises on any violation — this is the CI gate for
    heterogeneous fleets actually rebalancing.
    """
    import functools

    import numpy as np

    import repro
    from repro.service import EvaluationService
    from repro.sweeps.hostpool import HostPool

    env = repro.make("DRAMGym-v0")
    rng = np.random.default_rng(0)
    batches = [
        [env.action_space.sample(rng) for _ in range(population)]
        for _ in range(generations)
    ]
    env.close()

    slow = EvaluationService()
    slow.register("DRAMGym-v0", functools.partial(_slow_dram_env, delay_s))
    fast = EvaluationService()
    fast.register("DRAMGym-v0", functools.partial(repro.make, "DRAMGym-v0"))
    slow.start()
    fast.start()
    try:
        pool = HostPool(
            [slow.url, fast.url], timeout_s=60.0, retries=0,
            auto_weights=True, auto_weights_interval_s=0.0,
        )
        for batch in batches:
            pool.evaluate_batch_scatter("DRAMGym-v0", batch)
        slow_evals, fast_evals = slow.evaluations, fast.evaluations
        slow_url, fast_url = slow.url, fast.url
    finally:
        slow.stop()
        fast.stop()

    eff = pool.effective_weights_by_host
    print(
        f"auto-weights microbench ({generations} x {population} points, "
        f"one host {delay_s * 1e3:.0f}ms/point slower): slow host answered "
        f"{slow_evals}, fast host {fast_evals} "
        f"(effective weights {eff[slow_url]:.2f} vs {eff[fast_url]:.2f}, "
        f"{pool.auto_weight_updates} weight refresh(es))"
    )
    if pool.auto_weight_updates < 1:
        raise RuntimeError("auto-weights never refreshed from healthz")
    if not eff[slow_url] < eff[fast_url]:
        raise RuntimeError(
            f"slow host's effective weight ({eff[slow_url]:.2f}) did not "
            f"drop below the fast host's ({eff[fast_url]:.2f})"
        )
    if eff[slow_url] <= 0:
        raise RuntimeError("starvation floor violated: slow host weight <= 0")
    if slow_evals * 2 >= fast_evals:
        raise RuntimeError(
            f"traffic never rebalanced: slow host answered {slow_evals} of "
            f"{slow_evals + fast_evals} points (fast host {fast_evals})"
        )


def main() -> int:
    workdir = Path(mkdtemp(prefix="archgym-service-check-"))
    service_export = workdir / "service.json"
    clean_export = workdir / "clean.json"

    # 1. launch the server on a free port
    server = spawn_server("DRAMGym-v0")
    try:
        url = wait_for_url(server)
        print(f"server healthy at {url}")

        # 2. the same sweep, through the service
        subprocess.run(
            cli(*SWEEP_ARGS, "--service-url", url,
                "--export", str(service_export)),
            env=check_env(), cwd=REPO_ROOT, check=True,
            stdout=subprocess.DEVNULL, timeout=600,
        )
        evaluations = healthz(url)["evaluations"]
        if evaluations <= 0:
            print("FAIL: server reports zero evaluations after the sweep")
            return 1
        print(f"service sweep done ({evaluations} server-side evaluations)")

        # 3. batched + keep-alive vs per-point microbenchmark
        _microbench(url)
    finally:
        server.terminate()
        server.wait(timeout=30)

    # 3b. streaming dispatch must beat the barrier when one host straggles
    straggler_microbench()

    # 3c. observed-rate weights must shift load off a slow host
    auto_weights_microbench()

    # 4. in-process reference run
    subprocess.run(
        cli(*SWEEP_ARGS, "--export", str(clean_export)),
        env=check_env(), cwd=REPO_ROOT, check=True, stdout=subprocess.DEVNULL,
        timeout=600,
    )

    # 5./6. diff (remote participation already asserted during load)
    remote = normalized_rows(service_export, expect_remote=True)
    clean = normalized_rows(clean_export, expect_remote=False)
    if not diff_reports(remote, clean, "service"):
        return 1
    print("OK: service-backed report is identical to the in-process run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
