"""Tests for multi-host sweep scheduling (`repro.sweeps.HostPool`).

Five batteries:

1. **Scheduling** — round-robin dispatch (a serial caller spreads
   over the fleet) and per-host accounting.
2. **Fault injection** — a host killed mid-sweep fails over with no
   lost or duplicated trials; every host dead surfaces a
   :class:`ServiceError` naming the trial; a host returning torn batch
   bodies is retried, then quarantined; a restarted host is revived.
3. **Parity** — the acceptance battery: one fixed-seed DRAM sweep run
   serial in-process (on the point-at-a-time reference driver in
   ``tests/serial_reference.py``), with ``workers=4``, against a single
   service, and over a 2-host pool produces byte-identical reports,
   datasets, and shard artifacts.
4. **Generation parity** — the generation-native battery: a GA+ACO
   sweep run serial (the reference driver again), over a weighted
   2-host pool, and in ``pipeline`` mode (streaming dispatch with work
   stealing) both in-process and over the pool produces byte-identical
   reports, datasets, and shard artifacts, with the weight-2 host
   carrying the larger share of the scattered generations.
5. **Transport teardown** — the keep-alive leak regression: client,
   pool, and cached-backend teardown reclaim every persistent socket
   (including exited dispatch threads') and every scatter worker, and
   repeated scatters reuse one socket per host.

The replicated shared-cache tier rides along on the same pool: a
generation costs it one bulk lookup plus one bulk write per replica (a
point-by-point ``env.step``, the same per miss, with one
``/evaluate_batch``), a hung cache primary costs one timeout per sweep,
the anti-entropy backfill writes each listed page with one bulk
request, and trial teardown leaves no cache socket open. So does the
``timeloop-pool`` benchmark's setting: a GA+ACO TimeloopGym sweep over
two hosts with the server-backed shared cache, cold and warm, matches
the serial reference once shared hits are folded into misses.
"""

import functools
import gc
import json
import socket
import sys
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import repro
from repro.agents.ga import GAAgent
from repro.cli import RegistryEnvFactory
from repro.core.cache_store import ServerCacheStore
from repro.core.errors import ServiceError, ServiceTransportError
from repro.service import EvaluationService, RemoteBackend, ServiceClient
from repro.sweeps import HostPool, clear_backend_cache, run_lottery_sweep

from serial_reference import serial_sweeps

# Reuse the deterministic service env (module-level, so tasks pickle)
# and the dead-port probe.
from test_service import SvcCountingEnv, _count_requests, _free_port


@pytest.fixture(autouse=True)
def _fresh_backend_cache():
    """Pools are cached per process; tests must not inherit another test's
    quarantine state for a recycled URL."""
    clear_backend_cache()
    yield
    clear_backend_cache()


def _service(env_cls=SvcCountingEnv, port=0):
    svc = EvaluationService(port=port)
    svc.register("SvcCounting-v0", env_cls)
    svc.start()
    return svc


@pytest.fixture()
def two_services():
    a, b = _service(), _service()
    yield a, b
    a.stop()
    b.stop()


class TestBackendCacheForkSafety:
    def test_cache_memoizes_within_one_process(self):
        from repro.sweeps import BackendSpec
        from repro.sweeps.executor import build_backend

        spec = BackendSpec(("http://127.0.0.1:1",))
        first = build_backend(spec)
        assert build_backend(spec) is first

    def test_cache_dropped_on_pid_change(self, monkeypatch):
        """A forked worker inherits the parent's cache and its clients'
        open keep-alive sockets; reusing them would interleave two
        processes' HTTP streams. A PID mismatch must drop the cache."""
        from repro.sweeps import BackendSpec
        from repro.sweeps import executor as executor_module

        spec = BackendSpec(("http://127.0.0.1:1",))
        parent_backend = executor_module.build_backend(spec)
        monkeypatch.setattr(executor_module.os, "getpid", lambda: -12345)
        child_backend = executor_module.build_backend(spec)
        assert child_backend is not parent_backend

    def test_serial_then_forked_sweep_against_one_service(self, two_services):
        """The real fork path: a serial remote sweep primes the parent's
        backend cache (and opens a keep-alive socket), then a workers=2
        sweep against the same URL forks from that state — results must
        stay bit-identical, not cross-wired."""
        a, _ = two_services
        kw = dict(agents=("rw",), n_trials=2, n_samples=10, seed=4)
        serial = run_lottery_sweep(
            SvcCountingEnv, workers=1, service_url=a.url, **kw
        )
        forked = run_lottery_sweep(
            SvcCountingEnv, workers=2, service_url=a.url, **kw
        )
        assert _normalized(serial) == _normalized(forked)
        assert forked.remote_evals > 0


class TestHostPoolScheduling:
    def test_urls_deduped_order_kept(self):
        pool = HostPool(
            ["http://h1:1", "http://h2:1", "http://h1:1"], timeout_s=1.0
        )
        assert pool.urls == ["http://h1:1", "http://h2:1"]

    def test_url_spellings_of_one_server_collapse(self):
        """'http://h:1' and 'http://h:1/' are one server: two _Host
        entries for it would split quarantine state and double its
        dispatch share."""
        pool = HostPool(["http://h1:1", "http://h1:1/"], timeout_s=1.0)
        assert pool.urls == ["http://h1:1"]

    def test_single_string_is_one_host_pool(self):
        assert HostPool("http://h1:1", timeout_s=1.0).urls == ["http://h1:1"]

    def test_no_urls_rejected(self):
        with pytest.raises(ServiceError, match="at least one"):
            HostPool([])

    def test_serial_calls_spread_round_robin(self, two_services, closing):
        a, b = two_services
        pool = closing(HostPool([a.url, b.url], timeout_s=10.0, retries=0))
        for i in range(8):
            pool.evaluate("SvcCounting-v0", {"x": i % 8, "m": "a"})
        assert a.evaluations == 4 and b.evaluations == 4
        assert pool.evals_by_host == {a.url: 4, b.url: 4}

    def test_last_host_tracks_the_answering_host(self, two_services, closing):
        a, b = two_services
        pool = closing(HostPool([a.url, b.url], timeout_s=10.0, retries=0))
        pool.evaluate("SvcCounting-v0", {"x": 1, "m": "a"})
        first = pool.last_host
        pool.evaluate("SvcCounting-v0", {"x": 2, "m": "a"})
        assert {first, pool.last_host} == {a.url, b.url}


class TestHostPoolFailover:
    def test_dead_host_quarantined_call_fails_over(self, two_services, closing):
        a, b = two_services
        url_a = a.url
        pool = closing(HostPool([url_a, b.url], timeout_s=1.0, retries=0, backoff_s=0.01))
        a.stop()
        for i in range(4):  # round-robin would hit a twice; both go b
            pool.evaluate("SvcCounting-v0", {"x": i, "m": "a"})
        assert b.evaluations == 4
        assert pool.quarantined_urls == [url_a]

    def test_all_hosts_dead_raises_with_inventory(self):
        urls = [f"http://127.0.0.1:{_free_port()}" for _ in range(2)]
        pool = HostPool(urls, timeout_s=0.5, retries=0, backoff_s=0.01)
        with pytest.raises(ServiceTransportError) as excinfo:
            pool.evaluate("SvcCounting-v0", {"x": 1, "m": "a"})
        message = str(excinfo.value)
        assert "all 2 evaluation host(s) failed" in message
        for url in urls:
            assert url in message

    def test_server_produced_error_propagates_without_quarantine(
        self, two_services, closing
    ):
        a, b = two_services
        pool = closing(HostPool([a.url, b.url], timeout_s=10.0, retries=0))
        with pytest.raises(ServiceError, match="unknown environment") as excinfo:
            pool.evaluate("Nope-v0", {"x": 1})
        assert not isinstance(excinfo.value, ServiceTransportError)
        assert pool.quarantined_urls == []  # deterministic failure != death

    def test_quarantined_host_rejoins_after_revive_period(self, two_services, closing):
        """One transient failure must not cost a host the whole sweep:
        after revive_after_s the pool re-probes its healthz and puts it
        back in rotation — even while other hosts are still alive."""
        a, b = two_services
        url_a = a.url
        port_a = a.port
        pool = closing(HostPool(
            [url_a, b.url], timeout_s=1.0, retries=0, backoff_s=0.01,
            revive_after_s=0.05,
        ))
        a.stop()
        for i in range(4):
            pool.evaluate("SvcCounting-v0", {"x": i, "m": "a"})
        assert pool.quarantined_urls == [url_a]
        restarted = _service(port=port_a)
        try:
            time.sleep(0.1)  # let the rest period elapse
            before = restarted.evaluations
            for i in range(4):
                pool.evaluate("SvcCounting-v0", {"x": i, "m": "a"})
            assert pool.quarantined_urls == []
            assert restarted.evaluations > before  # back in rotation
        finally:
            restarted.stop()

    def test_failed_probe_restarts_the_revival_clock(self, two_services, closing):
        a, b = two_services
        url_a = a.url
        pool = closing(HostPool(
            [url_a, b.url], timeout_s=1.0, retries=0, backoff_s=0.01,
            revive_after_s=0.05,
        ))
        a.stop()
        pool.evaluate("SvcCounting-v0", {"x": 1, "m": "a"})
        assert pool.quarantined_urls == [url_a]
        time.sleep(0.1)
        stamp_before = pool._hosts[0].quarantined_at
        pool.evaluate("SvcCounting-v0", {"x": 2, "m": "a"})  # probe fails
        assert pool.quarantined_urls == [url_a]  # still dead
        assert pool._hosts[0].quarantined_at > stamp_before  # clock reset

    def test_restarted_host_is_revived_when_all_else_fails(self, closing):
        svc = _service()
        port = svc.port
        pool = closing(HostPool([svc.url], timeout_s=1.0, retries=0, backoff_s=0.01))
        pool.evaluate("SvcCounting-v0", {"x": 1, "m": "a"})
        svc.stop()
        with pytest.raises(ServiceTransportError):
            pool.evaluate("SvcCounting-v0", {"x": 2, "m": "a"})
        assert pool.quarantined_urls == [pool.urls[0]]
        revived = _service(port=port)
        try:
            result = pool.evaluate("SvcCounting-v0", {"x": 2, "m": "a"})
            assert result == SvcCountingEnv().evaluate({"x": 2, "m": "a"})
            assert pool.quarantined_urls == []
        finally:
            revived.stop()


# -- fault-injection battery ------------------------------------------------------


class _TornBatchHandler(BaseHTTPRequestHandler):
    """Answers every request with truncated, unparseable JSON and
    counts how many times it was asked."""

    requests_seen = 0
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def _torn(self):
        type(self).requests_seen += 1
        # Drain the request body so the keep-alive socket stays in sync
        # — this server's responses are corrupt, not its HTTP framing.
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        body = b'{"metrics": [{"cost": 1.'  # truncated mid-float
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_POST = do_PUT = _torn


class TestMultiHostFaultInjection:
    def test_host_killed_mid_sweep_fails_over_no_lost_or_dup_trials(self):
        """Host A dies partway through the sweep (the in-process analog
        of a SIGKILL: listener and live sockets force-closed). The
        sweep must complete on host B with results bit-identical to an
        in-process run — every trial present exactly once."""
        svc_a = EvaluationService()

        class DyingEnv(SvcCountingEnv):
            env_id = "SvcCounting-v0"
            calls = 0

            def evaluate(self, action):
                type(self).calls += 1
                if type(self).calls == 5:
                    threading.Thread(target=svc_a.stop, daemon=True).start()
                    time.sleep(0.2)
                return super().evaluate(action)

        svc_a.register("SvcCounting-v0", DyingEnv)
        url_a = svc_a.start()
        svc_b = _service()
        url_b = svc_b.url
        kw = dict(agents=("rw", "ga"), n_trials=2, n_samples=15, seed=9)
        try:
            baseline = run_lottery_sweep(SvcCountingEnv, **kw)
            multihost = run_lottery_sweep(
                SvcCountingEnv,
                service_url=[url_a, url_b],
                service_timeout_s=5.0, service_retries=1,
                **kw,
            )
        finally:
            svc_a.stop()
            svc_b.stop()
        assert _normalized(multihost) == _normalized(baseline)
        # no lost trials, no duplicated trials
        for agent in kw["agents"]:
            assert len(multihost.results[agent]) == kw["n_trials"]
        # the survivor really carried the post-death load, and the
        # per-host provenance says so
        assert svc_b.evaluations > 0
        by_host = multihost.remote_evals_by_host
        assert by_host.get(url_b, 0) > 0
        assert sum(by_host.values()) == multihost.remote_evals

    def test_all_hosts_dead_surfaces_service_error_naming_trial(self):
        urls = [f"http://127.0.0.1:{_free_port()}" for _ in range(2)]
        with pytest.raises(ServiceError, match=r"trial rw/0"):
            run_lottery_sweep(
                SvcCountingEnv,
                agents=("rw",), n_trials=2, n_samples=10, seed=1,
                service_url=urls,
                service_timeout_s=0.5, service_retries=0,
            )

    def test_torn_batch_bodies_retried_then_quarantined(self, closing):
        """A host answering /evaluate_batch with torn JSON gets the
        client's full retry allowance, then the pool quarantines it and
        the batch completes on the healthy host."""
        _TornBatchHandler.requests_seen = 0
        httpd = ThreadingHTTPServer(("127.0.0.1", 0), _TornBatchHandler)
        httpd.daemon_threads = True
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        torn_url = f"http://127.0.0.1:{httpd.server_address[1]}"
        good = _service()
        try:
            pool = closing(HostPool(
                [torn_url, good.url], timeout_s=2.0, retries=1, backoff_s=0.01
            ))
            actions = [{"x": i, "m": "a"} for i in range(4)]
            batched = pool.evaluate_batch("SvcCounting-v0", actions)
            env = SvcCountingEnv()
            assert batched == [env.evaluate(a) for a in actions]
            # retried (retries=1 -> 2 attempts) before giving up on it
            assert _TornBatchHandler.requests_seen == 2
            assert pool.quarantined_urls == [torn_url]
            # later batches go straight to the healthy host
            pool.evaluate_batch("SvcCounting-v0", actions)
            assert _TornBatchHandler.requests_seen == 2
        finally:
            httpd.shutdown()
            httpd.server_close()
            good.stop()


class TestCachePrimaryFailover:
    """The tentpole scenario: the host carrying the *shared cache
    primary* dies mid-sweep. With write-through replication the
    surviving replica answers every cache read — byte-identical
    reports, the same cross-trial hit count, and zero extra
    simulator invocations."""

    KW = dict(agents=("rw", "ga"), n_trials=2, n_samples=15, seed=9)

    def _run(self, urls):
        return run_lottery_sweep(
            SvcCountingEnv,
            service_url=list(urls),
            shared_cache=True,
            service_timeout_s=5.0, service_retries=1,
            **self.KW,
        )

    def test_hung_primary_costs_one_timeout_per_sweep(self):
        """A cache primary that accepts connections and never answers
        is found dead once per sweep, not once per trial: the shared
        tier rides the trial's pool, whose quarantine outlives the
        trial. (Each trial used to build its own cache clients and
        wait out the timeout again: 5 connections in 4 trials.)"""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(16)
        listener.settimeout(0.05)
        held, stop = [], threading.Event()

        def hold_connections():
            while not stop.is_set():
                try:
                    held.append(listener.accept()[0])
                except OSError:  # the accept timeout: look at stop
                    pass

        holder = threading.Thread(target=hold_connections, daemon=True)
        holder.start()
        live = _service()
        try:
            report = run_lottery_sweep(
                SvcCountingEnv,
                service_url=[
                    f"http://127.0.0.1:{listener.getsockname()[1]}", live.url,
                ],
                shared_cache=True, service_timeout_s=0.5, service_retries=0,
                agents=("ga",), n_trials=4, n_samples=12, seed=3,
            )
        finally:
            stop.set()
            holder.join()
            for conn in held:
                conn.close()
            listener.close()
            live.stop()
            clear_backend_cache()
        assert len(held) == 1
        assert report.remote_evals == live.evaluations > 0

    def test_cache_primary_killed_mid_sweep_no_resimulation(self):
        # Clean reference: same 2-host replicated-cache sweep, nobody
        # dies.
        svc_a, svc_b = _service(), _service()
        try:
            clean = self._run([svc_a.url, svc_b.url])
        finally:
            svc_a.stop()
            svc_b.stop()
        assert clean.shared_cache_hits > 0  # the cache really engaged
        clear_backend_cache()

        # Dying run: host A — first URL, so both the dispatch pool's
        # member and the shared-cache *primary* — is killed partway in.
        svc_a = EvaluationService()

        class DyingEnv(SvcCountingEnv):
            env_id = "SvcCounting-v0"
            calls = 0

            def evaluate(self, action):
                type(self).calls += 1
                if type(self).calls == 5:
                    threading.Thread(target=svc_a.stop, daemon=True).start()
                    time.sleep(0.2)
                return super().evaluate(action)

        svc_a.register("SvcCounting-v0", DyingEnv)
        url_a = svc_a.start()
        svc_b = _service()
        try:
            dying = self._run([url_a, svc_b.url])
        finally:
            svc_a.stop()
            svc_b.stop()

        assert _normalized(dying) == _normalized(clean)
        # No cache loss: every cross-trial hit the clean run got, the
        # dying run got too — and nothing had to be re-simulated.
        assert dying.shared_cache_hits == clean.shared_cache_hits
        assert dying.remote_evals == clean.remote_evals


class TestBulkCacheTraffic:
    """A generation's shared-tier traffic over a 2-host pool: one bulk
    lookup, then one bulk write per replica — not a lookup per point
    and a write per replica per miss."""

    ENV = "MaestroGym-v0"

    @pytest.fixture()
    def hosts(self):
        hosts = []
        for _ in range(2):
            svc = EvaluationService()
            svc.register(self.ENV, functools.partial(repro.make, self.ENV))
            svc.start()
            hosts.append(svc)
        yield hosts
        for svc in hosts:
            svc.stop()

    def _step_generation(self, urls, sent):
        """One 64-point GA generation through ``step_batch`` from a
        fresh env and store handle, the store on the backend's pool:
        (outcome, env, /cache requests counted in ``sent``)."""
        before = sent["POST", "/cache"] + sent["PUT", "/cache"]
        env = repro.make(self.ENV)
        env.enable_cache()
        backend = RemoteBackend(urls, timeout_s=10.0, retries=0)
        env.attach_backend(backend)
        env.attach_shared_cache(ServerCacheStore(backend.pool))
        env.reset(seed=0)
        generation = GAAgent(
            env.action_space, seed=0, population_size=64
        ).propose_batch()
        try:
            results = env.step_batch(generation)
        finally:
            env.detach_backend().close()
        outcome = [(r[1], r[4]["metrics"]) for r in results]
        requests = sent["POST", "/cache"] + sent["PUT", "/cache"] - before
        return outcome, env, requests

    def test_generation_costs_one_lookup_and_one_write_per_replica(
        self, hosts, monkeypatch
    ):
        sent = _count_requests(monkeypatch)
        urls = [svc.url for svc in hosts]
        cold, cold_env, cold_requests = self._step_generation(urls, sent)
        assert cold_env.stats.cache_misses == 64
        assert cold_requests == 3  # 1 lookup + 2 replica writes
        assert [svc.cache_size() for svc in hosts] == [64, 64]
        evaluations = sum(svc.evaluations for svc in hosts)
        assert evaluations == 64

        warm, warm_env, warm_requests = self._step_generation(urls, sent)
        assert warm_requests == 1  # the lookup answers every point
        assert sum(svc.evaluations for svc in hosts) == evaluations
        assert warm_env.stats.shared_cache_hits == 64
        assert warm_env.stats.cache_misses == 0
        assert warm == cold

    def test_point_by_point_steps_ride_the_bulk_routes(
        self, hosts, monkeypatch
    ):
        """``env.step`` is a one-point batch: each miss costs one
        ``/evaluate_batch`` (never ``/evaluate``), one ``POST /cache``
        lookup and one ``PUT /cache`` write per replica."""
        sent = _count_requests(monkeypatch)
        urls = [svc.url for svc in hosts]
        env = repro.make(self.ENV)
        env.enable_cache()
        backend = RemoteBackend(urls, timeout_s=10.0, retries=0)
        env.attach_backend(backend)
        env.attach_shared_cache(ServerCacheStore(backend.pool))
        env.reset(seed=0)
        generation = GAAgent(
            env.action_space, seed=0, population_size=16
        ).propose_batch()
        try:
            for action in generation:
                result = env.step(action)
                if result[2] or result[3]:
                    env.reset()
        finally:
            env.detach_backend().close()

        misses = env.stats.cache_misses
        assert misses > 0
        assert misses + env.stats.cache_hits == len(generation)
        assert env.stats.remote_evals == misses
        assert sum(svc.batch_requests for svc in hosts) == misses
        assert sum(svc.evaluations for svc in hosts) == misses
        assert sent["POST", "/evaluate"] == 0
        assert sent["POST", "/evaluate_batch"] == misses
        assert sent["POST", "/cache"] == misses
        assert sent["PUT", "/cache"] == 2 * misses
        assert [svc.cache_size() for svc in hosts] == [misses, misses]


# -- anti-entropy backfill --------------------------------------------------------


class TestCacheBackfill:
    """A revived host rejoins with an *empty* (or stale) memo cache;
    the pool must backfill it from a live replica before putting it
    back in rotation, so the fleet's cache coverage survives restarts."""

    def _seed(self, closing, url, n):
        client = closing(ServiceClient(url, timeout_s=5.0, retries=0))
        entries = {f"pt-{i:03d}": {"cost": float(i)} for i in range(n)}
        client.cache_put_many(list(entries.items()))
        return client, entries

    def test_check_health_backfills_revived_host(self, two_services, closing):
        """450 donor entries are three listing pages: the host revived
        by a dispatch receives exactly one bulk write per page, and
        every entry."""
        a, b = two_services
        url_b, port_b = b.url, b.port
        client_a, seeded = self._seed(closing, a.url, 450)
        pool = closing(HostPool(
            [a.url, url_b], timeout_s=1.0, retries=0, backoff_s=0.01,
            revive_after_s=0.05,
        ))
        b.stop()
        for i in range(2):  # quarantine b via failed dispatch
            pool.evaluate("SvcCounting-v0", {"x": i, "m": "a"})
        assert pool.quarantined_urls == [url_b]
        donor_size = client_a.cache_size()
        restarted = _service(port=port_b)  # fresh process, empty cache
        writes = []
        real_put_many = restarted.cache_put_many
        restarted.cache_put_many = lambda entries: (
            writes.append(len(entries)), real_put_many(entries)
        )
        try:
            time.sleep(0.1)  # let the rest period elapse
            pool.evaluate("SvcCounting-v0", {"x": 2, "m": "a"})
            client_b = closing(ServiceClient(url_b, timeout_s=5.0, retries=0))
            assert client_b.healthz()["status"] == "ok"
            assert pool.quarantined_urls == []
            assert pool.cache_backfills == donor_size
            assert writes == [200, 200, 50]
            entries, total = client_b.cache_list(limit=1000)
            assert total == donor_size
            got = dict(entries)
            for key_str, metrics in seeded.items():
                assert got[key_str] == metrics
        finally:
            restarted.stop()

    def test_timed_revival_backfills_before_rejoining(self, two_services, closing):
        """The production path: the piggybacked revival probe (not an
        explicit health check) restores the host — backfill must ride
        along there too."""
        a, b = two_services
        url_b, port_b = b.url, b.port
        client_a, _ = self._seed(closing, a.url, 3)
        pool = closing(HostPool(
            [a.url, url_b], timeout_s=1.0, retries=0, backoff_s=0.01,
            revive_after_s=0.05,
        ))
        b.stop()
        for i in range(2):  # round-robin: b's turn comes within two
            pool.evaluate("SvcCounting-v0", {"x": i, "m": "a"})
        assert pool.quarantined_urls == [url_b]
        donor_size = client_a.cache_size()
        restarted = _service(port=port_b)
        try:
            time.sleep(0.1)  # let the rest period elapse
            pool.evaluate("SvcCounting-v0", {"x": 2, "m": "a"})
            assert pool.quarantined_urls == []
            assert pool.cache_backfills == donor_size
            assert restarted.cache_size() == donor_size
        finally:
            restarted.stop()

    def test_revival_and_backfill_ride_an_inflight_scatter(
        self, two_services, closing
    ):
        """The hardest interleaving: the timed revival probe fires at
        the entry of a scatter dispatch, so the anti-entropy backfill
        runs while that same scatter is about to fan out — the revived
        host must rejoin with a complete cache *and* serve part of the
        very batch whose dispatch revived it."""
        a, b = two_services
        url_b, port_b = b.url, b.port
        client_a, seeded = self._seed(closing, a.url, 4)
        pool = HostPool(
            [a.url, url_b], timeout_s=5.0, retries=0, backoff_s=0.01,
            revive_after_s=0.05,
        )
        b.stop()
        actions = [{"x": i % 8, "m": "a"} for i in range(8)]
        # b's chunk fails over to a; b lands in quarantine.
        metrics, hosts = pool.evaluate_batch_scatter(
            "SvcCounting-v0", actions
        )
        assert pool.quarantined_urls == [url_b]
        assert set(hosts) == {a.url}
        donor_size = client_a.cache_size()
        restarted = _service(port=port_b)
        try:
            time.sleep(0.1)  # let the rest period elapse
            metrics, hosts = pool.evaluate_batch_scatter(
                "SvcCounting-v0", actions
            )
            env = SvcCountingEnv()
            assert metrics == [env.evaluate(x) for x in actions]
            assert pool.quarantined_urls == []
            assert pool.cache_backfills == donor_size
            # The revived host answered part of the scatter that
            # triggered its own revival — no warm-up round needed.
            assert url_b in hosts and a.url in hosts
            entries, total = closing(ServiceClient(
                url_b, timeout_s=5.0, retries=0
            )).cache_list(limit=1000)
            got = dict(entries)
            for key_str, value in seeded.items():
                assert got[key_str] == value
        finally:
            restarted.stop()
            pool.close()


# -- transport teardown -----------------------------------------------------------


class TestTransportTeardown:
    """The keep-alive leak regression: every persistent socket a trial
    opened must be reclaimed at teardown — including sockets owned by
    dispatch threads that have since exited, which no per-thread close
    could reach."""

    def test_client_close_reclaims_other_threads_connections(
        self, two_services
    ):
        a, _ = two_services
        client = ServiceClient(a.url, timeout_s=5.0, retries=0)
        threads = [
            threading.Thread(target=client.healthz) for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Three dispatch threads -> three keep-alive sockets, all of
        # them unreachable per-thread now the threads have exited but
        # still registered with the client.
        assert client.connections_opened == 3
        assert len(client._all_conns) == 3
        client.close()
        assert client._all_conns == set()
        # Close is resource hygiene, not a lifecycle end: the next
        # request transparently opens (and counts) a fresh socket.
        client.healthz()
        assert client.connections_opened == 4
        client.close()

    def test_pool_close_reclaims_every_host_transport(self, two_services):
        a, b = two_services
        # Pools other tests dropped without close() may still be
        # retiring their workers; only this pool's threads count.
        before = set(threading.enumerate())
        pool = HostPool([a.url, b.url], timeout_s=5.0, retries=0)
        actions = [{"x": i % 8, "m": "a"} for i in range(8)]
        pool.evaluate_batch_scatter("SvcCounting-v0", actions)
        pool.close()
        for host in pool._hosts:
            assert host.client._all_conns == set()
            assert host.probe_client._all_conns == set()
            assert host.scatter_worker is None
        # No dispatch machinery left running either: close() joins
        # every host's scatter worker.
        lingering = [
            t.name
            for t in set(threading.enumerate()) - before
            if t.name.startswith("hostpool-")
        ]
        assert lingering == []
        # The pool stays usable; workers and transports reopen lazily.
        pool.evaluate_batch_scatter("SvcCounting-v0", actions)
        pool.close()

    def test_repeated_scatters_reuse_one_socket_per_host(self, two_services):
        """Each host's chunks run on one persistent worker thread, and
        the client keeps one keep-alive socket per thread — so ten
        generations cost each host one socket, not ten."""
        a, b = two_services
        pool = HostPool([a.url, b.url], timeout_s=5.0, retries=0)
        actions = [{"x": i % 8, "m": "a"} for i in range(8)]
        try:
            for _ in range(10):
                _, hosts = pool.evaluate_batch_scatter(
                    "SvcCounting-v0", actions
                )
                assert set(hosts) == {a.url, b.url}
            for host in pool._hosts:
                assert host.client.connections_opened == 1
                assert host.client.requests_sent == 10
        finally:
            pool.close()

    def test_concurrent_scatters_start_one_worker_per_host(
        self, two_services
    ):
        """Scatters from several driver threads at once: each host's
        worker is started exactly once, so the hosts still see one
        socket each, and every caller gets its own correct result."""
        a, b = two_services
        pool = HostPool([a.url, b.url], timeout_s=5.0, retries=0)
        actions = [{"x": i % 8, "m": "a"} for i in range(8)]
        env = SvcCountingEnv()
        expected = [env.evaluate(x) for x in actions]
        results = []

        def drive():
            results.append(
                pool.evaluate_batch_scatter("SvcCounting-v0", actions)[0]
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=drive) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        assert results == [expected] * 6
        for host in pool._hosts:
            assert host.client.connections_opened == 1

    def test_trial_teardown_closes_cached_backend_sockets(
        self, two_services
    ):
        """The regression this battery exists for: a serial remote
        sweep memoizes its backend per-process, and before the fix the
        backend's clients kept their keep-alive sockets open forever.
        ``execute_trials`` must close the transports at teardown while
        the backend object — with its quarantine and counter state —
        stays cached for the next trial batch."""
        from repro.sweeps.executor import _BACKEND_CACHE

        a, b = two_services
        run_lottery_sweep(
            SvcCountingEnv, workers=1,
            service_url=[a.url, b.url],
            agents=("rw",), n_trials=1, n_samples=6, seed=3,
        )
        assert _BACKEND_CACHE  # the sweep memoized its backend
        for backend in _BACKEND_CACHE.values():
            pool = backend.pool
            opened = sum(
                h.client.connections_opened + h.probe_client.connections_opened
                for h in pool._hosts
            )
            assert opened > 0  # the sweep really held keep-alive sockets
            for host in pool._hosts:
                assert host.client._all_conns == set()
                assert host.probe_client._all_conns == set()


    def test_trial_teardown_closes_shared_cache_sockets(self, two_services):
        """A trial's server-backed shared cache rides the backend's
        pool, so the teardown that closes the pool closes the cache
        traffic's sockets too: nothing left for the garbage collector
        to find open."""
        a, b = two_services
        gc.collect()  # earlier tests' garbage is not this test's
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            report = run_lottery_sweep(
                SvcCountingEnv, workers=1,
                service_url=[a.url, b.url], shared_cache=True,
                agents=("ga",), n_trials=2, n_samples=12, seed=3,
            )
            gc.collect()
        assert report.shared_cache_hits > 0  # the shared tier engaged
        # Only sockets to this test's hosts: an earlier test's pool may
        # drop its last reference (an exiting worker thread) meanwhile.
        peers = {f"raddr=('127.0.0.1', {svc.port})" for svc in (a, b)}
        leaks = [
            str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning)
            and any(peer in str(w.message) for peer in peers)
        ]
        assert leaks == []


# -- self-tuning dispatch weights -------------------------------------------------


class _SlowCountingEnv(SvcCountingEnv):
    """Deterministic metrics, but each evaluation costs real wall
    time — the heterogeneous-fleet stand-in."""

    def evaluate(self, action):
        time.sleep(0.03)
        return super().evaluate(action)


class TestAutoWeights:
    def test_negative_interval_rejected(self):
        with pytest.raises(ServiceError, match="auto_weights_interval_s"):
            HostPool(
                ["http://h1:1"], timeout_s=1.0,
                auto_weights=True, auto_weights_interval_s=-1.0,
            )

    def test_slow_host_weight_tuned_below_fast_host(self, closing):
        slow = EvaluationService()
        slow.register("SvcCounting-v0", _SlowCountingEnv)
        slow.start()
        fast = _service()
        try:
            pool = closing(HostPool(
                [slow.url, fast.url], timeout_s=10.0, retries=0,
                auto_weights=True, auto_weights_interval_s=0.0,
            ))
            # Static weights are untouched; effective ones start equal.
            assert pool.weights_by_host == {slow.url: 1.0, fast.url: 1.0}
            assert pool.effective_weights_by_host == pool.weights_by_host
            for i in range(16):
                pool.evaluate("SvcCounting-v0", {"x": i, "m": "a"})
            assert pool.auto_weight_updates > 0
            eff = pool.effective_weights_by_host
            # The fastest host anchors the scale at its static weight;
            # the slow one is scaled down but floored, never starved.
            assert eff[fast.url] == pytest.approx(1.0)
            assert 0.1 <= eff[slow.url] < eff[fast.url]
            # The declared capacity weights never move.
            assert pool.weights_by_host == {slow.url: 1.0, fast.url: 1.0}
        finally:
            slow.stop()
            fast.stop()

    def test_unmeasured_host_keeps_static_weight(self, two_services, closing):
        """A cold host (no observed evaluations yet) must keep its
        declared weight — tuning only ever acts on evidence."""
        a, b = two_services
        pool = closing(HostPool(
            [a.url, b.url], timeout_s=10.0, retries=0,
            auto_weights=True, auto_weights_interval_s=0.0,
        ))
        pool._mark(pool._hosts[0], alive=False, error="kept cold")
        for i in range(6):  # a is quarantined: every call goes to b
            pool.evaluate("SvcCounting-v0", {"x": i, "m": "a"})
        eff = pool.effective_weights_by_host
        assert eff[a.url] == pytest.approx(1.0)

    def test_auto_weights_off_by_default(self, two_services, closing):
        a, b = two_services
        pool = closing(HostPool([a.url, b.url], timeout_s=10.0, retries=0))
        for i in range(6):
            pool.evaluate("SvcCounting-v0", {"x": i, "m": "a"})
        assert pool.auto_weight_updates == 0
        assert pool.effective_weights_by_host == pool.weights_by_host


# -- the parity battery -----------------------------------------------------------


def _normalized(report):
    """Trial records with the legitimately execution-dependent fields
    (timing; where the simulator ran) zeroed."""
    rows = []
    for agent in sorted(report.results):
        for res in report.results[agent]:
            rec = res.to_record()
            rec["wall_time_s"] = 0.0
            rec["sim_time_s"] = 0.0
            rec["remote_evals"] = 0
            rec["remote_hosts"] = {}
            rows.append(rec)
    return rows


def _normalized_shard_bytes(path):
    """A shard file's canonical bytes with per-trial timing/transport
    fields zeroed — everything else (actions, metrics, transitions,
    provenance, key order) must match byte-for-byte."""
    record = json.loads(path.read_text())
    record["result"]["wall_time_s"] = 0.0
    record["result"]["sim_time_s"] = 0.0
    record["result"]["remote_evals"] = 0
    record["result"]["remote_hosts"] = {}
    return json.dumps(record, separators=(",", ":")).encode("utf-8")


class TestFourModeParity:
    """The acceptance battery: one fixed-seed DRAM sweep, four
    execution modes, byte-identical reports, datasets, and shards."""

    KW = dict(
        agents=("rw", "ga"), n_trials=2, n_samples=12, seed=7,
        collect_dataset=True,
    )

    @pytest.fixture(scope="class")
    def modes(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("four-mode-parity")
        factory = RegistryEnvFactory("DRAMGym-v0")

        def dram_service():
            import functools

            import repro

            svc = EvaluationService()
            svc.register(
                "DRAMGym-v0", functools.partial(repro.make, "DRAMGym-v0")
            )
            svc.start()
            return svc

        single = dram_service()
        pool_a, pool_b = dram_service(), dram_service()
        pool_urls = (pool_a.url, pool_b.url)
        try:
            with serial_sweeps():
                serial = run_lottery_sweep(
                    factory, workers=1, out_dir=tmp_path / "serial", **self.KW
                )
            reports = {
                "serial": serial,
                "workers4": run_lottery_sweep(
                    factory, workers=4, out_dir=tmp_path / "workers4", **self.KW
                ),
                "service": run_lottery_sweep(
                    factory, service_url=single.url,
                    out_dir=tmp_path / "service", **self.KW
                ),
                "hostpool": run_lottery_sweep(
                    factory, service_url=list(pool_urls),
                    out_dir=tmp_path / "hostpool", **self.KW
                ),
            }
        finally:
            single.stop()
            pool_a.stop()
            pool_b.stop()
        return tmp_path, reports, pool_urls

    def test_reports_bit_identical(self, modes):
        _, reports, _ = modes
        reference = _normalized(reports["serial"])
        for mode in ("workers4", "service", "hostpool"):
            assert _normalized(reports[mode]) == reference, mode

    def test_datasets_byte_identical(self, modes):
        tmp_path, reports, _ = modes
        paths = {}
        for mode, report in reports.items():
            out = tmp_path / f"{mode}.jsonl"
            report.dataset.save_jsonl(out)
            paths[mode] = out.read_bytes()
        assert len(set(paths.values())) == 1

    def test_shard_artifacts_byte_identical(self, modes):
        tmp_path, _, _ = modes
        shard_names = sorted(
            p.name for p in (tmp_path / "serial").glob("trial-*.json")
        )
        assert shard_names  # the durable path really produced shards
        for name in shard_names:
            reference = _normalized_shard_bytes(tmp_path / "serial" / name)
            for mode in ("workers4", "service", "hostpool"):
                assert (
                    _normalized_shard_bytes(tmp_path / mode / name) == reference
                ), f"{mode}/{name}"

    def test_both_pool_hosts_participated(self, modes):
        _, reports, (url_a, url_b) = modes
        by_host = reports["hostpool"].remote_evals_by_host
        assert by_host.get(url_a, 0) > 0
        assert by_host.get(url_b, 0) > 0
        assert sum(by_host.values()) == reports["hostpool"].remote_evals


class TestGenerationParity:
    """The generation-native acceptance battery: one fixed-seed GA+ACO
    DRAM sweep run serial (the point-at-a-time reference driver), over
    a *weighted* 2-host pool (``step_batch`` scattered by weight), and
    pipelined (``step_batch_stream`` — streaming dispatch with work
    stealing) both in-process and over a 2-host pool — byte-identical
    reports, datasets, and shard artifacts."""

    KW = dict(
        agents=("ga", "aco"), n_trials=2, n_samples=20, seed=13,
        collect_dataset=True,
    )

    @pytest.fixture(scope="class")
    def modes(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("generation-parity")
        factory = RegistryEnvFactory("DRAMGym-v0")

        def dram_service():
            import functools

            import repro

            svc = EvaluationService()
            svc.register(
                "DRAMGym-v0", functools.partial(repro.make, "DRAMGym-v0")
            )
            svc.start()
            return svc

        pool_a, pool_b = dram_service(), dram_service()
        pool_urls = (pool_a.url, pool_b.url)
        try:
            with serial_sweeps():
                serial = run_lottery_sweep(
                    factory, workers=1, out_dir=tmp_path / "serial", **self.KW
                )
            reports = {
                "serial": serial,
                "weighted-pool": run_lottery_sweep(
                    factory,
                    service_url=[pool_a.url + "=2", pool_b.url],
                    out_dir=tmp_path / "weighted-pool", **self.KW
                ),
                "pipeline": run_lottery_sweep(
                    factory, pipeline=True,
                    out_dir=tmp_path / "pipeline", **self.KW
                ),
                "pipeline-pool": run_lottery_sweep(
                    factory,
                    service_url=[pool_a.url, pool_b.url],
                    pipeline=True,
                    out_dir=tmp_path / "pipeline-pool", **self.KW
                ),
            }
        finally:
            pool_a.stop()
            pool_b.stop()
        return tmp_path, reports, pool_urls

    def test_reports_bit_identical(self, modes):
        _, reports, _ = modes
        reference = _normalized(reports["serial"])
        for mode in ("weighted-pool", "pipeline", "pipeline-pool"):
            assert _normalized(reports[mode]) == reference, mode

    def test_datasets_byte_identical(self, modes):
        tmp_path, reports, _ = modes
        blobs = {}
        for mode, report in reports.items():
            out = tmp_path / f"{mode}.jsonl"
            report.dataset.save_jsonl(out)
            blobs[mode] = out.read_bytes()
        assert len(set(blobs.values())) == 1

    def test_shard_artifacts_byte_identical(self, modes):
        tmp_path, _, _ = modes
        shard_names = sorted(
            p.name for p in (tmp_path / "serial").glob("trial-*.json")
        )
        assert shard_names
        for name in shard_names:
            reference = _normalized_shard_bytes(tmp_path / "serial" / name)
            for mode in ("weighted-pool", "pipeline", "pipeline-pool"):
                assert (
                    _normalized_shard_bytes(tmp_path / mode / name) == reference
                ), f"{mode}/{name}"

    def test_pool_generations_really_scattered(self, modes):
        """Both hosts answered, per-point provenance accounts for every
        remote evaluation, and the weight-2 host carried the larger
        share of the generations."""
        _, reports, (url_a, url_b) = modes
        by_host = reports["weighted-pool"].remote_evals_by_host
        assert by_host.get(url_a, 0) > 0
        assert by_host.get(url_b, 0) > 0
        assert sum(by_host.values()) == reports["weighted-pool"].remote_evals
        assert by_host[url_a] > by_host[url_b]


class TestTimeloopPoolParity:
    """The ``timeloop-pool`` benchmark's setting at a small sample count:
    a GA+ACO TimeloopGym sweep over two in-process hosts with the
    server-backed shared cache, run cold and then again on the same
    hosts, against the serial in-process reference driver. Whether a
    point is a shared hit or a miss depends on what earlier sweeps
    stored on the hosts, so the two counts are folded into one, as
    ``perfbench/workloads.trial_records`` folds them; every other field
    must match."""

    KW = dict(agents=("ga", "aco"), n_trials=2, n_samples=40, seed=5)

    @pytest.fixture(scope="class")
    def runs(self):
        factory = RegistryEnvFactory("TimeloopGym-v0")
        hosts = []
        for _ in range(2):
            svc = EvaluationService()
            svc.register(
                "TimeloopGym-v0", functools.partial(repro.make, "TimeloopGym-v0")
            )
            svc.start()
            hosts.append(svc)
        try:
            with serial_sweeps():
                serial = run_lottery_sweep(factory, workers=1, **self.KW)
            pool = {}
            for run in ("cold", "warm"):
                before = [svc.evaluations for svc in hosts]
                report = run_lottery_sweep(
                    factory, service_url=[svc.url for svc in hosts],
                    shared_cache=True, **self.KW
                )
                deltas = [svc.evaluations - n for svc, n in zip(hosts, before)]
                pool[run] = (report, deltas)
        finally:
            for svc in hosts:
                svc.stop()
        return serial, pool

    @staticmethod
    def _folded(report):
        rows = _normalized(report)
        for rec in rows:
            rec["cache_misses"] += rec["shared_cache_hits"]
            rec["shared_cache_hits"] = 0
        return rows

    def test_reports_match_serial_reference(self, runs):
        serial, pool = runs
        assert serial.shared_cache_hits == 0
        for run, (report, _) in pool.items():
            assert self._folded(report) == self._folded(serial), run
        # the warm run answers from the hosts' cache, so the fold matters
        assert pool["warm"][0].shared_cache_hits > 0

    def test_hosts_ran_every_miss(self, runs):
        _, pool = runs
        for run, (report, deltas) in pool.items():
            misses = sum(r.cache_misses for rs in report.results.values() for r in rs)
            assert sum(deltas) == misses == report.remote_evals, run
        assert all(n > 0 for n in pool["cold"][1])
