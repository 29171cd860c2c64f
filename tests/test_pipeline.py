"""Tests for streaming pipelined dispatch with work stealing.

Four batteries:

1. **Streaming mechanics** — ``HostPool.evaluate_batch_stream`` yields
   every work unit exactly once, reassembles to the same metrics as
   serial evaluation, delegates tiny batches/lone hosts to the
   whole-batch path, and accounts units/steals/duplicates.
2. **Straggler fault injection** — a deliberately slow host's
   unfinished remainder is work-stolen by the idle fast host (the
   stream finishes without waiting for the straggler), a host whose
   transport dies mid-stream has its unit requeued and the batch
   completes on the survivor, all hosts dead raises a
   :class:`ServiceTransportError` inventory, and server-produced
   errors propagate without quarantine.
3. **Ordered replay** — ``ArchGymEnv.step_batch_stream`` buffers
   chunks that arrive out of order and replays the serial bookkeeping
   in proposal order (byte-identical counters, rewards, and dataset
   rows), while in-order chunks are consumed lazily.
4. **Pipelined driver parity** — ``run_agent(pipeline=True)`` and a
   full ``--pipeline`` sweep over a slow+fast pool stay byte-identical
   to a serial run; no design point is recorded twice.
"""

import threading
import time

import pytest

from repro.core.errors import ServiceError, ServiceTransportError
from repro.service import EvaluationService, RemoteBackend, ServiceClient
from repro.sweeps import HostPool, clear_backend_cache, run_lottery_sweep

from serial_reference import run_agent_serial, serial_sweeps
from test_multihost import _normalized
from test_service import SvcCountingEnv, _free_port


@pytest.fixture(autouse=True)
def _fresh_backend_cache():
    """Pools memoize per-process; tests must not inherit another test's
    quarantine state for a recycled URL."""
    clear_backend_cache()
    yield
    clear_backend_cache()


class SlowSvcCountingEnv(SvcCountingEnv):
    """Same env id, same deterministic metrics, deliberately slow —
    registered on one host of a pool to fault-inject a straggler."""

    env_id = "SvcCounting-v0"
    delay_s = 0.25

    def evaluate(self, action):
        time.sleep(self.delay_s)
        return super().evaluate(action)


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


@pytest.fixture()
def slow_fast_services():
    slow, fast = _service(SlowSvcCountingEnv), _service()
    yield slow, fast
    slow.stop()
    fast.stop()


@pytest.fixture(params=["threaded"])
def dispatch_pool(request):
    """Pool factory that closes every pool it built at teardown. The
    param names the dispatch core (worker threads) in the test ids."""
    pools = []

    def factory(urls, **kw):
        pool = HostPool(urls, **kw)
        pools.append(pool)
        return pool

    yield factory
    for pool in pools:
        pool.close()


def _distinct_actions(n):
    return [{"x": i % 8, "m": "ab"[(i // 8) % 2]} for i in range(n)]


def _reassemble(chunks, n):
    """Flatten ``(start, metrics, host)`` chunks into request order,
    asserting every point is answered exactly once."""
    out = [None] * n
    for start, metrics_list, _ in chunks:
        for offset, metrics in enumerate(metrics_list):
            assert out[start + offset] is None, "point answered twice"
            out[start + offset] = metrics
    assert all(m is not None for m in out), "stream left points unanswered"
    return out


class TestStreamingMechanics:
    def test_stream_matches_serial_each_unit_once(self, two_services, dispatch_pool):
        a, b = two_services
        pool = dispatch_pool([a.url, b.url], timeout_s=10.0, retries=0)
        actions = _distinct_actions(16)
        chunks = list(
            pool.evaluate_batch_stream("SvcCounting-v0", actions, unit_size=2)
        )
        env = SvcCountingEnv()
        assert _reassemble(chunks, 16) == [env.evaluate(x) for x in actions]
        starts = sorted(c[0] for c in chunks)
        assert starts == list(range(0, 16, 2))  # every unit exactly once
        assert pool.stream_units == 8
        assert sum(pool.evals_by_host.values()) == 16  # winners only

    def test_empty_batch_yields_nothing(self, two_services, dispatch_pool):
        a, b = two_services
        pool = dispatch_pool([a.url, b.url], timeout_s=10.0, retries=0)
        assert list(pool.evaluate_batch_stream("SvcCounting-v0", [])) == []
        assert pool.stream_units == 0

    def test_single_host_delegates_to_whole_batch(self, dispatch_pool):
        svc = _service()
        try:
            pool = dispatch_pool([svc.url], timeout_s=10.0, retries=0)
            actions = _distinct_actions(6)
            chunks = list(
                pool.evaluate_batch_stream(
                    "SvcCounting-v0", actions, unit_size=1
                )
            )
            assert len(chunks) == 1 and chunks[0][0] == 0
            assert chunks[0][2] == svc.url
            env = SvcCountingEnv()
            assert chunks[0][1] == [env.evaluate(x) for x in actions]
            assert pool.stream_units == 0  # delegated, not streamed
        finally:
            svc.stop()

    def test_tiny_batch_delegates_to_whole_batch(self, two_services, dispatch_pool):
        a, b = two_services
        pool = dispatch_pool([a.url, b.url], timeout_s=10.0, retries=0)
        chunks = list(
            pool.evaluate_batch_stream(
                "SvcCounting-v0", [{"x": 1, "m": "a"}]
            )
        )
        assert len(chunks) == 1
        assert pool.stream_units == 0

    def test_bad_unit_size_rejected(self, two_services, dispatch_pool):
        a, b = two_services
        pool = dispatch_pool([a.url, b.url], timeout_s=10.0, retries=0)
        with pytest.raises(ServiceError, match="unit_size"):
            list(
                pool.evaluate_batch_stream(
                    "SvcCounting-v0", _distinct_actions(4), unit_size=0
                )
            )

    def test_remote_backend_single_client_falls_back(self):
        svc = _service()
        try:
            backend = RemoteBackend(
                ServiceClient(svc.url, timeout_s=10.0, retries=0)
            )
            actions = _distinct_actions(5)
            chunks = list(
                backend.evaluate_batch_stream("SvcCounting-v0", actions)
            )
            assert len(chunks) == 1 and chunks[0][0] == 0
            env = SvcCountingEnv()
            assert chunks[0][1] == [env.evaluate(x) for x in actions]
            assert backend.last_hosts == [svc.url] * 5
        finally:
            svc.stop()


class TestStragglerFaultInjection:
    def test_idle_host_steals_the_stragglers_remainder(
        self, slow_fast_services, dispatch_pool
    ):
        """The fast host drains the queue, then re-dispatches the slow
        host's in-flight unit instead of idling behind it — and the
        stream finishes without waiting for the straggler's request."""
        slow, fast = slow_fast_services
        pool = dispatch_pool([slow.url, fast.url], timeout_s=30.0, retries=0)
        actions = _distinct_actions(16)
        start = time.perf_counter()
        chunks = list(
            pool.evaluate_batch_stream("SvcCounting-v0", actions, unit_size=2)
        )
        elapsed = time.perf_counter() - start
        env = SvcCountingEnv()
        assert _reassemble(chunks, 16) == [env.evaluate(x) for x in actions]
        assert pool.stream_steals >= 1  # the remainder was re-dispatched
        # The barrier path would wait for the slow host to answer its
        # whole weighted share (8 points x 0.25s); stealing caps the
        # exposure at roughly one unit of straggler latency.
        assert elapsed < 8 * SlowSvcCountingEnv.delay_s
        # Winners account for exactly one evaluation per design point,
        # no matter how many duplicates the straggler eventually answers.
        assert sum(pool.evals_by_host.values()) == 16

    def test_host_death_mid_stream_requeues_its_unit(self, dispatch_pool):
        """A host whose transport dies mid-stream is quarantined and its
        unfinished unit completes on the survivor — every point answered
        exactly once, like the scatter failover battery."""
        svc_a = EvaluationService()

        class DyingEnv(SvcCountingEnv):
            env_id = "SvcCounting-v0"
            calls = 0

            def evaluate(self, action):
                type(self).calls += 1
                if type(self).calls == 2:
                    threading.Thread(target=svc_a.stop, daemon=True).start()
                    time.sleep(0.2)
                return super().evaluate(action)

        svc_a.register("SvcCounting-v0", DyingEnv)
        url_a = svc_a.start()
        svc_b = _service()
        try:
            pool = dispatch_pool(
                [url_a, svc_b.url], timeout_s=5.0, retries=0, backoff_s=0.01
            )
            actions = _distinct_actions(16)
            chunks = list(
                pool.evaluate_batch_stream(
                    "SvcCounting-v0", actions, unit_size=2
                )
            )
            env = SvcCountingEnv()
            assert _reassemble(chunks, 16) == [
                env.evaluate(x) for x in actions
            ]
            assert pool.quarantined_urls == [url_a]
        finally:
            svc_a.stop()
            svc_b.stop()

    def test_all_hosts_dead_raises_with_outstanding_inventory(self, dispatch_pool):
        urls = [f"http://127.0.0.1:{_free_port()}" for _ in range(2)]
        pool = dispatch_pool(urls, timeout_s=0.5, retries=0, backoff_s=0.01)
        with pytest.raises(ServiceTransportError) as excinfo:
            list(
                pool.evaluate_batch_stream(
                    "SvcCounting-v0", _distinct_actions(4), unit_size=1
                )
            )
        message = str(excinfo.value)
        assert "work unit(s) outstanding" in message
        for url in urls:
            assert url in message

    def test_server_error_propagates_without_quarantine(self, two_services, dispatch_pool):
        a, b = two_services
        pool = dispatch_pool([a.url, b.url], timeout_s=10.0, retries=0)
        with pytest.raises(ServiceError, match="unknown environment") as excinfo:
            list(
                pool.evaluate_batch_stream(
                    "Nope-v0", _distinct_actions(8), unit_size=1
                )
            )
        assert not isinstance(excinfo.value, ServiceTransportError)
        assert pool.quarantined_urls == []  # deterministic failure != death


class _ScriptedStreamBackend:
    """In-process backend whose streaming hook yields fixed-size chunks
    in a scripted arrival order — the replay layer must buffer and
    reorder them. ``shuffle`` (e.g. ``random.Random.shuffle``) permutes
    each stream's chunk list in place before it is yielded."""

    def __init__(self, chunk_size=3, reverse=False, shuffle=None):
        self._env = SvcCountingEnv()
        self.chunk_size = chunk_size
        self.reverse = reverse
        self.shuffle = shuffle
        self.chunks_yielded = 0
        self.last_hosts = None

    def evaluate(self, env_name, action):
        return self._env.evaluate(action)

    def evaluate_batch(self, env_name, actions):
        return [self._env.evaluate(a) for a in actions]

    def evaluate_batch_stream(self, env_name, actions):
        spans = [
            (s, actions[s:s + self.chunk_size])
            for s in range(0, len(actions), self.chunk_size)
        ]
        if self.reverse:
            spans = spans[::-1]
        if self.shuffle is not None:
            self.shuffle(spans)
        for start, sub in spans:
            self.chunks_yielded += 1
            yield start, [self._env.evaluate(a) for a in sub], "scripted-host"


def _normalized_step(step_result):
    observation, reward, terminated, truncated, info = step_result
    return observation.tolist(), reward, terminated, truncated, info


class TestOrderedReplay:
    def _env_with(self, backend):
        env = SvcCountingEnv()
        if backend is not None:
            env.attach_backend(backend)
        env.reset(seed=0)
        return env

    def test_out_of_order_chunks_replay_in_proposal_order(self):
        actions = [{"x": i % 8, "m": "a"} for i in range(9)]
        reference = self._env_with(None)
        expected = [
            _normalized_step(r) for r in reference.step_batch(actions)
        ]
        env = self._env_with(_ScriptedStreamBackend(reverse=True))
        streamed = [
            _normalized_step(r) for r in env.step_batch_stream(actions)
        ]
        assert streamed == expected
        # the cache tiers saw the identical miss/hit sequence
        assert env.cache_info() == reference.cache_info()

    def test_in_order_chunks_consumed_lazily(self):
        """With chunks arriving in proposal order the replay must not
        drain the whole stream before yielding the first result."""
        backend = _ScriptedStreamBackend(chunk_size=3, reverse=False)
        env = self._env_with(backend)
        gen = env.step_batch_stream([{"x": i % 8, "m": "a"} for i in range(9)])
        next(gen)
        assert backend.chunks_yielded == 1  # not 3
        assert len(list(gen)) == 8

    def test_stream_ending_early_is_loud(self):
        class TruncatingBackend(_ScriptedStreamBackend):
            def evaluate_batch_stream(self, env_name, actions):
                parent = super().evaluate_batch_stream(env_name, actions)
                yield next(parent)  # first chunk only

        env = self._env_with(TruncatingBackend())
        with pytest.raises(Exception, match="stream ended"):
            list(env.step_batch_stream(
                [{"x": i % 8, "m": "a"} for i in range(9)]
            ))


class TestPipelinedDriverParity:
    def test_run_agent_pipeline_matches_serial_and_barrier(self):
        from repro.agents.base import run_agent
        from repro.agents.ga import GAAgent

        def one_run(driver=run_agent, **mode):
            env = SvcCountingEnv()
            if mode.pop("_stream_backend", False):
                env.attach_backend(_ScriptedStreamBackend(reverse=True))
            agent = GAAgent(env.action_space, seed=3, population_size=6)
            result = driver(agent, env, n_samples=30, seed=5, **mode)
            record = result.to_record()
            for field in (
                "wall_time_s", "sim_time_s", "remote_evals", "remote_hosts"
            ):
                record[field] = 0
            return record

        serial = one_run(run_agent_serial)
        assert one_run() == serial
        assert one_run(pipeline=True) == serial
        assert one_run(pipeline=True, _stream_backend=True) == serial

    def test_pipelined_sweep_with_straggler_byte_identical_to_serial(
        self, slow_fast_services
    ):
        """The acceptance cut of the satellite task: a sweep over a
        slow+fast pool in ``--pipeline`` mode reports byte-identically
        to the in-process serial run, with every design point recorded
        exactly once despite the re-dispatched straggler remainders."""
        slow, fast = slow_fast_services
        SlowSvcCountingEnv.delay_s = 0.02  # keep the sweep quick
        try:
            kw = dict(agents=("ga", "aco"), n_trials=1, n_samples=16, seed=13)
            with serial_sweeps():
                baseline = run_lottery_sweep(SvcCountingEnv, **kw)
            pipelined = run_lottery_sweep(
                SvcCountingEnv,
                service_url=[slow.url, fast.url],
                pipeline=True,
                service_timeout_s=10.0, service_retries=0,
                **kw,
            )
        finally:
            SlowSvcCountingEnv.delay_s = 0.25
        assert _normalized(pipelined) == _normalized(baseline)
        assert pipelined.remote_evals > 0
        by_host = pipelined.remote_evals_by_host
        # per-point provenance still accounts for every remote
        # evaluation exactly once (duplicates discarded, never recorded)
        assert sum(by_host.values()) == pipelined.remote_evals
