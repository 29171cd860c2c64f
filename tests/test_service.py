"""Tests for the remote evaluation service (server, client, backend).

Three load-bearing guarantees:

1. **Transparency** — an unmodified agent driving an env with a
   :class:`RemoteBackend` attached produces bit-identical results to
   in-process evaluation (metrics survive the JSON round trip exactly;
   reward/caching/episode accounting never left the client).
2. **Parity at the sweep level** — the same seeded sweep run
   in-process, with ``workers=4``, and against a live service yields
   bit-identical :class:`SweepReport`s (trial order, metrics,
   provenance tags), extending the worker-invariance battery in
   ``tests/test_executor.py``.
3. **Loud failure** — dropped connections, torn bodies, timeouts, and
   a mid-sweep server death surface as :class:`ServiceError` naming
   the failing trial; never a hang, never a silently wrong metric.
"""

import math
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.env import ArchGymEnv, canonical_action_key
from repro.core.errors import ServiceError, ServiceTransportError
from repro.core.rewards import TargetReward
from repro.core.spaces import Categorical, CompositeSpace, Discrete
from repro.service import EvaluationService, RemoteBackend, RemoteEnv, ServiceClient
from repro.service.wire import (
    MAX_CACHE_PAGE,
    dump_body,
    load_body,
    parse_batch_response,
    parse_cache_entries,
    parse_cache_listing,
    parse_metrics_response,
)
from repro.sweeps import run_lottery_sweep


class SvcCountingEnv(ArchGymEnv):
    """16-point deterministic space; counts real cost-model runs.

    Module-level so tasks pickle across the process boundary in the
    ``workers=4`` parity leg.
    """

    env_id = "SvcCounting-v0"

    def __init__(self, scale: float = 1.0):
        super().__init__(
            action_space=CompositeSpace(
                [Discrete("x", 0, 7, 1), Categorical("m", ("a", "b"))]
            ),
            observation_metrics=["cost"],
            reward_spec=TargetReward("cost", target=1.0),
            episode_length=10_000,
        )
        self.scale = scale
        self.evaluations = 0

    def evaluate(self, action):
        self.evaluations += 1
        # 0.30000000000000004-style floats: JSON round-trip must be exact
        base = 0.1 + 0.2 + abs(action["x"] - 5) + (action["m"] == "a")
        return {"cost": self.scale * base}


class CrashingEnv(SvcCountingEnv):
    env_id = "Crashing-v0"

    def evaluate(self, action):
        raise RuntimeError("simulator exploded")


class MultiMetricEnv(SvcCountingEnv):
    """Metric keys deliberately not in sorted order."""

    env_id = "MultiMetric-v0"

    def evaluate(self, action):
        cost = super().evaluate(action)["cost"]
        return {"runtime": cost, "area": 2.0 * cost, "energy": 0.5 * cost}


@pytest.fixture()
def service():
    svc = EvaluationService()
    svc.register("SvcCounting-v0", SvcCountingEnv)
    svc.register("Crashing-v0", CrashingEnv)
    svc.register("MultiMetric-v0", MultiMetricEnv)
    svc.start()
    yield svc
    svc.stop()


@pytest.fixture()
def client(service):
    return ServiceClient(service.url, timeout_s=10.0, retries=1, backoff_s=0.01)


def _free_port() -> int:
    """A port nothing is listening on (bind, read it back, close)."""
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


# -- wire properties --------------------------------------------------------------

metric_maps = st.dictionaries(
    st.text(max_size=8),
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
        st.integers(-(2**64), 2**64),
    ),
    max_size=6,
)


def _parsers(metrics):
    """One callable per response parser, each parsing ``metrics`` out of
    its body after a ``dump_body`` -> ``load_body`` round trip."""

    def wire(body):
        return load_body(dump_body(body))

    return [
        lambda: parse_metrics_response(wire({"metrics": metrics}), "test response"),
        lambda: parse_batch_response(wire({"metrics": [{}, metrics]}), "E", 2)[1],
        lambda: parse_cache_entries(wire({"entries": [["k", metrics]]}))["k"],
        lambda: parse_cache_listing(
            wire({"entries": [["k", metrics]], "size": 1})
        )[0][0][1],
    ]


@given(metrics=metric_maps)
@settings(max_examples=200, deadline=None)
def test_prop_finite_metrics_survive_every_parser_exactly(metrics):
    """Bit for bit (``float.hex`` keeps -0.0 apart from 0.0), keys in order."""
    expected = [(str(k), float(v).hex()) for k, v in metrics.items()]
    for parse in _parsers(metrics):
        assert [(k, v.hex()) for k, v in parse().items()] == expected


@given(
    metrics=metric_maps,
    bad=st.sampled_from((math.nan, math.inf, -math.inf, "abc", None, [], {}, 10**400)),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_prop_non_finite_or_non_numeric_metrics_raise_service_error(metrics, bad, data):
    """``json.loads`` parses ``NaN`` and ``Infinity``; no parser may
    pass them on, nor fail on any value with a bare ``ValueError``,
    ``TypeError`` or ``OverflowError``."""
    items = [(k, v) for k, v in metrics.items() if k != "bad"]
    items.insert(data.draw(st.integers(0, len(items))), ("bad", bad))
    for parse in _parsers(dict(items)):
        with pytest.raises(ServiceError, match="metric"):
            parse()


class TestServerEndpoints:
    def test_healthz_inventory(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert "SvcCounting-v0" in health["envs"]
        assert health["evaluations"] == 0

    def test_evaluate_matches_local_bit_exactly(self, client):
        env = SvcCountingEnv()
        action = {"x": 3, "m": "a"}
        local = env.evaluate(action)
        remote = client.evaluate("SvcCounting-v0", action)
        assert remote == local  # exact float equality, not approx

    def test_metric_key_order_survives_the_wire(self, client):
        """Dataset JSONL / shard files serialized from a remote run must
        be *byte*-identical to in-process ones, so the wire must not
        reorder the cost model's metric dict."""
        env = MultiMetricEnv()
        action = {"x": 3, "m": "a"}
        remote = client.evaluate("MultiMetric-v0", action)
        assert list(remote) == list(env.evaluate(action))

    def test_evaluate_counts_on_healthz(self, client):
        client.evaluate("SvcCounting-v0", {"x": 1, "m": "b"})
        assert client.healthz()["evaluations"] == 1

    def test_numpy_action_values_accepted(self, client):
        plain = client.evaluate("SvcCounting-v0", {"x": 4, "m": "a"})
        numpyish = client.evaluate("SvcCounting-v0", {"x": np.int64(4), "m": "a"})
        assert plain == numpyish

    def test_env_kwargs_select_instance(self, client):
        base = client.evaluate("SvcCounting-v0", {"x": 3, "m": "a"})
        scaled = client.evaluate(
            "SvcCounting-v0", {"x": 3, "m": "a"}, env_kwargs={"scale": 2.0}
        )
        assert scaled["cost"] == 2.0 * base["cost"]

    def test_unknown_env_is_service_error(self, client):
        with pytest.raises(ServiceError, match="Nope-v0"):
            client.evaluate("Nope-v0", {"x": 1})

    def test_cost_model_crash_is_service_error_not_hang(self, client):
        with pytest.raises(ServiceError, match="simulator exploded"):
            client.evaluate("Crashing-v0", {"x": 1, "m": "a"})

    def test_unknown_route_is_service_error(self, client):
        with pytest.raises(ServiceError, match="no route"):
            client._checked("GET", "/nope")

    def test_cache_roundtrip(self, client):
        assert client.cache_get("some-key") is None
        client.cache_put("some-key", {"cost": 0.1 + 0.2})
        assert client.cache_get("some-key") == {"cost": 0.1 + 0.2}
        assert client.cache_size() == 1

    def test_double_start_rejected(self, service):
        with pytest.raises(ServiceError, match="already started"):
            service.start()

    def test_stop_of_idle_service_is_prompt(self):
        """``stop()`` wakes the serve loop rather than waiting out its
        0.5 s poll."""
        svc = EvaluationService()
        svc.start()
        time.sleep(0.05)  # let the serve loop block in select
        start = time.perf_counter()
        svc.stop()
        assert time.perf_counter() - start < 0.2

    def test_shutdown_before_serve_loop_starts_still_returns(self):
        """As with the stdlib server: a shutdown requested before the
        loop runs ends the loop as soon as it starts, and a later loop
        still stops promptly."""
        from repro.service.server import _QuietServer

        server = _QuietServer(("127.0.0.1", 0), BaseHTTPRequestHandler)
        try:
            stopper = threading.Thread(target=server.shutdown)
            stopper.start()
            time.sleep(0.05)
            assert stopper.is_alive()  # waits for the loop to run
            loop = threading.Thread(target=server.serve_forever)
            loop.start()
            stopper.join(timeout=5)
            loop.join(timeout=5)
            assert not stopper.is_alive() and not loop.is_alive()
            loop = threading.Thread(target=server.serve_forever)
            loop.start()
            time.sleep(0.05)
            start = time.perf_counter()
            server.shutdown()
            assert time.perf_counter() - start < 0.2
            loop.join(timeout=5)
            assert not loop.is_alive()
        finally:
            server.server_close()

    def test_duplicate_registration_rejected(self, service):
        with pytest.raises(ServiceError, match="already registered"):
            service.register("SvcCounting-v0", SvcCountingEnv)

    def test_busy_time_accumulates_on_healthz(self, client):
        """``busy_s`` is the auto-weights denominator: it must start at
        zero, grow with real cost-model work (single and batched), and
        stay put for memo hits."""
        assert client.healthz()["busy_s"] == 0.0
        client.evaluate("SvcCounting-v0", {"x": 1, "m": "b"})
        after_one = client.healthz()["busy_s"]
        assert after_one > 0.0
        client.evaluate_batch(
            "SvcCounting-v0",
            [{"x": i, "m": "a"} for i in range(4)],
            memoize=False,
        )
        assert client.healthz()["busy_s"] > after_one


class TestCacheListing:
    """``GET /cache?offset=N&limit=M``: the paginated listing the
    anti-entropy backfill pages through."""

    def _fill(self, client, n):
        entries = {f"key-{i:03d}": {"cost": float(i)} for i in range(n)}
        for key_str, metrics in entries.items():
            client.cache_put(key_str, metrics)
        return entries

    def test_listing_pages_cover_the_whole_map(self, client):
        entries = self._fill(client, 7)
        seen = {}
        offset = 0
        while True:
            page, total = client.cache_list(offset=offset, limit=3)
            assert total == len(entries)
            if not page:
                break
            for key_str, metrics in page:
                seen[key_str] = metrics
            offset += len(page)
            if offset >= total:
                break
        assert seen == entries

    def test_listing_is_sorted_and_offset_windowed(self, client):
        self._fill(client, 5)
        page, total = client.cache_list(offset=2, limit=2)
        assert total == 5
        assert [k for k, _ in page] == ["key-002", "key-003"]

    def test_listing_of_empty_cache(self, client):
        page, total = client.cache_list()
        assert page == [] and total == 0

    def test_listing_matches_file_backed_store(self, tmp_path):
        """The durable (``--cache-dir``) server must page identically
        to the in-memory one."""
        svc = EvaluationService(cache_dir=tmp_path / "srv-cache")
        svc.start()
        try:
            client = ServiceClient(svc.url, timeout_s=10.0, retries=0)
            entries = self._fill(client, 4)
            page, total = client.cache_list(limit=10)
            assert total == 4
            assert dict(page) == entries
        finally:
            svc.stop()

    def test_bad_query_parameters_rejected(self, client):
        for query in ("offset=-1", "limit=0", "offset=x", "page=3"):
            with pytest.raises(ServiceError):
                client._checked("GET", f"/cache?{query}")

    def test_plain_cache_route_still_reports_size(self, client):
        self._fill(client, 2)
        assert client.cache_size() == 2


class TestBulkCacheEndpoints:
    """``POST /cache`` (bulk lookup) and ``PUT /cache`` (bulk write):
    one round trip for a generation's worth of keys or entries."""

    def test_bulk_roundtrip_is_one_request_each(self, client):
        entries = [(f"key-{i}", {"cost": 0.1 * i, "power": i / 3}) for i in range(8)]
        sent = client.requests_sent
        client.cache_put_many(entries)
        found = client.cache_get_many([k for k, _ in entries] + ["absent"])
        assert client.requests_sent - sent == 2
        assert found == dict(entries)  # the miss is absent
        assert client.cache_get("key-3") == entries[3][1]  # one map

    def test_bulk_write_is_in_order_last_writer_wins(self, client):
        client.cache_put_many([("k", {"cost": 1.0}), ("k", {"cost": 2.0})])
        assert client.cache_get_many(["k", "k"]) == {"k": {"cost": 2.0}}
        assert client.cache_size() == 1

    def test_empty_inputs_send_nothing(self, client):
        assert client.cache_get_many([]) == {}
        client.cache_put_many([])
        assert client.requests_sent == 0

    def test_file_backed_server_serves_the_bulk_forms(self, tmp_path):
        svc = EvaluationService(cache_dir=tmp_path / "srv-cache")
        svc.start()
        try:
            client = ServiceClient(svc.url, timeout_s=10.0, retries=0)
            entries = [(f"key-{i}", {"cost": float(i)}) for i in range(6)]
            client.cache_put_many(entries)
            assert client.cache_get_many([k for k, _ in entries]) == dict(entries)
        finally:
            svc.stop()
        restarted = EvaluationService(cache_dir=tmp_path / "srv-cache")
        assert restarted.cache_get_many(["key-0", "key-9"]) == {
            "key-0": {"cost": 0.0}
        }

    def test_malformed_bulk_bodies_are_400_and_keep_the_socket(self, client):
        bad = [
            ("POST", {"keys": "not-a-list"}),
            ("POST", {"keys": [1, 2]}),
            ("POST", {"nothing": []}),
            ("PUT", {"entries": [["only-a-key"]]}),
            ("PUT", {"entries": [[7, {"cost": 1.0}]]}),
            ("PUT", {"entries": [["k", {"cost": "NaN"}]]}),
            ("PUT", {"entries": {"k": {"cost": 1.0}}}),
        ]
        for method, body in bad:
            status, parsed = client._request(method, "/cache", body)
            assert status == 400, (method, body, parsed)
        assert client.cache_size() == 0  # no partial write
        client.cache_put_many([("k", {"cost": 1.0})])
        assert client.cache_get_many(["k"]) == {"k": {"cost": 1.0}}
        assert client.connections_opened == 1

    def test_body_over_the_page_limit_is_400(self, client):
        too_many = MAX_CACHE_PAGE + 1
        status, parsed = client._request(
            "POST", "/cache", {"keys": ["k"] * too_many}
        )
        assert status == 400 and str(MAX_CACHE_PAGE) in parsed["error"]
        status, parsed = client._request(
            "PUT", "/cache", {"entries": [["k", {"cost": 1.0}]] * too_many}
        )
        assert status == 400 and str(MAX_CACHE_PAGE) in parsed["error"]
        assert client.cache_size() == 0

    def test_client_pages_larger_inputs(self, client):
        entries = [(f"key-{i:05d}", {"cost": float(i)}) for i in range(MAX_CACHE_PAGE + 1)]
        sent = client.requests_sent
        client.cache_put_many(entries)
        assert client.requests_sent - sent == 2
        sent = client.requests_sent
        found = client.cache_get_many([k for k, _ in entries])
        assert client.requests_sent - sent == 2
        assert found == dict(entries)
        assert client.cache_size() == len(entries)


class TestBatchEndpoint:
    """``POST /evaluate_batch``: many design points, one round trip,
    one instance-lock acquisition, server-side memoization.

    Memoization tests run on a *single-env* server (``memo_client``):
    the ``/cache`` map is keyed on the design point alone, so a server
    hosting several environments auto-disables the memo rather than
    serving one env's metrics to another.
    """

    @pytest.fixture()
    def memo_service(self):
        with EvaluationService() as svc:
            svc.register("SvcCounting-v0", SvcCountingEnv)
            yield svc

    @pytest.fixture()
    def memo_client(self, memo_service):
        return ServiceClient(
            memo_service.url, timeout_s=10.0, retries=1, backoff_s=0.01
        )

    def _actions(self, n):
        return [{"x": i % 8, "m": "a" if i % 2 else "b"} for i in range(n)]

    def test_batch_matches_per_point_bit_exactly(self, client):
        actions = self._actions(6)
        singles = [client.evaluate("SvcCounting-v0", a) for a in actions]
        # memoize off so both paths really run the cost model
        batched = client.evaluate_batch(
            "SvcCounting-v0", actions, memoize=False
        )
        assert batched == singles

    def test_batch_is_one_round_trip(self, service):
        client = ServiceClient(service.url, timeout_s=10.0, retries=0)
        client.evaluate_batch("SvcCounting-v0", self._actions(64))
        assert client.requests_sent == 1

    def test_batch_preserves_request_order(self, client):
        actions = list(reversed(self._actions(8)))
        batched = client.evaluate_batch("SvcCounting-v0", actions, memoize=False)
        env = SvcCountingEnv()
        assert batched == [env.evaluate(a) for a in actions]

    def test_metric_key_order_survives_batch(self, client):
        batched = client.evaluate_batch("MultiMetric-v0", self._actions(3))
        local = MultiMetricEnv()
        for action, remote in zip(self._actions(3), batched):
            assert list(remote) == list(local.evaluate(action))

    def test_memoization_feeds_the_cache_store(self, memo_client):
        """Every fresh batch evaluation must land in /cache under the
        exact key an explicit PUT of that design point would use."""
        from repro.core.cache_store import encode_key

        actions = self._actions(5)
        batched = memo_client.evaluate_batch("SvcCounting-v0", actions)
        assert memo_client.cache_size() == len(actions)
        for action, metrics in zip(actions, batched):
            key_str = encode_key(canonical_action_key(action))
            assert memo_client.cache_get(key_str) == metrics

    def test_repeat_batch_hits_memo_not_cost_model(self, memo_client):
        actions = self._actions(4)
        memo_client.evaluate_batch("SvcCounting-v0", actions)
        evals_before = memo_client.healthz()["evaluations"]
        memo_client.evaluate_batch("SvcCounting-v0", actions)
        health = memo_client.healthz()
        assert health["evaluations"] == evals_before  # nothing re-simulated
        assert health["memo_hits"] == len(actions)
        assert health["batch_requests"] == 2

    def test_explicit_cache_put_preseeds_batch(self, memo_client):
        """An entry written via PUT /cache answers a later batch point
        — the memo and the explicit cache are one map."""
        from repro.core.cache_store import encode_key

        action = {"x": 5, "m": "a"}
        planted = {"cost": 123.456}
        memo_client.cache_put(encode_key(canonical_action_key(action)), planted)
        batched = memo_client.evaluate_batch("SvcCounting-v0", [action])
        assert batched == [planted]
        assert memo_client.healthz()["evaluations"] == 0  # env never built

    def test_duplicate_points_in_one_batch_simulate_once(self, memo_client):
        action = {"x": 1, "m": "a"}
        batched = memo_client.evaluate_batch(
            "SvcCounting-v0", [action, action, action]
        )
        assert batched[0] == batched[1] == batched[2]
        assert memo_client.healthz()["evaluations"] == 1

    def test_memoize_false_skips_the_store(self, memo_client):
        memo_client.evaluate_batch(
            "SvcCounting-v0", self._actions(3), memoize=False
        )
        assert memo_client.cache_size() == 0
        assert memo_client.healthz()["evaluations"] == 3

    def test_memo_key_built_only_when_memoizing(self, memo_service, monkeypatch):
        """The memo key costs ~10 µs a point, and only the memo reads it:
        an unmemoized batch builds none, a memoized one one per point."""
        import repro.service.server as server_module

        calls = []
        real = server_module.encode_key
        monkeypatch.setattr(
            server_module, "encode_key", lambda key: calls.append(key) or real(key)
        )
        actions = self._actions(5)
        unmemoized, hits = memo_service.evaluate_batch(
            "SvcCounting-v0", actions, memoize=False
        )
        assert (calls, hits) == ([], 0)
        memoized, hits = memo_service.evaluate_batch("SvcCounting-v0", actions)
        assert len(calls) == len(actions)
        assert hits == 0 and memoized == unmemoized
        __, hits = memo_service.evaluate_batch("SvcCounting-v0", actions)
        assert hits == len(actions)
        assert memo_service.memo_hits == len(actions)

    def test_numpy_action_values_hit_the_same_memo_line(self, memo_client):
        plain = memo_client.evaluate_batch("SvcCounting-v0", [{"x": 4, "m": "a"}])
        numpyish = memo_client.evaluate_batch(
            "SvcCounting-v0", [{"x": np.int64(4), "m": "a"}]
        )
        assert plain == numpyish
        assert memo_client.healthz()["evaluations"] == 1  # second was memo

    def test_multi_env_server_never_memoizes(self, service, client):
        """Regression: the /cache map is keyed on the design point
        alone, so a server hosting several environments must NOT
        memoize — two envs sharing an action shape would serve each
        other's metrics. (`service` registers three envs.)"""
        actions = self._actions(3)
        client.evaluate_batch("SvcCounting-v0", actions)
        assert client.cache_size() == 0  # nothing memoized
        client.evaluate_batch("MultiMetric-v0", actions)
        health = client.healthz()
        assert health["memo_hits"] == 0
        # same action shapes, distinct envs: each simulated on its own
        assert health["evaluations"] == 2 * len(actions)
        # and the two envs' metrics never crossed
        multi = client.evaluate_batch("MultiMetric-v0", actions)
        assert multi == [MultiMetricEnv().evaluate(a) for a in actions]

    def test_empty_batch_rejected_client_side(self, client):
        with pytest.raises(ServiceError, match="at least one action"):
            client.evaluate_batch("SvcCounting-v0", [])

    def test_malformed_batch_body_is_400(self, client):
        with pytest.raises(ServiceError, match="actions"):
            client._checked("POST", "/evaluate_batch", {"env": "SvcCounting-v0"})

    def test_unknown_env_in_batch_is_service_error(self, client):
        with pytest.raises(ServiceError, match="Nope-v0"):
            client.evaluate_batch("Nope-v0", [{"x": 1}])

    def test_cost_model_crash_in_batch_is_service_error(self, client):
        with pytest.raises(ServiceError, match="simulator exploded"):
            client.evaluate_batch("Crashing-v0", [{"x": 1, "m": "a"}])


class TestKeepAlive:
    """The connection-reuse contract: one socket per thread for a whole
    request stream, with a free (non-retry) re-send on a stale socket."""

    def test_many_requests_one_connection(self, service):
        client = ServiceClient(service.url, timeout_s=10.0, retries=0)
        for i in range(20):
            client.evaluate("SvcCounting-v0", {"x": i % 8, "m": "a"})
        assert client.connections_opened == 1
        assert client.requests_sent == 20

    def test_mixed_verbs_share_the_connection(self, service):
        client = ServiceClient(service.url, timeout_s=10.0, retries=0)
        client.healthz()
        client.evaluate("SvcCounting-v0", {"x": 1, "m": "a"})
        client.cache_put("k", {"cost": 1.0})
        client.cache_get("k")
        client.cache_size()
        assert client.connections_opened == 1

    def test_stale_socket_reconnects_without_burning_a_retry(self):
        """Server restarts between requests: the idle keep-alive socket
        is dead, and even a retries=0 client must transparently
        reconnect — the request bytes never reached a live peer."""
        svc1 = EvaluationService()
        svc1.register("SvcCounting-v0", SvcCountingEnv)
        svc1.start()
        port = svc1.port
        client = ServiceClient(svc1.url, timeout_s=10.0, retries=0)
        expected = client.evaluate("SvcCounting-v0", {"x": 1, "m": "a"})
        svc1.stop()
        svc2 = EvaluationService(port=port)
        svc2.register("SvcCounting-v0", SvcCountingEnv)
        svc2.start()
        try:
            again = client.evaluate("SvcCounting-v0", {"x": 1, "m": "a"})
            assert again == expected
            assert client.connections_opened == 2  # one reconnect, no retry
        finally:
            svc2.stop()

    def test_early_error_reply_does_not_desync_the_connection(self, service):
        """An error reply sent before the request body was read (a 404
        for an unrouted POST or PUT) must drain the body — otherwise the
        leftover bytes parse as the next request and poison every
        later request on the keep-alive socket."""
        client = ServiceClient(service.url, timeout_s=10.0, retries=0)
        status, _ = client._request("POST", "/no-such-route", {"pad": "x" * 256})
        assert status == 404
        status, _ = client._request("PUT", "/cache/some-key", {"m": {}})
        assert status == 404
        # the same connection must still serve real requests
        result = client.evaluate("SvcCounting-v0", {"x": 1, "m": "a"})
        assert result == SvcCountingEnv().evaluate({"x": 1, "m": "a"})
        assert client.connections_opened == 1

    def test_stop_closes_live_keepalive_connections(self, service):
        """A stopped server must be *dead* to its connected clients —
        not quietly kept alive by a blocked handler thread."""
        client = ServiceClient(
            service.url, timeout_s=2.0, retries=0, backoff_s=0.01
        )
        client.evaluate("SvcCounting-v0", {"x": 1, "m": "a"})  # connect
        service.stop()
        with pytest.raises(ServiceError):
            client.evaluate("SvcCounting-v0", {"x": 2, "m": "a"})


class TestRetryPolicy:
    """Backoff discipline: applied after every retryable failure,
    capped in total, and absent entirely for retries=0."""

    def test_zero_retries_never_sleeps(self, monkeypatch):
        def forbidden_sleep(_):
            raise AssertionError("retries=0 client slept")

        monkeypatch.setattr("repro.service.client.time.sleep", forbidden_sleep)
        client = ServiceClient(
            f"http://127.0.0.1:{_free_port()}", timeout_s=0.5, retries=0
        )
        with pytest.raises(ServiceTransportError, match="after 1 attempt"):
            client.healthz()

    def test_total_backoff_is_capped(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("repro.service.client.time.sleep", sleeps.append)
        client = ServiceClient(
            f"http://127.0.0.1:{_free_port()}",
            timeout_s=0.5, retries=10, backoff_s=0.5, backoff_cap_s=1.0,
        )
        with pytest.raises(ServiceTransportError, match="after 11 attempt"):
            client.healthz()
        assert sum(sleeps) <= 1.0 + 1e-9
        assert all(s > 0 for s in sleeps)  # zero-length sleeps are skipped

    def test_transport_exhaustion_is_typed(self):
        """Exhaustion raises ServiceTransportError — the failover
        signal — which is still a ServiceError for existing callers."""
        client = ServiceClient(
            f"http://127.0.0.1:{_free_port()}", timeout_s=0.5, retries=0
        )
        with pytest.raises(ServiceTransportError):
            client.healthz()
        assert issubclass(ServiceTransportError, ServiceError)

    def test_server_produced_errors_are_not_transport_errors(self, client):
        """A 4xx the server answered must raise plain ServiceError:
        failing it over to another host would be pointless."""
        with pytest.raises(ServiceError) as excinfo:
            client.evaluate("Nope-v0", {"x": 1})
        assert not isinstance(excinfo.value, ServiceTransportError)

    def test_bad_backoff_cap_rejected(self):
        with pytest.raises(ServiceError, match="backoff_cap_s"):
            ServiceClient("http://127.0.0.1:1", backoff_cap_s=-1.0)


class TestRemoteBackend:
    def test_remote_env_steps_without_local_evaluations(self, service):
        env = RemoteEnv(SvcCountingEnv(), service.url)
        env.reset(seed=0)
        rng = np.random.default_rng(0)
        for _ in range(5):
            env.step(env.action_space.sample(rng))
        assert env.evaluations == 0  # the local instance never simulated
        assert env.stats.remote_evals == 5  # every step went over the wire

    def test_local_lru_still_shields_the_network(self, service):
        env = RemoteEnv(SvcCountingEnv(), service.url)
        env.enable_cache()
        env.reset(seed=0)
        action = {"x": 2, "m": "b"}
        env.step(action)
        env.step(action)
        assert env.stats.remote_evals == 1
        assert env.stats.cache_hits == 1

    def test_detach_backend_returns_to_local(self, service):
        env = RemoteEnv(SvcCountingEnv(), service.url)
        backend = env.detach_backend()
        assert isinstance(backend, RemoteBackend)
        env.reset(seed=0)
        env.step({"x": 2, "m": "b"})
        assert env.evaluations == 1 and env.stats.remote_evals == 0

    def test_env_kwargs_forwarded(self, service):
        local = SvcCountingEnv(scale=3.0)
        remote = RemoteEnv(SvcCountingEnv(scale=3.0), service.url,
                           env_kwargs={"scale": 3.0})
        remote.reset(seed=0)
        action = {"x": 0, "m": "a"}
        assert remote.step(action)[4]["metrics"] == local.evaluate(action)
        assert remote.stats.remote_evals == 1 and remote.evaluations == 0


def _normalized_records(report):
    """Every trial's full record in trial order, with the fields that
    legitimately differ across execution modes (timing; where the
    simulator ran) zeroed. Everything else must match bit-for-bit."""
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


class TestServiceSweepParity:
    """The acceptance battery: one seeded sweep, three execution modes,
    three bit-identical reports."""

    KW = dict(
        agents=("rw", "ga"), n_trials=2, n_samples=15, seed=9,
        collect_dataset=True,
    )

    @pytest.fixture()
    def reports(self, service):
        in_process = run_lottery_sweep(SvcCountingEnv, workers=1, **self.KW)
        parallel = run_lottery_sweep(SvcCountingEnv, workers=4, **self.KW)
        remote = run_lottery_sweep(
            SvcCountingEnv, workers=1, service_url=service.url, **self.KW
        )
        return in_process, parallel, remote

    def test_three_modes_bit_identical(self, reports):
        in_process, parallel, remote = reports
        assert _normalized_records(in_process) == _normalized_records(parallel)
        assert _normalized_records(in_process) == _normalized_records(remote)

    def test_trial_order_and_provenance_tags(self, reports):
        in_process, parallel, remote = reports
        for other in (parallel, remote):
            assert [t.to_record() for t in in_process.dataset] == [
                t.to_record() for t in other.dataset
            ]
            assert in_process.dataset.sources == other.dataset.sources

    def test_remote_mode_actually_used_the_service(self, reports):
        in_process, parallel, remote = reports
        assert in_process.remote_evals == 0
        assert parallel.remote_evals == 0
        # with no cache tier in play, every sample went over the wire
        n_trials_total = len(self.KW["agents"]) * self.KW["n_trials"]
        assert remote.remote_evals == n_trials_total * self.KW["n_samples"]
        assert "evaluation service" in remote.print_table()

    def test_parallel_workers_against_live_service(self, service):
        """Remote dispatch composes with the process pool."""
        kw = dict(agents=("rw",), n_trials=2, n_samples=10, seed=4)
        serial = run_lottery_sweep(SvcCountingEnv, workers=1, **kw)
        fanned = run_lottery_sweep(
            SvcCountingEnv, workers=2, service_url=service.url, **kw
        )
        assert _normalized_records(serial) == _normalized_records(fanned)
        assert fanned.remote_evals > 0

    def test_batched_dispatch_bit_identical(self):
        """A remote sweep of a point-at-a-time agent rides
        /evaluate_batch in singleton batches with server-side
        memoization off (the server hosts one env, so the memo would
        apply if asked) and changes nothing about the results."""
        kw = dict(agents=("rw",), n_trials=2, n_samples=10, seed=4)
        serial = run_lottery_sweep(SvcCountingEnv, workers=1, **kw)
        with EvaluationService() as single_env_svc:
            single_env_svc.register("SvcCounting-v0", SvcCountingEnv)
            batched = run_lottery_sweep(
                SvcCountingEnv, service_url=single_env_svc.url, **kw
            )
            assert batched.remote_evals > 0
            assert single_env_svc.batch_requests > 0
            assert single_env_svc.cache_size() == 0  # the memo stayed off
        assert _normalized_records(serial) == _normalized_records(batched)

    def test_remote_evals_attributed_to_host(self, service):
        kw = dict(agents=("rw",), n_trials=1, n_samples=8, seed=3)
        report = run_lottery_sweep(SvcCountingEnv, service_url=service.url, **kw)
        (result,) = report.results["rw"]
        assert result.remote_hosts == {service.url: result.remote_evals}
        assert report.remote_evals_by_host == {service.url: report.remote_evals}
        assert service.url in report.print_table()

    def test_server_cache_store_as_shared_tier(self, service):
        """`shared_cache=True` + `service_url` uses the service's /cache:
        a second sweep re-uses the first sweep's design points."""
        kw = dict(agents=("rw",), n_trials=2, n_samples=20, seed=2)
        baseline = run_lottery_sweep(SvcCountingEnv, **kw)
        first = run_lottery_sweep(
            SvcCountingEnv, service_url=service.url, shared_cache=True, **kw
        )
        second = run_lottery_sweep(
            SvcCountingEnv, service_url=service.url, shared_cache=True, **kw
        )
        # fitness identical with and without any cache tier
        assert _normalized_shared(baseline) == _normalized_shared(first)
        assert _normalized_shared(first) == _normalized_shared(second)
        # the re-run answered every would-be miss from the server store
        assert second.shared_cache_hits > 0
        assert second.remote_evals == 0


def _normalized_shared(report):
    """Like _normalized_records but also blind to which cache tier
    answered (hit/miss splits shift when a shared tier is attached)."""
    rows = _normalized_records(report)
    for rec in rows:
        rec["cache_hits"] = rec["cache_misses"] = rec["shared_cache_hits"] = 0
    return rows


# -- fault injection ------------------------------------------------------------


class _TornBodyHandler(BaseHTTPRequestHandler):
    """Answers every request with truncated, unparseable JSON."""

    def log_message(self, *args):
        pass

    def _torn(self):
        body = b'{"metrics": {"cost": 1.'  # truncated mid-float
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_POST = do_PUT = _torn


class _SlowHandler(BaseHTTPRequestHandler):
    """Stalls far longer than any client timeout before replying."""

    def log_message(self, *args):
        pass

    def _stall(self):
        time.sleep(10.0)

    do_GET = do_POST = do_PUT = _stall


@pytest.fixture()
def misbehaving_server(request):
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), request.param)
    httpd.daemon_threads = True
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()
    httpd.server_close()


class TestFaultInjection:
    def test_connection_refused_is_service_error(self):
        client = ServiceClient(
            f"http://127.0.0.1:{_free_port()}",
            timeout_s=2.0, retries=1, backoff_s=0.01,
        )
        with pytest.raises(ServiceError, match="after 2 attempt"):
            client.evaluate("SvcCounting-v0", {"x": 1, "m": "a"})

    @pytest.mark.parametrize(
        "misbehaving_server", [_TornBodyHandler], indirect=True
    )
    def test_torn_body_is_service_error(self, misbehaving_server):
        client = ServiceClient(
            misbehaving_server, timeout_s=2.0, retries=1, backoff_s=0.01
        )
        with pytest.raises(ServiceError, match="after 2 attempt"):
            client.evaluate("SvcCounting-v0", {"x": 1, "m": "a"})
        with pytest.raises(ServiceError):
            client.cache_get("any-key")

    @pytest.mark.parametrize(
        "misbehaving_server", [_TornBodyHandler], indirect=True
    )
    def test_backoff_applies_after_parse_failures_too(
        self, misbehaving_server, monkeypatch
    ):
        """A body that does not parse is retried *with* backoff — the
        same discipline as a connection failure."""
        sleeps = []
        monkeypatch.setattr("repro.service.client.time.sleep", sleeps.append)
        client = ServiceClient(
            misbehaving_server, timeout_s=2.0, retries=2, backoff_s=0.01
        )
        with pytest.raises(ServiceTransportError, match="after 3 attempt"):
            client.evaluate("SvcCounting-v0", {"x": 1, "m": "a"})
        assert len(sleeps) == 2  # one backoff per retry
        assert sleeps == [0.01, 0.02]

    @pytest.mark.parametrize("misbehaving_server", [_SlowHandler], indirect=True)
    def test_slow_response_hits_timeout_not_hang(self, misbehaving_server):
        client = ServiceClient(
            misbehaving_server, timeout_s=0.3, retries=0, backoff_s=0.01
        )
        start = time.perf_counter()
        with pytest.raises(ServiceError, match="timeout"):
            client.evaluate("SvcCounting-v0", {"x": 1, "m": "a"})
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"timeout took {elapsed:.1f}s — client hung"

    def test_invalid_url_rejected_up_front(self):
        with pytest.raises(ServiceError, match="http"):
            ServiceClient("ftp://example.com")

    def test_bad_retry_config_rejected(self):
        with pytest.raises(ServiceError):
            ServiceClient("http://127.0.0.1:1", timeout_s=0)
        with pytest.raises(ServiceError):
            ServiceClient("http://127.0.0.1:1", retries=-1)

    def test_mid_sweep_server_death_names_the_trial(self):
        """The server dies partway through trial rw/0: the sweep must
        fail with a ServiceError identifying that trial — promptly,
        not after a hang, and never with a fabricated metric."""
        svc = EvaluationService()

        class DyingEnv(SvcCountingEnv):
            env_id = "SvcCounting-v0"  # what the client asks for
            calls = 0

            def evaluate(self, action):
                type(self).calls += 1
                if type(self).calls == 6:
                    # kill the listener from a handler thread; the
                    # in-flight response still completes
                    threading.Thread(target=svc.stop, daemon=True).start()
                    time.sleep(0.2)
                return super().evaluate(action)

        svc.register("SvcCounting-v0", DyingEnv)
        url = svc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ServiceError, match=r"trial rw/0"):
                run_lottery_sweep(
                    SvcCountingEnv,
                    agents=("rw",), n_trials=2, n_samples=20, seed=1,
                    cache=False, service_url=url,
                )
            elapsed = time.perf_counter() - start
            assert elapsed < 30.0, f"sweep hung {elapsed:.1f}s after server death"
        finally:
            svc.stop()
