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

import gc
import math
import socket
import threading
import time
import warnings
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.env import ArchGymEnv
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
def cache_dir():
    """The service's ``--cache-dir``; ``None`` keeps its map in memory."""
    return None


@pytest.fixture()
def service(cache_dir):
    svc = EvaluationService(cache_dir=cache_dir)
    svc.register("SvcCounting-v0", SvcCountingEnv)
    svc.register("Crashing-v0", CrashingEnv)
    svc.register("MultiMetric-v0", MultiMetricEnv)
    svc.start()
    yield svc
    svc.stop()


@pytest.fixture()
def client(service, closing):
    return closing(
        ServiceClient(service.url, timeout_s=10.0, retries=1, backoff_s=0.01)
    )


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
        zero and grow with real cost-model work (single and batched)."""
        assert client.healthz()["busy_s"] == 0.0
        client.evaluate("SvcCounting-v0", {"x": 1, "m": "b"})
        after_one = client.healthz()["busy_s"]
        assert after_one > 0.0
        client.evaluate_batch(
            "SvcCounting-v0", [{"x": i, "m": "a"} for i in range(4)]
        )
        assert client.healthz()["busy_s"] > after_one

    def test_single_point_route_is_gone(self, client):
        """``POST /evaluate_batch`` is the one evaluation request: the
        old single-point route answers 404, and a one-point evaluate
        rides a one-action batch."""
        status, parsed = client._request(
            "POST", "/evaluate", {"env": "SvcCounting-v0", "action": {"x": 1}}
        )
        assert status == 404 and "no route" in parsed["error"]
        client.evaluate("SvcCounting-v0", {"x": 1, "m": "b"})
        health = client.healthz()
        assert health["format"] == "archgym-service-v3"
        assert (health["evaluations"], health["batch_requests"]) == (1, 1)


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

    def test_bad_query_parameters_rejected(self, client):
        for query in ("offset=-1", "limit=0", "offset=x", "page=3"):
            with pytest.raises(ServiceError):
                client._checked("GET", f"/cache?{query}")

    def test_plain_cache_route_still_reports_size(self, client):
        self._fill(client, 2)
        assert client.cache_size() == 2


class TestCacheListingOnDisk(TestCacheListing):
    """The same listing from a service whose map has a directory."""

    @pytest.fixture()
    def cache_dir(self, tmp_path):
        return tmp_path / "srv-cache"


class BulkCacheEndpoints:
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

    def test_malformed_bulk_bodies_are_400_and_keep_the_socket(self, client):
        bad = [
            ("POST", {"keys": "not-a-list"}),
            ("POST", {"keys": [1, 2]}),
            ("POST", {"nothing": []}),
            ("PUT", {"entries": [["only-a-key"]]}),
            ("PUT", {"entries": [[7, {"cost": 1.0}]]}),
            ("PUT", {"entries": [["k", {"cost": "NaN"}]]}),
            ("PUT", {"entries": {"k": {"cost": 1.0}}}),
            # a good entry first: a refused metric stores nothing
            ("PUT", {"entries": [["ok", {"cost": 1.0}], ["k", {"cost": "abc"}]]}),
            ("PUT", {"entries": [["ok", {"cost": 1.0}],
                                 ["k", {"cost": float("inf")}]]}),
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


class TestBulkCacheEndpoints(BulkCacheEndpoints):
    def test_file_backed_server_serves_the_bulk_forms(self, tmp_path, closing):
        svc = EvaluationService(cache_dir=tmp_path / "srv-cache")
        svc.start()
        try:
            client = closing(ServiceClient(svc.url, timeout_s=10.0, retries=0))
            entries = [(f"key-{i}", {"cost": float(i)}) for i in range(6)]
            client.cache_put_many(entries)
            assert client.cache_get_many([k for k, _ in entries]) == dict(entries)
        finally:
            svc.stop()
        restarted = EvaluationService(cache_dir=tmp_path / "srv-cache")
        assert restarted.cache_get_many(["key-0", "key-9"]) == {
            "key-0": {"cost": 0.0}
        }


class TestBulkCacheEndpointsOnDisk(BulkCacheEndpoints):
    """The same bulk forms from a service whose map has a directory."""

    @pytest.fixture()
    def cache_dir(self, tmp_path):
        return tmp_path / "srv-cache"


class TestBatchEndpoint:
    """``POST /evaluate_batch``: many design points, one round trip,
    one instance-lock acquisition, every point simulated."""

    @pytest.fixture()
    def single_env_client(self, closing):
        """A client of a server hosting one environment — where the
        removed batch memo used to engage."""
        with EvaluationService() as svc:
            svc.register("SvcCounting-v0", SvcCountingEnv)
            yield closing(ServiceClient(
                svc.url, timeout_s=10.0, retries=1, backoff_s=0.01
            ))

    def _actions(self, n):
        return [{"x": i % 8, "m": "a" if i % 2 else "b"} for i in range(n)]

    def test_batch_matches_per_point_bit_exactly(self, client):
        actions = self._actions(6)
        singles = [client.evaluate("SvcCounting-v0", a) for a in actions]
        batched = client.evaluate_batch("SvcCounting-v0", actions)
        assert batched == singles

    def test_batch_is_one_round_trip(self, service, closing):
        client = closing(ServiceClient(service.url, timeout_s=10.0, retries=0))
        client.evaluate_batch("SvcCounting-v0", self._actions(64))
        assert client.requests_sent == 1

    def test_batch_preserves_request_order(self, client):
        actions = list(reversed(self._actions(8)))
        batched = client.evaluate_batch("SvcCounting-v0", actions)
        env = SvcCountingEnv()
        assert batched == [env.evaluate(a) for a in actions]

    def test_metric_key_order_survives_batch(self, client):
        batched = client.evaluate_batch("MultiMetric-v0", self._actions(3))
        local = MultiMetricEnv()
        for action, remote in zip(self._actions(3), batched):
            assert list(remote) == list(local.evaluate(action))

    def test_duplicate_points_in_one_batch_simulate_each_time(
        self, single_env_client
    ):
        action = {"x": 1, "m": "a"}
        batched = single_env_client.evaluate_batch(
            "SvcCounting-v0", [action, action, action]
        )
        assert batched[0] == batched[1] == batched[2]
        health = single_env_client.healthz()
        assert health["evaluations"] == 3
        assert health["cache_size"] == 0

    def test_multi_env_server_never_memoizes(self, service, client):
        """A batch never writes the ``/cache`` map, so two environments
        sharing an action shape each simulate their own points and
        never see each other's metrics. (`service` registers three
        envs.)"""
        actions = self._actions(3)
        client.evaluate_batch("SvcCounting-v0", actions)
        client.evaluate_batch("MultiMetric-v0", actions)
        health = client.healthz()
        assert health["cache_size"] == 0
        assert health["evaluations"] == 2 * len(actions)
        multi = client.evaluate_batch("MultiMetric-v0", actions)
        assert multi == [MultiMetricEnv().evaluate(a) for a in actions]
        assert client.cache_size() == 0

    def test_single_env_server_answers_each_workload_with_its_own_metrics(
        self, closing
    ):
        """Regression: the removed batch memo keyed on the design point
        alone, so a server hosting only DRAMGym answered a
        ``workload="random"`` batch with the metrics it had stored for
        ``workload="stream"``."""
        import functools

        import repro

        action = repro.make("DRAMGym-v0").action_space.sample(
            np.random.default_rng(0)
        )
        expected = {
            workload: repro.make("DRAMGym-v0", workload=workload).evaluate(action)
            for workload in ("stream", "random")
        }
        assert expected["stream"] != expected["random"]
        with EvaluationService() as svc:
            svc.register("DRAMGym-v0", functools.partial(repro.make, "DRAMGym-v0"))
            client = closing(ServiceClient(svc.url, timeout_s=30.0, retries=0))
            for workload, metrics in expected.items():
                assert client.evaluate_batch(
                    "DRAMGym-v0", [action], env_kwargs={"workload": workload}
                ) == [metrics]

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


@pytest.fixture(scope="module")
def property_hosts():
    """A service hosting the property's two environments, with a client
    and a one-host pool on it. Module scope: every Hypothesis example
    reuses the same service and connections."""
    from repro.sweeps.hostpool import HostPool

    with EvaluationService() as svc:
        svc.register("SvcCounting-v0", SvcCountingEnv)
        svc.register("MultiMetric-v0", MultiMetricEnv)
        client = ServiceClient(svc.url, timeout_s=10.0, retries=0)
        pool = HostPool([svc.url], timeout_s=10.0, retries=0)
        try:
            yield client, pool
        finally:
            pool.close()
            client.close()


#: Design points of the 16-point test space, with numpy-typed values
#: mixed in: the wire must carry both spellings as one design point.
design_points = st.fixed_dictionaries({
    "x": st.integers(0, 7).flatmap(
        lambda x: st.sampled_from((x, np.int64(x), np.int32(x)))
    ),
    "m": st.sampled_from(("a", "b", np.str_("a"), np.str_("b"))),
})


class TestOneEvaluationRequest:
    """Every evaluation rides ``POST /evaluate_batch`` with nothing
    between the request and the cost model: a batch answers byte for
    byte what in-process ``evaluate`` returns, the one-point calls equal
    a one-action batch, and every point is simulated."""

    @given(
        env_id=st.sampled_from(("SvcCounting-v0", "MultiMetric-v0")),
        actions=st.lists(design_points, min_size=1, max_size=32),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_is_in_process_evaluate_point_for_point(
        self, property_hosts, env_id, actions
    ):
        client, pool = property_hosts
        local = {"SvcCounting-v0": SvcCountingEnv, "MultiMetric-v0": MultiMetricEnv}
        env = local[env_id]()
        before = client.healthz()["evaluations"]
        batched = client.evaluate_batch(env_id, actions)
        assert client.healthz()["evaluations"] - before == len(actions)
        assert dump_body(batched) == dump_body([env.evaluate(a) for a in actions])
        for action in actions:
            one = dump_body(client.evaluate_batch(env_id, [action])[0])
            assert dump_body(client.evaluate(env_id, action)) == one
            assert dump_body(pool.evaluate(env_id, action)) == one


class TestKeepAlive:
    """The connection-reuse contract: one socket per thread for a whole
    request stream, with a free (non-retry) re-send on a stale socket."""

    def test_many_requests_one_connection(self, service, closing):
        client = closing(ServiceClient(service.url, timeout_s=10.0, retries=0))
        for i in range(20):
            client.evaluate("SvcCounting-v0", {"x": i % 8, "m": "a"})
        assert client.connections_opened == 1
        assert client.requests_sent == 20

    def test_mixed_verbs_share_the_connection(self, service, closing):
        client = closing(ServiceClient(service.url, timeout_s=10.0, retries=0))
        client.healthz()
        client.evaluate("SvcCounting-v0", {"x": 1, "m": "a"})
        client.cache_put("k", {"cost": 1.0})
        client.cache_get("k")
        client.cache_size()
        assert client.connections_opened == 1

    def test_stale_socket_reconnects_without_burning_a_retry(self, closing):
        """Server restarts between requests: the idle keep-alive socket
        is dead, and even a retries=0 client must transparently
        reconnect — the request bytes never reached a live peer."""
        svc1 = EvaluationService()
        svc1.register("SvcCounting-v0", SvcCountingEnv)
        svc1.start()
        port = svc1.port
        client = closing(ServiceClient(svc1.url, timeout_s=10.0, retries=0))
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

    def test_early_error_reply_does_not_desync_the_connection(
        self, service, closing
    ):
        """An error reply sent before the request body was read (a 404
        for an unrouted POST or PUT) must drain the body — otherwise the
        leftover bytes parse as the next request and poison every
        later request on the keep-alive socket."""
        client = closing(ServiceClient(service.url, timeout_s=10.0, retries=0))
        status, _ = client._request("POST", "/no-such-route", {"pad": "x" * 256})
        assert status == 404
        status, _ = client._request("PUT", "/cache/some-key", {"m": {}})
        assert status == 404
        # the same connection must still serve real requests
        result = client.evaluate("SvcCounting-v0", {"x": 1, "m": "a"})
        assert result == SvcCountingEnv().evaluate({"x": 1, "m": "a"})
        assert client.connections_opened == 1

    @pytest.mark.parametrize("length", ["-1", "abc"])
    def test_bad_content_length_is_400_and_closes(self, service, client, length):
        """A ``Content-Length`` that is not a non-negative integer gets a
        400 at once — not a handler thread reading to EOF (``-1``), nor
        a dropped connection (``abc``) — and the service keeps serving."""
        with socket.create_connection(("127.0.0.1", service.port), timeout=5.0) as sock:
            sock.sendall(
                b"POST /cache HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: " + length.encode() + b"\r\n\r\n"
            )
            reply = b""
            while True:  # the server closes the connection after its reply
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == b"400"
        assert b"Connection: close" in head
        assert "Content-Length" in load_body(body)["error"]
        assert client.healthz()["status"] == "ok"

    def test_stop_closes_live_keepalive_connections(self, service, closing):
        """A stopped server must be *dead* to its connected clients —
        not quietly kept alive by a blocked handler thread."""
        client = closing(ServiceClient(
            service.url, timeout_s=2.0, retries=0, backoff_s=0.01
        ))
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
    def test_remote_env_steps_without_local_evaluations(self, service, closing):
        env = closing(RemoteEnv(SvcCountingEnv(), service.url))
        env.reset(seed=0)
        rng = np.random.default_rng(0)
        for _ in range(5):
            env.step(env.action_space.sample(rng))
        assert env.evaluations == 0  # the local instance never simulated
        assert env.stats.remote_evals == 5  # every step went over the wire

    def test_local_lru_still_shields_the_network(self, service, closing):
        env = closing(RemoteEnv(SvcCountingEnv(), service.url))
        env.enable_cache()
        env.reset(seed=0)
        action = {"x": 2, "m": "b"}
        env.step(action)
        env.step(action)
        assert env.stats.remote_evals == 1
        assert env.stats.cache_hits == 1

    def test_detach_backend_returns_to_local(self, service, closing):
        env = RemoteEnv(SvcCountingEnv(), service.url)
        backend = closing(env.detach_backend())
        assert isinstance(backend, RemoteBackend)
        env.reset(seed=0)
        env.step({"x": 2, "m": "b"})
        assert env.evaluations == 1 and env.stats.remote_evals == 0

    def test_remote_env_close_releases_the_pool_it_built(self, service):
        """``RemoteEnv`` builds its backend, so ``env.close()`` closes it:
        no keep-alive socket is left for the garbage collector to
        report."""
        gc.collect()  # so only this test's garbage is collected below
        env = RemoteEnv(SvcCountingEnv(), service.url)
        env.reset(seed=0)
        env.step({"x": 1, "m": "a"})
        assert env.stats.remote_evals == 1
        env.close()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            del env
            gc.collect()
        assert [str(w.message) for w in caught] == []

    def test_attached_backend_stays_the_callers(self, service, closing):
        """A backend passed to ``attach_backend``, or handed back by
        ``detach_backend``, is the caller's: ``env.close()`` leaves its
        keep-alive connection open."""
        attached = closing(RemoteBackend(service.url, timeout_s=10.0))
        env = SvcCountingEnv()
        env.attach_backend(attached)
        remote = RemoteEnv(SvcCountingEnv(), service.url)
        detached = closing(remote.detach_backend())
        for backend in (attached, detached):
            backend.evaluate_batch("SvcCounting-v0", [{"x": 1, "m": "a"}])
        env.close()
        remote.close()
        for backend in (attached, detached):
            backend.evaluate_batch("SvcCounting-v0", [{"x": 2, "m": "a"}])
            # one socket served both batches: nothing closed it between
            assert sum(
                h.client.connections_opened for h in backend.pool._hosts
            ) == 1

    def test_dead_host_gets_one_revival_probe(self, monkeypatch, closing):
        """A one-URL backend is a one-host pool: when its host dies the
        pool quarantines it and sends one short ``/healthz`` probe (a
        restarted server would rejoin there) before the call fails."""
        svc = EvaluationService()
        svc.register("SvcCounting-v0", SvcCountingEnv)
        url = svc.start()
        backend = closing(
            RemoteBackend(url, timeout_s=2.0, retries=0, backoff_s=0.01)
        )
        try:
            backend.evaluate_batch("SvcCounting-v0", [{"x": 1, "m": "a"}])
            assert backend.last_hosts == [url]
        finally:
            svc.stop()
        sent = _count_requests(monkeypatch)
        with pytest.raises(ServiceTransportError, match="all 1 evaluation host"):
            backend.evaluate_batch("SvcCounting-v0", [{"x": 2, "m": "a"}])
        assert backend.pool.quarantined_urls == [url]
        assert sent["GET", "/healthz"] == 1

    def test_env_kwargs_forwarded(self, service, closing):
        local = SvcCountingEnv(scale=3.0)
        remote = closing(RemoteEnv(SvcCountingEnv(scale=3.0), service.url,
                                   env_kwargs={"scale": 3.0}))
        remote.reset(seed=0)
        action = {"x": 0, "m": "a"}
        assert remote.step(action)[4]["metrics"] == local.evaluate(action)
        assert remote.stats.remote_evals == 1 and remote.evaluations == 0


def _count_requests(monkeypatch):
    """Count every request any :class:`ServiceClient` sends, by
    ``(method, path)``."""
    sent = Counter()
    send = ServiceClient._send

    def counting_send(client, method, path, body):
        sent[method, path] += 1
        return send(client, method, path, body)

    monkeypatch.setattr(ServiceClient, "_send", counting_send)
    return sent


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

    def test_one_url_sweep_is_a_one_host_pool(self, service, monkeypatch):
        """One ``service_url`` drives a one-host pool: the host simulates
        exactly the sweep's misses, each inside a ``/evaluate_batch``,
        and no ``POST /evaluate`` is sent."""
        sent = _count_requests(monkeypatch)
        report = run_lottery_sweep(
            SvcCountingEnv, agents=("rw", "ga"), n_trials=2, n_samples=20,
            seed=5, cache=True, service_url=service.url,
        )
        health = service.health()
        assert report.cache_misses > 0
        assert health["evaluations"] == report.cache_misses == report.remote_evals
        assert sent["POST", "/evaluate"] == 0
        assert sent["POST", "/evaluate_batch"] == health["batch_requests"] > 0

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
        # An inf or nan timeout would otherwise fail only on the first
        # request, and not as a ServiceError a pool could fail over on.
        for timeout_s in (0, float("inf"), float("nan")):
            with pytest.raises(ServiceError):
                ServiceClient("http://127.0.0.1:1", timeout_s=timeout_s)
        # A fractional or bool retry count would otherwise fail as a
        # bare TypeError on the first request.
        for retries in (-1, 1.5, True):
            with pytest.raises(ServiceError, match="retries"):
                ServiceClient("http://127.0.0.1:1", retries=retries)

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
