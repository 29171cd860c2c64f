"""Tests for proxy-in-the-loop search: the online surrogate, the
screened generation path, and the correctness fixes that ride along
(non-finite cache rejection, healthz snapshot, auto-weight windows)."""

import json
import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.hyperparams import make_agent
from repro.core.cache_store import SharedCacheStore, encode_key
from repro.core.dataset import ArchGymDataset
from repro.core.env import ArchGymEnv
from repro.core.errors import (
    AgentError,
    CacheStoreError,
    ExecutorError,
    ProxyModelError,
    ServiceError,
)
from repro.core.rewards import TargetReward
from repro.core.spaces import Categorical, CompositeSpace, Discrete
from repro.agents.base import run_agent
from repro.proxy import OnlineProxy
from repro.proxy.trainer import ProxyCostModel
from repro.service.wire import clean_metrics
from repro.sweeps import run_lottery_sweep
from repro.sweeps.executor import resolve_execution_backend
from serial_reference import run_agent_reference


class RidgeEnv(ArchGymEnv):
    """A smooth, learnable cost surface big enough that a forest
    trained on a few dozen points generalizes — the proxy gate must
    open on real signal, not on memorized duplicates."""

    env_id = "Ridge-v0"

    def __init__(self):
        super().__init__(
            action_space=CompositeSpace(
                [
                    Discrete("x", 0, 31, 1),
                    Discrete("y", 0, 31, 1),
                    Categorical("m", ("a", "b")),
                ]
            ),
            observation_metrics=["cost"],
            reward_spec=TargetReward("cost", target=1.0),
            episode_length=10_000,
        )

    def evaluate(self, action):
        return {
            "cost": 1.0
            + 0.3 * abs(action["x"] - 20)
            + 0.2 * abs(action["y"] - 9)
            + 2.0 * (action["m"] == "a")
        }


def _space():
    return RidgeEnv().action_space


def _fill_store(store, env, n=96, seed=0):
    """Seed a cache store with n distinct ground-truth points."""
    rng = np.random.default_rng(seed)
    added = 0
    while added < n:
        action = env.action_space.sample(rng)
        key = encode_key(tuple(sorted(action.items())))
        if store.get_encoded(key) is None:
            store.put_encoded(key, env.evaluate(action))
            added += 1
    return store


def _canonical_put(store, action, metrics):
    from repro.core.env import canonical_action_key

    store.put_encoded(
        json.dumps(canonical_action_key(action), separators=(",", ":")),
        metrics,
    )


class TestOnlineProxy:
    def test_ctor_validation(self):
        with pytest.raises(ProxyModelError, match="min_corpus"):
            OnlineProxy(_space(), ["cost"], min_corpus=4)
        with pytest.raises(ProxyModelError, match="max_fit_samples"):
            OnlineProxy(_space(), ["cost"], min_corpus=64, max_fit_samples=32)

    def test_observe_dedupes_and_counts(self):
        proxy = OnlineProxy(_space(), ["cost"], min_corpus=8)
        action = {"x": 3, "y": 4, "m": "a"}
        assert proxy.observe(action, {"cost": 2.0}) is True
        assert proxy.observe(action, {"cost": 2.0}) is False  # duplicate key
        assert proxy.corpus_size == 1

    def test_observe_skips_unencodable_and_nonfinite(self):
        proxy = OnlineProxy(_space(), ["cost"], min_corpus=8)
        assert proxy.observe({"x": 3, "y": 4, "m": "a"}, {"cost": math.nan}) is False
        assert proxy.observe({"bogus": 1}, {"cost": 2.0}) is False
        assert proxy.observe({"x": 1, "y": 1, "m": "a"}, {"other": 2.0}) is False
        assert proxy.corpus_size == 0

    def test_cold_gate_then_opens_on_learnable_corpus(self, tmp_path):
        env = RidgeEnv()
        store = _fill_store(SharedCacheStore(tmp_path), env, n=96)
        proxy = OnlineProxy(env.action_space, ["cost"], min_corpus=64, seed=0)
        assert proxy.ready is False
        assert proxy.maybe_refit() is False  # empty corpus: below gate
        assert proxy.harvest(store) == 96
        assert proxy.maybe_refit() is True
        assert proxy.refits == 1
        assert proxy.ready is True  # smooth surface: RMSE clears 0.35
        assert 0.0 < proxy.last_rmse <= 0.35
        # the optimum predicts well below the surface's ~6.2 mean cost
        (pred,) = proxy.predict_batch([{"x": 20, "y": 9, "m": "b"}])
        assert pred["cost"] < 5.0

    def test_refit_policy_amortizes(self, tmp_path):
        env = RidgeEnv()
        store = _fill_store(SharedCacheStore(tmp_path), env, n=64)
        proxy = OnlineProxy(env.action_space, ["cost"], min_corpus=64)
        proxy.harvest(store)
        assert proxy.maybe_refit() is True
        # one fresh point is below the growth threshold: no refit
        proxy.observe({"x": 0, "y": 0, "m": "a"}, env.evaluate({"x": 0, "y": 0, "m": "a"}))
        assert proxy.maybe_refit() is False
        assert proxy.refits == 1

    def test_foreign_entries_skipped_not_fatal(self, tmp_path):
        env = RidgeEnv()
        store = SharedCacheStore(tmp_path)
        _canonical_put(store, {"x": 1, "y": 2, "m": "a"}, {"cost": 3.0})
        # a different env sharing the store: wrong names, wrong metrics
        store.put_encoded('[["alien",7]]', {"latency": 9.0})
        store.put_encoded("not json at all", {"cost": 1.0})
        proxy = OnlineProxy(env.action_space, ["cost"], min_corpus=8)
        assert proxy.ingest_store(store) == 1
        assert proxy.corpus_size == 1

    def test_warm_harvest_is_throttled(self, tmp_path):
        env = RidgeEnv()
        store = _fill_store(SharedCacheStore(tmp_path), env, n=64)
        proxy = OnlineProxy(env.action_space, ["cost"], min_corpus=64)
        proxy.harvest(store)
        proxy.maybe_refit()
        assert proxy.ready
        # gate open: back-to-back harvests skip the listing walk
        _canonical_put(store, {"x": 31, "y": 31, "m": "b"},
                       env.evaluate({"x": 31, "y": 31, "m": "b"}))
        assert proxy.harvest(store) == 0  # call 2 of the warm cycle
        calls = [proxy.harvest(store) for _ in range(8)]
        assert sum(calls) == 1  # exactly one re-page in a full cycle

    def test_predict_before_fit_raises(self):
        proxy = OnlineProxy(_space(), ["cost"], min_corpus=8)
        with pytest.raises(ProxyModelError, match="no fitted model"):
            proxy.predict_batch([{"x": 1, "y": 1, "m": "a"}])

    def test_fit_matrices_validates_shape(self):
        model = ProxyCostModel(_space(), ["cost"])
        X = np.random.default_rng(0).random((32, 3))
        with pytest.raises(ProxyModelError, match="target matrix"):
            model.fit_matrices(X, np.random.default_rng(1).random((32, 2)))


class TestListEncodedPaging:
    def test_file_tier_pages_cover_store_exactly(self, tmp_path):
        env = RidgeEnv()
        store = _fill_store(SharedCacheStore(tmp_path), env, n=23)
        harvested = {}
        offset = 0
        while True:
            page, total = store.list_encoded(offset, limit=7)
            assert total == 23
            if not page:
                break
            harvested.update(page)
            offset += len(page)
            if offset >= total:
                break
        assert len(harvested) == 23
        assert sorted(harvested) == store.keys_encoded()


class TestNonFiniteRejection:
    def test_put_rejects_nan_and_inf(self, tmp_path):
        store = SharedCacheStore(tmp_path)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(CacheStoreError, match="non-finite"):
                store.put_encoded('[["x",1]]', {"cost": bad})
        assert len(store) == 0  # nothing reached the shard files

    def test_wire_rejects_nan_and_inf(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ServiceError, match="non-finite"):
                clean_metrics({"cost": bad})
        assert clean_metrics({"cost": 1.5}) == {"cost": 1.5}

    def test_refresh_skips_poisoned_lines(self, tmp_path):
        """A pre-guard shard holding NaN/Infinity JSON tokens must not
        poison readers: the bad entry is skipped, the good ones fold."""
        store = SharedCacheStore(tmp_path, n_shards=1)
        store.put_encoded('[["x",1]]', {"cost": 2.0})
        shard = store._shard_path(0)
        with shard.open("a") as f:
            f.write('{"k": "[[\\"x\\",2]]", "m": {"cost": NaN}}\n')
            f.write('{"k": "[[\\"x\\",3]]", "m": {"cost": Infinity}}\n')
        fresh = SharedCacheStore(tmp_path, n_shards=1)
        assert fresh.get_encoded('[["x",2]]') is None
        assert fresh.get_encoded('[["x",3]]') is None
        assert fresh.get_encoded('[["x",1]]') == {"cost": 2.0}
        assert len(fresh) == 1


class TestAutoWeightWindows:
    """Unit tests for the auto-weight rate windows: a zero-delta or
    sub-epsilon poll must not consume the accumulation window, and a
    counter reset (host restart) must re-baseline."""

    def _pool(self, healths):
        from repro.sweeps.hostpool import HostPool

        class _StubProbe:
            def __init__(self, feed):
                self.feed = list(feed)

            def healthz(self):
                return self.feed.pop(0)

        pool = HostPool(
            ["http://stub:1"], timeout_s=1.0, retries=0,
            auto_weights=True, auto_weights_interval_s=0.0,
        )
        pool._hosts[0].probe_client = _StubProbe(healths)
        return pool, pool._hosts[0]

    def test_zero_delta_poll_preserves_window(self):
        pool, host = self._pool([
            {"evaluations": 10, "busy_s": 1.0},
            {"evaluations": 10, "busy_s": 1.0},  # nothing happened
            {"evaluations": 20, "busy_s": 2.0},
        ])
        pool._refresh_auto_weights()
        assert host.rate_ewma == pytest.approx(10.0)
        pool._refresh_auto_weights()  # zero delta: no fold, no re-baseline
        assert host.rate_ewma == pytest.approx(10.0)
        assert host.seen_evals == 10
        pool._refresh_auto_weights()
        # the full 10-evals/1s window folds as rate 10, not 0 or a spike
        assert host.rate_ewma == pytest.approx(10.0)

    def test_sub_epsilon_busy_window_not_a_spike(self):
        pool, host = self._pool([
            {"evaluations": 10, "busy_s": 1.0},
            {"evaluations": 11, "busy_s": 1.0 + 1e-9},  # back-to-back poll
            {"evaluations": 20, "busy_s": 2.0},
        ])
        pool._refresh_auto_weights()
        pool._refresh_auto_weights()  # would be rate 1e9 without the guard
        assert host.rate_ewma == pytest.approx(10.0)
        pool._refresh_auto_weights()
        assert host.rate_ewma == pytest.approx(10.0)

    def test_counter_reset_rebaselines(self):
        pool, host = self._pool([
            {"evaluations": 10, "busy_s": 1.0},
            {"evaluations": 2, "busy_s": 0.2},  # host restarted
            {"evaluations": 12, "busy_s": 1.2},
        ])
        pool._refresh_auto_weights()
        pool._refresh_auto_weights()  # negative delta: re-baseline only
        assert host.rate_ewma == pytest.approx(10.0)
        assert host.seen_evals == 2
        pool._refresh_auto_weights()
        assert host.rate_ewma == pytest.approx(10.0)


def _normalized_records(report):
    rows = []
    for agent in sorted(report.results):
        for res in report.results[agent]:
            rec = res.to_record()
            rec["wall_time_s"] = 0.0
            rec["sim_time_s"] = 0.0
            rows.append(rec)
    return rows


SCREEN_KW = dict(
    agents=("rw", "ga"), n_trials=2, n_samples=40, seed=11,
    shared_cache=True, proxy_screen=True, proxy_min_corpus=24,
    proxy_oversample=2, proxy_refresh=0.25,
)


class TestScreenedSweeps:
    def test_proxy_screen_requires_shared_cache(self):
        with pytest.raises(ExecutorError, match="shared cache"):
            resolve_execution_backend(None, False, None, proxy_screen=True)
        with pytest.raises(ExecutorError, match="shared cache tier"):
            resolve_execution_backend(None, True, None, proxy_screen=True)

    def test_run_agent_knob_validation(self):
        env = RidgeEnv()
        agent = make_agent("ga", env.action_space, seed=0)
        for kw in (
            dict(proxy_oversample=0),
            dict(proxy_refresh=1.5),
        ):
            with pytest.raises(AgentError):
                run_agent(agent, env, n_samples=8, seed=0,
                          proxy_screen=True, **kw)

    def test_screened_sweep_deterministic_across_runs(self, tmp_path):
        first = run_lottery_sweep(
            RidgeEnv, out_dir=tmp_path / "a", **SCREEN_KW
        )
        second = run_lottery_sweep(
            RidgeEnv, out_dir=tmp_path / "b", **SCREEN_KW
        )
        assert _normalized_records(first) == _normalized_records(second)
        # shard bytes agree too (modulo timing fields inside results)
        shards_a = sorted((tmp_path / "a").glob("trial-*.json"))
        shards_b = sorted((tmp_path / "b").glob("trial-*.json"))
        assert len(shards_a) == len(shards_b) == 4

    def test_screened_counters_reconcile(self, tmp_path):
        report = run_lottery_sweep(
            RidgeEnv, out_dir=tmp_path / "s", **SCREEN_KW
        )
        assert report.proxy_screened > 0  # the gate opened mid-sweep
        assert 0 < report.proxy_accepted < report.proxy_screened
        assert report.proxy_refresh_evals <= report.proxy_accepted
        assert 0.0 < report.proxy_last_rmse <= 0.35
        for agent, results in report.results.items():
            for res in results:
                assert res.proxy_accepted <= res.proxy_screened
                assert res.proxy_refresh_evals <= res.proxy_accepted
        assert "proxy screen:" in report.print_table()

    def test_counters_survive_shard_roundtrip(self, tmp_path):
        run_lottery_sweep(RidgeEnv, out_dir=tmp_path / "s", **SCREEN_KW)
        records = [
            json.loads(p.read_text())["result"]
            for p in sorted((tmp_path / "s").glob("trial-*.json"))
        ]
        assert any(r["proxy_screened"] > 0 for r in records)
        for r in records:
            assert r["proxy_accepted"] <= r["proxy_screened"]
            assert r["proxy_refresh_evals"] <= r["proxy_accepted"]

    def test_cold_start_matches_plain_dispatch(self, tmp_path):
        """With an unreachable corpus gate the screened run must be
        byte-identical to an unscreened one — the fallback path IS the
        plain path."""
        kw = dict(agents=("rw", "ga"), n_trials=2, n_samples=30, seed=3,
                  shared_cache=True)
        baseline = run_lottery_sweep(
            RidgeEnv, out_dir=tmp_path / "plain", **kw
        )
        cold = run_lottery_sweep(
            RidgeEnv, out_dir=tmp_path / "cold",
            proxy_screen=True, proxy_min_corpus=10_000_000, **kw
        )
        assert _normalized_records(cold) == _normalized_records(baseline)
        assert cold.proxy_screened == 0
        assert cold.proxy_accepted == 0
        assert cold.proxy_refresh_evals == 0
        assert cold.proxy_last_rmse == 0.0

    def test_export_rows_carry_proxy_columns(self, tmp_path):
        from repro.sweeps.export import report_to_rows

        report = run_lottery_sweep(
            RidgeEnv, out_dir=tmp_path / "s", **SCREEN_KW
        )
        rows = report_to_rows(report)
        assert sum(r["proxy_screened"] for r in rows) == report.proxy_screened
        assert sum(r["proxy_accepted"] for r in rows) == report.proxy_accepted

    def test_proxy_fingerprint_differs_from_plain(self, tmp_path):
        """A screened sweep must not resume into a plain sweep's dir —
        the screening decision is part of the fingerprint."""
        from repro.core.errors import ShardError

        kw = dict(agents=("rw",), n_trials=1, n_samples=10, seed=0,
                  shared_cache=True)
        out = tmp_path / "s"
        run_lottery_sweep(RidgeEnv, out_dir=out, **kw)
        with pytest.raises(ShardError, match="different sweep"):
            run_lottery_sweep(
                RidgeEnv, out_dir=out, resume=True,
                proxy_screen=True, proxy_min_corpus=8, **kw
            )


def _driven(driver, agent_name, seed, n_samples, knobs, store_dir):
    """One screened run of ``driver`` on a fresh RidgeEnv with a file
    tier and a dataset: everything the run decides, timing zeroed."""
    env = RidgeEnv()
    env.attach_shared_cache(SharedCacheStore(store_dir))
    dataset = ArchGymDataset(env.env_id)
    env.attach_dataset(dataset, source="prop")
    agent = make_agent(agent_name, env.action_space, seed=seed)
    result = driver(agent, env, n_samples=n_samples, seed=seed,
                    proxy_screen=True, **knobs)
    record = result.to_record()
    record["wall_time_s"] = record["sim_time_s"] = 0.0
    stats = env.stats
    return {
        "record": record,
        "rows": [t.to_record() for t in dataset],
        "proxy": (stats.proxy_screened, stats.proxy_accepted,
                  stats.proxy_refresh_evals, stats.proxy_last_rmse),
        "rng": agent.rng.bit_generator.state,
    }


def test_prop_one_body_matches_the_two_body_driver():
    """``run_agent``'s one generation body against the two-body driver
    it replaced (``serial_reference.run_agent_reference``): agents
    rw, ga, aco and rl; budgets that cut a generation; a corpus gate
    low enough to open mid-run, so one run takes both branches."""
    reached = set()

    @given(
        agent_name=st.sampled_from(["rw", "ga", "aco", "rl"]),
        seed=st.integers(0, 2**16),
        n_samples=st.integers(1, 90),
        oversample=st.integers(1, 8),
        refresh=st.floats(0.0, 0.5),
        min_corpus=st.integers(8, 24),
    )
    @settings(max_examples=40, deadline=None)
    def check(agent_name, seed, n_samples, oversample, refresh, min_corpus):
        knobs = dict(proxy_oversample=oversample, proxy_refresh=refresh,
                     proxy_min_corpus=min_corpus)
        runs = []
        for driver in (run_agent_reference, run_agent):
            with tempfile.TemporaryDirectory() as store_dir:
                runs.append(_driven(driver, agent_name, seed, n_samples,
                                    knobs, store_dir))
        assert runs[1] == runs[0]
        record = runs[0]["record"]
        assert len(record["reward_history"]) == n_samples
        if record["proxy_screened"]:
            reached.add("screened")
            if record["proxy_accepted"] < record["proxy_screened"]:
                reached.add("rejected")
        else:
            reached.add("plain")

    check()
    assert reached == {"plain", "screened", "rejected"}
