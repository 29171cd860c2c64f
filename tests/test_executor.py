"""Tests for the parallel sweep executor and the evaluation cache.

The two load-bearing guarantees of the execution engine:

1. **Worker invariance** — ``run_lottery_sweep`` returns bit-identical
   reports (fitness distributions, hyperparameters, datasets) for any
   ``workers`` count, because every trial's seeds are drawn up front in
   serial order.
2. **Cache exactness** — the design-point cache answers repeated
   queries without touching the cost model, with exact hit/miss
   accounting, and never changes any result.
"""

import threading
import time

import numpy as np
import pytest

import pickle

from repro.core.dataset import ArchGymDataset, Transition
from repro.core.env import ArchGymEnv, canonical_action_key
from repro.core.errors import ArchGymError, ExecutorError
from repro.core.rewards import TargetReward
from repro.core.spaces import Categorical, CompositeSpace, Discrete
from repro.sweeps import BackendSpec, TrialTask, execute_trials, run_lottery_sweep
from repro.sweeps.executor import build_backend, run_trial


class CountingEnv(ArchGymEnv):
    """16-point space; counts real cost-model invocations."""

    env_id = "Counting-v0"

    def __init__(self):
        super().__init__(
            action_space=CompositeSpace(
                [Discrete("x", 0, 7, 1), Categorical("m", ("a", "b"))]
            ),
            observation_metrics=["cost"],
            reward_spec=TargetReward("cost", target=1.0),
            episode_length=10_000,
        )
        self.evaluations = 0

    def evaluate(self, action):
        self.evaluations += 1
        return {"cost": 1.0 + abs(action["x"] - 5) + (action["m"] == "a")}


class SlowEnv(CountingEnv):
    """Same model, but every real evaluation pays a simulator delay."""

    env_id = "Slow-v0"
    DELAY_S = 0.004

    def evaluate(self, action):
        time.sleep(self.DELAY_S)
        return super().evaluate(action)


class CallCountingFactory:
    """Env factory that records how many environments were built."""

    def __init__(self):
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return CountingEnv()


class ClosableEnv(CountingEnv):
    """Records close() calls (the executor must not leak environments)."""

    env_id = "Closable-v0"

    def __init__(self):
        super().__init__()
        self.closed = False

    def close(self):
        self.closed = True


class PoisonedFactory:
    """Raises on construction — a trial that dies immediately."""

    def __call__(self):
        raise RuntimeError("poisoned env factory")


class VerySlowEnv(CountingEnv):
    """Each evaluation pays a long simulator delay (fail-fast timing)."""

    env_id = "VerySlow-v0"

    def evaluate(self, action):
        time.sleep(0.25)
        return super().evaluate(action)


class TestCanonicalActionKey:
    def test_order_insensitive(self):
        assert canonical_action_key({"a": 1, "b": 2}) == canonical_action_key(
            {"b": 2, "a": 1}
        )

    def test_numpy_scalars_unwrapped(self):
        assert canonical_action_key({"x": np.int64(4)}) == canonical_action_key(
            {"x": 4}
        )

    def test_distinct_designs_distinct_keys(self):
        assert canonical_action_key({"x": 1}) != canonical_action_key({"x": 2})

    def test_sequence_values_hashable(self):
        key = canonical_action_key({"perm": [1, 2, 3]})
        assert hash(key) == hash(canonical_action_key({"perm": (1, 2, 3)}))

    def test_ndarray_and_nested_values_hashable(self):
        key = canonical_action_key({"w": np.array([1, 2]), "n": [[1], [2]]})
        assert hash(key) == hash(
            canonical_action_key({"w": [1, 2], "n": ((1,), (2,))})
        )


class TestEvaluationCache:
    def test_replayed_trajectory_exact_counters(self):
        env = CountingEnv()
        env.enable_cache()
        rng = np.random.default_rng(0)
        trajectory = [env.action_space.sample(rng) for _ in range(25)]
        distinct = len({canonical_action_key(a) for a in trajectory})

        env.reset(seed=0)
        first = [env.step(a)[0].copy() for a in trajectory]
        assert env.stats.cache_misses == distinct
        assert env.stats.cache_hits == len(trajectory) - distinct
        assert env.evaluations == distinct

        # full replay: every step is a hit, the cost model never runs
        replay = [env.step(a)[0].copy() for a in trajectory]
        assert env.stats.cache_hits == 2 * len(trajectory) - distinct
        assert env.stats.cache_misses == distinct
        assert env.evaluations == distinct
        for obs_a, obs_b in zip(first, replay):
            assert np.array_equal(obs_a, obs_b)

    def test_cache_disabled_by_default(self):
        env = CountingEnv()
        env.reset(seed=0)
        action = {"x": 3, "m": "a"}
        env.step(action)
        env.step(action)
        assert env.evaluations == 2
        assert env.stats.cache_hits == 0 and env.stats.cache_misses == 0

    def test_clear_and_disable(self):
        env = CountingEnv()
        env.enable_cache()
        env.reset(seed=0)
        env.step({"x": 3, "m": "a"})
        assert env.cache_info()["size"] == 1
        env.clear_cache()
        assert env.cache_info()["size"] == 0
        assert env.cache_enabled
        env.disable_cache()
        assert not env.cache_enabled

    def test_cached_steps_still_logged(self):
        env = CountingEnv()
        env.enable_cache()
        dataset = ArchGymDataset()
        env.attach_dataset(dataset)
        env.reset(seed=0)
        env.step({"x": 3, "m": "a"})
        env.step({"x": 3, "m": "a"})
        assert len(dataset) == 2  # the hit is still a real agent step

    def test_cache_does_not_change_results(self):
        kw = dict(agents=("rw", "ga"), n_trials=2, n_samples=30, seed=3)
        plain = run_lottery_sweep(CountingEnv, cache=False, **kw)
        cached = run_lottery_sweep(CountingEnv, cache=True, **kw)
        for agent in kw["agents"]:
            assert plain.fitness_distribution(agent) == cached.fitness_distribution(
                agent
            )
        assert plain.cache_hits == 0
        assert cached.cache_hits > 0

    def test_cached_sweep_is_faster(self):
        """The acceptance benchmark: on a small design space the cache
        skips most simulator calls, beating the uncached serial path."""
        kw = dict(agents=("rw", "ga"), n_trials=2, n_samples=60, seed=0)
        t0 = time.perf_counter()
        plain = run_lottery_sweep(SlowEnv, cache=False, **kw)
        t_plain = time.perf_counter() - t0
        t0 = time.perf_counter()
        cached = run_lottery_sweep(SlowEnv, cache=True, **kw)
        t_cached = time.perf_counter() - t0

        # every trial revisits designs: 60 samples over a 16-point space
        assert cached.cache_hits >= 4 * (60 - 16)
        assert cached.sim_time_s < plain.sim_time_s
        assert t_cached < t_plain * 0.8, (
            f"cached sweep {t_cached:.3f}s not faster than uncached {t_plain:.3f}s"
        )


class TestCacheBound:
    def test_lru_eviction(self):
        env = CountingEnv()
        env.enable_cache(maxsize=2)
        env.reset(seed=0)
        a1, a2, a3 = ({"x": i, "m": "a"} for i in (1, 2, 3))
        env.step(a1)
        env.step(a2)
        env.step(a3)  # evicts a1
        assert env.cache_info()["size"] == 2
        env.step(a1)  # re-simulated, not served stale
        assert env.evaluations == 4
        assert env.stats.cache_hits == 0

    def test_nonpositive_maxsize_is_noop(self):
        env = CountingEnv()
        env.enable_cache(maxsize=0)
        assert not env.cache_enabled


class TestBuiltinEnvSingleCacheLayer:
    """The envs' old inner ``EvaluationCache`` was folded into the base
    class: counters must reflect *actual* simulator runs, and
    ``cache=False`` must really pay the simulator."""

    def test_builtin_env_counters_are_exact(self):
        from repro.envs.dram import DRAMGymEnv

        env = DRAMGymEnv(workload="stream", n_requests=50)
        env.reset(seed=0)
        action = env.random_action()
        env.step(action)
        sim_time_after_first = env.stats.total_sim_time
        env.reset()
        env.step(action)
        assert env.stats.cache_hits == 1 and env.stats.cache_misses == 1
        assert env.stats.total_sim_time == sim_time_after_first

    def test_no_cache_trial_disables_builtin_memo(self):
        import functools

        from repro.envs.maestro_env import MaestroGymEnv

        factory = functools.partial(MaestroGymEnv, workload="resnet18")
        task = TrialTask(
            index=0, agent="rw", hyperparams={"locality": 0.0},
            agent_seed=1, run_seed=1, n_samples=8,
            env_factory=factory, cache=False,
        )
        res = run_trial(task).result
        assert res.cache_hits == 0 and res.cache_misses == 0

    def test_factory_cache_opt_out_respected_by_default(self):
        """A factory passing cache_size=0 (the Fig. 8 methodology) must
        stay uncached unless the caller forces cache=True."""
        import functools

        from repro.envs.maestro_env import MaestroGymEnv

        factory = functools.partial(MaestroGymEnv, cache_size=0)
        task = TrialTask(
            index=0, agent="rw", hyperparams={"locality": 0.0},
            agent_seed=1, run_seed=1, n_samples=8, env_factory=factory,
        )
        res = run_trial(task).result
        assert res.cache_hits == 0 and res.cache_misses == 0

    def test_custom_cache_size_survives_executor(self):
        from repro.envs.maestro_env import MaestroGymEnv

        built = []

        def factory():
            built.append(MaestroGymEnv(cache_size=10_000))
            return built[-1]

        task = TrialTask(
            index=0, agent="rw", hyperparams={"locality": 0.0},
            agent_seed=1, run_seed=1, n_samples=4,
            env_factory=factory, cache=True,
        )
        run_trial(task)
        assert built[0]._eval_cache_maxsize == 10_000  # not shrunk to default


class TestExecutor:
    def _tasks(self, n=4, collect=False, factory=CountingEnv):
        return [
            TrialTask(
                index=i, agent="rw", hyperparams={"locality": 0.2},
                agent_seed=100 + i, run_seed=200 + i, n_samples=10,
                env_factory=factory, collect=collect, cache=True,
            )
            for i in range(n)
        ]

    def test_empty_tasks(self):
        assert execute_trials([], workers=2) == []

    def test_bad_worker_count(self):
        with pytest.raises(ExecutorError):
            execute_trials(self._tasks(), workers=0)

    @pytest.mark.parametrize("workers", [1.5, True])
    def test_non_integer_worker_count(self, workers):
        with pytest.raises(ExecutorError, match="workers"):
            execute_trials(self._tasks(), workers=workers)

    def test_unpicklable_factory_fails_fast(self):
        tasks = self._tasks(factory=lambda: CountingEnv())
        with pytest.raises(ExecutorError, match="pickl"):
            execute_trials(tasks, workers=2)
        # the in-process path has no pickling requirement
        outcomes = execute_trials(tasks, workers=1)
        assert len(outcomes) == len(tasks)

    def test_outcomes_ordered_and_tagged(self):
        outcomes = execute_trials(self._tasks(n=5, collect=True), workers=2)
        assert [o.index for o in outcomes] == list(range(5))
        assert all(o.env_id == "Counting-v0" for o in outcomes)
        assert all(len(o.transitions) == 10 for o in outcomes)
        assert all(isinstance(o.transitions[0], Transition) for o in outcomes)

    def test_run_trial_is_self_contained(self):
        task = self._tasks(n=1, collect=True)[0]
        a = run_trial(task)
        b = run_trial(task)
        assert a.result.best_fitness == b.result.best_fitness
        assert [t.to_record() for t in a.transitions] == [
            t.to_record() for t in b.transitions
        ]

    def test_search_result_carries_env_accounting(self):
        outcome = run_trial(self._tasks(n=1)[0])
        res = outcome.result
        assert res.cache_hits + res.cache_misses == res.n_samples
        assert res.sim_time_s >= 0.0

    def test_run_trial_closes_its_env(self):
        built = []

        def factory():
            built.append(ClosableEnv())
            return built[-1]

        run_trial(self._tasks(n=1, factory=factory)[0])
        assert built[0].closed

    def test_run_trial_closes_env_on_failure(self):
        class BrokenEnv(ClosableEnv):
            def evaluate(self, action):
                raise RuntimeError("simulator crashed")

        built = []

        def factory():
            built.append(BrokenEnv())
            return built[-1]

        task = TrialTask(
            index=0, agent="rw", hyperparams={"locality": 0.2},
            agent_seed=1, run_seed=1, n_samples=4, env_factory=factory,
        )
        with pytest.raises(RuntimeError, match="simulator crashed"):
            run_trial(task)
        assert built and built[0].closed

    def test_on_outcome_streams_every_trial(self):
        streamed = []
        outcomes = execute_trials(
            self._tasks(n=4), workers=1, on_outcome=streamed.append
        )
        assert [o.index for o in streamed] == [0, 1, 2, 3]
        assert outcomes == streamed

    def test_keep_outcomes_false_drops_results(self):
        streamed = []
        result = execute_trials(
            self._tasks(n=3), workers=1,
            on_outcome=streamed.append, keep_outcomes=False,
        )
        assert result == []
        assert len(streamed) == 3

    def test_on_outcome_streams_under_process_pool(self):
        streamed = []
        outcomes = execute_trials(
            self._tasks(n=4), workers=2, on_outcome=streamed.append
        )
        # completion order may vary; the streamed set must not
        assert sorted(o.index for o in streamed) == [0, 1, 2, 3]
        assert [o.index for o in outcomes] == [0, 1, 2, 3]


class TestBackendSpec:
    """The serializable "where does evaluate() run" half of a task.

    Live service integration is covered in tests/test_service.py; this
    battery pins the spec's validation and pickle contract, which the
    process pool depends on.
    """

    def test_default_is_local(self):
        """A task without a spec is the one way to say in-process."""
        task = TrialTask(
            index=0, agent="rw", hyperparams={}, agent_seed=1, run_seed=1,
            n_samples=5, env_factory=CountingEnv,
        )
        assert task.backend is None
        assert build_backend(task.backend) is None

    def test_task_without_backend_runs_locally(self):
        task = TrialTask(
            index=0, agent="rw", hyperparams={"locality": 0.2},
            agent_seed=1, run_seed=1, n_samples=5, env_factory=CountingEnv,
        )
        assert run_trial(task).result.remote_evals == 0

    def test_remote_requires_service_url(self):
        with pytest.raises(ExecutorError, match="service_url"):
            BackendSpec(service_urls=())

    def test_remote_spec_builds_remote_backend(self):
        """One URL builds a one-host pool under the spec's policy."""
        from repro.service import RemoteBackend

        spec = BackendSpec(
            service_urls=("http://127.0.0.1:1",),
            env_kwargs={"workload": "stream"}, timeout_s=5.0, retries=1,
        )
        backend = spec.build()
        assert isinstance(backend, RemoteBackend)
        assert backend.env_kwargs == {"workload": "stream"}
        assert backend.pool.urls == ["http://127.0.0.1:1"]
        (host,) = backend.pool._hosts
        assert host.client.timeout_s == 5.0
        assert host.client.retries == 1

    def test_resolve_execution_backend_precedence(self):
        from repro.sweeps import resolve_execution_backend

        # no service: no backend; shared cache falls back to the out-dir
        backend, server_cache, cache_dir = resolve_execution_backend(
            None, True, "/tmp/run"
        )
        assert backend is None and server_cache is False
        assert cache_dir.endswith("shared-cache")
        # service + shared cache: the service hosts the cache, even
        # when an out-dir is also present (cross-machine reuse wins)
        backend, server_cache, cache_dir = resolve_execution_backend(
            "http://127.0.0.1:1", True, "/tmp/run",
            env_kwargs={"workload": "stream"},
        )
        assert backend.service_urls == ("http://127.0.0.1:1",)
        assert backend.env_kwargs == {"workload": "stream"}
        assert server_cache is True and cache_dir is None

    def test_resolve_execution_backend_policy_overrides(self):
        from repro.sweeps import resolve_execution_backend

        backend, _, _ = resolve_execution_backend(
            "http://127.0.0.1:1", False, None, timeout_s=5.0, retries=0
        )
        assert backend.timeout_s == 5.0 and backend.retries == 0
        defaulted, _, _ = resolve_execution_backend(
            "http://127.0.0.1:1", False, None
        )
        spec = BackendSpec(("http://127.0.0.1:1",))
        assert defaulted.timeout_s == spec.timeout_s
        assert defaulted.retries == spec.retries

    @pytest.mark.parametrize("retries", [1.5, True])
    def test_non_integer_retries_rejected_before_manifest(self, tmp_path, retries):
        """The CLI's ``--service-retries`` is int-typed; a library caller
        is not, and used to get ``sweep.json`` written and then a bare
        ``TypeError`` from the first trial's first request."""
        out = tmp_path / "run"
        with pytest.raises(ExecutorError, match="retries"):
            run_lottery_sweep(
                CountingEnv, agents=["rw"], n_trials=1, n_samples=4,
                service_url="http://127.0.0.1:9", service_retries=retries,
                out_dir=out,
            )
        assert not (out / "sweep.json").exists()

    def test_spec_and_task_pickle(self):
        """The whole point of a spec: it crosses the process boundary
        even though a live HTTP client would not."""
        spec = BackendSpec(("http://127.0.0.1:1",))
        task = TrialTask(
            index=0, agent="rw", hyperparams={}, agent_seed=1, run_seed=1,
            n_samples=5, env_factory=CountingEnv, backend=spec,
            server_cache=True,
        )
        clone = pickle.loads(pickle.dumps(task))
        assert clone.backend == spec
        assert clone.server_cache is True

    def test_server_cache_without_backend_rejected(self):
        """The server tier rides the trial's backend pool; a task
        without one is refused instead of building a private client."""
        task = TrialTask(
            index=0, agent="rw", hyperparams={}, agent_seed=1, run_seed=1,
            n_samples=5, env_factory=CountingEnv, server_cache=True,
        )
        with pytest.raises(ExecutorError, match="no backend"):
            run_trial(task)


class TestFailFastShutdown:
    def test_worker_failure_propagates(self):
        tasks = [
            TrialTask(
                index=0, agent="rw", hyperparams={"locality": 0.2},
                agent_seed=1, run_seed=1, n_samples=2,
                env_factory=PoisonedFactory(),
            )
        ]
        with pytest.raises(RuntimeError, match="poisoned"):
            execute_trials(tasks, workers=2)

    def test_poisoned_trial_aborts_without_draining_pool(self):
        """One bad trial must abort the sweep promptly — not wait out
        every already-running slow worker on pool exit."""
        slow = [
            TrialTask(
                index=i, agent="rw", hyperparams={"locality": 0.2},
                agent_seed=i, run_seed=i, n_samples=10,  # ~2.5s each
                env_factory=VerySlowEnv,
            )
            for i in range(1, 4)
        ]
        poisoned = TrialTask(
            index=0, agent="rw", hyperparams={"locality": 0.2},
            agent_seed=0, run_seed=0, n_samples=2,
            env_factory=PoisonedFactory(),
        )
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="poisoned"):
            execute_trials([poisoned] + slow, workers=2)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.5, (
            f"fail-fast abort took {elapsed:.2f}s — the executor waited "
            "for in-flight slow trials instead of shutting down"
        )

    def test_abort_leaves_no_pool_thread_alive(self):
        """The abort joins the pool's manager thread (and so the call
        queue's feeder thread): a thread still running when the next
        caller forks can hang the child."""
        before = set(threading.enumerate())
        tasks = [
            TrialTask(
                index=i, agent="rw", hyperparams={"locality": 0.2},
                agent_seed=i, run_seed=i, n_samples=2,
                env_factory=PoisonedFactory(),
            )
            for i in range(2)
        ]
        with pytest.raises(RuntimeError, match="poisoned"):
            execute_trials(tasks, workers=2)
        alive = [t for t in threading.enumerate() if t not in before and t.is_alive()]
        assert not alive, alive

    def test_failed_sweep_process_exits_promptly(self):
        """In-flight workers are terminated on failure — otherwise the
        interpreter's exit hook joins them and `python -m repro sweep`
        hangs for up to a full trial after printing the error."""
        import os
        import subprocess
        import sys

        script = (
            "import time\n"
            "from repro.core.rewards import TargetReward\n"
            "from repro.core.spaces import CompositeSpace, Discrete\n"
            "from repro.core.env import ArchGymEnv\n"
            "from repro.sweeps import TrialTask, execute_trials\n"
            "class Slow(ArchGymEnv):\n"
            "    env_id = 'Slow-v0'\n"
            "    def __init__(self):\n"
            "        super().__init__(CompositeSpace([Discrete('x', 0, 7, 1)]),\n"
            "                         ['cost'], TargetReward('cost', target=1.0),\n"
            "                         episode_length=10_000)\n"
            "    def evaluate(self, action):\n"
            "        time.sleep(1.0)\n"
            "        return {'cost': 1.0}\n"
            "def boom():\n"
            "    raise RuntimeError('poisoned')\n"
            "tasks = [TrialTask(index=0, agent='rw', hyperparams={},\n"
            "                   agent_seed=0, run_seed=0, n_samples=2,\n"
            "                   env_factory=boom)] + [\n"
            "    TrialTask(index=i, agent='rw', hyperparams={}, agent_seed=i,\n"
            "              run_seed=i, n_samples=8, env_factory=Slow)\n"
            "    for i in range(1, 4)]\n"
            "try:\n"
            "    execute_trials(tasks, workers=2)\n"
            "except RuntimeError:\n"
            "    pass\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", script], check=True, timeout=30, env=env
        )
        elapsed = time.perf_counter() - start
        # in-flight trials are ~8s each; a prompt exit is well under that
        assert elapsed < 5.0, (
            f"process took {elapsed:.1f}s to exit after a failed sweep — "
            "orphaned workers were joined instead of terminated"
        )


class TestParallelSweep:
    KW = dict(agents=("rw", "ga"), n_trials=2, n_samples=15, seed=9)

    def test_workers_1_vs_4_identical_distributions(self):
        serial = run_lottery_sweep(CountingEnv, workers=1, **self.KW)
        parallel = run_lottery_sweep(CountingEnv, workers=4, **self.KW)
        for agent in self.KW["agents"]:
            assert serial.fitness_distribution(agent) == parallel.fitness_distribution(
                agent
            )
            assert [r.hyperparameters for r in serial.results[agent]] == [
                r.hyperparameters for r in parallel.results[agent]
            ]
            assert [r.best_action for r in serial.results[agent]] == [
                r.best_action for r in parallel.results[agent]
            ]
        assert serial.cache_hits == parallel.cache_hits
        assert serial.cache_misses == parallel.cache_misses

    def test_dataset_worker_invariant(self):
        serial = run_lottery_sweep(
            CountingEnv, workers=1, collect_dataset=True, **self.KW
        )
        parallel = run_lottery_sweep(
            CountingEnv, workers=3, collect_dataset=True, **self.KW
        )
        assert serial.dataset is not None and parallel.dataset is not None
        assert [t.to_record() for t in serial.dataset] == [
            t.to_record() for t in parallel.dataset
        ]
        assert serial.dataset.sources == parallel.dataset.sources

    def test_report_records_execution_metadata(self):
        report = run_lottery_sweep(CountingEnv, workers=2, cache=True, **self.KW)
        assert report.workers == 2
        assert report.wall_time_s > 0.0
        assert "eval cache" in report.print_table()


class TestFailFastValidation:
    def test_unknown_agent_rejected_before_any_trial(self):
        factory = CallCountingFactory()
        with pytest.raises(ArchGymError, match="nope"):
            run_lottery_sweep(
                factory, agents=("rw", "ga", "nope"), n_trials=2, n_samples=10
            )
        assert factory.calls == 0  # no environment was even built

    def test_empty_agents_rejected(self):
        with pytest.raises(ArchGymError, match="at least one"):
            run_lottery_sweep(CountingEnv, agents=(), n_trials=1, n_samples=5)

    def test_valid_agents_accepted(self):
        report = run_lottery_sweep(
            CountingEnv, agents=("gamma",), n_trials=1, n_samples=8
        )
        assert len(report.results["gamma"]) == 1

    @pytest.mark.parametrize("count, error", [
        ({"n_samples": 20.5}, ArchGymError),
        ({"n_samples": True}, ArchGymError),
        ({"n_trials": 1.5}, ArchGymError),
        ({"workers": 1.5}, ExecutorError),
        ({"workers": True}, ExecutorError),
    ], ids=["n_samples-float", "n_samples-bool", "n_trials-float",
            "workers-float", "workers-bool"])
    def test_non_integer_counts_rejected_before_manifest(
        self, tmp_path, count, error
    ):
        """The CLI's count flags are int-typed; a library caller is not.
        A float ``n_samples`` used to get ``sweep.json`` written and then
        a bare ``TypeError`` from the trial (so the corrected rerun was
        refused as a different sweep), a float ``n_trials`` a bare
        ``TypeError``, ``n_samples=True`` ran one sample, and a float or
        bool ``workers`` was recorded as the report's worker count."""
        from repro.cli import RegistryEnvFactory

        out = tmp_path / "run"
        kwargs = dict(
            agents=("rw",), n_trials=1, n_samples=10, workers=1, out_dir=out
        )
        kwargs.update(count)
        with pytest.raises(error, match=next(iter(count))):
            run_lottery_sweep(RegistryEnvFactory("DRAMGym-v0"), **kwargs)
        assert not (out / "sweep.json").exists()


class TestDatasetMergeHelpers:
    def test_renumber_steps(self):
        ds = ArchGymDataset(
            "Counting-v0",
            [
                Transition(action={"x": i}, metrics={"c": 1.0}, reward=0.0, step=1)
                for i in range(4)
            ],
        )
        ds.renumber_steps()
        assert [t.step for t in ds] == [1, 2, 3, 4]

    def test_merge_all_empty_with_env_id(self):
        merged = ArchGymDataset.merge_all([], env_id="Counting-v0")
        assert len(merged) == 0 and merged.env_id == "Counting-v0"

    def test_merge_all_empty_without_env_id_raises(self):
        with pytest.raises(ArchGymError):
            ArchGymDataset.merge_all([])
