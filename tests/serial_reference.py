"""The point-at-a-time step and search driver, kept as the parity
reference.

``ArchGymEnv.step``, ``step_batch`` and ``step_batch_stream`` share one
path: a decision pass over the whole batch, one dispatch of its misses,
and a replay pass (``step`` is a one-point batch). ``reference_step``
is the independent serial step that path replaced: it looks each point
up in the local LRU, then in the shared tier (``get``), evaluates a
miss through the backend's one-point ``evaluate`` hook, and writes it
to the shared tier (``put``), all before the next point. The batteries
hold every step mode to it.

``repro.agents.base.run_agent`` drives every agent through the
generation protocol: ``propose_batch`` → ``step_batch`` →
``observe_batch``, with singleton batches for point-at-a-time agents.
``run_agent_serial`` is the loop it replaced — one ``propose`` →
``reference_step`` → ``observe`` per sample, with the same incumbent
and history bookkeeping — so the parity batteries can hold every
dispatch mode to a genuinely serial run. It takes ``run_agent``'s
arguments, so :func:`serial_sweeps` can stand it in where
``repro.sweeps.executor`` looks ``run_agent`` up.

``run_agent_reference`` is the generation driver as it stood with two
bodies, plain dispatch and oversample-and-rank, sharing their per-point
bookkeeping through an ``absorb`` closure (an exact top-k count, the
option since deleted, fixed at its default of none). The screening
property in ``tests/test_proxy_online.py`` holds ``run_agent``'s one
body to it.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Mapping, Optional
from unittest import mock

import numpy as np

import repro.sweeps.executor as executor
from repro.agents.base import Agent, SearchResult, check_count, check_proxy_knobs
from repro.core.dataset import Transition
from repro.core.env import ArchGymEnv, StepResult, canonical_action_key
from repro.core.errors import AgentError, EnvironmentError_, InvalidActionError


def reference_step(env: ArchGymEnv, action: Mapping[str, Any]) -> StepResult:
    """Evaluate one design point on ``env`` and return the gym 5-tuple,
    one cache tier and one backend call at a time."""
    if env._needs_reset:
        raise EnvironmentError_("call reset() before step()")
    try:
        env.action_space.validate(action)
    except Exception as exc:
        raise InvalidActionError(str(exc)) from exc

    key = (
        canonical_action_key(action)
        if env._eval_cache is not None or env._shared_cache is not None
        else None
    )
    metrics: Optional[Dict[str, float]] = None
    if env._eval_cache is not None and key is not None:
        cached = env._eval_cache.get(key)
        if cached is not None:
            env.stats.cache_hits += 1
            env._eval_cache.move_to_end(key)
            metrics = dict(cached)
    if metrics is None and env._shared_cache is not None and key is not None:
        shared = env._shared_cache.get(key)
        if shared is not None:
            env.stats.shared_cache_hits += 1
            metrics = dict(shared)
            env._remember_local(key, shared)
    if metrics is None:
        start = time.perf_counter()
        if env._backend is None:
            metrics = env.evaluate(action)
        else:
            metrics = env._backend.evaluate(env.env_id, action)
            env.stats.remote_evals += 1
            # A backend that knows which host answered (a multi-host
            # pool, or a single client reporting its base URL) gets the
            # evaluation attributed to that host.
            host = getattr(env._backend, "last_host", None)
            if host is not None:
                by_host = env.stats.remote_evals_by_host
                by_host[host] = by_host.get(host, 0) + 1
        env.stats.total_sim_time += time.perf_counter() - start

        missing = [m for m in env.observation_metrics if m not in metrics]
        if missing:
            raise EnvironmentError_(
                f"cost model did not report metrics {missing}; got {sorted(metrics)}"
            )
        if key is not None:
            env.stats.cache_misses += 1
            clean = {k: float(v) for k, v in metrics.items()}
            env._remember_local(key, clean)
            if env._shared_cache is not None:
                env._shared_cache.put(key, clean)

    reward = env.reward_spec.compute(metrics)
    observation = np.array(
        [metrics[m] for m in env.observation_metrics], dtype=np.float64
    )

    env._steps_in_episode += 1
    env.stats.total_steps += 1

    target_met = env.reward_spec.meets_target(metrics)
    terminated = bool(env.terminate_on_target and target_met)
    truncated = env._steps_in_episode >= env.episode_length
    if terminated or truncated:
        env._needs_reset = True

    info: Dict[str, Any] = {
        "metrics": dict(metrics),
        "target_met": target_met,
        "step": env._steps_in_episode,
    }

    if env.dataset is not None:
        env.dataset.append(
            Transition(
                action=dict(action),
                metrics={k: float(v) for k, v in metrics.items()},
                reward=float(reward),
                source=env._source_tag,
                step=env.stats.total_steps,
            )
        )

    return observation, float(reward), terminated, truncated, info


def run_agent_serial(
    agent: Agent,
    env: ArchGymEnv,
    n_samples: int,
    seed: Optional[int] = None,
    source_tag: Optional[str] = None,
    pipeline: bool = False,
    proxy_screen: bool = False,
    **proxy_knobs: Any,
) -> SearchResult:
    """Drive ``agent`` against ``env`` one design point at a time.

    ``pipeline`` is accepted and ignored (a dispatch knob); proxy
    screening ranks whole generations and has no serial form.
    """
    if proxy_screen:
        raise AgentError("the serial reference driver does not screen")
    if n_samples < 1:
        raise AgentError("n_samples must be >= 1")
    higher = env.reward_spec.higher_is_better
    if env.dataset is not None:
        env.set_source(source_tag or agent.hyperparam_tag())

    stats = env.stats
    sim_time_0 = stats.total_sim_time
    hits_0 = stats.cache_hits
    misses_0 = stats.cache_misses
    shared_0 = stats.shared_cache_hits
    remote_0 = stats.remote_evals
    hosts_0 = dict(stats.remote_evals_by_host)

    start = time.perf_counter()
    env.reset(seed=seed)

    best_fitness = -np.inf
    best_action: Dict[str, Any] = {}
    best_reward = 0.0
    best_metrics: Dict[str, float] = {}
    target_met = False
    reward_history: List[float] = []
    best_history: List[float] = []
    for _ in range(n_samples):
        action = agent.propose()
        __, reward, terminated, truncated, info = reference_step(env, action)
        fitness = reward if higher else -reward
        reward_history.append(reward)
        if fitness > best_fitness:
            best_fitness = fitness
            best_action = dict(action)
            best_reward = reward
            best_metrics = dict(info["metrics"])
        best_history.append(best_fitness)
        target_met = target_met or bool(info.get("target_met"))
        agent.observe(action, fitness, info["metrics"])
        if terminated or truncated:
            env.reset()

    return SearchResult(
        agent=agent.name,
        hyperparameters=agent.hyperparameters,
        n_samples=n_samples,
        best_action=best_action,
        best_fitness=float(best_fitness),
        best_reward=float(best_reward),
        best_metrics=best_metrics,
        reward_history=reward_history,
        best_fitness_history=best_history,
        target_met=target_met,
        wall_time_s=time.perf_counter() - start,
        sim_time_s=stats.total_sim_time - sim_time_0,
        cache_hits=stats.cache_hits - hits_0,
        cache_misses=stats.cache_misses - misses_0,
        shared_cache_hits=stats.shared_cache_hits - shared_0,
        remote_evals=stats.remote_evals - remote_0,
        remote_hosts={
            host: count - hosts_0.get(host, 0)
            for host, count in stats.remote_evals_by_host.items()
            if count - hosts_0.get(host, 0) > 0
        },
        proxy_last_rmse=float(stats.proxy_last_rmse),
    )


def run_agent_reference(
    agent: Agent,
    env: ArchGymEnv,
    n_samples: int,
    seed: Optional[int] = None,
    source_tag: Optional[str] = None,
    pipeline: bool = False,
    proxy_screen: bool = False,
    proxy_oversample: int = 4,
    proxy_refresh: float = 0.1,
    proxy_min_corpus: int = 64,
) -> SearchResult:
    """The two-body generation driver (see the module docstring)."""
    check_count("n_samples", n_samples)
    check_proxy_knobs(proxy_screen, proxy_oversample,
                      proxy_refresh, proxy_min_corpus)
    higher = env.reward_spec.higher_is_better
    if env.dataset is not None:
        env.set_source(source_tag or agent.hyperparam_tag())
    step_batch = env.step_batch_stream if pipeline else env.step_batch

    # Snapshot counters so a shared environment (e.g. the CLI's collect
    # command) attributes only this run's simulator cost to the result.
    sim_time_0 = env.stats.total_sim_time
    hits_0 = env.stats.cache_hits
    misses_0 = env.stats.cache_misses
    shared_0 = env.stats.shared_cache_hits
    remote_0 = env.stats.remote_evals
    hosts_0 = dict(env.stats.remote_evals_by_host)
    screened_0 = env.stats.proxy_screened
    accepted_0 = env.stats.proxy_accepted
    refresh_0 = env.stats.proxy_refresh_evals

    start = time.perf_counter()
    env.reset(seed=seed)

    best_fitness = -np.inf
    best_action: Dict[str, Any] = {}
    best_reward = 0.0
    best_metrics: Dict[str, float] = {}
    target_met = False
    reward_history: List[float] = []
    best_history: List[float] = []

    def absorb(action: Mapping[str, Any], reward: float,
               info: Mapping[str, Any]) -> float:
        """The per-point bookkeeping of plain and screened dispatch —
        one copy, so the two paths cannot drift apart and break the
        byte-parity guarantee. Returns the fitness."""
        nonlocal best_fitness, best_action, best_reward, best_metrics
        nonlocal target_met
        fitness = reward if higher else -reward
        reward_history.append(reward)
        if fitness > best_fitness:
            best_fitness = fitness
            best_action = dict(action)
            best_reward = reward
            best_metrics = dict(info["metrics"])
        best_history.append(best_fitness)
        target_met = target_met or bool(info.get("target_met"))
        return fitness

    proxy = None
    refresh_rng: Optional[np.random.Generator] = None
    if proxy_screen:
        # Imported lazily, so importing agents or running unscreened
        # never loads the proxy package.
        from repro.proxy.online import OnlineProxy

        proxy_seed = 0 if seed is None else int(seed)
        proxy = OnlineProxy(
            env.action_space,
            env.observation_metrics,
            min_corpus=proxy_min_corpus,
            seed=proxy_seed,
            # An intentionally unreachable min_corpus (pinning the
            # run to the cold path) must not trip the ctor's
            # max_fit_samples >= min_corpus invariant.
            max_fit_samples=max(2048, proxy_min_corpus),
        )
        refresh_rng = np.random.default_rng(proxy_seed + 1000003)

    def predicted_fitness(metrics: Mapping[str, float]) -> float:
        reward = env.reward_spec.compute(metrics)
        return reward if higher else -reward

    remaining = n_samples
    while remaining > 0:
        proposals = agent.propose_batch()
        if not proposals:
            raise AgentError(
                f"{agent.name}.propose_batch() returned no proposals"
            )
        screen = False
        if proxy is not None:
            # Harvest whatever corpus the shared tier has accumulated
            # (other trials' points included) and refit if warranted.
            # Pure reads plus the proxy's own seeded RNG: while the
            # cold-start gate stays shut the run remains byte-
            # identical to an unscreened one.
            if env.shared_cache is not None:
                proxy.harvest(env.shared_cache)
            proxy.maybe_refit()
            screen = proxy.ready and len(proposals) > 1

        if not screen:
            # Plain dispatch (no proxy, or cold start).
            # A generation larger than the remaining budget is cut to
            # it — a point-at-a-time loop would have stopped
            # mid-generation at exactly this point.
            proposals = proposals[:remaining]
            fitnesses: List[float] = []
            metrics_list: List[Dict[str, float]] = []
            terminated = truncated = False
            for action, step_result in zip(proposals, step_batch(proposals)):
                __, reward, terminated, truncated, info = step_result
                fitnesses.append(absorb(action, reward, info))
                metrics_list.append(info["metrics"])
                if proxy is not None:
                    proxy.observe(action, info["metrics"])
            agent.observe_batch(proposals, fitnesses, metrics_list)
            remaining -= len(proposals)

            # step_batch resets mid-batch episode ends itself; a batch
            # whose *final* point closed an episode leaves the reset to
            # the driver, exactly like step().
            if terminated or truncated:
                env.reset()
            continue

        # -- oversample-and-rank ----------------------------------
        # The whole proposed generation is the candidate pool; only
        # the proxy's top-k (plus the honesty-refresh slice) is
        # really simulated, so each unit of sample budget screens
        # ``oversample×`` candidates.
        pool = proposals
        k = max(1, math.ceil(len(pool) / proxy_oversample))
        k = min(k, len(pool))
        predictions = proxy.predict_batch(pool)
        pred_fitness = [predicted_fitness(m) for m in predictions]
        # Best-first by predicted fitness; ties break by proposal
        # index so the ranking is deterministic.
        order = sorted(
            range(len(pool)), key=lambda i: (-pred_fitness[i], i)
        )
        accepted = set(order[:k])
        rejected = [i for i in range(len(pool)) if i not in accepted]
        refresh: set = set()
        if rejected and proxy_refresh > 0.0:
            n_refresh = min(len(rejected), math.ceil(proxy_refresh * k))
            picks = refresh_rng.choice(
                len(rejected), size=n_refresh, replace=False
            )
            refresh = {rejected[int(j)] for j in picks}
        eval_idx = sorted(accepted | refresh)[:remaining]
        eval_actions = [pool[i] for i in eval_idx]
        real: Dict[int, Any] = {}
        terminated = truncated = False
        for i, step_result in zip(eval_idx, step_batch(eval_actions)):
            __, reward, terminated, truncated, info = step_result
            real[i] = (absorb(pool[i], reward, info), dict(info["metrics"]))
            proxy.observe(pool[i], info["metrics"])
        env.stats.proxy_screened += len(pool)
        env.stats.proxy_accepted += len(eval_idx)
        env.stats.proxy_refresh_evals += sum(
            1 for i in eval_idx if i in refresh
        )
        env.stats.proxy_last_rmse = proxy.last_rmse
        # The agent observes the full generation in proposal order:
        # ground truth where simulated, the surrogate's prediction
        # elsewhere. The incumbent/result bookkeeping (absorb) only
        # ever saw real evaluations.
        fitnesses = []
        metrics_list = []
        for i in range(len(pool)):
            fitness, metrics = real.get(i, (pred_fitness[i], predictions[i]))
            fitnesses.append(fitness)
            metrics_list.append(metrics)
        agent.observe_batch(pool, fitnesses, metrics_list)
        remaining -= len(eval_idx)
        if terminated or truncated:
            env.reset()

    return SearchResult(
        agent=agent.name,
        hyperparameters=agent.hyperparameters,
        n_samples=n_samples,
        best_action=best_action,
        best_fitness=float(best_fitness),
        best_reward=float(best_reward),
        best_metrics=best_metrics,
        reward_history=reward_history,
        best_fitness_history=best_history,
        target_met=target_met,
        wall_time_s=time.perf_counter() - start,
        sim_time_s=env.stats.total_sim_time - sim_time_0,
        cache_hits=env.stats.cache_hits - hits_0,
        cache_misses=env.stats.cache_misses - misses_0,
        shared_cache_hits=env.stats.shared_cache_hits - shared_0,
        remote_evals=env.stats.remote_evals - remote_0,
        remote_hosts={
            host: count - hosts_0.get(host, 0)
            for host, count in env.stats.remote_evals_by_host.items()
            if count - hosts_0.get(host, 0) > 0
        },
        proxy_screened=env.stats.proxy_screened - screened_0,
        proxy_accepted=env.stats.proxy_accepted - accepted_0,
        proxy_refresh_evals=env.stats.proxy_refresh_evals - refresh_0,
        proxy_last_rmse=float(env.stats.proxy_last_rmse),
    )


def serial_sweeps():
    """A context manager under which every in-process sweep trial runs
    on :func:`run_agent_serial` instead of ``run_agent``."""
    return mock.patch.object(executor, "run_agent", run_agent_serial)
