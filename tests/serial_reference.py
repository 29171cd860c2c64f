"""The point-at-a-time search driver, kept as the parity reference.

``repro.agents.base.run_agent`` drives every agent through the
generation protocol: ``propose_batch`` → ``step_batch`` →
``observe_batch``, with singleton batches for point-at-a-time agents.
This module holds the loop it replaced — one ``propose`` →
``env.step`` → ``observe`` per sample, with the same incumbent and
history bookkeeping — so the parity batteries can hold every dispatch
mode to a genuinely serial run. ``run_agent_serial`` takes
``run_agent``'s arguments, so :func:`serial_sweeps` can stand it in
where ``repro.sweeps.executor`` looks ``run_agent`` up.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional
from unittest import mock

import numpy as np

import repro.sweeps.executor as executor
from repro.agents.base import Agent, SearchResult
from repro.core.env import ArchGymEnv
from repro.core.errors import AgentError


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
        __, reward, terminated, truncated, info = env.step(action)
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


def serial_sweeps():
    """A context manager under which every in-process sweep trial runs
    on :func:`run_agent_serial` instead of ``run_agent``."""
    return mock.patch.object(executor, "run_agent", run_agent_serial)
