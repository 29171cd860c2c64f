"""Agent abstraction and the search driver loop (paper §3.2, §4).

The paper decomposes every search algorithm into a *policy* plus
*hyperparameters*, interacting with the environment through three
signals (Q1–Q3 of Table 2):

- Q1 — the agent **proposes** an action (parameter selection),
- Q2 — the environment returns a reward/fitness the agent **observes**
  to fine-tune its policy,
- Q3 — the exploration/exploitation balance lives in the agent's
  hyperparameters, fixed at construction.

:class:`Agent` encodes exactly this interface; :func:`run_agent` is the
standard driver every experiment uses — it converts environment rewards
into a maximize-me *fitness* (FARSI's distance-to-budget is
lower-is-better), tracks the incumbent, and resets episodes.

The protocol is *generation-native*: population-based agents (GA, ACO)
propose whole generations at once through :meth:`Agent.propose_batch`
and absorb the scored generation through :meth:`Agent.observe_batch`,
so the driver evaluates an entire generation in one
:meth:`~repro.core.env.ArchGymEnv.step_batch` call — one round trip to
a remote evaluation service instead of one per design point. The
defaults are singleton wrappers over :meth:`Agent.propose` /
:meth:`Agent.observe`, so every point-at-a-time agent runs the same
loop unchanged, byte-identical to ``propose`` → ``env.step`` →
``observe``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.env import ArchGymEnv
from repro.core.errors import AgentError
from repro.core.spaces import CompositeSpace

__all__ = ["Agent", "SearchResult", "check_count", "check_proxy_knobs", "run_agent"]


def _stable_value_fmt(value: Any, nested: bool = False) -> str:
    """Order-insensitive rendering for hyperparameter values.

    ``str(dict)`` follows insertion order, so equal dicts inserted in
    different orders used to produce different provenance tags. Dicts
    are therefore rendered with sorted keys; everything else keeps its
    plain formatting (``str`` at the top level, ``repr`` inside a dict
    — exactly what ``str(dict)`` itself would have produced).
    """
    if isinstance(value, dict):
        items = ", ".join(
            f"{k!r}: {_stable_value_fmt(v, nested=True)}"
            for k, v in sorted(value.items())
        )
        return "{" + items + "}"
    return repr(value) if nested else f"{value}"


def _jsonify(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays to JSON-native values."""
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


class Agent:
    """Base class for all search agents.

    Subclasses implement :meth:`propose` (Q1) and :meth:`observe` (Q2),
    and expose their exploration hyperparameters (Q3) via
    :attr:`hyperparameters`.
    """

    #: Short algorithm tag used in dataset provenance and result tables.
    name: str = "agent"

    def __init__(self, space: CompositeSpace, seed: int = 0, **hyperparams: Any) -> None:
        if len(space) == 0:
            raise AgentError("search space has no parameters")
        self.space = space
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self._hyperparams: Dict[str, Any] = dict(hyperparams)

    @property
    def hyperparameters(self) -> Dict[str, Any]:
        """The agent's exploration/exploitation knobs (Q3)."""
        return dict(self._hyperparams)

    def hyperparam_tag(self) -> str:
        """A stable provenance string: ``name[k=v,...]``.

        Values are rendered canonically: dict-valued hyperparameters
        are formatted with sorted keys (recursively), so two agents
        built from equal dicts with different insertion orders carry
        the same tag. Non-dict values keep plain ``str()`` formatting.
        """
        inner = ",".join(
            f"{k}={_stable_value_fmt(v)}"
            for k, v in sorted(self._hyperparams.items())
        )
        return f"{self.name}[{inner}]"

    # -- the Q1/Q2 interface -------------------------------------------------------

    def propose(self) -> Dict[str, Any]:
        """Select the next design point to evaluate (Q1)."""
        raise NotImplementedError

    def observe(self, action: Mapping[str, Any], fitness: float,
                metrics: Mapping[str, float]) -> None:
        """Incorporate the feedback for ``action`` (Q2).

        ``fitness`` is always maximize-me: the driver negates
        lower-is-better rewards before calling this.
        """
        raise NotImplementedError

    # -- the batched (generation-native) Q1/Q2 interface ---------------------------

    def propose_batch(self) -> List[Dict[str, Any]]:
        """Propose the next *generation* of design points (Q1, batched).

        Population-based agents override this to emit every not-yet
        evaluated member of the current generation/cohort in one call,
        which lets the driver evaluate them together (one HTTP round
        trip on a remote backend instead of one per point). The
        contract mirrors the serial interface exactly: the points come
        back in the order :meth:`propose` would have produced them, a
        driver may evaluate any *prefix* of the batch (sample budgets
        truncate generations), and the matching
        :meth:`observe_batch` call must carry that evaluated prefix in
        order. Under that contract a batched run is byte-identical to
        one that interleaves :meth:`propose` and :meth:`observe`.

        Default: a singleton — one :meth:`propose` — so every
        point-at-a-time agent works under :func:`run_agent`
        unchanged.
        """
        return [self.propose()]

    def observe_batch(
        self,
        actions: Sequence[Mapping[str, Any]],
        fitnesses: Sequence[float],
        metrics_list: Sequence[Mapping[str, float]],
    ) -> None:
        """Incorporate feedback for an evaluated generation prefix (Q2).

        Default: :meth:`observe` per point, in order — byte-identical
        to a point-at-a-time loop for any agent.
        """
        if not (len(actions) == len(fitnesses) == len(metrics_list)):
            raise AgentError(
                "observe_batch() needs one fitness and one metrics dict "
                f"per action, got {len(actions)}/{len(fitnesses)}/"
                f"{len(metrics_list)}"
            )
        for action, fitness, metrics in zip(actions, fitnesses, metrics_list):
            self.observe(action, fitness, metrics)


@dataclass
class SearchResult:
    """Outcome of one agent run on one environment."""

    agent: str
    hyperparameters: Dict[str, Any]
    n_samples: int
    best_action: Dict[str, Any]
    best_fitness: float
    best_reward: float
    best_metrics: Dict[str, float]
    reward_history: List[float] = field(default_factory=list)
    best_fitness_history: List[float] = field(default_factory=list)
    target_met: bool = False
    wall_time_s: float = 0.0
    sim_time_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    shared_cache_hits: int = 0
    remote_evals: int = 0
    #: ``remote_evals`` broken down by the evaluation host that
    #: answered — empty for in-process runs, one entry per host a
    #: multi-host pool used for this trial.
    remote_hosts: Dict[str, int] = field(default_factory=dict)
    #: Proxy-screen accounting (all zero unless ``proxy_screen`` ran):
    #: proposals scored by the surrogate, how many of those were sent
    #: for real evaluation (top-k plus the honesty-refresh slice, so
    #: ``proxy_screened - proxy_accepted`` were answered by the proxy
    #: alone), how many real evaluations the refresh slice spent, and
    #: the worst relative validation RMSE of the proxy's last refit.
    proxy_screened: int = 0
    proxy_accepted: int = 0
    proxy_refresh_evals: int = 0
    proxy_last_rmse: float = 0.0

    def fitness_at(self, n: int) -> float:
        """Best fitness after the first ``n`` samples (sample-budget view,
        Fig. 7)."""
        if n < 1:
            raise AgentError("sample budget must be >= 1")
        idx = min(n, len(self.best_fitness_history)) - 1
        return self.best_fitness_history[idx]

    def to_record(self) -> Dict[str, Any]:
        """A JSON-serializable representation (the sweep-shard format).

        Floats survive ``json`` round-trips exactly, so a result loaded
        back with :meth:`from_record` compares equal on every
        deterministic field.
        """
        return {
            "agent": self.agent,
            "hyperparameters": _jsonify(self.hyperparameters),
            "n_samples": int(self.n_samples),
            "best_action": _jsonify(self.best_action),
            "best_fitness": float(self.best_fitness),
            "best_reward": float(self.best_reward),
            "best_metrics": {k: float(v) for k, v in self.best_metrics.items()},
            "reward_history": [float(r) for r in self.reward_history],
            "best_fitness_history": [float(f) for f in self.best_fitness_history],
            "target_met": bool(self.target_met),
            "wall_time_s": float(self.wall_time_s),
            "sim_time_s": float(self.sim_time_s),
            "cache_hits": int(self.cache_hits),
            "cache_misses": int(self.cache_misses),
            "shared_cache_hits": int(self.shared_cache_hits),
            "remote_evals": int(self.remote_evals),
            "remote_hosts": {
                str(h): int(n) for h, n in self.remote_hosts.items()
            },
            "proxy_screened": int(self.proxy_screened),
            "proxy_accepted": int(self.proxy_accepted),
            "proxy_refresh_evals": int(self.proxy_refresh_evals),
            "proxy_last_rmse": float(self.proxy_last_rmse),
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "SearchResult":
        return cls(
            agent=str(record["agent"]),
            hyperparameters=dict(record["hyperparameters"]),
            n_samples=int(record["n_samples"]),
            best_action=dict(record["best_action"]),
            best_fitness=float(record["best_fitness"]),
            best_reward=float(record["best_reward"]),
            best_metrics={k: float(v) for k, v in record["best_metrics"].items()},
            reward_history=[float(r) for r in record.get("reward_history", [])],
            best_fitness_history=[
                float(f) for f in record.get("best_fitness_history", [])
            ],
            target_met=bool(record.get("target_met", False)),
            wall_time_s=float(record.get("wall_time_s", 0.0)),
            sim_time_s=float(record.get("sim_time_s", 0.0)),
            cache_hits=int(record.get("cache_hits", 0)),
            cache_misses=int(record.get("cache_misses", 0)),
            shared_cache_hits=int(record.get("shared_cache_hits", 0)),
            remote_evals=int(record.get("remote_evals", 0)),
            remote_hosts={
                str(h): int(n)
                for h, n in dict(record.get("remote_hosts", {})).items()
            },
            proxy_screened=int(record.get("proxy_screened", 0)),
            proxy_accepted=int(record.get("proxy_accepted", 0)),
            proxy_refresh_evals=int(record.get("proxy_refresh_evals", 0)),
            proxy_last_rmse=float(record.get("proxy_last_rmse", 0.0)),
        )


def check_count(name: str, value: Any, error: type = AgentError) -> None:
    """Reject a count (samples, trials, workers) that is not an int
    >= 1: a float or a bool passes ``< 1`` and would fail, or run the
    wrong budget, only after the sweep has started."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise error(f"{name} must be an int >= 1, got {value!r}")


def check_proxy_knobs(
    proxy_screen: bool, proxy_oversample: int, proxy_topk: Optional[int],
    proxy_refresh: float, proxy_min_corpus: int,
) -> None:
    """Reject bad proxy-screening knobs (only when ``proxy_screen`` is
    on): the one check behind :func:`run_agent` and
    :func:`~repro.sweeps.runner.validate_sweep_args`."""
    if not proxy_screen:
        return
    from repro.proxy.online import OnlineProxy  # lazily, as run_agent does

    if proxy_oversample < 1:
        raise AgentError(
            f"proxy_oversample must be >= 1, got {proxy_oversample}"
        )
    if proxy_topk is not None and proxy_topk < 1:
        raise AgentError(f"proxy_topk must be >= 1, got {proxy_topk}")
    if not 0.0 <= proxy_refresh <= 1.0:
        raise AgentError(
            f"proxy_refresh must be in [0, 1], got {proxy_refresh}"
        )
    if proxy_min_corpus < OnlineProxy.MIN_CORPUS_FLOOR:
        raise AgentError(
            f"proxy_min_corpus must be >= {OnlineProxy.MIN_CORPUS_FLOOR}, "
            f"got {proxy_min_corpus}"
        )


def run_agent(
    agent: Agent,
    env: ArchGymEnv,
    n_samples: int,
    seed: Optional[int] = None,
    source_tag: Optional[str] = None,
    pipeline: bool = False,
    proxy_screen: bool = False,
    proxy_oversample: int = 4,
    proxy_topk: Optional[int] = None,
    proxy_refresh: float = 0.1,
    proxy_min_corpus: int = 64,
) -> SearchResult:
    """Drive ``agent`` against ``env`` for ``n_samples`` evaluations.

    Every step is one cost-model query — the paper's normalization unit
    for comparing algorithms (§6.2). If the environment has an attached
    dataset, its provenance tag is set to the agent's identity so that
    multi-agent datasets can later be sampled by source (§7.1).

    The driver speaks the generation protocol:
    :meth:`Agent.propose_batch` → :meth:`ArchGymEnv.step_batch` →
    :meth:`Agent.observe_batch`, one whole generation per round (a
    singleton for point-at-a-time agents). Incumbent tracking, reward
    histories, fitness conversion, and episode resets are applied per
    point in proposal order, and a generation that overruns the
    remaining sample budget is truncated to it — so the result (and
    any attached dataset) is byte-identical to a point-at-a-time
    ``propose`` → :meth:`ArchGymEnv.step` → ``observe`` loop, while a
    population-based agent on a remote backend pays one HTTP round
    trip per generation instead of one per design point.

    ``pipeline=True`` swaps the barrier call for
    :meth:`ArchGymEnv.step_batch_stream`: results are absorbed point by
    point in proposal order as work units finish, and — on a
    work-stealing host pool — the stream ends as soon as every result
    is *known*, even while an abandoned straggler request is still in
    flight. The driver then breeds the next cohort
    (:meth:`Agent.observe_batch` → :meth:`Agent.propose_batch`) and
    dispatches it to the already-idle hosts, overlapping breeding and
    next-generation dispatch with the straggler's stale work instead
    of waiting behind it. Bookkeeping order is unchanged, so the
    result stays byte-identical.

    ``proxy_screen=True`` inserts an **oversample-and-rank** stage in
    front of real evaluation: an
    :class:`~repro.proxy.online.OnlineProxy` trained from the shared
    cache's accumulated corpus scores every proposed generation, and
    only the top ``proxy_topk`` points (default
    ``ceil(generation / proxy_oversample)``) go to
    ``step_batch``/``step_batch_stream`` — so ``n_samples`` buys
    ``proxy_oversample×`` more *candidate* generations for the same
    simulator budget. A ``proxy_refresh`` fraction of every top-k is
    additionally spent ground-truthing a seeded random slice of the
    *rejected* points, keeping the proxy's corpus unbiased; rejected
    points are answered to the agent with the proxy's predicted
    metrics/fitness (the incumbent, reward history, and dataset only
    ever see real evaluations). Until the corpus reaches
    ``proxy_min_corpus`` points *and* validation RMSE clears the
    proxy's gate, the driver falls back to plain dispatch —
    byte-identical to ``proxy_screen=False``.
    """
    check_count("n_samples", n_samples)
    check_proxy_knobs(proxy_screen, proxy_oversample, proxy_topk,
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
        k = (
            proxy_topk if proxy_topk is not None
            else max(1, math.ceil(len(pool) / proxy_oversample))
        )
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
