"""Hyperparameter sweep runner — the §6.1 experiment harness.

``run_lottery_sweep`` executes the paper's core methodology: for each
agent, draw ``n_trials`` random hyperparameter configurations, run each
against a freshly built environment for ``n_samples`` cost-model
queries, and collect the outcome distribution. The resulting
:class:`SweepReport` answers the lottery questions directly — per-agent
spread (IQR) and whether every agent's *best* ticket is competitive.

Trials are scheduled through :mod:`repro.sweeps.executor`: the runner
precomputes every trial's hyperparameters and seeds in serial order,
then fans the resulting tasks out over ``workers`` processes — so the
report is bit-identical for any worker count, and per-trial trajectory
logs are merged back into one dataset after the barrier.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.agents.base import SearchResult, check_count, check_proxy_knobs
from repro.agents.hyperparams import HYPERPARAM_GRIDS, sample_hyperparams
from repro.core.dataset import ArchGymDataset
from repro.core.env import ArchGymEnv
from repro.core.errors import ArchGymError, ExecutorError
from repro.sweeps.executor import (
    TrialTask,
    execute_trials,
    resolve_execution_backend,
)
from repro.sweeps.stats import (
    FiveNumberSummary,
    hit_rate,
    normalize_scores,
    spread_percent,
)

__all__ = ["SweepReport", "run_lottery_sweep", "validate_agent_names", "validate_sweep_args"]

EnvFactory = Callable[[], ArchGymEnv]


@dataclass
class SweepReport:
    """All trial outcomes of one lottery sweep."""

    env_id: str
    n_samples: int
    results: Dict[str, List[SearchResult]] = field(default_factory=dict)
    dataset: Optional[ArchGymDataset] = None
    workers: int = 1
    wall_time_s: float = 0.0

    # -- execution accounting ---------------------------------------------------------

    @property
    def cache_hits(self) -> int:
        """Design-point evaluations answered from the cache, sweep-wide."""
        return sum(r.cache_hits for rs in self.results.values() for r in rs)

    @property
    def cache_misses(self) -> int:
        """Design-point evaluations that actually ran the cost model."""
        return sum(r.cache_misses for rs in self.results.values() for r in rs)

    @property
    def shared_cache_hits(self) -> int:
        """Evaluations answered by the cross-process shared store —
        design points some other trial of this sweep already paid for."""
        return sum(r.shared_cache_hits for rs in self.results.values() for r in rs)

    @property
    def remote_evals(self) -> int:
        """Cost-model runs dispatched to a remote evaluation service."""
        return sum(r.remote_evals for rs in self.results.values() for r in rs)

    @property
    def remote_evals_by_host(self) -> Dict[str, int]:
        """Remote evaluations broken down by the host that answered —
        the per-host provenance of a multi-host (``HostPool``) sweep."""
        totals: Dict[str, int] = {}
        for rs in self.results.values():
            for r in rs:
                for host, count in r.remote_hosts.items():
                    totals[host] = totals.get(host, 0) + count
        return totals

    @property
    def sim_time_s(self) -> float:
        """Total seconds spent inside cost models across all trials."""
        return sum(r.sim_time_s for rs in self.results.values() for r in rs)

    @property
    def proxy_screened(self) -> int:
        """Generation proposals scored by the online proxy screen."""
        return sum(r.proxy_screened for rs in self.results.values() for r in rs)

    @property
    def proxy_accepted(self) -> int:
        """Screened proposals that went on to real evaluation (top-k
        plus the honesty-refresh slice); ``proxy_screened -
        proxy_accepted`` were answered by the surrogate alone."""
        return sum(r.proxy_accepted for rs in self.results.values() for r in rs)

    @property
    def proxy_refresh_evals(self) -> int:
        """Real evaluations spent ground-truthing the refresh slice."""
        return sum(
            r.proxy_refresh_evals for rs in self.results.values() for r in rs
        )

    @property
    def proxy_last_rmse(self) -> float:
        """Worst last-refit relative validation RMSE across trials."""
        return max(
            (r.proxy_last_rmse for rs in self.results.values() for r in rs),
            default=0.0,
        )

    @classmethod
    def from_shards(
        cls, out_dir: Union[str, Path], allow_partial: bool = False
    ) -> "SweepReport":
        """Rebuild a report from a shard directory (see
        :mod:`repro.sweeps.shards`).

        Shards are loaded one at a time in trial order, so peak memory
        is one trial plus the report itself. By default every trial
        recorded in the manifest must be present; ``allow_partial=True``
        loads whatever finished (e.g. to inspect a killed sweep).
        """
        from repro.sweeps.shards import iter_shards, load_manifest, load_outcomes

        manifest = load_manifest(out_dir)
        report = cls(
            env_id=manifest["env_id"],
            n_samples=int(manifest["n_samples"]),
            workers=int(manifest.get("workers", 1)),
        )
        report.results = {a: [] for a in manifest["agents"]}
        collect = bool(manifest.get("collect", False))
        if collect:
            report.dataset = ArchGymDataset(manifest["env_id"])
        outcomes = (
            iter_shards(out_dir)
            if allow_partial
            else load_outcomes(out_dir, expected=int(manifest["n_tasks"]))
        )
        for outcome in outcomes:
            report.results.setdefault(outcome.agent, []).append(outcome.result)
            if collect and report.dataset is not None:
                report.dataset.extend(outcome.transitions)
        return report

    # -- lottery analytics ------------------------------------------------------------

    def best_fitness(self, agent: str) -> float:
        """The agent's winning lottery ticket."""
        return max(r.best_fitness for r in self._get(agent))

    def best_result(self, agent: str) -> SearchResult:
        return max(self._get(agent), key=lambda r: r.best_fitness)

    def fitness_distribution(self, agent: str) -> List[float]:
        return [r.best_fitness for r in self._get(agent)]

    def summary(self, agent: str) -> FiveNumberSummary:
        return FiveNumberSummary.from_values(self.fitness_distribution(agent))

    def spread(self, agent: str) -> float:
        """IQR spread (% of median) across the hyperparameter sweep."""
        return spread_percent(self.fitness_distribution(agent))

    def normalized_best(self) -> Dict[str, float]:
        """Each agent's best fitness normalized to the overall winner."""
        return normalize_scores({a: self.best_fitness(a) for a in self.results})

    def normalized_best_at(self, budget: int) -> Dict[str, float]:
        """Fig. 7: normalized best fitness when each trial is truncated to
        its first ``budget`` samples."""
        scores = {
            a: max(r.fitness_at(budget) for r in rs)
            for a, rs in self.results.items()
        }
        return normalize_scores(scores)

    def mean_normalized_at(self, budget: int) -> Dict[str, float]:
        """Fig. 7's y-axis: per-agent *mean* normalized fitness over the
        sweep at a sample budget.

        The scale is fixed globally (floor = the worst first-sample
        fitness, ceiling = the best final fitness across the whole
        sweep) and log-compressed, so the series are comparable across
        budgets and monotone per agent — target-style rewards diverge
        near the target, and a raw-linear normalization would let one
        lucky trial flatten every other curve.
        """
        floor = min(r.fitness_at(1) for rs in self.results.values() for r in rs)
        ceiling = max(
            r.best_fitness for rs in self.results.values() for r in rs
        )
        span = np.log1p(max(ceiling - floor, 0.0))
        if span <= 1e-15:
            return {a: 1.0 for a in self.results}
        out = {}
        for a, rs in self.results.items():
            vals = [
                np.log1p(max(r.fitness_at(budget) - floor, 0.0)) / span
                for r in rs
            ]
            out[a] = float(np.mean(vals))
        return out

    def _get(self, agent: str) -> List[SearchResult]:
        try:
            results = self.results[agent]
        except KeyError:
            raise ArchGymError(
                f"agent {agent!r} not in sweep; have {sorted(self.results)}"
            ) from None
        if not results:
            raise ArchGymError(f"agent {agent!r} has no trials")
        return results

    def print_table(self, boxplots: bool = False) -> str:
        lines = [f"=== lottery sweep on {self.env_id} ({self.n_samples} samples/trial) ==="]
        for agent in sorted(self.results):
            lines.append(self.summary(agent).row(agent))
            lines.append(
                f"{'':28s} spread={self.spread(agent):6.1f}%  "
                f"best={self.best_fitness(agent):10.4g}"
            )
        norm = self.normalized_best()
        lines.append(
            "normalized best: "
            + "  ".join(f"{a}={v:.3f}" for a, v in sorted(norm.items()))
        )
        if self.cache_hits or self.cache_misses:
            lines.append(
                f"eval cache: {self.cache_hits} hits / {self.cache_misses} "
                f"misses ({100 * hit_rate(self.cache_hits, self.cache_misses):.1f}% "
                f"hit rate, sim time {self.sim_time_s:.3f}s)"
            )
        if self.shared_cache_hits:
            lines.append(
                f"shared cache: {self.shared_cache_hits} cross-trial hits"
            )
        if self.proxy_screened:
            lines.append(
                f"proxy screen: {self.proxy_screened} proposals scored, "
                f"{self.proxy_accepted} simulated "
                f"({self.proxy_screened - self.proxy_accepted} answered by "
                f"the surrogate, {self.proxy_refresh_evals} refresh evals, "
                f"worst val RMSE {self.proxy_last_rmse:.3f})"
            )
        if self.remote_evals:
            line = f"evaluation service: {self.remote_evals} remote evaluations"
            by_host = self.remote_evals_by_host
            if by_host:
                line += (
                    " ("
                    + ", ".join(
                        f"{host}: {n}" for host, n in sorted(by_host.items())
                    )
                    + ")"
                )
            lines.append(line)
        if boxplots:
            from repro.sweeps.plots import render_boxplots

            lines.append(
                render_boxplots(
                    {a: self.fitness_distribution(a) for a in sorted(self.results)}
                )
            )
        return "\n".join(lines)


def validate_agent_names(agents: Sequence[str]) -> None:
    """Reject unknown agent names before any trial burns samples.

    A typo in ``agents[3]`` used to surface only after agents[0..2] had
    finished their full sweeps; now the whole batch fails fast.
    """
    if not agents:
        raise ArchGymError("agents must name at least one agent")
    unknown = [a for a in agents if a not in HYPERPARAM_GRIDS]
    if unknown:
        raise ArchGymError(
            f"unknown agent(s) {unknown}; valid: {sorted(HYPERPARAM_GRIDS)}"
        )
    duplicates = sorted({a for a in agents if agents.count(a) > 1})
    if duplicates:
        raise ArchGymError(
            f"duplicate agent name(s) {duplicates}: each agent may appear "
            "once per sweep — listing it twice would double its trials and "
            "merge them under one key, silently skewing spread/IQR stats. "
            "Raise n_trials for more lottery tickets instead."
        )


def validate_sweep_args(
    agents: Sequence[str],
    n_samples: int,
    workers: int,
    resume: bool = False,
    out_dir: Optional[Union[str, Path]] = None,
    shared_cache: bool = False,
    service_url: Optional[Union[str, Sequence[str]]] = None,
    proxy_screen: bool = False, proxy_oversample: int = 4,
    proxy_refresh: float = 0.1, proxy_min_corpus: int = 64,
) -> None:
    """Reject a sweep's or a collection's arguments before anything
    runs or is written — above all before an ``out_dir`` records a
    manifest for a sweep that could never run, which would then refuse
    the corrected rerun as a different sweep. The proxy knobs are
    checked as :func:`~repro.agents.base.run_agent` checks them."""
    validate_agent_names(agents)
    check_count("n_samples", n_samples, ArchGymError)
    check_count("workers", workers, ExecutorError)
    if resume and not out_dir:
        raise ArchGymError("resume requires an out_dir (--out-dir)")
    if shared_cache and not out_dir and not service_url:
        raise ArchGymError(
            "shared_cache requires an out_dir (--out-dir) or a "
            "service_url (--service-url)"
        )
    check_proxy_knobs(proxy_screen, proxy_oversample, proxy_refresh,
                      proxy_min_corpus)


def run_lottery_sweep(
    env_factory: EnvFactory,
    agents: Sequence[str],
    n_trials: int = 8,
    n_samples: int = 200,
    seed: int = 0,
    collect_dataset: bool = False,
    workers: int = 1,
    cache: Optional[bool] = None,
    out_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    shared_cache: bool = False,
    env_signature: Optional[str] = None,
    service_url: Optional[Union[str, Sequence[str]]] = None,
    service_timeout_s: Optional[float] = None,
    service_retries: Optional[int] = None,
    generation_dispatch: bool = False,
    pipeline: bool = False,
    auto_weights: bool = False,
    proxy_screen: bool = False,
    proxy_oversample: int = 4,
    proxy_refresh: float = 0.1,
    proxy_min_corpus: int = 64,
) -> SweepReport:
    """Run the hyperparameter-lottery experiment.

    Parameters
    ----------
    env_factory:
        Builds a fresh environment per trial (trials must not share
        caches or datasets unless ``collect_dataset`` aggregates them).
        Must be picklable (module-level callable / ``functools.partial``)
        when ``workers > 1``.
    agents:
        Agent short names (see :data:`repro.agents.AGENT_NAMES`); each
        may appear once (use ``n_trials`` for more tickets per agent).
    n_trials:
        Hyperparameter lottery tickets per agent.
    n_samples:
        Cost-model queries per trial — the paper's comparison unit.
    collect_dataset:
        Aggregate every trial's trajectories into one multi-source
        dataset (the §7 pipeline), each trial tagged ``agent/index``.
        Per-worker logs are merged in trial order after the sweep, so
        the dataset is worker-count invariant.
    workers:
        Process-pool width. Every trial's hyperparameters and seeds are
        drawn up front in serial order, so any value returns the same
        report; ``workers=1`` runs in-process.
    cache:
        Design-point evaluation cache control. ``None`` (default)
        respects each environment's own configuration — the built-in
        environments cache by default, and a factory that passes
        ``cache_size=0`` (e.g. the Fig. 8 time-to-completion
        methodology) stays uncached. ``True`` force-enables so repeated
        queries of one design skip the cost model; ``False``
        force-disables.
    out_dir:
        Durable execution: every finished trial is streamed to
        ``out_dir`` as an atomic JSON shard and the report is rebuilt
        from disk, so the sweep never holds all trajectories in memory
        and a killed run loses at most its in-flight trials. The
        directory is fingerprinted on env/agents/counts/seed; reusing
        it with different arguments is rejected.
    resume:
        With ``out_dir``: skip trial indices whose shard already
        exists and run only the remainder. Seeds are precomputed in
        serial order, so a resumed sweep is bit-identical to an
        uninterrupted one — for any worker count and any kill point.
    shared_cache:
        With ``out_dir``: give every trial a file-backed, cross-process
        second cache tier under ``out_dir/shared-cache``, keyed on
        ``canonical_action_key`` — concurrent (and resumed) trials
        stop re-simulating each other's design points. Fitness numbers
        are unchanged (deterministic cost models); hits appear as
        ``shared cache: N cross-trial hits`` in the report footer.
    env_signature:
        Opaque string folded into the sweep fingerprint. ``env_id``
        alone cannot distinguish two factories building the same class
        with different construction arguments (workload, objective,
        …), so pass — or expose a ``fingerprint_signature`` attribute
        on the factory carrying — whatever else determines your
        environment's behavior; resuming with a different signature is
        then rejected instead of silently merging two experiments.
        The CLI's factory does this for its ``--workload/--objective``.
    service_url:
        Dispatch every cost-model call to the
        :class:`repro.service.EvaluationService` at this URL instead of
        running it in the worker process — one sweep can then saturate
        a remote simulator fleet. A *sequence* of URLs schedules the
        sweep over a round-robin multi-host
        :class:`~repro.sweeps.hostpool.HostPool`: a host that dies
        mid-sweep is quarantined (after the client retry policy) and
        its work fails over to the survivors, with per-host evaluation
        counts reported in ``remote_hosts``. Each URL may carry a
        capacity weight as ``URL=WEIGHT`` (default 1): a weight-2 host
        takes twice the share of every scattered generation.
        Environments are still built locally (agents need their spaces
        and reward specs), seeds and trial order are unchanged, and
        metrics round-trip JSON exactly, so
        the report is bit-identical to an in-process run apart from
        timing and the ``remote_evals`` counters in the footer — for
        any number of hosts. Like ``workers``, this is a wall-clock
        knob and does not participate in the durable-sweep
        fingerprint. With ``shared_cache=True`` the hosts' ``/cache``
        endpoints (not a file under ``out_dir``) provide the shared
        tier on each trial's pool, so sweeps on *different machines*
        reuse each other's design points; a host whose transport dies
        is quarantined for cache and evaluation traffic alike, beyond
        its trial, and reads fail over to the next living host — only
        when every host is gone do trials fail loudly rather than
        silently re-simulating.
    service_timeout_s, service_retries:
        Override the service client's per-attempt socket timeout and
        transport-retry count (defaults: the
        :class:`~repro.sweeps.executor.BackendSpec` policy). Size
        ``service_timeout_s`` above your slowest single evaluation —
        a timeout shorter than the cost model reads as a dead server
        and fails the trial.
    generation_dispatch:
        Accepted and ignored: every trial runs the generation protocol
        (see :func:`repro.agents.base.run_agent`). Population-based
        agents (GA, ACO) propose whole generations, the environment
        resolves cache hits per point and sends only the misses
        through the backend's batched hook in one call — one HTTP
        round trip per generation on a single service, one per host
        on a pool (which scatters the generation across its hosts by
        capacity weight, in parallel).
    pipeline:
        Stream each generation instead of scattering it behind a
        barrier: the batch is cut into work units that hosts pull as
        they finish, results are applied in proposal order as units
        land, and an idle host work-steals a straggler's unit so the
        driver can breed and dispatch the next generation while the
        straggler's abandoned request drains. A pure wall-clock knob —
        byte-identical reports, datasets, and shards — outside the
        durable-sweep fingerprint.
    auto_weights:
        Let a multi-host pool self-tune its dispatch weights from each
        host's observed service rate (``/healthz`` counters,
        EWMA-smoothed, clamped so no host starves) — heterogeneous
        fleets rebalance automatically. Requires ``service_url``. A
        placement knob: results are byte-identical either way, so it
        stays outside the durable-sweep fingerprint.
    proxy_screen:
        Online surrogate pre-screening: every trial trains an
        :class:`~repro.proxy.online.OnlineProxy` from the shared cache
        tier's accumulated corpus and only simulates the proxy's top
        picks of each proposed generation (plus a ``proxy_refresh``
        honesty slice) — see :func:`repro.agents.base.run_agent`.
        Requires ``shared_cache=True``. Unlike the dispatch knobs this
        **changes the search results**, so it and the three knobs below
        participate in the durable-sweep fingerprint whenever it is
        on (an unscreened sweep keeps its historical fingerprint).
    proxy_oversample:
        Oversampling factor: of each proposed generation only
        ``ceil(generation / proxy_oversample)`` points are really
        simulated.
    proxy_refresh:
        Fraction (of top-k) of additional ground-truth evaluations
        drawn from the *rejected* points by a seeded RNG every
        generation, keeping the proxy's corpus unbiased.
    proxy_min_corpus:
        Cold-start gate: screening stays off (plain dispatch,
        byte-identical to an unscreened run) until the harvested
        corpus holds this many points and validation RMSE clears the
        proxy's gate.
    """
    check_count("n_trials", n_trials, ArchGymError)
    if service_url is not None and not isinstance(service_url, str):
        service_url = tuple(service_url) or None  # empty list == no service
    validate_sweep_args(
        agents, n_samples, workers, resume=resume, out_dir=out_dir,
        shared_cache=shared_cache, service_url=service_url,
        proxy_screen=proxy_screen, proxy_oversample=proxy_oversample,
        proxy_refresh=proxy_refresh, proxy_min_corpus=proxy_min_corpus,
    )
    rng = np.random.default_rng(seed)
    probe = env_factory()
    try:
        env_id = probe.env_id
    finally:
        probe.close()

    backend, server_cache, shared_cache_dir = resolve_execution_backend(
        service_url,
        shared_cache,
        out_dir,
        env_kwargs=getattr(env_factory, "env_kwargs", None),
        timeout_s=service_timeout_s,
        retries=service_retries,
        auto_weights=auto_weights,
        proxy_screen=proxy_screen,
    )

    # Draw every trial's lottery ticket in the same order the serial
    # loop always has — task outcomes then depend only on the task.
    tasks: List[TrialTask] = []
    for agent_name in agents:
        for _trial in range(n_trials):
            hyperparams = sample_hyperparams(agent_name, rng)
            tasks.append(
                TrialTask(
                    index=len(tasks),
                    agent=agent_name,
                    hyperparams=hyperparams,
                    agent_seed=int(rng.integers(2**31 - 1)),
                    run_seed=int(rng.integers(2**31 - 1)),
                    n_samples=n_samples,
                    env_factory=env_factory,
                    collect=collect_dataset,
                    cache=cache,
                    shared_cache_dir=shared_cache_dir,
                    backend=backend,
                    server_cache=server_cache,
                    pipeline=pipeline,
                    proxy_screen=proxy_screen,
                    proxy_oversample=proxy_oversample,
                    proxy_refresh=proxy_refresh,
                    proxy_min_corpus=proxy_min_corpus,
                )
            )

    if out_dir is None:
        start = time.perf_counter()
        outcomes = execute_trials(tasks, workers=workers)
        wall_time_s = time.perf_counter() - start

        report = SweepReport(env_id=env_id, n_samples=n_samples, workers=workers)
        report.wall_time_s = wall_time_s
        report.results = {a: [] for a in agents}
        for outcome in outcomes:
            report.results[outcome.agent].append(outcome.result)
        if collect_dataset:
            report.dataset = ArchGymDataset.merge_all(
                [ArchGymDataset(o.env_id, o.transitions) for o in outcomes],
                env_id=env_id,
            )
        return report

    from repro.sweeps.shards import execute_durable, sweep_fingerprint

    if env_signature is None:
        env_signature = getattr(env_factory, "fingerprint_signature", None)
    # Screening changes which design points get simulated, so the proxy
    # knobs pin a screened sweep's fingerprint; sweep_fingerprint drops
    # them from an unscreened one's.
    fingerprint = sweep_fingerprint(
        kind="lottery-sweep",
        env_id=env_id,
        env_signature=env_signature,
        agents=list(agents),
        n_trials=n_trials,
        n_samples=n_samples,
        seed=seed,
        collect=collect_dataset,
        proxy_screen=proxy_screen,
        proxy_oversample=proxy_oversample,
        proxy_refresh=proxy_refresh,
        proxy_min_corpus=proxy_min_corpus,
    )
    manifest = {
        "fingerprint": fingerprint,
        "kind": "lottery-sweep",
        "env_id": env_id,
        "env_signature": env_signature,
        "agents": list(agents),
        "n_trials": n_trials,
        "n_samples": n_samples,
        "seed": seed,
        "collect": collect_dataset,
        "n_tasks": len(tasks),
        "workers": workers,
    }
    if proxy_screen:
        manifest.update(
            proxy_screen=proxy_screen,
            proxy_oversample=proxy_oversample,
            proxy_refresh=proxy_refresh,
            proxy_min_corpus=proxy_min_corpus,
        )

    start = time.perf_counter()
    # Stream each finished trial straight to disk and drop it — memory
    # stays flat no matter how large the sweep is.
    execute_durable(tasks, out_dir, manifest, workers=workers, resume=resume)
    wall_time_s = time.perf_counter() - start

    report = SweepReport.from_shards(out_dir)
    report.workers = workers
    report.wall_time_s = wall_time_s
    return report
