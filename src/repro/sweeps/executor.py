"""Task-based parallel execution for sweep trials.

The hyperparameter-lottery methodology (§6.1) is embarrassingly
parallel: every (agent, ticket) trial builds its own environment, runs
its own search, and only meets the others in the final report. This
module turns one trial into a self-contained, picklable
:class:`TrialTask` and fans a batch of them out over a
``concurrent.futures.ProcessPoolExecutor``.

Determinism is the design constraint: the *parent* precomputes every
task's hyperparameters and seeds (in the exact order the serial runner
drew them), so a task's outcome depends only on its own fields — never
on which worker ran it or in what order. ``workers=1`` short-circuits
to a plain in-process loop with zero multiprocessing overhead, and any
worker count yields bit-identical results.
"""

from __future__ import annotations

import json
import math
import os
import pickle
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.agents.base import SearchResult, check_count, run_agent
from repro.agents.hyperparams import make_agent
from repro.core.dataset import ArchGymDataset, Transition
from repro.core.env import ArchGymEnv
from repro.core.errors import ExecutorError, ServiceError
from repro.service.client import ServiceClient

__all__ = [
    "BackendSpec",
    "TrialTask",
    "TrialOutcome",
    "clear_backend_cache",
    "close_cached_backends",
    "execute_trials",
    "parse_weighted_url",
    "resolve_execution_backend",
]


def parse_weighted_url(spec: str) -> Tuple[str, float]:
    """Split one ``URL`` / ``URL=WEIGHT`` service spec.

    ``--service-url http://h:8023=2`` declares host ``h:8023`` with
    capacity weight 2 (twice the share of every scattered generation);
    a bare URL weighs 1. The text after the last ``=`` must be a
    positive finite number — anything else is rejected with a clear
    error rather than silently becoming part of the URL. (A URL that
    itself contains ``=`` can always be passed as ``URL=1``.)
    """
    url, sep, tail = spec.rpartition("=")
    if not sep:
        return spec, 1.0
    try:
        weight = float(tail)
    except ValueError:
        raise ExecutorError(
            f"malformed service url weight in {spec!r}: expected "
            f"URL=WEIGHT with a positive number, got {tail!r}"
        ) from None
    if not math.isfinite(weight) or weight <= 0:
        raise ExecutorError(
            f"service url weight in {spec!r} must be positive and "
            f"finite, got {tail!r}"
        )
    return url, weight

EnvFactory = Callable[[], ArchGymEnv]


@dataclass(frozen=True)
class BackendSpec:
    """Serializable description of the evaluation services a trial's
    cost model runs on.

    Tasks cross a pickle boundary, so a live backend object (holding
    HTTP clients) cannot ride on the task — this spec does, and each
    worker builds its own backend from it: a round-robin
    :class:`~repro.sweeps.hostpool.HostPool` over ``service_urls``
    with automatic failover (one URL is a one-host pool). A task with
    no spec runs ``env.evaluate`` in the worker process.
    ``env_kwargs`` are forwarded so the server constructs the same
    environment configuration (workload, objective, …) the worker
    built locally, and ``timeout_s``/``retries`` set the clients'
    retry/timeout policy.
    """

    #: Every host of the pool, in round-robin order — also the shared
    #: cache tier's order: its first living host is the primary.
    service_urls: Tuple[str, ...]
    env_kwargs: Optional[Dict[str, Any]] = None
    timeout_s: float = 60.0
    retries: int = 2
    #: Per-host capacity weights aligned with ``service_urls``
    #: (``None`` = all hosts weigh 1).
    service_weights: Optional[Tuple[float, ...]] = None
    #: Let the pool self-tune those weights from observed per-host
    #: service rates (a placement knob — results are byte-identical
    #: either way).
    auto_weights: bool = False

    def __post_init__(self) -> None:
        # Normalize to tuples so the spec stays hash/pickle-stable.
        urls = self.service_urls
        object.__setattr__(
            self, "service_urls", (urls,) if isinstance(urls, str) else tuple(urls)
        )
        if self.service_weights is not None:
            object.__setattr__(
                self, "service_weights", tuple(self.service_weights)
            )
        if not self.service_urls:
            raise ExecutorError("a backend spec requires a service_url")
        if self.service_weights is not None and len(self.service_weights) != len(
            self.service_urls
        ):
            raise ExecutorError(
                f"backend spec has {len(self.service_urls)} url(s) but "
                f"{len(self.service_weights)} weight(s)"
            )

    def build(self) -> Any:
        """Instantiate the backend in the worker."""
        from repro.service.remote import RemoteBackend

        return RemoteBackend(
            self.service_urls,
            env_kwargs=self.env_kwargs,
            weights=self.service_weights,
            auto_weights=self.auto_weights,
            timeout_s=self.timeout_s,
            retries=self.retries,
        )


#: One live backend per distinct spec per process: keep-alive
#: connections and a HostPool's quarantine memory then span all the
#: trials a worker runs, instead of every trial re-probing a host that
#: died (and paying a fresh TCP handshake per trial).
_BACKEND_CACHE: Dict[str, Any] = {}
#: Owner of the cache entries. A forked pool worker inherits the
#: parent's cache *and* its clients' open keep-alive sockets — letting
#: workers share one TCP stream would interleave their HTTP responses.
#: A PID mismatch therefore drops the cache so each process opens its
#: own connections.
_BACKEND_CACHE_PID: Optional[int] = None


def build_backend(spec: Optional[BackendSpec]) -> Optional[Any]:
    """The worker-side backend for ``spec``, memoized per process.

    Strictly per *process*: entries inherited across a ``fork`` (the
    default pool start method on Linux) are discarded, because the
    live sockets inside them are shared with the parent.
    """
    global _BACKEND_CACHE_PID
    if spec is None:
        return None
    pid = os.getpid()
    if _BACKEND_CACHE_PID != pid:
        _BACKEND_CACHE.clear()
        _BACKEND_CACHE_PID = pid
    key = json.dumps(asdict(spec), sort_keys=True, default=str)
    backend = _BACKEND_CACHE.get(key)
    if backend is None:
        backend = spec.build()
        _BACKEND_CACHE[key] = backend
    return backend


def close_cached_backends() -> None:
    """Close every cached backend's transport connections, keeping the
    backend objects (and so a pool's quarantine memory and counters)
    cached.

    The trial-teardown hook: a sweep batch leaves the process with
    zero open sockets — including keep-alive connections owned by
    dispatch threads that have since exited — and no scatter worker
    threads, while the next batch still reuses the memoized backends
    (their connections and workers reopen lazily on first dispatch).
    """
    for backend in _BACKEND_CACHE.values():
        backend.close()


def clear_backend_cache() -> None:
    """Drop the per-process backend memo (tests that restart services
    on reused URLs need a clean slate), closing the evicted backends'
    connections on the way out."""
    close_cached_backends()
    _BACKEND_CACHE.clear()


def resolve_execution_backend(
    service_url: Optional[Union[str, Sequence[str]]],
    shared_cache: bool,
    out_dir: Optional[Any],
    env_kwargs: Optional[Dict[str, Any]] = None,
    timeout_s: Optional[float] = None,
    retries: Optional[int] = None,
    auto_weights: bool = False,
    cache_replicas: Optional[int] = None,
    proxy_screen: bool = False,
) -> Tuple[Optional[BackendSpec], bool, Optional[str]]:
    """Derive a task batch's ``(backend, server_cache,
    shared_cache_dir)`` from the user-facing execution knobs.

    One derivation shared by :func:`repro.sweeps.runner.run_lottery_sweep`
    and the CLI's ``collect`` so the precedence rules cannot drift:
    ``service_url`` — one URL or a sequence of them (repeated
    ``--service-url`` flags become a multi-host :class:`HostPool`),
    each optionally carrying a capacity weight as ``URL=WEIGHT``
    (default 1; see :func:`parse_weighted_url`) — yields a
    :class:`BackendSpec` (with any ``timeout_s``/``retries``
    overrides; ``None`` keeps the spec defaults, ``auto_weights`` lets
    the pool self-tune its dispatch weights); no ``service_url`` yields
    no spec, so trials evaluate in-process; ``shared_cache``
    prefers the hosts' ``/cache`` maps (cross-machine: ``server_cache``
    is then true, and each trial's
    :class:`~repro.core.cache_store.ServerCacheStore` rides its
    backend's pool) over a file store under ``out_dir``.

    Each URL is spelled as the pool's clients spell it
    (``ServiceClient.base_url``), and hosts are deduped on that
    spelling. A malformed URL, one host given two weights, or a bad
    ``timeout_s``/``retries`` policy raises :class:`ExecutorError`
    here, before any trial runs or any ``sweep.json`` is written.
    """
    if auto_weights and service_url is None:
        raise ExecutorError(
            "auto-weights (--auto-weights / auto_weights=True) tunes a "
            "remote host pool's dispatch weights and therefore requires "
            "a service_url"
        )
    if proxy_screen and not shared_cache:
        raise ExecutorError(
            "proxy screening (--proxy-screen / proxy_screen=True) trains "
            "its surrogate from the shared cache's accumulated corpus and "
            "therefore requires shared_cache=True (--shared-cache)"
        )
    if cache_replicas is not None:
        if not isinstance(cache_replicas, int) or isinstance(
            cache_replicas, bool
        ) or cache_replicas < 1:
            raise ExecutorError(
                f"cache_replicas must be a positive integer, got "
                f"{cache_replicas!r}"
            )
        if not shared_cache or service_url is None:
            raise ExecutorError(
                "cache_replicas (--cache-replicas) configures the "
                "server-backed shared cache tier and therefore requires "
                "shared_cache=True with a service_url"
            )
    overrides: Dict[str, Any] = {}
    if timeout_s is not None:
        overrides["timeout_s"] = timeout_s
    if retries is not None:
        overrides["retries"] = retries
    urls: Optional[Tuple[str, ...]] = None
    weights: Optional[Tuple[float, ...]] = None
    if service_url is not None:
        specs = (
            (service_url,) if isinstance(service_url, str) else tuple(service_url)
        )
        by_url: Dict[str, float] = {}
        for spec in specs:
            raw_url, weight = parse_weighted_url(spec)
            try:  # the pool's own spelling and policy; opens no socket
                url = ServiceClient(raw_url, **overrides).base_url
            except ServiceError as exc:
                raise ExecutorError(str(exc)) from None
            if url in by_url:  # dedupe, keep order — weights must agree
                if by_url[url] != weight:
                    raise ExecutorError(
                        f"conflicting weights for service url {url!r}: "
                        f"{by_url[url]} vs {weight}"
                    )
                continue
            by_url[url] = weight
        if by_url:
            urls = tuple(by_url)
            if any(w != 1.0 for w in by_url.values()):
                weights = tuple(by_url.values())
    backend = None
    if urls is not None:
        backend = BackendSpec(
            service_urls=urls,
            service_weights=weights,
            auto_weights=auto_weights,
            env_kwargs=env_kwargs,
            **overrides,
        )
    server_cache = shared_cache and urls is not None
    shared_cache_dir = (
        str(Path(out_dir) / "shared-cache")
        if shared_cache and out_dir is not None and not server_cache
        else None
    )
    if proxy_screen and not server_cache and shared_cache_dir is None:
        raise ExecutorError(
            "proxy screening needs a shared cache tier to harvest its "
            "training corpus from: pass out_dir (--out-dir, file-backed "
            "tier) or a service_url (server-backed tier) alongside "
            "shared_cache"
        )
    return backend, server_cache, shared_cache_dir


@dataclass(frozen=True)
class TrialTask:
    """One self-contained sweep trial: everything a worker needs.

    ``index`` is the task's position in the serial execution order;
    outcomes are re-sorted on it so callers always see results in the
    order a single-process run would have produced them.
    """

    index: int
    agent: str
    hyperparams: Dict[str, Any]
    agent_seed: int
    run_seed: int
    n_samples: int
    env_factory: EnvFactory
    collect: bool = False
    #: Tri-state: ``None`` leaves the environment's own cache
    #: configuration alone (built-in envs enable theirs in __init__,
    #: and a factory passing ``cache_size=0`` has opted out on
    #: purpose); ``True`` force-enables; ``False`` force-disables.
    cache: Optional[bool] = None
    #: Directory of a cross-process :class:`SharedCacheStore`; workers
    #: open their own handle, so only the path crosses the pickle
    #: boundary. ``None`` disables the shared tier.
    shared_cache_dir: Optional[str] = None
    #: Where the cost model runs: ``None`` (in-process) or a
    #: :class:`BackendSpec` — e.g. remote, against an evaluation
    #: service. The spec is plain data, so it pickles with the task.
    backend: Optional[BackendSpec] = None
    #: Use the ``backend`` pool's ``/cache`` maps as the shared cache
    #: tier (:class:`ServerCacheStore` on that pool) — the cross-
    #: *machine* sibling of ``shared_cache_dir``, which takes
    #: precedence if both are set. Requires ``backend``.
    server_cache: bool = False
    #: Replication factor of that server-backed tier: every ``put``
    #: goes to this many pool hosts (``None`` = the store default,
    #: min(2, pool size)). A durability knob — reuse is deterministic
    #: either way — so it stays out of the durable-sweep fingerprint.
    cache_replicas: Optional[int] = None
    #: Stream each generation through
    #: :meth:`~repro.core.env.ArchGymEnv.step_batch_stream` (work-unit
    #: dispatch with work stealing on a multi-host pool) instead of
    #: the whole-batch barrier. A pure wall-clock knob — byte-identical
    #: results — so it stays out of the durable-sweep fingerprint.
    pipeline: bool = False
    #: Online-proxy screening (oversample-and-rank in front of real
    #: evaluation). Unlike the dispatch knobs above these CHANGE the
    #: search results — which points get simulated depends on the
    #: surrogate — so all five participate in the durable-sweep
    #: fingerprint whenever ``proxy_screen`` is on.
    proxy_screen: bool = False
    proxy_oversample: int = 4
    proxy_topk: Optional[int] = None
    proxy_refresh: float = 0.1
    proxy_min_corpus: int = 64

    @property
    def source(self) -> str:
        """Provenance tag for this trial's trajectory data.

        Agent name + trial index — unique per trial even when two
        trials of one agent draw identical hyperparameters, so the §7
        per-source pipeline can always tell trajectories apart.
        """
        return f"{self.agent}/{self.index}"


@dataclass
class TrialOutcome:
    """What one trial sends back across the process boundary."""

    index: int
    agent: str
    env_id: str
    result: SearchResult
    transitions: List[Transition] = field(default_factory=list)


def run_trial(task: TrialTask) -> TrialOutcome:
    """Execute one trial start to finish (the worker entry point).

    Builds a fresh environment, optionally enables the evaluation cache
    and a private trajectory log, and drives the agent for the task's
    sample budget. Module-level so it pickles by reference.
    """
    if task.server_cache and task.backend is None:
        raise ExecutorError(
            f"trial {task.source}: the server cache tier rides the "
            "backend's pool, but the task has no backend"
        )
    env = task.env_factory()
    try:
        if task.cache is True:
            if not env.cache_enabled:  # keep a larger pre-configured cache
                env.enable_cache()
        elif task.cache is False:
            env.disable_cache()
        remote = build_backend(task.backend)
        if remote is not None:
            env.attach_backend(remote)
        if task.shared_cache_dir is not None:
            from repro.core.cache_store import SharedCacheStore

            env.attach_shared_cache(SharedCacheStore(task.shared_cache_dir))
        elif task.server_cache:
            from repro.core.cache_store import ServerCacheStore

            # On the backend's pool, a host found dead by either kind
            # of traffic stays quarantined for both, across trials.
            env.attach_shared_cache(
                ServerCacheStore(remote.pool, replicas=task.cache_replicas)
            )
        dataset: Optional[ArchGymDataset] = None
        if task.collect:
            dataset = ArchGymDataset(env.env_id)
            env.attach_dataset(dataset, source=task.source)
        agent = make_agent(
            task.agent, env.action_space, seed=task.agent_seed, **task.hyperparams
        )
        try:
            result = run_agent(
                agent,
                env,
                n_samples=task.n_samples,
                seed=task.run_seed,
                source_tag=task.source if task.collect else None,
                pipeline=task.pipeline,
                proxy_screen=task.proxy_screen,
                proxy_oversample=task.proxy_oversample,
                proxy_topk=task.proxy_topk,
                proxy_refresh=task.proxy_refresh,
                proxy_min_corpus=task.proxy_min_corpus,
            )
        except ServiceError as exc:
            # Identify the failing trial: under a process pool, the bare
            # client error would not say which of N in-flight trials died.
            raise ServiceError(
                f"trial {task.source} (task index {task.index}) failed "
                f"against the evaluation service: {exc}"
            ) from exc
        return TrialOutcome(
            index=task.index,
            agent=task.agent,
            env_id=env.env_id,
            result=result,
            transitions=list(dataset) if dataset is not None else [],
        )
    finally:
        env.close()


def _check_picklable(tasks: Sequence[TrialTask]) -> None:
    """Fail fast with a readable error instead of a mid-pool crash."""
    try:
        pickle.dumps(list(tasks))
    except Exception as exc:
        raise ExecutorError(
            "sweep tasks are not picklable, so they cannot cross the "
            "process boundary — the usual culprit is a lambda/closure "
            "env_factory. Use a module-level function, a class, or "
            "functools.partial of either, or run with workers=1. "
            f"Original error: {exc}"
        ) from exc


def execute_trials(
    tasks: Sequence[TrialTask],
    workers: int = 1,
    on_outcome: Optional[Callable[[TrialOutcome], None]] = None,
    keep_outcomes: bool = True,
) -> List[TrialOutcome]:
    """Run every task and return outcomes sorted by ``task.index``.

    ``workers=1`` runs in-process (deterministic fallback, no pickling
    requirement); ``workers>1`` fans out over a process pool. Results
    are identical either way because each task carries its own seeds.

    ``on_outcome`` is invoked in the parent as each trial finishes
    (completion order under ``workers>1``) — the shard-streaming hook.
    With ``keep_outcomes=False`` outcomes are dropped after the
    callback and an empty list is returned, so an arbitrarily large
    sweep needs only one outcome in memory at a time.

    One failing trial aborts the whole batch promptly: queued futures
    are cancelled, the pool is shut down *without* waiting for trials
    already in flight, and the in-flight worker processes are
    terminated — otherwise they would keep burning CPU and block
    interpreter exit until their (possibly hour-long) trials finished.
    """
    check_count("workers", workers, ExecutorError)
    if not tasks:
        return []

    ordered = sorted(tasks, key=lambda t: t.index)
    outcomes: List[TrialOutcome] = []

    if workers == 1:
        try:
            for task in ordered:
                outcome = run_trial(task)
                if on_outcome is not None:
                    on_outcome(outcome)
                if keep_outcomes:
                    outcomes.append(outcome)
        finally:
            # Trial teardown: leave no open sockets behind the batch.
            # The memoized backends themselves survive (quarantine
            # state, counters); connections reopen on next dispatch.
            close_cached_backends()
        return outcomes

    _check_picklable(tasks)
    pool = ProcessPoolExecutor(max_workers=min(workers, len(tasks)))
    completed_ok = False
    try:
        futures = [pool.submit(run_trial, task) for task in ordered]
        for future in as_completed(futures):
            outcome = future.result()
            if on_outcome is not None:
                on_outcome(outcome)
            if keep_outcomes:
                outcomes.append(outcome)
        completed_ok = True
    finally:
        # Fail-fast: on error, drop the queue and return immediately
        # instead of waiting out every already-running worker. Snapshot
        # the workers first — shutdown() clears pool._processes.
        workers_to_kill = (
            [] if completed_ok
            else list((getattr(pool, "_processes", None) or {}).values())
        )
        pool.shutdown(wait=completed_ok, cancel_futures=not completed_ok)
        for proc in workers_to_kill:
            # Kill the in-flight trials too, or concurrent.futures'
            # exit hook would still join them at interpreter exit.
            proc.terminate()
    return sorted(outcomes, key=lambda o: o.index)
