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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.agents.base import SearchResult, run_agent
from repro.agents.hyperparams import make_agent
from repro.core.dataset import ArchGymDataset, Transition
from repro.core.env import ArchGymEnv
from repro.core.errors import ExecutorError, ServiceError

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
    capacity weight 2 (twice the concurrent load and twice the share
    of every scattered generation); a bare URL weighs 1. The text
    after the last ``=`` must be a positive finite number — anything
    else is rejected with a clear error rather than silently becoming
    part of the URL. (A URL that itself contains ``=`` can always be
    passed as ``URL=1``.)
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
    """Serializable description of where a trial's cost model runs.

    Tasks cross a pickle boundary, so a live backend object (holding
    an HTTP client) cannot ride on the task — this spec does, and each
    worker builds its own backend from it.

    ``kind="local"`` (the default when a task carries no spec) runs
    ``env.evaluate`` in the worker process. ``kind="remote"`` dispatches
    every evaluation to the evaluation service at ``service_url`` — or,
    when ``service_urls`` names several hosts, to a least-load
    :class:`~repro.sweeps.hostpool.HostPool` over all of them with
    automatic failover. ``env_kwargs`` are forwarded so the server
    constructs the same environment configuration (workload, objective,
    …) the worker built locally, and ``timeout_s``/``retries`` set the
    client's retry/timeout policy.
    """

    kind: str = "local"
    service_url: Optional[str] = None
    env_kwargs: Optional[Dict[str, Any]] = None
    timeout_s: float = 60.0
    retries: int = 2
    #: All hosts of a multi-host pool (``service_url`` is then its
    #: first entry, kept for compatibility and as the cache host).
    service_urls: Optional[Tuple[str, ...]] = None
    #: Per-host capacity weights aligned with ``service_urls``
    #: (``None`` = all hosts weigh 1).
    service_weights: Optional[Tuple[float, ...]] = None
    #: Let a multi-host pool self-tune those weights from observed
    #: per-host service rates (a placement knob — results are
    #: byte-identical either way).
    auto_weights: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("local", "remote"):
            raise ExecutorError(
                f"backend kind must be 'local' or 'remote', got {self.kind!r}"
            )
        if self.service_urls is not None and not isinstance(
            self.service_urls, tuple
        ):  # normalize lists so the spec stays hash/pickle-stable
            object.__setattr__(self, "service_urls", tuple(self.service_urls))
        if self.service_weights is not None and not isinstance(
            self.service_weights, tuple
        ):
            object.__setattr__(
                self, "service_weights", tuple(self.service_weights)
            )
        if self.kind == "remote" and not (self.service_url or self.service_urls):
            raise ExecutorError("remote backend requires a service_url")
        if self.service_weights is not None and len(self.service_weights) != len(
            self.urls
        ):
            raise ExecutorError(
                f"backend spec has {len(self.urls)} url(s) but "
                f"{len(self.service_weights)} weight(s)"
            )

    @property
    def urls(self) -> Tuple[str, ...]:
        """Every host this spec targets (at least one for remote)."""
        if self.service_urls:
            return self.service_urls
        return (self.service_url,) if self.service_url else ()

    def build(self) -> Optional[Any]:
        """Instantiate the backend in the worker (``None`` = local)."""
        if self.kind == "local":
            return None
        from repro.service.remote import RemoteBackend

        urls = self.urls
        return RemoteBackend(
            urls[0] if len(urls) == 1 else list(urls),
            env_kwargs=self.env_kwargs,
            weights=(
                list(self.service_weights) if self.service_weights else None
            ),
            auto_weights=self.auto_weights,
            timeout_s=self.timeout_s,
            retries=self.retries,
        )


#: One live backend per distinct spec per process: keep-alive
#: connections and a HostPool's quarantine memory then span all the
#: trials a worker runs, instead of every trial re-probing a host that
#: died (and paying a fresh TCP handshake per trial).
_BACKEND_CACHE: Dict[Tuple[Any, ...], Any] = {}
#: Owner of the cache entries. A forked pool worker inherits the
#: parent's cache *and* its clients' open keep-alive sockets — letting
#: workers share one TCP stream would interleave their HTTP responses.
#: A PID mismatch therefore drops the cache so each process opens its
#: own connections.
_BACKEND_CACHE_PID: Optional[int] = None


def _backend_cache_key(spec: BackendSpec) -> Tuple[Any, ...]:
    return (
        spec.kind,
        spec.service_url,
        spec.service_urls,
        spec.service_weights,
        spec.auto_weights,
        json.dumps(spec.env_kwargs, sort_keys=True, default=str)
        if spec.env_kwargs
        else None,
        spec.timeout_s,
        spec.retries,
    )


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
    key = _backend_cache_key(spec)
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
        close = getattr(backend, "close", None)
        if close is not None:
            close()


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
) -> Tuple[Optional[BackendSpec], Optional[str], Optional[str]]:
    """Derive a task batch's ``(backend, server_cache_url,
    shared_cache_dir)`` from the user-facing execution knobs.

    One derivation shared by :func:`repro.sweeps.runner.run_lottery_sweep`
    and the CLI's ``collect`` so the precedence rules cannot drift:
    ``service_url`` — one URL or a sequence of them (repeated
    ``--service-url`` flags become a multi-host :class:`HostPool`),
    each optionally carrying a capacity weight as ``URL=WEIGHT``
    (default 1; see :func:`parse_weighted_url`) — yields a remote
    :class:`BackendSpec` (with any ``timeout_s``/``retries``
    overrides; ``None`` keeps the spec defaults, ``auto_weights`` lets
    a multi-host pool self-tune its dispatch weights); ``shared_cache``
    prefers the service's ``/cache`` store (cross-machine; the *first*
    host's, so every trial reads one map — with writes replicated to
    ``cache_replicas`` pool hosts, see
    :class:`~repro.core.cache_store.ServerCacheStore`) over a file
    store under ``out_dir``.
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
    urls: Optional[Tuple[str, ...]] = None
    weights: Optional[Tuple[float, ...]] = None
    if service_url is not None:
        specs = (
            (service_url,) if isinstance(service_url, str) else tuple(service_url)
        )
        by_url: Dict[str, float] = {}
        for spec in specs:
            url, weight = parse_weighted_url(spec)
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
    overrides: Dict[str, Any] = {}
    if timeout_s is not None:
        overrides["timeout_s"] = timeout_s
    if retries is not None:
        overrides["retries"] = retries
    backend = None
    if urls is not None:
        backend = BackendSpec(
            kind="remote",
            service_url=urls[0],
            service_urls=urls,
            service_weights=weights,
            auto_weights=auto_weights,
            env_kwargs=env_kwargs,
            **overrides,
        )
    server_cache_url = urls[0] if shared_cache and urls is not None else None
    shared_cache_dir = (
        str(Path(out_dir) / "shared-cache")
        if shared_cache and out_dir is not None and server_cache_url is None
        else None
    )
    if proxy_screen and server_cache_url is None and shared_cache_dir is None:
        raise ExecutorError(
            "proxy screening needs a shared cache tier to harvest its "
            "training corpus from: pass out_dir (--out-dir, file-backed "
            "tier) or a service_url (server-backed tier) alongside "
            "shared_cache"
        )
    return backend, server_cache_url, shared_cache_dir


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
    #: Base URL of an evaluation service whose ``/cache`` endpoints
    #: serve as the shared cache tier (:class:`ServerCacheStore`) —
    #: the cross-*machine* sibling of ``shared_cache_dir``, which
    #: takes precedence if both are set.
    server_cache_url: Optional[str] = None
    #: Replication factor of that server-backed tier: every ``put``
    #: fans out to this many pool hosts (``None`` = the store default,
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
    env = task.env_factory()
    server_store = None
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
        elif task.server_cache_url is not None:
            from repro.core.cache_store import ServerCacheStore

            # Reuse the evaluation backend's client (and with it the
            # task's retry/timeout policy) when the cache lives on the
            # same single service; a multi-host pool — or a task with
            # no remote backend — gets a dedicated client pointed at
            # the designated cache host, under the task's policy. The
            # pool's hosts become the store's replica chain (the store
            # dedupes the primary itself): writes fan out to
            # ``cache_replicas`` of them, and if the cache host's
            # transport dies mid-sweep reads fail over to a replica
            # instead of abandoning its entries.
            cache_url = task.server_cache_url.rstrip("/")
            fallbacks = tuple(task.backend.urls) if task.backend else ()
            if (
                remote is not None
                and getattr(remote.client, "base_url", None) == cache_url
            ):
                server_store = ServerCacheStore(
                    remote.client,
                    fallbacks=fallbacks,
                    replicas=task.cache_replicas,
                )
            elif task.backend is not None:
                server_store = ServerCacheStore(
                    cache_url,
                    fallbacks=fallbacks,
                    replicas=task.cache_replicas,
                    timeout_s=task.backend.timeout_s,
                    retries=task.backend.retries,
                )
            else:
                server_store = ServerCacheStore(
                    cache_url, replicas=task.cache_replicas
                )
            env.attach_shared_cache(server_store)
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
        if server_store is not None:
            # The trial's own cache clients; a reused backend client is
            # closed with the cached backends instead.
            server_store.close()


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
    if workers < 1:
        raise ExecutorError(f"workers must be >= 1, got {workers}")
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
