"""The ArchGym environment base class (paper §3.1, §3.3).

An environment encapsulates an architecture *cost model* plus a target
*workload* and exposes the OpenAI-gym style interface the paper
standardizes on:

    observation, info = env.reset(seed=...)
    observation, reward, terminated, truncated, info = env.step(action)

- **action** — a dict assigning every parameter in ``env.action_space``
  (a :class:`~repro.core.spaces.CompositeSpace`) an admissible value.
- **observation** — the cost-model output vector (e.g. ``<latency,
  power, energy>`` for DRAMGym), in the order given by
  ``env.observation_metrics``.
- **reward** — the scalar produced by ``env.reward_spec`` (Table 3).

Episodes are parameter-*suggestion* loops: each ``step`` evaluates one
design point. ``episode_length`` bounds the suggestions per episode
(``truncated``), and an episode ``terminated`` early once the design
meets the user target. Every step is logged to an attached
:class:`~repro.core.dataset.ArchGymDataset` (Fig. 9).

Because the built-in cost models are deterministic functions of the
action, an environment can cache them: :meth:`ArchGymEnv.enable_cache`
turns on a design-point evaluation cache keyed on the canonicalized
action dict, so repeated queries of the same design skip the simulator
entirely (the same wall-clock argument that motivates the paper's proxy
models, Fig. 12). Cache hits still produce a full gym step — reward,
logging, episode accounting — only the ``evaluate`` call is skipped.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.dataset import ArchGymDataset, Transition
from repro.core.errors import EnvironmentError_, InvalidActionError
from repro.core.rewards import RewardSpec
from repro.core.spaces import CompositeSpace

if TYPE_CHECKING:  # avoid an import cycle; the store is duck-typed
    from repro.core.cache_store import SharedCacheStore

__all__ = ["ArchGymEnv", "EnvStats", "canonical_action_key"]

Observation = np.ndarray
StepResult = Tuple[Observation, float, bool, bool, Dict[str, Any]]

ActionKey = Tuple[Tuple[str, Any], ...]


def _freeze(value: Any) -> Any:
    """Recursively convert a value to a hashable equivalent."""
    if isinstance(value, np.ndarray):
        return tuple(_freeze(v) for v in value.tolist())
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def canonical_action_key(action: Mapping[str, Any]) -> ActionKey:
    """A hashable, order-insensitive identity for a design point.

    Numpy scalars are unwrapped to native Python values so that an
    agent proposing ``np.int64(4)`` and one proposing ``4`` hit the
    same cache line; arrays and (nested) sequences are frozen to
    tuples.
    """
    return tuple((name, _freeze(action[name])) for name in sorted(action))


class EnvStats:
    """Counters the sweep harness and Fig. 12 speedup bench rely on."""

    def __init__(self) -> None:
        # Env-lifetime step/episode accounting, consumed in place by the
        # gym surface and Fig. 8 timing — never a per-trial provenance
        # counter, so it is not threaded into SearchResult/shards.
        self.total_steps = 0  # repro-lint: allow(counter-threading)
        self.total_episodes = 0  # repro-lint: allow(counter-threading)
        self.total_sim_time = 0.0  # seconds spent inside the cost model
        self.cache_hits = 0
        self.cache_misses = 0
        #: Evaluations answered by the cross-process shared store — a
        #: design point some *other* trial (or process) already paid for.
        self.shared_cache_hits = 0
        #: Cost-model calls dispatched to a remote evaluation backend
        #: (a subset of the runs counted by ``cache_misses``).
        self.remote_evals = 0
        #: ``remote_evals`` broken down by the host URL that answered —
        #: the provenance a multi-host sweep reports per trial.
        self.remote_evals_by_host: Dict[str, int] = {}
        #: Generation proposals considered by the online proxy screen.
        self.proxy_screened = 0
        #: Screened proposals sent for real evaluation (top-k + the
        #: honesty-refresh slice); ``screened - accepted`` were answered
        #: by the surrogate alone.
        self.proxy_accepted = 0
        #: Real evaluations spent on the honesty-refresh slice — points
        #: the screen would have rejected, simulated anyway to keep the
        #: proxy's training corpus unbiased.
        self.proxy_refresh_evals = 0
        #: Worst relative validation RMSE of the proxy's latest refit
        #: (0.0 until the screen has fitted a model).
        self.proxy_last_rmse = 0.0

    def __repr__(self) -> str:
        return (
            f"EnvStats(steps={self.total_steps}, episodes={self.total_episodes}, "
            f"sim_time={self.total_sim_time:.3f}s, "
            f"cache={self.cache_hits}h/{self.cache_misses}m"
            f"/{self.shared_cache_hits}s, remote={self.remote_evals})"
        )


class ArchGymEnv:
    """Abstract base for all ArchGym environments.

    Subclasses define the action space, the observation metric names, the
    reward specification, and :meth:`evaluate` — the call into the
    underlying architecture cost model.

    Parameters
    ----------
    action_space:
        The design parameter space (Fig. 3).
    observation_metrics:
        Ordered metric names forming the observation vector.
    reward_spec:
        The Table 3 reward for this environment/objective.
    episode_length:
        Number of design suggestions per episode before truncation.
    terminate_on_target:
        Whether meeting the reward spec's target ends the episode early.
    """

    #: Environment id, set by subclasses (e.g. ``"DRAMGym-v0"``).
    env_id: str = "ArchGymEnv-v0"

    def __init__(
        self,
        action_space: CompositeSpace,
        observation_metrics: Sequence[str],
        reward_spec: RewardSpec,
        episode_length: int = 1,
        terminate_on_target: bool = False,
    ) -> None:
        if episode_length < 1:
            raise EnvironmentError_("episode_length must be >= 1")
        self.action_space = action_space
        self.observation_metrics = list(observation_metrics)
        self.reward_spec = reward_spec
        self.episode_length = episode_length
        self.terminate_on_target = terminate_on_target
        self.stats = EnvStats()
        self._backend: Optional[Any] = None
        #: The attached backend if :func:`~repro.service.RemoteEnv`
        #: built it, which :meth:`close` then closes.
        self._owned_backend: Optional[Any] = None
        self._eval_cache: "Optional[OrderedDict[ActionKey, Dict[str, float]]]" = None
        self._eval_cache_maxsize = 0
        self._shared_cache: "Optional[SharedCacheStore]" = None
        self.dataset: Optional[ArchGymDataset] = None
        self._source_tag = "unknown"
        self._rng = np.random.default_rng(0)
        self._steps_in_episode = 0
        self._needs_reset = True

    # -- cost model hook --------------------------------------------------------

    def evaluate(self, action: Mapping[str, Any]) -> Dict[str, float]:
        """Run the cost model for one design point.

        Returns a metric dictionary containing at least every name in
        ``observation_metrics``. Subclasses implement this by invoking
        their substrate simulator.
        """
        raise NotImplementedError

    # -- evaluation dispatch -------------------------------------------------------

    @property
    def backend(self) -> Optional[Any]:
        """The attached evaluation backend, or ``None`` for in-process."""
        return self._backend

    def attach_backend(self, backend: Any) -> None:
        """Dispatch every cost-model call through ``backend``.

        ``backend`` is duck-typed. Its one required hook is
        ``evaluate_batch(env_id, actions) -> List[Dict[str, float]]``,
        which every step uses, a single ``step`` as a one-point batch
        — e.g. :class:`repro.service.RemoteBackend`, which forwards the
        design points to an evaluation service over HTTP. An optional
        ``evaluate_batch_stream`` hook serves :meth:`step_batch_stream`.
        Everything above the cost model (reward, caching tiers, episode
        accounting, dataset logging) stays local, so an unmodified
        agent transparently evaluates over the network; remote calls
        are counted in ``stats.remote_evals``. The backend stays the
        caller's to close.
        """
        self._backend = backend
        self._owned_backend = None

    def detach_backend(self) -> Optional[Any]:
        """Return to in-process evaluation; hands back the old backend,
        which is then the caller's to close."""
        backend, self._backend = self._backend, None
        self._owned_backend = None
        return backend

    def _dispatch_evaluate_batch(
        self, actions: Sequence[Mapping[str, Any]]
    ) -> List[Dict[str, float]]:
        """Many cost-model runs, batched through the backend's
        ``evaluate_batch(env_id, actions)`` hook.

        ``remote_evals`` counts one per design point, and per-host
        attribution uses the backend's per-point ``last_hosts`` when it
        reports one (a pool that scattered the batch over several
        hosts), falling back to charging the call's points to
        ``last_host``. An answer of the wrong length is refused before
        anything is charged.
        """
        if self._backend is None:
            return [self.evaluate(action) for action in actions]
        metrics_list = list(self._backend.evaluate_batch(self.env_id, list(actions)))
        if len(metrics_list) != len(actions):
            raise EnvironmentError_(
                f"backend answered {len(metrics_list)} metric object(s) "
                f"for {len(actions)} design point(s)"
            )
        hosts = getattr(self._backend, "last_hosts", None)
        if hosts is None:
            hosts = [getattr(self._backend, "last_host", None)] * len(actions)
        self.stats.remote_evals += len(actions)
        by_host = self.stats.remote_evals_by_host
        for host in hosts:
            if host is not None:
                by_host[host] = by_host.get(host, 0) + 1
        return metrics_list

    def _dispatch_evaluate_batch_stream(
        self, actions: Sequence[Mapping[str, Any]]
    ) -> Iterator[Tuple[int, List[Dict[str, float]]]]:
        """Streaming variant of :meth:`_dispatch_evaluate_batch`:
        yields ``(start_index, metrics_list)`` chunks as the backend
        finishes them, in **arrival** order.

        Counter parity with the barrier dispatch: ``remote_evals`` and
        per-host attribution are charged chunk by chunk as results
        land and sum to exactly what one whole-batch call records. A
        backend without an ``evaluate_batch_stream`` hook — or no
        backend at all — degenerates to a single blocking whole-batch
        chunk, so callers never need to care what transport they got.
        A chunk that starts below 0, runs past the batch or covers an
        already answered point is refused before anything is charged.
        """
        stream_fn = getattr(self._backend, "evaluate_batch_stream", None)
        if self._backend is None or stream_fn is None:
            yield 0, self._dispatch_evaluate_batch(actions)
            return
        by_host = self.stats.remote_evals_by_host
        answered = [False] * len(actions)
        for start, metrics_list, host in stream_fn(self.env_id, list(actions)):
            end = start + len(metrics_list)
            if start < 0 or end > len(actions) or any(answered[start:end]):
                raise EnvironmentError_(
                    f"backend streamed a chunk for design points "
                    f"[{start}, {end}) of a batch of {len(actions)}: it runs "
                    f"outside the batch or repeats a point already answered"
                )
            answered[start:end] = [True] * len(metrics_list)
            self.stats.remote_evals += len(metrics_list)
            if host is not None:
                by_host[host] = by_host.get(host, 0) + len(metrics_list)
            yield start, metrics_list

    # -- evaluation cache ---------------------------------------------------------

    @property
    def cache_enabled(self) -> bool:
        return self._eval_cache is not None

    def enable_cache(self, maxsize: int = 4096) -> None:
        """Memoize :meth:`evaluate` on the canonicalized action.

        Only valid for deterministic cost models (all built-in
        environments qualify): a cached step returns the stored metric
        dict instead of re-running the simulator. The memo is a bounded
        LRU of ``maxsize`` design points (``maxsize <= 0`` is a no-op).
        DSE agents revisit designs constantly — GA elites, ACO's
        converged trails, BO's incumbent — so hit rates are high in
        practice. Hit/miss counts land in ``stats.cache_hits`` /
        ``stats.cache_misses``.
        """
        if maxsize <= 0:
            return
        if self._eval_cache is None:
            self._eval_cache = OrderedDict()
        self._eval_cache_maxsize = maxsize
        while len(self._eval_cache) > maxsize:
            self._eval_cache.popitem(last=False)

    def disable_cache(self) -> None:
        """Stop memoizing and drop any stored design points."""
        self._eval_cache = None
        self._eval_cache_maxsize = 0

    def clear_cache(self) -> None:
        """Drop stored design points but keep caching enabled."""
        if self._eval_cache is not None:
            self._eval_cache.clear()

    def cache_info(self) -> Dict[str, int]:
        """``{"hits", "misses", "shared_hits", "size"}`` for the
        evaluation cache tiers."""
        return {
            "hits": self.stats.cache_hits,
            "misses": self.stats.cache_misses,
            "shared_hits": self.stats.shared_cache_hits,
            "size": len(self._eval_cache) if self._eval_cache is not None else 0,
        }

    # -- shared (cross-process) cache tier ----------------------------------------

    @property
    def shared_cache(self) -> "Optional[SharedCacheStore]":
        return self._shared_cache

    def attach_shared_cache(self, store: "SharedCacheStore") -> None:
        """Consult ``store`` as a second cache tier behind the in-memory
        LRU (and populate it on every simulator run).

        The store outlives this environment, so concurrent trials of
        one sweep — and resumed re-runs — reuse each other's design
        points. Only valid for deterministic cost models, same as
        :meth:`enable_cache`. Hits land in ``stats.shared_cache_hits``;
        they count as neither a local hit nor a miss, so the exact
        "misses == simulator runs" contract is preserved.
        """
        self._shared_cache = store

    def detach_shared_cache(self) -> "Optional[SharedCacheStore]":
        store, self._shared_cache = self._shared_cache, None
        return store

    def _remember_local(self, key: ActionKey, metrics: Dict[str, float]) -> None:
        """Insert into the in-memory LRU (if enabled), evicting oldest."""
        if self._eval_cache is None:
            return
        self._eval_cache[key] = dict(metrics)
        self._eval_cache.move_to_end(key)
        while len(self._eval_cache) > self._eval_cache_maxsize:
            self._eval_cache.popitem(last=False)

    # -- dataset plumbing ---------------------------------------------------------

    def attach_dataset(self, dataset: ArchGymDataset, source: str = "unknown") -> None:
        """Start logging every step into ``dataset``, tagged with ``source``
        (typically the agent name + hyperparameter hash)."""
        if dataset.env_id and dataset.env_id != self.env_id:
            raise EnvironmentError_(
                f"dataset bound to {dataset.env_id!r}, not {self.env_id!r}"
            )
        dataset.env_id = self.env_id
        self.dataset = dataset
        self._source_tag = source

    def detach_dataset(self) -> Optional[ArchGymDataset]:
        ds, self.dataset = self.dataset, None
        return ds

    def set_source(self, source: str) -> None:
        """Change the provenance tag without replacing the dataset."""
        self._source_tag = source

    # -- gym API -------------------------------------------------------------------

    def reset(
        self, seed: Optional[int] = None, options: Optional[Dict[str, Any]] = None
    ) -> Tuple[Observation, Dict[str, Any]]:
        """Begin a new episode. Returns a zero observation (no design has
        been evaluated yet) and an info dict."""
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        self._steps_in_episode = 0
        self._needs_reset = False
        self.stats.total_episodes += 1
        observation = np.zeros(len(self.observation_metrics), dtype=np.float64)
        return observation, {"env_id": self.env_id}

    def step(self, action: Mapping[str, Any]) -> StepResult:
        """Evaluate one design point and return the gym 5-tuple.

        A one-point :meth:`step_batch`: the same decision pass and
        replay, so a miss goes out through the backend's
        ``evaluate_batch`` hook and the shared tier is asked with
        ``get_many`` and written with ``put_many``, one key each.
        """
        (result,) = self._steps([action], "step", stream=False)
        return result

    def step_batch(
        self, actions: Sequence[Mapping[str, Any]]
    ) -> List[StepResult]:
        """Evaluate a whole generation of design points in one call.

        Semantically this is ``[step(a) for a in actions]`` — same
        rewards, cache counters, episode accounting, dataset rows, and
        step numbering, byte for byte — except that the design points
        no cache tier can answer are sent through the backend's
        ``evaluate_batch`` hook *together*: one HTTP round trip per
        generation on a remote service (and one scatter over a host
        pool) instead of one per point. The shared tier, likewise, is
        asked once (``get_many``) and written once (``put_many``) per
        batch.

        The batch is processed in proposal order in two passes. The
        *decision* pass classifies every point exactly as the serial
        loop would — consulting the local LRU (simulated forward so
        in-batch duplicates and evictions resolve identically) and the
        shared tier — and collects the misses. After one batched
        dispatch of the misses, whose metrics are all checked before
        any bookkeeping, the *replay* pass applies the serial per-point
        bookkeeping in order: counters, LRU insertion and eviction,
        reward computation, episode accounting, and dataset logging;
        the misses then go to the shared tier in replay order, as the
        serial loop would have put them. A mid-batch episode end is
        auto-reset (what the serial driver does between steps); an
        episode end on the final point leaves ``_needs_reset`` set for
        the caller, exactly like :meth:`step`.
        """
        return list(self._steps(actions, "step_batch", stream=False))

    def step_batch_stream(
        self, actions: Sequence[Mapping[str, Any]]
    ) -> Iterator[StepResult]:
        """:meth:`step_batch` over a streaming dispatch — results flow
        back per work unit instead of behind a whole-batch barrier.

        Byte-identical to :meth:`step_batch` (which is byte-identical
        to the serial loop): the decision pass classifies every point
        the same way, and the replay pass applies the serial
        bookkeeping in **proposal order** — chunks may *arrive* in any
        order (a work-stolen straggler unit lands whenever its thief
        finishes), are buffered, and each point is replayed only once
        its metrics are in hand. Completed :class:`StepResult` tuples
        are yielded in proposal order as they become replayable.

        Returns a generator; validation and the decision pass run
        eagerly at call time. The caller must drain the generator — a
        partially consumed stream leaves the episode bookkeeping
        mid-batch (the dispatcher itself stops handing out work when
        the generator is closed). The shared tier gets the batch's
        misses in one write just before the last result is handed
        over, or — for a stream closed early — the misses replayed so
        far when it is closed; a stream that raises (a refused chunk,
        say) writes none. Backends without streaming support
        (including in-process evaluation) fall back to one whole-batch
        chunk, so this is always safe to call.
        """
        return self._steps(actions, "step_batch_stream", stream=True)

    def _steps(
        self, actions: Sequence[Mapping[str, Any]], caller: str, stream: bool
    ) -> Iterator[StepResult]:
        """The one step path behind :meth:`step`, :meth:`step_batch`
        and :meth:`step_batch_stream`.

        Runs now: the reset check, per-point validation, canonical keys
        (when any cache tier is on) and the decision pass — and, unless
        ``stream``, the one whole-batch dispatch of the misses with
        every metric checked. Returns the replay generator; a streamed
        batch's chunks are pulled as the replay needs them.
        """
        if self._needs_reset:
            raise EnvironmentError_(f"call reset() before {caller}()")
        actions = list(actions)
        for action in actions:
            try:
                self.action_space.validate(action)
            except Exception as exc:
                raise InvalidActionError(str(exc)) from exc
        caching = self._eval_cache is not None or self._shared_cache is not None
        keys: List[Optional[ActionKey]] = [
            canonical_action_key(action) if caching else None
            for action in actions
        ]
        plan, miss_actions, shared_seen = self._plan_batch(actions, keys)
        miss_metrics: List[Optional[Dict[str, float]]] = [None] * len(miss_actions)
        chunks: Iterator[Tuple[int, List[Dict[str, float]]]] = iter(())
        if stream and miss_actions:
            chunks = self._dispatch_evaluate_batch_stream(miss_actions)
        elif miss_actions:
            start = time.perf_counter()
            miss_metrics = list(self._dispatch_evaluate_batch(miss_actions))
            self.stats.total_sim_time += time.perf_counter() - start
            for metrics in miss_metrics:
                self._check_metrics(metrics)
        return self._replay(
            actions, keys, plan, miss_metrics, chunks, shared_seen
        )

    def _replay(
        self,
        actions: List[Mapping[str, Any]],
        keys: List[Optional[ActionKey]],
        plan: List[Tuple[str, Any]],
        miss_metrics: List[Optional[Dict[str, float]]],
        chunks: Iterator[Tuple[int, List[Dict[str, float]]]],
        shared_seen: Dict[ActionKey, Dict[str, float]],
    ) -> Iterator[StepResult]:
        """Replay pass: every point in proposal order. A miss whose
        metrics are not in hand yet pulls chunks off ``chunks`` — in
        arrival order, each checked as it lands, out-of-order ones
        buffered — until its index is filled."""

        def fill(index: int) -> None:
            while miss_metrics[index] is None:
                start = time.perf_counter()
                try:
                    chunk_start, metrics_list = next(chunks)
                except StopIteration:
                    raise EnvironmentError_(
                        f"evaluation stream ended with design point "
                        f"{index} of {len(miss_metrics)} unanswered"
                    ) from None
                self.stats.total_sim_time += time.perf_counter() - start
                for offset, metrics in enumerate(metrics_list):
                    self._check_metrics(metrics)
                    miss_metrics[chunk_start + offset] = metrics

        puts: List[Tuple[ActionKey, Dict[str, float]]] = []
        last = len(plan) - 1
        try:
            for i, (action, key, (tag, ref)) in enumerate(
                zip(actions, keys, plan)
            ):
                if tag in ("miss", "shared-dup"):
                    fill(ref)
                result = self._replay_point(
                    action, key, tag, ref, miss_metrics, shared_seen, puts
                )
                if i == last:
                    # Before the last result, not after it: a caller
                    # that stops pulling once it holds every result
                    # must still leave the shared tier complete.
                    self._flush_shared(puts)
                yield result
        except GeneratorExit:
            # The caller closed the stream early: the points it was
            # handed are good. A replay that raises writes nothing, as
            # a refused chunk may have answered earlier points wrongly.
            self._flush_shared(puts)
            raise

    def _check_metrics(self, metrics: Mapping[str, float]) -> None:
        missing = [m for m in self.observation_metrics if m not in metrics]
        if missing:
            raise EnvironmentError_(
                f"cost model did not report metrics {missing}; "
                f"got {sorted(metrics)}"
            )

    def _plan_batch(
        self,
        actions: List[Mapping[str, Any]],
        keys: List[Optional[ActionKey]],
    ) -> Tuple[
        List[Tuple[str, Any]],
        List[Mapping[str, Any]],
        Dict[ActionKey, Dict[str, float]],
    ]:
        """Decision pass of every step: classify each point as the
        serial loop would.

        The local LRU is overlaid, not copied, so the pass costs
        O(batch) rather than O(LRU): ``touched`` holds the keys the
        batch has hit or inserted (the LRU's tail, oldest first),
        ``gone`` the pre-batch keys that have left the untouched head
        by a touch or an eviction, and the head is read lazily, oldest
        first, only when an insert overflows ``maxsize``. In-batch
        duplicates — and duplicates evicted again by a batch larger
        than the LRU — thus resolve exactly as they would serially.

        Every point moves to the LRU's end whatever its tag, so the
        overlay runs alone first, and the points it cannot answer are
        known before the shared tier is asked anything: their distinct
        keys go out in one ``get_many``. The serial loop asks the tier
        about exactly these keys (a repeat is answered by the earlier
        point's lookup or miss), so the classification is unchanged.
        Returns ``(plan, miss_actions, shared_seen)``: per-point
        ``("local"|"shared"|"shared-dup"|"miss", ref)`` tags, the
        design points no cache tier could answer (in proposal order),
        and the shared-tier answers fetched.
        """
        plan: List[Tuple[str, Any]] = []
        miss_actions: List[Mapping[str, Any]] = []
        lru = self._eval_cache
        touched: "OrderedDict[ActionKey, None]" = OrderedDict()
        gone: set = set()
        head = len(lru) if lru is not None else 0
        oldest: Optional[Iterator[ActionKey]] = None
        pending: Dict[ActionKey, int] = {}  # in-batch miss -> its index

        def sim_contains(key: Optional[ActionKey]) -> bool:
            return lru is not None and (
                key in touched or (key not in gone and key in lru)
            )

        def sim_remember(key: ActionKey) -> None:
            """Move ``key`` to the LRU's end, evicting oldest first."""
            nonlocal head, oldest
            if lru is None:
                return
            if key in touched:
                touched.move_to_end(key)
                return
            if key not in gone and key in lru:
                gone.add(key)
                head -= 1
            touched[key] = None
            while head + len(touched) > self._eval_cache_maxsize:
                if not head:
                    touched.popitem(last=False)
                    continue
                if oldest is None:
                    oldest = iter(lru)
                gone.add(next(k for k in oldest if k not in gone))
                head -= 1

        in_lru: List[bool] = []
        for key in keys:
            in_lru.append(sim_contains(key))
            if key is not None:
                sim_remember(key)
        shared = self._shared_cache
        shared_seen: Dict[ActionKey, Dict[str, float]] = {}
        if shared is not None:
            wanted = list(dict.fromkeys(
                key for key, hit in zip(keys, in_lru) if not hit
            ))
            if wanted:
                shared_seen = shared.get_many(wanted)

        for action, key, hit in zip(actions, keys, in_lru):
            if hit:
                plan.append(("local", key))
            elif key in pending and shared is not None:
                # An earlier in-batch miss already evaluated (and will
                # shared-put) this point; with the local LRU disabled or
                # having evicted it, the serial lookup finds it in the
                # shared tier.
                plan.append(("shared-dup", pending[key]))
            elif key in shared_seen:
                plan.append(("shared", key))
            else:
                index = len(miss_actions)
                miss_actions.append(action)
                plan.append(("miss", index))
                if key is not None:
                    pending[key] = index
        return plan, miss_actions, shared_seen

    def _replay_point(
        self,
        action: Mapping[str, Any],
        key: Optional[ActionKey],
        tag: str,
        ref: Any,
        miss_metrics: Sequence[Optional[Dict[str, float]]],
        shared_seen: Dict[ActionKey, Dict[str, float]],
        puts: List[Tuple[ActionKey, Dict[str, float]]],
    ) -> StepResult:
        """Replay pass for one classified point: the serial per-point
        bookkeeping — counters, LRU insertion/eviction, reward, episode
        accounting, dataset logging — in the order a point-at-a-time
        loop applies it. A miss bound for the shared tier is appended
        to ``puts``, which the caller writes in one
        :meth:`_flush_shared`."""
        if self._needs_reset:
            # A mid-batch episode end: the serial driver resets
            # between steps, so the batch path does too.
            self.reset()
        if tag == "local":
            # By replay time the real LRU holds the key: it either
            # pre-dated the batch or was remembered by an earlier
            # miss/shared hit replayed above.
            cached = self._eval_cache[ref]
            self.stats.cache_hits += 1
            self._eval_cache.move_to_end(ref)
            metrics = dict(cached)
        elif tag == "shared":
            self.stats.shared_cache_hits += 1
            metrics = dict(shared_seen[ref])
            self._remember_local(ref, metrics)
        elif tag == "shared-dup":
            self.stats.shared_cache_hits += 1
            metrics = {k: float(v) for k, v in miss_metrics[ref].items()}
            self._remember_local(key, metrics)
        else:  # miss
            metrics = miss_metrics[ref]
            if key is not None:
                self.stats.cache_misses += 1
                clean = {k: float(v) for k, v in metrics.items()}
                self._remember_local(key, clean)
                if self._shared_cache is not None:
                    puts.append((key, clean))

        reward = self.reward_spec.compute(metrics)
        observation = np.array(
            [metrics[m] for m in self.observation_metrics], dtype=np.float64
        )

        self._steps_in_episode += 1
        self.stats.total_steps += 1

        target_met = self.reward_spec.meets_target(metrics)
        terminated = bool(self.terminate_on_target and target_met)
        truncated = self._steps_in_episode >= self.episode_length
        if terminated or truncated:
            self._needs_reset = True

        info: Dict[str, Any] = {
            "metrics": dict(metrics),
            "target_met": target_met,
            "step": self._steps_in_episode,
        }

        if self.dataset is not None:
            self.dataset.append(
                Transition(
                    action=dict(action),
                    metrics={k: float(v) for k, v in metrics.items()},
                    reward=float(reward),
                    source=self._source_tag,
                    step=self.stats.total_steps,
                )
            )

        return (observation, float(reward), terminated, truncated, info)

    def _flush_shared(self, puts: List[Tuple[ActionKey, Dict[str, float]]]) -> None:
        """Write a batch's replayed misses to the shared tier with one
        ``put_many``, in replay order — the entries, and their order,
        the serial loop's per-point ``put`` calls would have written.
        Empties ``puts``, so a second call writes nothing."""
        if puts:
            entries = list(puts)
            puts.clear()
            self._shared_cache.put_many(entries)

    # -- convenience ------------------------------------------------------------------

    def random_action(self) -> Dict[str, Any]:
        """Sample a uniform random action from the env's own generator."""
        return self.action_space.sample(self._rng)

    def render(self) -> str:
        """Human-readable one-line status (gym compatibility)."""
        return f"{self.env_id}: {self.stats!r}"

    def close(self) -> None:
        """Release resources: closes a backend the env owns (see
        :func:`~repro.service.RemoteEnv`); otherwise a no-op for the
        built-in environments."""
        if self._owned_backend is not None:
            self._owned_backend.close()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(env_id={self.env_id!r}, "
            f"dim={self.action_space.dimension}, "
            f"|A|={self.action_space.cardinality:.3g})"
        )
