"""Multi-host scheduling for remote evaluation: spread one sweep's
cost-model traffic over several evaluation services.

The paper's §6 argument — fair agent comparison needs *huge* numbers of
simulator evaluations — makes the evaluation service the throughput
ceiling of a sweep. One ``repro serve`` host saturates at one
simulator's speed; :class:`HostPool` points a sweep at N of them:

- **Round-robin dispatch.** Every whole-batch call starts at the
  living host after the one the previous call tried, so a serial
  caller spreads its requests evenly over the fleet. Capacity weights
  size scatter chunks only.
- **Generation scatter.** :meth:`HostPool.evaluate_batch_scatter`
  splits one batch of design points across all living hosts in
  weight-proportional contiguous chunks, dispatches the chunks in
  parallel, and reassembles the results in request order with
  per-point host provenance — the transport under generation-native
  agents (GA/ACO populations), which turns N per-point round trips
  into one per host. Each host's chunk runs on that host's one
  persistent scatter worker thread, so every generation reuses the
  same keep-alive socket per host. The scatter is a *barrier*: the
  call returns only when the slowest host has finished its chunk.
- **Streaming dispatch with work stealing.**
  :meth:`HostPool.evaluate_batch_stream` removes that barrier. The
  batch is cut into small contiguous *work units* that hosts pull
  from a shared queue as they finish (fast hosts naturally take
  more), completed units are yielded to the caller immediately —
  arrival order, not request order — and when the queue runs dry an
  idle host *steals* a straggler's in-flight unit by re-dispatching
  a duplicate request. Evaluations are deterministic and idempotent,
  so the first completion wins and late duplicates are discarded by
  unit id; no unit is ever recorded twice. The stream finishes as
  soon as every *result* is known — abandoned straggler requests may
  still be in flight, which is exactly what lets a pipelined driver
  start the next generation on the idle hosts meanwhile.
- **Health and failover.** A host whose transport fails (connection
  refused/reset, timeout, torn body — after the client's own retry
  policy) is *quarantined* and the next living host takes its turn.
  Evaluations are deterministic and idempotent, so a re-sent design
  point can never produce a duplicate or divergent result — which is
  what keeps a multi-host sweep bit-identical to a serial in-process
  run.
- **Revival.** A quarantined host that has rested ``revive_after_s``
  is re-probed via ``GET /healthz`` at the next dispatch, and when
  every host is quarantined the pool re-probes them all at once; a
  host that answers is backfilled and rejoins (a restarted server
  rejoins automatically). Only when that last sweep finds no living
  host does the call raise, with a per-host error inventory; the
  executor layer wraps it with the failing trial's name.
- **The shared cache tier.** :meth:`HostPool.cache_read` and
  :meth:`HostPool.cache_write` carry a
  :class:`~repro.core.cache_store.ServerCacheStore`'s ``/cache``
  traffic through the same failover loop as whole-batch evaluation,
  in URL order instead of round-robin.

Server-produced errors (HTTP 4xx/5xx bodies — unknown env, cost-model
crash) are **not** failover events: they are deterministic and would
fail identically on every host, so they propagate immediately.

:class:`~repro.service.remote.RemoteBackend` always drives a pool, so
one URL is a one-host pool: its batches still ride one
``POST /evaluate_batch``, and a host whose transport dies gets the
all-dead revival probe before the call fails.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from fractions import Fraction
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.cache_store import listing_pages
from repro.core.errors import ServiceError, ServiceTransportError
from repro.service.client import ServiceClient

__all__ = ["HostPool", "weighted_split"]

#: EWMA smoothing factor for observed per-host service rates: high
#: enough that a genuinely slow host is demoted within a few refresh
#: windows, low enough that one noisy window cannot whipsaw the split.
_AUTO_WEIGHT_ALPHA = 0.4
#: Floor on the observed-rate multiplier applied to a host's static
#: weight — the "never starved" clamp: however slow a host measures,
#: it keeps at least this fraction of its declared capacity, so it
#: continues to receive (and report on) work and can be promoted back.
_AUTO_WEIGHT_FLOOR = 0.1
#: Page size for the anti-entropy cache backfill of a revived host.
_BACKFILL_PAGE = 200
#: Smallest busy-time delta a refresh window may turn into a rate.
#: With ``auto_weights_interval_s=0`` two healthz polls can land
#: back-to-back; dividing a 1-evaluation delta by a sub-microsecond
#: busy window would fold an absurd rate spike into the EWMA.
_MIN_RATE_WINDOW_S = 1e-6


def weighted_split(n: int, weights: Sequence[float]) -> List[int]:
    """Apportion ``n`` items over non-negative ``weights`` proportionally.

    Largest-remainder rounding (ties to the earlier position), so the
    counts always sum to ``n``, each count is the floor of its share or
    one above it, and the split is deterministic for a given weight
    vector. The shares are exact fractions, so no weight is too large
    (``n * w`` would overflow a float) and equal remainders really tie.
    """
    if not weights:
        raise ServiceError("weighted_split needs at least one weight")
    exact = [Fraction(w) for w in weights]
    total = sum(exact)
    if total <= 0:
        # A weight vector derived from *observed* service rates can
        # legitimately be all zero (a cold fleet with no measurements
        # yet): split uniformly instead of dividing by zero.
        exact, total = [Fraction(1)] * len(exact), Fraction(len(exact))
    shares = [n * w / total for w in exact]
    counts = [math.floor(share) for share in shares]
    order = sorted(
        range(len(shares)), key=lambda i: (counts[i] - shares[i], i)
    )
    for i in order[: n - sum(counts)]:
        counts[i] += 1
    return counts


class _Host:
    """One evaluation service inside the pool."""

    __slots__ = (
        "url", "client", "probe_client", "weight", "alive", "evals",
        "last_error", "quarantined_at", "auto_weight",
        "rate_ewma", "seen_evals", "seen_busy_s", "scatter_worker",
    )

    def __init__(
        self, url: str, client: ServiceClient, probe_client: ServiceClient,
        weight: float = 1.0,
    ) -> None:
        self.url = client.base_url
        self.client = client
        #: Short-timeout, zero-retry client for healthz re-probes of a
        #: quarantined host — a probe of a still-dead host must cost
        #: seconds, not the full evaluation timeout × retries.
        self.probe_client = probe_client
        #: Relative capacity: a weight-2 host takes twice the share of
        #: a scattered generation (weights size scatter chunks only).
        self.weight = weight
        self.alive = True
        self.evals = 0  # design points this host answered
        self.last_error: Optional[str] = None
        self.quarantined_at = 0.0
        #: Effective scatter weight: equals ``weight`` until an
        #: auto-weights refresh blends in the observed service rate.
        self.auto_weight = weight
        #: EWMA of the observed service rate (design points per busy
        #: second, from the host's /healthz counters); None until the
        #: first measurement window with actual work in it.
        self.rate_ewma: Optional[float] = None
        # healthz counter baselines for per-window rate deltas
        self.seen_evals = 0
        self.seen_busy_s = 0.0
        #: The one thread that runs this host's scatter chunks, created
        #: on first scatter and shut down by :meth:`HostPool.close`:
        #: one request per host at a time, and one keep-alive socket
        #: (the client keeps one per thread) for every generation.
        self.scatter_worker: Optional[ThreadPoolExecutor] = None

    def __repr__(self) -> str:
        state = "alive" if self.alive else f"quarantined ({self.last_error})"
        return f"_Host({self.url!r}, {state}, weight={self.weight})"


class HostPool:
    """Schedule evaluation calls over several service hosts.

    Parameters
    ----------
    urls:
        Base URLs of running evaluation services. Duplicates are
        collapsed (one host, one health state). Order is the
        round-robin order of whole-batch calls and the replica order
        of the shared cache tier (its first living host is the
        primary).
    weights:
        Per-host capacity weights aligned with ``urls`` (``None`` =
        all 1.0). A weight-W host receives a W-proportional share of
        every scattered batch; weights size scatter chunks only, and
        whole-batch calls go round-robin regardless. Weights must be
        positive and finite; duplicate URLs must agree on their
        weight.
    timeout_s, retries, backoff_s:
        Per-host :class:`ServiceClient` policy — each host gets its own
        client (and with it its own keep-alive connections).
    revive_after_s:
        How long a quarantined host rests before the pool re-probes
        its ``/healthz`` (with a short-timeout, zero-retry probe) and
        revives it on success — so one transient failure costs a host
        at most this long, not the rest of the sweep. A failed probe
        restarts the clock. ``0`` probes on every dispatch. A revived
        host is first *backfilled*: the pool pages a living
        replica's ``/cache`` map into it (the anti-entropy sweep), so
        a server that restarted empty rejoins with the fleet's shared
        entries instead of forcing re-simulation.
    auto_weights:
        Self-tune the scatter weights from observed service rates.
        Every ``auto_weights_interval_s`` the pool reads each living
        host's ``/healthz`` counters (``evaluations`` and the server's
        ``busy_s`` accumulator), computes the per-window service rate
        (design points per busy second), smooths it with an EWMA, and
        scales each host's static weight by its rate relative to the
        fastest host — clamped to a floor so a slow host keeps a
        trickle of work (and a *cold* host with no measurements keeps
        its full static weight, never starved). Generation scatter
        then rebalances a heterogeneous fleet automatically. Purely a
        placement knob: evaluations are deterministic, so results are
        byte-identical either way.
    auto_weights_interval_s:
        Seconds between auto-weight refreshes (``0`` refreshes on
        every dispatch — useful in tests and microbenchmarks).

    Thread-safe: host state (health, the round-robin cursor, the
    counters) sits under one lock, while the HTTP calls themselves run
    outside it. In a sweep one thread drives each trial process's pool,
    but the pool's own scatter and stream workers dispatch through it
    concurrently, and scatters from several threads queue behind each
    host's one scatter worker.
    """

    def __init__(
        self,
        urls: Sequence[str],
        timeout_s: float = 60.0,
        retries: int = 2,
        backoff_s: float = 0.05,
        revive_after_s: float = 30.0,
        weights: Optional[Sequence[float]] = None,
        auto_weights: bool = False,
        auto_weights_interval_s: float = 5.0,
    ) -> None:
        if isinstance(urls, str):  # a lone URL is a 1-host pool
            urls = (urls,)
        if not urls:
            raise ServiceError("HostPool needs at least one service url")
        if weights is None:
            weights = [1.0] * len(urls)
        if len(weights) != len(urls):
            raise ServiceError(
                f"HostPool got {len(urls)} url(s) but {len(weights)} "
                "weight(s); pass one weight per url (or None for all-1)"
            )
        for url, weight in zip(urls, weights):
            if not (isinstance(weight, (int, float))
                    and math.isfinite(weight) and weight > 0):
                raise ServiceError(
                    f"host weight for {url!r} must be a positive finite "
                    f"number, got {weight!r}"
                )
        # Dedupe on the client-normalized base URL, not the raw string:
        # 'http://h:1' and 'http://h:1/' are one server, and two _Host
        # entries for it would split its quarantine state and double
        # its share of round-robin dispatch.
        self._hosts: List[_Host] = []
        seen: Dict[str, float] = {}
        for url, weight in zip(urls, weights):
            client = ServiceClient(
                url, timeout_s=timeout_s, retries=retries, backoff_s=backoff_s,
            )
            if client.base_url in seen:
                if seen[client.base_url] != float(weight):
                    raise ServiceError(
                        f"conflicting weights for host {client.base_url!r}: "
                        f"{seen[client.base_url]} vs {weight}"
                    )
                continue
            seen[client.base_url] = float(weight)
            probe = ServiceClient(
                url, timeout_s=min(timeout_s, 2.0), retries=0,
                backoff_s=backoff_s,
            )
            self._hosts.append(_Host(url, client, probe, weight=float(weight)))
        self.revive_after_s = revive_after_s
        if auto_weights_interval_s < 0:
            raise ServiceError(
                f"auto_weights_interval_s must be >= 0, got "
                f"{auto_weights_interval_s}"
            )
        self.auto_weights = auto_weights
        self.auto_weights_interval_s = auto_weights_interval_s
        self._weights_refreshed_at = float("-inf")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0  # round-robin cursor: the host _call tries first
        #: Cumulative streaming-dispatch accounting (under ``_lock``):
        #: work units dispatched, units re-dispatched by an idle host
        #: stealing a straggler's in-flight work, and late duplicate
        #: completions discarded because another host won the unit.
        self.stream_units = 0
        self.stream_steals = 0
        self.stream_duplicates = 0
        #: Auto-weight refreshes that actually recomputed the
        #: effective weights (at least one host had rate data).
        self.auto_weight_updates = 0
        #: Cache entries copied into revived hosts by the
        #: anti-entropy backfill.
        self.cache_backfills = 0

    # -- introspection ------------------------------------------------------------

    @property
    def urls(self) -> List[str]:
        return [h.url for h in self._hosts]

    @property
    def quarantined_urls(self) -> List[str]:
        with self._lock:
            return [h.url for h in self._hosts if not h.alive]

    @property
    def evals_by_host(self) -> Dict[str, int]:
        """Design points answered per host (successful calls only)."""
        with self._lock:
            return {h.url: h.evals for h in self._hosts if h.evals}

    @property
    def weights_by_host(self) -> Dict[str, float]:
        """Static capacity weight per host (the declared ``=WEIGHT``)."""
        return {h.url: h.weight for h in self._hosts}

    @property
    def effective_weights_by_host(self) -> Dict[str, float]:
        """The weights the scatter actually uses right now: the static
        weights, scaled by observed service rates when
        ``auto_weights`` is on (identical to :attr:`weights_by_host`
        until the first refresh with rate data)."""
        with self._lock:
            return {h.url: h.auto_weight for h in self._hosts}

    @property
    def last_host(self) -> Optional[str]:
        """URL that served the calling thread's most recent success —
        how :class:`~repro.core.env.ArchGymEnv` attributes its per-host
        ``remote_evals`` counters."""
        return getattr(self._local, "last_host", None)

    def __repr__(self) -> str:
        return (
            f"HostPool(hosts={self.urls}, quarantined={self.quarantined_urls})"
        )

    # -- health -------------------------------------------------------------------

    def _mark(self, host: _Host, alive: bool, error: Optional[str] = None) -> None:
        with self._lock:
            host.alive = alive
            host.last_error = None if alive else (error or host.last_error)
            if not alive:
                host.quarantined_at = time.monotonic()

    def _error_inventory(self) -> str:
        with self._lock:
            return "; ".join(
                f"{h.url}: {h.last_error or 'ok'}" for h in self._hosts
            )

    def _revive(self, rest_s: float) -> int:
        """Probe each quarantined host that has rested at least
        ``rest_s`` seconds; returns how many came back.

        Timed revival passes ``revive_after_s``; the sweep that runs
        when every host is dead passes 0. Each probe is one short
        healthz, claimed by restarting its host's clock: concurrent
        dispatchers cannot double-probe, and a still-dead host costs
        the dispatch path a bounded, occasional probe instead of the
        full evaluation timeout on every trial. A responder is
        backfilled, then rejoins the pool.
        """
        revived = 0
        now = time.monotonic()
        for host in self._hosts:
            with self._lock:
                due = not host.alive and now - host.quarantined_at >= rest_s
                if due:
                    host.quarantined_at = now
            if not due:
                continue
            try:
                host.probe_client.healthz()
            except ServiceError:
                continue
            self._backfill_cache(host)
            self._mark(host, alive=True)
            revived += 1
        return revived

    def _backfill_cache(self, revived: _Host) -> None:
        """Anti-entropy: page a living replica's cache into ``revived``.

        A host that restarted rejoins with an empty in-memory cache;
        its replicas still hold every entry the shared cache tier
        wrote through. Before the revived host takes traffic again,
        copy one live donor's ``GET /cache`` listing into it page by
        page — one bulk ``PUT /cache`` per page — so none of its lost
        entries ever forces a re-simulation. Best-effort: if the donor
        (or the revived host) dies mid-copy the pages already written
        are kept (and counted) and the next donor — or the next
        revival — continues; reads fall back to replicas meanwhile.
        """
        with self._lock:
            donors = [h for h in self._hosts if h.alive and h is not revived]
        for donor in donors:
            copied = 0
            try:
                for entries in listing_pages(
                    donor.probe_client.cache_list, _BACKFILL_PAGE
                ):
                    revived.probe_client.cache_put_many(entries)
                    copied += len(entries)
            except ServiceError:
                with self._lock:
                    self.cache_backfills += copied
                continue  # partial copy kept; try the next donor
            with self._lock:
                self.cache_backfills += copied
            return

    def _refresh_auto_weights(self) -> None:
        """Blend observed service rates into the scatter weights.

        Reads each living host's ``/healthz`` counters through the
        cheap probe client, turns the counter deltas since the last
        refresh into a per-window service rate (evaluations per busy
        second), smooths it with an EWMA, and scales each host's
        static weight by its rate relative to the fastest host. The
        ratio is clamped to ``_AUTO_WEIGHT_FLOOR`` so a slow host
        keeps a trickle of work (and can be promoted back when it
        speeds up); a *cold* host with no measurements keeps its full
        static weight — never starved by missing data.
        """
        if not self.auto_weights:
            return
        now = time.monotonic()
        with self._lock:
            if now - self._weights_refreshed_at < self.auto_weights_interval_s:
                return
            self._weights_refreshed_at = now  # claim this refresh slot
            living = [h for h in self._hosts if h.alive]
        for host in living:
            try:
                health = host.probe_client.healthz()
            except ServiceError:
                continue  # quarantining is the dispatch path's call
            self._note_rate_sample(
                host,
                int(health.get("evaluations", 0)),
                float(health.get("busy_s", 0.0)),
            )
        self._apply_auto_weights()

    def _note_rate_sample(self, host: _Host, evals: int, busy: float) -> None:
        """Fold one host's healthz counter reading into its rate EWMA."""
        with self._lock:
            d_evals = evals - host.seen_evals
            d_busy = busy - host.seen_busy_s
            if d_evals < 0 or d_busy < 0:
                # Counters went backwards: the host restarted.
                # Re-baseline and wait for a fresh window.
                host.seen_evals = evals
                host.seen_busy_s = busy
                return
            if d_evals == 0 or d_busy < _MIN_RATE_WINDOW_S:
                # Zero-delta (or sub-epsilon) window — nothing to
                # measure. Crucially, do NOT advance the baseline:
                # with interval 0, back-to-back polls would
                # otherwise consume the accumulation window and a
                # later poll would see a 0-or-spike rate.
                return
            host.seen_evals = evals
            host.seen_busy_s = busy
            rate = d_evals / d_busy
            host.rate_ewma = (
                rate if host.rate_ewma is None
                else _AUTO_WEIGHT_ALPHA * rate
                + (1.0 - _AUTO_WEIGHT_ALPHA) * host.rate_ewma
            )

    def _apply_auto_weights(self) -> None:
        """Recompute the effective scatter weights from the rate EWMAs
        (a no-op — and no counted update — until at least one host has
        a measurement)."""
        with self._lock:
            rated = [
                h.rate_ewma for h in self._hosts if h.rate_ewma is not None
            ]
            if not rated:
                return
            top = max(rated)
            for host in self._hosts:
                if host.rate_ewma is None or top <= 0:
                    host.auto_weight = host.weight
                else:
                    host.auto_weight = host.weight * max(
                        host.rate_ewma / top, _AUTO_WEIGHT_FLOOR
                    )
            self.auto_weight_updates += 1

    # -- dispatch -----------------------------------------------------------------

    def _try_host(
        self, host: _Host, op: str, n_evals: int, *args: Any, **kwargs: Any
    ) -> Any:
        """One attempt pinned to ``host``, crediting it ``n_evals``
        design points when it answers.

        Transport death (after the client's own retries) quarantines
        the host and re-raises so the caller can fail the work over:
        the request is idempotent, so the next host re-runs it safely.
        Server-produced errors propagate untouched.
        """
        try:
            result = getattr(host.client, op)(*args, **kwargs)
        except ServiceTransportError as exc:
            self._mark(host, alive=False, error=str(exc))
            raise
        with self._lock:
            host.evals += n_evals
        return result

    def _failover(
        self, op: str, n_evals: int, *args: Any,
        copies: int, rotate: bool, failed: str, **kwargs: Any,
    ) -> List[Tuple[_Host, Any]]:
        """Run ``op`` on living hosts, one after another, until
        ``copies`` of them answer; returns ``(host, answer)`` pairs.

        With ``rotate`` the hosts are tried from the round-robin
        cursor, which moves past every host tried; otherwise in URL
        order. A host whose transport dies is quarantined and the next
        living host takes its turn. If no host answers, one revival
        sweep runs; if it revives none, or they fail too,
        :class:`ServiceTransportError` carries ``failed`` and the
        per-host error inventory.
        """
        n = len(self._hosts)
        revived = False
        while True:
            tried: Set[int] = set()
            answers: List[Tuple[_Host, Any]] = []
            while len(answers) < copies:
                with self._lock:
                    start = self._next if rotate else 0
                    ring = [(start + k) % n for k in range(n)]
                    index = next(
                        (i for i in ring if self._hosts[i].alive and i not in tried),
                        None,
                    )
                    if index is None:
                        break
                    tried.add(index)
                    if rotate:
                        self._next = (index + 1) % n
                host = self._hosts[index]
                try:
                    answer = self._try_host(host, op, n_evals, *args, **kwargs)
                except ServiceTransportError:
                    continue  # quarantined: the next living host takes its turn
                answers.append((host, answer))
            if answers:
                return answers
            if revived or not self._revive(0.0):
                raise ServiceTransportError(f"{failed}: {self._error_inventory()}")
            revived = True

    def _call(self, op: str, n_evals: int, *args: Any, **kwargs: Any) -> Any:
        """Run ``op`` on one host, round-robin, through the failover
        loop; due quarantined hosts are re-probed first."""
        self._revive(self.revive_after_s)
        self._refresh_auto_weights()
        [(host, result)] = self._failover(
            op, n_evals, *args, copies=1, rotate=True,
            failed=f"all {len(self._hosts)} evaluation host(s) failed",
            **kwargs,
        )
        self._local.last_host = host.url
        return result

    # -- the surface RemoteBackend uses -------------------------------------------

    def evaluate(
        self,
        env: str,
        action: Dict[str, Any],
        env_kwargs: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, float]:
        """Evaluate one design point on the next host in round-robin
        order: a one-action batch, with the same failover."""
        return self._call("evaluate_batch", 1, env, [action], env_kwargs=env_kwargs)[0]

    def evaluate_batch(
        self,
        env: str,
        actions: Sequence[Dict[str, Any]],
        env_kwargs: Optional[Dict[str, Any]] = None,
    ) -> List[Dict[str, float]]:
        """Evaluate a batch on one host (whole-batch failover)."""
        return self._call(
            "evaluate_batch", len(actions), env, actions, env_kwargs=env_kwargs
        )

    def evaluate_batch_scatter(
        self,
        env: str,
        actions: Sequence[Dict[str, Any]],
        env_kwargs: Optional[Dict[str, Any]] = None,
    ) -> Tuple[List[Dict[str, float]], List[Optional[str]]]:
        """Split one batch across the living hosts and run the chunks
        in parallel.

        The batch (typically a GA/ACO generation) is cut into
        contiguous chunks sized by capacity weight — a weight-2 host
        receives twice the design points — each chunk rides one
        ``POST /evaluate_batch``, and the results are reassembled in
        request order. Returns ``(metrics, hosts)`` where ``hosts[i]``
        names the host that answered point ``i`` (the per-point
        provenance :class:`~repro.core.env.ArchGymEnv` records).

        A chunk whose assigned host dies mid-flight is quarantined and
        the chunk re-dispatched through the round-robin failover path
        (evaluations are idempotent, so a re-sent chunk cannot
        diverge). A batch that would land on a single host — one
        living host, or a batch too small to split — delegates to the
        whole-batch path so tiny batches keep round-robin placement
        instead of pinning the heaviest host.
        """
        actions = list(actions)
        if not actions:
            return [], []
        self._revive(self.revive_after_s)
        self._refresh_auto_weights()
        with self._lock:
            alive = [h for h in self._hosts if h.alive]
        if len(alive) > 1:
            counts = weighted_split(
                len(actions), [h.auto_weight for h in alive]
            )
            chunks: List[Tuple[_Host, List[Dict[str, Any]]]] = []
            cursor = 0
            for host, count in zip(alive, counts):
                if count:
                    chunks.append((host, actions[cursor:cursor + count]))
                    cursor += count
        else:
            chunks = []
        if len(chunks) <= 1:
            metrics = self._call(
                "evaluate_batch", len(actions), env, actions, env_kwargs=env_kwargs
            )
            return metrics, [self.last_host] * len(actions)

        def run_chunk(
            host: _Host, sub: List[Dict[str, Any]]
        ) -> Tuple[List[Dict[str, float]], Optional[str]]:
            try:
                got = self._try_host(
                    host, "evaluate_batch", len(sub), env, sub, env_kwargs=env_kwargs
                )
                return got, host.url
            except ServiceTransportError:
                # The assigned host died (now quarantined): re-run the
                # chunk through the normal failover path.
                got = self._call(
                    "evaluate_batch", len(sub), env, sub, env_kwargs=env_kwargs
                )
                return got, self._local.last_host

        futures = [
            self._scatter_worker(host).submit(run_chunk, host, sub)
            for host, sub in chunks
        ]
        wait(futures)  # the barrier: every chunk lands (or fails) first
        metrics: List[Dict[str, float]] = []
        hosts: List[Optional[str]] = []
        for (_, sub), future in zip(chunks, futures):
            got, url = future.result()  # first failure in chunk order
            metrics.extend(got)
            hosts.extend([url] * len(sub))
        self._local.last_host = hosts[-1]
        return metrics, hosts

    def _scatter_worker(self, host: _Host) -> ThreadPoolExecutor:
        """``host``'s scatter thread, started on first use (and again
        after :meth:`close`)."""
        with self._lock:
            if host.scatter_worker is None:
                host.scatter_worker = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="hostpool-scatter"
                )
            return host.scatter_worker

    def evaluate_batch_stream(
        self,
        env: str,
        actions: Sequence[Dict[str, Any]],
        env_kwargs: Optional[Dict[str, Any]] = None,
        unit_size: Optional[int] = None,
    ) -> Iterator[Tuple[int, List[Dict[str, float]], Optional[str]]]:
        """Stream one batch's results back as hosts finish, with work
        stealing for stragglers.

        The batch is cut into contiguous *work units* of ``unit_size``
        design points (default: enough units for every living host to
        pull roughly four as it goes). One worker thread per living
        host pulls units from a shared queue — a fast host simply
        pulls more, so dynamic load balancing replaces the static
        weighted split of :meth:`evaluate_batch_scatter` — and each
        completed unit is yielded immediately as
        ``(start_index, metrics, host_url)``, in **completion order**
        (the caller reassembles proposal order; see
        :meth:`~repro.core.env.ArchGymEnv.step_batch_stream`).

        **Work stealing.** When the queue is empty but units are still
        in flight, an idle worker re-dispatches a straggler's unit
        (never its own; the unit with the fewest runners first). The
        evaluation API is deterministic and idempotent, so duplicates
        are harmless: the first completion wins the unit and late
        finishers are discarded by unit id — ``stream_duplicates``
        counts them, and no unit is ever yielded twice.

        **No tail barrier.** The generator finishes when every unit's
        *result* is known, not when every request has returned: an
        abandoned straggler request may still be in flight while the
        caller moves on (its worker thread discards its eventual
        completion). That is the
        pipelining hook — the driver can breed and dispatch the next
        generation to the idle hosts while the straggler chews on a
        stale request.

        **Failure.** A host whose transport dies is quarantined; its
        unfinished unit returns to the queue (unless a thief already
        carries it) and the remaining workers absorb the work. If
        every worker dies with units outstanding, one revival sweep
        re-probes the fleet and restaffs; only when that finds no
        living host does the stream raise
        :class:`ServiceTransportError`. Server-produced errors
        (deterministic 4xx/5xx) propagate immediately, as everywhere
        else in the pool.

        A batch with fewer than two work units — or a pool with fewer
        than two living hosts — delegates to the whole-batch
        round-robin path and yields a single chunk.
        """
        actions = list(actions)
        if not actions:
            return
        self._revive(self.revive_after_s)
        self._refresh_auto_weights()
        with self._lock:
            alive = [h for h in self._hosts if h.alive]
        if unit_size is None:
            # ~4 units per living host: small enough that the tail is
            # short and steals are meaningful, large enough that the
            # per-request overhead stays amortized.
            unit_size = max(1, math.ceil(len(actions) / (4 * max(1, len(alive)))))
        if unit_size < 1:
            raise ServiceError(f"unit_size must be >= 1, got {unit_size}")
        units: List[Tuple[int, List[Dict[str, Any]]]] = [
            (start, actions[start:start + unit_size])
            for start in range(0, len(actions), unit_size)
        ]
        if len(alive) < 2 or len(units) < 2:
            metrics = self._call(
                "evaluate_batch", len(actions), env, actions, env_kwargs=env_kwargs
            )
            yield 0, metrics, self.last_host
            return

        state_lock = threading.Lock()
        pending: "deque[int]" = deque(range(len(units)))
        runners: Dict[int, set] = {}
        done: Dict[int, bool] = {}
        stop = [False]
        completions: "queue.Queue[Tuple[str, Any, Any, Any]]" = queue.Queue()
        with self._lock:
            self.stream_units += len(units)

        def take_work(host: _Host) -> Optional[int]:
            """Next unit for ``host``, or None."""
            with state_lock:
                if stop[0]:
                    return None
                if pending:
                    uid, stolen = pending.popleft(), False
                else:
                    candidates = [
                        u for u, r in runners.items()
                        if u not in done and r and host not in r
                    ]
                    if not candidates:
                        return None
                    uid = min(candidates, key=lambda u: (len(runners[u]), u))
                    stolen = True
                runners.setdefault(uid, set()).add(host)
            if stolen:
                with self._lock:
                    self.stream_steals += 1
            return uid

        def worker(host: _Host) -> None:
            try:
                while True:
                    uid = take_work(host)
                    if uid is None:
                        return
                    start, sub = units[uid]
                    try:
                        got = host.client.evaluate_batch(env, sub, env_kwargs=env_kwargs)
                    except ServiceTransportError as exc:
                        self._mark(host, alive=False, error=str(exc))
                        with state_lock:
                            crew = runners.get(uid)
                            if crew is not None:
                                crew.discard(host)
                            if uid not in done and not crew:
                                # No thief carries this unit: put it
                                # back for the surviving workers.
                                pending.appendleft(uid)
                        return  # quarantined: this worker retires
                    except BaseException as exc:
                        # Server-produced (deterministic) error: would
                        # fail identically on every host — surface it.
                        with state_lock:
                            stop[0] = True
                            crew = runners.get(uid)
                            if crew is not None:
                                crew.discard(host)
                        completions.put(("error", exc, None, None))
                        return
                    won = False
                    with state_lock:
                        crew = runners.get(uid)
                        if crew is not None:
                            crew.discard(host)
                        if uid not in done:
                            done[uid] = True
                            won = True
                    with self._lock:
                        if won:
                            host.evals += len(sub)
                        else:
                            self.stream_duplicates += 1
                    if won:
                        completions.put(("unit", uid, got, host.url))
            finally:
                completions.put(("exit", host, None, None))

        def staff(hosts: Sequence[_Host]) -> int:
            for host in hosts:
                threading.Thread(
                    target=worker, args=(host,), daemon=True,
                    name="hostpool-stream",
                ).start()
            return len(hosts)

        workers_live = staff(alive)
        n_done = 0
        revived_once = False
        last_host: Optional[str] = None
        try:
            while n_done < len(units):
                kind, a, b, c = completions.get()
                if kind == "unit":
                    uid, got, url = a, b, c
                    start, sub = units[uid]
                    if len(got) != len(sub):
                        raise ServiceError(
                            f"host {url} answered {len(got)} metric "
                            f"object(s) for a {len(sub)}-point unit"
                        )
                    n_done += 1
                    last_host = url
                    yield start, got, url
                elif kind == "error":
                    raise a
                else:  # a worker retired (host dead or out of work)
                    workers_live -= 1
                    if workers_live == 0 and n_done < len(units):
                        # Every worker is gone with units outstanding:
                        # at most one revival sweep per stream (like
                        # _call), then restaff the living hosts — which
                        # includes a host whose worker merely ran out
                        # of stealable work before a straggler died
                        # and requeued its unit.
                        if not revived_once and self._revive(0.0):
                            revived_once = True
                        with self._lock:
                            living = [h for h in self._hosts if h.alive]
                        if not living:
                            raise ServiceTransportError(
                                f"all {len(self._hosts)} evaluation "
                                f"host(s) failed with "
                                f"{len(units) - n_done} work unit(s) "
                                f"outstanding: {self._error_inventory()}"
                            )
                        workers_live = staff(living)
        finally:
            # Abandoned by the caller (or finished): stop handing out
            # units. In-flight straggler requests drain on their own.
            with state_lock:
                stop[0] = True
        self._local.last_host = last_host

    # -- the surface ServerCacheStore uses ----------------------------------------

    def cache_read(self, op: str, *args: Any) -> Any:
        """Run the ``/cache`` read ``op`` (a :class:`ServiceClient`
        method) on the first living host in URL order, the shared
        tier's primary, with :meth:`cache_write`'s failover."""
        return self.cache_write(op, 1, *args)[0]

    def cache_write(self, op: str, copies: int, *args: Any) -> List[Any]:
        """Run the ``/cache`` call ``op`` on the first ``copies`` living
        hosts in URL order through the failover loop of evaluation
        dispatch; returns their answers. A host whose transport dies
        is quarantined (for evaluation dispatch too). Credits no ``evals`` and leaves :attr:`last_host` alone."""
        answers = self._failover(
            op, 0, *args, copies=copies, rotate=False,
            failed=f"shared-cache {op} failed on every replica host",
        )
        return [answer for _, answer in answers]

    def close(self) -> None:
        """Release every transport resource the pool holds: each host's
        scatter worker thread, then all hosts' clients (every dispatch
        thread's keep-alive sockets, not just the calling thread's).

        Teardown-only by contract (no dispatch may be in flight), but
        the pool itself stays usable: quarantine state and counters
        survive, and workers/connections are recreated lazily on the
        next dispatch — which is what lets a cached backend keep its
        pool across trials while each trial's teardown returns the
        process to zero open sockets.
        """
        for host in self._hosts:
            with self._lock:
                worker, host.scatter_worker = host.scatter_worker, None
            if worker is not None:
                worker.shutdown()
            host.client.close()
            host.probe_client.close()
