"""Cross-process shared evaluation caches (file- and server-backed).

The in-memory LRU inside :class:`~repro.core.env.ArchGymEnv` dies with
its environment, so concurrent trials of one sweep re-simulate each
other's design points — the exact waste the paper's "evaluation is the
bottleneck" argument targets. This module provides second cache tiers
that outlive any single environment or process, all sharing one
``get``/``put``/``__len__`` contract keyed on
:func:`~repro.core.env.canonical_action_key`, plus its bulk form
``get_many``/``put_many`` (one lookup and one write per generation):

- :class:`SharedCacheStore` — a directory of append-only JSONL shard
  files, for trials sharing a filesystem.
- :class:`ServerCacheStore` — the ``/cache`` endpoints of a
  :class:`repro.service.EvaluationService`, for sweeps spread over
  machines that share only a network.

``SharedCacheStore`` design constraints, in order:

- **Lock-free.** Writers append one complete JSON line per entry via a
  single ``os.write`` on an ``O_APPEND`` descriptor (atomic on POSIX
  for our line sizes), so concurrent writers never interleave bytes.
  Readers tail the shard file from their last-seen offset and simply
  ignore a trailing line that has no newline yet.
- **Sharded.** Entries spread over ``n_shards`` files by key hash, so
  concurrent writers mostly touch different files and a refresh only
  re-reads the shard a key lives in.
- **Deterministic.** The store memoizes a *deterministic* cost model,
  so duplicate entries for one key (two processes racing on the same
  miss) are harmless — every copy carries the same metrics, and
  floats survive the JSON round-trip exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import CacheStoreError, ServiceTransportError

__all__ = ["SharedCacheStore", "ServerCacheStore", "encode_key"]

ActionKey = Tuple[Tuple[str, Any], ...]

_FORMAT = "archgym-cache-v1"


def encode_key(key: ActionKey) -> str:
    """Stable string identity for a canonical action key.

    The key is already canonical (sorted parameter names, frozen
    values), so its JSON encoding — tuples rendered as lists — is a
    stable cross-process identity.
    """
    return json.dumps(key, separators=(",", ":"))


def _finite_metrics(metrics: Dict[str, Any]) -> Dict[str, float]:
    """Normalize metrics to ``{str: float}`` and reject non-finite values.

    ``json.dumps`` would happily emit NaN/±Infinity as the non-standard
    ``NaN``/``Infinity`` tokens — bytes strict JSON parsers reject and
    that poison any proxy model trained from the cache corpus — so a
    non-finite metric is a caller bug surfaced at put time, not an
    entry to store.
    """
    clean = {str(k): float(v) for k, v in metrics.items()}
    for name, value in clean.items():
        if not math.isfinite(value):
            raise CacheStoreError(
                f"metric {name!r} is non-finite ({value!r}); cache entries "
                "must hold finite floats"
            )
    return clean


class SharedCacheStore:
    """A directory-backed ``canonical_action_key -> metrics`` map.

    Parameters
    ----------
    directory:
        Where the shard files live; created (with parents) on first
        use. Any number of processes may point a store at the same
        directory concurrently.
    n_shards:
        How many append-only files entries are spread over by key
        hash. Must match across all processes sharing the directory
        (it is recorded in, and verified against, ``cache-meta.json``).
    durable:
        ``fsync`` every appended entry before :meth:`put` returns. Off
        by default: the store is a *memo*, so the durability contract
        of ``O_APPEND`` alone — an entry written before a crash may be
        lost, but readers never see a half-entry (torn trailing lines
        are skipped) — costs at most a re-simulation, never a wrong
        result. Turn it on when the cache itself is the artifact being
        preserved (e.g. a long-lived server-side store).
    """

    def __init__(
        self, directory: str | Path, n_shards: int = 16, durable: bool = False
    ) -> None:
        if n_shards < 1:
            raise CacheStoreError(f"n_shards must be >= 1, got {n_shards}")
        self.directory = Path(directory)
        self.n_shards = n_shards
        self.durable = durable
        self.directory.mkdir(parents=True, exist_ok=True)
        self._check_meta()
        # Per-shard in-process view: decoded entries + how far into the
        # file they reach. A miss re-tails the file before giving up.
        self._entries: List[Dict[str, Dict[str, float]]] = [
            {} for _ in range(n_shards)
        ]
        self._offsets: List[int] = [0] * n_shards

    # -- public API ---------------------------------------------------------------

    def get(self, key: ActionKey) -> Optional[Dict[str, float]]:
        """Metrics for ``key``, or ``None``. A local miss re-reads the
        shard's new bytes first, so entries written by other processes
        become visible without any coordination. A missing shard file
        — or a whole shard directory deleted out from under the store —
        is an empty cache, not an error."""
        return self.get_encoded(encode_key(key))

    def put(self, key: ActionKey, metrics: Dict[str, float]) -> None:
        """Append one entry.

        Idempotent: a key this process already holds *with the same
        metrics* is not re-written. A different value for a held key is
        appended — readers fold shard lines in file order, so the store
        is last-writer-wins for fresh handles (a handle that already
        memoized the key keeps serving its copy: the store memoizes
        deterministic cost models, where every copy agrees).

        Durability: the append is a single ``os.write`` on an
        ``O_APPEND`` descriptor — atomic against concurrent writers —
        but is **not** ``fsync``'d unless the store was built with
        ``durable=True``; see the class docstring for why losing a
        memo entry to a crash is acceptable by default.
        """
        self.put_encoded(encode_key(key), metrics)

    def get_many(
        self, keys: Sequence[ActionKey]
    ) -> Dict[ActionKey, Dict[str, float]]:
        """Metrics for every stored key of ``keys``; misses are absent.
        Answers exactly what one :meth:`get` per key would, but re-reads
        each shard at most once for the whole call."""
        encoded = {encode_key(key): key for key in keys}
        found = self.get_many_encoded(list(encoded))
        return {encoded[key_str]: metrics for key_str, metrics in found.items()}

    def put_many(
        self, entries: Sequence[Tuple[ActionKey, Dict[str, float]]]
    ) -> None:
        """Append many entries: the same lines, in the same order, as
        one :meth:`put` per entry, but one ``os.write`` per shard (and,
        when ``durable``, one ``fsync`` per shard)."""
        self.put_many_encoded([(encode_key(k), m) for k, m in entries])

    def get_encoded(self, key_str: str) -> Optional[Dict[str, float]]:
        """:meth:`get` by pre-encoded key — the form wire protocols
        (and the evaluation service's ``/cache`` endpoints) carry."""
        return self.get_many_encoded([key_str]).get(key_str)

    def put_encoded(self, key_str: str, metrics: Dict[str, float]) -> None:
        """:meth:`put` by pre-encoded key."""
        self.put_many_encoded([(key_str, metrics)])

    def get_many_encoded(
        self, key_strs: Sequence[str]
    ) -> Dict[str, Dict[str, float]]:
        """:meth:`get_many` by pre-encoded key."""
        found: Dict[str, Dict[str, float]] = {}
        missing: List[Tuple[str, int]] = []
        for key_str in key_strs:
            shard = self._shard_index(key_str)
            entry = self._entries[shard].get(key_str)
            if entry is None:
                missing.append((key_str, shard))
            else:
                found[key_str] = dict(entry)
        refreshed: set = set()
        for key_str, shard in missing:
            if shard not in refreshed:
                self._refresh(shard)
                refreshed.add(shard)
            entry = self._entries[shard].get(key_str)
            if entry is not None:
                found[key_str] = dict(entry)
        return found

    def put_many_encoded(
        self, entries: Sequence[Tuple[str, Dict[str, float]]]
    ) -> None:
        """:meth:`put_many` by pre-encoded key. Every metric is checked
        before any byte is written."""
        staged: Dict[str, Dict[str, float]] = {}
        by_shard: Dict[int, List[Tuple[str, Dict[str, float]]]] = {}
        for key_str, metrics in entries:
            clean = _finite_metrics(metrics)
            shard = self._shard_index(key_str)
            if staged.get(key_str, self._entries[shard].get(key_str)) == clean:
                continue
            staged[key_str] = clean
            by_shard.setdefault(shard, []).append((key_str, clean))
        for shard, shard_entries in by_shard.items():
            lines = "".join(
                json.dumps({"k": key_str, "m": clean}, separators=(",", ":"))
                + "\n"
                for key_str, clean in shard_entries
            )
            self._append(shard, lines.encode("utf-8"))
            self._entries[shard].update(shard_entries)

    def __len__(self) -> int:
        """Distinct keys currently visible (refreshes every shard)."""
        for shard in range(self.n_shards):
            self._refresh(shard)
        return sum(len(e) for e in self._entries)

    def keys_encoded(self) -> List[str]:
        """Sorted encoded keys currently visible (refreshes every
        shard) — the deterministic enumeration the evaluation
        service's paginated ``GET /cache`` listing pages through."""
        for shard in range(self.n_shards):
            self._refresh(shard)
        keys: List[str] = []
        for entries in self._entries:
            keys.extend(entries)
        keys.sort()
        return keys

    def list_encoded(
        self, offset: int = 0, limit: int = 500
    ) -> Tuple[List[Tuple[str, Dict[str, float]]], int]:
        """One page of the store in sorted-key order:
        ``([(key_str, metrics), ...], total)`` — the same paging
        contract :meth:`ServerCacheStore.list_encoded` serves, so a
        corpus harvester (e.g. the online proxy) can walk either tier
        identically."""
        keys = self.keys_encoded()
        window = keys[offset:offset + limit]
        found = self.get_many_encoded(window)
        return [(k, found[k]) for k in window if k in found], len(keys)

    def __repr__(self) -> str:
        return (
            f"SharedCacheStore(directory={str(self.directory)!r}, "
            f"n_shards={self.n_shards})"
        )

    # -- internals ----------------------------------------------------------------

    def _append(self, shard: int, lines: bytes) -> None:
        """One atomic ``O_APPEND`` write of one or more complete lines;
        recreates a shard directory deleted out from under the store
        (e.g. a cleanup racing a long-lived server) instead of failing
        the sweep."""
        path = self._shard_path(shard)
        try:
            fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        except (FileNotFoundError, NotADirectoryError):
            self.directory.mkdir(parents=True, exist_ok=True)
            self._check_meta()
            fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, lines)  # single write on O_APPEND: atomic append
            if self.durable:
                os.fsync(fd)
        finally:
            os.close(fd)

    def _shard_index(self, key_str: str) -> int:
        digest = hashlib.sha256(key_str.encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big") % self.n_shards

    def _shard_path(self, shard: int) -> Path:
        return self.directory / f"shard-{shard:03d}.jsonl"

    def _check_meta(self) -> None:
        meta_path = self.directory / "cache-meta.json"
        if meta_path.exists():
            meta = json.loads(meta_path.read_text())
            if meta.get("format") != _FORMAT:
                raise CacheStoreError(
                    f"{self.directory} is not an ArchGym shared cache "
                    f"(format {meta.get('format')!r})"
                )
            if meta.get("n_shards") != self.n_shards:
                raise CacheStoreError(
                    f"shared cache at {self.directory} uses "
                    f"n_shards={meta.get('n_shards')}, not {self.n_shards}"
                )
            return
        # Unique per process AND thread: concurrent handles racing this
        # write must each complete their own tmp file — sharing one tmp
        # path could rename a half-written meta into place. The renames
        # themselves may race freely; every copy carries identical bytes.
        tmp = meta_path.with_name(
            f"{meta_path.name}.tmp.{os.getpid()}.{threading.get_ident()}"
        )
        tmp.write_text(
            json.dumps({"format": _FORMAT, "n_shards": self.n_shards})
        )
        os.replace(tmp, meta_path)

    def _refresh(self, shard: int) -> None:
        """Fold any bytes appended since the last read into the local
        view. Only complete lines (ending in a newline) are consumed —
        a concurrent writer's in-flight line is picked up next time.
        A shard file (or directory) that does not exist contributes
        nothing — never an exception."""
        path = self._shard_path(shard)
        try:
            with path.open("rb") as f:
                f.seek(self._offsets[shard])
                chunk = f.read()
        except (FileNotFoundError, NotADirectoryError):
            return
        if not chunk:
            return
        complete = chunk.rfind(b"\n") + 1
        if complete == 0:
            return
        for line in chunk[:complete].splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                folded = {k: float(v) for k, v in record["m"].items()}
                if not all(math.isfinite(v) for v in folded.values()):
                    # A pre-guard shard may carry NaN/Infinity tokens
                    # (Python's json parses them); skip rather than
                    # serve a value strict peers could never round-trip.
                    continue
                self._entries[shard][record["k"]] = folded
            except (ValueError, KeyError, TypeError):
                # A torn/corrupt line loses one memo entry, never a result.
                continue
        self._offsets[shard] += complete


class _CacheHost:
    """One replica host in a :class:`ServerCacheStore` chain."""

    __slots__ = ("client", "alive", "last_error")

    def __init__(self, client: Any) -> None:
        self.client = client
        self.alive = True
        self.last_error: Optional[str] = None


class ServerCacheStore:
    """The same ``get``/``put``/``__len__`` (and ``get_many``/
    ``put_many``) contract as :class:`SharedCacheStore`, backed by the
    ``/cache`` endpoints of one or more evaluation services instead of
    a shared filesystem.

    Point any number of sweeps — on any number of machines — at one
    service URL and they reuse each other's design points. Entries this
    process has already seen are memoized locally (the cost model is
    deterministic, so a cached copy can never go stale), and a batched
    step asks for a whole generation at once, which keeps HTTP chatter
    to one lookup (``POST /cache``) plus one write per replica
    (``PUT /cache``) per generation.

    Parameters
    ----------
    service:
        Base URL of a running service (the chain's primary).
    fallbacks:
        Base URLs of further pool hosts forming the replica chain
        behind the primary. URLs are normalized through
        ``ServiceClient.base_url`` and deduplicated (against the
        primary and each other) preserving order, so a trailing-slash
        variant or a repeated URL never becomes a second probe of the
        same dead host.
    replicas:
        Write-through replication factor: every ``put`` fans out to
        the first ``replicas`` *living* hosts of the chain, so the
        death of any ``replicas - 1`` hosts loses no entries — reads
        fail over to a surviving replica instead of re-simulating.
        ``None`` (the default) means ``min(2, chain length)``; larger
        values are clamped to the chain length. The entries are a
        deterministic memo (last-writer-wins, every copy identical),
        so the factor is purely a durability knob — it can never
        change results.
    client_kwargs:
        ``timeout_s`` / ``retries`` / ``backoff_s`` of every client in
        the chain. The store builds each of them and :meth:`close`
        closes each of them.

    A host whose *transport* dies (connection refused/reset, timeout,
    torn body, each after the client's own retry policy) is skipped for
    the rest of this store's life; reads fall through to the next
    living replica and writes keep fanning out to the survivors.
    Deterministic server errors are not failover events and propagate
    immediately. When the whole chain looks dead, every host gets one
    optimistic second chance per operation (a restarted server
    rejoins); only if that also fails does the operation raise
    :class:`~repro.core.errors.ServiceTransportError` — an unreachable
    cache fails the sweep loudly rather than silently degrading into
    re-simulation.
    """

    def __init__(
        self,
        service: str,
        fallbacks: Sequence[str] = (),
        replicas: Optional[int] = None,
        **client_kwargs: Any,
    ) -> None:
        # Imported lazily: core must stay importable without the
        # service package participating in any cycle.
        from repro.service.client import ServiceClient

        # The replica chain: primary first, then the deduplicated
        # fallbacks. Clients are built eagerly — construction opens no
        # sockets and gives every URL its canonical base_url identity.
        self._hosts: List[_CacheHost] = []
        seen = set()
        for url in (service, *fallbacks):
            client = ServiceClient(str(url), **client_kwargs)
            if client.base_url not in seen:
                seen.add(client.base_url)
                self._hosts.append(_CacheHost(client))
        if replicas is None:
            replicas = min(2, len(self._hosts))
        if not isinstance(replicas, int) or isinstance(replicas, bool) or replicas < 1:
            raise CacheStoreError(
                f"replicas must be an integer >= 1, got {replicas!r}"
            )
        self._replicas = min(replicas, len(self._hosts))
        self._local: Dict[str, Dict[str, float]] = {}

    # -- introspection ------------------------------------------------------------

    @property
    def replica_urls(self) -> List[str]:
        """The normalized, deduplicated host chain (primary first)."""
        return [h.client.base_url for h in self._hosts]

    @property
    def replicas(self) -> int:
        """Effective write-through replication factor."""
        return self._replicas

    # -- internals ----------------------------------------------------------------

    @staticmethod
    def _clean(metrics: Dict[str, Any]) -> Dict[str, float]:
        """The one metrics normalizer both :meth:`get_many` and
        :meth:`put_many` keep local copies through, so a write of an
        equal-but-int-valued dict short-circuits against a previously
        fetched entry. Non-finite values are rejected before they reach
        a wire body."""
        return _finite_metrics(metrics)

    def _quarantine(self, host: _CacheHost, exc: BaseException) -> None:
        host.alive = False
        host.last_error = str(exc)

    def _revive_all(self) -> bool:
        """Optimistically un-quarantine every dead host — the one
        second chance per operation when the whole chain looks dead
        (a restarted server rejoins). False if nothing was dead."""
        flipped = False
        for host in self._hosts:
            if not host.alive:
                host.alive = True
                flipped = True
        return flipped

    def _inventory(self) -> str:
        return "; ".join(
            f"{h.client.base_url}: {h.last_error or 'ok'}" for h in self._hosts
        )

    def _call(self, op: str, *args: Any) -> Any:
        """Run one read operation on the first living replica, falling
        through the chain on transport death."""
        revived = False
        while True:
            host = next((h for h in self._hosts if h.alive), None)
            if host is None:
                if not revived and self._revive_all():
                    revived = True
                    continue
                raise ServiceTransportError(
                    f"shared-cache {op} failed on every replica host: "
                    f"{self._inventory()}"
                )
            try:
                return getattr(host.client, op)(*args)
            except ServiceTransportError as exc:
                self._quarantine(host, exc)

    def _fan_out(self, op: str, *args: Any) -> int:
        """Write-through to the first ``replicas`` living hosts, one
        after another; returns how many copies landed (dead hosts are
        skipped and the fan-out continues down the chain to keep the
        count)."""
        written = 0
        for host in self._hosts:
            if written >= self._replicas:
                break
            if not host.alive:
                continue
            try:
                getattr(host.client, op)(*args)
                written += 1
            except ServiceTransportError as exc:
                self._quarantine(host, exc)
        return written

    def _write(self, op: str, *args: Any) -> None:
        """Run one write operation through :meth:`_fan_out`, with the
        whole-chain revival as its one second chance; raises if no copy
        landed."""
        written = self._fan_out(op, *args)
        if not written and self._revive_all():
            written = self._fan_out(op, *args)
        if not written:
            raise ServiceTransportError(
                f"shared-cache {op} failed on every replica host: "
                f"{self._inventory()}"
            )

    # -- public API ---------------------------------------------------------------

    def get(self, key: ActionKey) -> Optional[Dict[str, float]]:
        """Metrics for ``key``, or ``None``: a one-key :meth:`get_many`
        (asks the chain on a local miss, so entries written by other
        machines become visible)."""
        return self.get_many([key]).get(key)

    def put(self, key: ActionKey, metrics: Dict[str, float]) -> None:
        """Store one entry on ``replicas`` hosts: a one-entry
        :meth:`put_many`."""
        self.put_many([(key, metrics)])

    def get_many(
        self, keys: Sequence[ActionKey]
    ) -> Dict[ActionKey, Dict[str, float]]:
        """Metrics for every stored key of ``keys``; misses are absent.
        Memoized keys answer locally; the rest ride one bulk lookup
        (``POST /cache``, paged if huge). A replica whose transport dies
        mid-read is skipped and the next one answers — its entries were
        replicated, not abandoned. No request goes out when every key
        is memoized."""
        found: Dict[ActionKey, Dict[str, float]] = {}
        ask: Dict[str, ActionKey] = {}
        for key in keys:
            key_str = encode_key(key)
            local = self._local.get(key_str)
            if local is not None:
                found[key] = dict(local)
            else:
                ask[key_str] = key
        if ask:
            answers = self._call("cache_get_many", list(ask))
            for key_str, metrics in answers.items():
                if key_str in ask:
                    clean = self._clean(metrics)
                    self._local[key_str] = clean
                    found[ask[key_str]] = dict(clean)
        return found

    def put_many(
        self, entries: Sequence[Tuple[ActionKey, Dict[str, float]]]
    ) -> None:
        """Store many entries with one bulk write (``PUT /cache``) per
        replica. Idempotent: a key this process already holds *with the
        same metrics* is not re-sent; a changed value is — the server
        maps are last-writer-wins. Every metric is checked before
        anything is sent, and entries go out in order. Succeeds as long
        as at least one copy lands; fewer than ``replicas`` survivors
        degrade durability, not correctness."""
        send: List[Tuple[str, Dict[str, float]]] = []
        staged: Dict[str, Dict[str, float]] = {}
        for key, metrics in entries:
            key_str, clean = encode_key(key), self._clean(metrics)
            if staged.get(key_str, self._local.get(key_str)) == clean:
                continue
            staged[key_str] = clean
            send.append((key_str, clean))
        if send:
            self._write("cache_put_many", send)
            self._local.update(staged)

    def __len__(self) -> int:
        """Distinct keys held by the first living replica."""
        return self._call("cache_size")

    def list_encoded(
        self, offset: int = 0, limit: int = 500
    ) -> Tuple[List[Tuple[str, Dict[str, float]]], int]:
        """One page of the first living replica's ``GET /cache``
        listing: ``([(key_str, metrics), ...], total)``."""
        return self._call("cache_list", offset, limit)

    def close(self) -> None:
        """Close the keep-alive sockets of every client in the chain.
        The store stays usable; connections reopen on the next
        request."""
        for host in self._hosts:
            host.client.close()

    def __repr__(self) -> str:
        return (
            f"ServerCacheStore(urls={self.replica_urls!r}, "
            f"replicas={self._replicas})"
        )
