"""HTTP client for the evaluation service, with an explicit
retry/timeout policy and persistent keep-alive connections.

Every request either returns a parsed, schema-checked JSON body or
raises :class:`~repro.core.errors.ServiceError` — the client never
hangs (every socket operation carries ``timeout_s``) and never lets a
torn response body masquerade as a metric.

Connection reuse
----------------
A sweep makes thousands of small requests; paying a TCP handshake per
request is the dominant cost for cheap cost models. The client keeps
one persistent :class:`http.client.HTTPConnection` per thread (the
server speaks HTTP/1.1 keep-alive) and re-sends on a *stale* socket —
a server that closed an idle connection between requests — exactly
once, without consuming a retry: the bytes never reached a live peer,
so the re-send is indistinguishable from a first attempt. Every other
transport failure goes through the normal retry policy.
``requests_sent`` counts round trips and ``connections_opened`` counts
sockets, so callers (and the CI microbenchmark) can verify both
batching and reuse.

Retry policy
------------
The evaluation API is deterministic and idempotent (``/evaluate_batch`` runs
a pure cost model; cache ``PUT`` is last-writer-wins), so *transport*
failures — connection refused/reset, socket timeout, a body that does
not parse — are retried up to ``retries`` times with exponential
backoff, capped so the total time asleep never exceeds
``backoff_cap_s`` regardless of the retry count; a ``retries=0``
client never sleeps at all. Exhaustion raises
:class:`~repro.core.errors.ServiceTransportError` (a
:class:`ServiceError` subtype schedulers key failover on). Responses
the server actually produced (4xx/5xx with an ``error`` body) are
**not** retried: re-sending the same request would deterministically
fail the same way.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from repro.core.errors import ServiceError, ServiceTransportError
from repro.service.wire import (
    MAX_CACHE_PAGE,
    dump_body,
    jsonify,
    parse_batch_response,
    parse_cache_entries,
    parse_cache_listing,
)
# Unused here: the benchmark's tracer (perfbench/spans.py) wraps this
# module's parse_metrics_response by name.
from repro.service.wire import parse_metrics_response  # noqa: F401

__all__ = ["ServiceClient"]

#: Failures that mean "the server went away between keep-alive
#: requests" — the request bytes never reached a live peer, so one
#: transparent reconnect + re-send does not consume a retry. A socket
#: timeout is deliberately absent: the peer *was* alive and slow.
_STALE_SOCKET_ERRORS = (
    http.client.BadStatusLine,  # includes RemoteDisconnected
    ConnectionResetError,
    ConnectionAbortedError,
    BrokenPipeError,
)


class ServiceClient:
    """Talk to one :class:`~repro.service.server.EvaluationService`.

    Parameters
    ----------
    base_url:
        E.g. ``"http://127.0.0.1:8023"`` (trailing slash tolerated).
    timeout_s:
        Per-attempt socket timeout, a finite number of seconds > 0; a
        server that stalls longer fails the attempt instead of hanging
        the sweep.
    retries:
        Extra attempts after the first, for transport-level failures:
        an ``int >= 0`` (not a bool).
    backoff_s:
        First retry delay; doubles per subsequent retry.
    backoff_cap_s:
        Ceiling on the *total* time one request may spend asleep in
        backoff across all its retries.
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 60.0,
        retries: int = 2,
        backoff_s: float = 0.05,
        backoff_cap_s: float = 2.0,
    ) -> None:
        if not base_url.startswith(("http://", "https://")):
            raise ServiceError(
                f"service url must start with http:// or https://, got {base_url!r}"
            )
        if not (math.isfinite(timeout_s) and timeout_s > 0):
            raise ServiceError(
                f"timeout_s must be a finite number > 0, got {timeout_s!r}"
            )
        if not isinstance(retries, int) or isinstance(retries, bool) or retries < 0:
            raise ServiceError(
                f"retries must be an integer >= 0, got {retries!r}"
            )
        if backoff_cap_s < 0:
            raise ServiceError(f"backoff_cap_s must be >= 0, got {backoff_cap_s}")
        split = urlsplit(base_url)
        if not split.netloc:
            raise ServiceError(f"service url has no host: {base_url!r}")
        self._scheme = split.scheme
        self._netloc = split.netloc
        self._path_prefix = split.path.rstrip("/")
        self.base_url = f"{split.scheme}://{split.netloc}{self._path_prefix}"
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        #: Round trips attempted (including retries) — the denominator
        #: the batching microbenchmark compares against.
        self.requests_sent = 0
        #: Sockets opened; stays at 1 per thread while keep-alive holds.
        self.connections_opened = 0
        # Counters are shared across threads (connections are not), so
        # their read-modify-writes sit under a lock.
        self._stats_lock = threading.Lock()
        # One persistent connection per thread: http.client connections
        # are not thread-safe, and a thread-local pool gives reuse
        # without socket-level locking on the hot path.
        self._conn_local = threading.local()
        # Every live connection, across all threads (under _stats_lock).
        # A dispatch thread that exits leaves its thread-local socket
        # unreachable but open; close() walks this registry so teardown
        # reclaims them all, not just the calling thread's.
        self._all_conns: set = set()

    # -- connection pool ----------------------------------------------------------

    def _get_conn(self) -> Tuple[http.client.HTTPConnection, bool]:
        """This thread's connection and whether it is being *reused*."""
        conn = getattr(self._conn_local, "conn", None)
        if conn is not None:
            return conn, True
        conn_cls = (
            http.client.HTTPSConnection
            if self._scheme == "https"
            else http.client.HTTPConnection
        )
        conn = conn_cls(self._netloc, timeout=self.timeout_s)
        self._conn_local.conn = conn
        with self._stats_lock:
            self.connections_opened += 1
            self._all_conns.add(conn)
        return conn, False

    def _drop_conn(self) -> None:
        conn = getattr(self._conn_local, "conn", None)
        self._conn_local.conn = None
        if conn is not None:
            with self._stats_lock:
                self._all_conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def close(self) -> None:
        """Close every persistent connection this client ever opened —
        including those belonging to dispatch threads that have since
        exited, which a per-thread close could never reach.

        Teardown-only by contract: no other thread may be mid-request.
        Purely a resource-hygiene call either way — the next request
        transparently opens (and counts) a fresh socket.
        """
        self._drop_conn()
        with self._stats_lock:
            conns, self._all_conns = list(self._all_conns), set()
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass

    # -- transport ----------------------------------------------------------------

    def _roundtrip(
        self, conn: http.client.HTTPConnection, method: str, path: str,
        body: Optional[bytes],
    ) -> Tuple[int, bytes]:
        """One request/response on an open connection."""
        with self._stats_lock:
            self.requests_sent += 1
        conn.request(
            method,
            self._path_prefix + path,
            body=body,
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        try:
            status = resp.status
            raw = resp.read()  # drain fully so the socket stays reusable
        finally:
            resp.close()
        if resp.will_close:  # HTTP/1.0 peer or Connection: close
            self._drop_conn()
        return status, raw

    def _send(self, method: str, path: str, body: Optional[bytes]) -> Tuple[int, bytes]:
        """One attempt, with the free stale-socket re-send."""
        conn, reused = self._get_conn()
        try:
            return self._roundtrip(conn, method, path, body)
        except _STALE_SOCKET_ERRORS:
            self._drop_conn()
            if not reused:
                raise
            # The server closed an idle keep-alive socket between
            # requests. Nothing reached a live peer, so reconnecting
            # and re-sending once is not a retry.
            conn, _ = self._get_conn()
            try:
                return self._roundtrip(conn, method, path, body)
            except (OSError, http.client.HTTPException):
                self._drop_conn()
                raise
        except (OSError, http.client.HTTPException):
            self._drop_conn()  # unknown socket state: never reuse it
            raise

    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Dict[str, Any]]:
        """One API call under the retry policy; returns (status, body)."""
        body = dump_body(payload) if payload is not None else None
        attempts = self.retries + 1
        slept_total = 0.0
        last_error: Optional[BaseException] = None
        for attempt in range(attempts):
            if attempt:
                # Exponential backoff after *any* retryable failure —
                # transport or body-parse alike — capped so the total
                # sleep never exceeds backoff_cap_s.
                delay = min(
                    self.backoff_s * (2 ** (attempt - 1)),
                    self.backoff_cap_s - slept_total,
                )
                if delay > 0:
                    time.sleep(delay)
                    slept_total += delay
            try:
                status, raw = self._send(method, path, body)
            except (OSError, http.client.HTTPException) as exc:
                # Connection refused/reset, DNS failure, socket
                # timeout, torn chunked transfer.
                last_error = exc
                continue
            try:
                parsed = json.loads(raw.decode("utf-8")) if raw else {}
            except (ValueError, UnicodeDecodeError) as exc:
                if status >= 400:
                    # The server answered an error with a non-JSON
                    # body; deterministic, so do not retry.
                    return status, {
                        "error": raw[:200].decode("utf-8", errors="replace")
                    }
                # Torn/truncated success body: the bytes arrived but do
                # not parse — retryable, the API is idempotent.
                last_error = exc
                continue
            if not isinstance(parsed, dict):
                if status >= 400:
                    return status, {"error": str(parsed)}
                last_error = ValueError(f"expected a JSON object, got {parsed!r}")
                continue
            return status, parsed
        raise ServiceTransportError(
            f"{method} {self.base_url + path} failed after {attempts} attempt(s) "
            f"(timeout {self.timeout_s}s/attempt): {last_error!r}"
        )

    def _checked(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        status, parsed = self._request(method, path, payload)
        if status >= 400:
            raise ServiceError(
                f"{method} {self.base_url + path} -> HTTP {status}: "
                f"{parsed.get('error', parsed)}"
            )
        return parsed

    # -- API ----------------------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """The server's liveness/inventory document."""
        return self._checked("GET", "/healthz")

    def evaluate(
        self,
        env: str,
        action: Dict[str, Any],
        env_kwargs: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, float]:
        """Evaluate one design point on the server's ``env``: a
        one-action :meth:`evaluate_batch`."""
        return self.evaluate_batch(env, [action], env_kwargs)[0]

    def evaluate_batch(
        self,
        env: str,
        actions: Sequence[Dict[str, Any]],
        env_kwargs: Optional[Dict[str, Any]] = None,
    ) -> List[Dict[str, float]]:
        """Evaluate many design points in one ``POST /evaluate_batch``.

        The server simulates every action, repeats included, under a
        single env-instance lock. Results come back in request order,
        one metric dict per action.
        """
        if not actions:
            raise ServiceError("evaluate_batch needs at least one action")
        request: Dict[str, Any] = {
            "env": env,
            "actions": [jsonify(a) for a in actions],
        }
        if env_kwargs:
            request["kwargs"] = jsonify(env_kwargs)
        parsed = self._checked("POST", "/evaluate_batch", request)
        return parse_batch_response(parsed, env, len(actions))

    def cache_get(self, key_str: str) -> Optional[Dict[str, float]]:
        """Server-cache lookup by encoded key; ``None`` on a miss. A
        one-key :meth:`cache_get_many`."""
        return self.cache_get_many([key_str]).get(key_str)

    def cache_put(self, key_str: str, metrics: Dict[str, float]) -> None:
        """Store one entry in the server cache: a one-entry
        :meth:`cache_put_many`."""
        self.cache_put_many([(key_str, metrics)])

    def cache_get_many(
        self, key_strs: Sequence[str]
    ) -> Dict[str, Dict[str, float]]:
        """Bulk server-cache lookup by encoded keys: ``{key_str:
        metrics}`` for the keys the server holds (misses absent). One
        ``POST /cache`` per :data:`MAX_CACHE_PAGE` keys; none for an
        empty input."""
        found: Dict[str, Dict[str, float]] = {}
        for start in range(0, len(key_strs), MAX_CACHE_PAGE):
            page = list(key_strs[start:start + MAX_CACHE_PAGE])
            found.update(parse_cache_entries(
                self._checked("POST", "/cache", {"keys": page})
            ))
        return found

    def cache_put_many(
        self, entries: Sequence[Tuple[str, Dict[str, float]]]
    ) -> None:
        """Store many ``(key_str, metrics)`` entries in order: one
        ``PUT /cache`` per :data:`MAX_CACHE_PAGE` entries; none for an
        empty input. Idempotent (the server map is last-writer-wins),
        so the retry policy applies unchanged."""
        for start in range(0, len(entries), MAX_CACHE_PAGE):
            page = list(entries[start:start + MAX_CACHE_PAGE])
            self._checked("PUT", "/cache", {"entries": page})

    def cache_size(self) -> int:
        """Distinct keys currently held by the server cache."""
        return int(self._checked("GET", "/cache").get("size", 0))

    def cache_list(
        self, offset: int = 0, limit: int = 500
    ) -> Tuple[List[Tuple[str, Dict[str, float]]], int]:
        """One page of the server cache in sorted-key order.

        Returns ``(entries, total)`` where ``entries`` is a list of
        ``(key_str, metrics)`` pairs starting at ``offset`` and
        ``total`` is the map's full entry count — advance ``offset``
        by each page's length until it reaches ``total`` to walk the
        whole map (what the host pool's anti-entropy backfill does).
        """
        parsed = self._checked(
            "GET", f"/cache?offset={int(offset)}&limit={int(limit)}"
        )
        return parse_cache_listing(parsed)

    def __repr__(self) -> str:
        return (
            f"ServiceClient(base_url={self.base_url!r}, "
            f"timeout_s={self.timeout_s}, retries={self.retries})"
        )
