"""The evaluation service: design-point evaluation over HTTP.

The paper's wall-clock argument (§6, Fig. 8) is that *simulator* cost
dominates search; :class:`EvaluationService` lets that cost live in a
separate process — or on a separate machine — behind three endpoints:

``GET /healthz``
    Liveness + inventory: wire format, registered environment names,
    how many evaluations this server has run, and the size of its
    design-point cache.
``POST /evaluate``
    Body ``{"env": name, "action": {...}, "kwargs": {...}?}``; the
    server builds (and keeps) the named environment, runs its
    ``evaluate`` cost model, and answers ``{"metrics": {...}}``.
    ``kwargs`` are environment construction arguments (workload,
    objective, …); each distinct ``(env, kwargs)`` pair gets its own
    long-lived instance, serialized by a per-instance lock because
    cost models are not promised to be thread-safe.
``POST /evaluate_batch``
    Body ``{"env": name, "actions": [{...}, ...], "kwargs": {...}?,
    "memoize": bool?}``; answers ``{"metrics": [...], "memo_hits": n}``
    with one metric object per action, in request order. The whole
    batch runs under **one** acquisition of the instance lock, so N
    design points pay one round trip and one lock handoff instead of
    N. With ``memoize`` (the default) every fresh evaluation is also
    written into the ``/cache`` store — under exactly the key an
    explicit ``PUT /cache/<token>`` of that design point would use —
    and repeat points are answered from it without touching the cost
    model (counted in ``memo_hits`` and on ``/healthz``). Because the
    ``/cache`` map is keyed on the design point alone, memoization is
    auto-disabled on servers hosting more than one environment.
``GET/PUT /cache/<token>`` and ``GET /cache``
    A ``canonical_action_key -> metrics`` map shared by every client —
    the server-backed twin of the file-backed
    :class:`~repro.core.cache_store.SharedCacheStore` (and the backing
    for its drop-in variant ``ServerCacheStore``). ``<token>`` is the
    urlsafe-base64 form of the encoded key (see
    :mod:`repro.service.wire`); ``GET /cache`` reports the entry
    count, and ``GET /cache?offset=N&limit=M`` pages through the whole
    map in sorted-key order (``{"size": total, "entries": [[key,
    metrics], ...]}``) — the listing the
    :class:`~repro.sweeps.hostpool.HostPool` anti-entropy backfill
    replays into a revived replica. With ``cache_dir`` the map is
    durably file-backed (a ``SharedCacheStore`` the server owns);
    otherwise it is in-memory.

Everything is stdlib: ``http.server.ThreadingHTTPServer`` + ``json``.
Server-side failures are reported as JSON ``{"error": ...}`` bodies
with 4xx/5xx statuses — the client maps them onto
:class:`~repro.core.errors.ServiceError`.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union
from urllib.parse import urlsplit

from repro.core.cache_store import SharedCacheStore, encode_key
from repro.core.env import ArchGymEnv, canonical_action_key
from repro.core.errors import ServiceError
from repro.service.wire import (
    DEFAULT_CACHE_PAGE,
    WIRE_FORMAT,
    canonical_dumps,
    clean_metrics,
    dump_body,
    load_body,
    parse_batch_request,
    parse_cache_query,
    token_to_key,
)

__all__ = ["EvaluationService"]

EnvFactory = Callable[..., ArchGymEnv]

#: The serve loop's selector, chosen as the stdlib ``socketserver`` does:
#: poll needs no extra file descriptor, unlike epoll.
_ServerSelector = getattr(selectors, "PollSelector", selectors.SelectSelector)


class _UnknownEnvironment(ServiceError):
    """Typed marker so the handler maps unknown-env to HTTP 404 without
    sniffing exception message text."""


class EvaluationService:
    """Host registered environments behind the HTTP evaluation API.

    Parameters
    ----------
    host, port:
        Bind address. ``port=0`` (the default) picks a free port;
        read the bound address back from :attr:`url` after
        :meth:`start`.
    cache_dir:
        Optional directory for the ``/cache`` map. When given, the map
        is a file-backed :class:`SharedCacheStore` that survives server
        restarts; otherwise entries live in memory for the server's
        lifetime.

    Use as a context manager (``with EvaluationService() as svc:``) or
    call :meth:`start`/:meth:`stop` explicitly; :meth:`serve_forever`
    is the blocking entry point the ``repro serve`` CLI uses.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self._host = host
        self._requested_port = port
        self._registry: Dict[str, EnvFactory] = {}
        self._instances: Dict[Tuple[str, str], ArchGymEnv] = {}
        self._instance_locks: Dict[Tuple[str, str], threading.Lock] = {}
        self._state_lock = threading.Lock()
        # durable=True: a server-side store is a long-lived artifact
        # (the --cache-dir contract is "survives restarts"), so pay the
        # fsync per append. The lock is required either way: the file
        # store's offset bookkeeping is safe across *processes*, not
        # across this server's handler threads.
        self._cache_store: Optional[SharedCacheStore] = (
            SharedCacheStore(cache_dir, durable=True)
            if cache_dir is not None
            else None
        )
        self._mem_cache: Dict[str, Dict[str, float]] = {}
        self._cache_lock = threading.Lock()
        self.evaluations = 0
        #: ``/evaluate_batch`` requests served.
        self.batch_requests = 0
        #: Batch design points answered from the memo instead of the
        #: cost model.
        self.memo_hits = 0
        #: Cumulative seconds the cost models spent simulating (memo
        #: hits cost ~0 and are excluded) — with ``evaluations`` this
        #: gives observers the host's service *rate*, which is what
        #: :class:`~repro.sweeps.hostpool.HostPool` auto-weights read.
        self.busy_s = 0.0
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        # Live keep-alive sockets: HTTP/1.1 handler threads block on
        # the next request, so stop() must close these to actually die.
        self._connections: Set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        #: Once set, handlers drop every request unanswered — a
        #: stopping server must not keep serving a fast keep-alive
        #: client racing the listener teardown.
        self._stopping = False

    # -- registry -----------------------------------------------------------------

    def register(self, name: str, factory: EnvFactory) -> None:
        """Expose ``factory`` (an env class or callable) as ``name``."""
        if not name:
            raise ServiceError("environment name must be non-empty")
        with self._state_lock:
            if name in self._registry:
                raise ServiceError(f"environment {name!r} already registered")
            self._registry[name] = factory

    @property
    def env_names(self) -> Tuple[str, ...]:
        with self._state_lock:
            return tuple(sorted(self._registry))

    # -- request semantics (handler delegates here) ---------------------------------

    def _instance_lock(
        self, name: str, kwargs: Dict[str, Any]
    ) -> Tuple[Tuple[str, str], Callable[..., ArchGymEnv], threading.Lock]:
        """Resolve the factory and per-instance lock for (env, kwargs)."""
        instance_key = (name, canonical_dumps(kwargs))
        with self._state_lock:
            try:
                factory = self._registry[name]
            except KeyError:
                raise _UnknownEnvironment(
                    f"unknown environment {name!r}; serving "
                    f"{sorted(self._registry)}"
                ) from None
            lock = self._instance_locks.setdefault(instance_key, threading.Lock())
        return instance_key, factory, lock

    def _instance(
        self,
        instance_key: Tuple[str, str],
        factory: Callable[..., ArchGymEnv],
        kwargs: Dict[str, Any],
    ) -> ArchGymEnv:
        """Get-or-build the long-lived env (instance lock must be held)."""
        with self._state_lock:
            env = self._instances.get(instance_key)
        if env is None:
            env = factory(**kwargs)
            with self._state_lock:
                self._instances[instance_key] = env
        return env

    def evaluate(
        self,
        name: str,
        action: Dict[str, Any],
        kwargs: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, float]:
        """Run one design point through the named environment."""
        kwargs = kwargs or {}
        instance_key, factory, lock = self._instance_lock(name, kwargs)
        # Construct and evaluate under the per-instance lock only — a
        # slow env build or simulation must never stall requests for
        # other instances (or /healthz) behind the global state lock.
        with lock:
            env = self._instance(instance_key, factory, kwargs)
            t0 = time.perf_counter()
            metrics = env.evaluate(action)
            busy = time.perf_counter() - t0
        with self._state_lock:  # instance locks differ per (env, kwargs)
            self.evaluations += 1
            self.busy_s += busy
        return clean_metrics(metrics)

    def evaluate_batch(
        self,
        name: str,
        actions: List[Dict[str, Any]],
        kwargs: Optional[Dict[str, Any]] = None,
        memoize: bool = True,
    ) -> Tuple[List[Dict[str, float]], int]:
        """Run many design points under one instance-lock acquisition.

        Returns ``(metrics_list, memo_hits)`` with one entry per action
        in request order. With ``memoize`` every fresh evaluation also
        lands in the ``/cache`` store — keyed exactly as an explicit
        ``PUT /cache`` of the same design point (the urlsafe token of
        ``encode_key(canonical_action_key(action))``), so batch traffic
        and explicit cache writes are indistinguishable to readers —
        and repeat design points are answered from that store without
        touching the cost model.

        The memo shares the server-wide ``/cache`` map, which is keyed
        on the design point alone (the
        :class:`~repro.core.cache_store.SharedCacheStore` contract), so
        memoization requires one server to serve one deterministic
        environment configuration. The part of that assumption the
        server can verify, it enforces: a server with **more than one
        registered environment** auto-disables memoization (two envs
        sharing an action shape would silently serve each other's
        metrics); serving one env under two different ``kwargs``
        configurations is the caller's contract to keep — the same one
        ``--shared-cache`` / ``ServerCacheStore`` has always carried.
        Pass ``memoize=False`` per request to opt out.
        """
        kwargs = kwargs or {}
        instance_key, factory, lock = self._instance_lock(name, kwargs)
        with self._state_lock:
            memoize = memoize and len(self._registry) == 1
        results: List[Optional[Dict[str, float]]] = [None] * len(actions)
        pending: List[Tuple[int, Dict[str, Any], str]] = []
        memo_hits = 0
        for i, action in enumerate(actions):
            key_str = encode_key(canonical_action_key(action))
            if memoize:
                found = self.cache_get(key_str)
                if found is not None:
                    results[i] = found
                    memo_hits += 1
                    continue
            pending.append((i, dict(action), key_str))
        evaluated = 0
        busy = 0.0
        if pending:
            with lock:
                env = self._instance(instance_key, factory, kwargs)
                fresh: Dict[str, Dict[str, float]] = {}
                for i, action, key_str in pending:
                    metrics = fresh.get(key_str) if memoize else None
                    if metrics is None:
                        t0 = time.perf_counter()
                        raw = env.evaluate(action)
                        busy += time.perf_counter() - t0
                        metrics = clean_metrics(raw)
                        evaluated += 1
                        if memoize:
                            self.cache_put(key_str, metrics)
                            fresh[key_str] = metrics
                    else:  # same design point twice in one batch
                        memo_hits += 1
                    results[i] = metrics
        with self._state_lock:
            self.evaluations += evaluated
            self.batch_requests += 1
            self.memo_hits += memo_hits
            self.busy_s += busy
        # results is fully populated: every index either hit the memo
        # or was in pending
        return [r for r in results if r is not None], memo_hits

    def cache_get(self, key_str: str) -> Optional[Dict[str, float]]:
        with self._cache_lock:
            if self._cache_store is not None:
                return self._cache_store.get_encoded(key_str)
            found = self._mem_cache.get(key_str)
            return dict(found) if found is not None else None

    def cache_put(self, key_str: str, metrics: Dict[str, float]) -> None:
        clean = clean_metrics(metrics)
        with self._cache_lock:
            if self._cache_store is not None:
                self._cache_store.put_encoded(key_str, clean)
            else:
                self._mem_cache[key_str] = clean

    def cache_size(self) -> int:
        with self._cache_lock:
            if self._cache_store is not None:
                return len(self._cache_store)
            return len(self._mem_cache)

    def cache_list(
        self, offset: int = 0, limit: int = DEFAULT_CACHE_PAGE
    ) -> Tuple[int, List[Tuple[str, Dict[str, float]]]]:
        """One page of the ``/cache`` map in sorted-key order.

        Returns ``(total_entries, [(key_str, metrics), ...])``. The
        ordering is deterministic, so a reader advancing ``offset`` by
        each page's length walks every entry that existed when it
        started — the map is append-only, so entries never move
        backwards past a cursor. This is the listing the anti-entropy
        backfill pages through to rebuild a revived replica.
        """
        with self._cache_lock:
            if self._cache_store is not None:
                keys = self._cache_store.keys_encoded()
                page = [
                    (k, self._cache_store.get_encoded(k))
                    for k in keys[offset:offset + limit]
                ]
            else:
                keys = sorted(self._mem_cache)
                page = [
                    (k, dict(self._mem_cache[k]))
                    for k in keys[offset:offset + limit]
                ]
        return len(keys), [(k, m) for k, m in page if m is not None]

    def health(self) -> Dict[str, Any]:
        # env_names and cache_size() take their own (non-reentrant)
        # locks — resolve them before the counter snapshot. The four
        # counters are mutated together under _state_lock, so reading
        # them unlocked could tear (e.g. evaluations from before a
        # batch landed, busy_s from after) and feed auto-weights a
        # rate computed from mismatched deltas.
        envs = list(self.env_names)
        cache_size = self.cache_size()
        with self._state_lock:
            evaluations = self.evaluations
            batch_requests = self.batch_requests
            memo_hits = self.memo_hits
            busy_s = self.busy_s
        return {
            "status": "ok",
            "format": WIRE_FORMAT,
            "envs": envs,
            "evaluations": evaluations,
            "batch_requests": batch_requests,
            "memo_hits": memo_hits,
            "busy_s": busy_s,
            "cache_size": cache_size,
        }

    # -- connection tracking -------------------------------------------------------

    def _track_connection(self, conn: socket.socket) -> None:
        with self._conn_lock:
            self._connections.add(conn)

    def _untrack_connection(self, conn: socket.socket) -> None:
        with self._conn_lock:
            self._connections.discard(conn)

    def _close_connections(self) -> None:
        """Shut down every live keep-alive socket so blocked handler
        threads see EOF and exit (stop() must mean *stopped*).

        ``shutdown`` only, not ``close``: the owning handler thread may
        be mid-write, and a shut-down socket fails its I/O with
        EOF/EPIPE (benign, filtered) while the fd stays valid until the
        handler's own ``finish`` releases it.
        """
        with self._conn_lock:
            conns = list(self._connections)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    # -- lifecycle -----------------------------------------------------------------

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise ServiceError("service is not started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    def _make_httpd(self) -> ThreadingHTTPServer:
        handler = type("_BoundHandler", (_Handler,), {"service": self})
        httpd = _QuietServer((self._host, self._requested_port), handler)
        httpd.daemon_threads = True
        return httpd

    def start(self) -> str:
        """Serve in a daemon thread; returns the bound base URL."""
        if self._httpd is not None:
            raise ServiceError("service already started")
        self._stopping = False
        self._httpd = self._make_httpd()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="archgym-evaluation-service",
            daemon=True,
        )
        self._thread.start()
        return self.url

    def wait(self) -> None:
        """Block the calling thread until :meth:`stop` (or interrupt).

        The CLI's serve loop: ``start()`` to bind and learn the port,
        print the URL, then ``wait()``.
        """
        thread = self._thread
        if thread is not None:
            thread.join()

    def serve_forever(self) -> None:
        """Bind and serve on the calling thread (the CLI entry point)."""
        if self._httpd is not None:
            raise ServiceError("service already started")
        self._stopping = False
        self._httpd = self._make_httpd()
        try:
            self._httpd.serve_forever()
        finally:
            self._httpd.server_close()
            self._close_connections()

    def stop(self) -> None:
        """Stop accepting requests and release the socket (idempotent).

        Safe to call from any thread — including a handler thread, which
        the fault-injection tests use to kill the server mid-sweep.
        """
        # Order matters against a fast keep-alive client: first refuse
        # further requests (handlers drop them unanswered) and kill the
        # live sockets, *then* tear down the listener — otherwise the
        # client could race through many more requests during the
        # shutdown() poll window. A second sweep catches connections
        # the listener accepted while it was going down.
        self._stopping = True
        self._close_connections()
        httpd, self._httpd = self._httpd, None
        thread, self._thread = self._thread, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        self._close_connections()
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=10)

    def __enter__(self) -> "EvaluationService":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class _QuietServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that does not traceback-spam when a client
    (or :meth:`EvaluationService.stop`) drops a keep-alive socket —
    disconnects are business as usual for an evaluation host. Every
    other handler exception still reports normally.

    It also stops at once. The stdlib serve loop notices ``shutdown()``
    only at its next poll, up to 0.5 s later; this loop also selects on
    one end of a socket pair, and ``shutdown()`` writes a byte to the
    other. As in the stdlib, a shutdown requested before the loop starts
    ends it as soon as it does.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        # before the listener binds: a failed bind calls server_close()
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._stop_requested = False
        self._stopped = threading.Event()
        super().__init__(*args, **kwargs)

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._stopped.clear()
        try:
            with _ServerSelector() as selector:
                selector.register(self, selectors.EVENT_READ)
                selector.register(self._wake_recv, selectors.EVENT_READ)
                while not self._stop_requested:
                    ready = selector.select(poll_interval)
                    if self._stop_requested:
                        break
                    for key, _ in ready:
                        if key.fileobj is self._wake_recv:
                            # a byte left by the shutdown of an earlier loop
                            try:
                                self._wake_recv.recv(4096)
                            except BlockingIOError:
                                pass
                        else:
                            self._handle_request_noblock()
                    self.service_actions()
        finally:
            self._stop_requested = False
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop the serve loop and wait until it has (from another
        thread, as with the stdlib server)."""
        self._stop_requested = True
        try:
            self._wake_send.send(b"\0")
        except OSError:
            pass  # closed: the loop has already ended
        self._stopped.wait()

    def server_close(self) -> None:
        super().server_close()
        self._wake_recv.close()
        self._wake_send.close()

    def handle_error(self, request: Any, client_address: Any) -> None:
        import sys

        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionError, TimeoutError)):
            return
        super().handle_error(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs onto the owning :class:`EvaluationService`."""

    #: Injected by :meth:`EvaluationService._make_httpd`.
    service: EvaluationService

    #: Keep-alive: one TCP connection carries a whole sweep's requests
    #: (every reply states Content-Length, which HTTP/1.1 requires).
    protocol_version = "HTTP/1.1"

    #: The handler writes status/headers and body as separate segments;
    #: with Nagle on, the body waits out the client's delayed ACK
    #: (~40ms per request). TCP_NODELAY makes per-point latency the
    #: handler cost, not a timer.
    disable_nagle_algorithm = True

    #: Socket timeout for this connection's reads/writes: a client that
    #: stalls mid-body (or idles a keep-alive socket) releases the
    #: handler thread instead of pinning it forever. Generously above
    #: any honest request; an idle client just reconnects — its next
    #: request rides the free stale-socket re-send.
    timeout = 120.0

    #: Largest unread request body an early error reply will drain to
    #: keep the keep-alive socket in sync; anything bigger closes the
    #: connection instead (no legitimate request body comes close).
    _drain_cap = 1 << 20

    # Quiet: a sweep makes thousands of requests.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def setup(self) -> None:
        super().setup()
        self.service._track_connection(self.connection)

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            self.service._untrack_connection(self.connection)

    def _drain_request_body(self) -> None:
        """Consume any unread request body before replying.

        Keep-alive discipline: an early error reply (unknown route,
        malformed token) that leaves body bytes in the socket would
        desync the connection — the leftovers would parse as the next
        request line and poison every later request on it. A body too
        large to drain cheaply (an abusive Content-Length) is not read
        at all; the connection is closed after the reply instead, which
        re-syncs just as well.
        """
        if self._body_consumed:
            return
        self._body_consumed = True
        length = int(self.headers.get("Content-Length") or 0)
        if 0 < length <= self._drain_cap:
            self.rfile.read(length)
        elif length > self._drain_cap:
            self.close_connection = True

    def _reply(self, status: int, payload: Dict[str, Any]) -> None:
        self._drain_request_body()
        body = dump_body(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        self._body_consumed = True
        return load_body(self.rfile.read(length))

    def _dispatch(self, handler: Callable[[], None]) -> None:
        self._body_consumed = False  # per-request; _reply drains leftovers
        if self.service._stopping:
            # A dying server answers nothing — dropping the request is
            # what makes stop() prompt even against a keep-alive client
            # racing the listener teardown. The client sees a transport
            # failure, which its policy retries/fails over honestly.
            self.close_connection = True
            return
        try:
            handler()
        except ServiceError as exc:
            self._reply(400, {"error": str(exc)})
        except Exception as exc:  # cost-model crash → explicit 500
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    # -- verbs ---------------------------------------------------------------------

    def do_GET(self) -> None:
        def handle() -> None:
            split = urlsplit(self.path)
            if split.path == "/healthz":
                self._reply(200, self.service.health())
            elif split.path == "/cache":
                if split.query:
                    offset, limit = parse_cache_query(split.query)
                    total, page = self.service.cache_list(offset, limit)
                    self._reply(
                        200,
                        {
                            "size": total,
                            "entries": [[k, m] for k, m in page],
                        },
                    )
                else:
                    self._reply(200, {"size": self.service.cache_size()})
            elif split.path.startswith("/cache/"):
                key_str = token_to_key(split.path[len("/cache/"):])
                found = self.service.cache_get(key_str)
                if found is None:
                    self._reply(404, {"error": "cache miss"})
                else:
                    self._reply(200, {"metrics": found})
            else:
                self._reply(404, {"error": f"no route {self.path!r}"})

        self._dispatch(handle)

    def do_POST(self) -> None:
        def handle() -> None:
            if self.path == "/evaluate":
                self._handle_evaluate()
            elif self.path == "/evaluate_batch":
                self._handle_evaluate_batch()
            else:
                self._reply(404, {"error": f"no route {self.path!r}"})

        self._dispatch(handle)

    def _handle_evaluate(self) -> None:
        request = self._read_json()
        if not isinstance(request, dict) or "env" not in request:
            raise ServiceError(f"evaluate body must name an 'env': {request!r}")
        action = request.get("action")
        if not isinstance(action, dict):
            raise ServiceError(f"evaluate body needs an 'action' object: {request!r}")
        try:
            metrics = self.service.evaluate(
                str(request["env"]), action, request.get("kwargs")
            )
        except _UnknownEnvironment as exc:
            self._reply(404, {"error": str(exc)})
            return
        except ServiceError as exc:
            self._reply(400, {"error": str(exc)})
            return
        self._reply(200, {"metrics": metrics})

    def _handle_evaluate_batch(self) -> None:
        name, actions, kwargs, memoize = parse_batch_request(self._read_json())
        try:
            metrics_list, memo_hits = self.service.evaluate_batch(
                name, actions, kwargs, memoize=memoize
            )
        except _UnknownEnvironment as exc:
            self._reply(404, {"error": str(exc)})
            return
        except ServiceError as exc:
            self._reply(400, {"error": str(exc)})
            return
        self._reply(200, {"metrics": metrics_list, "memo_hits": memo_hits})

    def do_PUT(self) -> None:
        def handle() -> None:
            if not self.path.startswith("/cache/"):
                self._reply(404, {"error": f"no route {self.path!r}"})
                return
            key_str = token_to_key(self.path[len("/cache/"):])
            request = self._read_json()
            if not isinstance(request, dict) or not isinstance(
                request.get("metrics"), dict
            ):
                raise ServiceError(f"cache PUT body needs a 'metrics' object: {request!r}")
            self.service.cache_put(key_str, request["metrics"])
            self._reply(200, {"stored": True})

        self._dispatch(handle)
