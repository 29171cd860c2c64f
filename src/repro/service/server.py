"""The evaluation service: design-point evaluation over HTTP.

The paper's wall-clock argument (§6, Fig. 8) is that *simulator* cost
dominates search; :class:`EvaluationService` lets that cost live in a
separate process — or on a separate machine — behind these endpoints:

``GET /healthz``
    Liveness + inventory: wire format, registered environment names,
    how many evaluations this server has run, and the size of its
    design-point cache.
``POST /evaluate_batch``
    The one evaluation request. Body ``{"env": name, "actions": [{...},
    ...], "kwargs": {...}?}``; the server builds (and keeps) the named
    environment, runs its ``evaluate`` cost model on every action, and
    answers ``{"metrics": [...]}`` with one metric object per action,
    in request order. ``kwargs`` are environment construction arguments
    (workload, objective, …); each distinct ``(env, kwargs)`` pair gets
    its own long-lived instance, serialized by a per-instance lock
    because cost models are not promised to be thread-safe. The whole
    batch runs under **one** acquisition of that lock, so N design
    points pay one round trip and one lock handoff instead of N. Every
    action is simulated, repeats included: reuse across requests is the
    client's cache tiers' job, never the server's.
``GET /cache``
    A ``canonical_action_key -> metrics`` map shared by every client —
    one :class:`~repro.core.cache_store.SharedCacheStore` the server
    owns, and the backing of the client-side ``ServerCacheStore``.
    ``GET /cache`` reports the entry count, and
    ``GET /cache?offset=N&limit=M`` pages through the whole map in
    sorted-key order (``{"size": total, "entries": [[key, metrics],
    ...]}``) — the listing the :class:`~repro.sweeps.hostpool.HostPool`
    anti-entropy backfill replays into a revived replica. With
    ``cache_dir`` the store keeps durable shard files there; without
    it, the store has no directory and holds its entries in memory.
    Both answer through the same code.
``POST /cache`` and ``PUT /cache``
    The map's lookup and write, one of each per step or generation.
    ``POST /cache`` with ``{"keys": [key, ...]}`` answers
    ``{"entries": [[key, metrics], ...]}`` for the keys the map holds
    (misses are absent); ``PUT /cache`` with ``{"entries": [[key,
    metrics], ...]}`` stores every entry in order (last writer wins)
    and answers ``{"stored": n}``. Keys are encoded key strings (see
    :mod:`repro.service.wire`); a body holds at most
    ``MAX_CACHE_PAGE`` keys or entries, and each request takes the
    map's lock once.

Everything is stdlib: ``http.server.ThreadingHTTPServer`` + ``json``.
Server-side failures are reported as JSON ``{"error": ...}`` bodies
with 4xx/5xx statuses — the client maps them onto
:class:`~repro.core.errors.ServiceError`. A request whose
``Content-Length`` is not a non-negative integer gets a 400 and its
connection is closed, since its body cannot be framed.
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

from repro.core.cache_store import SharedCacheStore
from repro.core.env import ArchGymEnv
from repro.core.errors import CacheStoreError, ServiceError
from repro.service.wire import (
    DEFAULT_CACHE_PAGE,
    WIRE_FORMAT,
    canonical_dumps,
    clean_metrics,
    dump_body,
    load_body,
    parse_batch_request,
    parse_cache_lookup,
    parse_cache_query,
    parse_cache_write,
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
        Directory of the ``/cache`` map's :class:`SharedCacheStore`.
        When given, the map survives server restarts; ``None`` (the
        default) builds the store without a directory, so entries live
        in memory for the server's lifetime.

    Use as a context manager (``with EvaluationService() as svc:``) or
    call :meth:`start`/:meth:`stop` explicitly; the ``repro serve`` CLI
    calls :meth:`start`, prints the URL, then blocks in :meth:`wait`.
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
        # fsync per append; without a directory there is no append. The
        # lock is required either way: the store's bookkeeping is safe
        # across *processes*, not across this server's handler threads.
        self._cache_store = SharedCacheStore(cache_dir, durable=True)
        self._cache_lock = threading.Lock()
        self.evaluations = 0
        #: ``/evaluate_batch`` requests served.
        self.batch_requests = 0
        #: Cumulative seconds the cost models spent simulating — with
        #: ``evaluations`` this gives observers the host's service
        #: *rate*, which is what
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

    def evaluate_batch(
        self,
        name: str,
        actions: List[Dict[str, Any]],
        kwargs: Optional[Dict[str, Any]] = None,
    ) -> List[Dict[str, float]]:
        """Run every action of one batch, repeats included, through the
        named environment under one instance-lock acquisition; one
        metric dict per action, in request order."""
        kwargs = kwargs or {}
        instance_key, factory, lock = self._instance_lock(name, kwargs)
        results: List[Dict[str, float]] = []
        busy = 0.0
        # Construct and evaluate under the per-instance lock only — a
        # slow env build or simulation must never stall requests for
        # other instances (or /healthz) behind the global state lock.
        with lock:
            env = self._instance(instance_key, factory, kwargs)
            for action in actions:
                t0 = time.perf_counter()
                raw = env.evaluate(action)
                busy += time.perf_counter() - t0
                results.append(clean_metrics(raw))
        with self._state_lock:  # instance locks differ per (env, kwargs)
            self.evaluations += len(results)
            self.batch_requests += 1
            self.busy_s += busy
        return results

    def cache_get_many(self, key_strs: List[str]) -> Dict[str, Dict[str, float]]:
        """``{key_str: metrics}`` for every held key of ``key_strs``
        (misses absent), under one lock hold."""
        with self._cache_lock:
            return self._cache_store.get_many_encoded(key_strs)

    def cache_put_many(self, entries: List[Tuple[str, Dict[str, float]]]) -> None:
        """Store every entry in order (last writer wins) under one lock
        hold. The store checks every metric before anything is stored
        and raises :class:`~repro.core.errors.CacheStoreError` for one
        that is not a finite number (a 400 on the wire)."""
        with self._cache_lock:
            self._cache_store.put_many_encoded(entries)

    def cache_size(self) -> int:
        with self._cache_lock:
            return len(self._cache_store)

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
            page, total = self._cache_store.list_encoded(offset, limit)
        return total, page

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
            busy_s = self.busy_s
        return {
            "status": "ok",
            "format": WIRE_FORMAT,
            "envs": envs,
            "evaluations": evaluations,
            "batch_requests": batch_requests,
            # Always 0 (the server keeps no memo); the benchmark's host
            # counters (perfbench/hosts.py) read it.
            "memo_hits": 0,
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

    def start(self) -> str:
        """Serve in a daemon thread; returns the bound base URL."""
        if self._httpd is not None:
            raise ServiceError("service already started")
        self._stopping = False
        handler = type("_BoundHandler", (_Handler,), {"service": self})
        self._httpd = _QuietServer((self._host, self._requested_port), handler)
        self._httpd.daemon_threads = True
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

    #: Injected by :meth:`EvaluationService.start`.
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

        Keep-alive discipline: an error reply sent before the body was
        read (an unknown route) that leaves body bytes in the socket
        would desync the connection — the leftovers would parse as the next
        request line and poison every later request on it. A body too
        large to drain cheaply (an abusive Content-Length) is not read
        at all; the connection is closed after the reply instead, which
        re-syncs just as well.
        """
        if self._body_consumed:
            return
        self._body_consumed = True
        if 0 < self._body_length <= self._drain_cap:
            self.rfile.read(self._body_length)
        elif self._body_length > self._drain_cap:
            self.close_connection = True

    def _reply(self, status: int, payload: Dict[str, Any]) -> None:
        self._drain_request_body()
        body = dump_body(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:  # tell the client not to reuse it
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Any:
        self._body_consumed = True
        return load_body(self.rfile.read(self._body_length))

    def _dispatch(self, handler: Callable[[], None]) -> None:
        self._body_consumed = False  # per-request; _reply drains leftovers
        if self.service._stopping:
            # A dying server answers nothing — dropping the request is
            # what makes stop() prompt even against a keep-alive client
            # racing the listener teardown. The client sees a transport
            # failure, which its policy retries/fails over honestly.
            self.close_connection = True
            return
        length = self.headers.get("Content-Length", "0").strip()
        if not (length.isascii() and length.isdigit()):
            # A body that cannot be framed leaves the socket out of
            # step for good: answer without reading it, then close.
            self._body_consumed = self.close_connection = True
            error = f"Content-Length must be a non-negative integer, got {length!r}"
            self._reply(400, {"error": error})
            return
        self._body_length = int(length)
        try:
            handler()
        except _UnknownEnvironment as exc:
            self._reply(404, {"error": str(exc)})
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
            else:
                self._reply(404, {"error": f"no route {self.path!r}"})

        self._dispatch(handle)

    def do_POST(self) -> None:
        def handle() -> None:
            if self.path == "/evaluate_batch":
                name, actions, kwargs = parse_batch_request(self._read_json())
                metrics = self.service.evaluate_batch(name, actions, kwargs)
                self._reply(200, {"metrics": metrics})
            elif self.path == "/cache":
                keys = parse_cache_lookup(self._read_json())
                found = self.service.cache_get_many(keys)
                self._reply(
                    200, {"entries": [[k, m] for k, m in found.items()]}
                )
            else:
                self._reply(404, {"error": f"no route {self.path!r}"})

        self._dispatch(handle)

    def do_PUT(self) -> None:
        def handle() -> None:
            if self.path == "/cache":
                entries = parse_cache_write(self._read_json())
                try:
                    self.service.cache_put_many(entries)
                except CacheStoreError as exc:  # a metric the store refuses
                    self._reply(400, {"error": str(exc)})
                    return
                self._reply(200, {"stored": len(entries)})
            else:
                self._reply(404, {"error": f"no route {self.path!r}"})

        self._dispatch(handle)
