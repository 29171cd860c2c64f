"""Span recorder for the traced benchmark run.

The recorder wraps the public functions at each layer boundary *where
their callers look them up* — class attributes for methods, module
globals for the wire helpers and shard writer — and restores them
afterwards. Nothing under ``src/`` is edited, and an untraced run never
imports this module.

Each span records its name, layer, start, end, parent span, thread,
and the trial it ran in (the request id). Spans stay in memory and are
written once, at the end, as Chrome trace-event JSON that opens in
Perfetto. A span's self time is its duration minus the part of it that
its child spans cover. A span that starts on a thread with no open span
(the host pool's scatter threads) takes as parent the innermost open
span of the driver thread, which is the dispatch call waiting on it.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

# Span fields, stored as a list for cheap creation.
NAME, LAYER, START, END, PARENT, TRIAL, TID, POINTS, VALUE = range(9)

#: Per-layer metrics, in report order. Each timing in ``TIMED`` is
#: reported as its median, ``.tail`` and ``.n`` (see ``summarize``).
TIMED = (
    ("agents.propose_us", "us"),
    ("agents.observe_us", "us"),
    ("core.env.self_us", "us"),
    ("dramsys.eval_ms", "ms"),
    ("farsi.eval_ms", "ms"),
    ("service.batch_rtt_ms", "ms"),
    ("service.cache_rtt_ms", "ms"),
    ("service.wire_us", "us"),
    ("sweeps.hostpool.dispatch_ms", "ms"),
    ("core.cache_store.server_get_ms", "ms"),
    ("core.cache_store.server_put_ms", "ms"),
    ("core.cache_store.file_get_us", "us"),
    ("core.cache_store.file_put_us", "us"),
    ("core.cache_store.list_page_ms", "ms"),
    ("proxy.predict_us", "us"),
    ("sweeps.env_build_ms", "ms"),
    ("sweeps.shard_write_ms", "ms"),
    ("sweeps.report_ms", "ms"),
)
SCALARS = (
    ("agents.points", "count"),
    ("core.env.hit_ratio", "ratio"),
    ("core.env.cache_hits", "count"),
    ("core.env.cache_misses", "count"),
    ("core.env.shared_hits", "count"),
    ("dramsys.evals", "count"),
    ("farsi.evals", "count"),
    ("timeloop.eval_ms", "ms"),
    ("timeloop.evals", "count"),
    ("service.requests", "count"),
    ("service.connections_opened", "count"),
    ("service.host_sim_share", "ratio"),
    ("service.host_batch_requests", "count"),
    ("service.host_memo_hits", "count"),
    ("sweeps.hostpool.wait_share", "ratio"),
    ("sweeps.hostpool.balance", "ratio"),
    ("core.cache_store.entries_listed", "count"),
    ("proxy.harvest_s", "s"),
    ("proxy.harvest_yield", "ratio"),
    ("proxy.refit_s", "s"),
    ("proxy.refits", "count"),
    ("proxy.screened", "count"),
    ("proxy.accepted", "count"),
    ("proxy.accept_ratio", "ratio"),
    ("trace.samples_per_s", "samples/s"),
    ("trace.speed_factor", "ratio"),
    ("trace.spans", "count"),
)
#: Candidate tail percentiles, highest first.
_TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)


def summarize(values: List[float]) -> Tuple[float, float, int]:
    """``(median, tail, n)``: the tail is the highest of the candidate
    percentiles (nearest rank) with at least ten samples above it, or
    the median when no candidate has; all zero for no samples."""
    n = len(values)
    if not n:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    median = statistics.median(ordered)
    for level in _TAIL_LEVELS:
        rank = math.ceil(level / 100 * n) - 1
        if n - 1 - rank >= 10:
            return median, ordered[rank], n
    return median, median, n


def _count(arg_index: int) -> Callable[..., int]:
    """Points = ``len`` of a positional argument (``self`` is 0)."""
    return lambda args, kwargs, result: len(args[arg_index])


def _result_len(args, kwargs, result) -> int:
    return len(result)


class Tracer:
    """The spans of one traced run: install, run, uninstall, report."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.trial: Optional[int] = None
        self._trials = 0
        self._local = threading.local()
        self._main_tid = threading.get_ident()
        self._main_stack = self._stack()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._clients: List[Any] = []
        self._t0 = time.perf_counter_ns()

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._main_tid:
            main = self._main_stack
            parent = main[-1] if main else None
        else:
            parent = None
        span = [name, layer, time.perf_counter_ns(), 0, parent, self.trial,
                threading.get_ident(), 1, None]
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack().pop()

    @contextmanager
    def region(self, name: str, layer: str):
        span = self._open(name, layer)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(
        self, func: Callable, name: str, layer: str,
        points: Optional[Callable[..., int]] = None,
        value: Optional[Callable[[Any], Any]] = None,
    ) -> Callable:
        tracer = self
        if inspect.isgeneratorfunction(func):
            # Calling it does no work; each item it yields is a span.
            @functools.wraps(func)
            def traced_gen(*args, **kwargs):
                return tracer._iterate(func(*args, **kwargs), name, layer)

            return traced_gen

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span)
            try:
                if points is not None:
                    span[POINTS] = points(args, kwargs, result)
                if value is not None:
                    span[VALUE] = value(result)
            except (IndexError, TypeError):
                pass  # an unexpected call shape keeps the defaults
            if inspect.isgenerator(result):
                return tracer._iterate(result, name, layer)
            return result

        return traced

    def _iterate(self, gen, name: str, layer: str):
        """Lazy work of a returned generator: one span per item. Closing
        the wrapper closes the generator, as its callers rely on."""
        try:
            while True:
                span = self._open(name, layer)
                try:
                    item = next(gen)
                except StopIteration:
                    span[POINTS] = 0
                    return
                finally:
                    self._close(span)
                yield item
        finally:
            gen.close()

    # -- installing -----------------------------------------------------------

    def patch(self, owner: Any, attr: str, name: str, layer: str,
              points=None, value=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            wrapped: Any = staticmethod(self.wrap(raw.__func__, name, layer, points, value))
        elif isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(raw.__func__, name, layer, points, value))
        else:
            wrapped = self.wrap(raw, name, layer, points, value)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        import repro.envs as envs
        import repro.service.client as client_mod
        import repro.sweeps.executor as executor
        import repro.sweeps.shards as shards
        from repro.agents.base import Agent
        from repro.cli import RegistryEnvFactory
        from repro.core.cache_store import ServerCacheStore, SharedCacheStore
        from repro.core.dataset import ArchGymDataset
        from repro.core.env import ArchGymEnv
        from repro.proxy.online import OnlineProxy
        from repro.service.client import ServiceClient
        from repro.service.remote import RemoteBackend
        from repro.sweeps.hostpool import HostPool
        from repro.sweeps.runner import SweepReport

        # agents: every class that defines its own propose/observe pair.
        classes, todo = [], [Agent]
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        for cls in classes:
            for attr, points in (
                ("propose", None), ("propose_batch", _result_len),
                ("observe", None), ("observe_batch", _count(1)),
            ):
                if attr in cls.__dict__:
                    kind = "propose" if attr.startswith("propose") else "observe"
                    self.patch(cls, attr, f"agents.{kind}", "agents", points)

        self.patch(ArchGymEnv, "step", "core.env.step", "core.env")
        self.patch(ArchGymEnv, "step_batch", "core.env.step_batch", "core.env", _count(1))
        self.patch(ArchGymEnv, "step_batch_stream", "core.env.step_batch_stream", "core.env")
        for cls, layer in (
            (envs.DRAMGymEnv, "dramsys"), (envs.FARSIGymEnv, "farsi"),
            (envs.TimeloopGymEnv, "timeloop"),
        ):
            self.patch(cls, "evaluate", f"{layer}.evaluate", layer)

        for cls, tier in ((SharedCacheStore, "file"), (ServerCacheStore, "server")):
            self.patch(cls, "get", f"core.cache_store.{tier}_get", "core.cache_store")
            self.patch(cls, "put", f"core.cache_store.{tier}_put", "core.cache_store")
            self.patch(cls, "list_encoded", "core.cache_store.list_page",
                       "core.cache_store", value=lambda r: len(r[0]))

        self.patch(ServiceClient, "evaluate", "service.evaluate", "service")
        self.patch(ServiceClient, "evaluate_batch", "service.evaluate_batch",
                   "service", _count(2))
        for attr in ("cache_get", "cache_put"):
            self.patch(ServiceClient, attr, f"service.{attr}", "service")
        for attr in ("cache_list", "cache_size", "healthz"):
            self.patch(ServiceClient, attr, f"service.{attr}", "service")
        original_init = ServiceClient.__dict__["__init__"]
        clients = self._clients

        def init(client, *args, **kwargs):
            original_init(client, *args, **kwargs)
            clients.append(client)

        self._patches.append((ServiceClient, "__init__", original_init))
        ServiceClient.__init__ = init
        for attr in ("dump_body", "jsonify", "parse_batch_response",
                     "parse_metrics_response", "parse_cache_listing"):
            self.patch(client_mod, attr, "service.wire", "service.wire")
        for attr, points in (
            ("evaluate", None), ("evaluate_batch", _count(2)),
            ("evaluate_batch_stream", _count(2)),
        ):
            self.patch(RemoteBackend, attr, f"service.backend.{attr}",
                       "service", points)

        for attr, points in (
            ("evaluate", None), ("evaluate_batch", _count(2)),
            ("evaluate_batch_scatter", _count(2)),
            ("evaluate_batch_stream", _count(2)),
        ):
            self.patch(HostPool, attr, f"sweeps.hostpool.{attr}",
                       "sweeps.hostpool", points)

        self.patch(OnlineProxy, "harvest", "proxy.harvest", "proxy", value=int)
        self.patch(OnlineProxy, "maybe_refit", "proxy.maybe_refit", "proxy", value=bool)
        self.patch(OnlineProxy, "predict_batch", "proxy.predict_batch", "proxy", _count(1))

        self.patch(shards, "write_shard", "sweeps.write_shard", "sweeps")
        self.patch(RegistryEnvFactory, "__call__", "sweeps.env_factory", "sweeps")
        self.patch(ArchGymDataset, "merge_all", "sweeps.report", "sweeps")
        self.patch(SweepReport, "from_shards", "sweeps.report", "sweeps")

        original_run_trial = executor.run_trial
        run_trial = self.wrap(original_run_trial, "sweeps.trial", "sweeps")
        tracer = self

        def trial(task):
            tracer.trial = tracer._trials
            tracer._trials += 1
            try:
                return run_trial(task)
            finally:
                tracer.trial = None

        self._patches.append((executor, "run_trial", original_run_trial))
        executor.run_trial = trial

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- analysis -------------------------------------------------------------

    def _children(self) -> Dict[int, List[list]]:
        children: Dict[int, List[list]] = {}
        for span in self.spans:
            if span[PARENT] is not None:
                children.setdefault(id(span[PARENT]), []).append(span)
        return children

    @staticmethod
    def _covered(span: list, kids: List[list]) -> int:
        """Nanoseconds of ``span`` that its children's union covers."""
        covered = 0
        cursor = span[START]
        for kid in sorted(kids, key=lambda k: k[START]):
            lo, hi = max(kid[START], cursor), min(kid[END], span[END])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return covered

    def _layer_time(self, span: list, children) -> int:
        """Self time of ``span`` plus that of same-layer descendants
        reached only through same-layer spans (a batch call nesting its
        own per-point calls)."""
        kids = children.get(id(span), [])
        total = span[END] - span[START] - self._covered(span, kids)
        for kid in kids:
            if kid[LAYER] == span[LAYER]:
                total += self._layer_time(kid, children)
        return total

    def _outermost(self, names) -> List[list]:
        return [
            s for s in self.spans
            if s[NAME] in names
            and (s[PARENT] is None or s[PARENT][LAYER] != s[LAYER])
        ]

    def per_layer(self, run: dict) -> Dict[str, Tuple[float, str]]:
        children = self._children()
        spans = self.spans
        samples: Dict[str, List[float]] = {name: [] for name, _ in TIMED}

        def per_point(metric: str, names, scale: float) -> int:
            total = 0
            for s in self._outermost(names):
                if s[POINTS] > 0:
                    samples[metric].append(
                        self._layer_time(s, children) / s[POINTS] * scale
                    )
                    total += s[POINTS]
            return total

        def durations(metric: str, names, scale: float) -> List[list]:
            chosen = [s for s in spans if s[NAME] in names]
            samples[metric].extend((s[END] - s[START]) * scale for s in chosen)
            return chosen

        points = per_point("agents.propose_us", {"agents.propose"}, 1e-3)
        per_point("agents.observe_us", {"agents.observe"}, 1e-3)
        per_point("core.env.self_us", {
            "core.env.step", "core.env.step_batch", "core.env.step_batch_stream",
        }, 1e-3)
        dram = durations("dramsys.eval_ms", {"dramsys.evaluate"}, 1e-6)
        farsi = durations("farsi.eval_ms", {"farsi.evaluate"}, 1e-6)
        calls = durations("service.batch_rtt_ms",
                          {"service.evaluate", "service.evaluate_batch"}, 1e-6)
        calls += durations("service.cache_rtt_ms",
                           {"service.cache_get", "service.cache_put"}, 1e-6)
        for s in calls:
            wire = sum(
                k[END] - k[START] for k in children.get(id(s), [])
                if k[LAYER] == "service.wire"
            )
            samples["service.wire_us"].append(wire / max(s[POINTS], 1) * 1e-3)
        pool = self._outermost({
            "sweeps.hostpool.evaluate", "sweeps.hostpool.evaluate_batch",
            "sweeps.hostpool.evaluate_batch_scatter",
            "sweeps.hostpool.evaluate_batch_stream",
        })
        samples["sweeps.hostpool.dispatch_ms"] = [
            (s[END] - s[START]) * 1e-6 for s in pool
        ]
        durations("core.cache_store.server_get_ms", {"core.cache_store.server_get"}, 1e-6)
        durations("core.cache_store.server_put_ms", {"core.cache_store.server_put"}, 1e-6)
        durations("core.cache_store.file_get_us", {"core.cache_store.file_get"}, 1e-3)
        durations("core.cache_store.file_put_us", {"core.cache_store.file_put"}, 1e-3)
        listed = durations("core.cache_store.list_page_ms",
                           {"core.cache_store.list_page"}, 1e-6)
        per_point("proxy.predict_us", {"proxy.predict_batch"}, 1e-3)
        durations("sweeps.env_build_ms", {"sweeps.env_factory"}, 1e-6)
        durations("sweeps.shard_write_ms", {"sweeps.write_shard"}, 1e-6)
        durations("sweeps.report_ms", {"sweeps.report"}, 1e-6)

        results = run["results"]
        measured = max(run["measured"], 1e-9)
        hits = sum(r.cache_hits for r in results)
        misses = sum(r.cache_misses for r in results)
        shared = sum(r.shared_cache_hits for r in results)
        screened = sum(r.proxy_screened for r in results)
        accepted = sum(r.proxy_accepted for r in results)
        hosts = run["host_delta"]
        host_evals = [d["evaluations"] for d in hosts]
        busy = sum(d["busy_s"] for d in hosts)
        host_cpu = sum(d["cpu_s"] for d in hosts)
        entries = sum(s[VALUE] or 0 for s in listed)
        harvests = [s for s in spans if s[NAME] == "proxy.harvest"]
        refits = [s for s in spans if s[NAME] == "proxy.maybe_refit"]
        main_pool = sum(
            s[END] - s[START] for s in pool if s[TID] == self._main_tid
        ) * 1e-9

        out: Dict[str, Tuple[float, str]] = {}
        for name, unit in TIMED:
            median, tail, n = summarize(samples[name])
            out[name] = (median, unit)
            out[name + ".tail"] = (tail, unit)
            out[name + ".n"] = (n, "count")
        scalars = {
            "agents.points": points,
            "core.env.hit_ratio": (hits + shared) / max(hits + shared + misses, 1),
            "core.env.cache_hits": hits,
            "core.env.cache_misses": misses,
            "core.env.shared_hits": shared,
            "dramsys.evals": len(dram),
            "farsi.evals": len(farsi),
            "timeloop.eval_ms": 1e3 * busy / max(sum(host_evals), 1),
            "timeloop.evals": int(sum(host_evals)),
            "service.requests": sum(c.requests_sent for c in self._clients),
            "service.connections_opened": sum(
                c.connections_opened for c in self._clients
            ),
            "service.host_sim_share": busy / host_cpu if host_cpu else 0.0,
            "service.host_batch_requests": int(sum(d["batch_requests"] for d in hosts)),
            "service.host_memo_hits": int(sum(d["memo_hits"] for d in hosts)),
            "sweeps.hostpool.wait_share": main_pool / measured,
            "sweeps.hostpool.balance": (
                max(host_evals) / statistics.mean(host_evals)
                if host_evals and sum(host_evals) else 0.0
            ),
            "core.cache_store.entries_listed": entries,
            "proxy.harvest_s": sum(s[END] - s[START] for s in harvests) * 1e-9,
            "proxy.harvest_yield": (
                sum(s[VALUE] or 0 for s in harvests) / entries if entries else 0.0
            ),
            "proxy.refit_s": sum(s[END] - s[START] for s in refits) * 1e-9,
            "proxy.refits": sum(1 for s in refits if s[VALUE]),
            "proxy.screened": screened,
            "proxy.accepted": accepted,
            "proxy.accept_ratio": accepted / screened if screened else 0.0,
            "trace.samples_per_s": run["samples"] / max(run["wall"], 1e-9),
            "trace.speed_factor": run["speed"],
            "trace.spans": len(spans),
        }
        for name, unit in SCALARS:
            out[name] = (scalars[name], unit)
        return out

    # -- export ---------------------------------------------------------------

    def write_chrome_trace(self, path: Path) -> None:
        """Chrome trace-event JSON (complete ``X`` events, microseconds)."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        tids: Dict[int, int] = {}
        pid = os.getpid()
        events = []
        for i, s in enumerate(self.spans):
            tid = tids.setdefault(s[TID], len(tids))
            args = {"id": i, "points": s[POINTS]}
            if s[PARENT] is not None:
                args["parent"] = ids[id(s[PARENT])]
            if s[TRIAL] is not None:
                args["trial"] = s[TRIAL]
            events.append({
                "name": s[NAME], "cat": s[LAYER], "ph": "X", "pid": pid,
                "tid": tid, "ts": (s[START] - self._t0) / 1e3,
                "dur": (s[END] - s[START]) / 1e3, "args": args,
            })
        for raw, tid in tids.items():
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": "driver" if raw == self._main_tid else f"dispatch-{tid}"},
            })
        path.write_text(json.dumps({"traceEvents": events}))
