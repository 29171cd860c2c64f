"""A model of `HostPool` placement and failover.

Hypothesis scripts a pool of 1-4 fake hosts — which of each host's
requests die in transport, whether its ``/healthz`` probe answers — and
a sequence of operations: a one-point ``evaluate_batch`` (one copy,
round-robin) or a ``cache_write("cache_put_many", copies)`` (``copies``
hosts in URL order). A plain-Python model applies the pool's rules:

- an operation tries the living hosts in order until ``copies`` of them
  answer; a call starts at the round-robin cursor and moves it past
  every host it tries, a write starts at the first host;
- a host whose request dies is quarantined, and the next living host
  takes its turn;
- if no host answers, one revival sweep probes every quarantined host,
  revives those that answer, and the operation runs once more; if none
  revives, or they all die too, the operation raises with the per-host
  error inventory.

After every operation the test compares the pool with the model: the
answer, ``last_host``, ``quarantined_urls``, each host's request and
probe counts, and the error text when the operation raises; at the end,
``evals_by_host``. No socket is opened: every host's clients are fakes.
"""

import sys
import threading

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from repro.core.errors import ServiceTransportError
from repro.sweeps import HostPool

T, F = True, False


class _FakeClient:
    """The evaluation client of host ``i``: its k-th request dies in
    transport iff ``script[k]`` (requests past the script answer)."""

    def __init__(self, i, script):
        self.i = i
        self.script = script
        self.requests = 0

    def _request(self):
        k = self.requests
        self.requests += 1
        if k < len(self.script) and self.script[k]:
            raise ServiceTransportError(f"h{self.i} request {k} died")

    def evaluate_batch(self, env, actions, env_kwargs=None):
        self._request()
        return [{"host": float(self.i), "x": float(a["x"])} for a in actions]

    def cache_put_many(self, entries):
        self._request()
        return self.i

    def close(self):
        pass


class _FakeProbe:
    """The probe client of a host: ``healthz`` answers iff ``up``; the
    backfill of a revived host finds nothing to copy."""

    def __init__(self, up):
        self.up = up
        self.probes = 0

    def healthz(self):
        self.probes += 1
        if not self.up:
            raise ServiceTransportError("probe refused")
        return {"status": "ok"}

    def cache_list(self, offset=0, limit=None):
        return [], 0

    def cache_put_many(self, entries):
        return len(entries)

    def close(self):
        pass


class _Model:
    """What the pool must do, in plain Python."""

    def __init__(self, scripts, probes):
        self.n = len(scripts)
        self.urls = [f"http://h{i}:1" for i in range(self.n)]
        self.scripts = scripts
        self.up = probes
        self.alive = [True] * self.n
        self.errors = [None] * self.n
        self.requests = [0] * self.n
        self.probes = [0] * self.n
        self.evals = [0] * self.n
        self.cursor = 0
        self.last_host = None

    def _answers(self, i):
        k = self.requests[i]
        self.requests[i] += 1
        if k < len(self.scripts[i]) and self.scripts[i][k]:
            self.alive[i] = False
            self.errors[i] = f"h{i} request {k} died"
            return False
        return True

    def _round(self, kind, copies):
        start = self.cursor if kind == "call" else 0
        answered = []
        for k in range(self.n):
            i = (start + k) % self.n
            if len(answered) == copies:
                break
            if not self.alive[i]:
                continue
            if kind == "call":
                self.cursor = (i + 1) % self.n
            if self._answers(i):
                answered.append(i)
        return answered

    def _revive(self):
        revived = 0
        for i in range(self.n):
            if not self.alive[i]:
                self.probes[i] += 1
                if self.up[i]:
                    self.alive[i] = True
                    self.errors[i] = None
                    revived += 1
        return revived

    def apply(self, kind, copies):
        """The hosts that answered, in order, or the error text."""
        answered = self._round(kind, copies)
        if not answered and self._revive():
            answered = self._round(kind, copies)
        if not answered:
            failed = (
                f"all {self.n} evaluation host(s) failed" if kind == "call"
                else "shared-cache cache_put_many failed on every replica host"
            )
            inventory = "; ".join(
                f"{url}: {err or 'ok'}" for url, err in zip(self.urls, self.errors)
            )
            return f"{failed}: {inventory}"
        if kind == "call":
            self.evals[answered[0]] += 1
            self.last_host = self.urls[answered[0]]
        return answered


@st.composite
def _scenarios(draw):
    n = draw(st.integers(1, 4))
    ops = draw(st.lists(
        st.one_of(
            st.just(("call", 1)),
            st.tuples(st.just("write"), st.integers(1, 3)),
        ),
        min_size=1, max_size=8,
    ))
    # A host serves at most two rounds per operation.
    script = st.lists(st.booleans(), max_size=2 * len(ops))
    scripts = draw(st.lists(script, min_size=n, max_size=n))
    probes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return scripts, probes, ops


def _pool(scripts, probes):
    pool = HostPool(
        [f"http://h{i}:1" for i in range(len(scripts))],
        retries=0, revive_after_s=3600,
    )
    for i, host in enumerate(pool._hosts):
        host.client = _FakeClient(i, scripts[i])
        host.probe_client = _FakeProbe(probes[i])
    return pool


@settings(max_examples=300, deadline=None)
@given(_scenarios())
@example((
    # A revival sweep between two calls: the second call must start
    # after the last host the first call tried, not the last that
    # answered.
    [[T], [F, F, T], [F, T], [T]],
    [F, T, F, T],
    [("call", 1), ("write", 1), ("write", 1), ("call", 1)],
))
def test_pool_matches_model(scenario):
    scripts, probes, ops = scenario
    pool = _pool(scripts, probes)
    model = _Model(scripts, probes)
    try:
        for step, (kind, copies) in enumerate(ops):
            expected = model.apply(kind, copies)
            if isinstance(expected, str):
                with pytest.raises(ServiceTransportError) as excinfo:
                    if kind == "call":
                        pool.evaluate_batch("E", [{"x": step}])
                    else:
                        pool.cache_write("cache_put_many", copies, [])
                assert str(excinfo.value) == expected
            elif kind == "call":
                got = pool.evaluate_batch("E", [{"x": step}])
                assert got == [{"host": float(expected[0]), "x": float(step)}]
            else:
                assert pool.cache_write("cache_put_many", copies, []) == expected
            assert pool.last_host == model.last_host
            assert pool.quarantined_urls == [
                url for url, alive in zip(model.urls, model.alive) if not alive
            ]
            assert [h.client.requests for h in pool._hosts] == model.requests
            assert [h.probe_client.probes for h in pool._hosts] == model.probes
        assert pool.evals_by_host == {
            url: evals for url, evals in zip(model.urls, model.evals) if evals
        }
    finally:
        pool.close()


def test_concurrent_calls_keep_strict_rotation():
    """A pick and its cursor move are one step under the pool's lock
    (scatter chunks fail over concurrently): on a healthy fleet,
    concurrent callers still rotate strictly, so every host answers
    exactly its share."""
    n_hosts, n_threads, calls = 4, 8, 2000
    pool = _pool([[]] * n_hosts, [True] * n_hosts)

    def caller():
        for _ in range(calls):
            pool.evaluate_batch("E", [{"x": 0}])

    threads = [threading.Thread(target=caller) for _ in range(n_threads)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(switch)
        pool.close()
    share = n_threads * calls // n_hosts
    assert pool.evals_by_host == {f"http://h{i}:1": share for i in range(n_hosts)}
