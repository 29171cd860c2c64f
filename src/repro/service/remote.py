"""Client-side evaluation backends: point ``ArchGymEnv.evaluate`` at a
remote service (or a pool of them).

An :class:`~repro.core.env.ArchGymEnv` dispatches every cost-model call
through its attached *backend* (``None`` means the env's own
``evaluate``). :class:`RemoteBackend` is the over-the-wire
implementation: the action crosses HTTP to an
:class:`~repro.service.server.EvaluationService` hosting the same
environment, and the metrics come back bit-exact (floats survive the
JSON round trip). The agent above the env is untouched — reward
computation, episode accounting, caching tiers, and dataset logging all
stay client-side, so a remote sweep is bit-identical to an in-process
one except for the ``remote_evals`` counter and timing.

The transport underneath is always a
:class:`~repro.sweeps.hostpool.HostPool` (round-robin scheduling with
failover) over the given URLs. One URL is a one-host pool: a batch is
still one ``POST /evaluate_batch``, and a host whose transport dies is
quarantined and gets one short ``/healthz`` revival probe before the
call fails.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Union

from repro.core.env import ArchGymEnv

__all__ = ["RemoteBackend", "RemoteEnv"]


class RemoteBackend:
    """Evaluate design points on remote evaluation services.

    Parameters
    ----------
    service:
        A base URL (``"http://host:port"``) or a sequence of base URLs.
        Either way the backend drives a
        :class:`~repro.sweeps.hostpool.HostPool` over them (round-robin
        scheduling with failover; one URL is a one-host pool).
    env_kwargs:
        Environment construction arguments (workload, objective, …)
        forwarded with every request, so the server instantiates the
        same environment the client built locally.
    weights:
        Per-host capacity weights aligned with ``service`` — forwarded
        to the pool, where they size each host's share of a scattered
        generation.
    auto_weights:
        Let the pool self-tune those weights from each host's observed
        service rate (``/healthz`` counters, EWMA-smoothed) — see
        :class:`~repro.sweeps.hostpool.HostPool`.
    client_kwargs:
        ``timeout_s`` / ``retries`` / ``backoff_s`` of every host's
        client.
    """

    def __init__(
        self,
        service: Union[str, Sequence[str]],
        env_kwargs: Optional[Dict[str, Any]] = None,
        weights: Optional[Sequence[float]] = None,
        auto_weights: bool = False,
        **client_kwargs: Any,
    ) -> None:
        # Imported lazily: repro.service must stay importable without
        # pulling in the whole sweeps package.
        from repro.sweeps.hostpool import HostPool

        self.pool = HostPool(
            service, weights=weights, auto_weights=auto_weights,
            **client_kwargs,
        )
        self.env_kwargs = dict(env_kwargs) if env_kwargs else None
        #: Per-point host provenance of the most recent
        #: :meth:`evaluate_batch` — what
        #: :meth:`ArchGymEnv._dispatch_evaluate_batch` records.
        self.last_hosts: Optional[list] = None

    @property
    def last_host(self) -> Optional[str]:
        """URL that served the calling thread's most recent evaluation."""
        return self.pool.last_host

    def evaluate(self, env_name: str, action: Dict[str, Any]) -> Dict[str, float]:
        """Evaluate one design point as a one-action batch on the pool
        (the env itself only calls :meth:`evaluate_batch`)."""
        return self.pool.evaluate(env_name, action, env_kwargs=self.env_kwargs)

    def evaluate_batch(
        self, env_name: str, actions: Sequence[Dict[str, Any]]
    ) -> list:
        """Evaluate many design points in one round trip per host.

        The pool scatters the batch over its living hosts by capacity
        weight (parallel chunks, results reassembled in request order;
        one host sends the whole batch), and ``last_hosts`` afterwards
        names, per point, the host that answered it. The hosts simulate
        every point they are sent; cross-trial reuse is the shared cache
        tier's job.
        """
        metrics, self.last_hosts = self.pool.evaluate_batch_scatter(
            env_name, list(actions), env_kwargs=self.env_kwargs
        )
        return metrics

    def evaluate_batch_stream(self, env_name: str, actions: Sequence[Dict[str, Any]]):
        """Streaming sibling of :meth:`evaluate_batch`: yield
        ``(start_index, metrics_list, host_url)`` chunks as hosts
        finish, in completion order.

        The pool streams per work unit with work stealing
        (:meth:`~repro.sweeps.hostpool.HostPool.evaluate_batch_stream`),
        so the generator finishes as soon as every result is known —
        no barrier on the slowest host; one living host answers the
        whole batch as a single chunk. ``last_hosts`` is rebuilt per
        point as chunks land, matching the barrier path's provenance
        contract once the stream is drained.
        """
        actions = list(actions)
        self.last_hosts = [None] * len(actions)
        for start, metrics_list, host in self.pool.evaluate_batch_stream(
            env_name, actions, env_kwargs=self.env_kwargs
        ):
            self.last_hosts[start:start + len(metrics_list)] = (
                [host] * len(metrics_list)
            )
            yield start, metrics_list, host

    def close(self) -> None:
        """Close the pool's transport resources: each host's clients
        (every thread's keep-alive sockets) and its scatter worker. The
        backend itself stays usable; connections reopen lazily on the
        next dispatch."""
        self.pool.close()

    def __repr__(self) -> str:
        return f"RemoteBackend(service={self.pool.urls!r})"


def RemoteEnv(  # noqa: N802 - constructor-style helper, returns the env
    env: ArchGymEnv,
    service: Union[str, Sequence[str]],
    env_kwargs: Optional[Dict[str, Any]] = None,
    **client_kwargs: Any,
) -> ArchGymEnv:
    """Attach a :class:`RemoteBackend` to ``env`` and return it.

    The environment is still constructed locally — agents need its
    action space, reward spec, and episode bookkeeping — but every
    ``evaluate`` now runs on the service::

        env = RemoteEnv(repro.make("DRAMGym-v0"), "http://127.0.0.1:8023")
        obs, reward, *_ = env.step(action)   # cost model ran remotely
        env.close()                          # releases the pool's sockets

    ``service`` may also be a list of URLs — the evaluations then
    spread over a round-robin :class:`~repro.sweeps.hostpool.HostPool`
    with automatic failover. ``env_kwargs`` must mirror the
    construction arguments so the server evaluates the same
    environment configuration. The env owns the backend built here:
    ``env.close()`` closes it, unless
    :meth:`~repro.core.env.ArchGymEnv.detach_backend` has handed it
    back to the caller first.
    """
    backend = RemoteBackend(service, env_kwargs=env_kwargs, **client_kwargs)
    env.attach_backend(backend)
    env._owned_backend = backend  # the one backend env.close() closes
    return env
