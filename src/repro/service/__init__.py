"""Remote evaluation service: host environments behind HTTP so any
agent — unmodified — evaluates design points over the network.

Server side: :class:`EvaluationService` (stdlib ``ThreadingHTTPServer``)
serves ``POST /evaluate``, ``POST /evaluate_batch`` (many design
points per round trip), ``GET /healthz``, ``GET /cache`` (size and
paged listing), and ``POST /cache`` (look up keys) and ``PUT /cache``
(write entries), which a step sends once per generation — a single
``env.step`` with one key.
Client side: :class:`ServiceClient` (persistent keep-alive
connections, retry/timeout policy), :class:`RemoteBackend` (adapts a
client — or a :class:`repro.sweeps.HostPool` — to ``ArchGymEnv``'s
``evaluate`` / ``evaluate_batch`` / ``evaluate_batch_stream`` backend
hooks), and :func:`RemoteEnv` (attach-and-return convenience). The
wire format is canonicalized in :mod:`repro.service.wire`; metrics
survive the JSON round trip bit-exactly, which is what lets every
remote mode stay byte-identical to an in-process run (see
``docs/ARCHITECTURE.md``).
"""

from repro.service.client import ServiceClient
from repro.service.remote import RemoteBackend, RemoteEnv
from repro.service.server import EvaluationService
from repro.service.wire import WIRE_FORMAT

__all__ = [
    "EvaluationService",
    "ServiceClient",
    "RemoteBackend",
    "RemoteEnv",
    "WIRE_FORMAT",
]
