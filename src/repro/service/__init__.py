"""Remote evaluation service: host environments behind HTTP so any
agent — unmodified — evaluates design points over the network.

Server side: :class:`EvaluationService` (stdlib ``ThreadingHTTPServer``)
serves ``POST /evaluate_batch`` (the one evaluation request: one or
many design points per round trip, every one simulated),
``GET /healthz``, ``GET /cache`` (size and paged listing), and
``POST /cache`` (look up keys) and ``PUT /cache`` (write entries),
which a step sends once per generation — a single ``env.step`` with
one key.
Client side: :class:`ServiceClient` (persistent keep-alive
connections, retry/timeout policy, one host), :class:`RemoteBackend`
(drives a :class:`repro.sweeps.HostPool` over one or more URLs — one
URL is a one-host pool — behind ``ArchGymEnv``'s ``evaluate_batch`` /
``evaluate_batch_stream`` backend hooks), and :func:`RemoteEnv`
(attach-and-return convenience; the env owns and closes the backend
it attaches). The
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
