"""Wire-format canonicalization for the evaluation service.

Both sides of the wire — :mod:`repro.service.server` and
:mod:`repro.service.client` — serialize through this module so the
formats cannot drift apart. The invariants that make a remote sweep
bit-identical to an in-process one all live here:

- **Actions** are JSON objects. Numpy scalars are unwrapped to native
  Python values and arrays/tuples become lists — exactly the
  normalization :func:`repro.core.env.canonical_action_key` applies to
  cache keys, so a design point has one identity on both sides.
- **Metrics** are ``{name: float}`` objects. Python floats survive a
  JSON round-trip exactly (``json`` emits ``repr``-faithful doubles),
  so the metrics an agent observes through the service are the same
  bits an in-process ``evaluate()`` would have produced.
- **Cache keys** are :func:`repro.core.cache_store.encode_key`
  strings carried as plain JSON strings in request and response
  bodies, never in a URL path, so arbitrary key content (quotes,
  brackets, unicode) never fights URL quoting rules. Every body that
  holds cache entries — listing page, bulk lookup answer, bulk
  write — spells them ``[[key, metrics], ...]``.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Mapping, Tuple
from urllib.parse import parse_qsl

import numpy as np

from repro.core.errors import ServiceError

__all__ = [
    "WIRE_FORMAT",
    "DEFAULT_CACHE_PAGE",
    "MAX_CACHE_PAGE",
    "jsonify",
    "canonical_dumps",
    "dump_body",
    "load_body",
    "clean_metrics",
    "parse_batch_request",
    "parse_cache_query",
    "parse_cache_lookup",
    "parse_cache_write",
    "parse_metrics_response",
    "parse_batch_response",
    "parse_cache_entries",
    "parse_cache_listing",
]

#: Protocol identifier served by ``GET /healthz``; clients may check it.
#: v2: the per-key ``GET/PUT /cache/<token>`` routes of v1 are gone (a
#: single cache key rides the bulk ``POST/PUT /cache`` bodies).
#: v3: ``POST /evaluate`` and the batch memo are gone: every action of a
#: ``POST /evaluate_batch`` is simulated and the answer is ``{"metrics":
#: [...]}`` alone (a v2 client's batch-memo flag is ignored).
WIRE_FORMAT = "archgym-service-v3"

#: Page size ``GET /cache?offset=N`` uses when no ``limit`` is given.
DEFAULT_CACHE_PAGE = 500
#: Hard ceiling on one listing page, and on the keys or entries of one
#: bulk ``/cache`` request — a body must stay a bounded allocation
#: however greedy its sender is (the client pages larger inputs).
MAX_CACHE_PAGE = 5000


def jsonify(value: Any) -> Any:
    """Recursively convert a value to JSON-native types.

    Numpy scalars unwrap to Python ints/floats/bools and arrays,
    tuples, and lists all become lists — the same normalization the
    evaluation-cache key applies, so one design point serializes one
    way everywhere.
    """
    if isinstance(value, np.ndarray):
        return [jsonify(v) for v in value.tolist()]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, Mapping):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    return value


def canonical_dumps(obj: Any) -> str:
    """Canonical JSON text: jsonified values, sorted keys, no spaces.

    For *identities* (e.g. the server's per-``(env, kwargs)`` instance
    keying) where two spellings of the same mapping must collide.
    """
    return json.dumps(jsonify(obj), sort_keys=True, separators=(",", ":"))


def dump_body(obj: Any) -> bytes:
    """Encode one HTTP request/response body.

    Insertion order is preserved (no key sorting): a metrics dict must
    come back in the cost model's own order, so artifacts serialized
    from a remote run — dataset JSONL lines, shard files — stay
    *byte*-identical to in-process ones, not merely value-identical.
    """
    return json.dumps(jsonify(obj), separators=(",", ":")).encode("utf-8")


def load_body(raw: bytes) -> Any:
    """Decode one HTTP body; raises :class:`ServiceError` on torn or
    non-JSON bytes so transport corruption never parses as a metric."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        snippet = raw[:80].decode("utf-8", errors="replace")
        raise ServiceError(f"malformed service body {snippet!r}: {exc}") from exc


def clean_metrics(metrics: Mapping[str, Any]) -> Dict[str, float]:
    """Coerce a cost-model result to the wire metric schema.

    Non-finite values are rejected: ``json.dumps`` would emit them as
    the non-standard ``NaN``/``Infinity`` tokens, which strict parsers
    refuse — a body that cannot round-trip is a schema violation here,
    not a transport surprise on the other side. ``json.loads`` accepts
    those tokens, so every parser of a response body that carries
    metrics checks them here too.
    """
    try:
        clean = {str(k): float(v) for k, v in metrics.items()}
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ServiceError(
            f"metrics are not a name->float mapping: {metrics!r}"
        ) from exc
    for name, value in clean.items():
        if not math.isfinite(value):
            raise ServiceError(
                f"metric {name!r} is non-finite ({value!r}); the wire "
                "format carries finite floats only"
            )
    return clean


def parse_batch_request(request: Any) -> Tuple[str, List[Mapping], Dict[str, Any]]:
    """Validate one ``POST /evaluate_batch`` body.

    Returns ``(env, actions, kwargs)`` or raises
    :class:`ServiceError` naming the schema violation — the shape both
    sides agree on lives here so client and server cannot drift.
    """
    if not isinstance(request, dict) or "env" not in request:
        raise ServiceError(
            f"evaluate_batch body must name an 'env': {request!r}"
        )
    actions = request.get("actions")
    if not isinstance(actions, list) or not actions:
        raise ServiceError(
            "evaluate_batch body needs a non-empty 'actions' list: "
            f"{request!r}"
        )
    for i, action in enumerate(actions):
        if not isinstance(action, Mapping):
            raise ServiceError(
                f"evaluate_batch action {i} is not an object: {action!r}"
            )
    kwargs = request.get("kwargs")
    if kwargs is not None and not isinstance(kwargs, Mapping):
        raise ServiceError(
            f"evaluate_batch 'kwargs' must be an object: {kwargs!r}"
        )
    return str(request["env"]), actions, dict(kwargs or {})


def parse_cache_query(query: str) -> Tuple[int, int]:
    """Validate a ``GET /cache?offset=N&limit=M`` query string.

    Returns ``(offset, limit)`` with the defaults filled in and the
    limit clamped to :data:`MAX_CACHE_PAGE`; raises
    :class:`ServiceError` on unknown parameters or non-integer values
    — both sides of the listing pagination agree on this shape, like
    every other schema in this module.
    """
    offset, limit = 0, DEFAULT_CACHE_PAGE
    for name, value in parse_qsl(query, keep_blank_values=True):
        if name not in ("offset", "limit"):
            raise ServiceError(
                f"cache listing got unknown query parameter {name!r} "
                "(expected 'offset' and/or 'limit')"
            )
        try:
            number = int(value)
        except ValueError as exc:
            raise ServiceError(
                f"cache listing parameter {name}={value!r} is not an "
                "integer"
            ) from exc
        if name == "offset":
            offset = number
        else:
            limit = number
    if offset < 0:
        raise ServiceError(f"cache listing offset must be >= 0, got {offset}")
    if limit < 1:
        raise ServiceError(f"cache listing limit must be >= 1, got {limit}")
    return offset, min(limit, MAX_CACHE_PAGE)


def _check_page(n_items: int, what: str) -> None:
    if n_items > MAX_CACHE_PAGE:
        raise ServiceError(
            f"{what} carries {n_items} items; at most {MAX_CACHE_PAGE} "
            "fit one body"
        )


def _cache_pairs(raw_entries: Any, what: str) -> List[Tuple[str, Mapping]]:
    """Shape-check a ``[[key, metrics], ...]`` list of at most
    :data:`MAX_CACHE_PAGE` entries (``what`` names the body)."""
    if not isinstance(raw_entries, list):
        raise ServiceError(f"{what} has no 'entries' list")
    _check_page(len(raw_entries), what)
    pairs = []
    for i, item in enumerate(raw_entries):
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not isinstance(item[0], str)
            or not isinstance(item[1], Mapping)
        ):
            raise ServiceError(
                f"{what} entry {i} is not a [key, metrics] pair: {item!r}"
            )
        pairs.append((item[0], item[1]))
    return pairs


def parse_cache_lookup(request: Any) -> List[str]:
    """Validate one bulk ``POST /cache`` body, ``{"keys": [key, ...]}``
    with at most :data:`MAX_CACHE_PAGE` encoded keys."""
    keys = request.get("keys") if isinstance(request, dict) else None
    if not isinstance(keys, list) or not all(isinstance(k, str) for k in keys):
        raise ServiceError("cache lookup body needs a 'keys' list of strings")
    _check_page(len(keys), "cache lookup body")
    return keys


def parse_cache_write(request: Any) -> List[Tuple[str, Mapping]]:
    """Validate one bulk ``PUT /cache`` body,
    ``{"entries": [[key, metrics], ...]}`` with at most
    :data:`MAX_CACHE_PAGE` entries."""
    entries = request.get("entries") if isinstance(request, dict) else None
    return _cache_pairs(entries, "cache write body")


def parse_metrics_response(parsed: Dict[str, Any], what: str) -> Dict[str, float]:
    """Validate one ``{"metrics": {...}}`` response body (``what``
    names the call for the error)."""
    metrics = parsed.get("metrics")
    if not isinstance(metrics, dict):
        raise ServiceError(f"{what} has no metrics object: {parsed!r}")
    return clean_metrics(metrics)


def parse_batch_response(
    parsed: Dict[str, Any], env: str, n_actions: int
) -> list:
    """Validate one ``/evaluate_batch`` response body: a ``metrics``
    list carrying one object per requested action, in request order."""
    metrics_list = parsed.get("metrics")
    if not isinstance(metrics_list, list) or len(metrics_list) != n_actions:
        raise ServiceError(
            f"evaluate_batch response for env {env!r} must carry "
            f"{n_actions} metric objects: {parsed!r}"
        )
    out = []
    for i, metrics in enumerate(metrics_list):
        if not isinstance(metrics, dict):
            raise ServiceError(
                f"evaluate_batch entry {i} is not a metrics object: {metrics!r}"
            )
        out.append(clean_metrics(metrics))
    return out


def parse_cache_entries(parsed: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Validate one bulk ``POST /cache`` answer: ``{key_str: metrics}``
    for the keys the server holds."""
    return {
        key_str: clean_metrics(metrics)
        for key_str, metrics in _cache_pairs(
            parsed.get("entries"), "cache lookup response"
        )
    }


def parse_cache_listing(parsed: Dict[str, Any]) -> Tuple[list, int]:
    """Validate one ``GET /cache?offset=...`` listing page: returns
    ``(entries, total)`` with entries as ``(key_str, metrics)`` pairs."""
    entries = [
        (key_str, clean_metrics(metrics))
        for key_str, metrics in _cache_pairs(
            parsed.get("entries"), "cache listing response"
        )
    ]
    return entries, int(parsed.get("size", 0))

