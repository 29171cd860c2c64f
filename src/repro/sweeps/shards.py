"""Durable sweep state: per-trial result shards + a sweep manifest.

The §6.1 lottery multiplies agents × tickets × samples, and the §7
pipeline wants every trajectory kept — quickly more state than one
process should hold in RAM, and far more than anyone wants to lose to
a crash at trial 900 of 1000. This module makes a sweep durable:

- Every finished :class:`~repro.sweeps.executor.TrialOutcome` is
  written to ``<out_dir>/trial-NNNNN.json`` via atomic write-rename,
  so a shard either exists complete or not at all.
- ``sweep.json`` (the manifest) pins a deterministic **fingerprint**
  of the sweep arguments (environment, agents, trial/sample counts,
  seed). Resuming into a directory whose fingerprint doesn't match
  the requested sweep is rejected — shards only merge with shards
  from the *same* experiment.
- :func:`scan_completed` lists the trial indices already on disk, so
  a re-run schedules only the remainder. Because every task's seeds
  were precomputed in serial order, the resumed trials are
  bit-identical to what the killed run would have produced.
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import partial
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Sequence, Set

from repro.agents.base import SearchResult
from repro.core.dataset import Transition
from repro.core.errors import ShardError
from repro.sweeps.executor import TrialOutcome, TrialTask, execute_trials

__all__ = [
    "MANIFEST_NAME",
    "sweep_fingerprint",
    "FINGERPRINT_EXEMPT",
    "write_manifest",
    "load_manifest",
    "prepare_sweep_dir",
    "scan_completed",
    "shard_path",
    "write_shard",
    "load_shard",
    "iter_shards",
    "load_outcomes",
    "execute_durable",
]

MANIFEST_NAME = "sweep.json"
MANIFEST_FORMAT = "archgym-sweep-manifest-v1"
SHARD_FORMAT = "archgym-trial-shard-v1"
_SHARD_GLOB = "trial-*.json"


def sweep_fingerprint(**fields: Any) -> str:
    """Deterministic identity of a sweep's result-defining arguments.

    Every keyword argument participates; pass exactly the fields that
    determine trial outcomes (env id, agents, counts, seed — *not*
    ``workers`` or cache toggles, which are wall-clock knobs). The
    ``proxy_*`` fields count only when ``proxy_screen`` is truthy: an
    unscreened sweep keeps the fingerprint it had before screening
    existed, so its older ``--out-dir`` stays resumable.
    """
    if not fields.get("proxy_screen"):
        fields = {k: v for k, v in fields.items() if not k.startswith("proxy_")}
    else:
        # Screened sweeps fingerprinted ``proxy_topk``, an exact top-k
        # count that was null unless set, until the option was deleted.
        # Its null entry keeps the fingerprint of every screened sweep
        # that left it unset, so their ``--out-dir``s stay resumable.
        fields = {"proxy_topk": None, **fields}
    payload = json.dumps(fields, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


#: Sweep knobs that deliberately do NOT participate in the durable-sweep
#: fingerprint, each with the reason. Every ``TrialTask`` field and every
#: sweep/collect CLI flag must either be passed to
#: :func:`sweep_fingerprint` or appear here — the ``fingerprint-coverage``
#: checker (``python -m repro.lint``) enforces the dichotomy, so adding a
#: knob forces an explicit decision about whether it changes results.
FINGERPRINT_EXEMPT = {
    # -- wall-clock / durability knobs: cannot change trial outcomes --
    "workers": "process-pool width; results are bit-identical for any N",
    "cache": "memoization skips re-simulating deterministic cost models",
    "no_cache": "CLI spelling of the cache toggle",
    "shared_cache": "cross-process cache tier; deterministic reuse only",
    "shared_cache_dir": "location of the shared cache tier",
    "backend": "remote execution endpoint; byte-parity enforced by CI",
    "service_url": "CLI spelling of the remote backend",
    "service_timeout": "client transport policy",
    "service_retries": "client transport policy",
    "server_cache": "server-side memo tier; deterministic reuse only",
    "auto_weights": "observed-rate host weighting; dispatch placement only",
    "pipeline": "streaming dispatch with stealing, same results",
    "out_dir": "names the shard directory itself",
    "resume": "re-runs only missing trials of the same fingerprint",
    # -- presentation-only flags --
    "boxplots": "report rendering",
    "export": "report rendering",
    "out": "collect-mode dataset path",
    # -- derived per-trial fields: already pinned by the fingerprint --
    "index": "trial position; implied by agents x n_trials",
    "agent": "one entry of the fingerprinted agents list",
    "hyperparams": "drawn deterministically from the sweep seed",
    "agent_seed": "drawn deterministically from the sweep seed",
    "run_seed": "drawn deterministically from the sweep seed",
    "env_factory": "identified by env_id + env_signature",
    "env": "CLI spelling of env_id",
    "workload": "folded into env_signature by the env factory",
    "objective": "folded into env_signature by the env factory",
}


# -- manifest ---------------------------------------------------------------------


def write_manifest(out_dir: str | Path, manifest: Dict[str, Any]) -> None:
    """Atomically write the sweep manifest (tmp file + rename)."""
    out_dir = Path(out_dir)
    path = out_dir / MANIFEST_NAME
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_text(json.dumps({"format": MANIFEST_FORMAT, **manifest}, indent=2))
    os.replace(tmp, path)


def load_manifest(out_dir: str | Path) -> Dict[str, Any]:
    path = Path(out_dir) / MANIFEST_NAME
    if not path.exists():
        raise ShardError(f"{path.parent} has no sweep manifest ({MANIFEST_NAME})")
    manifest = json.loads(path.read_text())
    if manifest.get("format") != MANIFEST_FORMAT:
        raise ShardError(
            f"{path} is not an ArchGym sweep manifest "
            f"(format {manifest.get('format')!r})"
        )
    return manifest


def prepare_sweep_dir(
    out_dir: str | Path, manifest: Dict[str, Any], resume: bool = False
) -> Set[int]:
    """Set up (or re-enter) a sweep directory; return completed indices.

    - Fresh directory: writes the manifest, returns the empty set.
    - Existing directory: the stored fingerprint must match
      ``manifest["fingerprint"]`` (same sweep arguments), and any
      existing shards require ``resume=True`` — a silent partial
      overwrite would corrupt the merge.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if (out_dir / MANIFEST_NAME).exists():
        existing = load_manifest(out_dir)
        if existing.get("fingerprint") != manifest["fingerprint"]:
            raise ShardError(
                f"{out_dir} holds a different sweep (fingerprint "
                f"{existing.get('fingerprint')!r}, this run is "
                f"{manifest['fingerprint']!r}) — same out_dir requires the "
                "same env (incl. workload/objective), agents, n_trials, "
                "n_samples, and seed, or a fresh directory"
            )
    elif scan_completed(out_dir):
        raise ShardError(
            f"{out_dir} contains trial shards but no manifest — refusing "
            "to adopt a foreign directory"
        )
    else:
        write_manifest(out_dir, manifest)
    completed = scan_completed(out_dir)
    if completed and not resume:
        raise ShardError(
            f"{out_dir} already holds {len(completed)} completed trial "
            "shard(s); pass resume=True (CLI: --resume) to finish the "
            "sweep, or point at a fresh directory"
        )
    return completed


# -- shards -----------------------------------------------------------------------


def shard_path(out_dir: str | Path, index: int) -> Path:
    return Path(out_dir) / f"trial-{index:05d}.json"


def scan_completed(out_dir: str | Path) -> Set[int]:
    """Trial indices with a completed shard on disk.

    Shards appear via atomic rename, so presence implies completeness;
    in-flight temp files use a different suffix and never match.
    """
    completed: Set[int] = set()
    for path in Path(out_dir).glob(_SHARD_GLOB):
        stem = path.stem  # "trial-00042"
        try:
            completed.add(int(stem.split("-", 1)[1]))
        except (IndexError, ValueError):
            continue
    return completed


def write_shard(out_dir: str | Path, outcome: TrialOutcome) -> Path:
    """Stream one finished trial to disk (atomic write-rename)."""
    path = shard_path(out_dir, outcome.index)
    record = {
        "format": SHARD_FORMAT,
        "index": outcome.index,
        "agent": outcome.agent,
        "env_id": outcome.env_id,
        "result": outcome.result.to_record(),
        "transitions": [t.to_record() for t in outcome.transitions],
    }
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_text(json.dumps(record, separators=(",", ":")))
    os.replace(tmp, path)
    return path


def load_shard(path: str | Path) -> TrialOutcome:
    record = json.loads(Path(path).read_text())
    if record.get("format") != SHARD_FORMAT:
        raise ShardError(
            f"{path} is not an ArchGym trial shard "
            f"(format {record.get('format')!r})"
        )
    return TrialOutcome(
        index=int(record["index"]),
        agent=str(record["agent"]),
        env_id=str(record["env_id"]),
        result=SearchResult.from_record(record["result"]),
        transitions=[Transition.from_record(t) for t in record["transitions"]],
    )


def iter_shards(out_dir: str | Path) -> Iterator[TrialOutcome]:
    """Yield completed outcomes in trial-index order, one at a time —
    the whole sweep never needs to be in memory at once."""
    for index in sorted(scan_completed(out_dir)):
        yield load_shard(shard_path(out_dir, index))


def load_outcomes(
    out_dir: str | Path, expected: Optional[int] = None
) -> Iterator[TrialOutcome]:
    """Like :func:`iter_shards`, but first verifies that exactly
    ``expected`` shards are present (the post-run completeness check)."""
    completed = scan_completed(out_dir)
    if expected is not None and len(completed) != expected:
        missing = sorted(set(range(expected)) - completed)
        raise ShardError(
            f"{out_dir} holds {len(completed)} of {expected} trial shards "
            f"(missing indices {missing[:10]}{'...' if len(missing) > 10 else ''}) "
            "— re-run with resume=True to finish the sweep"
        )
    return iter_shards(out_dir)


# -- durable execution ------------------------------------------------------------


def execute_durable(
    tasks: Sequence[TrialTask],
    out_dir: str | Path,
    manifest: Dict[str, Any],
    workers: int = 1,
    resume: bool = False,
) -> None:
    """Run a task batch against a shard directory.

    Prepares (or re-enters) ``out_dir`` under ``manifest``, skips trial
    indices whose shard is already on disk, and streams every freshly
    finished trial to a shard as it completes, keeping none in memory.
    Read the run back from disk, fresh and earlier shards alike, with
    :meth:`~repro.sweeps.runner.SweepReport.from_shards`.
    """
    completed = prepare_sweep_dir(out_dir, manifest, resume=resume)
    pending = [t for t in tasks if t.index not in completed]
    execute_trials(
        pending,
        workers=workers,
        on_outcome=partial(write_shard, out_dir),
        keep_outcomes=False,
    )
