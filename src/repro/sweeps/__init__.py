"""Sweep harness, parallel executor, and lottery statistics (paper §6).

The package runs the paper's hyperparameter-lottery experiment at any
scale while guaranteeing one invariant: **results are byte-identical
no matter how the work is executed**. Serial in-process,
process-pooled (``workers=N``), resumed from durable shards, remote
over one service, scattered over a weighted multi-host pool, or
pipelined with work stealing — same reports, same datasets, same
cache counters. Execution shape is purely a wall-clock knob.

Layout:

- :mod:`repro.sweeps.runner` — :func:`run_lottery_sweep` /
  :class:`SweepReport`, the user-facing entry point.
- :mod:`repro.sweeps.executor` — :class:`TrialTask` scheduling over a
  process pool; per-worker backend resolution.
- :mod:`repro.sweeps.shards` — durable sweeps: atomic per-trial JSON
  shards, fingerprinted manifests, ``resume``.
- :mod:`repro.sweeps.hostpool` — :class:`HostPool`: round-robin
  dispatch, weighted scatter (:meth:`~HostPool.evaluate_batch_scatter`),
  streaming dispatch with work stealing
  (:meth:`~HostPool.evaluate_batch_stream`), quarantine/failover.
- :mod:`repro.sweeps.stats` / ``export`` / ``plots`` — lottery
  statistics, report serialization, and Fig. 4-style boxplots.

See ``docs/ARCHITECTURE.md`` for the full layer map.
"""

from repro.sweeps.executor import (
    BackendSpec,
    TrialOutcome,
    TrialTask,
    clear_backend_cache,
    execute_trials,
    parse_weighted_url,
    resolve_execution_backend,
)
from repro.sweeps.hostpool import HostPool, weighted_split
from repro.sweeps.export import (
    load_report_json,
    report_to_rows,
    save_report_csv,
    save_report_json,
)
from repro.sweeps.plots import render_boxplot, render_boxplots
from repro.sweeps.runner import (
    SweepReport,
    run_lottery_sweep,
    validate_agent_names,
    validate_sweep_args,
)
from repro.sweeps.shards import (
    execute_durable,
    iter_shards,
    load_manifest,
    load_shard,
    prepare_sweep_dir,
    scan_completed,
    sweep_fingerprint,
    write_shard,
)
from repro.sweeps.stats import (
    FiveNumberSummary,
    hit_rate,
    iqr,
    normalize_scores,
    spread_percent,
)

__all__ = [
    "BackendSpec",
    "HostPool",
    "TrialTask",
    "TrialOutcome",
    "clear_backend_cache",
    "execute_trials",
    "parse_weighted_url",
    "resolve_execution_backend",
    "weighted_split",
    "load_report_json",
    "report_to_rows",
    "save_report_csv",
    "save_report_json",
    "render_boxplot",
    "render_boxplots",
    "SweepReport",
    "run_lottery_sweep",
    "validate_agent_names",
    "validate_sweep_args",
    "execute_durable",
    "iter_shards",
    "load_manifest",
    "load_shard",
    "prepare_sweep_dir",
    "scan_completed",
    "sweep_fingerprint",
    "write_shard",
    "FiveNumberSummary",
    "hit_rate",
    "iqr",
    "normalize_scores",
    "spread_percent",
]
