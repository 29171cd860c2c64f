#!/usr/bin/env python
"""Fig. 7-style sample-efficiency check for proxy-screened search (CI).

Drives the real CLI end to end:

1. seeds a bootstrap corpus (200 random DRAMGym ground-truth points,
   the "cluster has already accumulated a dataset" starting state of
   the paper's proxy experiments) into each run's shared-cache tier;
2. runs an unscreened GA baseline (4 lottery trials x 300 samples)
   and the proxy-screened run of the same lottery at an 8x oversample
   (4 trials x 60 real evaluations);
3. gates on the paper's claim: the screened run must reach a best
   cost within ``MAX_GAP`` of the baseline's while paying at least
   ``MIN_EVAL_RATIO`` x fewer real simulator evaluations;
4. reconciles the proxy accounting exactly — per trial and against
   the durable shards: ``accepted <= screened``, the refresh slice is
   at least the configured honesty floor, and the export rows carry
   the same counters the shard files do.

Everything is seeded, so the observed numbers replay bit-identically;
the gates below have real margin (gap 0.000, ratio 5.47 at the pinned
seeds) rather than sitting on a knife edge.

Exit code 0 means every gate held. Usage: ``python tools/check_proxy.py``
(repo root; sets PYTHONPATH=src for itself and its children).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.core.cache_store import SharedCacheStore  # noqa: E402
from repro.core.env import canonical_action_key  # noqa: E402

#: Screened best fitness may trail the unscreened baseline by at most
#: this relative gap (the paper's "within a few percent" claim).
MAX_GAP = 0.02
#: The screened run must pay at least this many times fewer real
#: (cache-missing) simulator evaluations than the baseline.
MIN_EVAL_RATIO = 5.0
#: Honesty floor: with --proxy-refresh 0.25 every screened generation
#: ground-truths ceil(0.25*k) rejected points on top of its k accepted,
#: so refresh evals are always >= 20% of a trial's accepted count.
MIN_REFRESH_SHARE = 0.2
BOOTSTRAP_POINTS = 200
BOOTSTRAP_SEED = 3

COMMON = [
    "sweep", "--env", "DRAMGym-v0", "--agents", "ga", "--trials", "4",
    "--seed", "5", "--workers", "1", "--shared-cache",
]


def _env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _run(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=_env(), cwd=REPO_ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"repro {' '.join(args[:1])} exited {proc.returncode}")
    return proc.stdout


def _bootstrap_corpus(boot: Path) -> None:
    """Ground-truth a diverse random slice of the design space — the
    shared-cache corpus a cluster would already hold."""
    env = repro.make("DRAMGym-v0")
    store = SharedCacheStore(boot)
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    added = 0
    while added < BOOTSTRAP_POINTS:
        action = env.action_space.sample(rng)
        key = json.dumps(canonical_action_key(action), separators=(",", ":"))
        if store.get_encoded(key) is None:
            store.put_encoded(key, env.evaluate(action))
            added += 1


def _warmed(boot: Path, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True)
    shutil.copytree(boot, out_dir / "shared-cache")
    return out_dir


def _rows(export: Path) -> list:
    return json.loads(export.read_text())["rows"]


def _shard_results(out_dir: Path) -> list:
    return [
        json.loads(p.read_text())["result"]
        for p in sorted(out_dir.glob("trial-*.json"))
    ]


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="archgym-proxy-check-"))
    boot = work / "boot"
    _bootstrap_corpus(boot)

    base_out = _warmed(boot, work / "base")
    scr_out = _warmed(boot, work / "scr")
    _run(*COMMON, "--samples", "300",
         "--out-dir", str(base_out), "--export", str(work / "base.json"))
    stdout = _run(*COMMON, "--samples", "60", "--proxy-screen",
                  "--proxy-oversample", "8", "--proxy-refresh", "0.25",
                  "--proxy-min-corpus", "64",
                  "--out-dir", str(scr_out), "--export", str(work / "scr.json"))

    failures = []
    if "proxy screen:" not in stdout:
        failures.append("screened sweep table is missing its proxy footer")

    base_rows = _rows(work / "base.json")
    scr_rows = _rows(work / "scr.json")

    # -- the Fig. 7 claim ---------------------------------------------------------
    base_best = max(r["best_fitness"] for r in base_rows)
    scr_best = max(r["best_fitness"] for r in scr_rows)
    gap = (base_best - scr_best) / abs(base_best)
    base_evals = sum(r["cache_misses"] for r in base_rows)
    scr_evals = sum(r["cache_misses"] for r in scr_rows)
    ratio = base_evals / max(1, scr_evals)
    print(f"best fitness: baseline {base_best:.4f}, screened {scr_best:.4f} "
          f"(gap {100 * gap:.2f}%)")
    print(f"real evaluations: baseline {base_evals}, screened {scr_evals} "
          f"({ratio:.2f}x fewer)")
    if gap > MAX_GAP:
        failures.append(
            f"screened best fitness trails the baseline by {100 * gap:.2f}% "
            f"(> {100 * MAX_GAP:.0f}% allowed)"
        )
    if ratio < MIN_EVAL_RATIO:
        failures.append(
            f"screened run saved only {ratio:.2f}x real evaluations "
            f"(>= {MIN_EVAL_RATIO:.0f}x required)"
        )

    # -- exact proxy accounting ---------------------------------------------------
    for row in scr_rows:
        tag = f"trial {row['trial']}"
        screened = row["proxy_screened"]
        accepted = row["proxy_accepted"]
        refresh = row["proxy_refresh_evals"]
        if screened <= 0:
            failures.append(f"{tag}: proxy gate never opened (screened=0)")
            continue
        if not 0 < accepted <= screened:
            failures.append(
                f"{tag}: accepted ({accepted}) outside (0, screened={screened}]"
            )
        if not 0 <= refresh <= accepted:
            failures.append(
                f"{tag}: refresh evals ({refresh}) outside [0, accepted={accepted}]"
            )
        if refresh < math.floor(MIN_REFRESH_SHARE * accepted):
            failures.append(
                f"{tag}: refresh evals {refresh} below the honesty floor "
                f"({MIN_REFRESH_SHARE:.0%} of {accepted} accepted)"
            )
        if not 0.0 < row["proxy_last_rmse"] <= 0.35:
            failures.append(
                f"{tag}: validation RMSE {row['proxy_last_rmse']} outside "
                "(0, 0.35] — the gate should not have served"
            )
    for row in base_rows:
        if row["proxy_screened"] or row["proxy_accepted"]:
            failures.append("unscreened baseline reported proxy activity")

    # -- shards carry the same counters the export does ---------------------------
    shard_counts = sorted(
        (r["proxy_screened"], r["proxy_accepted"], r["proxy_refresh_evals"])
        for r in _shard_results(scr_out)
    )
    export_counts = sorted(
        (r["proxy_screened"], r["proxy_accepted"], r["proxy_refresh_evals"])
        for r in scr_rows
    )
    if shard_counts != export_counts:
        failures.append(
            f"shard proxy counters {shard_counts} != export {export_counts}"
        )

    shutil.rmtree(work, ignore_errors=True)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("proxy screening check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
