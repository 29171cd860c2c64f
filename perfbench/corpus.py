"""The warm shared-cache corpus the ``dram-proxy`` workload starts from.

A proxy-screened sweep trains its surrogate from whatever the shared
cache already holds. The benchmark measures the corpus-scale regime —
harvest listing and refits over ~10k points — so it needs a corpus of
ground-truth DRAMGym points that is the same for every run.

The corpus is built once per checkout, outside every timed window, from
a fixed seed (never the run's ``--seed``), and is then copied fresh
into each sweep's out-dir so no sweep sees another's points. A build
happens in a temporary directory that is renamed into place only when
complete, so a killed build is redone rather than half-used.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

#: Distinct ground-truth points in the corpus.
CORPUS_POINTS = 10_000
#: Seeds the random design points; fixed so every run sees one corpus.
CORPUS_SEED = 20230617
CORPUS_ENV = "DRAMGym-v0"
#: Build processes (the benchmark box has two cores).
_WORKERS = 2

_MARKER = "corpus.json"


def corpus_dir(work: Path) -> Path:
    return work / "corpus"


def corpus_ready(work: Path) -> bool:
    return (corpus_dir(work) / _MARKER).exists()


def _evaluate(actions: list) -> list:
    """Ground-truth metrics for a chunk of design points (runs in a
    worker process)."""
    import repro

    env = repro.make(CORPUS_ENV)
    return [env.evaluate(action) for action in actions]


def ensure_corpus(work: Path, log) -> Path:
    """The built corpus directory, building it first if missing.

    The points are drawn in the parent and evaluated in spawned worker
    processes; results are stored in draw order, so the corpus files do
    not depend on how the work was split.
    """
    target = corpus_dir(work)
    if corpus_ready(work):
        return target
    import multiprocessing

    import numpy as np

    import repro
    from repro.core.cache_store import SharedCacheStore, encode_key
    from repro.core.env import canonical_action_key

    start = time.perf_counter()
    space = repro.make(CORPUS_ENV).action_space
    rng = np.random.default_rng(CORPUS_SEED)
    points = {}
    while len(points) < CORPUS_POINTS:
        action = space.sample(rng)
        points.setdefault(encode_key(canonical_action_key(action)), action)
    keys = list(points)
    chunks = [keys[i:i + 500] for i in range(0, len(keys), 500)]
    tmp = work / "corpus.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    store = SharedCacheStore(tmp / "shared-cache")
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(_WORKERS) as pool:
        results = pool.imap(_evaluate, [[points[k] for k in c] for c in chunks])
        done = 0
        for chunk, metrics in zip(chunks, results):
            for key, m in zip(chunk, metrics):
                store.put_encoded(key, m)
            done += len(chunk)
            if done % 2000 == 0:
                log(f"corpus: {done}/{CORPUS_POINTS} points "
                    f"({time.perf_counter() - start:.0f}s)")
    (tmp / _MARKER).write_text(json.dumps({
        "env": CORPUS_ENV, "points": CORPUS_POINTS, "seed": CORPUS_SEED,
    }))
    shutil.rmtree(target, ignore_errors=True)
    tmp.rename(target)
    log(f"corpus: built in {time.perf_counter() - start:.0f}s")
    return target


def copy_corpus(work: Path, out_dir: Path) -> None:
    """Seed a fresh sweep out-dir with the corpus as its shared cache."""
    out_dir.mkdir(parents=True)
    shutil.copytree(corpus_dir(work) / "shared-cache", out_dir / "shared-cache")


if __name__ == "__main__":
    # ``python3 perfbench/corpus.py WORK_DIR`` from the repository root.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    ensure_corpus(
        Path(sys.argv[1]),
        lambda msg: print(f"[perfbench] {msg}", file=sys.stderr, flush=True),
    )
