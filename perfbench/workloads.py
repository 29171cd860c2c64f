"""The four benchmark workloads: closed-loop lottery sweeps.

Every workload is a fixed *lottery* of sweep rounds. A round is one
``run_lottery_sweep`` call — the library entry point behind
``repro sweep`` — with ``workers=1``, so one driver process runs one
trial at a time and starts the next only when the last has finished.
Round ``r`` of a workload always uses sweep seed ``seed_base + r``, and
the digest of each of its trials is pinned in ``digests.json``. The
run's ``--seed`` decides the order the rounds run in, and which ones
when a run makes fewer rounds than its lottery holds (``dram-proxy``,
whose rounds cost about the same). Every run thus does the same work,
so its figures are comparable across seeds, and every trial is
checked exactly.

Why each workload exists, and which layers it should and should not
move, is recorded in ``README.md`` beside this file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"


@dataclass(frozen=True)
class Workload:
    name: str
    env_id: str
    agents: Tuple[str, ...]
    n_samples: int
    #: Rounds a run makes at the default ``--seconds``.
    rounds: int
    seed_base: int
    #: Rounds in the lottery (default: ``rounds``). A run makes its
    #: rounds in a seeded order over the whole lottery.
    lottery: int = 0
    generation_dispatch: bool = False
    collect_dataset: bool = False
    #: ``repro serve`` hosts to spawn (0 = in-process evaluation).
    hosts: int = 0
    #: Proxy-screened over a fresh copy of the warm corpus per round.
    proxy: bool = False

    @property
    def trials_per_round(self) -> int:
        return len(self.agents)  # one lottery ticket per agent

    @property
    def lottery_rounds(self) -> int:
        return self.lottery or self.rounds


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="dram-serial", env_id="DRAMGym-v0",
            agents=("rw", "ga", "aco", "rl"), n_samples=150,
            rounds=3, seed_base=1000,
        ),
        Workload(
            name="farsi-batched", env_id="FARSIGym-v0",
            agents=("rw", "ga", "aco", "rl"), n_samples=150,
            rounds=56, seed_base=2000, generation_dispatch=True,
            collect_dataset=True,
        ),
        Workload(
            name="timeloop-pool", env_id="TimeloopGym-v0",
            agents=("ga", "aco"), n_samples=150,
            rounds=22, seed_base=3000, generation_dispatch=True, hosts=2,
        ),
        Workload(
            name="dram-proxy", env_id="DRAMGym-v0",
            agents=("ga", "aco"), n_samples=60,
            rounds=1, seed_base=4000, lottery=4, proxy=True,
        ),
    )
}

#: ``tools/check_proxy.py``'s screening setting.
PROXY_KNOBS = dict(
    proxy_oversample=8, proxy_refresh=0.25, proxy_min_corpus=64,
)


def round_order(workload: Workload, seed: int, n_rounds: int) -> List[int]:
    """Sweep seeds of the rounds a run makes, in the order ``seed`` picks.

    The order is a seeded permutation of the lottery, repeated if a
    run asks for more rounds than the lottery holds.
    """
    import numpy as np

    size = workload.lottery_rounds
    perm = np.random.default_rng(seed).permutation(size)
    return [workload.seed_base + int(perm[i % size]) for i in range(n_rounds)]


def sweep_kwargs(
    workload: Workload,
    urls: Optional[List[str]],
    out_dir: Optional[Path],
    reference: bool = False,
) -> Dict[str, Any]:
    """``run_lottery_sweep`` arguments for one round.

    ``reference=True`` is the configuration the pinned digests come
    from: in-process and serial (``env.step``), with no shared tier
    unless the proxy needs one. Every dispatch knob the real run turns
    on is byte-identical to it by the repository's parity guarantee.
    """
    kwargs: Dict[str, Any] = dict(
        agents=workload.agents, n_trials=1,
        n_samples=workload.n_samples, workers=1,
        collect_dataset=workload.collect_dataset,
        generation_dispatch=workload.generation_dispatch and not reference,
    )
    if workload.hosts and not reference:
        kwargs.update(service_url=list(urls), shared_cache=True)
    if workload.proxy:
        kwargs.update(
            out_dir=str(out_dir), shared_cache=True, proxy_screen=True,
            **PROXY_KNOBS,
        )
    return kwargs


def trial_records(report, workload: Workload) -> List[Dict[str, Any]]:
    """Per-trial records in task order, normalized for comparison.

    As in ``tools/_check_common.normalized_rows``, timing and the remote
    counters are zeroed. When the shared tier outlives the round (the
    pool's server caches), whether a point was a shared hit or a miss
    depends on what earlier rounds stored, so the two counts are folded
    into one; local LRU hits stay exact.
    """
    by_source: Dict[str, list] = {}
    if report.dataset is not None:
        for t in report.dataset:
            by_source.setdefault(t.source, []).append(t.to_record())
    out = []
    index = 0
    for agent in workload.agents:
        for result in report.results[agent]:
            rec = result.to_record()
            rec["wall_time_s"] = 0.0
            rec["sim_time_s"] = 0.0
            rec["remote_evals"] = 0
            rec["remote_hosts"] = {}
            if workload.hosts:
                rec["cache_misses"] += rec["shared_cache_hits"]
                rec["shared_cache_hits"] = 0
            if report.dataset is not None:
                rec["transitions"] = by_source.get(f"{agent}/{index}", [])
            out.append(rec)
            index += 1
    return out


def digest(record: Dict[str, Any]) -> str:
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def check_round(report, workload: Workload, pinned: List[str]) -> Dict[int, str]:
    """Failed trials of one round, by task index, with the reason.

    A trial fails if it is missing, if its normalized record does not
    match its pinned digest, or if its provenance is wrong: a pool run
    must have sent every miss to a host and attributed each to one, an
    in-process run must have sent none.
    """
    bad: Dict[int, str] = {}
    records = trial_records(report, workload)
    for index in range(workload.trials_per_round):
        if index >= len(records):
            bad[index] = "missing from the report"
        elif index >= len(pinned) or digest(records[index]) != pinned[index]:
            bad[index] = "digest mismatch"
    index = 0
    for agent in workload.agents:
        for result in report.results[agent]:
            remote = result.remote_evals
            if workload.hosts:
                if remote != result.cache_misses:
                    bad.setdefault(index, f"{remote} remote evaluations for "
                                          f"{result.cache_misses} misses")
                elif sum(result.remote_hosts.values()) != remote:
                    bad.setdefault(index, f"remote_hosts {result.remote_hosts} "
                                          f"does not account for {remote}")
            elif remote:
                bad.setdefault(index, "in-process trial went remote")
            index += 1
    return bad


def load_digests() -> Dict[str, Dict[str, List[str]]]:
    return json.loads(DIGESTS.read_text())
