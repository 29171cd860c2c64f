"""Tests for durable sweep execution: shards, resume, shared cache.

The acceptance contract: a sweep run with ``out_dir`` set, killed
after k of n trials, and re-run with ``resume=True`` produces a report
(results, stats, merged dataset) identical to an uninterrupted run of
the same arguments — and the shared cache changes counters, never
fitness.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ArchGymError, ShardError
from repro.sweeps import (
    SweepReport,
    TrialTask,
    execute_trials,
    iter_shards,
    load_manifest,
    load_shard,
    prepare_sweep_dir,
    run_lottery_sweep,
    scan_completed,
    sweep_fingerprint,
    write_shard,
)
from repro.sweeps.executor import run_trial
from repro.sweeps.shards import shard_path
from tests.test_sweeps import TinyEnv

SWEEP_KW = dict(
    agents=("rw", "ga"), n_trials=2, n_samples=25, seed=13, collect_dataset=True
)


class ExplodingFactory:
    """Builds real environments until the fuse runs out, then raises —
    an in-process stand-in for `kill -9` at trial k."""

    def __init__(self, budget):
        self.budget = budget  # number of env constructions allowed
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls > self.budget:
            raise RuntimeError("simulated crash")
        return TinyEnv()


def _report_records(report):
    """Every deterministic field of a report, JSON-normalized."""
    def strip_timing(record):
        record = dict(record)
        record.pop("wall_time_s", None)
        record.pop("sim_time_s", None)
        return record

    return {
        "env_id": report.env_id,
        "n_samples": report.n_samples,
        "results": {
            agent: [strip_timing(r.to_record()) for r in rs]
            for agent, rs in report.results.items()
        },
        "dataset": [t.to_record() for t in report.dataset]
        if report.dataset is not None
        else None,
    }


class TestFingerprint:
    def test_deterministic(self):
        a = sweep_fingerprint(env_id="X", agents=["rw"], seed=0)
        b = sweep_fingerprint(env_id="X", agents=["rw"], seed=0)
        assert a == b

    @pytest.mark.parametrize(
        "override",
        [{"env_id": "Y"}, {"agents": ["ga"]}, {"seed": 1}, {"n_samples": 9}],
    )
    def test_sensitive_to_every_field(self, override):
        base = dict(env_id="X", agents=["rw"], seed=0, n_samples=8)
        assert sweep_fingerprint(**base) != sweep_fingerprint(**{**base, **override})


class TestPinnedFingerprints:
    """The ``sweep.json`` fingerprints of four small durable runs, as
    literals: a run whose fingerprint changes can no longer resume any
    ``--out-dir`` written before the change."""

    SCREEN = dict(proxy_screen=True, proxy_min_corpus=8)

    @pytest.mark.parametrize(
        "screened, pinned",
        [(False, "2c9f5158fcd6387b"), (True, "07f8f71ef8e384e7")],
    )
    def test_lottery_sweep(self, tmp_path, screened, pinned):
        run_lottery_sweep(
            TinyEnv, out_dir=tmp_path / "s", agents=("rw",), n_trials=1,
            n_samples=6, seed=0, shared_cache=True,
            **(self.SCREEN if screened else {}),
        )
        assert load_manifest(tmp_path / "s")["fingerprint"] == pinned

    @pytest.mark.parametrize(
        "screened, pinned",
        [(False, "066229b2dfbd767e"), (True, "08a299d30fad7be8")],
    )
    def test_collect(self, tmp_path, screened, pinned):
        from repro.cli import main

        args = [
            "collect", "--env", "MaestroGym-v0", "--agents", "rw",
            "--samples", "4", "--seed", "0", "--shared-cache",
            "--out", str(tmp_path / "d.jsonl"), "--out-dir", str(tmp_path / "s"),
        ]
        if screened:
            args += ["--proxy-screen", "--proxy-min-corpus", "8"]
        assert main(args) == 0
        assert load_manifest(tmp_path / "s")["fingerprint"] == pinned


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


def _reversed_dicts(value):
    """``value`` with every nested dict's keys in reverse order."""
    if isinstance(value, dict):
        return {k: _reversed_dicts(value[k]) for k in reversed(list(value))}
    if isinstance(value, list):
        return [_reversed_dicts(v) for v in value]
    return value


@given(
    fields=st.dictionaries(st.text(min_size=1, max_size=8), json_values, max_size=6),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_prop_fingerprint_ignores_keyword_and_nested_dict_order(fields, data):
    shuffled = data.draw(st.permutations(list(fields.items())))
    reordered = {k: _reversed_dicts(v) for k, v in shuffled}
    assert sweep_fingerprint(**reordered) == sweep_fingerprint(**fields)


class TestShardIO:
    def _outcome(self, index=3):
        task = TrialTask(
            index=index, agent="rw", hyperparams={"locality": 0.2},
            agent_seed=7, run_seed=8, n_samples=12,
            env_factory=TinyEnv, collect=True,
        )
        return run_trial(task)

    def test_write_load_roundtrip(self, tmp_path):
        outcome = self._outcome()
        path = write_shard(tmp_path, outcome)
        assert path == shard_path(tmp_path, 3)
        loaded = load_shard(path)
        assert loaded.index == 3 and loaded.agent == "rw"
        assert loaded.env_id == "Tiny-v0"
        assert loaded.result.to_record() == outcome.result.to_record()
        assert [t.to_record() for t in loaded.transitions] == [
            t.to_record() for t in outcome.transitions
        ]

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        write_shard(tmp_path, self._outcome())
        assert [p.name for p in tmp_path.glob("*.tmp.*")] == []

    def test_foreign_json_rejected(self, tmp_path):
        path = tmp_path / "trial-00000.json"
        path.write_text(json.dumps({"format": "other"}))
        with pytest.raises(ShardError, match="not an ArchGym trial shard"):
            load_shard(path)

    def test_scan_completed(self, tmp_path):
        for i in (0, 2, 5):
            write_shard(tmp_path, self._outcome(index=i))
        (tmp_path / "notes.txt").write_text("ignored")
        assert scan_completed(tmp_path) == {0, 2, 5}

    def test_iter_shards_in_index_order(self, tmp_path):
        for i in (4, 1, 2):
            write_shard(tmp_path, self._outcome(index=i))
        assert [o.index for o in iter_shards(tmp_path)] == [1, 2, 4]


class TestPrepareSweepDir:
    MANIFEST = {
        "fingerprint": "abc123", "env_id": "Tiny-v0", "agents": ["rw"],
        "n_trials": 1, "n_samples": 5, "seed": 0, "collect": False,
        "n_tasks": 1,
    }

    def test_fresh_dir_writes_manifest(self, tmp_path):
        out = tmp_path / "sweep"
        assert prepare_sweep_dir(out, dict(self.MANIFEST)) == set()
        assert load_manifest(out)["fingerprint"] == "abc123"

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        prepare_sweep_dir(tmp_path, dict(self.MANIFEST))
        other = {**self.MANIFEST, "fingerprint": "different"}
        with pytest.raises(ShardError, match="different sweep"):
            prepare_sweep_dir(tmp_path, other, resume=True)

    def test_existing_shards_require_resume(self, tmp_path):
        prepare_sweep_dir(tmp_path, dict(self.MANIFEST))
        write_shard(tmp_path, TestShardIO()._outcome(index=0))
        with pytest.raises(ShardError, match="resume"):
            prepare_sweep_dir(tmp_path, dict(self.MANIFEST))
        assert prepare_sweep_dir(tmp_path, dict(self.MANIFEST), resume=True) == {0}

    def test_foreign_dir_without_manifest_rejected(self, tmp_path):
        write_shard(tmp_path, TestShardIO()._outcome(index=0))
        with pytest.raises(ShardError, match="foreign"):
            prepare_sweep_dir(tmp_path, dict(self.MANIFEST))


class TestDurableSweep:
    def test_sharded_run_matches_in_memory_run(self, tmp_path):
        in_memory = run_lottery_sweep(TinyEnv, **SWEEP_KW)
        sharded = run_lottery_sweep(TinyEnv, out_dir=tmp_path / "s", **SWEEP_KW)
        assert _report_records(sharded) == _report_records(in_memory)

    def test_sharded_run_worker_invariant(self, tmp_path):
        serial = run_lottery_sweep(TinyEnv, out_dir=tmp_path / "w1", **SWEEP_KW)
        parallel = run_lottery_sweep(
            TinyEnv, out_dir=tmp_path / "w3", workers=3, **SWEEP_KW
        )
        assert _report_records(parallel) == _report_records(serial)

    def test_kill_resume_roundtrip_identical(self, tmp_path):
        """Crash after 2 of 4 trials; resume must complete the sweep and
        match an uninterrupted run on every deterministic field."""
        clean = run_lottery_sweep(
            TinyEnv, out_dir=tmp_path / "clean", **SWEEP_KW
        )

        out = tmp_path / "killed"
        # Budget: 1 probe env + 2 trial envs, then the "crash".
        with pytest.raises(RuntimeError, match="simulated crash"):
            run_lottery_sweep(ExplodingFactory(budget=3), out_dir=out, **SWEEP_KW)
        assert scan_completed(out) == {0, 1}  # progress survived the crash

        resumed = run_lottery_sweep(TinyEnv, out_dir=out, resume=True, **SWEEP_KW)
        assert scan_completed(out) == {0, 1, 2, 3}
        assert _report_records(resumed) == _report_records(clean)

    def test_resume_of_complete_sweep_runs_nothing(self, tmp_path):
        out = tmp_path / "s"
        run_lottery_sweep(TinyEnv, out_dir=out, **SWEEP_KW)
        factory = ExplodingFactory(budget=1)  # allows only the probe env
        report = run_lottery_sweep(factory, out_dir=out, resume=True, **SWEEP_KW)
        assert factory.calls == 1  # no trial re-ran
        assert set(report.results) == {"rw", "ga"}

    def test_reusing_dir_with_different_args_rejected(self, tmp_path):
        out = tmp_path / "s"
        run_lottery_sweep(TinyEnv, out_dir=out, **SWEEP_KW)
        with pytest.raises(ShardError, match="different sweep"):
            run_lottery_sweep(
                TinyEnv, out_dir=out, resume=True,
                **{**SWEEP_KW, "seed": SWEEP_KW["seed"] + 1},
            )

    def test_env_signature_mismatch_rejected(self, tmp_path):
        """env_id alone can't distinguish two factories building the
        same class with different construction args (e.g. workloads) —
        the signature must keep their shards from resume-merging."""
        out = tmp_path / "s"
        run_lottery_sweep(
            TinyEnv, out_dir=out, env_signature="workload=stream", **SWEEP_KW
        )
        with pytest.raises(ShardError, match="different sweep"):
            run_lottery_sweep(
                TinyEnv, out_dir=out, resume=True,
                env_signature="workload=random", **SWEEP_KW,
            )

    def test_factory_fingerprint_signature_attribute_used(self, tmp_path):
        class SignedFactory:
            def __init__(self, signature):
                self.fingerprint_signature = signature

            def __call__(self):
                return TinyEnv()

        out = tmp_path / "s"
        run_lottery_sweep(SignedFactory("workload=a"), out_dir=out, **SWEEP_KW)
        with pytest.raises(ShardError, match="different sweep"):
            run_lottery_sweep(
                SignedFactory("workload=b"), out_dir=out, resume=True, **SWEEP_KW
            )
        # same signature resumes fine
        run_lottery_sweep(
            SignedFactory("workload=a"), out_dir=out, resume=True, **SWEEP_KW
        )

    def test_rerun_without_resume_rejected(self, tmp_path):
        out = tmp_path / "s"
        run_lottery_sweep(TinyEnv, out_dir=out, **SWEEP_KW)
        with pytest.raises(ShardError, match="resume"):
            run_lottery_sweep(TinyEnv, out_dir=out, **SWEEP_KW)

    def test_resume_without_out_dir_rejected(self):
        with pytest.raises(ArchGymError, match="out_dir"):
            run_lottery_sweep(TinyEnv, resume=True, **SWEEP_KW)

    def test_from_shards_partial_vs_complete(self, tmp_path):
        out = tmp_path / "s"
        with pytest.raises(RuntimeError):
            run_lottery_sweep(ExplodingFactory(budget=3), out_dir=out, **SWEEP_KW)
        with pytest.raises(ShardError, match="2 of 4"):
            SweepReport.from_shards(out)
        partial = SweepReport.from_shards(out, allow_partial=True)
        assert len(partial.results["rw"]) == 2
        assert partial.results["ga"] == []


class TestSharedCacheSweep:
    def test_shared_hits_nonzero_and_fitness_unchanged(self, tmp_path):
        kw = dict(agents=("rw",), n_trials=3, n_samples=30, seed=4)
        plain = run_lottery_sweep(TinyEnv, **kw)
        shared = run_lottery_sweep(
            TinyEnv, out_dir=tmp_path / "s", shared_cache=True, **kw
        )
        # 3 trials × 30 samples over a 16-point space: trials 2 and 3
        # must revisit designs trial 1 already paid for.
        assert shared.shared_cache_hits > 0
        assert shared.fitness_distribution("rw") == plain.fitness_distribution("rw")
        assert "shared cache" in shared.print_table()
        assert "shared cache" not in plain.print_table()

    def test_second_trial_sees_first_trials_designs(self, tmp_path):
        """Cross-process: two single-task pools — separate OS processes
        sharing only the store directory."""
        def task(i):
            return TrialTask(
                index=i, agent="rw", hyperparams={"locality": 0.0},
                agent_seed=50 + i, run_seed=60 + i, n_samples=40,
                env_factory=TinyEnv, cache=True,
                shared_cache_dir=str(tmp_path / "cache"),
            )

        first = execute_trials([task(0)], workers=2)[0]
        second = execute_trials([task(1)], workers=2)[0]
        assert first.result.shared_cache_hits == 0
        assert second.result.shared_cache_hits > 0
        # shared hits replace simulator runs, never local-hit accounting:
        assert (
            second.result.cache_hits
            + second.result.cache_misses
            + second.result.shared_cache_hits
            == 40
        )

    def test_shared_cache_requires_out_dir(self):
        with pytest.raises(ArchGymError, match="out_dir"):
            run_lottery_sweep(
                TinyEnv, agents=("rw",), n_trials=1, n_samples=5,
                shared_cache=True,
            )

    def test_resume_reuses_shared_cache(self, tmp_path):
        kw = dict(
            agents=("rw",), n_trials=3, n_samples=30, seed=4,
            collect_dataset=True,
        )
        clean = run_lottery_sweep(TinyEnv, out_dir=tmp_path / "clean", **kw)
        out = tmp_path / "killed"
        with pytest.raises(RuntimeError):
            run_lottery_sweep(
                ExplodingFactory(budget=2), out_dir=out, shared_cache=True, **kw
            )
        resumed = run_lottery_sweep(
            TinyEnv, out_dir=out, resume=True, shared_cache=True, **kw
        )
        # Fitness and dataset identical to the clean run without a
        # shared cache; only the counters differ.
        assert resumed.fitness_distribution("rw") == clean.fitness_distribution("rw")
        assert [t.to_record() for t in resumed.dataset] == [
            t.to_record() for t in clean.dataset
        ]
        assert resumed.shared_cache_hits > 0
