"""Tests for the generation-native search protocol.

Four batteries:

1. **Agent batch protocol** — the default ``propose_batch`` /
   ``observe_batch`` singleton wrappers, the GA/ACO generation
   overrides, and RNG-stream parity between the serial and batched
   interfaces.
2. **``ArchGymEnv.step_batch``** — byte-parity with the serial
   ``reference_step`` loop (``tests/serial_reference.py``) across
   every cache configuration (local LRU, shared tier, disabled),
   including in-batch duplicates, episode resets, and counter
   accounting; a Hypothesis property holds ``step_batch``,
   ``step_batch_stream`` and ``step`` to it over random proposal
   sequences, LRU sizes, shared-tier states, episode lengths and chunk
   arrival orders (shared-tier bytes and bulk-call counts included),
   and the decision pass reads O(batch) of a full LRU.
3. **Driver parity** — ``run_agent`` (the generation protocol) is
   byte-identical to the point-at-a-time reference driver
   (``tests/serial_reference.py``) for every built-in agent.
4. **Weighted dispatch plumbing** — ``URL=WEIGHT`` parsing,
   ``weighted_split`` apportioning, the pool's weight-sized scatter,
   and ``ServerCacheStore`` failover to the next pool host.
"""

import itertools
import math
import tempfile
from collections import Counter, OrderedDict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.agents import make_agent, run_agent
from repro.agents.aco import ACOAgent
from repro.agents.base import Agent
from repro.agents.ga import GAAgent
from repro.core.cache_store import ServerCacheStore, SharedCacheStore
from repro.core.dataset import ArchGymDataset
from repro.core.env import canonical_action_key
from repro.core.errors import (
    AgentError,
    EnvironmentError_,
    ExecutorError,
    InvalidActionError,
    ServiceError,
    ServiceTransportError,
)
from repro.core.spaces import Categorical, CompositeSpace, Discrete
from repro.service import EvaluationService
from repro.sweeps import (
    BackendSpec,
    HostPool,
    parse_weighted_url,
    resolve_execution_backend,
    weighted_split,
)

from serial_reference import reference_step, run_agent_serial
from test_pipeline import _ScriptedStreamBackend
from test_service import SvcCountingEnv, _free_port


def _space():
    return CompositeSpace(
        [Discrete("x", 0, 7, 1), Categorical("m", ("a", "b"))]
    )


# -- 1. the agent batch protocol ---------------------------------------------------


class _ScriptedAgent(Agent):
    """Records the serial propose/observe traffic it receives."""

    name = "scripted"

    def __init__(self, space, seed=0):
        super().__init__(space, seed)
        self.proposed = 0
        self.observed = []

    def propose(self):
        self.proposed += 1
        return self.space.sample(self.rng)

    def observe(self, action, fitness, metrics):
        self.observed.append((dict(action), fitness, dict(metrics)))


class TestAgentBatchProtocol:
    def test_default_propose_batch_is_a_singleton(self):
        agent = _ScriptedAgent(_space())
        batch = agent.propose_batch()
        assert len(batch) == 1
        assert agent.proposed == 1

    def test_default_observe_batch_loops_observe_in_order(self):
        agent = _ScriptedAgent(_space())
        actions = [{"x": i, "m": "a"} for i in range(3)]
        metrics = [{"cost": float(i)} for i in range(3)]
        agent.observe_batch(actions, [0.0, 1.0, 2.0], metrics)
        assert agent.observed == [
            (actions[i], float(i), metrics[i]) for i in range(3)
        ]

    def test_default_observe_batch_rejects_misaligned_args(self):
        agent = _ScriptedAgent(_space())
        with pytest.raises(AgentError, match="observe_batch"):
            agent.observe_batch([{"x": 1, "m": "a"}], [0.0, 1.0], [{}])

    def test_ga_proposes_the_whole_generation(self):
        agent = GAAgent(_space(), seed=1, population_size=6)
        batch = agent.propose_batch()
        assert len(batch) == 6
        agent.observe_batch(batch, list(range(6)), [{}] * 6)
        assert len(agent.propose_batch()) == 6  # evolved: a fresh one
        assert agent.generation == 1

    def test_ga_batch_matches_serial_rng_stream(self):
        """Interleaved propose/observe and batched propose/observe must
        breed identical generations — including across a truncated
        (budget-cut) generation boundary."""
        serial = GAAgent(_space(), seed=7, population_size=5)
        batched = GAAgent(_space(), seed=7, population_size=5)
        fitness = iter(np.linspace(-1, 1, 23))
        serial_actions = []
        for f in np.linspace(-1, 1, 23):
            action = serial.propose()
            serial_actions.append(action)
            serial.observe(action, float(f), {})
        batched_actions = []
        remaining = 23
        while remaining:
            batch = batched.propose_batch()[:remaining]
            batched_actions.extend(batch)
            batched.observe_batch(
                batch, [float(next(fitness)) for _ in batch], [{}] * len(batch)
            )
            remaining -= len(batch)
        assert batched_actions == serial_actions

    def test_ga_observe_batch_overrun_rejected(self):
        agent = GAAgent(_space(), seed=1, population_size=4)
        batch = agent.propose_batch()
        with pytest.raises(AgentError, match="propose_batch"):
            agent.observe_batch(
                batch + batch[:1], [0.0] * 5, [{}] * 5
            )

    def test_aco_proposes_the_remaining_cohort(self):
        agent = ACOAgent(_space(), seed=3, n_ants=4)
        batch = agent.propose_batch()
        assert len(batch) == 4
        # a partially observed cohort proposes only its remainder
        agent.observe_batch(batch[:3], [0.0, 1.0, 2.0], [{}] * 3)
        assert len(agent.propose_batch()) == 1

    def test_aco_batch_matches_serial_rng_stream(self):
        serial = ACOAgent(_space(), seed=11, n_ants=3)
        batched = ACOAgent(_space(), seed=11, n_ants=3)
        fits = [float(f) for f in np.linspace(0, 2, 10)]
        serial_actions = []
        for f in fits:
            action = serial.propose()
            serial_actions.append(action)
            serial.observe(action, f, {})
        batched_actions = []
        cursor = 0
        while cursor < 10:
            batch = batched.propose_batch()[: 10 - cursor]
            batched_actions.extend(batch)
            batched.observe_batch(
                batch, fits[cursor:cursor + len(batch)], [{}] * len(batch)
            )
            cursor += len(batch)
        assert batched_actions == serial_actions


# -- 2. step_batch parity ----------------------------------------------------------


def _env(**kwargs):
    env = SvcCountingEnv(**kwargs)
    env.reset(seed=0)
    return env


def _serial_reference(env, actions):
    """Drive ``reference_step`` the way run_agent does (auto-reset
    between steps) and collect the comparable outcome."""
    out = []
    for action in actions:
        result = reference_step(env, action)
        out.append((result[0].tolist(), result[1], result[2], result[3],
                    result[4]["metrics"], result[4]["target_met"],
                    result[4]["step"]))
        if result[2] or result[3]:
            env.reset()
    return out


def _batch_outcome(results):
    return [
        (obs.tolist(), reward, term, trunc, info["metrics"],
         info["target_met"], info["step"])
        for obs, reward, term, trunc, info in results
    ]


def _counters(env):
    s = env.stats
    return (s.total_steps, s.total_episodes, s.cache_hits, s.cache_misses,
            s.shared_cache_hits, s.remote_evals, env.evaluations)


ACTIONS = [
    {"x": 1, "m": "a"}, {"x": 2, "m": "b"}, {"x": 1, "m": "a"},  # dup
    {"x": 5, "m": "a"}, {"x": 2, "m": "b"},                      # dup
    {"x": 7, "m": "b"},
]


class TestStepBatchParity:
    def test_matches_serial_with_local_cache(self):
        serial, batched = _env(), _env()
        for env in (serial, batched):
            env.enable_cache()
        reference = _serial_reference(serial, ACTIONS)
        results = batched.step_batch(ACTIONS)
        assert _batch_outcome(results) == reference
        assert _counters(batched) == _counters(serial)
        assert batched.stats.cache_hits == 2  # the two in-batch dups

    def test_matches_serial_without_any_cache(self):
        serial, batched = _env(), _env()
        reference = _serial_reference(serial, ACTIONS)
        results = batched.step_batch(ACTIONS)
        assert _batch_outcome(results) == reference
        assert _counters(batched) == _counters(serial)
        assert batched.evaluations == len(ACTIONS)  # dups re-simulated

    def test_matches_serial_with_shared_tier_only(self, tmp_path):
        """Local LRU disabled, shared store attached: in-batch dups
        must surface as shared hits, exactly like the serial loop."""
        serial, batched = _env(), _env()
        serial.attach_shared_cache(SharedCacheStore(tmp_path / "serial"))
        batched.attach_shared_cache(SharedCacheStore(tmp_path / "batched"))
        reference = _serial_reference(serial, ACTIONS)
        results = batched.step_batch(ACTIONS)
        assert _batch_outcome(results) == reference
        assert _counters(batched) == _counters(serial)
        assert batched.stats.shared_cache_hits == 2

    def test_matches_serial_with_both_tiers(self, tmp_path):
        serial, batched = _env(), _env()
        for env, name in ((serial, "serial"), (batched, "batched")):
            env.enable_cache()
            env.attach_shared_cache(SharedCacheStore(tmp_path / name))
        reference = _serial_reference(serial, ACTIONS)
        assert _batch_outcome(batched.step_batch(ACTIONS)) == reference
        assert _counters(batched) == _counters(serial)

    def test_shared_tier_prepopulated_by_another_process(self, tmp_path):
        """Each env gets its own store directory (so the serial run's
        writes cannot leak into the batched one), both pre-populated
        with the first design point by an earlier "process"."""
        for name in ("serial", "batched"):
            probe = _env()
            probe.attach_shared_cache(SharedCacheStore(tmp_path / name))
            probe.step(ACTIONS[0])  # pays for the first design point

        serial, batched = _env(), _env()
        serial.attach_shared_cache(SharedCacheStore(tmp_path / "serial"))
        batched.attach_shared_cache(SharedCacheStore(tmp_path / "batched"))
        reference = _serial_reference(serial, ACTIONS)
        assert _batch_outcome(batched.step_batch(ACTIONS)) == reference
        assert batched.stats.shared_cache_hits == serial.stats.shared_cache_hits
        assert batched.stats.shared_cache_hits >= 2  # prepopulated + dups

    def test_stream_writes_the_shared_tier_before_its_last_result(
        self, tmp_path
    ):
        """A caller holding the stream open after taking every result
        (``zip`` over the proposals does) must find the batch's misses
        in the shared tier already; a stream closed early writes the
        misses it replayed."""
        env = _env()
        env.attach_shared_cache(SharedCacheStore(tmp_path / "whole"))
        stream = env.step_batch_stream(ACTIONS)
        results = [next(stream) for _ in ACTIONS]
        assert len(results) == len(ACTIONS)
        assert len(SharedCacheStore(tmp_path / "whole")) == 4  # distinct misses

        env = _env()
        env.attach_shared_cache(SharedCacheStore(tmp_path / "closed"))
        stream = env.step_batch_stream(ACTIONS)
        next(stream), next(stream)  # two misses replayed
        assert len(SharedCacheStore(tmp_path / "closed")) == 0
        stream.close()
        assert len(SharedCacheStore(tmp_path / "closed")) == 2

    def test_episode_resets_mid_batch(self):
        serial, batched = _env(), _env()
        for env in (serial, batched):
            env.episode_length = 2
        reference = _serial_reference(serial, ACTIONS)
        results = batched.step_batch(ACTIONS)
        assert _batch_outcome(results) == reference
        # the final point truncated its episode: the flag is left for
        # the driver, exactly like step()
        assert results[-1][3]  # truncated
        with pytest.raises(EnvironmentError_, match="reset"):
            batched.step_batch([ACTIONS[0]])
        batched.reset()  # what the driver does; episode counts align
        assert batched.stats.total_episodes == serial.stats.total_episodes
        assert batched.stats.total_episodes > 1

    def test_dataset_rows_and_step_numbers_match(self):
        from repro.core.dataset import ArchGymDataset

        serial, batched = _env(), _env()
        for env in (serial, batched):
            env.enable_cache()
            env.attach_dataset(ArchGymDataset(env.env_id), source="t")
        _serial_reference(serial, ACTIONS)
        batched.step_batch(ACTIONS)
        assert list(batched.dataset) == list(serial.dataset)

    def test_step_methods_do_not_call_each_other(self, monkeypatch):
        """``step``, ``step_batch`` and ``step_batch_stream`` share one
        private path, so a hook on each public name (the benchmark's
        calibration and tracer wrap all three) fires once per call."""
        from repro.core.env import ArchGymEnv

        calls = Counter()
        for name in ("step", "step_batch", "step_batch_stream"):
            method = getattr(ArchGymEnv, name)

            def counted(*args, _name=name, _method=method, **kwargs):
                calls[_name] += 1
                return _method(*args, **kwargs)

            monkeypatch.setattr(ArchGymEnv, name, counted)
        env = _env()
        env.enable_cache()
        env.step(ACTIONS[0])
        assert calls == Counter(step=1)
        env.reset()
        env.step_batch(ACTIONS[:1])
        assert calls == Counter(step=1, step_batch=1)
        env.reset()
        list(env.step_batch_stream(ACTIONS[:1]))
        assert calls == Counter(step=1, step_batch=1, step_batch_stream=1)

    def test_empty_batch_is_a_no_op(self):
        env = _env()
        assert env.step_batch([]) == []
        assert env.stats.total_steps == 0

    def test_invalid_action_rejected_before_any_evaluation(self):
        env = _env()
        with pytest.raises(InvalidActionError):
            env.step_batch([ACTIONS[0], {"x": 99, "m": "a"}])
        assert env.evaluations == 0
        assert env.stats.total_steps == 0

    @pytest.mark.parametrize("skew", [-1, 1])
    def test_wrong_length_answer_rejected_before_any_bookkeeping(self, skew):
        """A backend answering one metric object too few or too many
        for a batch's 4 misses is refused before anything is charged.
        The short answer used to be applied to 3 points before an
        ``IndexError``; the long one was accepted."""
        model = SvcCountingEnv()

        class SkewedBackend:
            def evaluate_batch(self, env_id, actions):
                answers = [model.evaluate(action) for action in actions]
                return answers[:skew] if skew < 0 else answers + answers[:skew]

        env = _env()
        env.enable_cache()
        dataset = ArchGymDataset(env.env_id)
        env.attach_dataset(dataset, source="skewed")
        env.attach_backend(SkewedBackend())
        before = _counters(env)
        with pytest.raises(EnvironmentError_, match="4 design point"):
            env.step_batch(ACTIONS)
        assert _counters(env) == before
        assert env.stats.remote_evals_by_host == {}
        assert len(env._eval_cache) == 0
        assert len(dataset) == 0

    @pytest.mark.parametrize(
        "chunks, charged",
        [
            # repeats miss 2: it used to get miss 1's metrics, unnoticed
            ([(0, [0, 1, 1]), (2, [2, 3])], 3),
            # runs past the last of the 4 misses
            ([(0, [0, 1]), (2, [2, 3, 3])], 2),
            # starts below 0: its first metrics used to land on miss 3
            ([(-1, [3, 0]), (1, [1, 2, 3])], 0),
        ],
    )
    def test_stray_stream_chunk_rejected_before_it_is_charged(
        self, chunks, charged
    ):
        """Each chunk of a streamed batch must land inside the batch on
        points not yet answered; the first one that does not is refused
        before its metrics are charged or written."""
        env = _env()
        env.enable_cache()
        env.attach_backend(_StrayChunkBackend(chunks))
        with pytest.raises(EnvironmentError_, match=r"batch of 4\b"):
            list(env.step_batch_stream(ACTIONS))
        assert env.stats.remote_evals == charged
        assert env.stats.remote_evals_by_host == (
            {"stray-host": charged} if charged else {}
        )

    def test_refused_stream_chunk_leaves_the_shared_tier_unwritten(
        self, tmp_path
    ):
        """The first chunk answers miss 2 with miss 1's metrics before
        the second chunk is refused. The points replayed by then used to
        reach the shared tier anyway, so a fresh store returned
        ``{'cost': 3.3}`` for ``{'x': 5, 'm': 'a'}`` (truly 1.3)."""
        env = _env()
        env.attach_shared_cache(SharedCacheStore(tmp_path / "tier"))
        env.attach_backend(_StrayChunkBackend([(0, [0, 1, 1]), (2, [2, 3])]))
        with pytest.raises(EnvironmentError_, match=r"batch of 4\b"):
            list(env.step_batch_stream(ACTIONS))
        assert len(SharedCacheStore(tmp_path / "tier")) == 0

    def test_needs_reset_guard(self):
        env = SvcCountingEnv()
        with pytest.raises(EnvironmentError_, match="reset"):
            env.step_batch([ACTIONS[0]])

    def test_lru_eviction_during_batch_matches_serial(self):
        """A batch larger than the LRU: a duplicate whose first
        occurrence was already evicted must re-simulate, like serial."""
        serial, batched = _env(), _env()
        for env in (serial, batched):
            env.enable_cache(maxsize=2)
        actions = [
            {"x": 0, "m": "a"}, {"x": 1, "m": "a"}, {"x": 2, "m": "a"},
            {"x": 0, "m": "a"},  # evicted by now: a second miss
            {"x": 0, "m": "a"},  # still resident: a hit
        ]
        reference = _serial_reference(serial, actions)
        assert _batch_outcome(batched.step_batch(actions)) == reference
        assert _counters(batched) == _counters(serial)
        assert batched.stats.cache_misses == 4
        assert batched.stats.cache_hits == 1

    def test_decision_pass_reads_o_batch_of_a_full_lru(self):
        """A singleton batch on a full 4,096-entry LRU reads at most one
        key of its order (the one a miss evicts), not the whole LRU."""
        env = _env()
        env.enable_cache(maxsize=4096)
        env._eval_cache = lru = _CountingLRU(
            ((("m", "a"), ("x", 100 + i)), {"cost": 1.0}) for i in range(4096)
        )
        env.step_batch([ACTIONS[0]])  # a miss: one eviction
        assert lru.reads <= 1
        assert len(lru) == 4096
        assert env.stats.cache_misses == 1
        env.step_batch([ACTIONS[0]])  # a hit: no eviction
        assert lru.reads <= 1
        assert env.stats.cache_hits == 1


class _StrayChunkBackend:
    """Streams each batch as the given ``(start, miss indices)`` chunks
    of its true answers, wherever they land."""

    def __init__(self, chunks):
        self.chunks = chunks
        self.model = SvcCountingEnv()

    def evaluate_batch(self, env_id, actions):
        raise AssertionError("the stream hook serves this batch")

    def evaluate_batch_stream(self, env_id, actions):
        answers = [self.model.evaluate(action) for action in actions]
        for start, points in self.chunks:
            yield start, [answers[i] for i in points], "stray-host"


class _CountingLRU(OrderedDict):
    """An LRU that counts the keys read off its order."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = 0

    def __iter__(self):
        for key in super().__iter__():
            self.reads += 1
            yield key


#: The property test's proposal pool: six distinct design points, so
#: drawn sequences repeat points often.
POINTS = [
    {"x": x, "m": m}
    for x, m in ((0, "a"), (1, "b"), (2, "a"), (5, "a"), (6, "b"), (7, "b"))
]


class _BulkCountingStore(SharedCacheStore):
    """A file store that counts its bulk calls. Two shards, so a batch's
    misses share shard files and their order within a file shows."""

    def __init__(self, directory):
        super().__init__(directory, n_shards=2)
        self.bulk_calls = Counter()

    def get_many(self, keys):
        self.bulk_calls["get_many"] += 1
        return super().get_many(keys)

    def put_many(self, entries):
        self.bulk_calls["put_many"] += 1
        super().put_many(entries)


def _run_batches(env, batches, mode="batch"):
    """Step ``env`` batch by batch the way run_agent does — with
    ``step_batch``, ``step_batch_stream``, or ``step`` point by point
    (``mode`` ``"batch"``, ``"stream"`` or ``"step"``) — and reset after
    a call whose final point ended an episode. A counting shared tier
    must see at most one ``get_many`` and one ``put_many`` per call."""
    out = []
    store = env.shared_cache
    if mode == "step":
        batches = [[action] for batch in batches for action in batch]
    for batch in batches:
        if mode == "step":
            results = [env.step(batch[0])]
        elif mode == "stream":
            results = list(env.step_batch_stream(batch))
        else:
            results = env.step_batch(batch)
        out.extend(_batch_outcome(results))
        if results[-1][2] or results[-1][3]:
            env.reset()
        if store is not None:
            assert max(store.bulk_calls.values(), default=0) <= 1
            store.bulk_calls.clear()
    return out


def _shared_contents(store, directory):
    """The shared tier's keys and its shard files' bytes."""
    return store.keys_encoded(), {
        path.name: path.read_bytes()
        for path in sorted(directory.glob("shard-*.jsonl"))
    }


def _decisions(env, evaluations):
    """Everything the decision pass decides: cache counters, episode
    accounting, simulator runs, dataset rows, and the LRU's key order."""
    s = env.stats
    lru = env._eval_cache
    return (
        s.total_steps, s.total_episodes, s.cache_hits, s.cache_misses,
        s.shared_cache_hits, evaluations, list(env.dataset),
        list(lru) if lru is not None else None,
    )


class TestDecisionPassProperty:
    """``step_batch``, ``step_batch_stream`` and ``step`` point by
    point decide exactly as the serial ``reference_step`` loop for
    random proposal sequences, LRU sizes (evictions inside a batch
    included), a shared tier on or off and pre-populated by another
    process, episode lengths, and chunk arrival orders — and leave the
    shared tier byte for byte as the serial loop does, with one bulk
    lookup and one bulk write per call at most."""

    @given(
        batches=st.lists(
            st.lists(st.sampled_from(POINTS), min_size=1, max_size=8),
            min_size=1, max_size=5,
        ),
        lru_size=st.integers(0, 5),
        shared=st.booleans(),
        preloaded=st.lists(st.sampled_from(POINTS), max_size=3),
        episode_length=st.integers(1, 4),
        chunk_size=st.integers(1, 3),
        arrival=st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_batched_steps_match_serial_step(
        self, batches, lru_size, shared, preloaded, episode_length,
        chunk_size, arrival,
    ):
        backend = _ScriptedStreamBackend(
            chunk_size=chunk_size, shuffle=arrival.shuffle
        )
        with tempfile.TemporaryDirectory() as tmp:
            envs = {}
            for mode in ("serial", "batch", "stream", "step"):
                env = SvcCountingEnv()
                env.episode_length = episode_length
                env.enable_cache(maxsize=lru_size)  # 0 leaves it off
                if shared:
                    store = _BulkCountingStore(Path(tmp) / mode)
                    for action in preloaded:
                        store.put(
                            canonical_action_key(action),
                            SvcCountingEnv().evaluate(action),
                        )
                    env.attach_shared_cache(store)
                env.attach_dataset(ArchGymDataset(env.env_id), source="p")
                env.reset(seed=0)
                envs[mode] = env
            envs["stream"].attach_backend(backend)

            serial = envs["serial"]
            reference = _serial_reference(
                serial, [action for batch in batches for action in batch]
            )
            expected = _decisions(serial, serial.evaluations)
            batched = envs["batch"]
            assert _run_batches(batched, batches) == reference
            assert _decisions(batched, batched.evaluations) == expected
            streamed = envs["stream"]
            assert _run_batches(streamed, batches, "stream") == reference
            assert _decisions(streamed, backend._env.evaluations) == expected
            assert streamed.stats.remote_evals == serial.evaluations
            stepped = envs["step"]
            assert _run_batches(stepped, batches, "step") == reference
            assert _decisions(stepped, stepped.evaluations) == expected
            if shared:
                contents = {
                    mode: _shared_contents(env.shared_cache, Path(tmp) / mode)
                    for mode, env in envs.items()
                }
                for mode in ("batch", "stream", "step"):
                    assert contents[mode] == contents["serial"]


# -- 3. driver parity --------------------------------------------------------------


def _normalized_record(result):
    record = result.to_record()
    record["wall_time_s"] = 0.0
    record["sim_time_s"] = 0.0
    return record


class TestRunAgentGenerationDispatch:
    @pytest.mark.parametrize("agent_name", ["rw", "ga", "aco", "bo", "rl"])
    def test_byte_identical_to_serial_driver(self, agent_name):
        records = []
        for driver in (run_agent_serial, run_agent):
            env = repro.make("DRAMGym-v0")
            agent = make_agent(agent_name, env.action_space, seed=3)
            result = driver(agent, env, n_samples=20, seed=5)
            records.append(
                (_normalized_record(result), env.stats.total_episodes,
                 env.stats.total_steps)
            )
            env.close()
        assert records[0] == records[1]

    def test_budget_truncates_a_generation(self):
        """n_samples not divisible by the population: the final
        generation is cut to the remaining budget."""
        env = SvcCountingEnv()
        agent = GAAgent(env.action_space, seed=2, population_size=8)
        result = run_agent(agent, env, n_samples=11, seed=1)
        assert result.n_samples == 11
        assert len(result.reward_history) == 11
        assert env.stats.total_steps == 11

    def test_empty_propose_batch_rejected(self):
        class _Hollow(Agent):
            name = "hollow"

            def propose_batch(self):
                return []

        env = SvcCountingEnv()
        agent = _Hollow(env.action_space)
        with pytest.raises(AgentError, match="no proposals"):
            run_agent(agent, env, n_samples=4)


# -- 4. weighted dispatch plumbing -------------------------------------------------


class TestWeightParsing:
    def test_bare_url_weighs_one(self):
        assert parse_weighted_url("http://h:8023") == ("http://h:8023", 1.0)

    def test_weighted_url(self):
        assert parse_weighted_url("http://h:8023=2.5") == ("http://h:8023", 2.5)

    @pytest.mark.parametrize("spec", [
        "http://h:8023=abc", "http://h:8023=", "http://h:8023=0",
        "http://h:8023=-1", "http://h:8023=inf", "http://h:8023=nan",
    ])
    def test_malformed_weight_rejected(self, spec):
        with pytest.raises(ExecutorError, match="weight"):
            parse_weighted_url(spec)

    def test_resolve_backend_threads_weights_into_the_spec(self):
        backend, _, _ = resolve_execution_backend(
            ["http://a:1=2", "http://b:1"], False, None
        )
        assert backend.service_urls == ("http://a:1", "http://b:1")
        assert backend.service_weights == (2.0, 1.0)

    def test_resolve_backend_all_default_weights_stay_none(self):
        backend, _, _ = resolve_execution_backend(
            ["http://a:1", "http://b:1"], False, None
        )
        assert backend.service_weights is None

    def test_resolve_backend_conflicting_weights_rejected(self):
        with pytest.raises(ExecutorError, match="conflicting"):
            resolve_execution_backend(
                ["http://a:1=2", "http://a:1=3"], False, None
            )

    def test_resolve_backend_duplicate_agreeing_weight_collapses(self):
        backend, _, _ = resolve_execution_backend(
            ["http://a:1=2", "http://a:1=2", "http://b:1"], False, None
        )
        assert backend.service_urls == ("http://a:1", "http://b:1")
        assert backend.service_weights == (2.0, 1.0)

    def test_spec_validates_weight_arity(self):
        with pytest.raises(ExecutorError, match="weight"):
            BackendSpec(
                service_urls=("http://a:1", "http://b:1"),
                service_weights=(1.0,),
            )


class TestWeightedSplit:
    def test_even_split(self):
        assert weighted_split(64, [1.0, 1.0]) == [32, 32]

    def test_proportional_split(self):
        assert weighted_split(60, [2.0, 1.0]) == [40, 20]

    def test_largest_remainder_rounding_sums_exactly(self):
        for n in range(0, 30):
            counts = weighted_split(n, [3.0, 2.0, 1.0])
            assert sum(counts) == n
            assert all(c >= 0 for c in counts)

    def test_single_weight_takes_all(self):
        assert weighted_split(7, [5.0]) == [7]

    def test_all_zero_weights_fall_back_to_uniform(self):
        """An observed-rate weight vector can legitimately be all zero
        (cold fleet, no measurements yet) — that must split uniformly,
        not raise ZeroDivisionError."""
        assert weighted_split(6, [0.0, 0.0, 0.0]) == [2, 2, 2]
        assert weighted_split(7, [0.0, 0.0]) == [4, 3]
        assert sum(weighted_split(0, [0.0])) == 0

    def test_huge_weights_do_not_overflow(self):
        """``parse_weighted_url`` and ``HostPool`` accept any positive
        finite weight, so ``--service-url A=1e308`` is legal; ``n * w``
        must not overflow (it raised ``OverflowError``, or ``ValueError``
        on a NaN share, from the first scatter)."""
        assert weighted_split(3, [1e308, 1.0]) == [3, 0]
        assert weighted_split(10, [1e308, 1e308]) == [5, 5]
        assert weighted_split(4, [1.7976931348623157e308] * 3) == [2, 1, 1]

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(0, 10_000),
        weights=st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
            ),
            min_size=1, max_size=16,
        ),
    )
    def test_prop_split_conserves_and_is_proportional(self, n, weights):
        counts = weighted_split(n, weights)
        assert sum(counts) == n
        exact = [Fraction(w) for w in weights]
        total = sum(exact)
        if total == 0:  # an all-zero vector splits uniformly
            exact, total = [Fraction(1)] * len(exact), Fraction(len(exact))
        for count, weight in zip(counts, exact):
            share = n * weight / total
            assert math.floor(share) <= count <= math.floor(share) + 1
        # equal inputs give equal splits: the same vector again, and
        # equal weights within it (the one extra goes to the earlier)
        assert weighted_split(n, list(weights)) == counts
        for i, j in itertools.combinations(range(len(weights)), 2):
            if weights[i] == weights[j]:
                assert counts[i] - counts[j] in (0, 1)


class TestWeightedHostPool:
    def test_weights_validated(self):
        with pytest.raises(ServiceError, match="positive"):
            HostPool(["http://a:1"], weights=[0.0])
        with pytest.raises(ServiceError, match="weight"):
            HostPool(["http://a:1", "http://b:1"], weights=[1.0])

    def test_conflicting_duplicate_weights_rejected(self):
        with pytest.raises(ServiceError, match="conflicting"):
            HostPool(
                ["http://a:1", "http://a:1"], weights=[1.0, 2.0],
            )

    def test_weights_by_host(self):
        pool = HostPool(
            ["http://a:1", "http://b:1"], weights=[2.0, 1.0], timeout_s=1.0
        )
        assert pool.weights_by_host == {"http://a:1": 2.0, "http://b:1": 1.0}


@pytest.fixture()
def two_counting_services():
    def _make():
        svc = EvaluationService()
        svc.register("SvcCounting-v0", SvcCountingEnv)
        svc.start()
        return svc

    a, b = _make(), _make()
    yield a, b
    a.stop()
    b.stop()


class TestGenerationScatter:
    def test_scatter_splits_by_weight_with_per_point_hosts(
        self, two_counting_services, closing
    ):
        a, b = two_counting_services
        pool = closing(HostPool(
            [a.url, b.url], weights=[3.0, 1.0], timeout_s=10.0, retries=0
        ))
        actions = [{"x": i % 8, "m": "a"} for i in range(16)]
        metrics, hosts = pool.evaluate_batch_scatter(
            "SvcCounting-v0", actions
        )
        env = SvcCountingEnv()
        assert metrics == [env.evaluate(action) for action in actions]
        assert hosts[:12] == [a.url] * 12 and hosts[12:] == [b.url] * 4
        assert a.evaluations == 12 and b.evaluations == 4
        # one POST per host, not one per point
        assert sum(h.client.requests_sent for h in pool._hosts) == 2

    def test_singleton_batch_keeps_round_robin_placement(
        self, two_counting_services, closing
    ):
        """A 1-point batch must not pin the heaviest host: it is one
        whole-batch call, placed round-robin like any other."""
        a, b = two_counting_services
        pool = closing(HostPool(
            [a.url, b.url], weights=[2.0, 1.0], timeout_s=10.0, retries=0
        ))
        for i in range(4):
            metrics, hosts = pool.evaluate_batch_scatter(
                "SvcCounting-v0", [{"x": i, "m": "a"}]
            )
            assert len(metrics) == len(hosts) == 1
        assert a.evaluations == 2 and b.evaluations == 2

    def test_scatter_fails_over_a_dead_chunk(self, two_counting_services, closing):
        a, b = two_counting_services
        url_a = a.url
        pool = closing(HostPool(
            [url_a, b.url], timeout_s=1.0, retries=0, backoff_s=0.01
        ))
        a.stop()
        actions = [{"x": i % 8, "m": "a"} for i in range(8)]
        metrics, hosts = pool.evaluate_batch_scatter(
            "SvcCounting-v0", actions
        )
        env = SvcCountingEnv()
        assert metrics == [env.evaluate(action) for action in actions]
        assert set(hosts) == {b.url}  # the survivor carried everything
        assert pool.quarantined_urls == [url_a]

    def test_server_error_propagates_without_quarantine(
        self, two_counting_services, closing
    ):
        a, b = two_counting_services
        pool = closing(HostPool([a.url, b.url], timeout_s=10.0, retries=0))
        actions = [{"x": i % 8, "m": "a"} for i in range(8)]
        with pytest.raises(ServiceError, match="unknown environment") as err:
            pool.evaluate_batch_scatter("Nope-v0", actions)
        assert not isinstance(err.value, ServiceTransportError)
        assert pool.quarantined_urls == []


class TestServerCacheFailover:
    def test_store_fails_over_to_next_pool_host(self, two_counting_services, closing):
        a, b = two_counting_services
        store = ServerCacheStore(closing(HostPool(
            [a.url, b.url], timeout_s=1.0, retries=0, backoff_s=0.01,
        )))
        key_known = (("m", "a"), ("x", 1))
        store.put(key_known, {"cost": 4.3})  # replicated to A and B
        a.stop()
        # a *new* key forces network traffic: the dead host must be
        # replaced by the fallback instead of failing the sweep
        key_new = (("m", "b"), ("x", 2))
        assert store.get(key_new) is None  # B's map: a miss, not an error
        store.put(key_new, {"cost": 1.5})
        assert store.get(key_new) == {"cost": 1.5}
        # write-through replication: B holds the pre-death entry too,
        # so losing host A lost nothing
        assert len(store) == 2
        assert store.get(key_known) == {"cost": 4.3}

    def test_exhausted_fallbacks_raise_transport_error(self, closing):
        dead_a = f"http://127.0.0.1:{_free_port()}"
        dead_b = f"http://127.0.0.1:{_free_port()}"
        store = ServerCacheStore(closing(HostPool(
            [dead_a, dead_b], timeout_s=0.3, retries=0, backoff_s=0.01,
        )))
        with pytest.raises(ServiceTransportError):
            store.get((("x", 1),))


class TestHyperparamTagStability:
    def test_dict_valued_hyperparams_tag_is_insertion_order_free(self):
        space = _space()
        a = _ScriptedAgent.__mro__[1](  # the Agent base class directly
            space, 0, budgets={"latency": 1.0, "power": 2.0}
        )
        b = Agent(space, 0, budgets={"power": 2.0, "latency": 1.0})
        assert a.hyperparam_tag() == b.hyperparam_tag()
        assert "latency" in a.hyperparam_tag()

    def test_nested_dicts_are_canonicalized(self):
        space = _space()
        a = Agent(space, 0, cfg={"outer": {"b": 1, "a": "x"}})
        b = Agent(space, 0, cfg={"outer": {"a": "x", "b": 1}})
        assert a.hyperparam_tag() == b.hyperparam_tag()
        assert a.hyperparam_tag() == "agent[cfg={'outer': {'a': 'x', 'b': 1}}]"

    def test_scalar_formatting_unchanged(self):
        agent = Agent(_space(), 0, rate=0.1, n=4, mode="fast")
        assert agent.hyperparam_tag() == "agent[mode=fast,n=4,rate=0.1]"
