"""Unit + property tests for the DRAM substrate (repro.dramsys)."""

import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.errors import SimulationError
from repro.dramsys import (
    DDR3_1600,
    DDR4_2400,
    LPDDR4_3200,
    ControllerConfig,
    DramDevice,
    DramEnergy,
    DramSimulator,
    DramTimings,
    Trace,
    controller_space,
    generate_trace,
)
from repro.dramsys.traces import TRACE_NAMES, MemoryRequest

NON_FINITE = (float("nan"), float("inf"), float("-inf"))


class TestDevice:
    def test_presets_valid(self):
        for dev in (DDR4_2400, DDR3_1600, LPDDR4_3200):
            assert dev.banks >= 8
            assert dev.timings.trc >= dev.timings.tras

    def test_burst_time(self):
        t = DDR4_2400.timings
        assert t.burst_time == pytest.approx(t.burst_length / 2 * t.tck)

    def test_address_mapping_interleaves_banks(self):
        dev = DDR4_2400
        banks = [dev.map_address(i * dev.line_bytes)[0] for i in range(dev.banks)]
        assert sorted(banks) == list(range(dev.banks))

    def test_address_mapping_same_row_for_stride(self):
        dev = DDR4_2400
        # consecutive lines in the same bank (stride = banks * line) share a row
        stride = dev.banks * dev.line_bytes
        rows = {dev.map_address(i * stride)[1] for i in range(dev.lines_per_row)}
        assert len(rows) == 1

    def test_invalid_timings(self):
        with pytest.raises(SimulationError):
            DramTimings(tck=0.0)
        with pytest.raises(SimulationError):
            DramTimings(trc=10.0, tras=20.0)
        with pytest.raises(SimulationError):
            DramTimings(trefi=100.0, trfc=200.0)
        with pytest.raises(SimulationError):
            DramTimings(burst_length=3)
        # a negative time would simulate to numbers (a negative latency
        # penalty, a refresh with a negative blackout)
        for kwargs in ({"trcd": -100.0}, {"tcl": -50.0}, {"trfc": -10.0, "trefi": 5.0}):
            name, value = next(iter(kwargs.items()))
            with pytest.raises(SimulationError, match=f"{name} must be non-negative, got {value}"):
                DramTimings(**kwargs)
        # a non-finite time would keep the event loop's clock from
        # advancing (NaN) or trap it in the refresh loop (inf)
        for field in fields(DramTimings):
            for value in NON_FINITE:
                with pytest.raises(SimulationError, match=f"{field.name} must be finite"):
                    DramTimings(**{field.name: value})
        # finite fields whose derived time overflows
        with pytest.raises(SimulationError, match="row_conflict_penalty must be finite"):
            DramTimings(trp=1e308, trcd=1e308)

    def test_invalid_energy(self):
        with pytest.raises(SimulationError):
            DramEnergy(e_act=-1.0)
        with pytest.raises(SimulationError):
            DramEnergy(p_background_idle=1.0, p_background_active=0.5)
        for field in fields(DramEnergy):
            for value in NON_FINITE:
                with pytest.raises(SimulationError, match=f"{field.name} must be finite"):
                    DramEnergy(**{field.name: value})

    def test_invalid_banks(self):
        with pytest.raises(SimulationError):
            DramDevice(banks=12)

    def test_invalid_address_mapping(self):
        with pytest.raises(SimulationError):
            DramDevice(address_mapping="xor_sliced")

    def test_invalid_line_bytes(self):
        # 0 would divide by zero in map_address; -64 would simulate to a
        # negative bandwidth
        for value in (0, -64, 64.0, True, "64", None):
            with pytest.raises(SimulationError, match="line_bytes must be an integer"):
                DramDevice(line_bytes=value)
        assert DramDevice(line_bytes=1).map_address(5) == (5, 0)

    def test_row_interleaved_keeps_stream_in_one_bank(self):
        dev = DramDevice(address_mapping="row_interleaved")
        banks = {
            dev.map_address(i * dev.line_bytes)[0]
            for i in range(dev.lines_per_row)
        }
        assert len(banks) == 1

    def test_row_interleaved_loses_bank_parallelism_on_streams(self):
        from repro.dramsys.device import DDR4_2400

        trace = generate_trace("stream", 600, seed=0)
        bank_il = DramSimulator(DDR4_2400).simulate(ControllerConfig(), trace)
        row_il = DramSimulator(
            DramDevice(address_mapping="row_interleaved")
        ).simulate(ControllerConfig(), trace)
        # both mappings keep streams row-local, but row-interleaving
        # serializes onto one bank at a time -> higher latency
        assert row_il.row_hit_rate > 0.9
        assert row_il.avg_latency_ns > bank_il.avg_latency_ns


class TestTraces:
    def test_all_names_generate(self):
        for name in TRACE_NAMES:
            trace = generate_trace(name, n_requests=50, seed=3)
            assert len(trace) == 50
            assert trace.name == name

    def test_deterministic(self):
        a = generate_trace("cloud-1", 100, seed=7)
        b = generate_trace("cloud-1", 100, seed=7)
        assert a.requests == b.requests

    def test_different_seeds_differ(self):
        a = generate_trace("random", 100, seed=1)
        b = generate_trace("random", 100, seed=2)
        assert a.requests != b.requests

    def test_arrivals_sorted(self):
        for name in TRACE_NAMES:
            trace = generate_trace(name, 200, seed=5)
            arrivals = [r.arrival_ns for r in trace.requests]
            assert arrivals == sorted(arrivals)

    def test_stream_is_sequential(self):
        trace = generate_trace("stream", 100, seed=0)
        addrs = [r.address for r in trace.requests]
        diffs = {b - a for a, b in zip(addrs, addrs[1:])}
        assert diffs == {64}

    def test_pointer_chase_read_only_with_long_gaps(self):
        trace = generate_trace("pointer_chase", 200, seed=0)
        assert trace.write_fraction == 0.0
        gaps = [
            b.arrival_ns - a.arrival_ns
            for a, b in zip(trace.requests, trace.requests[1:])
        ]
        assert min(gaps) >= 60.0

    def test_cloud2_writes_heavier_than_cloud1(self):
        c1 = generate_trace("cloud-1", 1000, seed=0)
        c2 = generate_trace("cloud-2", 1000, seed=0)
        assert c2.write_fraction > c1.write_fraction

    def test_unknown_name(self):
        with pytest.raises(SimulationError):
            generate_trace("nope")

    def test_bad_length(self):
        with pytest.raises(SimulationError):
            generate_trace("stream", 0)


class TestControllerConfig:
    def test_default_valid(self):
        ControllerConfig()

    def test_rejects_bad_values(self):
        with pytest.raises(SimulationError):
            ControllerConfig(page_policy="Nope")
        with pytest.raises(SimulationError):
            ControllerConfig(request_buffer_size=0)
        with pytest.raises(SimulationError):
            ControllerConfig(max_active_transactions=0)
        with pytest.raises(SimulationError):
            ControllerConfig(refresh_max_postponed=-1)
        # counts must be ints: a float cap used to simulate, and a bool
        # buffer size ran as a buffer of one
        for name, value in (
            ("max_active_transactions", 2.5),
            ("max_active_transactions", True),
            ("request_buffer_size", True),
            ("request_buffer_size", 8.0),
            ("refresh_max_postponed", 1.5),
            ("refresh_max_pulledin", -1),
            ("refresh_max_pulledin", False),
            ("refresh_max_postponed", "4"),
        ):
            with pytest.raises(SimulationError, match=f"{name} .*got {value!r}"):
                ControllerConfig(**{name: value})
        # the bounds themselves are accepted
        ControllerConfig(
            request_buffer_size=1, max_active_transactions=1,
            refresh_max_postponed=0, refresh_max_pulledin=0,
        )

    def test_action_roundtrip(self):
        cfg = ControllerConfig(page_policy="Closed", request_buffer_size=3)
        assert ControllerConfig.from_action(cfg.to_action()) == cfg

    def test_space_contains_default_action(self):
        space = controller_space()
        assert space.contains(ControllerConfig().to_action())

    def test_space_samples_build_configs(self):
        space = controller_space()
        rng = np.random.default_rng(0)
        for _ in range(50):
            ControllerConfig.from_action(space.sample(rng))

    def test_space_dimension(self):
        assert controller_space().dimension == 10


class TestSimulator:
    sim = DramSimulator()

    def test_deterministic(self):
        trace = generate_trace("cloud-1", 300, seed=2)
        a = self.sim.simulate(ControllerConfig(), trace)
        b = self.sim.simulate(ControllerConfig(), trace)
        assert a == b

    def test_empty_trace_rejected(self):
        with pytest.raises(SimulationError):
            self.sim.simulate(ControllerConfig(), Trace("empty", ()))

    @pytest.mark.parametrize("arrival", NON_FINITE)
    def test_non_finite_arrival_rejected(self, arrival):
        requests = list(generate_trace("stream", 20, seed=0).requests)
        requests[7] = MemoryRequest(arrival, requests[7].address, requests[7].is_write)
        trace = Trace("hand-built", tuple(requests))
        simulator = DramSimulator()
        with pytest.raises(SimulationError, match="request 7 of trace 'hand-built'"):
            simulator.simulate(ControllerConfig(), trace)
        # the refused trace is not memoized: a retry raises again
        with pytest.raises(SimulationError, match="request 7"):
            simulator.simulate(ControllerConfig(), trace)

    #: Each case hung ``simulate`` until it was refused: a far-future
    #: arrival, a clock period whose ``burst_time`` overflows to inf,
    #: one whose every time is finite but whose first burst jumps the
    #: clock ~1e297 refresh intervals, and a refresh interval so small
    #: that adding it never moves the due time. Run in a child process
    #: with a timeout, so that a regression fails instead of hanging
    #: the suite.
    HANG_SCRIPT = """
import json
import sys
from repro.core.errors import SimulationError
from repro.dramsys import (
    ControllerConfig, DramDevice, DramSimulator, DramTimings, Trace,
    generate_trace,
)
from repro.dramsys.traces import MemoryRequest

trace = generate_trace("stream", 50, seed=0)
try:
    if sys.argv[1] == "arrival":
        far = MemoryRequest(1.7e308, 0, False)
        trace = Trace("far", trace.requests + (far,))
        simulator = DramSimulator()
    else:
        timings = DramTimings(**json.loads(sys.argv[1]))
        simulator = DramSimulator(DramDevice(timings=timings))
    simulator.simulate(ControllerConfig(), trace)
except SimulationError as exc:
    print("refused:", exc)
"""

    @pytest.mark.parametrize(
        "case, refusal",
        [
            ("arrival", "refresh intervals of 7800.0 ns"),
            ('{"tck": 1e308}', "burst_time must be finite, got inf"),
            ('{"tck": 1e300}', "refresh intervals of 7800.0 ns"),
            ('{"trfc": 0.0, "trefi": 5e-324}', "refresh intervals of 5e-324 ns"),
        ],
        ids=["far-arrival", "tck-1e308", "tck-1e300", "zero-interval"],
    )
    def test_input_that_would_hang_is_refused(self, case, refusal):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        proc = subprocess.run(
            [sys.executable, "-c", self.HANG_SCRIPT, case],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("refused:") and refusal in proc.stdout

    def test_stream_high_hit_rate_with_open_policy(self):
        trace = generate_trace("stream", 500, seed=1)
        r = self.sim.simulate(ControllerConfig(page_policy="Open"), trace)
        assert r.row_hit_rate > 0.9

    def test_random_low_hit_rate(self):
        trace = generate_trace("random", 500, seed=1)
        r = self.sim.simulate(ControllerConfig(page_policy="Open"), trace)
        assert r.row_hit_rate < 0.1

    def test_closed_policy_kills_hits(self):
        trace = generate_trace("stream", 500, seed=1)
        r = self.sim.simulate(ConfigClosed := ControllerConfig(page_policy="Closed"), trace)
        assert r.row_hits == 0

    def test_open_beats_closed_on_stream(self):
        trace = generate_trace("stream", 800, seed=1)
        open_r = self.sim.simulate(ControllerConfig(page_policy="Open"), trace)
        closed_r = self.sim.simulate(ControllerConfig(page_policy="Closed"), trace)
        assert open_r.avg_latency_ns < closed_r.avg_latency_ns

    def test_closed_beats_open_on_random(self):
        trace = generate_trace("random", 800, seed=1)
        open_r = self.sim.simulate(ControllerConfig(page_policy="Open"), trace)
        closed_r = self.sim.simulate(ControllerConfig(page_policy="Closed"), trace)
        assert closed_r.avg_latency_ns < open_r.avg_latency_ns

    def test_fifo_resp_queue_never_faster_than_reorder(self):
        trace = generate_trace("cloud-1", 500, seed=3)
        for scheduler in ("Fifo", "FrFcFs"):
            fifo = self.sim.simulate(
                ControllerConfig(scheduler=scheduler, resp_queue_policy="Fifo"), trace
            )
            reorder = self.sim.simulate(
                ControllerConfig(scheduler=scheduler, resp_queue_policy="Reorder"), trace
            )
            assert fifo.avg_latency_ns >= reorder.avg_latency_ns - 1e-9

    def test_frfcfs_beats_fifo_on_mixed_trace(self):
        trace = generate_trace("cloud-1", 800, seed=4)
        fifo = self.sim.simulate(ControllerConfig(scheduler="Fifo"), trace)
        frfcfs = self.sim.simulate(ControllerConfig(scheduler="FrFcFs"), trace)
        assert frfcfs.row_hits >= fifo.row_hits

    def test_refresh_happens_on_long_trace(self):
        trace = generate_trace("pointer_chase", 500, seed=5)
        r = self.sim.simulate(ControllerConfig(), trace)
        assert r.refreshes > 0

    def test_perbank_refresh_more_frequent_than_allbank(self):
        trace = generate_trace("pointer_chase", 500, seed=5)
        allbank = self.sim.simulate(ControllerConfig(refresh_policy="AllBank"), trace)
        perbank = self.sim.simulate(ControllerConfig(refresh_policy="PerBank"), trace)
        assert perbank.refreshes > allbank.refreshes

    def test_energy_power_consistency(self):
        trace = generate_trace("cloud-2", 400, seed=6)
        r = self.sim.simulate(ControllerConfig(), trace)
        assert r.power_w == pytest.approx(r.energy_uj * 1e3 / r.exec_time_ns, rel=1e-9)

    def test_request_conservation(self):
        trace = generate_trace("cloud-1", 321, seed=7)
        r = self.sim.simulate(ControllerConfig(), trace)
        assert r.reads + r.writes == 321
        assert r.row_hits + r.row_misses + r.row_conflicts == 321

    def test_single_request(self):
        trace = generate_trace("random", 1, seed=8)
        r = self.sim.simulate(ControllerConfig(), trace)
        t = DDR4_2400.timings
        # one cold access: ACT + CAS + burst
        expected = t.trcd + t.tcl + t.burst_time
        assert r.avg_latency_ns == pytest.approx(expected, rel=0.01)

    def test_serializing_cap_hurts_latency(self):
        trace = generate_trace("stream", 800, seed=9)
        tight = self.sim.simulate(
            ControllerConfig(scheduler="Fifo", max_active_transactions=1), trace
        )
        loose = self.sim.simulate(
            ControllerConfig(scheduler="Fifo", max_active_transactions=128), trace
        )
        assert tight.avg_latency_ns >= loose.avg_latency_ns * 0.95

    def test_other_devices_simulate(self):
        trace = generate_trace("cloud-1", 200, seed=10)
        for dev in (DDR3_1600, LPDDR4_3200):
            r = DramSimulator(dev).simulate(ControllerConfig(), trace)
            assert r.power_w > 0
            assert r.avg_latency_ns > 0

    def test_metrics_dict_keys(self):
        trace = generate_trace("stream", 100, seed=11)
        m = self.sim.simulate(ControllerConfig(), trace).metrics()
        for key in ("latency", "power", "energy", "exec_time", "bandwidth", "row_hit_rate"):
            assert key in m

    def test_energy_breakdown_sums_to_total(self):
        trace = generate_trace("cloud-1", 300, seed=12)
        r = self.sim.simulate(ControllerConfig(), trace)
        assert set(r.energy_breakdown_nj) == {
            "activate", "read_write", "refresh", "background",
        }
        total_nj = sum(r.energy_breakdown_nj.values())
        assert total_nj / 1e3 == pytest.approx(r.energy_uj, rel=1e-9)

    def test_energy_breakdown_refresh_component(self):
        trace = generate_trace("pointer_chase", 800, seed=13)
        config = ControllerConfig(refresh_max_postponed=1)
        r = self.sim.simulate(config, trace)
        assert r.refreshes > 0
        assert r.energy_breakdown_nj["refresh"] > 0.0


# -- property-based tests -------------------------------------------------------------

config_actions = st.builds(
    dict,
    PagePolicy=st.sampled_from(("Open", "OpenAdaptive", "Closed", "ClosedAdaptive")),
    Scheduler=st.sampled_from(("Fifo", "FrFcFs", "FrFcFsGrp")),
    SchedulerBuffer=st.sampled_from(("Bankwise", "ReadWrite", "Shared")),
    RequestBufferSize=st.integers(1, 8),
    RespQueue=st.sampled_from(("Fifo", "Reorder")),
    RefreshPolicy=st.sampled_from(("AllBank", "PerBank", "SameBank")),
    RefreshMaxPostponed=st.integers(1, 8),
    RefreshMaxPulledin=st.integers(1, 8),
    Arbiter=st.sampled_from(("Fifo", "Reorder")),
    MaxActiveTransactions=st.sampled_from((1, 2, 4, 8, 16, 32, 64, 128)),
)


@given(config_actions, st.sampled_from(TRACE_NAMES), st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_prop_simulation_invariants(action, trace_name, seed):
    """Any valid config on any trace yields finite, conserving results."""
    trace = generate_trace(trace_name, n_requests=120, seed=seed)
    result = DramSimulator().simulate(ControllerConfig.from_action(action), trace)
    assert result.reads + result.writes == 120
    assert result.row_hits + result.row_misses + result.row_conflicts == 120
    assert result.avg_latency_ns >= 0.0
    assert 0.0 < result.power_w < 10.0
    assert result.energy_uj > 0.0
    assert result.exec_time_ns >= trace.duration_ns
    assert np.isfinite(result.avg_latency_ns)


@given(st.integers(0, 100))
@settings(max_examples=20, deadline=None)
def test_prop_trace_seed_determinism(seed):
    a = generate_trace("cloud-2", 60, seed=seed)
    b = generate_trace("cloud-2", 60, seed=seed)
    assert a.requests == b.requests
