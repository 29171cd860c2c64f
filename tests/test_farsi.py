"""Unit + property tests for the FARSI SoC substrate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.farsi import (
    FARSI_WORKLOAD_NAMES,
    INFEASIBLE_SOC_PENALTY,
    N_SLOTS,
    PE_CATALOG,
    FarsiSimulator,
    SoCConfig,
    Task,
    TaskGraph,
    get_farsi_workload,
    soc_space,
)


def diamond_graph() -> TaskGraph:
    g = TaskGraph("diamond")
    g.add_task(Task("a", mops=100.0))
    g.add_task(Task("b", mops=200.0, kind="dsp"))
    g.add_task(Task("c", mops=200.0, kind="imaging"))
    g.add_task(Task("d", mops=50.0))
    g.add_edge("a", "b", kib=10.0)
    g.add_edge("a", "c", kib=10.0)
    g.add_edge("b", "d", kib=5.0)
    g.add_edge("c", "d", kib=5.0)
    return g


class TestTaskGraph:
    def test_construction(self):
        g = diamond_graph()
        assert len(g) == 4
        assert g.total_mops == 550.0
        assert g.total_traffic_kib == 30.0

    def test_duplicate_task_rejected(self):
        g = TaskGraph("g")
        g.add_task(Task("a", mops=1.0))
        with pytest.raises(SimulationError):
            g.add_task(Task("a", mops=2.0))

    def test_unknown_edge_endpoint(self):
        g = TaskGraph("g")
        g.add_task(Task("a", mops=1.0))
        with pytest.raises(SimulationError):
            g.add_edge("a", "b", kib=1.0)

    def test_cycle_rejected(self):
        g = TaskGraph("g")
        g.add_task(Task("a", mops=1.0))
        g.add_task(Task("b", mops=1.0))
        g.add_edge("a", "b", kib=1.0)
        with pytest.raises(SimulationError, match="cycle"):
            g.add_edge("b", "a", kib=1.0)

    def test_topological_order_respects_edges(self):
        g = diamond_graph()
        order = [t.name for t in g.topological_order()]
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("a") < order.index("c") < order.index("d")

    def test_critical_path(self):
        g = diamond_graph()
        # a -> b -> d (or a -> c -> d): 100 + 200 + 50
        assert g.critical_path_mops() == 350.0

    def test_invalid_task(self):
        with pytest.raises(SimulationError):
            Task("x", mops=0.0)
        with pytest.raises(SimulationError):
            Task("x", mops=1.0, kind="quantum")
        # NaN passes a plain `<= 0` check and infinity is no demand
        for mops in (math.nan, math.inf, -math.inf):
            with pytest.raises(SimulationError, match="finite"):
                Task("x", mops=mops)
        g = TaskGraph("g")
        g.add_task(Task("a", mops=1000.0))
        g.add_task(Task("b", mops=1000.0))
        # a NaN transfer used to vanish in max(): b ran on a second PE
        # before its producer ended, and power came out NaN
        for kib in (math.nan, math.inf, -1.0):
            with pytest.raises(SimulationError, match="finite"):
                g.add_edge("a", "b", kib=kib)
        assert list(g.edges()) == []

    def test_workloads_are_dags_with_budgets(self):
        assert set(FARSI_WORKLOAD_NAMES) == {
            "audio_decoder", "edge_detection", "hand_tracking",
        }
        for name in FARSI_WORKLOAD_NAMES:
            wl = get_farsi_workload(name)
            assert len(wl.graph) >= 10
            assert wl.perf_budget_ms > 0
            assert set(wl.budgets) == {"performance", "power", "area"}

    def test_hand_tracking_stereo_structure(self):
        g = get_farsi_workload("hand_tracking").graph
        # two parallel camera branches converge at stereo_match
        preds = [p.name for p, __ in g.predecessors("stereo_match")]
        assert sorted(preds) == ["feature_extract_L", "feature_extract_R"]
        # its imaging-heavy mix benefits from the ImagingIP accelerator
        sim = FarsiSimulator()
        generic = SoCConfig(slots=("BigCore", "BigCore") + ("None",) * 4)
        accel = SoCConfig(slots=("BigCore", "ImagingIP") + ("None",) * 4)
        assert (
            sim.simulate(accel, g).makespan_ms
            < sim.simulate(generic, g).makespan_ms
        )

    def test_unknown_workload(self):
        with pytest.raises(SimulationError):
            get_farsi_workload("vr_teapot")


class TestSoCConfig:
    def test_default_valid(self):
        cfg = SoCConfig()
        assert len(cfg.pes) == 3

    def test_slot_count_enforced(self):
        with pytest.raises(SimulationError):
            SoCConfig(slots=("BigCore",))

    def test_unknown_slot_option(self):
        with pytest.raises(SimulationError):
            SoCConfig(slots=("Quantum",) * N_SLOTS)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("noc_freq_ghz", math.nan),
            ("noc_freq_ghz", math.inf),
            ("mem_freq_ghz", math.nan),
            ("mem_freq_ghz", math.inf),
            ("noc_bus_width_bits", math.nan),
            ("noc_bus_width_bits", math.inf),
            ("mem_channels", math.nan),
            ("mem_channels", math.inf),
        ],
    )
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(SimulationError, match="finite"):
            SoCConfig(**{field: value})

    def test_bandwidths(self):
        cfg = SoCConfig(noc_bus_width_bits=64, noc_freq_ghz=1.0,
                        mem_freq_ghz=1.0, mem_channels=2)
        assert cfg.noc_bw_gbps == pytest.approx(8.0)
        assert cfg.mem_bw_gbps == pytest.approx(4.0)
        assert cfg.transfer_bw_gbps == pytest.approx(4.0)

    def test_area_scales_with_pes(self):
        empty = SoCConfig(slots=("None",) * N_SLOTS)
        full = SoCConfig(slots=("BigCore",) * N_SLOTS)
        assert full.area_mm2 > empty.area_mm2

    def test_action_roundtrip(self):
        cfg = SoCConfig(slots=("DSP",) * N_SLOTS, mem_channels=3)
        assert SoCConfig.from_action(cfg.to_action()) == cfg

    def test_space_samples_valid(self):
        space = soc_space()
        rng = np.random.default_rng(0)
        for _ in range(30):
            SoCConfig.from_action(space.sample(rng))

    def test_pe_catalog_speedups(self):
        assert PE_CATALOG["DSP"].speedup("dsp") > PE_CATALOG["BigCore"].speedup("dsp")
        assert PE_CATALOG["ImagingIP"].speedup("imaging") > 1.0


class TestSimulator:
    sim = FarsiSimulator()

    def test_deterministic(self):
        g = get_farsi_workload("audio_decoder").graph
        a = self.sim.simulate(SoCConfig(), g)
        b = self.sim.simulate(SoCConfig(), g)
        assert a == b

    def test_empty_graph_rejected(self):
        with pytest.raises(SimulationError):
            self.sim.simulate(SoCConfig(), TaskGraph("empty"))

    def test_no_pes_is_infeasible(self):
        g = diamond_graph()
        r = self.sim.simulate(SoCConfig(slots=("None",) * N_SLOTS), g)
        assert not r.feasible
        assert r.makespan_ms >= INFEASIBLE_SOC_PENALTY

    def test_all_tasks_assigned(self):
        g = get_farsi_workload("edge_detection").graph
        r = self.sim.simulate(SoCConfig(), g)
        assert set(r.assignment) == {t.name for t in g.tasks}

    def test_makespan_at_least_critical_path(self):
        g = get_farsi_workload("edge_detection").graph
        cfg = SoCConfig(slots=("BigCore",) * N_SLOTS)
        r = self.sim.simulate(cfg, g)
        best_gops = max(
            pe.gops * max(pe.speedups.values()) for pe in cfg.pes
        )
        lower_bound = g.critical_path_mops() / (best_gops * 1e3)
        assert r.makespan_ms >= lower_bound * 0.999

    def test_accelerator_speeds_up_matching_workload(self):
        g = get_farsi_workload("edge_detection").graph
        generic = SoCConfig(slots=("BigCore", "BigCore") + ("None",) * 4)
        accel = SoCConfig(slots=("BigCore", "ImagingIP") + ("None",) * 4)
        r_gen = self.sim.simulate(generic, g)
        r_acc = self.sim.simulate(accel, g)
        assert r_acc.makespan_ms < r_gen.makespan_ms

    def test_dsp_speeds_up_audio(self):
        g = get_farsi_workload("audio_decoder").graph
        generic = SoCConfig(slots=("LittleCore",) + ("None",) * 5)
        dsp = SoCConfig(slots=("LittleCore", "DSP") + ("None",) * 4)
        assert (
            self.sim.simulate(dsp, g).makespan_ms
            < self.sim.simulate(generic, g).makespan_ms
        )

    def test_more_pes_never_hurt_makespan_much(self):
        g = get_farsi_workload("edge_detection").graph
        one = SoCConfig(slots=("BigCore",) + ("None",) * 5)
        four = SoCConfig(slots=("BigCore",) * 4 + ("None",) * 2)
        r1 = self.sim.simulate(one, g)
        r4 = self.sim.simulate(four, g)
        assert r4.makespan_ms <= r1.makespan_ms * 1.05

    def test_static_power_floor(self):
        g = diamond_graph()
        cfg = SoCConfig()
        r = self.sim.simulate(cfg, g)
        assert r.power_mw >= cfg.static_mw

    def test_slow_bus_increases_comm(self):
        g = get_farsi_workload("edge_detection").graph
        slots = ("BigCore", "ImagingIP", "DSP") + ("None",) * 3
        fast = SoCConfig(slots=slots, noc_bus_width_bits=256, noc_freq_ghz=1.6,
                         mem_freq_ghz=1.6, mem_channels=4)
        slow = SoCConfig(slots=slots, noc_bus_width_bits=16, noc_freq_ghz=0.2,
                         mem_freq_ghz=0.2, mem_channels=1)
        r_fast = self.sim.simulate(fast, g)
        r_slow = self.sim.simulate(slow, g)
        # per-transfer time is strictly larger on the slow bus whenever
        # any cross-PE transfer happens on both
        if r_fast.comm_ms > 0 and r_slow.comm_ms > 0:
            assert r_slow.comm_ms > r_fast.comm_ms

    def test_metrics_keys(self):
        g = diamond_graph()
        m = self.sim.simulate(SoCConfig(), g).metrics()
        assert set(m) == {"performance", "power", "area", "feasible"}


# -- property tests ------------------------------------------------------------------

slot_strategy = st.sampled_from(
    ("LittleCore", "BigCore", "DSP", "ImagingIP", "None")
)

soc_actions = st.builds(
    dict,
    **{f"PE_Slot{i}": slot_strategy for i in range(N_SLOTS)},
    NoC_BusWidth=st.sampled_from((16, 32, 64, 128, 256)),
    NoC_Freq=st.sampled_from((0.2, 0.4, 0.8, 1.2, 1.6)),
    Mem_Freq=st.sampled_from((0.2, 0.4, 0.8, 1.2, 1.6)),
    Mem_Channels=st.integers(1, 4),
)


@given(soc_actions, st.sampled_from(FARSI_WORKLOAD_NAMES))
@settings(max_examples=80, deadline=None)
def test_prop_simulation_invariants(action, workload):
    """Any SoC either schedules every task with positive finite cost or is
    cleanly infeasible."""
    cfg = SoCConfig.from_action(action)
    g = get_farsi_workload(workload).graph
    r = FarsiSimulator().simulate(cfg, g)
    if r.feasible:
        assert set(r.assignment) == {t.name for t in g.tasks}
        assert 0 < r.makespan_ms < 1e6
        assert r.power_mw >= cfg.static_mw
        assert r.area_mm2 == pytest.approx(cfg.area_mm2)
        assert sum(r.pe_busy_ms.values()) <= r.makespan_ms * len(cfg.pes) + 1e-9
    else:
        assert all(s == "None" for s in cfg.slots)
