"""Unit + property tests for the Timeloop substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.dnn import WORKLOAD_NAMES, ConvLayer, get_workload
from repro.envs.timeloop_env import TimeloopGymEnv
from repro.timeloop import (
    EYERISS_LIKE,
    INFEASIBLE_PENALTY,
    AcceleratorConfig,
    EnergyModel,
    TimeloopModel,
    accelerator_space,
)


class TestLayers:
    def test_all_workloads_available(self):
        for name in WORKLOAD_NAMES:
            layers = get_workload(name)
            assert len(layers) > 0

    def test_unknown_workload(self):
        with pytest.raises(SimulationError):
            get_workload("lenet-9000")

    def test_macs_formula(self):
        layer = ConvLayer("l", K=8, C=4, R=3, S=3, P=10, Q=10)
        assert layer.macs == 8 * 4 * 3 * 3 * 10 * 10

    def test_depthwise_macs(self):
        layer = ConvLayer("dw", K=16, C=16, R=3, S=3, P=10, Q=10, depthwise=True)
        assert layer.macs == 16 * 3 * 3 * 10 * 10

    def test_depthwise_requires_k_eq_c(self):
        with pytest.raises(SimulationError):
            ConvLayer("bad", K=8, C=16, R=3, S=3, P=4, Q=4, depthwise=True)

    def test_input_dims(self):
        layer = ConvLayer("l", K=1, C=1, R=3, S=3, P=10, Q=10, stride=2)
        assert layer.input_h == (10 - 1) * 2 + 3

    def test_invalid_dims(self):
        with pytest.raises(SimulationError):
            ConvLayer("l", K=0, C=1, R=1, S=1, P=1, Q=1)

    def test_vgg16_macs_order_of_magnitude(self):
        total = sum(layer.macs * layer.repeat for layer in get_workload("vgg16"))
        # VGG16 convs are ~15.3 GMACs
        assert 0.8e10 < total < 2.5e10

    def test_resnet18_macs_order_of_magnitude(self):
        total = sum(layer.macs * layer.repeat for layer in get_workload("resnet18"))
        # ResNet18 is ~1.8 GMACs
        assert 0.8e9 < total < 4e9


class TestArch:
    def test_default_is_eyeriss_like(self):
        assert EYERISS_LIKE.num_pes == 168

    def test_validation(self):
        with pytest.raises(SimulationError):
            AcceleratorConfig(pe_rows=0)
        for clock in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(SimulationError, match="clock_ghz"):
                AcceleratorConfig(clock_ghz=clock)
        env = TimeloopGymEnv()
        for clock in (float("nan"), float("inf")):
            with pytest.raises(SimulationError, match="clock_ghz"):
                env.evaluate({**EYERISS_LIKE.to_action(), "ClockGHz": clock})
        with pytest.raises(SimulationError):
            AcceleratorConfig(word_bytes=3)

    def test_energy_hierarchy_enforced(self):
        with pytest.raises(SimulationError):
            EnergyModel(e_spad=100.0)

    def test_area_grows_with_pes(self):
        small = AcceleratorConfig(pe_rows=4, pe_cols=4)
        big = AcceleratorConfig(pe_rows=32, pe_cols=32)
        assert big.area_mm2 > small.area_mm2

    def test_action_roundtrip(self):
        cfg = AcceleratorConfig(pe_rows=8, pe_cols=16, glb_kb=256)
        assert AcceleratorConfig.from_action(cfg.to_action()) == cfg

    def test_space_samples_valid_configs(self):
        space = accelerator_space()
        rng = np.random.default_rng(0)
        for _ in range(30):
            AcceleratorConfig.from_action(space.sample(rng))


class TestModel:
    model = TimeloopModel()

    def test_deterministic(self):
        layers = get_workload("alexnet")
        a = self.model.evaluate_network(EYERISS_LIKE, layers)
        b = self.model.evaluate_network(EYERISS_LIKE, layers)
        assert a == b

    def test_feasible_on_reference(self):
        for name in ("alexnet", "resnet50", "mobilenet"):
            m = self.model.evaluate_network(EYERISS_LIKE, get_workload(name))
            assert m["feasible"] == 1.0
            assert m["latency"] > 0
            assert m["energy"] > 0

    def test_metrics_keys(self):
        m = self.model.evaluate_network(EYERISS_LIKE, get_workload("alexnet"))
        for key in ("latency", "energy", "area", "feasible", "utilization"):
            assert key in m

    def test_more_pes_not_slower(self):
        layers = get_workload("resnet50")
        small = AcceleratorConfig(pe_rows=4, pe_cols=4, glb_bw=64, dram_bw=32)
        big = AcceleratorConfig(pe_rows=32, pe_cols=32, glb_bw=64, dram_bw=32)
        lat_small = self.model.evaluate_network(small, layers)["latency"]
        lat_big = self.model.evaluate_network(big, layers)["latency"]
        assert lat_big <= lat_small

    def test_higher_clock_not_slower(self):
        layers = get_workload("alexnet")
        slow = AcceleratorConfig(clock_ghz=0.6)
        fast = AcceleratorConfig(clock_ghz=1.8)
        assert (
            self.model.evaluate_network(fast, layers)["latency"]
            <= self.model.evaluate_network(slow, layers)["latency"]
        )

    def test_tiny_spads_infeasible(self):
        # a 1-PE design whose weight spad cannot hold even one 11x11 filter
        tiny = AcceleratorConfig(
            pe_rows=1, pe_cols=1, weight_spad_entries=16,
            ifmap_spad_entries=8, psum_spad_entries=8, glb_kb=1,
        )
        m = self.model.evaluate_network(tiny, get_workload("alexnet"))
        assert m["feasible"] == 0.0
        assert m["latency"] >= INFEASIBLE_PENALTY

    def test_layer_cost_fields(self):
        layer = get_workload("alexnet")[0]
        cost = self.model.evaluate_layer(EYERISS_LIKE, layer)
        assert cost.feasible
        assert cost.tile_k >= 1 and cost.tile_c >= 1 and cost.tile_p >= 1
        assert 0.0 < cost.utilization <= 1.0

    def test_depthwise_layer_evaluates(self):
        dw = ConvLayer("dw", K=32, C=32, R=3, S=3, P=56, Q=56, depthwise=True)
        cost = self.model.evaluate_layer(EYERISS_LIKE, dw)
        assert cost.feasible
        assert cost.tile_c == 1

    def test_bandwidth_bound_design(self):
        # starve DRAM bandwidth: latency must be dram-bound and rise
        layers = get_workload("resnet50")
        fast_mem = AcceleratorConfig(dram_bw=32)
        slow_mem = AcceleratorConfig(dram_bw=2)
        assert (
            self.model.evaluate_network(slow_mem, layers)["latency"]
            >= self.model.evaluate_network(fast_mem, layers)["latency"]
        )


# -- property-based tests ---------------------------------------------------------

arch_actions = st.builds(
    dict,
    NumPEsX=st.sampled_from((2, 4, 8, 16, 32)),
    NumPEsY=st.sampled_from((2, 4, 8, 16, 32)),
    IfmapSpadEntries=st.sampled_from((8, 16, 32, 64, 128)),
    WeightsSpadEntries=st.sampled_from((16, 32, 64, 128, 256, 512)),
    PsumSpadEntries=st.sampled_from((8, 16, 32, 64, 128)),
    GlbSizeKB=st.sampled_from((32, 64, 128, 256, 512, 1024, 2048)),
    GlbBwWordsPerCycle=st.sampled_from((4, 8, 16, 32, 64)),
    DramBwWordsPerCycle=st.sampled_from((2, 4, 8, 16, 32)),
    ClockGHz=st.sampled_from((0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8)),
)


@given(arch_actions)
@settings(max_examples=60, deadline=None)
def test_prop_model_invariants(action):
    """Every sampled architecture yields finite, positive costs (or a
    clean infeasibility penalty) on every workload family."""
    arch = AcceleratorConfig.from_action(action)
    model = TimeloopModel()
    m = model.evaluate_network(arch, get_workload("alexnet"))
    assert np.isfinite(m["latency"])
    assert m["latency"] > 0
    assert m["energy"] > 0
    assert m["area"] > 0
    assert 0.0 <= m["utilization"] <= 1.0


@given(arch_actions)
@settings(max_examples=30, deadline=None)
def test_prop_energy_scales_with_network_size(action):
    """A bigger network (more MACs) never costs less energy on the same
    architecture, when both are feasible."""
    arch = AcceleratorConfig.from_action(action)
    model = TimeloopModel()
    small = model.evaluate_network(arch, get_workload("resnet18"))
    big = model.evaluate_network(arch, get_workload("vgg16"))
    if small["feasible"] and big["feasible"]:
        assert big["energy"] >= small["energy"]
