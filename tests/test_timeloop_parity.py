"""Parity of the Timeloop mapper's single array pass with the per-layer
mapper it replaced (``timeloop_reference.ReferenceTimeloopModel``):
``evaluate_network`` must return the reference's dict — equal values in
the same key order — and ``evaluate_layer`` the reference's
``LayerCost`` field for field, on any layer (depthwise, repeated, or
above the 4096 tiling-grid cap), any network of them (duplicates and
every ``DNN_WORKLOADS`` entry included), any architecture and any energy
model. The property run must reach all-feasible, partly infeasible and
all-infeasible networks."""

import itertools
import subprocess
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from timeloop_reference import ReferenceTimeloopModel

from repro.dnn import DNN_WORKLOADS, ConvLayer, get_workload
from repro.timeloop import EYERISS_LIKE, AcceleratorConfig, EnergyModel, TimeloopModel
from repro.timeloop.model import _network_plan

#: Tile dimensions that reach past the 4096 grid cap, where the grid
#: stops at 4096 and leaves the dimension itself out.
BEYOND_CAP = (4095, 4096, 4097, 6000, 8192)


@st.composite
def conv_layers(draw):
    depthwise = draw(st.booleans())
    K = draw(st.one_of(st.integers(1, 300), st.sampled_from(BEYOND_CAP)))
    return ConvLayer(
        name=draw(st.sampled_from(("a", "b", "conv"))),
        K=K,
        C=K if depthwise else draw(st.integers(1, 600)),
        R=draw(st.integers(1, 11)),
        S=draw(st.integers(1, 11)),
        P=draw(st.one_of(st.integers(1, 300), st.sampled_from(BEYOND_CAP))),
        Q=draw(st.integers(1, 300)),
        stride=draw(st.integers(1, 4)),
        N=draw(st.integers(1, 3)),
        depthwise=depthwise,
        repeat=draw(st.integers(1, 8)),
    )


@st.composite
def random_networks(draw):
    """1–12 layers drawn from a pool of at most 6, so duplicates are common."""
    pool = draw(st.lists(conv_layers(), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    return tuple(pool[i] for i in picks)


networks = st.one_of(
    random_networks(), st.sampled_from([DNN_WORKLOADS[name] for name in sorted(DNN_WORKLOADS)])
)

#: Array and buffer sizes: mostly anywhere in a wide range, often tiny,
#: so that every feasibility outcome shows up.
sizes = st.one_of(st.integers(1, 4), st.integers(1, 4096))

architectures = st.builds(
    AcceleratorConfig,
    pe_rows=st.integers(1, 64),
    pe_cols=st.integers(1, 64),
    ifmap_spad_entries=sizes,
    weight_spad_entries=sizes,
    psum_spad_entries=sizes,
    glb_kb=st.one_of(st.integers(1, 4), st.integers(1, 8192)),
    glb_bw=st.integers(1, 512),
    dram_bw=st.integers(1, 512),
    clock_ghz=st.floats(min_value=1e-3, max_value=1e3),
    word_bytes=st.sampled_from((1, 2, 4)),
)


@st.composite
def energy_models(draw):
    """Any energies that keep the spad < glb < dram order."""
    spad, glb, dram = sorted(
        draw(st.lists(st.floats(1e-3, 100.0), min_size=3, max_size=3, unique=True))
    )
    return EnergyModel(
        e_mac=draw(st.floats(0.0, 10.0)), e_spad=spad, e_glb=glb, e_dram=dram,
        e_noc=draw(st.floats(0.0, 10.0)),
    )


#: Feasibility outcomes the property run reached.
REACHED = Counter()


def assert_matches_reference(arch, layers, energy):
    new = TimeloopModel(energy)
    ref = ReferenceTimeloopModel(energy)
    got = new.evaluate_network(arch, layers)
    assert list(got.items()) == list(ref.evaluate_network(arch, layers).items())
    feasible = []
    for layer in layers:
        cost = new.evaluate_layer(arch, layer)
        assert asdict(cost) == asdict(ref.evaluate_layer(arch, layer))
        feasible.append(cost.feasible)
    assert got["feasible"] == float(all(feasible))
    return feasible


@given(arch=architectures, layers=networks, energy=energy_models())
@settings(max_examples=250, deadline=None)
def check_networks_match_reference(arch, layers, energy):
    feasible = assert_matches_reference(arch, layers, energy)
    if all(feasible):
        REACHED["all feasible"] += 1
    elif any(feasible):
        REACHED["partly infeasible"] += 1
    else:
        REACHED["all infeasible"] += 1


def test_prop_networks_match_reference():
    REACHED.clear()
    check_networks_match_reference()
    assert set(REACHED) == {"all feasible", "partly infeasible", "all infeasible"}, REACHED


def test_residency_boundaries_match_reference():
    """Weights (1,024 words) and inputs (1,024 words) exactly at, under
    and over half of the global buffer, where each DRAM branch flips. The psum spad keeps the P and K tiles below the
    whole dimension, so the two branches cost differently."""
    weights_edge = ConvLayer("w", K=16, C=16, R=2, S=2, P=64, Q=64)
    inputs_edge = ConvLayer("i", K=1024, C=16, R=1, S=1, P=8, Q=8)
    assert weights_edge.weight_words == inputs_edge.input_words == 1024
    for glb_kb, word_bytes in itertools.product((1, 2, 4, 8, 16), (1, 2, 4)):
        arch = AcceleratorConfig(glb_kb=glb_kb, word_bytes=word_bytes)
        assert_matches_reference(arch, (weights_edge, inputs_edge), EnergyModel())


def test_empty_network_matches_reference():
    assert list(TimeloopModel().evaluate_network(EYERISS_LIKE, []).items()) == list(
        ReferenceTimeloopModel().evaluate_network(EYERISS_LIKE, []).items()
    )


def test_plan_is_shared_across_models():
    layers = get_workload("alexnet")
    TimeloopModel().evaluate_network(EYERISS_LIKE, layers)
    plan = _network_plan(layers)
    TimeloopModel().evaluate_network(EYERISS_LIKE, list(layers))
    assert _network_plan(tuple(layers)) is plan


def test_import_builds_no_plan():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import repro; "
        "import repro.envs.timeloop_env; "
        "from repro.timeloop.model import _network_plan; "
        "print(_network_plan.cache_info().currsize)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(src)],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "0"
