"""Parity of the planned FARSI list scheduler with the per-call graph
walk it replaced (``farsi_reference.ReferenceFarsiSimulator``):
``simulate`` must return the reference's ``SocResult`` bit for bit —
every float field equal under ``float.hex``, ``assignment`` and
``pe_busy_ms`` in the same key order — on any task graph (every kind,
zero-KiB edges, repeated demands that tie the EFT choice, edges added in
any order) and any SoC (every slot option, none at all, repeated PE
types, bus and memory settings on and off the action grid), on every
packaged workload, and after the graph changes under a plan it has
already built. Where the reference's makespan or power is not finite,
``simulate`` must raise ``SimulationError`` instead."""

import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from farsi_reference import ReferenceFarsiSimulator

from repro.core.errors import SimulationError
from repro.farsi import (
    FARSI_WORKLOADS,
    N_SLOTS,
    TASK_KINDS,
    FarsiSimulator,
    SoCConfig,
    Task,
    TaskGraph,
    soc_space,
)
from repro.farsi.soc import SLOT_OPTIONS

SPACE = soc_space()


def grid(name):
    """The action grid of one ``soc_space`` parameter."""
    param = next(p for p in SPACE.parameters if p.name == name)
    return [param.from_index(i) for i in range(param.cardinality)]


def exact(result):
    """Every ``SocResult`` field, floats by their bits, dicts in order."""
    return (
        float.hex(result.makespan_ms),
        float.hex(result.power_mw),
        float.hex(result.area_mm2),
        result.feasible,
        list(result.assignment.items()),
        [(label, float.hex(ms)) for label, ms in result.pe_busy_ms.items()],
        float.hex(result.comm_ms),
    )


def assert_matches_reference(config, graph):
    """The planned result, bit-equal to the reference's; ``None`` when
    the reference's makespan or power is not finite, which the planned
    simulator must refuse."""
    want = ReferenceFarsiSimulator().simulate(config, graph)
    if not (math.isfinite(want.makespan_ms) and math.isfinite(want.power_mw)):
        with pytest.raises(SimulationError, match="not finite"):
            FarsiSimulator().simulate(config, graph)
        return None
    got = FarsiSimulator().simulate(config, graph)
    assert exact(got) == exact(want)
    return got


#: Compute demands: a few shared values, so that EFTs tie, or any.
demands = st.one_of(
    st.sampled_from((100.0, 250.0, 1000.0)), st.floats(1e-3, 1e5)
)

#: Edge volumes: none, a few shared values, or any.
volumes = st.one_of(
    st.just(0.0), st.sampled_from((16.0, 64.0, 300.0)), st.floats(0.0, 1e4)
)


@st.composite
def task_graphs(draw):
    """A DAG of 1–16 tasks: tasks added in one drawn order; each pair of
    distinct ranks an edge (lower to higher) at a drawn density, the
    edges added in shuffled order."""
    n = draw(st.integers(1, 16))
    rank = draw(st.permutations(range(n)))
    graph = TaskGraph("drawn")
    for i in draw(st.permutations(range(n))):
        graph.add_task(
            Task(f"t{i}", mops=draw(demands), kind=draw(st.sampled_from(TASK_KINDS)))
        )
    rnd = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from((0.1, 0.3, 0.6, 1.0)))
    edges = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if rank[i] < rank[j] and rnd.random() < density
    ]
    rnd.shuffle(edges)
    for i, j in edges:
        graph.add_edge(f"t{i}", f"t{j}", kib=draw(volumes))
    return graph


frequencies = st.one_of(
    st.sampled_from(grid("NoC_Freq")), st.floats(1e-3, 100.0)
)

socs = st.builds(
    SoCConfig,
    slots=st.one_of(
        st.just(("None",) * N_SLOTS),
        st.tuples(*[st.sampled_from(SLOT_OPTIONS)] * N_SLOTS),
    ),
    noc_bus_width_bits=st.one_of(
        st.sampled_from(grid("NoC_BusWidth")), st.integers(8, 4096)
    ),
    noc_freq_ghz=frequencies,
    mem_freq_ghz=frequencies,
    mem_channels=st.one_of(st.integers(1, 4), st.integers(5, 64)),
)

#: Designs exactly as agents propose them: a grid value per parameter.
actions = st.fixed_dictionaries(
    {
        p.name: st.integers(0, p.cardinality - 1).map(p.from_index)
        for p in SPACE.parameters
    }
)


@given(config=socs, graph=task_graphs())
@settings(max_examples=200, deadline=None)
def test_prop_random_graphs_match_reference(config, graph):
    assert_matches_reference(config, graph)


@given(action=actions, workload=st.sampled_from(sorted(FARSI_WORKLOADS)))
@settings(max_examples=150, deadline=None)
def test_prop_workloads_match_reference(action, workload):
    assert_matches_reference(
        SoCConfig.from_action(action), FARSI_WORKLOADS[workload].graph
    )


@given(config=socs, graph=task_graphs(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_prop_changed_graph_is_planned_again(config, graph, data):
    """One more edge on its own after a simulate, then a refused cycle
    edge: each change drops the plan, and the next call matches the
    reference on the changed graph."""
    assert_matches_reference(config, graph)
    names = list(graph.plan().names)
    edges = {(u, v) for u, v, _ in graph.edges()}
    # names are in topological order, so an edge forward stays acyclic
    forward = [
        (u, v)
        for a, u in enumerate(names)
        for v in names[a + 1:]
        if (u, v) not in edges
    ]
    if forward:
        u, v = data.draw(st.sampled_from(forward))
        planned = graph.plan()
        graph.add_edge(u, v, kib=data.draw(volumes))
        assert_matches_reference(config, graph)
        assert graph.plan() is not planned
    existing = list(graph.edges())
    if existing:
        u, v, _ = data.draw(st.sampled_from(existing))
        planned = graph.plan()
        with pytest.raises(SimulationError, match="cycle"):
            graph.add_edge(v, u, kib=1.0)
        assert graph.plan() is not planned
        assert_matches_reference(config, graph)


def two_bigcores():
    return SoCConfig(slots=("BigCore", "BigCore") + ("None",) * (N_SLOTS - 2))


def test_edge_added_after_simulate_is_scheduled():
    """Two independent tasks run side by side; once ``a`` feeds ``b``,
    ``b`` waits for it on the same core."""
    graph = TaskGraph("pair")
    graph.add_task(Task("a", mops=1000.0))
    graph.add_task(Task("b", mops=1000.0))
    before = assert_matches_reference(two_bigcores(), graph)
    assert before.assignment == {"a": "BigCore#0", "b": "BigCore#1"}
    graph.add_edge("a", "b", kib=1.0)
    after = assert_matches_reference(two_bigcores(), graph)
    assert after.assignment == {"a": "BigCore#0", "b": "BigCore#0"}
    assert after.makespan_ms == 2 * before.makespan_ms


def test_task_added_after_simulate_is_scheduled():
    graph = TaskGraph("grow")
    graph.add_task(Task("a", mops=1000.0))
    assert_matches_reference(two_bigcores(), graph)
    graph.add_task(Task("b", mops=500.0, kind="dsp"))
    graph.add_edge("b", "a", kib=8.0)
    result = assert_matches_reference(two_bigcores(), graph)
    assert list(result.assignment) == ["b", "a"]


def fan_in(edge_order):
    """Three producers that finish at different times, each feeding a
    DSP-kind consumer; edges added in ``edge_order``."""
    graph = TaskGraph("fan-in")
    for name, mops in (("late", 3000.0), ("early", 100.0), ("mid", 1000.0)):
        graph.add_task(Task(name, mops=mops))
    graph.add_task(Task("c", mops=30000.0, kind="dsp"))
    kib = {"late": 40.0, "early": 30.0, "mid": 60.0}
    for name in edge_order:
        graph.add_edge(name, "c", kib=kib[name])
    return graph


def test_bus_serializes_inputs_in_predecessor_order():
    """The producers run on three BigCores and ``c`` on the DSP, so all
    three inputs cross the bus, one after another in
    ``graph.predecessors`` order: fetching the late one first holds the
    other two behind it."""
    soc = SoCConfig(slots=("BigCore",) * 3 + ("DSP",) + ("None",) * (N_SLOTS - 4))
    late_first = assert_matches_reference(soc, fan_in(("late", "early", "mid")))
    late_last = assert_matches_reference(soc, fan_in(("mid", "early", "late")))
    for result in (late_first, late_last):
        assert list(result.assignment.values()) == [
            "BigCore#0", "BigCore#1", "BigCore#2", "DSP#3"
        ]
    assert late_first.makespan_ms > late_last.makespan_ms


def test_overflowing_transfer_is_refused():
    """A volume so large that its transfer time overflows to infinity
    leaves every PE infinitely late for ``c``. The reference reports
    that schedule as feasible with an infinite makespan and NaN power;
    the planned simulator refuses it."""
    graph = TaskGraph("overflow")
    for name in ("a", "b", "c"):
        graph.add_task(Task(name, mops=1000.0))
    graph.add_edge("a", "c", kib=1e306)
    graph.add_edge("b", "c", kib=1e306)
    cores = SoCConfig(slots=("BigCore", "BigCore", "DSP") + ("None",) * (N_SLOTS - 3))
    reference = ReferenceFarsiSimulator().simulate(cores, graph)
    assert reference.feasible and reference.comm_ms == math.inf
    assert reference.makespan_ms == math.inf and math.isnan(reference.power_mw)
    assert assert_matches_reference(cores, graph) is None


def test_empty_graph_and_no_pe_match_reference():
    for simulator in (FarsiSimulator(), ReferenceFarsiSimulator()):
        with pytest.raises(SimulationError, match="empty"):
            simulator.simulate(two_bigcores(), TaskGraph("empty"))
    no_pes = SoCConfig(slots=("None",) * N_SLOTS)
    assert not assert_matches_reference(no_pes, FARSI_WORKLOADS["audio_decoder"].graph).feasible


def test_import_builds_no_plan():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import repro; "
        "import repro.envs.farsi_env; "
        "from repro.farsi import FARSI_WORKLOADS; "
        "print(sum(w.graph._plan is not None for w in FARSI_WORKLOADS.values()))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(src)],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "0"
