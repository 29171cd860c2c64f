"""Parity of the DRAM simulator's flat event loop with the loop it
replaced (``dramsys_reference._Run``): every ``SimResult`` field,
``energy_breakdown_nj`` included, must have the same ``repr`` on any
device, trace and controller configuration — including values outside
the DRAMGym action space that ``ControllerConfig`` still accepts. The
``repr`` tells -0.0 from 0.0 and compares NaN, where ``==`` does neither.
Buffers of up to 64 requests keep the ReadWrite and Bankwise views of
the scheduler buffer holding many requests per direction and per bank."""

import itertools
from dataclasses import asdict, replace

from dramsys_reference import _Run
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dramsys import (
    ARBITERS,
    DDR3_1600,
    DDR4_2400,
    LPDDR4_3200,
    PAGE_POLICIES,
    REFRESH_POLICIES,
    RESP_QUEUE_POLICIES,
    SCHEDULER_BUFFERS,
    SCHEDULERS,
    TRACE_NAMES,
    ControllerConfig,
    DramSimulator,
    generate_trace,
)

DEVICES = (
    DDR4_2400,
    DDR3_1600,
    LPDDR4_3200,
    replace(DDR4_2400, name="DDR4-2400-row", address_mapping="row_interleaved"),
)

configs = st.builds(
    ControllerConfig,
    page_policy=st.sampled_from(PAGE_POLICIES),
    scheduler=st.sampled_from(SCHEDULERS),
    scheduler_buffer=st.sampled_from(SCHEDULER_BUFFERS),
    request_buffer_size=st.integers(1, 64),
    resp_queue_policy=st.sampled_from(RESP_QUEUE_POLICIES),
    refresh_policy=st.sampled_from(REFRESH_POLICIES),
    refresh_max_postponed=st.integers(0, 8),
    refresh_max_pulledin=st.integers(0, 8),
    arbiter=st.sampled_from(ARBITERS),
    max_active_transactions=st.integers(1, 256),
)


def reference(device, config, trace):
    return repr(asdict(_Run(device, config, trace).execute()))


@given(
    device=st.sampled_from(DEVICES),
    trace_name=st.sampled_from(TRACE_NAMES),
    trace_seed=st.integers(0, 5),
    n_requests=st.integers(1, 300),
    config=configs,
)
@settings(max_examples=200, deadline=None)
def test_prop_matches_reference(device, trace_name, trace_seed, n_requests, config):
    trace = generate_trace(trace_name, n_requests, seed=trace_seed)
    result = DramSimulator(device).simulate(config, trace)
    assert repr(asdict(result)) == reference(device, config, trace)


def test_every_categorical_combination_matches_reference():
    trace = generate_trace("cloud-2", 120, seed=4)
    simulator = DramSimulator(DDR3_1600)
    for page, sched, org, resp, refresh, arbiter in itertools.product(
        PAGE_POLICIES, SCHEDULERS, SCHEDULER_BUFFERS,
        RESP_QUEUE_POLICIES, REFRESH_POLICIES, ARBITERS,
    ):
        config = ControllerConfig(
            page_policy=page, scheduler=sched, scheduler_buffer=org,
            request_buffer_size=6, resp_queue_policy=resp,
            refresh_policy=refresh, refresh_max_postponed=2,
            refresh_max_pulledin=3, arbiter=arbiter, max_active_transactions=4,
        )
        assert repr(asdict(simulator.simulate(config, trace))) == reference(
            DDR3_1600, config, trace
        ), config


def test_reused_simulator_matches_fresh_ones():
    """The per-instance decode memo: trace A, then B, then A again on one
    simulator gives what fresh simulators give, as does a device swap."""
    a = generate_trace("stream", 200, seed=1)
    b = generate_trace("random", 200, seed=2)
    config = ControllerConfig(page_policy="ClosedAdaptive", scheduler_buffer="Bankwise")
    reused = DramSimulator()
    for trace in (a, b, a):
        assert repr(reused.simulate(config, trace)) == repr(
            DramSimulator().simulate(config, trace)
        )
    reused.device = DEVICES[-1]
    assert repr(reused.simulate(config, a)) == repr(
        DramSimulator(DEVICES[-1]).simulate(config, a)
    )
