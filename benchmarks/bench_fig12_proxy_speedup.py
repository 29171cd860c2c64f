"""Fig. 12 — proxy cost-model speedup and RMSE vs the simulator.

Paper experiment: a random-forest proxy trained on a diverse ArchGym
dataset replaces the DRAM simulator, achieving ~2000x speedup at <1%
RMSE. Our simulator substrate is itself transaction-level (orders of
magnitude faster than the cycle-accurate DRAMSys the paper measures
against), so the *ratio* here is far below 2000x: 68-74x over 7 runs
on a 2-core x86 box (simulator ~0.42 ms per query, forest ~5.9 us per
batched query). The ratio divides one kernel's speed by another's, so
a faster DRAM kernel lowers it and a faster forest predict raises it.
The claims asserted are

1. the proxy is at least 50x faster per query than the simulator
   (batched inference),
2. the power model's relative RMSE on a common test set is small
   (single-digit percent at this scaled-down dataset size).
"""

import time

import numpy as np

from repro.proxy import ProxyCostModel

from _proxy_common import TARGETS, collect_datasets, make_env, uniform_test_set

TRAIN_SIZE = 1500
BATCH = 2000


def run_fig12():
    diverse, __ = collect_datasets()
    X_test, Y_test = uniform_test_set()
    env = make_env()
    rng = np.random.default_rng(8)

    proxy = ProxyCostModel(env.action_space, TARGETS).fit_with_search(
        diverse.sample(min(TRAIN_SIZE, len(diverse)), rng), n_trials=4, seed=0
    )
    rel_rmse = proxy.evaluate_relative(X_test, Y_test)

    # simulator time per query: best of three passes over fresh actions
    # (min-of-N suppresses scheduler noise inside long benchmark runs)
    actions = [env.action_space.sample(rng) for _ in range(10)]
    sim_times = []
    for __ in range(3):
        t0 = time.perf_counter()
        for a in actions:
            env.evaluate(a)
        sim_times.append((time.perf_counter() - t0) / len(actions))
    sim_per_query = min(sim_times)

    # proxy time per query, batched (the deployment mode: agents query in
    # batches, e.g. BO candidate pools or GA generations); best of three
    Xq = np.stack(
        [env.action_space.to_unit_vector(env.action_space.sample(rng))
         for __ in range(BATCH)]
    )
    proxy_times = []
    for __ in range(3):
        t0 = time.perf_counter()
        proxy.predict_matrix(Xq)
        proxy_times.append((time.perf_counter() - t0) / BATCH)
    proxy_per_query = min(proxy_times)

    return {
        "rel_rmse": rel_rmse,
        "sim_per_query_s": sim_per_query,
        "proxy_per_query_s": proxy_per_query,
        "speedup": sim_per_query / proxy_per_query,
    }


def test_fig12_proxy_speedup_and_rmse(run_once):
    out = run_once(run_fig12)

    print("\n=== Fig. 12: proxy speedup and RMSE ===")
    print(f"simulator:  {out['sim_per_query_s'] * 1e3:8.3f} ms/query")
    print(f"proxy:      {out['proxy_per_query_s'] * 1e6:8.2f} us/query (batched)")
    print(f"speedup:    {out['speedup']:8.0f} x")
    for t in TARGETS:
        print(f"rel RMSE {t:8s}: {out['rel_rmse'][t] * 100:6.2f} %")

    # claim 1: orders of magnitude faster than the (already fast)
    # transaction-level simulator substrate; the threshold carries slack
    # for machine-load variance within a full benchmark run
    assert out["speedup"] >= 50, f"speedup only {out['speedup']:.0f}x"

    # claim 2: power proxy in the single-digit-percent error regime
    assert out["rel_rmse"]["power"] < 0.08, (
        f"power RMSE too high: {out['rel_rmse']['power'] * 100:.2f}%"
    )
