"""Fig. 3 — the four environments' design spaces (setup artifact).

Fig. 3 of the paper tabulates each environment's parameters and total
search-space size (1.9e7 / 2e14 / 1.6e17 / 1e24 at the paper's full
granularity). Our grids keep every parameter axis at reduced
granularity (each environment's action-space builder documents its
grid, e.g. ``repro.dramsys.config.controller_space``); this bench
prints the table and asserts the structural properties the experiments
rely on: mixed categorical/numeric axes and intractably large
cardinalities.
"""

from repro.envs.dram import DRAMGymEnv
from repro.envs.farsi_env import FARSIGymEnv
from repro.envs.maestro_env import MaestroGymEnv
from repro.envs.timeloop_env import TimeloopGymEnv
from repro.core.spaces import Categorical


def run_fig3():
    envs = {
        "DRAMGym": DRAMGymEnv(workload="stream", n_requests=10),
        "TimeloopGym": TimeloopGymEnv(workload="alexnet"),
        "FARSIGym": FARSIGymEnv(workload="audio_decoder"),
        "MaestroGym": MaestroGymEnv(workload="resnet18"),
    }
    return {
        label: {
            "dimension": env.action_space.dimension,
            "cardinality": env.action_space.cardinality,
            "n_categorical": sum(
                isinstance(p, Categorical) for p in env.action_space
            ),
            "parameters": env.action_space.names,
        }
        for label, env in envs.items()
    }


def test_fig3_search_space_table(run_once):
    table = run_once(run_fig3)

    print("\n=== Fig. 3: design spaces ===")
    for label, row in table.items():
        print(f"\n[{label}] dim={row['dimension']} |A|={row['cardinality']:.3g} "
              f"categorical={row['n_categorical']}")
        print("  " + ", ".join(row["parameters"]))

    for label, row in table.items():
        # every space mixes symbolic choices with graded (pow2 / stepped)
        # numeric axes; pow2 grids are represented as ordered categoricals,
        # so the structural requirement is: at least one categorical axis
        # and a non-trivial dimension count
        assert row["n_categorical"] > 0, label
        assert row["dimension"] >= 9, label
        # far beyond exhaustive search at DSE budgets
        assert row["cardinality"] > 1e6, label

    # the paper's ordering of space sizes: DRAM < Timeloop/FARSI < Maestro
    assert table["DRAMGym"]["cardinality"] < table["MaestroGym"]["cardinality"]
