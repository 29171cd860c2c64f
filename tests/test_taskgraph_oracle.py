"""``TaskGraph`` against networkx, the graph library it used to wrap.

A ``TaskGraph`` keeps its edges in two insertion-ordered dicts and
orders its tasks with one Kahn pass. Each drawn script is played twice:
on a ``TaskGraph``, and on an ``nx.DiGraph`` driven the way the graph
drove it before (add the edge, ``is_directed_acyclic_graph``, remove it
again on a cycle). Tasks come in a drawn order and edges in a drawn
order, interleaved with them: any ordered pair, so self-loops and back
edges, and re-adds of an earlier pair with a new volume. After every
step both must agree on the accept or refuse decision, the topological
order, every task's predecessors (names, volumes and order), the edge
list and the task order; and every ``add_edge``, refused or not, must
drop the plan. networkx is a test-only dependency; without it this
module is skipped.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.farsi import Task, TaskGraph

nx = pytest.importorskip("networkx")

#: Edge volumes: a few shared values, or any.
volumes = st.one_of(st.sampled_from((0.0, 16.0, 300.0)), st.floats(0.0, 1e4))

#: Edge outcomes the property run reached.
REACHED = Counter()


@st.composite
def scripts(draw):
    """``("task", name)`` and ``("edge", u, v, kib)`` steps: 1–10 tasks in
    a drawn order, each followed by 0–4 edges among the tasks added so
    far, half of which re-add an earlier pair."""
    names = [f"t{i}" for i in draw(st.permutations(range(draw(st.integers(1, 10)))))]
    script, pairs = [], []
    for k, name in enumerate(names):
        script.append(("task", name))
        added = st.sampled_from(names[: k + 1])
        for _ in range(draw(st.integers(0, 4))):
            if pairs and draw(st.booleans()):
                u, v = draw(st.sampled_from(pairs))
            else:
                u, v = draw(added), draw(added)
            pairs.append((u, v))
            script.append(("edge", u, v, draw(volumes)))
    return script


def oracle_add_edge(G, u, v, kib):
    """The edge as the graph added it on networkx: ``True`` if kept."""
    G.add_edge(u, v, kib=float(kib))
    if not nx.is_directed_acyclic_graph(G):
        G.remove_edge(u, v)
        return False
    return True


def assert_same_graph(graph, G):
    assert [t.name for t in graph.tasks] == list(G.nodes)
    order = list(nx.topological_sort(G))
    assert [t.name for t in graph.topological_order()] == order
    assert graph.plan().names == tuple(order)
    for name in G.nodes:
        assert [(p.name, kib) for p, kib in graph.predecessors(name)] == [
            (p, G.edges[p, name]["kib"]) for p in G.predecessors(name)
        ]
    assert list(graph.edges()) == list(G.edges(data="kib"))


@given(script=scripts())
@settings(max_examples=300, deadline=None)
def check_graphs_match_networkx(script):
    graph, G = TaskGraph("drawn"), nx.DiGraph()
    for step in script:
        if step[0] == "task":
            graph.add_task(Task(step[1], mops=1.0))
            G.add_node(step[1])
        else:
            _, u, v, kib = step
            existed = G.has_edge(u, v)
            planned = graph.plan()
            if oracle_add_edge(G, u, v, kib):
                graph.add_edge(u, v, kib)
                REACHED["re-added" if existed else "added"] += 1
            else:
                with pytest.raises(SimulationError, match="cycle"):
                    graph.add_edge(u, v, kib)
                REACHED["self-loop refused" if u == v else "back edge refused"] += 1
            assert graph.plan() is not planned
        assert_same_graph(graph, G)


def test_prop_graphs_match_networkx():
    REACHED.clear()
    check_graphs_match_networkx()
    assert set(REACHED) == {
        "added", "re-added", "self-loop refused", "back edge refused"
    }, REACHED
