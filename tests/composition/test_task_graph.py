"""``TaskGraph`` against networkx as the oracle: random edge scripts must
give the same cycle rejections, topological order (ties broken
lexicographically), level schedule and neighbour lists."""

import os
import pathlib
import subprocess
import sys

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.composition import TaskGraph, TaskSpec

NAMES = [f"t{i}" for i in range(12)]

names = st.lists(st.sampled_from(NAMES), min_size=1, max_size=len(NAMES), unique=True)
edges = st.lists(st.tuples(st.integers(0, len(NAMES) - 1),
                           st.integers(0, len(NAMES) - 1)), max_size=40)


@settings(max_examples=300, deadline=None)
@given(names, edges)
def test_matches_networkx(tasks, attempts):
    graph, oracle = TaskGraph(), nx.DiGraph()
    for name in tasks:
        graph.add_task(TaskSpec(name, "ComputeService"))
        oracle.add_node(name)
    for a, b in attempts:
        producer, consumer = tasks[a % len(tasks)], tasks[b % len(tasks)]
        trial = oracle.copy()
        trial.add_edge(producer, consumer)
        cyclic = not nx.is_directed_acyclic_graph(trial)
        try:
            graph.add_edge(producer, consumer)
            rejected = False
        except ValueError:
            rejected = True
        assert rejected == cyclic
        if not cyclic:
            oracle = trial
    assert graph.topological_order() == list(nx.lexicographical_topological_sort(oracle))
    assert graph.levels() == [sorted(g) for g in nx.topological_generations(oracle)]
    for name in tasks:
        assert graph.predecessors(name) == sorted(oracle.predecessors(name))
        assert graph.successors(name) == sorted(oracle.successors(name))
    assert graph.sources() == sorted(n for n in oracle if oracle.in_degree(n) == 0)
    assert graph.sinks() == sorted(n for n in oracle if oracle.out_degree(n) == 0)


def test_composition_imports_without_networkx():
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    code = "import sys; sys.modules['networkx'] = None; import repro.composition"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})
