"""Stress and concurrency tests: shared state under parallel activity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.discovery import build_service_ontology
from tests.discovery import oracle


def env_factory(**kw):
    from tests.composition.conftest import CompositionEnv

    return CompositionEnv(**kw)


class TestConcurrentCompositions:
    def test_ten_distributed_compositions_share_providers(self):
        """Role state is keyed per composition: interleaving cannot mix
        inputs across instances."""
        env = env_factory(mode="distributed")
        env.add_stream_mining_providers()
        graph = env.planner.plan("analyze-stream", {"n_partitions": 2})
        results = []
        for i in range(10):
            g = env.planner.plan("analyze-stream", {"n_partitions": 2})
            env.manager.execute(
                g, results.append,
                initial_inputs={name: {"run": i} for name in g.sources()},
            )
        env.sim.run()
        assert len(results) == 10
        assert all(r.success for r in results)
        assert env.manager.completed == 10

    def test_interleaved_modes_one_platform(self):
        """A centralized and a distributed manager coexist on one platform."""
        from repro.composition import Binder, CompositionManager

        env = env_factory(mode="centralized")
        env.add_stream_mining_providers()
        other = CompositionManager("mgr2", env.sim, Binder(env.registry),
                                   mode="distributed")
        env.platform.register(other)
        graph_a = env.planner.plan("analyze-stream", {"n_partitions": 2})
        graph_b = env.planner.plan("analyze-stream", {"n_partitions": 2})
        results = []
        env.manager.execute(graph_a, results.append)
        other.execute(graph_b, results.append)
        env.sim.run()
        assert len(results) == 2 and all(r.success for r in results)


class TestManyQueriesOneRuntime:
    def test_fifty_queries_no_state_leak(self):
        from repro.core import PervasiveGridRuntime
        from repro.workloads import QueryWorkload

        rt = PervasiveGridRuntime(n_sensors=16, area_m=30.0, seed=44,
                                  grid_resolution=12)
        wl = QueryWorkload(rt.streams.get("stress"), n_sensors=16,
                           mix=(0.4, 0.4, 0.2, 0.0), cost_prob=0.2)
        successes = 0
        for _ in range(50):
            out = rt.query(wl.next_text())
            successes += all(o.success for o in out)
        assert successes >= 48
        # batteries drained monotonically but nobody died on this budget
        assert rt.deployment.dead_sensor_count() == 0
        assert rt.energy_consumed_j() > 0


class TestOntologyInvariants:
    @settings(max_examples=20)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_dag_subsumption_transitive(self, seed):
        from repro.discovery import Ontology

        rng = np.random.default_rng(seed)
        ont = Ontology()
        names = [f"c{i}" for i in range(12)]
        for i, name in enumerate(names):
            # parents only among earlier classes: acyclic by construction
            pool = names[:i]
            if pool and rng.random() < 0.8:
                k = int(rng.integers(1, min(3, len(pool)) + 1))
                parents = [pool[int(j)] for j in rng.choice(len(pool), size=k, replace=False)]
                ont.add_class(name, parents)
            else:
                ont.add_class(name)
        # transitivity: a subsumes b and b subsumes c -> a subsumes c
        trio = rng.choice(len(names), size=3)
        a, b, c = (names[int(i)] for i in trio)
        if ont.subsumes(a, b) and ont.subsumes(b, c):
            assert ont.subsumes(a, c)
        # distance symmetry on random pairs
        assert ont.distance(a, b) == ont.distance(b, a)

    @staticmethod
    def _assert_matches_oracle(ont):
        """Every reasoning query over every class (pair) equals a fresh
        BFS over the current edges."""
        classes = ont.classes()
        for a in classes:
            assert ont.ancestors(a) == oracle.ancestors(ont, a)
            assert ont.descendants(a) == oracle.descendants(ont, a)
            assert ont.depth(a) == oracle.depth(ont, a)
            for b in classes:
                assert ont.subsumes(a, b) == oracle.subsumes(ont, a, b)
                assert (ont.least_common_subsumers(a, b)
                        == oracle.least_common_subsumers(ont, a, b))
                assert ont.distance(a, b) == oracle.distance(ont, a, b)
                for min_depth in (1, 2, 3):
                    assert (ont.related(a, b, min_depth)
                            == oracle.related(ont, a, b, min_depth))

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_cached_reasoning_matches_bfs_oracle(self, data):
        """Random DAGs grown by interleaved add_class calls -- new classes
        and new edges on existing ones, some rejected as cycles -- with
        the memoized queries checked against the oracle after each."""
        from repro.discovery import Ontology

        ont = Ontology()
        for step in range(data.draw(st.integers(1, 10), label="steps")):
            classes = ont.classes()
            existing = [c for c in classes if c != ont.root]
            if existing and data.draw(st.booleans(), label="extend an existing class"):
                name = data.draw(st.sampled_from(existing), label="class")
            else:
                name = f"c{step}"
            parents = data.draw(st.lists(st.sampled_from(classes), min_size=1,
                                         max_size=3, unique=True), label="parents")
            try:
                ont.add_class(name, parents)
            except ValueError:
                pass  # a self-edge or cycle; earlier edges of the call stay
            self._assert_matches_oracle(ont)

    def test_add_class_drops_memoized_reasoning(self):
        from repro.discovery import Ontology

        ont = Ontology()
        ont.add_class("A")
        ont.add_class("B", "A")
        ont.add_class("C", "B")
        ont.add_class("D")
        assert ont.ancestors("C") == {"B", "A", "Thing"}
        assert ont.depth("C") == 3
        assert not ont.subsumes("D", "C")
        assert ont.distance("C", "D") == 4
        ont.add_class("B", "D")  # a second parent above a memoized class
        ont.add_class("C", "Thing")  # and a shortcut to the root
        assert ont.ancestors("C") == {"B", "A", "D", "Thing"}
        assert ont.depth("C") == 1
        assert ont.subsumes("D", "C")
        assert ont.distance("C", "D") == 2
        self._assert_matches_oracle(ont)

    def test_deep_chain_operations_fast(self):
        from repro.discovery import Ontology

        ont = Ontology()
        prev = None
        for i in range(200):
            ont.add_class(f"n{i}", prev)
            prev = f"n{i}"
        assert ont.subsumes("n0", "n199")
        assert ont.depth("n199") == 200
        assert ont.distance("n0", "n199") == 199


class TestLongRunStability:
    def test_week_of_epochs_deterministic(self):
        """A long continuous query drains energy monotonically and the
        simulator stays consistent over tens of thousands of events."""
        from repro.core import PervasiveGridRuntime

        rt = PervasiveGridRuntime(n_sensors=16, area_m=30.0, seed=45,
                                  battery_j=0.5, grid_resolution=12)
        energies = []
        rt.submit("SELECT AVG(value) FROM sensors EPOCH DURATION 30 FOR 30000",
                  lambda o: None,
                  on_epoch=lambda o: energies.append(rt.deployment.total_sensor_energy_consumed()))
        rt.sim.run(until=40000.0)
        assert len(energies) == 1000
        assert all(b >= a for a, b in zip(energies, energies[1:]))
        assert rt.sim.events_executed >= 2 * 1000 - 1  # completion + epoch tick each
