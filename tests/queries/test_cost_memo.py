"""The per-version memo of the query path's cost pieces against the
per-call oracle in ``tests/queries/oracle.py``.

A small deployment goes through random topology changes (kill, revive,
move, move_all, block/unblock links), radio swaps that do not bump the
topology version (``LinkDegradation`` inject and recover), battery
drains, and Decision Maker estimates.  After every step each memoized
piece must equal its oracle bit for bit, for a random target list and a
random WHERE clause, at every ``rooms_per_side``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DecisionMaker, EstimateGreedyPolicy
from repro.faults import FaultDomain, LinkDegradation
from repro.queries.ast import Predicate, Query, SelectItem
from repro.queries.models import ALL_MODELS, RegionAverageModel, collection
from repro.queries.models.base import QUERY_BITS, READING_BITS
from repro.queries.targets import select_targets
from tests.queries import oracle
from tests.queries.test_models import make_ctx

N_SENSORS = 16
AREA = 40.0
QUERY = Query(select=(SelectItem("value", "AVG"),), raw="SELECT AVG(value) FROM sensors")

node_ids = st.integers(0, N_SENSORS + 1)  # sensors, base station, handheld
sensor_ids = st.integers(0, N_SENSORS - 1)
coords = st.floats(0.0, AREA, allow_nan=False)
groups = st.lists(node_ids, min_size=1, max_size=4, unique=True)

steps = st.one_of(
    st.tuples(st.just("kill"), node_ids),
    st.tuples(st.just("revive"), node_ids),
    st.tuples(st.just("move"), node_ids, coords, coords),
    st.tuples(st.just("move_all"), st.integers(0, 2**16)),
    st.tuples(st.just("block"), groups, groups),
    st.tuples(st.just("unblock"), groups, groups),
    st.tuples(st.just("degrade"), st.sampled_from([0.5, 2.0, 4.0])),
    st.tuples(st.just("recover")),
    st.tuples(st.just("drain"), sensor_ids, st.sampled_from([1e-4, 1e-3, 1.0])),
    st.tuples(st.just("estimate"), st.permutations(range(N_SENSORS)), st.integers(1, N_SENSORS)),
)

predicates = st.one_of(
    st.builds(Predicate, st.just("sensor_id"), st.sampled_from(["=", "!=", "<", ">="]),
              st.integers(0, N_SENSORS)),
    st.builds(Predicate, st.just("room"), st.sampled_from(["=", "!=", "<=", ">"]),
              st.integers(1, 9)),
    st.builds(Predicate, st.sampled_from(["x", "y"]), st.sampled_from(["<", ">="]),
              st.floats(0.0, AREA, allow_nan=False)),
    st.builds(Predicate, st.just("value"), st.just(">"), st.just(20.0)),
)


def check_flood(dep):
    got = collection.flood_cost(dep, QUERY_BITS)
    want = oracle.flood_cost(dep, QUERY_BITS)
    assert got.per_node_energy.tobytes() == want.per_node_energy.tobytes()
    assert (got.latency_s, got.messages, got.energy_j) == \
        (want.latency_s, want.messages, want.energy_j)
    assert got.reached == want.reached and isinstance(got.reached, frozenset)
    with pytest.raises(ValueError):
        got.per_node_energy[0] = 1.0


def check_tree(dep, targets):
    got = collection.build_tree(dep)
    want = oracle.build_tree(dep)
    assert got.root == want.root
    assert got.parent == want.parent
    assert dict(got.children) == dict(want.children)
    assert got.depth_of == want.depth_of
    depths = [want.depth_of[t] for t in targets if t in want.parent]
    assert collection.mean_target_depth(dep, targets) == \
        (float(np.mean(depths)) if depths else 0.0)


def check_collection(got, want):
    assert got.per_node_energy.tobytes() == want.per_node_energy.tobytes()
    assert (got.latency_s, got.messages, got.bits_total) == \
        (want.latency_s, want.messages, want.bits_total)
    assert got.participating == want.participating
    assert isinstance(got.participating, frozenset)
    with pytest.raises(ValueError):
        got.per_node_energy[0] = 1.0


def check_region(ctx, targets):
    model = RegionAverageModel(regions_per_side=3)
    groups, reps, per_node, messages = model._members(ctx, targets)
    want_groups, want_reps, want_per_node, want_messages = \
        oracle.region_member_phase(model, ctx, targets)
    assert list(groups.items()) == [(r, tuple(m)) for r, m in want_groups.items()]
    assert list(reps) == want_reps
    assert per_node.tobytes() == want_per_node.tobytes()
    assert messages == want_messages
    with pytest.raises(ValueError):
        per_node[0] = 1.0


def check_pieces(ctx, targets, where):
    dep = ctx.deployment
    check_flood(dep)
    check_tree(dep, targets)
    for bits in (READING_BITS, 2 * READING_BITS):
        check_collection(collection.raw_collection(dep, targets, bits),
                         oracle.raw_collection(dep, targets, bits))
        check_collection(collection.aggregated_collection(dep, targets, bits),
                         oracle.aggregated_collection(dep, targets, bits))
    check_region(ctx, targets)
    query = Query(select=QUERY.select, where=where)
    for rooms in (3, 1, 2, 4):
        assert select_targets(dep, query, rooms) == \
            oracle.select_targets(dep, query, rooms)


@settings(max_examples=60, deadline=None)
@given(plan=st.lists(st.tuples(steps, st.lists(predicates, max_size=3)),
                     min_size=1, max_size=14),
       first=st.permutations(range(N_SENSORS)))
def test_memoized_pieces_match_per_call_oracle(plan, first):
    ctx = make_ctx(n=N_SENSORS, area=AREA, resolution=8)
    dep = ctx.deployment
    topo = dep.topology
    domain = FaultDomain(sim=dep.sim, monitor=dep.monitor, network=dep.network,
                         radio_holders=(dep,))
    faults = []
    decision = DecisionMaker([cls() for cls in ALL_MODELS], EstimateGreedyPolicy())
    targets = list(first)
    check_pieces(ctx, targets, ())
    for step, where in plan:
        kind = step[0]
        if kind == "kill":
            topo.kill(step[1])
        elif kind == "revive":
            topo.revive(step[1])
        elif kind == "move":
            topo.move(step[1], np.array([step[2], step[3]]))
        elif kind == "move_all":
            rng = np.random.default_rng(step[1])
            topo.move_all(topo.positions + rng.uniform(-3.0, 3.0, topo.positions.shape))
        elif kind == "block":
            topo.block_links(step[1], step[2])
        elif kind == "unblock":
            topo.unblock_links(step[1], step[2])
        elif kind == "degrade":
            fault = LinkDegradation(0.0, latency_multiplier=step[1],
                                    bandwidth_multiplier=1.0 / step[1])
            fault.inject(domain)
            faults.append(fault)
        elif kind == "recover":
            if faults:
                faults.pop().recover(domain)
        elif kind == "drain":
            dep.sensors[step[1]].battery.draw(step[2])
        else:
            targets = list(step[1][:step[2]])
            decision.estimates(QUERY, ctx, targets)
        check_pieces(ctx, targets, tuple(where))
