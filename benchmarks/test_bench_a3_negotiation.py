"""Ablation A3 -- negotiated binding with performance commitments.

§2 promises agents that "negotiate with other agents about ...
performance commitments".  This ablation makes the commitments matter:
one provider is cheapest *and advertises an over-optimistic commitment*
(it actually runs 5x slower than it promises); honest alternatives cost
more.  Registry-rank binding keeps picking the cheap liar.  Negotiated
binding with the commitment feedback loop pays the liar's price once or
twice, downgrades its reputation, and switches to honest providers.

Reported: mean actual execution latency and on-time rate across 15
sequential compositions, for the two binding strategies.
"""

import numpy as np

from repro.agents import AgentPlatform
from repro.agents.contractnet import ContractNetInitiator
from repro.composition import (
    Binder,
    CompositionManager,
    NegotiatedBinder,
    ServiceProviderAgent,
    TaskGraph,
    TaskSpec,
)
from repro.discovery import (
    Preference,
    ReplicatedRegistry,
    SemanticMatcher,
    ServiceDescription,
    build_service_ontology,
)
from repro.simkernel import Simulator

N_ROUNDS = 15
HONEST_TIME = 2.0  # seconds per honest execution
LIAR_COMMIT = 1.0  # what the liar promises
LIAR_ACTUAL = 5.0  # what the liar delivers


class World:
    def __init__(self, seed=0):
        self.sim = Simulator()
        self.platform = AgentPlatform(self.sim)
        self.registry = ReplicatedRegistry(SemanticMatcher(build_service_ontology()))
        self.manager = CompositionManager("mgr", self.sim, Binder(self.registry),
                                          timeout_s=60.0, max_retries=0)
        self.platform.register(self.manager)
        rate = 1e8

        def add(name, price, ops, commit_factor=1.0):
            desc = ServiceDescription(
                name=f"svc-{name}", category="DecisionTreeService",
                attributes={"price": price, "commit_factor": commit_factor,
                            "queue_length": int(price * 10)},
                ops=ops, cost=price,
            )
            agent = ServiceProviderAgent(name, desc, self.sim, compute_rate=rate)
            self.platform.register(agent)
            self.registry.advertise(desc)
            return desc

        # the liar: cheapest, commits to 1 s, actually takes 5 s
        add("liar", price=1.0, ops=LIAR_ACTUAL * rate,
            commit_factor=LIAR_COMMIT / LIAR_ACTUAL)
        # honest providers: pricier, deliver what they commit
        add("honest-a", price=2.0, ops=HONEST_TIME * rate)
        add("honest-b", price=2.5, ops=HONEST_TIME * rate)

    def graph(self):
        g = TaskGraph()
        # prefer low queue_length == low price: the rank binder's view
        g.add_task(TaskSpec("learn", "DecisionTreeService",
                            preferences=(Preference("queue_length", "minimize"),)))
        return g

    def run_rank_binding(self):
        latencies, on_time = [], 0
        for _ in range(N_ROUNDS):
            got = []
            self.manager.execute(self.graph(), got.append)
            while not got:
                if not self.sim.step():
                    break
            r = got[0]
            latencies.append(r.latency_s)
            if r.success and r.latency_s <= HONEST_TIME * 1.2:
                on_time += 1
            self.sim.run(until=self.sim.now + 5.0)
        return latencies, on_time

    def run_negotiated_binding(self):
        initiator = ContractNetInitiator("negotiator", self.sim)
        self.platform.register(initiator)
        binder = NegotiatedBinder(initiator, self.registry, collect_window_s=0.2)
        latencies, on_time = [], 0
        for _ in range(N_ROUNDS):
            got = []

            def bound(bindings):
                if bindings is None:
                    got.append(None)
                    return
                committed = {
                    name: b.match.service.ops / 1e8
                    * float(b.match.service.attributes.get("commit_factor", 1.0))
                    for name, b in bindings.items()
                }
                start = self.sim.now

                def done(result):
                    for name, b in bindings.items():
                        binder.report_outcome(b.provider, committed[name],
                                              self.sim.now - start)
                    got.append(result)

                self.manager.execute(self.graph(), done, bindings=bindings)

            binder.bind_graph(self.graph(), bound)
            while not got:
                if not self.sim.step():
                    break
            r = got[0]
            if r is not None:
                latencies.append(r.latency_s)
                if r.success and r.latency_s <= HONEST_TIME * 1.2:
                    on_time += 1
            self.sim.run(until=self.sim.now + 5.0)
        return latencies, on_time


def run_experiment():
    rank_lat, rank_on_time = World(seed=0).run_rank_binding()
    neg_lat, neg_on_time = World(seed=0).run_negotiated_binding()
    return {
        "rank": (rank_lat, rank_on_time),
        "negotiated": (neg_lat, neg_on_time),
    }


def test_a3_negotiated_binding(benchmark, table, once):
    results = once(benchmark, run_experiment)
    rows = []
    for name, (latencies, on_time) in results.items():
        rows.append([name, float(np.mean(latencies)), float(np.mean(latencies[-5:])),
                     on_time / N_ROUNDS])
    table(
        f"A3: binding strategy vs an over-promising provider ({N_ROUNDS} rounds)",
        ["binding", "mean latency (s)", "late latency (s)", "on-time rate"],
        rows,
        fmt="{:>18}",
    )

    rank_lat, rank_on_time = results["rank"]
    neg_lat, neg_on_time = results["negotiated"]
    # rank binding keeps trusting the advertised attributes: stuck at ~5 s
    assert np.mean(rank_lat[-5:]) > LIAR_ACTUAL * 0.8
    # negotiation's reputation loop converges to honest providers: ~2 s
    assert np.mean(neg_lat[-5:]) < HONEST_TIME * 1.5
    assert neg_on_time > rank_on_time
