#!/usr/bin/env python3
"""Negotiation with performance commitments (§2).

The paper's agents "negotiate with other agents about appropriate
mediating interfaces or performance commitments".  This example shows
why that matters: advertised attributes can lie, but commitments are
*checked*.

A cheap PDE-solver service promises 1-second solves and delivers
5-second ones.  Registry-rank binding (trusting advertisements) keeps
choosing it.  Negotiated binding pays the liar's price twice, downgrades
its reputation, and moves to the honest (pricier) competitors.

Run:  python examples/negotiated_services.py
"""

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

RATE = 1e8


def build_world():
    sim = Simulator()
    platform = AgentPlatform(sim)
    registry = ReplicatedRegistry(SemanticMatcher(build_service_ontology()))
    manager = CompositionManager("mgr", sim, Binder(registry), timeout_s=60.0)
    platform.register(manager)

    def add(name, price, actual_s, committed_s):
        desc = ServiceDescription(
            name=f"svc-{name}", category="PDESolverService",
            attributes={"price": price, "commit_factor": committed_s / actual_s,
                        "queue_length": int(price * 10)},
            ops=actual_s * RATE, cost=price,
        )
        platform.register(ServiceProviderAgent(name, desc, sim, compute_rate=RATE))
        registry.advertise(desc)

    add("bargain-basement", price=1.0, actual_s=5.0, committed_s=1.0)  # over-promises
    add("solid-solvers", price=2.0, actual_s=2.0, committed_s=2.0)
    add("premium-pde", price=3.0, actual_s=1.5, committed_s=1.5)
    return sim, platform, registry, manager


def solve_task():
    g = TaskGraph()
    g.add_task(TaskSpec("solve", "PDESolverService",
                        preferences=(Preference("queue_length", "minimize"),)))
    return g


def main() -> None:
    print("three PDE solver services: $1 (promises 1s, delivers 5s), "
          "$2 (honest 2s), $3 (honest 1.5s)\n")

    # ---------------- registry-rank binding ----------------
    sim, platform, registry, manager = build_world()
    print(f"{'round':>6} {'rank binding':>20} {'latency':>9}    "
          f"{'negotiated':>20} {'latency':>9}  reputation($1)")
    rank_rows = []
    for _ in range(8):
        got = []
        manager.execute(solve_task(), got.append)
        while not got:
            sim.step()
        rank_rows.append((list(got[0].outputs) and "bargain-basement", got[0].latency_s))
        sim.run(until=sim.now + 2.0)

    # ---------------- negotiated binding ----------------
    sim, platform, registry, manager = build_world()
    initiator = ContractNetInitiator("negotiator", sim)
    platform.register(initiator)
    binder = NegotiatedBinder(initiator, registry, collect_window_s=0.2)
    neg_rows = []
    for _ in range(8):
        got = []

        def bound(bindings):
            committed = {n: b.match.service.ops / RATE
                         * float(b.match.service.attributes.get("commit_factor", 1.0))
                         for n, b in bindings.items()}
            start = sim.now

            def done(result):
                for n, b in bindings.items():
                    binder.report_outcome(b.provider, committed[n], sim.now - start)
                got.append((b.provider, result.latency_s))

            manager.execute(solve_task(), done, bindings=bindings)

        binder.bind_graph(solve_task(), bound)
        while not got:
            sim.step()
        neg_rows.append(got[0] + (binder.reputation_of("bargain-basement"),))
        sim.run(until=sim.now + 2.0)

    for i, (rank, neg) in enumerate(zip(rank_rows, neg_rows)):
        print(f"{i:>6} {'(rank picks cheapest)':>20} {rank[1]:>8.2f}s    "
              f"{neg[0]:>20} {neg[1]:>8.2f}s        {neg[2]:.2f}")

    print("\nrank binding never learns; negotiation's reputation loop kicks the")
    print("over-promiser out after a few broken commitments.")


if __name__ == "__main__":
    main()
