#!/usr/bin/env python3
"""Disaster drill: the Figure-1 fire scenario with infrastructure faults.

The fire-fighter script from ``fire_response.py`` rarely gets the luxury
of healthy infrastructure: the same fire that produces the readings also
burns cables and power supplies.  This drill runs the paper's scenario
while a scripted fault timeline takes out first the backhaul to the
wired grid and then the base station itself, and shows the stack
degrading instead of crashing:

1. healthy: the complex distribution query offloads to the grid;
2. backhaul outage: the grid is unreachable, so the Decision Maker
   falls back to a local model at lower accuracy;
3. broker-host crash: the node hosting the *active* discovery broker
   burns; the broker group detects the loss, promotes the lowest-id
   live standby, and the standby replays the shared event log --
   discovery comes back with nothing lost;
4. base-station crash: in-network collection loses its sink and the
   query layer reports "no feasible model" -- an answer, not a
   traceback.

The run is watched by the SLO engine: the default grid objectives
(query latency/failure ratio, energy per epoch, uplink availability)
plus the discovery objectives are evaluated every 15 s of simulated
time.  The uplink alert fires during the backhaul outage and resolves
after recovery; ``disc.broker_availability`` fires during the broker
failover and resolves once the promoted standby's window is clean.
The drill closes with the grid health verdict and the alert timeline.

Run:  python examples/disaster_drill.py
      python examples/disaster_drill.py --trace
      python examples/disaster_drill.py --export drill-trace.jsonl
      python examples/disaster_drill.py --profile drill-profile.json \
          --ledger drill-ledger.jsonl
      python -m repro.observability dashboard drill-trace.jsonl
      python -m repro.observability profile drill-profile.json
"""

import argparse

from repro.discovery import ServiceDescription
from repro.faults import NodeCrash, UplinkOutage
from repro.observability.analysis import Trace
from repro.observability.ledger import QueryCostLedger, render_ledger
from repro.observability.report import pick_root, render_critical_path, render_rollup
from repro.observability.slo import render_health
from repro.workloads import fire_scenario

DISTRIBUTION_Q = "SELECT DISTRIBUTION(value) FROM sensors COST accuracy 0.05"


def show(label: str, outcomes) -> None:
    for o in outcomes:
        if o.success:
            print(f"  {label:<34} model={o.model:<12} time={o.time_s:7.2f} s "
                  f"energy={o.energy_j * 1e3:8.3f} mJ")
        else:
            print(f"  {label:<34} FAILED ({o.error})")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true",
                        help="record a span trace and print the critical-path "
                             "rollup at the end of the drill")
    parser.add_argument("--export", metavar="PATH", default=None,
                        help="write the trace as JSONL to PATH (implies --trace); "
                             "analyze it with python -m repro.observability report")
    parser.add_argument("--profile", metavar="PATH", default=None,
                        help="wall-clock-profile the drill and write the export "
                             "to PATH; analyze it with "
                             "python -m repro.observability profile")
    parser.add_argument("--ledger", metavar="PATH", default=None,
                        help="write the per-query cost ledger as JSONL to PATH "
                             "(implies --trace)")
    args = parser.parse_args(argv)
    tracing = args.trace or args.export is not None or args.ledger is not None

    runtime = fire_scenario(n_sensors=49, area_m=60.0, seed=7, n_seats=2,
                            trace=tracing, profile=args.profile is not None,
                            broker_hosts=(1, 2, 3),
                            broker_detection_delay_s=25.0)
    injector = runtime.fault_injector()
    base = runtime.deployment.base_station_id
    group = runtime.broker_group
    broker_host = group.active.host_node

    # the building's sensor services, advertised through discovery so the
    # broker group has real state to carry across the failover
    for i in range(6):
        runtime.registry.advertise(ServiceDescription(
            name=f"temp-sensor-{i}", category="TemperatureSensorService",
            provider=f"sensor-{i}", host_node=i, uuid=f"drill-temp-{i}"))

    # the drill's fault script, scheduled up front like a real exercise
    injector.schedule(UplinkOutage(at_s=120.0, duration_s=240.0))
    injector.schedule(NodeCrash(broker_host, at_s=450.0))
    injector.schedule(NodeCrash(base, at_s=600.0))

    # the SLO engine watches the whole drill in simulated time
    evaluator = runtime.attach_slos(until_s=900.0)

    print("=== t=0: healthy infrastructure ===")
    show("spot check (sensor 24)",
         runtime.query("SELECT value FROM sensors WHERE sensor_id = 24"))
    show("distribution (complex)", runtime.query(DISTRIBUTION_Q))

    runtime.sim.run(until=150.0)
    print(f"\n=== t={runtime.sim.now:.0f} s: backhaul outage "
          f"(uplink online={runtime.grid.uplink.online}) ===")
    show("room 2 average",
         runtime.query("SELECT AVG(value) FROM sensors WHERE room = 2"))
    show("distribution (complex)", runtime.query(DISTRIBUTION_Q))

    runtime.sim.run(until=420.0)
    print(f"\n=== t={runtime.sim.now:.0f} s: backhaul restored "
          f"(uplink online={runtime.grid.uplink.online}) ===")
    show("distribution (complex)", runtime.query(DISTRIBUTION_Q))

    runtime.sim.run(until=560.0)
    print(f"\n=== t={runtime.sim.now:.0f} s: broker host {broker_host} burned "
          f"at t=450 s -- single-active failover ===")
    for event in group.timeline:
        who = "-" if event.broker_id is None else f"broker {event.broker_id}"
        print(f"  t={event.time_s:7.1f} s  {event.phase:<9} {who:<9} {event.detail}")
    n_services = len(group.active.view.services())
    print(f"  active broker: {group.active_id} (host "
          f"{group.active.host_node}), failovers={group.failovers}, "
          f"staleness={group.staleness()} events")
    print(f"  {n_services} advertisements served (host {broker_host}'s own "
          f"was withdrawn with the node; none lost to the failover)")

    runtime.sim.run(until=630.0)
    alive = runtime.deployment.topology.is_alive(base)
    print(f"\n=== t={runtime.sim.now:.0f} s: base station down "
          f"(node {base} alive={alive}) ===")
    show("room 2 average",
         runtime.query("SELECT AVG(value) FROM sensors WHERE room = 2"))
    show("distribution (complex)", runtime.query(DISTRIBUTION_Q))

    print("\n=== fault timeline ===")
    for event in injector.timeline:
        print(f"  t={event.time:7.1f} s  {event.phase:<8} {event.kind:<14} {event.detail}")
    counters = runtime.deployment.monitor.counters()
    failed = {k: v for k, v in counters.items() if k.startswith("queries.failed.")}
    print(f"\nfaults injected: {counters.get('faults.injected', 0):.0f}, "
          f"recovered: {counters.get('faults.recovered', 0):.0f}, "
          f"uplink outages: {runtime.grid.uplink.outages}")
    if failed:
        print("failure reasons counted in the monitor:")
        for name, count in sorted(failed.items()):
            print(f"  {name}: {count:.0f}")

    # close the books: one final evaluation at the drill's end, then the verdict
    evaluator.tick()
    availability = evaluator.status["disc.broker_availability"]
    print(f"\ndiscovery availability alert: fired {availability.fired}x during "
          f"the broker failover, resolved {availability.resolved}x after "
          f"promotion, firing now: {availability.firing}")
    print("\n=== SLO health verdict ===")
    print(render_health(evaluator))

    if tracing:
        print("\n=== where did the time go (slowest query) ===")
        trace = Trace(runtime.tracer.records)
        root = pick_root(trace, "query.")
        if root is None:
            print("no closed query span recorded")
        else:
            print(render_critical_path(trace, root))
            print()
            print(render_rollup(trace, root))
        print()
        print(render_ledger(trace))
        if args.export:
            count = runtime.export_trace(args.export)
            print(f"\nexported {count} trace records to {args.export}")
            print(f"analyze with: python -m repro.observability report {args.export}")
        if args.ledger:
            count = QueryCostLedger.from_trace(trace).export_jsonl(args.ledger)
            print(f"exported {count} per-query cost records to {args.ledger}")

    if args.profile:
        count = runtime.export_profile(args.profile)
        print(f"\nexported wall-clock profile ({count} handlers) to {args.profile}")
        print(f"analyze with: python -m repro.observability profile {args.profile}")


if __name__ == "__main__":
    main()
