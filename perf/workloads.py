"""The benchmark's four workloads.

Each workload runs in *episodes*: a fresh world built from an episode seed
(timed as set-up), then a fixed amount of work driven through public
``repro`` APIs with every constructor at its defaults.  All inputs are
generated here from the seed; the program only receives them.  The
harness repeats episodes until the run's time budget is spent, so a
faster program runs more episodes of the same kind of work rather than
further into a different part of one simulation.

Every timed call into the program goes through :class:`Meter`.  An
episode returns its correctness errors, an output digest, and the
deterministic outcome metrics of the modelled grid (simulated latency,
energy, fairness).
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import math
import time
import typing

import numpy as np

from repro.core import PervasiveGridRuntime
from repro.discovery import Constraint, Preference, ServiceRequest
from repro.grid.resource import GridResource
from repro.network import BatteryBank, Message, RadioModel, Topology, WirelessNetwork
from repro.network.mobility import RandomWaypoint, random_positions
from repro.observability.sketch import TelemetryConfig
from repro.parallel import TrialResult, run_trials, seed_specs
from repro.simkernel import Monitor, RandomStreams, Simulator
from repro.wms import DEFAULT_CLASSES, Task, WorkloadManager
from repro.workloads import QueryWorkload, ServicePopulation, fire_scenario

if typing.TYPE_CHECKING:  # pragma: no cover
    from perf.layers import LayerTracer


#: CPU seconds :func:`_probe_kernel` takes on the reference machine; every
#: reported time is scaled to it.
REFERENCE_PROBE_S = 1.1e-3
#: Re-run the probe after this much measured CPU time.
PROBE_EVERY_S = 0.02
#: Kernel runs per probe; the fastest counts.
PROBE_REPEATS = 3
_PROBE_POINTS = np.random.default_rng(0).uniform(0.0, 10.0, size=(64, 2))
_PROBE_RECORDS = [{"name": f"svc-{i}", "queue_length": i % 10,
                   "cost_per_use": (i * 7919 % 1000) / 1000.0} for i in range(1000)]


def _probe_kernel() -> float:
    """A fixed slice of three kinds of work: interpreter (dict build, sort,
    float loop), small arrays (neighbour scans over 64 points), and a
    filter-normalize-sort pass over 1,000 records.  Each kind slows by a
    different factor when the host slows; the blend tracks all four
    workloads better than any one part alone."""
    table = {i: (i * 0.5, str(i)) for i in range(1000)}
    values = sorted((v[0] for v in table.values()), reverse=True)
    acc = 0.0
    for i, v in enumerate(values):
        acc += v / (i + 1)
    for i in range(60):
        delta = _PROBE_POINTS - _PROBE_POINTS[i]
        near = np.flatnonzero(np.hypot(delta[:, 0], delta[:, 1]) <= 3.0)
        counts = np.zeros(len(_PROBE_POINTS))
        counts[near] += 1.0
        acc += float(counts.sum())
    kept = [r for r in _PROBE_RECORDS if r["cost_per_use"] <= 0.8 and r["queue_length"] <= 6]
    queues = [r["queue_length"] for r in kept]
    lo, hi = min(queues), max(queues)
    ranked = sorted((-(1.0 - (r["queue_length"] - lo) / (hi - lo)) * r["cost_per_use"], r["name"])
                    for r in kept)
    return acc + ranked[0][0]


def _probe() -> float:
    """CPU time of the kernel: the fastest of :data:`PROBE_REPEATS` runs,
    with the collector off.  A collection would charge the program's heap
    to the probe, and the first run may find the kernel's data evicted by
    the program; the minimum is the host's speed and nothing else."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(PROBE_REPEATS):
            start = time.process_time()
            _probe_kernel()
            best = min(best, time.process_time() - start)
    finally:
        if enabled:
            gc.enable()
    return max(best, 1e-9)


class Meter:
    """Host time of calls into the program, normalized for host speed.

    Calls are timed in process CPU time, so time the process spends
    descheduled is not charged to the program.  On a shared host the CPU
    itself also runs faster or slower for seconds at a time (a neighbour
    on the same core), so each time is scaled by
    ``REFERENCE_PROBE_S / probe``, where ``probe`` (:func:`_probe`) is the
    CPU time of a fixed kernel re-measured every :data:`PROBE_EVERY_S` of
    measured time (and before every set-up).  Reported times are thus
    "seconds on a host where the probe takes :data:`REFERENCE_PROBE_S`".

    ``setup`` times one world construction; ``call`` times one call into
    the program (inside a tracer window when tracing); ``count`` then
    attributes the ops that call completed, adding one ms-per-op sample
    when there were any.
    """

    def __init__(self, tracer: "LayerTracer | None" = None) -> None:
        self.tracer = tracer
        self.host_s = 0.0
        self.ops = 0
        self.samples_ms: list[float] = []
        self.setup_s: list[float] = []
        self._last_s = 0.0
        self._reprobe()

    def _reprobe(self) -> None:
        self._scale = REFERENCE_PROBE_S / _probe()
        self._since_probe = 0.0

    def setup(self, build: typing.Callable[[], typing.Any]) -> typing.Any:
        self._reprobe()
        start = time.process_time()
        world = build()
        self.setup_s.append((time.process_time() - start) * self._scale)
        return world

    def call(self, fn: typing.Callable, *args, **kwargs):
        if self._since_probe >= PROBE_EVERY_S:
            self._reprobe()
        window = self.tracer.window() if self.tracer is not None else contextlib.nullcontext()
        with window:
            start = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu = time.process_time() - start
                self._since_probe += cpu
                self._last_s = cpu * self._scale
                self.host_s += self._last_s

    def count(self, ops: int) -> None:
        self.ops += ops
        if ops:
            self.samples_ms.append(1e3 * self._last_s / ops)


@dataclasses.dataclass
class Episode:
    """What one episode reports back to the harness."""

    attempted: int
    failed: int
    errors: list[str]
    digest: str
    #: Deterministic outcome metrics: name -> (value, unit, samples).
    outcome: dict[str, tuple[float, str, int]]
    #: Per-layer values read from program state (not from the tracer).
    layer: dict[str, float] = dataclasses.field(default_factory=dict)


def episode_seed(seed: int, k: int) -> int:
    """The seed of episode ``k`` of a run with seed ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _value_bytes(value: typing.Any) -> bytes:
    """Exact bytes of a query answer (scalar, array or other object)."""
    if value is None:
        return b"none"
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        return repr(value).encode()
    return repr(arr.shape).encode() + arr.tobytes()


def _percentile(values: typing.Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else math.nan


# ----------------------------------------------------------------------
# fig1_queries
# ----------------------------------------------------------------------
def check_fig1(results: list) -> list[str]:
    """Every query completed: it returned outcomes and each succeeded."""
    errors = []
    for i, outcomes in enumerate(results):
        if not outcomes:
            errors.append(f"query {i} did not complete")
        elif not all(o.success for o in outcomes):
            errors.append(f"query {i} failed: {outcomes[-1].error or 'unsuccessful outcome'}")
    return errors


class Fig1Queries:
    """The paper's Figure-1 burning building, one client in a closed loop."""

    name = "fig1_queries"

    def __init__(self, queries: int = 250) -> None:
        self.queries = queries

    def inputs(self, seed: int) -> list[str]:
        workload = QueryWorkload(np.random.default_rng(seed))
        return [workload.next_text() for _ in range(self.queries)]

    def episode(self, seed: int, meter: Meter) -> Episode:
        texts = self.inputs(seed)
        runtime = meter.setup(lambda: fire_scenario(n_sensors=49, area_m=60.0, seed=seed))

        results: list = []
        for text in texts:
            try:
                outcomes = meter.call(runtime.query, text)
            except TimeoutError:
                outcomes = None
            meter.count(1)
            results.append(outcomes)

        errors = check_fig1(results)
        digest = hashlib.sha256()
        times = []
        for outcomes in results:
            for o in outcomes or ():
                times.append(o.time_s)
                digest.update(repr((o.success, o.model, o.query_class.name, o.time_s,
                                    o.energy_j, o.data_bits, o.readings_used,
                                    o.rel_error, o.epoch_index)).encode())
                digest.update(_value_bytes(o.value))
        n = len(results)
        return Episode(
            attempted=n, failed=len(errors), errors=errors,
            digest=digest.hexdigest(),
            outcome={
                "sim_latency_p50_s": (_percentile(times, 50), "s", len(times)),
                "sim_latency_p99_s": (_percentile(times, 99), "s", len(times)),
                "energy_mj_per_op": (1e3 * runtime.energy_consumed_j() / n, "mJ", n),
            },
        )


# ----------------------------------------------------------------------
# city_wms
# ----------------------------------------------------------------------
#: City-scale telemetry stays bounded: small raw tails, sketch tail.
CITY_TELEMETRY = TelemetryConfig(histogram_max_raw=256, series_max_raw=256)


def jain_index(shares: typing.Iterable[float]) -> float:
    """Jain's fairness index: (sum x)^2 / (n * sum x^2), 1.0 = equal."""
    x = np.asarray(list(shares), dtype=float)
    if not len(x) or not x.any():
        return 0.0
    return float(x.sum() ** 2 / (len(x) * (x * x).sum()))


def check_city(districts: list[dict]) -> list[str]:
    """Every district completed what it submitted, without starvation,
    and its fairness probe landed while every class was backlogged."""
    errors = []
    for i, d in enumerate(districts):
        if d["completed"] != d["submitted"] or d["failed"]:
            errors.append(f"district {i}: completed {d['completed']} of "
                          f"{d['submitted']} ({d['failed']} failed)")
        if d["starved"]:
            errors.append(f"district {i}: {d['starved']} starvation episodes")
        if not d["probe_contended"]:
            errors.append(f"district {i}: fairness probe missed the contended window")
    return errors


class CityWms:
    """A city district's burst-plus-steady load on the workload manager.

    Each episode is four districts with distinct seeds, run through
    ``run_trials(workers=1)``: 500 sites, 250 handhelds, a 2,000-task
    burst per priority class, then 200 batches of 95 tasks at ~70% of
    fleet capacity.  Open loop on simulated time; the host time of each
    0.1 simulated-second slice, divided by the tasks it completed, is one
    per-op sample.
    """

    name = "city_wms"
    fairness_probe_at_s = 0.6  # all three classes still backlogged here
    steady_start_s = 5.0
    steady_every_s = 0.05
    slice_s = 0.1

    def __init__(self, districts: int = 4, sites: int = 500, handhelds: int = 250,
                 burst_per_class: int = 2000, steady_batches: int = 200,
                 steady_batch: int = 95) -> None:
        self.districts = districts
        self.sites = sites
        self.handhelds = handhelds
        self.burst_per_class = burst_per_class
        self.steady_batches = steady_batches
        self.steady_batch = steady_batch

    def district_seeds(self, seed: int) -> list[int]:
        return [episode_seed(seed, d) for d in range(self.districts)]

    def inputs(self, seed: int) -> tuple[list[Task], list[list[Task]]]:
        """One district's burst and steady batches."""
        rng = np.random.default_rng(seed)
        names = [c.name for c in DEFAULT_CLASSES]

        def task(cls: str, i: int) -> Task:
            # per-task grid work around 1e6 ops (~0.2 s on a mid-fleet site)
            return Task(ops=float(rng.uniform(5e5, 1.5e6)), priority_class=cls,
                        owner=f"handheld{i % self.handhelds}")

        burst = [task(cls, i) for cls in names for i in range(self.burst_per_class)]
        batches = [[task(names[i % 3], k * self.steady_batch + i)
                    for i in range(self.steady_batch)]
                   for k in range(self.steady_batches)]
        return burst, batches

    def episode(self, seed: int, meter: Meter) -> Episode:
        specs = seed_specs(self.district_seeds(seed), city=self, meter=meter)
        sweep = run_trials(_run_district, specs, workers=1)
        districts = [o.metrics for o in sweep.outcomes]
        errors = check_city(districts)
        turnaround = sweep.monitor.histogram("wms.turnaround")
        queue_wait = sweep.monitor.histogram("wms.queue_latency")
        submitted = sum(d["submitted"] for d in districts)
        completed = sum(d["completed"] for d in districts)
        return Episode(
            attempted=submitted, failed=submitted - completed, errors=errors,
            digest=_sha(*(d["digest"].encode() for d in districts),
                        json.dumps(sweep.monitor.summary(), sort_keys=True,
                                   default=repr).encode()),
            outcome={
                "sim_latency_p50_s": (turnaround.percentile(50), "s", completed),
                "sim_latency_p99_s": (turnaround.percentile(99), "s", completed),
                "fairness_jain": (sum(d["jain"] for d in districts) / len(districts),
                                  "1", len(districts)),
            },
            layer={"wms.queue_wait_p99_s": queue_wait.percentile(99)},
        )


def _run_district(spec) -> TrialResult:
    """One district (a ``run_trials`` trial function)."""
    city: CityWms = spec.params["city"]
    meter: Meter = spec.params["meter"]
    burst, batches = city.inputs(spec.seed)

    def build() -> tuple[Simulator, Monitor, WorkloadManager]:
        sim = Simulator()
        monitor = Monitor()
        monitor.configure(CITY_TELEMETRY)
        # heterogeneous fleet: rates 1e6..1e7 ops/s, deterministic layout
        sites = [GridResource(sim, f"site{i}", 1e6 * (1 + i % 10)) for i in range(city.sites)]
        return sim, monitor, WorkloadManager(sim, sites, monitor=monitor)

    sim, monitor, wm = meter.setup(build)

    shares: dict[str, float] = {}  # weight-normalized drain per class
    contended = []

    def fairness_probe() -> None:
        stats = wm.queue.class_stats()
        contended.append(all(s["waiting"] > 0 for s in stats.values()))
        shares.update({name: s["ops_completed"] / s["weight"] for name, s in stats.items()})

    def flush(k: int) -> None:
        wm.submit_bulk(batches[k])
        if k + 1 < len(batches):
            sim.schedule(city.steady_every_s, lambda: flush(k + 1), label="perf.batch")

    sim.schedule(city.fairness_probe_at_s, fairness_probe, label="perf.fairness")
    sim.schedule(city.steady_start_s, lambda: flush(0), label="perf.batch")

    completed = monitor.counter("wms.tasks_completed")
    meter.call(wm.submit_bulk, burst)
    k = 0
    while sim.pending:
        k += 1
        before = completed.value
        meter.call(sim.run, until=k * city.slice_s)
        meter.count(int(completed.value - before))

    stats = wm.queue.class_stats()
    metrics = {
        "submitted": int(sum(s["submitted"] for s in stats.values())),
        "completed": int(sum(s["completed"] for s in stats.values())),
        "failed": int(sum(s["failed"] for s in stats.values())),
        "starved": int(monitor.counters().get("wms.tasks_starved", 0.0)),
        "probe_contended": bool(contended and contended[0]),
        "jain": jain_index(shares.values()),
        "sim_time_s": sim.now,
    }
    metrics["digest"] = _sha(json.dumps([stats, sim.now, metrics["jain"]],
                                        sort_keys=True).encode())
    return TrialResult(monitor=monitor, metrics=metrics, sim_time_s=sim.now)


# ----------------------------------------------------------------------
# swarm_broadcast
# ----------------------------------------------------------------------
def check_swarm(ledger_j: float, consumed_j: float, deaths: int, max_draw_j: float) -> list[str]:
    """The network's energy ledger matches the battery bank.

    Every charge adds its full cost to ``net.energy_j``; a battery only
    gives what it has left, so the ledger may exceed the bank by at most
    one draw per battery death (plus summation rounding).
    """
    tol = 1e-9 * max(abs(ledger_j), 1.0)
    gap = ledger_j - consumed_j
    if not -tol <= gap <= deaths * max_draw_j + tol:
        return [f"energy ledger {ledger_j!r} J vs batteries {consumed_j!r} J "
                f"({deaths} deaths, max draw {max_draw_j!r} J)"]
    return []


class SwarmBroadcast:
    """A smartdust swarm: constant-density nodes, 20% random-waypoint
    mobility on a 1 s tick, and a set of sources each broadcasting every
    0.25 s.  Sources are split into phase groups spread over the period
    (independent devices do not transmit in lockstep); one slice per
    group gives one per-op sample: its host time over its deliveries.
    Batteries are sized so deaths are gradual within one episode.
    """

    name = "swarm_broadcast"
    range_m = 10.0
    degree = 8.0
    mobile_every = 5
    tick_s = 1.0
    period_s = 0.25
    msg_bits = 256.0
    battery_j = (1.25e-4, 1.25e-3)

    def __init__(self, nodes: int = 20_000, sources: int = 2000, sim_s: float = 5.0,
                 groups: int = 20) -> None:
        self.nodes = nodes
        self.sources = sources
        self.sim_s = sim_s
        self.groups = groups

    @property
    def area_m(self) -> float:
        """Square side keeping the mean unit-disc degree at :attr:`degree`."""
        return math.sqrt(self.nodes * math.pi * self.range_m ** 2 / self.degree)

    def inputs(self, seed: int) -> dict[str, typing.Any]:
        streams = RandomStreams(seed)
        return {
            "positions": random_positions(self.nodes, self.area_m, streams.get("placement")),
            "capacities": streams.get("batteries").uniform(*self.battery_j, self.nodes),
            "mobility_rng": streams.get("mobility"),
            "loss_rng": streams.get("loss"),
        }

    def episode(self, seed: int, meter: Meter) -> Episode:
        n = self.nodes
        inputs = self.inputs(seed)
        received = [0] * n

        def build():
            topology = Topology(inputs["positions"], self.range_m)
            sim = Simulator()
            monitor = Monitor()
            bank = BatteryBank(inputs["capacities"])
            radio = RadioModel(bandwidth_bps=250_000.0, latency_s=0.005, loss_prob=0.1,
                               range_m=self.range_m)
            net = WirelessNetwork(sim, topology, radio, batteries=bank.batteries(),
                                  rng=inputs["loss_rng"], monitor=monitor)
            for i in range(n):
                net.nodes[i].receive = _receiver(received, i)
            waypoint = RandomWaypoint(topology, list(range(0, n, self.mobile_every)),
                                      self.area_m, inputs["mobility_rng"], tick_s=self.tick_s)
            return topology, sim, monitor, bank, net, waypoint

        topology, sim, monitor, bank, net, waypoint = meter.setup(build)

        sources = list(range(0, n, max(1, n // self.sources)))[:self.sources]
        slice_s = self.period_s / self.groups
        slices = round(self.sim_s / slice_s)
        per_tick = round(self.tick_s / slice_s)
        sent = [0]

        def blast(group: list[int], j: int) -> None:
            for src in group:
                if topology.is_alive(src):
                    sent[0] += 1
                    net.broadcast_local(src, Message(src=src, dst=None, size_bits=self.msg_bits,
                                                     msg_id=f"b{sent[0]}"))
            if j + self.groups < slices:
                sim.schedule_at((j + self.groups) * slice_s,
                                lambda: blast(group, j + self.groups), label="perf.blast")

        def tick(j: int) -> None:
            waypoint.step(self.tick_s)
            if j + per_tick < slices:
                sim.schedule_at((j + per_tick) * slice_s, lambda: tick(j + per_tick),
                                label="perf.tick")

        for g in range(self.groups):
            sim.schedule_at((g + 1) * slice_s, lambda g=g: blast(sources[g::self.groups], g + 1),
                            label="perf.blast")
        sim.schedule_at(per_tick * slice_s, lambda: tick(per_tick), label="perf.tick")

        # slice j covers (j - 1/4, j + 3/4] slice widths: a group's blast at
        # j and its fan-out one hop time later land in the same slice
        delivered = 0
        for j in range(slices):
            until = (j + 0.75) * slice_s if j + 1 < slices else None
            meter.call(sim.run, until=until)
            now_delivered = sum(received)
            meter.count(now_delivered - delivered)
            delivered = now_delivered

        counters = monitor.counters()
        ledger_j = counters.get("net.energy_j", 0.0)
        deaths = int(counters.get("net.node_deaths", 0.0))
        errors = check_swarm(ledger_j, bank.total_consumed, deaths,
                             net.energy_model.tx_cost(self.msg_bits, self.range_m))
        digest = _sha(np.asarray(received, dtype=np.int64).tobytes(),
                      np.ascontiguousarray(bank.remaining).tobytes(),
                      np.ascontiguousarray(topology.positions).tobytes(),
                      json.dumps(sorted(counters.items())).encode())
        return Episode(
            attempted=delivered, failed=len(errors), errors=errors,
            digest=digest,
            outcome={"energy_mj_per_op": (1e3 * ledger_j / max(delivered, 1), "mJ", delivered)},
        )


def _receiver(received: list[int], i: int) -> typing.Callable[[Message], None]:
    def receive(_message: Message) -> None:
        received[i] += 1

    return receive


# ----------------------------------------------------------------------
# market_churn
# ----------------------------------------------------------------------
def _ranking(results) -> list[tuple[str, int, float]]:
    return [(r.service.name, int(r.degree), r.score) for r in results]


def check_market(got: typing.Any, expected: typing.Any, op: int) -> list[str]:
    """One registry answer against the benchmark's own expectation."""
    if got != expected:
        return [f"op {op}: registry returned {got!r}, expected {expected!r}"]
    return []


class MarketChurn:
    """Service discovery under churn: the runtime's replicated registry
    holding ~1,000 services on 200 hosts, one client in a closed loop.

    The op mix is 30% constrained + preference searches (top 10), 50%
    attribute refreshes, 12% new advertisements, 6% withdrawals and 2%
    host withdrawals, which keeps the population near its starting size.
    Each episode holds the mix exactly, in random order, with searches in
    sessions of :attr:`search_session` (a client refining what it looks
    for), so most writes follow a write.  Writes are the median op
    and searches the tail.  Every answer is checked against the
    benchmark's own mirror of live services; every tenth search is
    re-ranked over the mirror with the matcher.
    """

    name = "market_churn"
    mix = (("search", 0.30), ("refresh", 0.50), ("advertise", 0.12),
           ("withdraw", 0.06), ("withdraw_host", 0.02))
    search_session = 3
    check_every = 10

    def __init__(self, services: int = 1000, hosts: int = 200, ops: int = 600) -> None:
        self.services = services
        self.hosts = hosts
        self.ops = ops

    def inputs(self, seed: int) -> tuple[list, list[tuple[str, typing.Any]]]:
        """The initial population and the op sequence.

        Ops are drawn against a model of the live set, so refreshes and
        withdrawals always name a live service and host withdrawals a
        host that still has services.
        """
        rng = np.random.default_rng(seed)
        population = ServicePopulation(rng, host_nodes=list(range(self.hosts)))
        initial = [g.description for g in population.generate(self.services)]
        live = list(initial)  # swap-remove list: O(1) random pick and removal
        index = {d.name: i for i, d in enumerate(live)}

        def remove(name: str) -> None:
            i = index.pop(name)
            last = live.pop()
            if i < len(live):
                live[i] = last
                index[last.name] = i

        def pick():
            return live[int(rng.integers(len(live)))]

        counts = {kind: round(share * self.ops) for kind, share in self.mix}
        sessions = round(counts.pop("search") / self.search_session)
        items = [kind for kind, n in counts.items() for _ in range(n)] + ["session"] * sessions
        kinds: list[str] = []
        for i in rng.permutation(len(items)):
            kinds += ["search"] * self.search_session if items[i] == "session" else [items[i]]

        ops: list[tuple[str, typing.Any]] = []
        for kind in kinds:
            if kind == "search":
                ops.append((kind, ServiceRequest(
                    category=pick().category,
                    constraints=(Constraint("cost_per_use", "<=", float(rng.uniform(0.3, 1.0))),
                                 Constraint("queue_length", "<=", int(rng.integers(3, 10)))),
                    preferences=(Preference("queue_length", "minimize", 1.0),
                                 Preference("cost_per_use", "minimize", 0.5)))))
            elif kind == "refresh":
                old = pick()
                new = dataclasses.replace(old, attributes={
                    **old.attributes, "queue_length": int(rng.integers(0, 10))})
                live[index[old.name]] = new
                ops.append((kind, new))
            elif kind == "advertise":
                new = population.generate_one().description
                index[new.name] = len(live)
                live.append(new)
                ops.append((kind, new))
            elif kind == "withdraw":
                name = pick().name
                remove(name)
                ops.append((kind, name))
            else:
                host = pick().host_node
                for d in [d for d in live if d.host_node == host]:
                    remove(d.name)
                ops.append((kind, host))
        return initial, ops

    def episode(self, seed: int, meter: Meter) -> Episode:
        initial, ops = self.inputs(seed)

        def build():
            registry = PervasiveGridRuntime().registry
            for description in initial:
                registry.advertise(description)
            return registry

        registry = meter.setup(build)

        mirror = {d.name: d for d in initial}
        errors: list[str] = []
        digest = hashlib.sha256()
        searches = 0
        for i, (kind, arg) in enumerate(ops):
            if kind == "search":
                got = _ranking(meter.call(registry.search, arg, top_k=10))
                if searches % self.check_every == 0:
                    expected = _ranking(registry.matcher.rank(
                        arg, [mirror[name] for name in sorted(mirror)], top_k=10))
                    errors += check_market(got, expected, i)
                searches += 1
            elif kind in ("refresh", "advertise"):
                got = meter.call(registry.advertise, arg)
                mirror[arg.name] = arg
            elif kind == "withdraw":
                got = meter.call(registry.withdraw, arg)
                errors += check_market(got, mirror.pop(arg, None) is not None, i)
            else:
                got = meter.call(registry.withdraw_host, arg)
                doomed = [name for name, d in mirror.items() if d.host_node == arg]
                for name in doomed:
                    del mirror[name]
                errors += check_market(got, len(doomed), i)
            meter.count(1)
            digest.update(repr((kind, got)).encode())
        if len(registry) != len(mirror):
            errors.append(f"registry holds {len(registry)} services, expected {len(mirror)}")
        return Episode(attempted=len(ops), failed=len(errors),
                       errors=errors, digest=digest.hexdigest(), outcome={})


#: Every workload at benchmark size, by name.
WORKLOADS = {w.name: w for w in (Fig1Queries(), CityWms(), SwarmBroadcast(), MarketChurn())}
