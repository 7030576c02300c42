"""Per-layer tracing from outside the program.

The traced pass replaces public ``repro`` callables with timing wrappers
for the duration of one episode, then restores them.  Nothing inside
``src/`` knows it is being traced.  :data:`WRAPS` is the one table of
what gets wrapped: each row names a layer operation and the dotted names
of the callables that implement it.

Each wrapped call is attributed to ``(name, parent name)`` in a folded
call tree (calls, total and self nanoseconds).  Self time is a call's
total minus the totals of the wrapped calls nested directly inside it,
so the self times of every node plus the time spent outside every
wrapped call add up exactly to the traced wall.  Only calls made inside
a :meth:`LayerTracer.window` are recorded; the benchmark opens a window
around each timed call into the program, so setup and correctness
checks never show up here.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
import types
import typing


class Ratio(typing.NamedTuple):
    """A derived per-call ratio: ``sum(num) / sum(den)`` over traced calls.

    ``before(args)`` runs just before the wrapped call and returns a token;
    ``after(token, args, result)`` returns the call's ``(num, den)``.
    """

    name: str
    unit: str
    better: str
    after: typing.Callable[[typing.Any, tuple, typing.Any], tuple[float, float]]
    before: typing.Callable[[tuple], typing.Any] | None = None


class Op(typing.NamedTuple):
    """One layer operation: a metric name and the callables behind it."""

    name: str
    targets: tuple[str, ...]
    ratio: Ratio | None = None


def _route_cache_before(args: tuple) -> tuple[int, int]:
    topology = args[0]
    return topology.route_cache_hits, topology.route_cache_misses


def _route_cache_after(token, args: tuple, _result) -> tuple[float, float]:
    topology = args[0]
    hits = topology.route_cache_hits - token[0]
    misses = topology.route_cache_misses - token[1]
    return hits, hits + misses


_SIM = "repro.simkernel.simulator.Simulator"
_MON = "repro.simkernel.monitor"
_NET = "repro.network.network.WirelessNetwork"
_TOPO = "repro.network.topology.Topology"
_QUEUE = "repro.wms.queues.TaskQueueService"
_REG = "repro.discovery.replica.ReplicatedRegistry"

#: Every wrapped operation.  Module-level functions are patched where the
#: caller looks them up (``parse_query`` and ``select_targets`` inside the
#: query executor), methods on their class.
WRAPS: tuple[Op, ...] = (
    Op("simkernel.schedule", (f"{_SIM}.schedule_at",)),
    Op("simkernel.step", (f"{_SIM}.step",)),
    Op("simkernel.monitor.observe", (f"{_MON}.Histogram.observe",)),
    Op("simkernel.monitor.record", (f"{_MON}.TimeSeries.record",)),
    Op("simkernel.monitor.count", (f"{_MON}.Counter.add",)),
    Op("network.broadcast", (f"{_NET}.broadcast_local",),
       Ratio("receivers_per_call", "count", "higher",
             lambda _token, _args, result: (len(result), 1))),
    Op("network.energy.draw", ("repro.network.energy.Battery.draw",
                               "repro.network.energy.BatteryView.draw")),
    Op("network.move", (f"{_TOPO}.move_all",)),
    Op("network.neighbors", (f"{_TOPO}.neighbors",)),
    Op("network.flood", ("repro.network.routing.flooding.Flooding.disseminate",)),
    Op("network.route", (f"{_TOPO}.shortest_path",),
       Ratio("cache_hit_ratio", "ratio", "higher", _route_cache_after,
             _route_cache_before)),
    Op("network.send", (f"{_NET}.send",)),
    Op("core.decide", ("repro.core.decision.DecisionMaker.decide",)),
    Op("core.estimates", ("repro.core.decision.DecisionMaker.estimates",)),
    Op("queries.parse", ("repro.queries.executor.parse_query",)),
    Op("queries.targets", ("repro.queries.executor.select_targets",)),
    Op("queries.submit", ("repro.queries.executor.QueryExecutor.submit",)),
    Op("sensors.sample", ("repro.sensors.deployment.SensorDeployment.sample_sensor",
                          "repro.sensors.deployment.SensorDeployment.sample_all")),
    Op("pde.solve", ("repro.pde.heat.HeatSolver.solve_steady",)),
    Op("grid.offload", ("repro.grid.infrastructure.GridInfrastructure.offload",)),
    Op("grid.resource.submit", ("repro.grid.resource.GridResource.submit",)),
    Op("wms.submit", (f"{_QUEUE}.submit_bulk",)),
    Op("wms.claim", (f"{_QUEUE}.claim",),
       Ratio("hit_ratio", "ratio", "higher",
             lambda _token, _args, result: (result is not None, 1))),
    Op("wms.report", (f"{_QUEUE}.report",)),
    Op("discovery.search", (f"{_REG}.search",)),
    Op("discovery.rank", ("repro.discovery.matcher.SemanticMatcher.rank",),
       Ratio("candidates_per_call", "count", "lower",
             lambda _token, args, _result: (len(args[2]), 1))),
    Op("discovery.advertise", (f"{_REG}.advertise",)),
    Op("discovery.withdraw", (f"{_REG}.withdraw",)),
    Op("discovery.withdraw_host", (f"{_REG}.withdraw_host",)),
)


def op_metrics(ops: typing.Sequence[Op] = WRAPS) -> list[tuple[str, str, str]]:
    """``(metric name, unit, better)`` for every per-operation metric."""
    rows = []
    for op in ops:
        rows += [(f"{op.name}.calls", "count", "lower"),
                 (f"{op.name}.ns_per_call", "ns", "lower"),
                 (f"{op.name}.self_share", "ratio", "lower")]
        if op.ratio is not None:
            rows.append((f"{op.name}.{op.ratio.name}", op.ratio.unit,
                         op.ratio.better))
    return rows


def resolve(dotted: str) -> tuple[typing.Any, str, types.FunctionType] | None:
    """``(owner, attribute, function)`` for a dotted name, or None.

    The longest importable prefix is the module; the rest is an attribute
    path inside it.  Only plain functions can be wrapped, so anything else
    (a property, a builtin, a name that no longer exists) resolves to None.
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for part in parts[cut:-1]:
                owner = getattr(owner, part)
            fn = getattr(owner, parts[-1])
        except AttributeError:
            return None
        return (owner, parts[-1], fn) if isinstance(fn, types.FunctionType) else None
    return None


class LayerTracer:
    """Folded call tree over the wrapped operations of :data:`WRAPS`.

    Parameters
    ----------
    ops:
        The operations to wrap (default: :data:`WRAPS`).
    clock:
        Nanosecond clock; tests substitute a fake one.
    """

    def __init__(self, ops: typing.Sequence[Op] = WRAPS,
                 clock: typing.Callable[[], int] = time.perf_counter_ns) -> None:
        self.ops = tuple(ops)
        self.clock = clock
        self.active = False
        #: Summed length of every window, in ns.
        self.wall_ns = 0
        #: ``(name, parent name or None)`` -> ``[calls, total_ns, self_ns]``.
        self.tree: dict[tuple[str, str | None], list[int]] = {}
        #: Op name -> ``[num, den]`` of its derived ratio.
        self.ratios: dict[str, list[float]] = {}
        #: Dotted names that did not resolve to a wrappable function.
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._patched: list[tuple[typing.Any, str, types.FunctionType, bool]] = []

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def installed(self) -> typing.Iterator["LayerTracer"]:
        """Wrap every target for the duration of the block."""
        for op in self.ops:
            for dotted in op.targets:
                found = resolve(dotted)
                if found is None:
                    if dotted not in self.missing:
                        self.missing.append(dotted)
                    continue
                owner, attr, fn = found
                self._patched.append((owner, attr, fn, attr in vars(owner)))
                setattr(owner, attr, self._wrap(op, fn))
        try:
            yield self
        finally:
            for owner, attr, fn, own in reversed(self._patched):
                if own:
                    setattr(owner, attr, fn)
                else:
                    delattr(owner, attr)
            self._patched.clear()

    @contextlib.contextmanager
    def window(self) -> typing.Iterator[None]:
        """Record wrapped calls made inside the block; add its length to
        :attr:`wall_ns`."""
        start = self.clock()
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.wall_ns += self.clock() - start

    def _wrap(self, op: Op, fn: types.FunctionType) -> typing.Callable:
        tracer, name, ratio = self, op.name, op.ratio

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0]  # name, ns spent in nested wrapped calls
            stack.append(frame)
            token = ratio.before(args) if ratio is not None and ratio.before else None
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = tracer.clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += total
                node = tracer.tree.get((name, parent))
                if node is None:
                    node = tracer.tree[(name, parent)] = [0, 0, 0]
                node[0] += 1
                node[1] += total
                node[2] += total - frame[1]
            if ratio is not None:
                num, den = ratio.after(token, args, result)
                acc = tracer.ratios.setdefault(name, [0.0, 0.0])
                acc[0] += num
                acc[1] += den
            return result

        return traced

    # ------------------------------------------------------------------
    def unattributed_ns(self) -> int:
        """Window time spent outside every wrapped call."""
        return self.wall_ns - sum(node[1] for (_, parent), node in self.tree.items()
                                  if parent is None)

    def metrics(self) -> dict[str, float]:
        """Every :func:`op_metrics` value; 0 for operations never called."""
        wall = self.wall_ns
        out: dict[str, float] = {}
        for op in self.ops:
            nodes = [node for (name, _), node in self.tree.items() if name == op.name]
            calls = sum(node[0] for node in nodes)
            total = sum(node[1] for node in nodes)
            own = sum(node[2] for node in nodes)
            out[f"{op.name}.calls"] = float(calls)
            out[f"{op.name}.ns_per_call"] = total / calls if calls else 0.0
            out[f"{op.name}.self_share"] = own / wall if wall else 0.0
            if op.ratio is not None:
                num, den = self.ratios.get(op.name, (0.0, 0.0))
                out[f"{op.name}.{op.ratio.name}"] = num / den if den else 0.0
        return out

    def folded(self) -> list[dict[str, typing.Any]]:
        """The call tree as records, largest self time first."""
        rows = [{"name": name, "parent": parent, "calls": node[0],
                 "total_ns": node[1], "self_ns": node[2]}
                for (name, parent), node in self.tree.items()]
        return sorted(rows, key=lambda r: (-r["self_ns"], r["name"], r["parent"] or ""))
