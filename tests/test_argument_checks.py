"""One sweep over every exported constructor's numeric parameters.

Every class in the ``__all__`` of each ``repro`` package is either listed
in :data:`CASES` -- how to build it, and for each numeric parameter one
finite value out of its range -- or excluded in :data:`EXCLUDED` with a
reason.  The numeric parameters come from ``inspect.signature``, so a new
constructor, or a new ``int``/``float`` parameter, that is in neither
list fails :func:`test_every_numeric_parameter_is_listed`.

For each listed parameter NaN, -inf, +inf (unless :data:`LEGAL_INF` lists
it), the out-of-range value and, for an ``int`` parameter, 2.5 must raise
at construction.  The rule for a valid number lives in :mod:`repro.checks`.
"""

from __future__ import annotations

import enum
import fnmatch
import importlib
import inspect
import math
import pkgutil
import typing

import numpy as np
import pytest

import repro
from repro import PervasiveGridRuntime
from repro.agents import (
    Agent, ContractNetContractor, ContractNetInitiator, DirectDeputy, Envelope, NetworkDeputy,
)
from repro.composition import (
    CompositionManager, MailboxServiceAgent, NegotiatedBinder, ReactiveComposer,
    RPCServiceAgent, ServiceProviderAgent,
)
from repro.core import KNNRegressor, LearnedPolicy, RegressionTree
from repro.datamining import DecisionTree, FourierFunction, LabeledStream, OnlineFourierEnsemble
from repro.discovery import (
    BrokerAgent, BrokerGroup, EventLog, Preference, ReplicaRegistry, ReplicatedRegistry,
    SemanticMatcher, ServiceDescription, ShardMap, build_service_ontology,
)
from repro.faults import Fault, LinkDegradation, NodeCrash, Partition, RegionBlackout, UplinkOutage
from repro.grid import ComputeJob, GridResource, Uplink
from repro.network import (
    Battery, BatteryView, GridHashIndex, Message, NetworkNode, RadioEnergyModel, RadioModel,
    RandomWaypoint, Topology, WirelessNetwork,
)
from repro.network.routing import AggregationTree, ClusterFormation, Gossip
from repro.observability import (
    SLO, SamplingConfig, Signal, SLOEvaluator, TelemetryConfig, Tracer,
)
from repro.parallel import TrialRunner, TrialSpec
from repro.pde import BoxGrid, HeatSolver, HeatSolver3D, RectGrid
from repro.queries import CostClause, PartialAggregate, Query, QueryExecutor, parse_query
from repro.queries.ast import SelectItem
from repro.queries.language import QuerySyntaxError
from repro.queries.models import ClusterModel, QueryContext, RegionAverageModel
from repro.resilience import CircuitBreaker, Hedge, RetryPolicy
from repro.sensors import (
    FireField, HotspotField, PlumeField, SensorDeployment, SensorNode, SensorStreamAgent,
    StreamCollectorAgent, UniformField,
)
from repro.simkernel import Histogram, Monitor, RandomStreams, Simulator, TimeSeries
from repro.wms import (
    PilotWorker, PriorityClass, Task, TaskQueueService, TaskRequirements, WorkloadManager,
)
from repro.workloads import QueryWorkload, ServicePopulation

NAN, INF = math.nan, math.inf

#: Exported classes the sweep skips, by name pattern, each with its reason.
EXCLUDED = {
    "enums and exceptions": "not constructed from caller numbers",
    "*Result": "a record the library builds from values it has already checked",
    "*Outcome": "a record the library builds from values it has already checked",
    "*Event": "a record the library builds from values it has already checked",
    "SpanRecord": "a record the tracer builds from the simulator clock and its own ids",
    "Counter": "an instrument the monitor builds; values arrive through add()",
    "Gauge": "an instrument the monitor builds; values arrive through set()",
    "Award": "a contract-net message built by ContractNetInitiator from checked bids",
    "CallForProposals": "a contract-net message built from a checked NegotiatedBinder",
    "Proposal": "a contract-net message built by ContractNetContractor",
    "DeliveryReceipt": "a record WirelessNetwork builds per send",
    "Reading": "a record SensorNode builds per sample",
    "PathSegment": "a record critical_path() builds from a trace",
    "QueryCost": "a record the ledger builds from a finished query",
    "SLOStatus": "a record SLOEvaluator keeps per SLO",
    "SubsystemHealth": "a record the SLO layer builds from its verdicts",
    "CompareReport": "a record compare() builds from two checked result sets",
    "CostEstimate": "a record the execution models build per estimate",
    "CollectionCost": "a record the routing layer builds per collection",
    "ResourceDescription": "a snapshot describe() takes of a checked GridResource per claim",
}

#: Numeric parameters the sweep skips in classes it otherwise covers.
EXCLUDED_PARAMS = {
    ("Task", "submitted_at"): "lifecycle stamp the queue service sets",
    ("Task", "dispatched_at"): "lifecycle stamp the queue service sets",
    ("Task", "finished_at"): "lifecycle stamp the queue service sets",
    ("Task", "attempts"): "lifecycle count the pilots keep",
    ("Task", "task_id"): "an id drawn from a counter; any hashable tag works",
    ("ComputeJob", "job_id"): "an id drawn from a counter; any hashable tag works",
    ("Message", "msg_id"): "an id drawn from a counter; any hashable tag works",
    ("Envelope", "envelope_id"): "an id drawn from a counter; any hashable tag works",
    ("Envelope", "sent_at"): "a stamp the platform sets at dispatch",
}

#: Parameters for which +inf is legal, with what it means.
LEGAL_INF = {
    ("RetryPolicy", "max_elapsed_s"): "no deadline",
    ("Topology", "range_m"): "every pair linked",
    ("GridHashIndex", "radius"): "every pair within range",
    ("RadioModel", "range_m"): "an unbounded disc",
    ("RadioModel", "bandwidth_bps"): "an ideal link serializes in no time",
    ("Battery", "capacity_joules"): "mains power",
    ("BatteryView", "capacity_joules"): "mains power",
    ("SensorDeployment", "battery_j"): "mains power",
    ("PervasiveGridRuntime", "battery_j"): "mains power",
    ("CircuitBreaker", "recovery_timeout_s"): "an open breaker stays open",
    ("TaskRequirements", "max_backlog_s"): "no backlog limit",
}


def _sim():
    return Simulator()


def _rng():
    return np.random.default_rng(0)


def _topology():
    return Topology(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), 1.5)


def _registry():
    return ReplicatedRegistry(SemanticMatcher(build_service_ontology()), 2, 1)


def _slo():
    return SLO("net.x", "d", Signal("last", "x"), 1.0)


#: Class name -> (build(**overrides), {numeric parameter: a finite value out
#: of range, or None when every finite value is legal}).
CASES: dict[str, tuple[typing.Callable[..., object], dict[str, object]]] = {
    # repro
    "PervasiveGridRuntime": (
        lambda **kw: PervasiveGridRuntime(**{"n_sensors": 4, "area_m": 20.0,
                                             "grid_resolution": 8, **kw}),
        {"n_sensors": 0, "area_m": 0.0, "seed": -1, "battery_j": -1.0, "n_handhelds": -1,
         "grid_resolution": 1, "noise_std": -1.0, "broker_detection_delay_s": -1.0}),
    # agents
    "ContractNetContractor": (lambda **kw: ContractNetContractor("c", _sim(), **kw),
                              {"overrun_factor": 0.0}),
    "ContractNetInitiator": (lambda **kw: ContractNetInitiator("i", _sim(), **kw),
                             {"time_weight": -1.0, "reputation_memory": 1.5,
                              "timeout_factor": 0.0}),
    "Envelope": (lambda **kw: Envelope("a", "b", None, **kw),
                 {"size_bits": -1.0}),
    "DirectDeputy": (lambda **kw: DirectDeputy(Agent("a"), _sim(), **kw), {"latency_s": -1.0}),
    "NetworkDeputy": (
        lambda **kw: NetworkDeputy(Agent("a"), WirelessNetwork(_sim(), _topology(), RadioModel()),
                                   **{"host_node": 0, **kw}),
        {"host_node": -1, "retry_s": 0.0, "transcode_factor": 0.0,
         "transcode_hop_threshold": -1, "max_buffer": -1, "max_retransmits": -1}),
    # composition
    "NegotiatedBinder": (lambda **kw: NegotiatedBinder(None, None, **kw),
                         {"max_price": -1.0, "deadline_s": 0.0, "collect_window_s": -1.0}),
    "MailboxServiceAgent": (lambda **kw: MailboxServiceAgent("m", _sim(), lambda x: x, **kw),
                            {"service_time_s": -1.0}),
    "RPCServiceAgent": (lambda **kw: RPCServiceAgent("r", _sim(), {}, **kw),
                        {"service_time_s": -1.0}),
    "ServiceProviderAgent": (
        lambda **kw: ServiceProviderAgent("p", ServiceDescription("s", "c"), _sim(), **kw),
        {"compute_rate": 0.0, "fail_prob": 1.0}),
    "CompositionManager": (lambda **kw: CompositionManager("m", _sim(), None, **kw),
                           {"timeout_s": 0.0, "max_retries": -1, "role_card_bits": -1.0}),
    "ReactiveComposer": (lambda **kw: ReactiveComposer("r", None, None, "b", **kw),
                         {"discovery_timeout_s": 0.0}),
    # core
    "KNNRegressor": (KNNRegressor, {"k": 0, "max_points": 0}),
    "RegressionTree": (RegressionTree, {"max_depth": 0, "min_samples": 1, "refit_every": 0,
                                        "max_points": 0}),
    "LearnedPolicy": (LearnedPolicy, {"epsilon": 1.5, "epsilon_decay": -1.0}),
    # datamining
    "LabeledStream": (lambda **kw: LabeledStream(**{"d": 4, "rng": _rng(), **kw}),
                      {"d": 21, "noise": 0.5, "n_terms": -1, "term_size": -1, "drift_at": -1}),
    "DecisionTree": (DecisionTree, {"max_depth": -1, "min_samples": 0}),
    "FourierFunction": (lambda **kw: FourierFunction(np.zeros(4), **{"d": 2, **kw}), {"d": -1}),
    "OnlineFourierEnsemble": (lambda **kw: OnlineFourierEnsemble(**{"d": 4, **kw}),
                              {"d": 0, "window": 0, "k_coefficients": 0, "max_depth": -1}),
    # discovery
    "Preference": (lambda **kw: Preference("cost", **kw), {"weight": 0.0}),
    "ServiceDescription": (lambda **kw: ServiceDescription("s", "c", **kw),
                           {"host_node": -1, "cost": -1.0, "ops": -1.0, "input_bits": -1.0,
                            "output_bits": -1.0}),
    "ShardMap": (lambda **kw: ShardMap(**{"n_shards": 2, **kw}),
                 {"n_shards": 0, "replication": 0}),
    "ReplicaRegistry": (lambda **kw: ReplicaRegistry(**{"shard_id": 0, "registry": _registry(),
                                                        **kw}), {"shard_id": -1}),
    "ReplicatedRegistry": (
        lambda **kw: ReplicatedRegistry(SemanticMatcher(build_service_ontology()), **kw),
        {"n_shards": 0, "replication": 0}),
    "BrokerAgent": (lambda **kw: BrokerAgent("b", None, **kw), {"top_k": 0}),
    "BrokerGroup": (
        lambda **kw: BrokerGroup(_sim(), repro.agents.AgentPlatform(_sim()), EventLog(),
                                 SemanticMatcher(build_service_ontology()), [None], **kw),
        {"n_shards": 0, "replication": 0, "detection_delay_s": -1.0,
         "replay_s_per_event": -1.0, "top_k": 0}),
    # faults
    "Fault": (lambda **kw: Fault(**{"at_s": 1.0, **kw}), {"at_s": -1.0, "duration_s": 0.0}),
    "NodeCrash": (lambda **kw: NodeCrash(**{"node": 0, "at_s": 1.0, **kw}),
                  {"node": -1, "at_s": -1.0, "duration_s": 0.0}),
    "RegionBlackout": (lambda **kw: RegionBlackout((0.0, 0.0), **{"radius_m": 1.0, "at_s": 1.0,
                                                                   **kw}),
                       {"radius_m": 0.0, "at_s": -1.0, "duration_s": 0.0}),
    "LinkDegradation": (lambda **kw: LinkDegradation(**{"at_s": 1.0, **kw}),
                        {"at_s": -1.0, "duration_s": 0.0, "loss_multiplier": -1.0,
                         "latency_multiplier": -1.0, "bandwidth_multiplier": 0.0,
                         "loss_floor": 1.0}),
    "Partition": (lambda **kw: Partition([0], [1], **{"at_s": 1.0, **kw}),
                  {"at_s": -1.0, "duration_s": 0.0}),
    "UplinkOutage": (lambda **kw: UplinkOutage(**{"at_s": 1.0, **kw}),
                     {"at_s": -1.0, "duration_s": 0.0}),
    # grid
    "ComputeJob": (lambda **kw: ComputeJob(**{"ops": 1.0, **kw}),
                   {"ops": -1.0, "input_bits": -1.0, "output_bits": -1.0,
                    "checkpoint_fraction": 1.5}),
    "GridResource": (lambda **kw: GridResource(_sim(), "s", **{"ops_per_second": 1e6,
                                                               "rng": _rng(), **kw}),
                     {"ops_per_second": 0.0, "fail_prob": 1.0}),
    "Uplink": (lambda **kw: Uplink(_sim(), **kw), {"bandwidth_bps": 0.0, "latency_s": -1.0}),
    # network
    "GridHashIndex": (lambda **kw: GridHashIndex(np.zeros((2, 2)), **{"radius": 1.0, **kw}),
                      {"radius": 0.0}),
    "Battery": (Battery, {"capacity_joules": -1.0}),
    "BatteryView": (BatteryView, {"capacity_joules": -1.0}),
    "RadioEnergyModel": (RadioEnergyModel, {"e_elec": -1.0, "eps_amp": -1.0, "e_cpu_op": -1.0,
                                            "e_sense": -1.0}),
    "RadioModel": (RadioModel, {"bandwidth_bps": 0.0, "latency_s": -1.0, "loss_prob": 1.0,
                                "range_m": 0.0}),
    "Message": (lambda **kw: Message(**{"src": 0, "dst": 1, "size_bits": 8.0, **kw}),
                {"src": -1, "dst": -1, "size_bits": -1.0}),
    "Topology": (lambda **kw: Topology(np.zeros((2, 2)), **{"range_m": 1.0, **kw}),
                 {"range_m": 0.0}),
    "RandomWaypoint": (lambda **kw: RandomWaypoint(_topology(), [0], **{"area_m": 10.0,
                                                                       "rng": _rng(), **kw}),
                       {"area_m": 0.0, "speed_min": 0.0, "speed_max": 0.0, "pause_s": -1.0,
                        "tick_s": 0.0}),
    "NetworkNode": (lambda **kw: NetworkNode(**{"node_id": 0, "battery": Battery(), **kw}),
                    {"node_id": -1}),
    "Gossip": (lambda **kw: Gossip(_topology(), RadioModel(), RadioEnergyModel(), _rng(), **kw),
               {"forward_prob": 0.0, "fanout": 0}),
    "AggregationTree": (lambda **kw: AggregationTree(_topology(), **{"root": 0, **kw}),
                        {"root": -1}),
    "ClusterFormation": (lambda **kw: ClusterFormation(_topology(), **{"sink": 0, "rng": _rng(),
                                                                       **kw}),
                         {"sink": -1, "head_fraction": 0.0}),
    # observability
    "Tracer": (lambda **kw: Tracer(_sim(), **kw), {"max_records": 0}),
    "SLO": (lambda **kw: SLO("net.x", "d", Signal("last", "x"), **{"objective": 1.0, **kw}),
            {"objective": None, "window_s": 0.0}),
    "Signal": (lambda **kw: Signal("percentile", "h", **{"q": 50.0, **kw}), {"q": 101.0}),
    "SLOEvaluator": (lambda **kw: SLOEvaluator(_sim(), Monitor(), [_slo()], **kw),
                     {"interval_s": 0.0}),
    "TelemetryConfig": (TelemetryConfig, {"histogram_max_raw": 0, "series_max_raw": 0,
                                          "max_trace_records": 0}),
    "SamplingConfig": (SamplingConfig, {"head_rate": 1.5, "exemplar_capacity": -1, "seed": -1}),
    # parallel
    "TrialRunner": (lambda **kw: TrialRunner(lambda spec: None, **kw), {"workers": 0}),
    "TrialSpec": (lambda **kw: TrialSpec(**{"index": 0, **kw}), {"index": -1, "seed": -1}),
    # pde
    "RectGrid": (lambda **kw: RectGrid(**{"nx": 4, "ny": 4, "width": 1.0, "height": 1.0, **kw}),
                 {"nx": 1, "ny": 1, "width": 0.0, "height": 0.0}),
    "BoxGrid": (lambda **kw: BoxGrid(**{"nx": 3, "ny": 3, "nz": 3, "width": 1.0, "depth": 1.0,
                                        "height": 1.0, **kw}),
                {"nx": 1, "ny": 1, "nz": 1, "width": 0.0, "depth": 0.0, "height": 0.0}),
    "HeatSolver": (lambda **kw: HeatSolver(RectGrid(4, 4, 1.0, 1.0), **kw),
                   {"conductivity": 0.0}),
    "HeatSolver3D": (lambda **kw: HeatSolver3D(BoxGrid(3, 3, 3, 1.0, 1.0, 1.0), **kw),
                     {"conductivity": 0.0}),
    # queries
    "CostClause": (lambda **kw: CostClause("energy", **{"limit": 1.0, **kw}), {"limit": -1.0}),
    "Query": (lambda **kw: Query((SelectItem("temp", "AVG"),),
                                 **{"epoch_s": 1.0, "duration_s": 10.0, "window_s": 2.0, **kw}),
              {"epoch_s": 0.0, "duration_s": 0.0, "window_s": 0.0}),
    "PartialAggregate": (lambda **kw: PartialAggregate("p", float, max, float, **kw),
                         {"state_size_bits": -1.0}),
    "QueryExecutor": (lambda **kw: QueryExecutor(None, None, **kw), {"max_epochs": 0}),
    "QueryContext": (lambda **kw: QueryContext(None, None, streams=RandomStreams(0), **kw),
                     {"handheld_rate": 0.0, "base_rate": 0.0, "grid_resolution": 1,
                      "rooms_per_side": 0}),
    "ClusterModel": (ClusterModel, {"head_fraction": 0.0}),
    "RegionAverageModel": (RegionAverageModel, {"regions_per_side": 0}),
    # resilience
    "CircuitBreaker": (lambda **kw: CircuitBreaker(_sim(), **kw),
                       {"failure_threshold": 0, "recovery_timeout_s": 0.0}),
    "Hedge": (Hedge, {"delay_s": 0.0, "max_hedges": 0}),
    "RetryPolicy": (RetryPolicy, {"max_attempts": 0, "base_delay_s": -1.0, "max_delay_s": -1.0,
                                  "multiplier": 0.5, "max_elapsed_s": 0.0}),
    # sensors
    "SensorStreamAgent": (lambda **kw: SensorStreamAgent("s", None, **{"sensor_id": 0, **kw}),
                          {"sensor_id": -1, "min_period_s": 0.0}),
    "StreamCollectorAgent": (lambda **kw: StreamCollectorAgent("c", **kw), {"batch_size": 0}),
    "UniformField": (UniformField, {"level": None, "drift_per_s": None}),
    "HotspotField": (lambda **kw: HotspotField(**{"background": 20.0, "hotspots": [], **kw}),
                     {"background": None}),
    "FireField": (lambda **kw: FireField(**{"area_m": 10.0, "rng": _rng(), **kw}),
                  {"area_m": 0.0, "n_seats": 0, "ambient_c": None, "peak_c": None}),
    "PlumeField": (lambda **kw: PlumeField((0.0, 0.0), **kw),
                   {"initial_mass": -1.0, "sigma0_m": 0.0, "spread_m_s": -1.0,
                    "half_life_s": 0.0}),
    "SensorNode": (lambda **kw: SensorNode(**{"node_id": 0, "position": (0.0, 0.0),
                                              "battery": Battery(),
                                              "energy_model": RadioEnergyModel(),
                                              "rng": _rng(), **kw}),
                   {"node_id": -1, "noise_std": -1.0}),
    "SensorDeployment": (lambda **kw: SensorDeployment(**{"n_sensors": 4, "area_m": 20.0, **kw}),
                         {"n_sensors": 0, "area_m": 0.0, "battery_j": -1.0, "n_handhelds": -1,
                          "noise_std": -1.0}),
    # simkernel
    "Simulator": (Simulator, {"start_time": None}),
    "RandomStreams": (RandomStreams, {"root_seed": -1}),
    "TimeSeries": (lambda **kw: TimeSeries("s", **kw), {"max_raw": 0}),
    "Histogram": (lambda **kw: Histogram("h", **kw), {"max_raw": 0}),
    # wms
    "PilotWorker": (lambda **kw: PilotWorker(_sim(), TaskQueueService(_sim()),
                                             GridResource(_sim(), "s", 1e6), **kw),
                    {"max_attempts": 0}),
    "PriorityClass": (lambda **kw: PriorityClass("p", **{"weight": 1.0, **kw}), {"weight": 0.0}),
    "Task": (lambda **kw: Task(**{"ops": 1.0, **kw}),
             {"ops": -1.0, "input_bits": -1.0, "output_bits": -1.0}),
    "TaskQueueService": (lambda **kw: TaskQueueService(_sim(), **kw), {"starvation_s": 0.0}),
    "TaskRequirements": (TaskRequirements, {"min_ops_rate": -1.0, "max_backlog_s": -1.0}),
    "WorkloadManager": (lambda **kw: WorkloadManager(_sim(), [GridResource(_sim(), "s", 1e6)],
                                                     **kw),
                        {"max_attempts": 0, "starvation_s": 0.0}),
    # workloads
    "QueryWorkload": (lambda **kw: QueryWorkload(_rng(), **kw),
                      {"n_sensors": 0, "rooms": 0, "cost_prob": 1.5}),
    "ServicePopulation": (lambda **kw: ServicePopulation(_rng(), **kw), {"area_m": 0.0}),
}


def _exported_classes() -> dict[str, type]:
    modules = [repro] + [importlib.import_module(m.name)
                         for m in pkgutil.walk_packages(repro.__path__, "repro.") if m.ispkg]
    found: dict[str, type] = {}
    for module in modules:
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isclass(obj):
                found.setdefault(obj.__name__, obj)
    return found


def _annotation(parameter: inspect.Parameter) -> str:
    ann = parameter.annotation
    if ann is inspect.Parameter.empty:
        return ""
    if isinstance(ann, typing.ForwardRef):
        return ann.__forward_arg__
    return ann if isinstance(ann, str) else getattr(ann, "__name__", str(ann))


def _numeric_parameters(cls: type) -> dict[str, bool]:
    """Numeric parameter name -> whether it is an ``int`` (a count)."""
    out = {}
    for p in inspect.signature(cls).parameters.values():
        ann = _annotation(p)
        if ann in ("int", "int | None", "float", "float | None") or (
                not ann and isinstance(p.default, (int, float))
                and not isinstance(p.default, bool)):
            if (cls.__name__, p.name) not in EXCLUDED_PARAMS:
                out[p.name] = ann.startswith("int")
    return out


def _excluded(cls: type) -> bool:
    if issubclass(cls, (BaseException, enum.Enum)):
        return True
    return any(fnmatch.fnmatchcase(cls.__name__, pattern) for pattern in EXCLUDED)


EXPORTED = _exported_classes()
PARAMETERS = [(name, param) for name, (_, params) in sorted(CASES.items()) for param in params]


def test_every_numeric_parameter_is_listed():
    """An exported class with an unlisted numeric parameter fails here."""
    unlisted = {}
    for name, cls in sorted(EXPORTED.items()):
        if _excluded(cls):
            continue
        numeric = set(_numeric_parameters(cls))
        listed = set(CASES[name][1]) if name in CASES else set()
        if numeric != listed:
            unlisted[name] = sorted(numeric ^ listed)
    assert not unlisted


def test_tables_name_exported_classes():
    names = set(EXPORTED)
    assert set(CASES) <= names
    assert {cls for cls, _ in EXCLUDED_PARAMS} <= set(CASES)
    assert {cls for cls, _ in LEGAL_INF} <= set(CASES)
    plain = [p for p in EXCLUDED if "*" not in p and " " not in p]
    assert set(plain) <= names


@pytest.mark.parametrize("name, param", PARAMETERS, ids=[f"{c}.{p}" for c, p in PARAMETERS])
def test_rejects_invalid_numbers(name, param):
    build, params = CASES[name]
    build()  # the base arguments are valid
    bad = [NAN, -INF]
    if (name, param) not in LEGAL_INF:
        bad.append(INF)
    if params[param] is not None:
        bad.append(params[param])
    if _numeric_parameters(EXPORTED[name])[param]:
        bad.append(2.5)
    for value in bad:
        with pytest.raises((ValueError, TypeError), match=param):
            build(**{param: value})


@pytest.mark.parametrize("name, param", sorted(LEGAL_INF))
def test_legal_infinity_is_accepted(name, param):
    CASES[name][0](**{param: INF})


#: Inputs that constructors accepted before every one checked its numbers
#: through ``repro.checks``.
MISUSE = [
    lambda: LinkDegradation(1.0, loss_multiplier=NAN),
    lambda: LinkDegradation(1.0, latency_multiplier=INF),
    lambda: LearnedPolicy(epsilon_decay=NAN),
    lambda: LearnedPolicy(epsilon_decay=-1.0),
    lambda: CircuitBreaker(Simulator(), recovery_timeout_s=NAN),
    lambda: CircuitBreaker(Simulator(), failure_threshold=2.5),
    lambda: RetryPolicy(base_delay_s=NAN),
    lambda: RetryPolicy(multiplier=NAN),
    lambda: RetryPolicy(max_attempts=2.5),
    lambda: Hedge(delay_s=NAN),
    lambda: Hedge(max_hedges=1.5),
    lambda: Uplink(Simulator(), bandwidth_bps=NAN),
    lambda: Uplink(Simulator(), latency_s=NAN),
    lambda: Simulator(start_time=NAN),
    lambda: Message(0, 1, NAN),
    lambda: ServiceDescription("s", "c", cost=NAN),
    lambda: Histogram("h", max_raw=NAN),
    lambda: TelemetryConfig(histogram_max_raw=NAN),
]


@pytest.mark.parametrize("make", MISUSE, ids=range(len(MISUSE)))
def test_misuse_fails_at_construction(make):
    with pytest.raises((ValueError, TypeError)):
        make()


def test_negative_query_duration_is_a_syntax_error():
    """It used to run one epoch and report nothing."""
    with pytest.raises(QuerySyntaxError, match="duration_s"):
        parse_query("SELECT AVG(temp) FROM sensors EPOCH DURATION 1 FOR -5")
