"""Semantic service discovery (paper §3).

The paper's critique of Jini/SDP/SLP-era discovery is that services are
described "entirely in syntactic terms as interface descriptions",
matching is exact, and "only equality constraints" are expressible -- you
cannot ask for "a printer service that has the shortest print queue, that
is geographically the closest, or that will print in color but only
within a prespecified cost constraint".

This package reproduces the semantic alternative the paper proposes
(DAML/DAML-S descriptions matched fuzzily against an ontology, returning
*ranked* lists) **and** the syntactic baselines it criticizes, so the
expressiveness gap is measurable (experiment E5):

* :mod:`~repro.discovery.ontology` -- a description-logic-lite class
  hierarchy with subsumption and semantic distance.
* :mod:`~repro.discovery.description` -- service profiles and requests.
* :mod:`~repro.discovery.constraints` -- non-equality constraints and
  soft preferences.
* :mod:`~repro.discovery.matcher` -- degrees EXACT > PLUGIN > SUBSUMES >
  OVERLAP > FAIL with fuzzy scoring and ranking.
* :mod:`~repro.discovery.log` -- the append-only registry event log
  (the source of truth every store materializes).
* :mod:`~repro.discovery.shard` -- consistent-hash sharding of
  descriptions by ontology class.
* :mod:`~repro.discovery.replica` -- the service registry: one
  deterministic fold of a shared log, read through sharded, replicated
  views.
* :mod:`~repro.discovery.registry` -- the distributed broker overlay.
* :mod:`~repro.discovery.failover` -- single-active broker groups with
  deterministic standby promotion.
* :mod:`~repro.discovery.broker` -- the broker *agent* speaking ACL.
* :mod:`~repro.discovery.protocols` -- Jini interface matching,
  Bluetooth-SDP UUID matching, and SLP attribute matching baselines.
"""

from repro.discovery.ontology import Ontology, build_service_ontology
from repro.discovery.constraints import Constraint, Preference
from repro.discovery.description import ServiceDescription, ServiceRequest
from repro.discovery.log import EventLog, RegistryEvent
from repro.discovery.matcher import MatchDegree, MatchResult, SemanticMatcher
from repro.discovery.shard import ShardMap, stable_hash
from repro.discovery.replica import ReplicaRegistry, ReplicatedRegistry
from repro.discovery.registry import DistributedBrokerNetwork
from repro.discovery.broker import BrokerAgent
from repro.discovery.failover import BrokerGroup, FailoverEvent

__all__ = [
    "Ontology",
    "build_service_ontology",
    "Constraint",
    "Preference",
    "ServiceDescription",
    "ServiceRequest",
    "EventLog",
    "RegistryEvent",
    "MatchDegree",
    "MatchResult",
    "SemanticMatcher",
    "ShardMap",
    "stable_hash",
    "DistributedBrokerNetwork",
    "ReplicaRegistry",
    "ReplicatedRegistry",
    "BrokerAgent",
    "BrokerGroup",
    "FailoverEvent",
]
