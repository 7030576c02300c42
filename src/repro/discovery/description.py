"""Service descriptions and requests.

A :class:`ServiceDescription` is the DAML-S-like *profile* of a service:
its ontology category, input/output types, free-form attributes, and
enough syntactic metadata (interface names, UUIDs) for the baseline
protocols to match against -- the same population is advertised to every
protocol in experiment E5.
"""

from __future__ import annotations

import dataclasses
import typing
import uuid as uuid_module

from repro import checks
from repro.discovery.constraints import Constraint, Preference


@dataclasses.dataclass
class ServiceDescription:
    """A registered service's advertised profile.

    Attributes
    ----------
    name:
        Unique service instance name.
    category:
        Ontology class of the service (DAML-S ``serviceCategory``).
    inputs / outputs:
        Ontology classes of consumed/produced data.
    attributes:
        Free-form attribute map (queue lengths, costs, positions...).
    provider:
        Agent name providing the service (for invocation).
    host_node:
        Topology node the provider runs on (None = wired side).
    interfaces:
        Syntactic interface names (what Jini would register).
    uuid:
        The 128-bit identifier Bluetooth SDP would use.
    cost:
        Advertised invocation cost (generic units; COST-clause planning
        and composition optimization read this).
    ops / input_bits / output_bits:
        Execution profile used by composition cost estimates.
    """

    name: str
    category: str
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    attributes: dict[str, typing.Any] = dataclasses.field(default_factory=dict)
    provider: str = ""
    host_node: int | None = None
    interfaces: tuple[str, ...] = ()
    uuid: str = dataclasses.field(default_factory=lambda: str(uuid_module.uuid4()))
    cost: float = 0.0
    ops: float = 1e6
    input_bits: float = 1024.0
    output_bits: float = 1024.0

    def __post_init__(self) -> None:
        self.inputs = tuple(self.inputs)
        self.outputs = tuple(self.outputs)
        self.interfaces = tuple(self.interfaces)
        if self.host_node is not None:
            checks.count("host_node", self.host_node)
        for name in ("cost", "ops", "input_bits", "output_bits"):
            checks.non_negative(name, getattr(self, name))


@dataclasses.dataclass
class ServiceRequest:
    """What a client is looking for.

    Attributes
    ----------
    category:
        Desired ontology class.
    inputs:
        Data types the client can supply (the service's declared inputs
        must be satisfiable from these).
    outputs:
        Data types the client needs produced.
    constraints:
        Hard constraints; candidates violating any are rejected (unless
        the matcher runs in soft mode, where violations only lower the
        score).
    preferences:
        Soft ranking criteria.
    """

    category: str
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    constraints: tuple[Constraint, ...] = ()
    preferences: tuple[Preference, ...] = ()

    def __post_init__(self) -> None:
        self.inputs = tuple(self.inputs)
        self.outputs = tuple(self.outputs)
        self.constraints = tuple(self.constraints)
        self.preferences = tuple(self.preferences)
