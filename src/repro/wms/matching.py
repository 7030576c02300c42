"""Declarative job→resource matching.

DIRAC-style matching is *pull*-shaped: a pilot describes the site it
runs on (:class:`ResourceDescription`, built from the live
:class:`~repro.grid.resource.GridResource` state plus the breaker
board's health view) and asks the central queue for work whose
:class:`TaskRequirements` that description satisfies.  Both sides are
plain declarative data, so matching decisions are auditable and
deterministic -- no callback into user code decides placement.  A
description is built on every pull that finds work, so it is a
``NamedTuple``: immutable, and cheaper to build than a dataclass.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro import checks

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.grid.resource import GridResource
    from repro.resilience.breaker import BreakerBoard


class ResourceDescription(typing.NamedTuple):
    """A pilot's offer: what its site looks like *right now*.

    Attributes
    ----------
    name:
        Site name (matches ``GridResource.name``).
    ops_per_second:
        The site's effective throughput.
    backlog_s:
        Seconds of queued work ahead of a new submission.
    healthy:
        False while the site's circuit breaker blocks traffic.
    """

    name: str
    ops_per_second: float
    backlog_s: float = 0.0
    healthy: bool = True


def describe(resource: "GridResource",
             breakers: "BreakerBoard | None" = None) -> ResourceDescription:
    """Build a :class:`ResourceDescription` from live site state.

    ``breakers`` (when given) contributes the health bit: a site whose
    breaker currently blocks traffic advertises ``healthy=False`` and
    stops matching health-requiring tasks until the breaker half-opens.
    """
    healthy = breakers is None or resource.name not in breakers.blocked_providers()
    return ResourceDescription(resource.name, resource.ops_per_second,
                               resource.backlog_s, healthy)


@dataclasses.dataclass(frozen=True)
class TaskRequirements:
    """A task's demands: which site descriptions may claim it.

    Attributes
    ----------
    min_ops_rate:
        Minimum site throughput (ops/s); slow sites never match.
    max_backlog_s:
        Maximum queued work the task tolerates ahead of it.
    require_healthy:
        Refuse sites whose breaker currently blocks traffic.
    sites:
        Optional allowlist of site names (None = any site).
    """

    min_ops_rate: float = 0.0
    max_backlog_s: float = math.inf
    require_healthy: bool = True
    sites: frozenset[str] | None = None

    def __post_init__(self) -> None:
        checks.non_negative("min_ops_rate", self.min_ops_rate)
        checks.non_negative("max_backlog_s", self.max_backlog_s, inf=True)

    def accepts(self, desc: ResourceDescription) -> bool:
        """Does ``desc`` satisfy every requirement?"""
        if desc.ops_per_second < self.min_ops_rate:
            return False
        if desc.backlog_s > self.max_backlog_s:
            return False
        if self.require_healthy and not desc.healthy:
            return False
        if self.sites is not None and desc.name not in self.sites:
            return False
        return True


#: The permissive default: any healthy site may claim the task.
NO_REQUIREMENTS = TaskRequirements()
