"""Wired Grid substrate.

Simulates the "networked computational resources (a.k.a 'The Grid')" the
pervasive layer offloads to: compute sites with finite throughput and FIFO
queues, minimum-completion-time placement across them, and a WAN uplink
from each base station.
Only *relative* compute and transfer costs matter for the partitioning
decision, so sites are modelled by an effective ops/second rate rather
than by microarchitecture.

* :mod:`~repro.grid.job` -- :class:`ComputeJob` descriptions.
* :mod:`~repro.grid.resource` -- :class:`GridResource`, a queued server.
* :mod:`~repro.grid.uplink` -- the base-station-to-grid WAN link.
* :mod:`~repro.grid.infrastructure` -- :class:`GridInfrastructure` façade,
  which places each job on the site with the earliest predicted finish.
"""

from repro.grid.job import ComputeJob, JobResult
from repro.grid.resource import GridResource
from repro.grid.uplink import Uplink
from repro.grid.infrastructure import GridInfrastructure

__all__ = [
    "ComputeJob",
    "JobResult",
    "GridResource",
    "Uplink",
    "GridInfrastructure",
]
