"""Deterministic discrete-event simulation (DES) kernel.

This package is the foundation of every simulated substrate in the
reproduction (wireless network, sensor network, grid, agents).  It provides:

* :class:`~repro.simkernel.simulator.Simulator` -- a single-threaded,
  deterministic event loop with a virtual clock.
* :class:`~repro.simkernel.event.Event` -- a scheduled callback with a
  stable total order (time, priority, sequence number) so that runs are
  exactly reproducible from a seed.
* :class:`~repro.simkernel.rng.RandomStreams` -- named, independent random
  substreams derived from one root seed, so adding a new consumer of
  randomness never perturbs existing streams.
* :class:`~repro.simkernel.monitor.Monitor` -- time-series statistics
  collection (counters, time-weighted averages, event logs).

Design notes
------------
All "concurrency" in the reproduction is simulated time on one OS thread.
Every actor is callback-driven: it schedules callables (a pilot's pull, a
site's completion record) and keeps its own state between them.  This
follows the HPC guidance used for this project: make it work and make
it deterministic first; the numeric hot paths (field evaluation, PDE
assembly, energy sums) are vectorized with numpy in their own modules,
while the event loop itself is ordinary Python because profiling shows it
is not the bottleneck at the scales the paper's scenarios require
(hundreds of nodes, tens of thousands of events).
"""

from repro.simkernel.event import Event, EventHandle
from repro.simkernel.simulator import Simulator, SimulationError
from repro.simkernel.rng import RandomStreams
from repro.simkernel.monitor import Monitor, TimeSeries, Counter, Gauge, Histogram

__all__ = [
    "Event",
    "EventHandle",
    "Simulator",
    "SimulationError",
    "RandomStreams",
    "Monitor",
    "TimeSeries",
    "Counter",
    "Gauge",
    "Histogram",
]
