"""Hedged requests: duplicate slow work to a backup, take the first answer.

The tail-tolerance trick from "The Tail at Scale": if the primary
request has not answered within a latency budget, launch the same
request against a second provider and accept whichever finishes first.
Losers are simply ignored -- in this callback-style codebase that means
their completions hit a guard and drop.  :class:`Hedge` is the policy;
the composers' discovery hedge waves (:mod:`repro.composition.reactive`)
run it.
"""

from __future__ import annotations

import dataclasses

from repro import checks


@dataclasses.dataclass(frozen=True)
class Hedge:
    """Hedging policy: when and how many backups to launch.

    Parameters
    ----------
    delay_s:
        Launch a backup once the primary has been outstanding this long.
    max_hedges:
        How many backups may be launched per call (total requests is
        ``1 + max_hedges``).
    """

    delay_s: float = 5.0
    max_hedges: int = 1

    def __post_init__(self) -> None:
        checks.positive("delay_s", self.delay_s)
        checks.count("max_hedges", self.max_hedges, 1)
