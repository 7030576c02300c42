"""Compute job descriptions.

A :class:`JobResult` is built per completion, so it is a ``NamedTuple``:
immutable, and cheaper to build than a dataclass.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import typing

_job_ids = itertools.count()


@dataclasses.dataclass
class ComputeJob:
    """One unit of work submitted to the grid (or run locally).

    Attributes
    ----------
    ops:
        Abstract operation count (floating-point-op-equivalents).  The
        query cost model produces this; resources divide by their rate.
    input_bits / output_bits:
        Data shipped to / from the compute site, driving transfer cost.
    compute:
        Optional callable performing the *actual* computation (e.g. the
        PDE solve); invoked at completion so results are real, while
        timing comes from the cost model.
    name:
        Human-readable tag.
    checkpoint_fraction:
        Fraction of ``ops`` already completed and durably checkpointed.
        A site that fails mid-service advances this before reporting
        failure, so a re-submission only pays for the remaining work.
    """

    ops: float
    input_bits: float = 0.0
    output_bits: float = 0.0
    compute: typing.Callable[[], typing.Any] | None = None
    name: str = ""
    job_id: int = dataclasses.field(default_factory=lambda: next(_job_ids))
    checkpoint_fraction: float = 0.0

    def __post_init__(self) -> None:
        # chained comparisons are False for NaN, so each also rejects it
        if not (0.0 <= self.ops < math.inf and 0.0 <= self.input_bits < math.inf
                and 0.0 <= self.output_bits < math.inf):
            raise ValueError("ops and bit counts must be finite and non-negative")
        if not 0.0 <= self.checkpoint_fraction <= 1.0:
            raise ValueError("checkpoint_fraction must be in [0, 1]")

    @property
    def remaining_ops(self) -> float:
        """Operations still to run past the last checkpoint."""
        return self.ops * (1.0 - self.checkpoint_fraction)


class JobResult(typing.NamedTuple):
    """Completion record for a job.

    Attributes
    ----------
    job_id:
        Id of the completed job.
    value:
        Return value of the job's ``compute`` callable (None if absent).
    submitted_at / started_at / finished_at:
        Queueing timeline in virtual time.
    resource:
        Name of the site that ran the job.
    success:
        False when the site failed mid-service (the job may be
        re-submitted; its ``checkpoint_fraction`` has been advanced).
    error:
        Failure reason tag ("" on success).
    """

    job_id: int
    value: typing.Any
    submitted_at: float
    started_at: float
    finished_at: float
    resource: str
    success: bool = True
    error: str = ""

    @property
    def queue_wait_s(self) -> float:
        """Seconds spent waiting in the site's queue."""
        return self.started_at - self.submitted_at

    @property
    def service_s(self) -> float:
        """Seconds spent executing."""
        return self.finished_at - self.started_at

    @property
    def turnaround_s(self) -> float:
        """Submit-to-finish wall time."""
        return self.finished_at - self.submitted_at
