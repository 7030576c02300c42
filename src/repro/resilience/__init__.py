"""Resilience primitives: retries, circuit breakers, hedged requests.

The counterpart of :mod:`repro.faults`: where that package breaks the
system on schedule, this one supplies the standard recovery patterns the
paper's "fault tolerant compositions" (§3) need -- bounded exponential
backoff with jitter (:class:`RetryPolicy`), per-provider circuit
breakers that stop re-binding to flapping hosts (:class:`CircuitBreaker`
/ :class:`BreakerBoard`), and the tail-latency hedging policy
(:class:`Hedge`) the composers' discovery hedge waves follow.
"""

from repro.resilience.breaker import BreakerBoard, CircuitBreaker
from repro.resilience.hedge import Hedge
from repro.resilience.retry import RetryPolicy

__all__ = [
    "BreakerBoard",
    "CircuitBreaker",
    "Hedge",
    "RetryPolicy",
]
