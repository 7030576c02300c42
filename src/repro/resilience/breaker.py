"""Per-provider circuit breakers.

A flapping host makes the composition manager waste a full per-attempt
timeout every time it re-binds to it.  The breaker remembers: after
``failure_threshold`` consecutive failures the circuit *opens* and the
provider is excluded from binding; after ``recovery_timeout_s`` it goes
*half-open*, letting exactly one trial request through -- success closes
the circuit, failure re-opens it for another full timeout.

State transitions are driven lazily off ``sim.now`` (no scheduled
events), so breakers are free until consulted and never keep an idle
simulation alive.
"""

from __future__ import annotations

import math

from repro.observability.tracer import NOOP_TRACER, Tracer
from repro.simkernel import Monitor, Simulator

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Closed / open / half-open breaker for one provider.

    Parameters
    ----------
    sim:
        Clock source (virtual time decides open -> half-open).
    failure_threshold:
        Consecutive failures that open the circuit.
    recovery_timeout_s:
        How long an open circuit blocks before probing again.
    name:
        Provider name, for diagnostics.
    """

    def __init__(
        self,
        sim: Simulator,
        failure_threshold: int = 3,
        recovery_timeout_s: float = 60.0,
        name: str = "",
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if recovery_timeout_s <= 0:
            raise ValueError("recovery_timeout_s must be positive")
        self.sim = sim
        self.failure_threshold = failure_threshold
        self.recovery_timeout_s = recovery_timeout_s
        self.name = name
        self._state = CLOSED
        self._failures = 0
        self._opened_at = -1.0
        self._probing = False
        self.trips = 0
        #: Span/event sink (wired by :class:`BreakerBoard` when it has one).
        self.tracer = NOOP_TRACER

    def _transition(self, to_state: str) -> None:
        if self.tracer.enabled:
            self.tracer.event("resilience.breaker_transition", provider=self.name,
                              from_state=self._state, to_state=to_state)
        self._state = to_state

    # ------------------------------------------------------------------
    def _poll(self) -> None:
        if self._state == OPEN and self.sim.now - self._opened_at >= self.recovery_timeout_s:
            self._transition(HALF_OPEN)
            self._probing = False

    @property
    def state(self) -> str:
        """Current state after lazy open -> half-open promotion."""
        self._poll()
        return self._state

    @property
    def half_opens_at(self) -> float | None:
        """The first simulated time at which this circuit, open now, reads
        half-open (``inf`` when it never does); None unless it is open."""
        if self.state != OPEN:
            return None
        # opened_at + timeout may round below the time the lazy check passes
        time = self._opened_at + self.recovery_timeout_s
        while time - self._opened_at < self.recovery_timeout_s:
            time = math.nextafter(time, math.inf)
        return time

    @property
    def blocked(self) -> bool:
        """True while requests must not be routed to this provider.

        Read-only: never consumes the half-open probe slot, so binders
        can consult every provider's breaker without side effects.
        """
        state = self.state
        if state == OPEN:
            return True
        if state == HALF_OPEN:
            return self._probing  # one probe in flight: hold further traffic
        return False

    def allow(self) -> bool:
        """Ask to send one request now.  In half-open state this consumes
        the single probe slot, so call it only when actually sending."""
        state = self.state
        if state == OPEN:
            return False
        if state == HALF_OPEN:
            if self._probing:
                return False
            self._probing = True
        return True

    # ------------------------------------------------------------------
    def record_success(self) -> None:
        """Provider answered: close the circuit, reset failure count."""
        self._poll()
        if self._state != CLOSED:
            self._transition(CLOSED)
        self._failures = 0
        self._probing = False

    def record_failure(self) -> bool:
        """Provider failed (timeout, error, churned away).

        Returns True when this failure tripped the circuit open.
        """
        self._poll()
        if self._state == HALF_OPEN:
            # failed probe: straight back to open for a fresh timeout
            self._transition(OPEN)
            self._opened_at = self.sim.now
            self._probing = False
            self.trips += 1
            return True
        self._failures += 1
        if self._state == CLOSED and self._failures >= self.failure_threshold:
            self._transition(OPEN)
            self._opened_at = self.sim.now
            self.trips += 1
            return True
        return False


class BreakerBoard:
    """Lazily-created :class:`CircuitBreaker` per provider name.

    Trips are counted in the shared monitor (``resilience.breaker.trips``)
    when one is attached.
    """

    def __init__(self, sim: Simulator, monitor: Monitor | None = None,
                 tracer: Tracer | None = None, **breaker_kwargs) -> None:
        self.sim = sim
        self.monitor = monitor
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.breaker_kwargs = breaker_kwargs
        self._breakers: dict[str, CircuitBreaker] = {}

    def get(self, provider: str) -> CircuitBreaker:
        """The breaker for ``provider``, created on first use."""
        breaker = self._breakers.get(provider)
        if breaker is None:
            breaker = CircuitBreaker(self.sim, name=provider, **self.breaker_kwargs)
            breaker.tracer = self.tracer
            self._breakers[provider] = breaker
        return breaker

    def blocked_providers(self) -> set[str]:
        """Names of all providers whose breaker currently blocks traffic."""
        return {name for name, b in self._breakers.items() if b.blocked}

    def next_half_open(self) -> float | None:
        """The earliest time an open breaker here half-opens (None when
        none is open or none of the open ones ever half-opens)."""
        times = [t for t in (b.half_opens_at for b in self._breakers.values())
                 if t is not None and t < math.inf]
        return min(times, default=None)

    def record_success(self, provider: str) -> None:
        """Report one success for ``provider``."""
        self.get(provider).record_success()

    def record_failure(self, provider: str) -> None:
        """Report one failure for ``provider``; counts trips in the monitor."""
        if self.get(provider).record_failure() and self.monitor is not None:
            self.monitor.counter("resilience.breaker.trips").add(1)

    def __len__(self) -> int:
        return len(self._breakers)
