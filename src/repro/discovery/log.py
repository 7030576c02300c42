"""The append-only registry event log: discovery's source of truth.

"UDDI's present highly centralized model is not appropriate for our
scenario" (§3) -- and neither is a single in-memory dict.  Every mutation
of the service directory is an immutable :class:`RegistryEvent` appended
to an :class:`EventLog` with a monotonic sequence number; registries,
shard replicas and standby brokers are all *materializations* of a log
prefix.  Every registry folds events into its one
:class:`~repro.discovery.matcher.ServiceTable`, and the fold is a pure
function of ``(state, event)``, so any consumer replaying the same prefix
reconstructs byte-identical state -- the property the E13-D crash-storm
benchmark asserts, and the reason a broker crash can never lose
advertisements that reached the log.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.discovery.description import ServiceDescription

#: Legal event kinds. ``refresh`` re-advertises a known name; it applies
#: exactly like ``advertise`` and exists so metrics and debuggers can
#: tell liveness traffic from genuinely new services.
EVENT_KINDS = ("advertise", "refresh", "withdraw", "withdraw-host")


@dataclasses.dataclass(frozen=True)
class RegistryEvent:
    """One immutable entry of the discovery log.

    Attributes
    ----------
    seq:
        Monotonic sequence number, 1-based, assigned by the log.
    time_s:
        Virtual time the event was appended.
    kind:
        One of :data:`EVENT_KINDS`.
    service:
        The advertised profile (``advertise`` / ``refresh`` only).
    service_name:
        The withdrawn instance name (``withdraw`` only).
    host_node:
        The dead host (``withdraw-host`` only).
    """

    seq: int
    time_s: float
    kind: str
    service: ServiceDescription | None = None
    service_name: str | None = None
    host_node: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"kind must be one of {EVENT_KINDS}")
        if self.kind in ("advertise", "refresh") and self.service is None:
            raise ValueError(f"{self.kind} events need a service")
        if self.kind == "withdraw" and not self.service_name:
            raise ValueError("withdraw events need a service_name")
        if self.kind == "withdraw-host" and self.host_node is None:
            raise ValueError("withdraw-host events need a host_node")

    @property
    def category(self) -> str | None:
        """The ontology class the event concerns (None for withdrawals,
        whose shard owner is whoever currently holds the name)."""
        return self.service.category if self.service is not None else None


class EventLog:
    """An append-only, subscribable list of :class:`RegistryEvent`.

    Parameters
    ----------
    clock:
        Zero-argument callable stamping ``time_s`` on appends (pass
        ``lambda: sim.now``); defaults to a constant 0.0 for logs used
        outside a simulation.

    Consumers either *subscribe* (live registries receive each event as
    it lands) or *replay* (fold :meth:`events` of any range into their
    state -- what a promoted standby does with the log tail).
    """

    def __init__(self, clock: typing.Callable[[], float] | None = None) -> None:
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._events: list[RegistryEvent] = []
        self._subscribers: list[typing.Callable[[RegistryEvent], None]] = []

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def _append(self, event: RegistryEvent) -> RegistryEvent:
        self._events.append(event)
        for fn in list(self._subscribers):
            fn(event)
        return event

    def append_advertise(self, service: ServiceDescription,
                         *, refresh: bool = False) -> RegistryEvent:
        """Append an ``advertise`` (or ``refresh``) of ``service``."""
        kind = "refresh" if refresh else "advertise"
        return self._append(RegistryEvent(self.last_seq + 1, self._clock(),
                                          kind, service=service))

    def append_withdraw(self, service_name: str) -> RegistryEvent:
        """Append a ``withdraw`` of one instance name."""
        return self._append(RegistryEvent(self.last_seq + 1, self._clock(),
                                          "withdraw", service_name=service_name))

    def append_withdraw_host(self, host_node: int) -> RegistryEvent:
        """Append a ``withdraw-host`` for every service on a dead node."""
        return self._append(RegistryEvent(self.last_seq + 1, self._clock(),
                                          "withdraw-host", host_node=int(host_node)))

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Sequence number of the newest event (0 when empty)."""
        return self._events[-1].seq if self._events else 0

    def events(self, after_seq: int = 0,
               upto_seq: int | None = None) -> list[RegistryEvent]:
        """Events with ``after_seq < seq <= upto_seq`` (the replayable tail).

        Sequence numbers are dense and 1-based, so this is a plain slice.
        """
        if after_seq < 0:
            raise ValueError("after_seq must be >= 0")
        if upto_seq is not None and upto_seq < 0:
            raise ValueError("upto_seq must be >= 0")
        end = len(self._events) if upto_seq is None else min(upto_seq, len(self._events))
        return self._events[after_seq:end]

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> typing.Iterator[RegistryEvent]:
        return iter(self._events)

    # ------------------------------------------------------------------
    # subscription
    # ------------------------------------------------------------------
    def subscribe(self, fn: typing.Callable[[RegistryEvent], None]) -> None:
        """Deliver every future append to ``fn`` (idempotent)."""
        if fn not in self._subscribers:
            self._subscribers.append(fn)

    def unsubscribe(self, fn: typing.Callable[[RegistryEvent], None]) -> None:
        """Stop delivering appends to ``fn`` (no-op when absent)."""
        if fn in self._subscribers:
            self._subscribers.remove(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventLog(events={len(self._events)}, last_seq={self.last_seq})"
