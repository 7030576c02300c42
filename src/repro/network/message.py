"""Messages exchanged over the simulated wireless network."""

from __future__ import annotations

import dataclasses
import itertools
import typing

_message_ids = itertools.count()


@dataclasses.dataclass(slots=True)
class Message:
    """One application-level message.

    Slotted: an instance takes no attributes beyond its fields and no
    weak references.

    Attributes
    ----------
    src, dst:
        Node ids.  ``dst`` of ``None`` means local broadcast.
    size_bits:
        Payload size on the wire; drives serialization delay and energy.
    kind:
        Application tag (e.g. ``"query"``, ``"reading"``, ``"acl"``).
    payload:
        Arbitrary Python object; never serialized (we simulate cost, not
        encoding).
    hops:
        Route taken so far; appended by the network on each hop.
    """

    src: int
    dst: int | None
    size_bits: float
    kind: str = "data"
    payload: typing.Any = None
    hops: list[int] = dataclasses.field(default_factory=list)
    msg_id: int = dataclasses.field(default_factory=lambda: next(_message_ids))

    def __post_init__(self) -> None:
        if self.size_bits < 0:
            raise ValueError("size_bits must be non-negative")

    @property
    def hop_count(self) -> int:
        """Number of hops traversed so far."""
        return len(self.hops)


@dataclasses.dataclass(frozen=True)
class DeliveryReceipt:
    """Outcome of a send: whether and when the message arrived.

    Attributes
    ----------
    delivered:
        False when the message was dropped (loss, partition, dead node).
    time:
        Virtual arrival time (or drop time).
    hops:
        Hops traversed (including the failed hop for drops).
    energy_j:
        Total radio energy charged across all nodes for this message.
    reason:
        For drops: ``"loss"``, ``"no-route"``, ``"dead-node"``,
        ``"dead-source"``.
    """

    delivered: bool
    time: float
    hops: int
    energy_j: float
    reason: str = ""
