"""Envelopes: the uniform message wrapper.

"The messages that are interchanged between Ronin Agents are embedded
within Envelope objects during the delivery process. ... Within each
Envelope object, the type of content message and the ontology identifier
of the content message are also stored." (§2)
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

from repro import checks

_envelope_ids = itertools.count()


@dataclasses.dataclass
class Envelope:
    """Transport-level wrapper around any content message.

    Attributes
    ----------
    sender / receiver:
        Agent names; resolved to deputies by the platform.
    content:
        The wrapped message (usually an :class:`~repro.agents.acl.ACLMessage`,
        but the meta-level design allows "arbitrary content message types").
    content_type:
        Identifier of the content language (``"acl"``, ``"soap"``,
        ``"raw"`` ...).
    ontology:
        Identifier of the ontology the content uses.
    size_bits:
        Wire size used by network deputies for timing/energy; transcoding
        deputies may shrink this in transit.
    sent_at:
        Stamped by the platform on dispatch.
    """

    sender: str
    receiver: str
    content: typing.Any
    content_type: str = "acl"
    ontology: str = ""
    size_bits: float = 1024.0
    sent_at: float = 0.0
    envelope_id: int = dataclasses.field(default_factory=lambda: next(_envelope_ids))

    def __post_init__(self) -> None:
        checks.non_negative("size_bits", self.size_bits)

    def transcoded(self, factor: float) -> "Envelope":
        """A copy whose wire size is scaled by ``factor`` (0 < f <= 1).

        Models the deputy-side transcoding feature: the content object is
        carried unchanged (we simulate cost, not encodings), only the
        simulated size shrinks.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError("transcode factor must be in (0, 1]")
        return dataclasses.replace(self, size_bits=self.size_bits * factor, envelope_id=next(_envelope_ids))
