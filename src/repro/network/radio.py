"""Link-layer radio characteristics: bandwidth, latency, loss.

The paper requires the runtime to "handle the transport level problems
caused by low bandwidth, high latency, frequent disconnections".
:class:`RadioModel` captures a radio technology's link parameters;
profiles for the technologies the paper names (mote radios, Bluetooth,
802.11, and the wired grid backbone) are provided as constructors.
"""

from __future__ import annotations

import dataclasses
import math


@dataclasses.dataclass(frozen=True)
class RadioModel:
    """Parameters of one radio technology.

    Attributes
    ----------
    bandwidth_bps:
        Link throughput, bits/second.
    latency_s:
        Per-hop propagation + MAC latency, seconds.
    loss_prob:
        Independent per-hop message loss probability in [0, 1).
    range_m:
        Maximum communication range (unit-disc model), metres.

    NaN is rejected everywhere.  Bandwidth and range may be infinite (an
    ideal link serializes in no time; an unbounded disc reaches every
    node), but latency must be finite: an infinite hop time cannot be
    scheduled.
    """

    bandwidth_bps: float = 250_000.0
    latency_s: float = 0.01
    loss_prob: float = 0.0
    range_m: float = 30.0

    def __post_init__(self) -> None:
        # written so that NaN fails every check
        if not self.bandwidth_bps > 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth_bps!r}")
        if not 0 <= self.latency_s < math.inf:
            raise ValueError(f"latency must be finite and non-negative, got {self.latency_s!r}")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError(f"loss_prob must be in [0, 1), got {self.loss_prob!r}")
        if not self.range_m > 0:
            raise ValueError(f"range must be positive, got {self.range_m!r}")

    def transmission_time(self, bits: float) -> float:
        """Seconds to push ``bits`` onto the link (serialization delay)."""
        if bits < 0:
            raise ValueError("bits must be non-negative")
        return bits / self.bandwidth_bps

    def hop_time(self, bits: float) -> float:
        """Total one-hop delivery time: serialization + propagation/MAC."""
        return self.transmission_time(bits) + self.latency_s

    # ------------------------------------------------------------------
    # Technology profiles named in the paper
    # ------------------------------------------------------------------
    @staticmethod
    def mote() -> "RadioModel":
        """A mote-class sensor radio (TinyOS-era, ~250 kbps, 30 m)."""
        return RadioModel(bandwidth_bps=250_000.0, latency_s=0.01, loss_prob=0.02, range_m=30.0)

    @staticmethod
    def bluetooth() -> "RadioModel":
        """Bluetooth 1.1 as used by the paper's PocketPC testbed (~723 kbps, 10 m)."""
        return RadioModel(bandwidth_bps=723_000.0, latency_s=0.03, loss_prob=0.01, range_m=10.0)

    @staticmethod
    def wifi() -> "RadioModel":
        """802.11b as used by the paper's notebook testbed (~11 Mbps, 100 m)."""
        return RadioModel(bandwidth_bps=11_000_000.0, latency_s=0.005, loss_prob=0.005, range_m=100.0)

    @staticmethod
    def wired_backbone() -> "RadioModel":
        """The wired grid uplink from a base station (vBNS/Internet2-class)."""
        return RadioModel(bandwidth_bps=100_000_000.0, latency_s=0.02, loss_prob=0.0, range_m=float(1e9))
