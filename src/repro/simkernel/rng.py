"""Named independent random substreams.

Reproducibility discipline: every consumer of randomness (mobility model,
radio loss, workload generator, learner, ...) asks :class:`RandomStreams`
for a *named* stream.  Stream state is derived from ``(root_seed, name)``
via ``numpy.random.SeedSequence``, so

* the same root seed always reproduces the same run, and
* adding a new named consumer never perturbs existing streams (unlike a
  single shared generator, where any extra draw shifts every later draw).
"""

from __future__ import annotations

import zlib

import numpy as np

from repro import checks


class RandomStreams:
    """Factory of named, independent ``numpy.random.Generator`` streams.

    Parameters
    ----------
    root_seed:
        Any integer.  Two ``RandomStreams`` with the same root seed yield
        identical streams for identical names.

    Examples
    --------
    >>> streams = RandomStreams(42)
    >>> a = streams.get("mobility")
    >>> b = streams.get("mobility")
    >>> a is b
    True
    >>> streams2 = RandomStreams(42)
    >>> float(streams2.get("mobility").random()) == float(... )  # doctest: +SKIP
    """

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(checks.count("root_seed", root_seed))
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the stream for ``name``, creating it deterministically."""
        stream = self._streams.get(name)
        if stream is None:
            # Stable 32-bit digest of the name; crc32 is deterministic
            # across processes (unlike hash(), which is salted).
            digest = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence([self.root_seed, digest])
            stream = np.random.default_rng(seq)
            self._streams[name] = stream
        return stream

    def spawn(self, name: str) -> "RandomStreams":
        """Derive a child ``RandomStreams`` namespace.

        Used when a subsystem (e.g. each sensor network in a sweep) needs
        its own namespace of streams that is still a pure function of the
        root seed.
        """
        digest = zlib.crc32(name.encode("utf-8"))
        return RandomStreams(root_seed=(self.root_seed * 1_000_003 + digest) % (2**63))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(root_seed={self.root_seed}, streams={sorted(self._streams)})"
