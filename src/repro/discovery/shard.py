"""Consistent-hash sharding of service descriptions by ontology class.

"Millions of service descriptions" do not fit one broker's memory or one
broker's query budget, so the replicated registry spreads them across
shard replicas by the *category* of the advertised service: every
description of one ontology class lands on the same ``replication``
consecutive shards of a hash ring.  The ring uses virtual points per
shard, so shard counts can change without reshuffling every class, and
hashing is :func:`hashlib.blake2b`-based -- stable across processes and
Python versions, unlike the builtin ``hash`` (which is salted per
process and would break cross-worker determinism).
"""

from __future__ import annotations

import bisect
import hashlib
import typing

#: Virtual points per shard on the ring; more points smooth the key
#: distribution at the cost of a larger ring.
POINTS_PER_SHARD = 32


def stable_hash(key: str) -> int:
    """A process-independent 64-bit hash of ``key``."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ShardMap:
    """A consistent-hash ring assigning ontology classes to shards.

    Parameters
    ----------
    n_shards:
        Number of shard replicas on the ring.
    replication:
        How many *distinct* shards hold each class (R).  ``R >= 2`` keeps
        every class searchable with any single replica down.
    """

    def __init__(self, n_shards: int, replication: int = 1) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if not 1 <= replication <= n_shards:
            raise ValueError("replication must be in [1, n_shards]")
        self.n_shards = int(n_shards)
        self.replication = int(replication)
        ring = []
        for shard in range(self.n_shards):
            for point in range(POINTS_PER_SHARD):
                ring.append((stable_hash(f"shard-{shard}:{point}"), shard))
        ring.sort()
        self._ring_keys = [k for k, _ in ring]
        self._ring_shards = [s for _, s in ring]
        # the ring never changes, so each category's walk is done once;
        # bounded by the number of distinct categories ever asked about
        self._owners: dict[str, tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    def owners_of(self, category: str) -> tuple[int, ...]:
        """The ``replication`` distinct shards holding ``category``,
        walking clockwise from the class's ring position (primary first)."""
        cached = self._owners.get(category)
        if cached is not None:
            return cached
        start = bisect.bisect_right(self._ring_keys, stable_hash(category))
        owners: list[int] = []
        n_points = len(self._ring_shards)
        for step in range(n_points):
            shard = self._ring_shards[(start + step) % n_points]
            if shard not in owners:
                owners.append(shard)
                if len(owners) == self.replication:
                    break
        self._owners[category] = result = tuple(owners)
        return result

    def primary_of(self, category: str) -> int:
        """The first owner on the ring (deterministic tie-break home)."""
        return self.owners_of(category)[0]

    def owns(self, shard: int, category: str) -> bool:
        """Does ``shard`` hold descriptions of ``category``?"""
        return shard in self.owners_of(category)

    def assignment(self, categories: typing.Iterable[str]) -> dict[int, list[str]]:
        """``{shard: [categories]}`` over every shard (diagnostics; empty
        shards appear with empty lists so balance is visible)."""
        out: dict[int, list[str]] = {shard: [] for shard in range(self.n_shards)}
        for category in categories:
            for shard in self.owners_of(category):
                out[shard].append(category)
        return {shard: sorted(cats) for shard, cats in out.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardMap(n_shards={self.n_shards}, "
                f"replication={self.replication})")
