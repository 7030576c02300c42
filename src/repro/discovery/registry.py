"""The distributed-broker overlay over service registries.

"UDDI's present highly centralized model is not appropriate for our
scenario, but ... a distributed set of brokers could be created." (§3)

:class:`DistributedBrokerNetwork` links several registries into a
peering overlay: a query hits the local broker first and is forwarded
to peers up to a hop limit, merging ranked results -- the decentralized
alternative to one UDDI node.  Each member is a
:class:`~repro.discovery.replica.ReplicatedRegistry`, the one registry,
which folds its own event log; the single-active broker failover
protocol lives in :mod:`repro.discovery.failover`.
"""

from __future__ import annotations

import typing

from repro.discovery.description import ServiceRequest
from repro.discovery.matcher import MatchResult
from repro.discovery.replica import ReplicatedRegistry


class DistributedBrokerNetwork:
    """A peering overlay of registries.

    Parameters
    ----------
    registries:
        The member brokers.
    peers:
        Adjacency as ``{broker_name: [peer_names]}``; defaults to a full
        mesh.

    Queries start at a home broker and propagate breadth-first up to
    ``max_hops`` peer hops; results are merged, deduplicated by service
    name (best result wins) and re-sorted.
    """

    def __init__(
        self,
        registries: list[ReplicatedRegistry],
        peers: dict[str, list[str]] | None = None,
    ) -> None:
        if not registries:
            raise ValueError("need at least one registry")
        self.registries = {r.name: r for r in registries}
        if len(self.registries) != len(registries):
            raise ValueError("registry names must be unique")
        if peers is None:
            peers = {
                name: [other for other in self.registries if other != name]
                for name in self.registries
            }
        for name, plist in peers.items():
            if name not in self.registries:
                raise KeyError(f"unknown broker {name!r}")
            for p in plist:
                if p not in self.registries:
                    raise KeyError(f"unknown peer {p!r}")
        self.peers = peers

    def home_of(self, host_node: int | None, assignment: typing.Callable[[int | None], str]) -> ReplicatedRegistry:
        """Resolve the home broker for a host via an assignment function."""
        return self.registries[assignment(host_node)]

    def withdraw_host(self, host_node: int) -> int:
        """Withdraw a dead host's services from **every** member broker.

        A service advertised (or cached) at several brokers would
        otherwise stay reachable through peering after its host died --
        the federated overlay's version of the stale-registry bug.
        Returns the total withdrawn across members.
        """
        return sum(registry.withdraw_host(host_node)
                   for registry in self.registries.values())

    def search(
        self,
        request: ServiceRequest,
        home: str,
        max_hops: int = 1,
        top_k: int | None = None,
    ) -> tuple[list[MatchResult], int]:
        """Federated search from ``home``; returns (results, brokers_asked).

        A member whose matcher ranks by degree returns only its own top
        ``top_k``: a result of the merged top ``top_k`` has fewer than
        ``top_k`` better names at its own broker too.
        """
        if home not in self.registries:
            raise KeyError(f"unknown broker {home!r}")
        if top_k is not None and top_k < 0:
            raise ValueError("top_k must be >= 0")
        visited = {home}
        frontier = [home]
        merged: dict[str, MatchResult] = {}
        hops = 0
        while frontier:
            for name in frontier:
                registry = self.registries[name]
                # only a member ranking in sort_key order can be cut at top_k
                ask = top_k if registry.matcher.use_degrees else None
                for result in registry.search(request, top_k=ask):
                    prev = merged.get(result.service.name)
                    if prev is None or result.sort_key() < prev.sort_key():
                        merged[result.service.name] = result
            if hops >= max_hops:
                break
            nxt = []
            for name in frontier:
                for peer in self.peers.get(name, []):
                    if peer not in visited:
                        visited.add(peer)
                        nxt.append(peer)
            frontier = nxt
            hops += 1
        results = sorted(merged.values(), key=MatchResult.sort_key)
        if top_k is not None:
            results = results[:top_k]
        return results, len(visited)
