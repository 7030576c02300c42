"""Sharded, replicated registries over one shared event log.

The "distributed set of brokers" the paper asks for (§3) needs a store
that neither fits in one memory nor dies with one host:

* :class:`ReplicaRegistry` -- one shard's materialization of the log.
  It applies every event it is handed, but keeps only descriptions
  whose ontology class the :class:`~repro.discovery.shard.ShardMap`
  assigns to it (withdrawals always apply, so no replica can hold a
  withdrawn name).  State is a pure function of ``(log prefix, shard
  id)``, so :meth:`rebuild` from any prefix is deterministic.
* :class:`ReplicatedRegistry` -- the client-facing store:
  ``n_shards`` replicas with replication factor R over a (possibly
  shared) :class:`~repro.discovery.log.EventLog`.  Writes append to the
  log; searches scatter to every *up* replica and merge ranked results
  by name (best wins), so with ``replication >= 2`` any single replica
  can be down with zero lost answers.  It is interface-compatible with
  :class:`~repro.discovery.registry.ServiceRegistry` (advertise /
  withdraw / withdraw_host / get / services / search / len), so
  binders, brokers and the runtime use either interchangeably.

A *live* instance subscribes to the log and stays current; a *detached*
instance (a standby broker's view) lags behind and pays an explicit
:meth:`~ReplicatedRegistry.catch_up` replay at promotion time -- the
"replays the log tail" step of the failover protocol in
:mod:`repro.discovery.failover`.
"""

from __future__ import annotations

import typing

from repro.discovery.description import ServiceDescription, ServiceRequest
from repro.discovery.log import EventLog, RegistryEvent, apply_event
from repro.discovery.matcher import MatchResult, SemanticMatcher
from repro.discovery.shard import ShardMap

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simkernel.monitor import Monitor


class ReplicaRegistry:
    """One shard replica: the log folded through a shard-ownership filter.

    Parameters
    ----------
    matcher / shard_id / shard_map:
        Search machinery, this replica's ring position, and the class
        assignment it filters advertisements with.
    """

    def __init__(self, matcher: SemanticMatcher, shard_id: int,
                 shard_map: ShardMap, name: str | None = None) -> None:
        self.matcher = matcher
        self.shard_id = int(shard_id)
        self.shard_map = shard_map
        self.name = name if name is not None else f"shard-{shard_id}"
        self._services: dict[str, ServiceDescription] = {}
        self.applied_seq = 0
        self.up = True  #: failure flag; down replicas drop out of searches

    # ------------------------------------------------------------------
    def _accept(self, service: ServiceDescription) -> bool:
        return self.shard_map.owns(self.shard_id, service.category)

    def apply(self, event: RegistryEvent) -> int:
        """Fold one event (must be the next in log order); returns the
        number of descriptions this replica dropped."""
        removed = apply_event(self._services, event, accept=self._accept)
        self.applied_seq = event.seq
        return removed

    def rebuild(self, log: EventLog, upto_seq: int | None = None) -> None:
        """Reset and deterministically replay ``log`` up to ``upto_seq``."""
        self._services.clear()
        self.applied_seq = 0
        for event in log.events(upto_seq=upto_seq):
            self.apply(event)

    # ------------------------------------------------------------------
    def services(self) -> list[ServiceDescription]:
        """This shard's descriptions, by name order."""
        return [self._services[n] for n in sorted(self._services)]

    def get(self, service_name: str) -> ServiceDescription | None:
        """One advertisement by name (None when not on this shard)."""
        return self._services.get(service_name)

    def search(self, request: ServiceRequest,
               top_k: int | None = None) -> list[MatchResult]:
        """Ranked matches among this shard's descriptions only."""
        return self.matcher.rank(request, self.services(), top_k=top_k)

    def __len__(self) -> int:
        return len(self._services)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ReplicaRegistry({self.name}, services={len(self)}, "
                f"applied_seq={self.applied_seq}, up={self.up})")


class ReplicatedRegistry:
    """A sharded, replicated service registry materializing one event log.

    Parameters
    ----------
    matcher:
        Semantic matcher shared by every replica.
    n_shards / replication:
        Ring size and copies per ontology class (see
        :class:`~repro.discovery.shard.ShardMap`).
    log:
        The shared source of truth; default a private log.  Several
        instances over one log (the active broker's view, each standby's
        view, the client-side write façade) all converge to the same
        state because the log orders every mutation.
    live:
        When True (default) subscribe to the log and stay current; when
        False the view lags until :meth:`catch_up` / :meth:`attach`.
    monitor:
        Optional monitor for the canonical ``disc.*`` counters.
    name:
        Diagnostics label.
    """

    def __init__(self, matcher: SemanticMatcher, n_shards: int = 4,
                 replication: int = 2, *, log: EventLog | None = None,
                 live: bool = True, monitor: "Monitor | None" = None,
                 name: str = "replicated") -> None:
        self.matcher = matcher
        self.name = name
        self.log = log if log is not None else EventLog()
        self.shard_map = ShardMap(n_shards, replication)
        self.replicas = [
            ReplicaRegistry(matcher, shard, self.shard_map,
                            name=f"{name}/shard-{shard}")
            for shard in range(n_shards)
        ]
        self.monitor = monitor
        self.applied_seq = 0
        self.advertise_count = 0
        self.search_count = 0
        self.withdraw_count = 0
        self.replayed_events = 0
        self._live = False
        # materialize whatever the shared log already holds
        self.catch_up(count_replay=False)
        if live:
            self.attach()

    # ------------------------------------------------------------------
    # log plumbing
    # ------------------------------------------------------------------
    def _on_event(self, event: RegistryEvent) -> None:
        if event.seq <= self.applied_seq:
            return
        # count *distinct* withdrawn services (each lives on R replicas)
        removed = 0
        if event.kind == "withdraw":
            removed = int(any(r.get(event.service_name) is not None
                              for r in self.replicas))
        elif event.kind == "withdraw-host":
            doomed = {s.name for r in self.replicas for s in r._services.values()
                      if s.host_node == event.host_node}
            removed = len(doomed)
        for replica in self.replicas:
            replica.apply(event)
        self.applied_seq = event.seq
        if removed:
            self.withdraw_count += removed
            self._count("disc.withdraw", removed)

    def _count(self, counter: str, n: int = 1) -> None:
        if self.monitor is not None and n:
            self.monitor.counter(counter).add(n)

    @property
    def live(self) -> bool:
        """Is this view subscribed to the log (lag pinned at zero)?"""
        return self._live

    @property
    def lag(self) -> int:
        """Events appended to the log but not yet applied here --
        the staleness the ``disc.staleness`` objective watches."""
        return self.log.last_seq - self.applied_seq

    def attach(self) -> None:
        """Catch up and subscribe (idempotent): the view goes live."""
        self.catch_up()
        if not self._live:
            self.log.subscribe(self._on_event)
            self._live = True

    def detach(self) -> None:
        """Unsubscribe; the view freezes at its current ``applied_seq``
        (a crashed or demoted broker's state)."""
        if self._live:
            self.log.unsubscribe(self._on_event)
            self._live = False

    def catch_up(self, *, count_replay: bool = True) -> int:
        """Replay the log tail ``(applied_seq, last]``; returns the number
        of events replayed.  This is the promoted standby's recovery work,
        counted under ``disc.replay_events``."""
        tail = self.log.events(after_seq=self.applied_seq)
        for event in tail:
            self._on_event(event)
        if count_replay and tail:
            self.replayed_events += len(tail)
            self._count("disc.replay_events", len(tail))
        return len(tail)

    def rebuild(self) -> None:
        """Reset every replica and replay the whole log from seq 1 --
        the determinism check: state must come out byte-identical."""
        for replica in self.replicas:
            replica.rebuild(self.log)
        self.applied_seq = self.log.last_seq

    # ------------------------------------------------------------------
    # failure injection surface
    # ------------------------------------------------------------------
    def mark_down(self, shard_id: int) -> None:
        """Take one replica out of the search set (host died)."""
        self.replicas[shard_id].up = False

    def mark_up(self, shard_id: int) -> None:
        """Return a replica to the search set.  Its state is *still the
        log's*: replicas share this view's ``applied_seq``, so a revived
        replica is instantly consistent."""
        self.replicas[shard_id].up = True

    def up_replicas(self) -> list[ReplicaRegistry]:
        """The replicas currently serving searches."""
        return [r for r in self.replicas if r.up]

    # ------------------------------------------------------------------
    # the ServiceRegistry interface
    # ------------------------------------------------------------------
    def advertise(self, service: ServiceDescription) -> None:
        """Append an advertise/refresh event; replicas owning the class
        pick it up (live views immediately, detached views at catch-up)."""
        known = self.get(service.name) is not None
        event = self.log.append_advertise(service, refresh=known)
        if not self._live:
            self._on_event(event)
        self.advertise_count += 1
        self._count("disc.advertise")

    def withdraw(self, service_name: str) -> bool:
        """Append a withdraw event; True if any replica held the name."""
        present = self.get(service_name) is not None
        event = self.log.append_withdraw(service_name)
        if not self._live:
            self._on_event(event)
        return present

    def withdraw_host(self, host_node: int) -> int:
        """Append a withdraw-host event; returns how many descriptions
        this view dropped."""
        before = len(self)
        event = self.log.append_withdraw_host(host_node)
        if not self._live:
            self._on_event(event)
        return before - len(self)

    def get(self, service_name: str) -> ServiceDescription | None:
        """Look up one advertisement across up replicas."""
        for replica in self.replicas:
            if replica.up:
                found = replica.get(service_name)
                if found is not None:
                    return found
        return None

    def services(self) -> list[ServiceDescription]:
        """Every advertisement exactly once, by name order (replicas
        overlap by construction; names dedup them)."""
        merged: dict[str, ServiceDescription] = {}
        for replica in self.replicas:
            if replica.up:
                merged.update(replica._services)
        return [merged[n] for n in sorted(merged)]

    def __len__(self) -> int:
        """Distinct advertisement names across up replicas."""
        return len(set().union(*(r._services for r in self.replicas if r.up)))

    def search(self, request: ServiceRequest,
               top_k: int | None = None) -> list[MatchResult]:
        """Gather candidates from every up replica (dedup by name), then
        rank the merged set **once** -- identical output to an unsharded
        :class:`~repro.discovery.registry.ServiceRegistry` holding the
        same advertisements, at any shard/replication count.

        Ranking per shard and merging ranked lists would *not* be
        equivalent: preference utilities normalize over the surviving
        candidate set, so per-shard scores depend on shard contents.
        Candidates are cheap to gather (dict merges); only the single
        global rank pays matcher cost.
        """
        self.search_count += 1
        self._count("disc.search")
        return self.matcher.rank(request, self.services(), top_k=top_k)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ReplicatedRegistry({self.name}, shards={len(self.replicas)}, "
                f"R={self.shard_map.replication}, services={len(self)}, "
                f"lag={self.lag}, live={self._live})")
