"""The service registry: sharded, replicated folds of one event log.

"UDDI's present highly centralized model is not appropriate for our
scenario, but ... a distributed set of brokers could be created." (§3)
Every registry in the system -- a broker's store, the runtime's façade,
a standby broker's view -- is a :class:`ReplicatedRegistry`:

* :class:`ReplicaRegistry` -- one shard's materialization of the log.
  It applies every event it is handed, but keeps only descriptions
  whose ontology class the :class:`~repro.discovery.shard.ShardMap`
  assigns to it: an advertisement under a class it does not own drops
  the name, and withdrawals always apply.  So every live name sits on
  exactly the R owners of its latest class, and state is a pure
  function of ``(log prefix, shard id)``.
* :class:`ReplicatedRegistry` -- the client-facing store: ``n_shards``
  replicas with replication factor R (default one of each) over a
  (possibly shared) :class:`~repro.discovery.log.EventLog`.  Writes
  append to the log; searches gather candidates from every *up* replica
  and rank them once, so with ``replication >= 2`` any single replica
  can be down with zero lost answers.

A *live* instance subscribes to the log and stays current; a *detached*
instance (a standby broker's view) lags behind, refuses writes, and pays
an explicit :meth:`~ReplicatedRegistry.catch_up` replay at promotion
time -- the "replays the log tail" step of the failover protocol in
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
    shard_id / shard_map:
        This replica's ring position, and the class assignment it
        filters advertisements with.
    """

    def __init__(self, shard_id: int, shard_map: ShardMap,
                 name: str | None = None) -> None:
        self.shard_id = int(shard_id)
        self.shard_map = shard_map
        self.name = name if name is not None else f"shard-{shard_id}"
        self._services: dict[str, ServiceDescription] = {}
        self.applied_seq = 0
        self.up = True  #: failure flag; down replicas drop out of reads

    # ------------------------------------------------------------------
    def _accept(self, service: ServiceDescription) -> bool:
        return self.shard_map.owns(self.shard_id, service.category)

    def apply(self, event: RegistryEvent) -> int:
        """Fold one event (must be the next in log order); returns the
        number of descriptions it withdrew from this replica."""
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

    def __len__(self) -> int:
        return len(self._services)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ReplicaRegistry({self.name}, services={len(self)}, "
                f"applied_seq={self.applied_seq}, up={self.up})")


class ReplicatedRegistry:
    """The service registry: a sharded, replicated fold of one event log.

    Parameters
    ----------
    matcher:
        Semantic matcher ranking search candidates.
    n_shards / replication:
        Ring size and copies per ontology class (see
        :class:`~repro.discovery.shard.ShardMap`).  The default, one
        shard holding one copy, is a single broker's plain store.
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

    Reads (:meth:`get`, :meth:`services`, ``len``, :meth:`search`) see
    only *up* replicas.  Writes report what the log fold did on every
    replica, up or not.
    """

    def __init__(self, matcher: SemanticMatcher, n_shards: int = 1,
                 replication: int = 1, *, log: EventLog | None = None,
                 live: bool = True, monitor: "Monitor | None" = None,
                 name: str = "replicated") -> None:
        self.matcher = matcher
        self.name = name
        self.log = log if log is not None else EventLog()
        self.shard_map = ShardMap(n_shards, replication)
        self.replicas = [
            ReplicaRegistry(shard, self.shard_map, name=f"{name}/shard-{shard}")
            for shard in range(n_shards)
        ]
        self.monitor = monitor
        self.applied_seq = 0
        self._removed = 0  # distinct names the last applied event withdrew
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
        removed = 0
        for replica in self.replicas:
            removed += replica.apply(event)
        if removed:
            # every live name sits on exactly R replicas, so a withdrawal
            # drops R copies of each distinct name
            removed //= self.shard_map.replication
            self._count("disc.withdraw", removed)
        self._removed = removed
        self.applied_seq = event.seq

    def _count(self, counter: str, n: int = 1) -> None:
        if self.monitor is not None and n:
            self.monitor.counter(counter).add(n)

    def _detached_write(self) -> RuntimeError:
        return RuntimeError(
            f"registry view {self.name!r} is detached: it is a crashed or "
            "demoted broker's frozen state; attach() it before writing")

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
        (a crashed or demoted broker's state) and refuses writes."""
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
        if count_replay:
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
        """Take one replica out of the read set (host died)."""
        self.replicas[shard_id].up = False

    def mark_up(self, shard_id: int) -> None:
        """Return a replica to the read set.  Its state is *still the
        log's*: every replica applies every event, up or not, so a
        revived replica is instantly consistent."""
        self.replicas[shard_id].up = True

    # ------------------------------------------------------------------
    # the registry interface
    # ------------------------------------------------------------------
    def advertise(self, service: ServiceDescription) -> None:
        """Append an advertise event, or a refresh when any replica holds
        the name; the replicas owning the class pick it up."""
        if not self._live:
            raise self._detached_write()
        # a plain loop, not any() over a generator: the hottest write path
        name = service.name
        known = False
        for replica in self.replicas:
            if name in replica._services:
                known = True
                break
        self.log.append_advertise(service, refresh=known)
        self._count("disc.advertise")

    def withdraw(self, service_name: str) -> bool:
        """Append a withdraw event; True if the name was advertised."""
        if not self._live:
            raise self._detached_write()
        self.log.append_withdraw(service_name)
        return self._removed > 0

    def withdraw_host(self, host_node: int) -> int:
        """Append a withdraw-host event; returns how many advertisements
        it removed."""
        if not self._live:
            raise self._detached_write()
        self.log.append_withdraw_host(host_node)
        return self._removed

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
        rank the merged set **once** -- the same answer at any
        shard/replication count as one dict holding every advertisement.

        Ranking per shard and merging ranked lists would *not* be
        equivalent: preference utilities normalize over the surviving
        candidate set, so per-shard scores depend on shard contents.
        Candidates are cheap to gather (dict merges); only the single
        global rank pays matcher cost.
        """
        self._count("disc.search")
        return self.matcher.rank(request, self.services(), top_k=top_k)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ReplicatedRegistry({self.name}, shards={len(self.replicas)}, "
                f"R={self.shard_map.replication}, services={len(self)}, "
                f"lag={self.lag}, live={self._live})")
