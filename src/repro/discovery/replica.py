"""The service registry: one fold of an event log, sharded and replicated.

"UDDI's present highly centralized model is not appropriate for our
scenario, but ... a distributed set of brokers could be created." (§3)
Every registry in the system -- a broker's store, the runtime's façade,
a standby broker's view -- is a :class:`ReplicatedRegistry`:

* :class:`ReplicatedRegistry` -- the client-facing store: ``n_shards``
  replicas with replication factor R (default one of each) over a
  (possibly shared) :class:`~repro.discovery.log.EventLog`.  Writes
  append to the log.  The registry folds every event once, into one
  :class:`~repro.discovery.matcher.ServiceTable`, so state is a pure
  function of the log prefix.
* :class:`ReplicaRegistry` -- one shard's read-only view of that fold:
  the descriptions whose ontology class the
  :class:`~repro.discovery.shard.ShardMap` assigns to the shard, and an
  ``up`` flag.  So every live name sits on exactly the R owners of its
  latest class.

Reads see a category only while one of its owners is up, so with
``replication >= 2`` any single replica can be down with zero lost
answers.  A search hands the readable advertisements to
:meth:`SemanticMatcher.rank` and ranks them once: while every replica is
up that is the table itself, which keeps the attribute columns rank
builds, and a write refills only the rows it touched.

A *live* instance subscribes to the log and stays current; a *detached*
instance (a standby broker's view) lags behind with its own fold,
refuses writes, and pays an explicit :meth:`~ReplicatedRegistry.catch_up`
replay at promotion time -- the "replays the log tail" step of the
failover protocol in :mod:`repro.discovery.failover`.
"""

from __future__ import annotations

import operator
import typing

from repro.discovery.description import ServiceDescription, ServiceRequest
from repro.discovery.log import EventLog, RegistryEvent
from repro.discovery.matcher import MatchResult, SemanticMatcher, ServiceTable
from repro.discovery.shard import ShardMap

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simkernel.monitor import Monitor


class ReplicaRegistry:
    """One shard replica: its registry's fold, filtered by shard ownership.

    Parameters
    ----------
    shard_id:
        This replica's ring position.
    registry:
        The registry whose fold this shard views.
    """

    def __init__(self, shard_id: int, registry: "ReplicatedRegistry") -> None:
        self.shard_id = int(shard_id)
        self.registry = registry
        self.name = f"{registry.name}/shard-{shard_id}"
        self.up = True  #: failure flag; down replicas drop out of reads

    def _owns(self, category: str) -> bool:
        return self.registry.shard_map.owns(self.shard_id, category)

    def services(self) -> list[ServiceDescription]:
        """This shard's descriptions, by name order."""
        return sorted((s for s in self.registry._table if self._owns(s.category)),
                      key=operator.attrgetter("name"))

    def get(self, service_name: str) -> ServiceDescription | None:
        """One advertisement by name (None when not on this shard)."""
        found = self.registry._table.get(service_name)
        return found if found is not None and self._owns(found.category) else None

    def __len__(self) -> int:
        return sum(self._owns(s.category) for s in self.registry._table)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReplicaRegistry({self.name}, services={len(self)}, up={self.up})"


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
    only categories with an *up* owner.  Writes report what the log fold
    did, whatever replicas are down.
    """

    def __init__(self, matcher: SemanticMatcher, n_shards: int = 1,
                 replication: int = 1, *, log: EventLog | None = None,
                 live: bool = True, monitor: "Monitor | None" = None,
                 name: str = "replicated") -> None:
        self.matcher = matcher
        self.name = name
        self.log = log if log is not None else EventLog()
        self.shard_map = ShardMap(n_shards, replication)
        self.replicas = [ReplicaRegistry(shard, self) for shard in range(n_shards)]
        self.monitor = monitor
        self.applied_seq = 0
        self._table = ServiceTable()
        self._removed = 0  # names the last applied event withdrew
        self._live = False
        # materialize whatever the shared log already holds
        self.catch_up(count_replay=False)
        if live:
            self.attach()

    # ------------------------------------------------------------------
    # the fold
    # ------------------------------------------------------------------
    def _apply(self, event: RegistryEvent) -> int:
        """Fold one event (the next in log order); returns how many
        advertisements it withdrew."""
        removed = 0
        if event.kind == "advertise" or event.kind == "refresh":
            self._table.put(event.service)
        elif event.kind == "withdraw":
            removed = int(self._table.remove(event.service_name))
        else:
            host = event.host_node
            doomed = [s.name for s in self._table if s.host_node == host]
            for name in doomed:
                self._table.remove(name)
            removed = len(doomed)
        self.applied_seq = event.seq
        return removed

    def _on_event(self, event: RegistryEvent) -> None:
        if event.seq <= self.applied_seq:
            return
        self._removed = removed = self._apply(event)
        self._count("disc.withdraw", removed)

    def _count(self, counter: str, n: int = 1) -> None:
        if self.monitor is not None and n:
            self.monitor.counter(counter).add(n)

    def _has_up_owner(self, category: str) -> bool:
        replicas = self.replicas
        return any(replicas[shard].up for shard in self.shard_map.owners_of(category))

    def _readable(self) -> ServiceTable | list[ServiceDescription]:
        """Every advertisement whose category has an up owner: the table
        itself while every replica is up."""
        if all(replica.up for replica in self.replicas):
            return self._table
        return [s for s in self._table if self._has_up_owner(s.category)]

    # ------------------------------------------------------------------
    # log plumbing
    # ------------------------------------------------------------------
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
        """Reset the fold and replay the whole log from seq 1 -- the
        determinism check: state must come out byte-identical."""
        self._table = ServiceTable()
        self.applied_seq = 0
        for event in self.log.events():
            self._apply(event)

    # ------------------------------------------------------------------
    # failure injection surface
    # ------------------------------------------------------------------
    def _replica(self, shard_id: int) -> ReplicaRegistry:
        if not 0 <= shard_id < len(self.replicas):
            raise IndexError(f"shard {shard_id} out of range for {len(self.replicas)} shards")
        return self.replicas[shard_id]

    def mark_down(self, shard_id: int) -> None:
        """Take one replica out of the read set (host died)."""
        self._replica(shard_id).up = False

    def mark_up(self, shard_id: int) -> None:
        """Return a replica to the read set.  Its state is *still the
        log's*: a replica is a view of the one fold, which applies every
        event whatever is down, so a revived replica is instantly
        consistent."""
        self._replica(shard_id).up = True

    # ------------------------------------------------------------------
    # the registry interface
    # ------------------------------------------------------------------
    def advertise(self, service: ServiceDescription) -> None:
        """Append an advertise event, or a refresh when the name is
        already advertised.

        The registry keeps ``service`` itself, not a copy, so treat an
        advertised description as immutable: to change one, advertise a
        new description under the same name.
        """
        if not self._live:
            raise self._detached_write()
        self.log.append_advertise(service, refresh=self._table.get(service.name) is not None)
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
        """Look up one advertisement (None while no owner of its class
        is up)."""
        found = self._table.get(service_name)
        return found if found is not None and self._has_up_owner(found.category) else None

    def services(self) -> list[ServiceDescription]:
        """Every readable advertisement exactly once, by name order."""
        return sorted(self._readable(), key=operator.attrgetter("name"))

    def __len__(self) -> int:
        """Readable advertisements."""
        return len(self._readable())

    def search(self, request: ServiceRequest,
               top_k: int | None = None) -> list[MatchResult]:
        """Rank every readable advertisement **once** -- the same answer
        at any shard/replication count as one dict holding every
        advertisement.

        Ranking per shard and merging ranked lists would *not* be
        equivalent: preference utilities normalize over the surviving
        candidate set, so per-shard scores depend on shard contents.
        While every replica is up the candidates are the table, with the
        attribute columns earlier searches built.
        """
        if top_k is not None and top_k < 0:
            raise ValueError("top_k must be >= 0")
        self._count("disc.search")
        return self.matcher.rank(request, self._readable(), top_k=top_k)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ReplicatedRegistry({self.name}, shards={len(self.replicas)}, "
                f"R={self.shard_map.replication}, services={len(self)}, "
                f"lag={self.lag}, live={self._live})")
