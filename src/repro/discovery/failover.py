"""Single-active broker failover over the shared event log.

The paper's distributed brokers must survive the paper's own fault model
("services may be coming up and going down frequently").  This module
implements the sticky single-active pattern: one broker of a group is
registered on the platform under the well-known service name, the rest
are standbys, and a deterministic protocol promotes the **lowest-id live
standby** when the active broker's host dies:

1. the crash detaches the active broker's registry view and unregisters
   the well-known name -- in-flight queries go undeliverable and clients
   fall back to their retry/hedge policies;
2. after ``detection_delay_s`` the group picks the lowest-id live
   standby;
3. the standby **replays the log tail** it missed (``replay_s_per_event``
   of simulated time per event -- recovery work is proportional to
   staleness, not to registry size);
4. it registers under the well-known name and resumes serving.

The outage is *bounded* (detection + replay) and *lossless*: every
advertisement that reached the :class:`~repro.discovery.log.EventLog`
is visible after promotion, because broker state is a log
materialization, never primary data.  Every transition lands on the
group's :attr:`~BrokerGroup.timeline`, in the monitor
(``disc.failover`` counter, ``disc.failover_time`` histogram) and, when
tracing, as a ``discovery.failover`` span bracketed by
``disc.broker_down`` / ``disc.promote`` events the dashboard's alert
timeline renders.
"""

from __future__ import annotations

import dataclasses
import typing

from repro import checks
from repro.discovery.broker import BrokerAgent
from repro.discovery.log import EventLog
from repro.discovery.matcher import SemanticMatcher
from repro.discovery.replica import ReplicatedRegistry
from repro.observability.tracer import NOOP_SPAN, NOOP_TRACER, STATUS_OK, Tracer

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.agents.platform import AgentPlatform
    from repro.simkernel.monitor import Monitor
    from repro.simkernel.simulator import Simulator


@dataclasses.dataclass(frozen=True)
class FailoverEvent:
    """One transition of the broker group's lifecycle timeline.

    Attributes
    ----------
    time_s:
        Virtual time of the transition.
    phase:
        ``"activate"`` (initial), ``"down"`` (active lost),
        ``"promote"`` (standby took over), ``"stalled"`` (no live
        standby to promote), ``"rejoin"`` (member back as standby).
    broker_id:
        The member concerned (None for ``stalled``).
    detail:
        Human-readable context (host, replayed events, outage length).
    """

    time_s: float
    phase: str
    broker_id: int | None
    detail: str


@dataclasses.dataclass
class _BrokerMember:
    """One broker identity: an id, a host, and a lagging log view."""

    id: int
    host_node: int | None
    view: ReplicatedRegistry
    alive: bool = True


class BrokerGroup:
    """Active/standby brokers sharing one event log.

    Parameters
    ----------
    sim / platform:
        The clock and the agent fabric the active broker serves on.
    log:
        The shared source of truth every member's view materializes.
    matcher:
        Semantic matcher for the member views.
    hosts:
        One entry per member: the topology node the member runs on
        (None = wired side, immune to node faults).  Member ids are the
        indices; member 0 is the initial active.
    service_name:
        The well-known agent name clients address; it always resolves to
        the current active broker.
    n_shards / replication:
        Shape of each member's :class:`~repro.discovery.replica.ReplicatedRegistry`.
    detection_delay_s:
        Time between the active's death and the promotion decision.
    replay_s_per_event:
        Simulated seconds of replay work per missed log event.
    top_k:
        Forwarded to each :class:`~repro.discovery.broker.BrokerAgent`.

    Notify the group of host transitions with :meth:`node_down` /
    :meth:`node_up` -- the same hook shape churn and the
    :class:`~repro.faults.FaultInjector` already speak.
    """

    def __init__(
        self,
        sim: "Simulator",
        platform: "AgentPlatform",
        log: EventLog,
        matcher: SemanticMatcher,
        hosts: typing.Sequence[int | None],
        *,
        service_name: str = "broker",
        n_shards: int = 4,
        replication: int = 2,
        detection_delay_s: float = 2.0,
        replay_s_per_event: float = 0.002,
        monitor: "Monitor | None" = None,
        tracer: Tracer | None = None,
        top_k: int | None = 10,
    ) -> None:
        if not hosts:
            raise ValueError("a broker group needs at least one member")
        self.sim = sim
        self.platform = platform
        self.log = log
        self.service_name = service_name
        self.detection_delay_s = float(checks.non_negative("detection_delay_s", detection_delay_s))
        self.replay_s_per_event = float(checks.non_negative("replay_s_per_event",
                                                            replay_s_per_event))
        self.monitor = monitor
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.top_k = None if top_k is None else checks.count("top_k", top_k, 1)
        self.members = [
            _BrokerMember(
                id=i,
                host_node=None if host is None else int(host),
                view=ReplicatedRegistry(
                    matcher, n_shards, replication, log=log, live=False,
                    monitor=monitor, name=f"{service_name}-{i}"),
            )
            for i, host in enumerate(hosts)
        ]
        self.active_id: int | None = None
        self.timeline: list[FailoverEvent] = []
        self.failovers = 0
        self._outage_started: float | None = None
        self._failover_span = NOOP_SPAN
        self._activate(self.members[0], initial=True)

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def active(self) -> _BrokerMember | None:
        """The currently-serving member (None mid-failover)."""
        return None if self.active_id is None else self.members[self.active_id]

    def active_name(self) -> str:
        """The stable name clients should address (survives failovers)."""
        return self.service_name

    def active_broker(self) -> BrokerAgent | None:
        """The registered :class:`BrokerAgent`, or None during an outage."""
        if self.platform.is_registered(self.service_name):
            agent = self.platform.agent(self.service_name)
            if isinstance(agent, BrokerAgent):
                return agent
        return None

    def staleness(self) -> int:
        """Log events not yet served by any promotable broker: 0 while an
        active broker is live; during an outage, the lag of the most
        caught-up live standby (or the whole log if none survives)."""
        if self.active is not None:
            return self.active.view.lag
        live = [m.view.lag for m in self.members if m.alive]
        return min(live) if live else self.log.last_seq

    def online(self) -> bool:
        """Is an active broker currently serving?"""
        return self.active_id is not None

    def _record(self, phase: str, broker_id: int | None, detail: str) -> None:
        self.timeline.append(FailoverEvent(self.sim.now, phase, broker_id, detail))

    # ------------------------------------------------------------------
    # fault hooks
    # ------------------------------------------------------------------
    def node_down(self, node: int) -> None:
        """A topology node died; any member hosted there goes down."""
        for member in self.members:
            if member.host_node == node and member.alive:
                member.alive = False
                if member.id == self.active_id:
                    self._begin_failover(member)

    def node_up(self, node: int) -> None:
        """A topology node recovered; members hosted there rejoin as
        standbys (their stale views catch up at their next promotion)."""
        for member in self.members:
            if member.host_node == node and not member.alive:
                member.alive = True
                self._record("rejoin", member.id, f"host {node} recovered")
                if self.active_id is None:
                    self.sim.schedule(self.detection_delay_s, self._try_promote,
                                      label="broker-failover:promote")

    # ------------------------------------------------------------------
    # the failover protocol
    # ------------------------------------------------------------------
    def _begin_failover(self, member: _BrokerMember) -> None:
        member.view.detach()  # its in-memory state died with the host
        if self.platform.is_registered(self.service_name):
            self.platform.unregister(self.service_name)
        self.active_id = None
        self._outage_started = self.sim.now
        self._record("down", member.id, f"host {member.host_node} crashed")
        if self.monitor is not None:
            self.monitor.counter("disc.broker_down").add(1)
        if self.tracer.enabled:
            self._failover_span = self.tracer.span(
                "discovery.failover", broker_id=member.id,
                host=member.host_node)
            self.tracer.event("disc.broker_down", broker_id=member.id,
                              host=member.host_node)
        self.sim.schedule(self.detection_delay_s, self._try_promote,
                          label="broker-failover:promote")

    def _try_promote(self) -> None:
        if self.active_id is not None:
            return
        candidates = [m for m in self.members if m.alive]
        if not candidates:
            self._record("stalled", None, "no live standby to promote")
            return
        chosen = min(candidates, key=lambda m: m.id)
        tail = self.log.last_seq - chosen.view.applied_seq
        delay = tail * self.replay_s_per_event
        self.sim.schedule(delay, lambda: self._finish_promotion(chosen),
                          label="broker-failover:replay")

    def _finish_promotion(self, member: _BrokerMember) -> None:
        if self.active_id is not None:
            return
        if not member.alive:  # died mid-replay; pick the next candidate
            self._try_promote()
            return
        self._activate(member, initial=False)

    def _activate(self, member: _BrokerMember, *, initial: bool) -> None:
        replayed = member.view.catch_up()
        member.view.attach()
        agent = BrokerAgent(self.service_name, member.view, top_k=self.top_k)
        self.platform.register(agent, host_node=member.host_node)
        self.active_id = member.id
        if initial:
            self._record("activate", member.id,
                         f"host {member.host_node}, replayed {replayed} events")
            return
        outage = self.sim.now - (self._outage_started
                                 if self._outage_started is not None else self.sim.now)
        self._outage_started = None
        self.failovers += 1
        self._record("promote", member.id,
                     f"replayed {replayed} events, outage {outage:.3g} s")
        if self.monitor is not None:
            self.monitor.counter("disc.failover").add(1)
            self.monitor.histogram("disc.failover_time").observe(outage)
        if self.tracer.enabled:
            self.tracer.event("disc.promote", broker_id=member.id,
                              replayed=replayed, outage_s=outage)
            self._failover_span.set(promoted=member.id, replayed=replayed)
            self._failover_span.end(STATUS_OK)
            self._failover_span = NOOP_SPAN

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BrokerGroup(members={len(self.members)}, "
                f"active={self.active_id}, failovers={self.failovers})")
