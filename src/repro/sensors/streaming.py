"""Sensor data streams as agent subscriptions.

"extremely low cost sensors ... could constantly monitor the environment
and generate data streams over wireless networks" (§1); the proactive
health/defense scenarios *mine these streams*, so the agent layer needs a
publish/subscribe primitive.

:class:`SensorStreamAgent` fronts one sensor: subscribers send a
``SUBSCRIBE`` speech act with their desired period; the agent samples its
sensor every period and INFORMs each subscriber with the reading (over
whatever deputy the subscriber has -- wireless subscribers pay wireless
costs).  Publication stops automatically when the sensor's battery dies.

:class:`StreamCollectorAgent` is the matching consumer: it buffers
incoming readings and fires a batch callback every ``batch_size``
readings -- the bridge into :mod:`repro.datamining`.
"""

from __future__ import annotations

import typing

from repro import checks
from repro.agents.acl import ACLMessage, Performative
from repro.agents.agent import Agent
from repro.agents.attributes import AgentAttributes, AgentRole
from repro.sensors.deployment import SensorDeployment
from repro.sensors.node import Reading
from repro.simkernel import Simulator


class SensorStreamAgent(Agent):
    """Publishes one sensor's readings to subscribers.

    Parameters
    ----------
    name:
        Agent name.
    deployment:
        The sensor network (sampling pays real battery energy).
    sensor_id:
        Which sensor this agent fronts.
    min_period_s:
        Floor on the subscription period (radio duty-cycle protection).
    """

    def __init__(
        self,
        name: str,
        deployment: SensorDeployment,
        sensor_id: int,
        min_period_s: float = 0.1,
    ) -> None:
        super().__init__(name, AgentAttributes.of(AgentRole.SENSOR, host_kind="sensor"))
        self.deployment = deployment
        self.sensor_id = checks.count("sensor_id", sensor_id)
        self.min_period_s = checks.positive("min_period_s", min_period_s)
        self._subscribers: dict[str, float] = {}  # name -> period
        self._ticking: set[str] = set()
        self.published = 0

    @property
    def sim(self) -> Simulator:
        return self.deployment.sim

    def setup(self) -> None:
        self.on(Performative.SUBSCRIBE, self._handle_subscribe)

    # ------------------------------------------------------------------
    def _handle_subscribe(self, msg: ACLMessage) -> None:
        content = msg.content if isinstance(msg.content, dict) else {}
        action = content.get("action", "subscribe")
        if action == "unsubscribe":
            self._subscribers.pop(msg.sender, None)
            self.reply(msg, Performative.INFORM, {"subscribed": False})
            return
        period = max(float(content.get("period_s", 1.0)), self.min_period_s)
        fresh = msg.sender not in self._subscribers
        self._subscribers[msg.sender] = period
        self.reply(msg, Performative.INFORM, {"subscribed": True, "period_s": period})
        if fresh and msg.sender not in self._ticking:
            self._ticking.add(msg.sender)
            self._tick(msg.sender)

    def _tick(self, subscriber: str) -> None:
        period = self._subscribers.get(subscriber)
        if period is None:
            self._ticking.discard(subscriber)
            return
        if self.platform is None or not self.deployment.topology.is_alive(self.sensor_id):
            self._ticking.discard(subscriber)
            self._subscribers.pop(subscriber, None)
            return
        reading = self.deployment.sample_sensor(self.sensor_id)
        if reading is not None:
            self.send(
                subscriber,
                ACLMessage(Performative.INFORM, sender=self.name, receiver=subscriber,
                           content={"kind": "reading", "reading": reading}),
                size_bits=Reading.SIZE_BITS,
            )
            self.published += 1
        self.sim.schedule(period, lambda: self._tick(subscriber),
                          label=f"stream:{self.name}->{subscriber}")


class StreamCollectorAgent(Agent):
    """Buffers subscribed readings and emits batches.

    Parameters
    ----------
    name:
        Agent name.
    batch_size:
        Readings per batch callback.
    on_batch:
        Called with ``list[Reading]`` when a batch fills.
    """

    def __init__(
        self,
        name: str,
        batch_size: int = 16,
        on_batch: typing.Callable[[list[Reading]], None] | None = None,
    ) -> None:
        super().__init__(name, AgentAttributes.of(AgentRole.CLIENT))
        self.batch_size = checks.count("batch_size", batch_size, 1)
        self.on_batch = on_batch
        self.readings: list[Reading] = []
        self.batches = 0

    def setup(self) -> None:
        self.on(Performative.INFORM, self._handle_inform)

    def subscribe_to(self, stream_agent: str, period_s: float = 1.0) -> None:
        """Send the SUBSCRIBE speech act to a stream agent."""
        self.ask(stream_agent, Performative.SUBSCRIBE,
                 {"action": "subscribe", "period_s": period_s})

    def unsubscribe_from(self, stream_agent: str) -> None:
        """Stop a subscription."""
        self.ask(stream_agent, Performative.SUBSCRIBE, {"action": "unsubscribe"})

    def _handle_inform(self, msg: ACLMessage) -> None:
        content = msg.content
        if not isinstance(content, dict) or content.get("kind") != "reading":
            return
        self.readings.append(content["reading"])
        if len(self.readings) % self.batch_size == 0:
            self.batches += 1
            if self.on_batch is not None:
                self.on_batch(self.readings[-self.batch_size:])
