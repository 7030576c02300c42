"""Dense reference topology: the oracle the production ``Topology`` is
checked against.

:class:`DenseTopology` mirrors :class:`repro.network.topology.Topology`'s
mutators (``move``, ``move_all``, ``kill``, ``revive``, ``block_links``,
``unblock_links``) but keeps no index and no cache: every query rebuilds
the ``(n, n)`` adjacency from scratch with
:func:`repro.network.geometry.neighbors_within`, masks dead nodes and
blocked links, and answers routes with a plain lowest-id-first BFS.  It
shares nothing with the grid hash except the ``np.hypot`` distance
comparison, so agreement on every query is evidence that the index, the
per-generation neighbor cache and the route cache are exact.

:func:`leach_form` is one LEACH formation round as a per-node loop: the
reference for :meth:`repro.network.routing.ClusterFormation.form`, which
assigns every member at once from a members × heads distance table.

:class:`PerReceiverNetwork` is the per-receiver broadcast fan-out over a
:class:`ColumnBank`: one battery draw and one ``Counter.add`` per
receiver, liveness read through ``Topology.is_alive`` at fire time and
receiver copies built by the ``Message`` constructor.  It is the
reference for :meth:`repro.network.WirelessNetwork.broadcast_local`,
which charges a fan-out in one pass over bank cells that hold their own
charge, adds the receivers' energy through ``Counter.add_repeated`` and
fills receiver copies slot by slot.
"""

import collections
import copy

import numpy as np

from repro.network import Message, WirelessNetwork
from repro.network.geometry import neighbors_within


class DenseTopology:
    """Unit-disc topology recomputed wholesale on every query."""

    def __init__(self, positions, range_m):
        self.positions = np.array(positions, dtype=np.float64)
        self.range_m = float(range_m)
        self.alive = np.ones(len(self.positions), dtype=bool)
        #: symmetric ``(lo, hi)`` pair -> how many times it is blocked
        self.blocked = collections.Counter()

    # -- mutators (same contract as Topology) ---------------------------
    def move(self, node, position):
        self.positions[node] = position

    def move_all(self, positions):
        self.positions[:] = positions

    def kill(self, node):
        self.alive[node] = False

    def revive(self, node):
        self.alive[node] = True

    def block_links(self, group_a, group_b):
        for a in group_a:
            for b in group_b:
                if a != b:
                    self.blocked[(min(a, b), max(a, b))] += 1

    def unblock_links(self, group_a, group_b):
        for a in group_a:
            for b in group_b:
                key = (min(a, b), max(a, b))
                if a != b and self.blocked[key]:
                    self.blocked[key] -= 1
                    if not self.blocked[key]:
                        del self.blocked[key]

    # -- queries ---------------------------------------------------------
    def adjacency(self):
        """Boolean ``(n, n)`` adjacency: in range, both alive, not blocked."""
        adj = neighbors_within(self.positions, self.range_m)
        adj &= self.alive[:, None]
        adj &= self.alive[None, :]
        for a, b in self.blocked:
            adj[a, b] = adj[b, a] = False
        return adj

    def bfs_tree(self, root):
        """Parent map of the BFS tree from ``root`` (root maps to itself),
        expanding neighbors in ascending id order."""
        adj = self.adjacency()
        parent = {root: root}
        queue = collections.deque([root])
        while queue:
            u = queue.popleft()
            for v in np.flatnonzero(adj[u]):
                v = int(v)
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
        return parent

    def hop_counts_from(self, root):
        parent = self.bfs_tree(root)
        hops = {}
        for node in parent:
            steps, cursor = 0, node
            while cursor != root:
                cursor = parent[cursor]
                steps += 1
            hops[node] = steps
        return hops

    def shortest_path(self, src, dst):
        if src == dst:
            return [src]
        if not (self.alive[src] and self.alive[dst]):
            return None
        parent = self.bfs_tree(src)
        if dst not in parent:
            return None
        path = [dst]
        while path[-1] != src:
            path.append(parent[path[-1]])
        return path[::-1]

    def is_connected(self, among=None):
        nodes = list(among) if among is not None else [
            int(i) for i in np.flatnonzero(self.alive)]
        if len(nodes) <= 1:
            return True
        reached = self.bfs_tree(nodes[0])
        return all(n in reached for n in nodes)


def leach_form(topology, sink, rng, head_fraction):
    """``(heads, membership)`` of one round, each node's nearest head
    found on its own; draws from ``rng`` exactly as the production round."""
    candidates = [n for n in topology.alive_nodes() if n != sink]
    if not candidates:
        return [], {}
    draws = rng.random(len(candidates))
    heads = [n for n, d in zip(candidates, draws) if d < head_fraction]
    if not heads:
        heads = [candidates[int(rng.integers(len(candidates)))]]
    heads = sorted(heads)
    head_pos = topology.positions[heads]
    membership = {}
    for node in candidates:
        if node in heads:
            membership[node] = node
            continue
        delta = head_pos - topology.positions[node][None, :]
        dists = np.hypot(delta[:, 0], delta[:, 1])
        membership[node] = heads[int(np.argmin(dists))]
    return heads, membership


class ColumnBank:
    """Battery fleet whose per-cell state lives in float64/int64 columns,
    charged through :class:`ColumnView` slots."""

    def __init__(self, capacities):
        cap = np.asarray(capacities, dtype=np.float64).copy()
        self.capacity = cap
        self.remaining = cap.copy()
        self.consumed = np.zeros(len(cap), dtype=np.float64)
        self.draws = np.zeros(len(cap), dtype=np.int64)

    def batteries(self):
        return [ColumnView(self, i) for i in range(len(self.capacity))]


class ColumnView:
    """The ``Battery`` surface over one :class:`ColumnBank` slot."""

    def __init__(self, bank, index):
        self.bank = bank
        self.index = index

    @property
    def remaining(self):
        return float(self.bank.remaining[self.index])

    @property
    def consumed(self):
        return float(self.bank.consumed[self.index])

    @property
    def draws(self):
        return int(self.bank.draws[self.index])

    def draw(self, joules):
        bank, i = self.bank, self.index
        bank.draws[i] += 1
        remaining = float(bank.remaining[i])
        taken = joules if joules < remaining else remaining
        bank.consumed[i] += taken
        bank.remaining[i] = remaining - taken
        return bank.remaining[i] > 0.0


def constructor_copy(message):
    """A receiver's copy through the ``Message`` constructor: same
    ``msg_id``, its own ``hops`` list, a shallow-copied payload."""
    payload = message.payload
    return Message(message.src, message.dst, message.size_bits, message.kind,
                   copy.copy(payload) if payload is not None else None,
                   list(message.hops), message.msg_id)


class PerReceiverNetwork(WirelessNetwork):
    """``WirelessNetwork`` whose broadcasts charge and count one receiver
    at a time (unicast ``send`` is inherited unchanged)."""

    def broadcast_local(self, src, message):
        topology = self.topology
        if not topology.is_alive(src):
            return []
        neighbors = topology.neighbors(src)
        tx = self.energy_model.tx_cost(message.size_bits, self.radio.range_m)
        self._charge_one(src, tx)
        energy_counter = self.monitor.counter("net.energy_j")
        energy_counter.add(tx)
        loss = self.radio.loss_prob
        if loss and neighbors:
            draws = self.rng.random(len(neighbors))
            delivered = [nbr for nbr, d in zip(neighbors, draws) if not (d < loss)]
        else:
            delivered = list(neighbors)
        rx = self.energy_model.rx_cost(message.size_bits)
        for nbr in delivered:
            self._charge_one(nbr, rx)
            energy_counter.add(rx)
        if delivered:
            self._fan_out_later(delivered, constructor_copy(message),
                                self.radio.hop_time(message.size_bits))
        return delivered

    def _fan_out_later(self, targets, snapshot, delay):
        def fan_out():
            for dst in targets:
                node = self.nodes[dst]
                if self.topology.is_alive(dst) and node.receive is not None:
                    node.receive(constructor_copy(snapshot))

        self.sim.schedule(delay, fan_out, label=f"bcast:{snapshot.msg_id}")

    def _charge_one(self, node_id, joules):
        alive = self.nodes[node_id].battery.draw(joules)
        if not alive and self.topology.is_alive(node_id):
            self.topology.kill(node_id)
            self.monitor.counter("net.node_deaths").add()
