"""Reference discovery reasoning: plain BFS walks, a per-candidate loop,
a one-dict registry and per-shard folds.

The production :class:`~repro.discovery.ontology.Ontology` memoizes one
hops-up map per class, and :meth:`SemanticMatcher.rank` works over a
table's attribute columns.  The functions here are the direct
forms those replaced -- every query walks the class graph afresh, and
ranking evaluates each candidate independently in plain Python -- so
tests can assert the fast paths return *exactly* what these return.
They read the ontology's edge maps and nothing else it computes.

:func:`apply_event` folds one log event into a ``name -> description``
dict, the fold every production registry now does into its one
:class:`~repro.discovery.matcher.ServiceTable`.  :func:`replay`
materializes a log range into a fresh map with it, the deterministic
rebuild a log of any shape must support.

:class:`PlainRegistry` is the registry contract as one dict: what a
:class:`~repro.discovery.replica.ReplicatedRegistry` of any shape must
answer while at most R-1 of its replicas are down.  :class:`ShardFold`
is one shard replica folding the log on its own, the state each
:class:`~repro.discovery.replica.ReplicaRegistry` view must show.
"""

from __future__ import annotations

import collections
import math

from repro.discovery.matcher import _DEGREE_BASE, MatchDegree, MatchResult
from repro.simkernel.monitor import Monitor


def ancestors(ont, name):
    seen = set()
    frontier = collections.deque(ont._parents[name])
    while frontier:
        cls = frontier.popleft()
        if cls not in seen:
            seen.add(cls)
            frontier.extend(ont._parents[cls])
    return seen


def descendants(ont, name):
    seen = set()
    frontier = collections.deque(ont._children[name])
    while frontier:
        cls = frontier.popleft()
        if cls not in seen:
            seen.add(cls)
            frontier.extend(ont._children[cls])
    return seen


def subsumes(ont, general, specific):
    if general not in ont._parents or specific not in ont._parents:
        raise KeyError("unknown class")
    return general == specific or general in ancestors(ont, specific)


def depth(ont, name):
    if name == ont.root:
        return 0
    dist = {ont.root: 0}
    frontier = collections.deque([ont.root])
    while frontier:
        cls = frontier.popleft()
        for child in ont._children[cls]:
            if child not in dist:
                dist[child] = dist[cls] + 1
                if child == name:
                    return dist[child]
                frontier.append(child)
    raise KeyError(f"unknown class {name!r}")


def least_common_subsumers(ont, a, b):
    common = (ancestors(ont, a) | {a}) & (ancestors(ont, b) | {b})
    if not common:
        return {ont.root}
    max_depth = max(depth(ont, c) for c in common)
    return {c for c in common if depth(ont, c) == max_depth}


def hops_up(ont, name):
    dist = {name: 0}
    frontier = collections.deque([name])
    while frontier:
        cls = frontier.popleft()
        for p in ont._parents[cls]:
            if p not in dist:
                dist[p] = dist[cls] + 1
                frontier.append(p)
    return dist


def distance(ont, a, b):
    if a == b:
        return 0
    up_a, up_b = hops_up(ont, a), hops_up(ont, b)
    return min(up_a[c] + up_b[c] for c in least_common_subsumers(ont, a, b))


def related(ont, a, b, min_depth=2):
    return any(depth(ont, c) >= min_depth for c in least_common_subsumers(ont, a, b))


# ----------------------------------------------------------------------
# matching
# ----------------------------------------------------------------------
def category_degree(ont, requested, advertised):
    if not ont.has_class(requested) or not ont.has_class(advertised):
        return MatchDegree.FAIL
    if requested == advertised:
        return MatchDegree.EXACT
    if subsumes(ont, requested, advertised):
        return MatchDegree.PLUGIN
    if subsumes(ont, advertised, requested):
        return MatchDegree.SUBSUMES
    if related(ont, requested, advertised):
        return MatchDegree.OVERLAP
    return MatchDegree.FAIL


def _io_compatibility(ont, request, service):
    checks = passed = 0
    for out in request.outputs:
        checks += 1
        passed += any(ont.has_class(o) and ont.has_class(out) and subsumes(ont, out, o)
                      for o in service.outputs)
    for inp in service.inputs:
        checks += 1
        passed += any(ont.has_class(i) and ont.has_class(inp) and subsumes(ont, inp, i)
                      for i in request.inputs)
    return passed / checks if checks else 1.0


def evaluate(matcher, request, service):
    """One candidate's degree and fuzzy score, worked out afresh."""
    ont = matcher.ontology
    degree = category_degree(ont, request.category, service.category)
    if degree is MatchDegree.FAIL:
        return MatchResult(service, degree, 0.0)
    if any(not c.satisfied_by(service.attributes) for c in request.constraints):
        return MatchResult(service, MatchDegree.FAIL, 0.0)
    io_frac = _io_compatibility(ont, request, service)
    closeness = 1.0 / (1.0 + distance(ont, request.category, service.category))
    base = _DEGREE_BASE[degree] if matcher.use_degrees else closeness
    score = base * (0.5 + 0.5 * closeness) * io_frac
    return MatchResult(service, degree, min(score, 1.0))


def utilities(pref, candidates):
    """One preference's min-max utility per candidate, value by value."""
    values = []
    for attrs in candidates:
        v = attrs.get(pref.attribute)
        x = float(v) if isinstance(v, (int, float)) and not isinstance(v, bool) else math.nan
        values.append(x if math.isfinite(x) else math.nan)
    present = [v for v in values if not math.isnan(v)]
    if not present:
        return [0.5] * len(candidates)
    lo, hi = min(present), max(present)
    span = hi - lo
    if math.isinf(span):  # wider than a float: normalize the halves
        values = [v * 0.5 for v in values]
        lo, span = lo * 0.5, hi * 0.5 - lo * 0.5
    out = []
    for v in values:
        if math.isnan(v):
            out.append(0.5)
        elif span == 0.0:
            out.append(1.0)
        else:
            u = (v - lo) / span
            out.append(1.0 - u if pref.goal == "minimize" else u)
    return out


def rank(matcher, request, candidates, top_k=None):
    """The ranking contract: evaluate every candidate, blend preference
    utilities over the survivors, sort."""
    results = [evaluate(matcher, request, s) for s in candidates]
    survivors = [r for r in results if r.degree is not MatchDegree.FAIL]
    if request.preferences and survivors:
        attr_maps = [r.service.attributes for r in survivors]
        total_weight = sum(p.weight for p in request.preferences)
        blended = [0.0] * len(survivors)
        for pref in request.preferences:
            for i, u in enumerate(utilities(pref, attr_maps)):
                blended[i] += pref.weight * u
        survivors = [
            MatchResult(r.service, r.degree, r.score * (0.5 + 0.5 * b / total_weight))
            for r, b in zip(survivors, blended)
        ]
    if matcher.use_degrees:
        survivors.sort(key=MatchResult.sort_key)
    else:
        survivors.sort(key=lambda r: (-r.score, r.service.name))
    return survivors[:top_k] if top_k is not None else survivors


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
def apply_event(state, event, *, accept=None):
    """Apply one event to a ``name -> description`` map, in place.

    ``accept`` filters *advertisements only* (a shard's own fold keeps a
    subset of categories): a rejected advertisement drops the name,
    because a refresh under a new category moves the service off this
    state.  Withdrawals always apply, so a replica never keeps a name
    the log has withdrawn.  Returns the number of descriptions withdrawn
    (0 for advertisements).
    """
    if event.kind in ("advertise", "refresh"):
        service = event.service
        if accept is None or accept(service):
            state[service.name] = service
        elif service.name in state:
            del state[service.name]
        return 0
    if event.kind == "withdraw":
        return 1 if state.pop(event.service_name, None) is not None else 0
    # withdraw-host
    doomed = [n for n, s in state.items() if s.host_node == event.host_node]
    for name in doomed:
        del state[name]
    return len(doomed)


def replay(log, after_seq=0, upto_seq=None):
    """Fold the events with ``after_seq < seq <= upto_seq`` into a new map."""
    state = {}
    for event in log.events(after_seq, upto_seq):
        apply_event(state, event)
    return state


class PlainRegistry:
    """One broker's advertisements in one ``name -> description`` dict.

    It folds its own writes (no event log, no ``apply_event``), records
    the event kind each write would log in :attr:`kinds`, and counts
    ``disc.advertise`` / ``disc.search`` / ``disc.withdraw`` on
    :attr:`monitor`.
    """

    def __init__(self, matcher):
        self.matcher = matcher
        self.monitor = Monitor()
        self.kinds = []
        self._services = {}

    def _count(self, counter, n=1):
        if n:
            self.monitor.counter(counter).add(n)

    def advertise(self, service):
        self.kinds.append("refresh" if service.name in self._services else "advertise")
        self._services[service.name] = service
        self._count("disc.advertise")

    def withdraw(self, service_name):
        self.kinds.append("withdraw")
        present = self._services.pop(service_name, None) is not None
        self._count("disc.withdraw", int(present))
        return present

    def withdraw_host(self, host_node):
        self.kinds.append("withdraw-host")
        doomed = [n for n, s in self._services.items() if s.host_node == host_node]
        for name in doomed:
            del self._services[name]
        self._count("disc.withdraw", len(doomed))
        return len(doomed)

    def get(self, service_name):
        return self._services.get(service_name)

    def services(self):
        return [self._services[n] for n in sorted(self._services)]

    def __len__(self):
        return len(self._services)

    def search(self, request, top_k=None):
        self._count("disc.search")
        return self.matcher.rank(request, self.services(), top_k=top_k)


# ----------------------------------------------------------------------
# one shard replica
# ----------------------------------------------------------------------
class ShardFold:
    """One shard replica folding every log event into its own dict.

    An advertisement under a class the shard does not own drops the
    name (a refresh may move a service off the shard); withdrawals
    always apply.
    """

    def __init__(self, shard_id, shard_map):
        self.shard_id = shard_id
        self.shard_map = shard_map
        self._services = {}
        self.applied_seq = 0

    def _accept(self, service):
        return self.shard_map.owns(self.shard_id, service.category)

    def apply(self, event):
        removed = apply_event(self._services, event, accept=self._accept)
        self.applied_seq = event.seq
        return removed

    def rebuild(self, log, upto_seq=None):
        self._services.clear()
        self.applied_seq = 0
        for event in log.events(upto_seq=upto_seq):
            self.apply(event)
        return self

    def services(self):
        return [self._services[n] for n in sorted(self._services)]

    def get(self, service_name):
        return self._services.get(service_name)

    def __len__(self):
        return len(self._services)
