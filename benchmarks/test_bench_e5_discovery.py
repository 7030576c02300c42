"""E5 -- discovery expressiveness: semantic matcher vs syntactic baselines.

"[Jini-era systems] are either tied to a language, or describe services
entirely in syntactic terms ... they return 'exact' matches and can only
handle equality constraints.  This leads to a loss of expressive power."

Protocol: one service population is advertised to all four systems; a
batch of constrained, preference-carrying requests is posed to each.
Ground truth per request: the services whose category is subsumed by the
requested one and whose attributes satisfy every constraint, ranked by
the preferences.  We report recall of the relevant set, precision of
what was returned, and top-1 agreement with the preference-optimal
service.  The ablation row drops the degree lattice (flat fuzzy
scoring).
"""

import dataclasses

import numpy as np

from repro.discovery import (
    Constraint,
    Preference,
    ReplicatedRegistry,
    SemanticMatcher,
    ServiceRequest,
    build_service_ontology,
)
from repro.discovery.protocols import BluetoothSDP, JiniLookup, SLPDirectory
from repro.workloads import ServicePopulation

N_SERVICES = 120
N_REQUESTS = 40
TOP_K = 10


def build_world(seed=31):
    rng = np.random.default_rng(seed)
    population = [g.description for g in ServicePopulation(rng).generate(N_SERVICES)]
    ontology = build_service_ontology()
    systems = {
        "semantic": ReplicatedRegistry(SemanticMatcher(ontology)),
        "semantic-flat": ReplicatedRegistry(SemanticMatcher(ontology, use_degrees=False)),
    }
    jini, sdp, slp = JiniLookup(), BluetoothSDP(), SLPDirectory()
    for d in population:
        for reg in systems.values():
            reg.advertise(d)
        jini.register(d)
        sdp.register(d)
        slp.register(d)
    return ontology, population, systems, jini, sdp, slp, rng


def make_requests(rng):
    """Constrained printer/miner/sensor requests with preferences."""
    requests = []
    categories = ["PrinterService", "ColorPrinterService", "DecisionTreeService",
                  "TemperatureSensorService", "FourierSpectrumService"]
    for _ in range(N_REQUESTS):
        cat = categories[int(rng.integers(len(categories)))]
        constraints = [Constraint("cost_per_use", "<=", float(rng.uniform(0.3, 0.9)))]
        if "Printer" in cat and rng.random() < 0.5:
            constraints.append(Constraint("cost_per_page", "<=", float(rng.uniform(0.1, 0.4))))
        requests.append(ServiceRequest(
            category=cat,
            constraints=tuple(constraints),
            preferences=(Preference("queue_length", "minimize"),),
        ))
    return requests


def ground_truth(ontology, population, request):
    """Relevant services (subsumption + constraints), preference-ranked."""
    relevant = []
    for d in population:
        if not ontology.has_class(d.category):
            continue
        if not ontology.subsumes(request.category, d.category):
            continue
        if any(not c.satisfied_by(d.attributes) for c in request.constraints):
            continue
        relevant.append(d)
    relevant.sort(key=lambda d: (d.attributes.get("queue_length", 99), d.name))
    return relevant


def evaluate(returned_names, truth):
    truth_names = [d.name for d in truth]
    truth_set = set(truth_names)
    if not truth_set:
        return None
    returned = returned_names[:TOP_K]
    hit = len([n for n in returned if n in truth_set])
    recall = hit / min(len(truth_set), TOP_K)
    precision = hit / len(returned) if returned else 0.0
    top1 = 1.0 if returned and returned[0] == truth_names[0] else 0.0
    return recall, precision, top1


def run_experiment():
    ontology, population, systems, jini, sdp, slp, rng = build_world()
    requests = make_requests(rng)
    scores = {name: [] for name in
              ["semantic", "semantic-flat", "jini", "sdp", "slp"]}
    for req in requests:
        truth = ground_truth(ontology, population, req)
        for name, reg in systems.items():
            res = evaluate([m.service.name for m in reg.search(req, top_k=TOP_K)], truth)
            if res:
                scores[name].append(res)
        # Jini: exact interface string; no constraints expressible
        res = evaluate([s.name for s in jini.lookup(req.category)], truth)
        if res:
            scores["jini"].append(res)
        # SDP: the class UUID of the exact category; nothing else
        res = evaluate(
            [s.name for s in sdp.lookup(ServicePopulation.class_uuid(req.category))], truth
        )
        if res:
            scores["sdp"].append(res)
        # SLP: exact type + whatever constraints are pure equalities (none here)
        res = evaluate([s.name for s in slp.lookup(req.category)], truth)
        if res:
            scores["slp"].append(res)
    return scores


#: Parameters every recorded E5 row is keyed by.
PARAMS = {"seed": 31, "services": N_SERVICES, "requests": N_REQUESTS, "top_k": TOP_K}


def test_e5_discovery_quality(benchmark, table, once, record):
    scores = once(benchmark, run_experiment)
    rows = []
    summary = {}
    for name, triples in scores.items():
        arr = np.array(triples)
        recall, precision, top1 = arr.mean(axis=0)
        summary[name] = (recall, precision, top1)
        rows.append([name, recall, precision, top1, len(triples)])
        # pinned in both directions: any drift means the matcher (or a
        # baseline protocol) answers differently than it did
        for metric, value in (("recall", recall), ("precision", precision), ("top1", top1)):
            record("E5", f"{metric}[{name}]", value, direction="either", **PARAMS)
    table(
        f"E5: discovery quality over {N_REQUESTS} constrained requests (top-{TOP_K})",
        ["system", "recall", "precision", "top-1", "requests"],
        rows,
        fmt="{:>16}",
    )

    # the paper's expressiveness claim, quantified
    assert summary["semantic"][0] > summary["jini"][0]       # recall
    assert summary["semantic"][1] > summary["jini"][1]       # precision
    assert summary["semantic"][2] > summary["jini"][2]       # ranking
    assert summary["semantic"][0] > summary["sdp"][0]
    assert summary["semantic"][2] > summary["slp"][2]
    # semantic ranking must be excellent in absolute terms
    assert summary["semantic"][0] > 0.9
    assert summary["semantic"][2] > 0.8
    # ablation: dropping the degree lattice must not help
    assert summary["semantic"][2] >= summary["semantic-flat"][2]


# ----------------------------------------------------------------------
# E5 extension: the sharded, replicated registry answers identically
# ----------------------------------------------------------------------
SHARD_CONFIGS = [(1, 1), (2, 2), (4, 2), (8, 3)]
#: Every REFRESH_EVERY-th service is re-advertised under the next category.
REFRESH_EVERY = 6


def refresh_pass(population):
    """The re-categorized refreshes: every :data:`REFRESH_EVERY`-th
    service moved to the next category (in name order) of the population."""
    categories = sorted({d.category for d in population})
    return [
        dataclasses.replace(
            d, category=categories[(categories.index(d.category) + 1) % len(categories)])
        for d in population[::REFRESH_EVERY]
    ]


def run_replicated_equivalence():
    """Every (n_shards, R) config must return byte-identical ranked
    results to the matcher ranking the live population directly --
    after refreshes that move services to a new category, and with any
    single replica down when R >= 2."""
    rng = np.random.default_rng(31)
    from repro.workloads import ServicePopulation

    population = [g.description for g in ServicePopulation(rng).generate(N_SERVICES)]
    ontology = build_service_ontology()
    matcher = SemanticMatcher(ontology)
    requests = make_requests(rng)
    refreshes = refresh_pass(population)
    live = {d.name: d for d in population + refreshes}
    listing = [live[name] for name in sorted(live)]
    reference = [
        [(m.service.name, m.degree, round(m.score, 12))
         for m in matcher.rank(req, listing, top_k=TOP_K)]
        for req in requests
    ]

    rows = []
    for n_shards, replication in SHARD_CONFIGS:
        rep = ReplicatedRegistry(matcher, n_shards, replication)
        for d in population + refreshes:
            rep.advertise(d)
        answers = [
            [(m.service.name, m.degree, round(m.score, 12))
             for m in rep.search(req, top_k=TOP_K)]
            for req in requests
        ]
        identical = answers == reference
        degraded_identical = True
        if replication >= 2:
            for shard in range(n_shards):
                rep.mark_down(shard)
                degraded = [
                    [(m.service.name, m.degree, round(m.score, 12))
                     for m in rep.search(req, top_k=TOP_K)]
                    for req in requests
                ]
                degraded_identical = degraded_identical and degraded == reference
                rep.mark_up(shard)
        rows.append([f"{n_shards}x{replication}", len(rep), identical,
                     degraded_identical if replication >= 2 else "n/a"])
    return rows


def test_e5_replicated_lookup_equivalence(benchmark, table, once, record):
    rows = once(benchmark, run_replicated_equivalence)
    table(
        f"E5 (replicated): lookup equivalence over {N_REQUESTS} requests",
        ["shards x R", "services", "identical", "1-replica-down identical"],
        rows,
        fmt="{:>26}",
    )
    for config, _, identical, degraded_identical in rows:
        record("E5", f"identical[{config}]", float(identical), direction="higher", **PARAMS)
        if degraded_identical != "n/a":
            record("E5", f"replica_down_identical[{config}]", float(degraded_identical),
                   direction="higher", **PARAMS)
    for row in rows:
        assert row[2] is True, f"config {row[0]} diverged from the reference ranking"
        assert row[3] in (True, "n/a"), f"config {row[0]} lost answers with a replica down"
