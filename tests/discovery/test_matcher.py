"""Unit tests for constraints, the semantic matcher and ranking.

These encode the paper's printer scenario directly: find a printer with
the shortest queue, geographically closest, color within a cost bound.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.discovery import (
    Constraint,
    MatchDegree,
    MatchResult,
    Preference,
    ReplicatedRegistry,
    SemanticMatcher,
    ServiceDescription,
    ServiceRequest,
    build_service_ontology,
)
from repro.discovery.constraints import numeric_value
from repro.discovery.matcher import ServiceTable
from repro.workloads import ServicePopulation
from tests.discovery import oracle, strategies


@pytest.fixture
def matcher():
    return SemanticMatcher(build_service_ontology())


def printer(name, category="PrinterService", **attrs):
    return ServiceDescription(name=name, category=category, attributes=attrs, interfaces=("Printer",))


def utilities(pref, candidates):
    """``pref``'s utility for each attribute map, as a search reads it."""
    values = np.array([numeric_value(attrs.get(pref.attribute)) for attrs in candidates])
    return pref.utility_array(values).tolist()


def alone(matcher, request, service):
    """``service`` ranked on its own: its one result, or None if it fails."""
    ranked = matcher.rank(request, [service])
    return ranked[0] if ranked else None


class TestConstraint:
    def test_operators(self):
        attrs = {"cost": 5.0, "color": True, "location": "floor2"}
        assert Constraint("cost", "<=", 5.0).satisfied_by(attrs)
        assert not Constraint("cost", "<", 5.0).satisfied_by(attrs)
        assert Constraint("color", "==", True).satisfied_by(attrs)
        assert Constraint("location", "in", ["floor1", "floor2"]).satisfied_by(attrs)
        assert Constraint("location", "contains", "floor").satisfied_by(attrs)
        assert Constraint("cost", "!=", 4.0).satisfied_by(attrs)

    def test_missing_attribute_fails(self):
        assert not Constraint("queue", "<", 3).satisfied_by({})

    def test_type_error_fails_gracefully(self):
        assert not Constraint("cost", "<", 3).satisfied_by({"cost": "cheap"})

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            Constraint("x", "~=", 1)

    def test_str(self):
        assert str(Constraint("cost", "<=", 0.1)) == "cost <= 0.1"


class TestPreference:
    def test_minimize_ranks_low_first(self):
        p = Preference("queue", "minimize")
        utils = utilities(p, [{"queue": 0}, {"queue": 10}, {"queue": 5}])
        assert utils[0] == 1.0 and utils[1] == 0.0 and utils[2] == pytest.approx(0.5)

    def test_maximize(self):
        p = Preference("speed", "maximize")
        utils = utilities(p, [{"speed": 1.0}, {"speed": 3.0}])
        assert utils == [0.0, 1.0]

    def test_missing_value_neutral(self):
        p = Preference("queue", "minimize")
        utils = utilities(p, [{"queue": 0}, {}, {"queue": 10}])
        assert utils[1] == 0.5

    def test_constant_attribute_all_tie(self):
        p = Preference("queue", "minimize")
        assert utilities(p, [{"queue": 2}, {"queue": 2}]) == [1.0, 1.0]

    def test_all_missing(self):
        assert utilities(Preference("x"), [{}, {}]) == [0.5, 0.5]

    def test_validation(self):
        with pytest.raises(ValueError):
            Preference("x", "middle")
        with pytest.raises(ValueError):
            Preference("x", weight=0.0)

    def test_bool_not_treated_as_number(self):
        utils = utilities(Preference("flag", "maximize"), [{"flag": True}, {"flag": 2.0}, {"flag": 1.0}])
        assert utils[0] == 0.5  # neutral

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_neutral(self, bad):
        utils = utilities(Preference("queue", "minimize"), [{"queue": 1}, {"queue": 3}, {"queue": bad}])
        assert utils == [1.0, 0.0, 0.5]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, bad):
        """A NaN or infinite weight would turn every blended score into
        NaN, and NaN scores sort in input order."""
        with pytest.raises(ValueError, match="finite"):
            Preference("queue", weight=bad)

    def test_span_wider_than_a_float_stays_finite(self):
        utils = utilities(Preference("x", "maximize"), [{"x": -1e308}, {"x": 0.0}, {"x": 1e308}])
        assert utils == [0.0, 0.5, 1.0]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(strategies.attribute_values, max_size=8),
           st.sampled_from(("minimize", "maximize")))
    def test_utility_array_matches_reference(self, values, goal):
        """All finite or not, the array form gives the value-by-value
        reference's utilities."""
        pref = Preference("x", goal)
        maps = [{"x": v} for v in values]
        assert utilities(pref, maps) == oracle.utilities(pref, maps)


class TestMatchDegrees:
    def test_exact(self, matcher):
        assert matcher.category_degree("PrinterService", "PrinterService") is MatchDegree.EXACT

    def test_plugin_more_specific_advertised(self, matcher):
        assert matcher.category_degree("PrinterService", "ColorPrinterService") is MatchDegree.PLUGIN

    def test_subsumes_more_general_advertised(self, matcher):
        assert matcher.category_degree("ColorPrinterService", "PrinterService") is MatchDegree.SUBSUMES

    def test_overlap_siblings(self, matcher):
        assert matcher.category_degree("ColorPrinterService", "LaserPrinterService") is MatchDegree.OVERLAP

    def test_fail_unrelated(self, matcher):
        assert matcher.category_degree("PrinterService", "TemperatureSensorService") is MatchDegree.FAIL

    def test_fail_unknown_class(self, matcher):
        assert matcher.category_degree("Nope", "PrinterService") is MatchDegree.FAIL

    def test_degree_ordering(self):
        assert MatchDegree.EXACT > MatchDegree.PLUGIN > MatchDegree.SUBSUMES > MatchDegree.OVERLAP > MatchDegree.FAIL


class TestEvaluate:
    """One candidate ranked on its own."""

    def test_exact_scores_highest(self, matcher):
        req = ServiceRequest(category="PrinterService")
        exact = alone(matcher, req, printer("p1"))
        plugin = alone(matcher, req, printer("p2", category="ColorPrinterService"))
        subsume = alone(matcher, req, printer("p3", category="DeviceService"))
        assert exact.score > plugin.score > subsume.score > 0.0

    def test_constraint_violation_fails(self, matcher):
        req = ServiceRequest(
            category="PrinterService",
            constraints=(Constraint("cost_per_page", "<=", 0.10),),
        )
        cheap = alone(matcher, req, printer("cheap", cost_per_page=0.05))
        assert cheap.degree is MatchDegree.EXACT
        assert alone(matcher, req, printer("pricey", cost_per_page=0.50)) is None

    def test_io_compatibility_affects_score(self, matcher):
        req = ServiceRequest(category="DataMiningService", outputs=("DecisionTree",))
        produces = ServiceDescription("a", "DataMiningService", outputs=("DecisionTree",))
        produces_not = ServiceDescription("b", "DataMiningService", outputs=("FourierSpectrum",))
        assert alone(matcher, req, produces).score > alone(matcher, req, produces_not).score

    def test_io_plugin_outputs_accepted(self, matcher):
        # requesting generic Data output; service produces DecisionTree (a Data)
        req = ServiceRequest(category="DataMiningService", outputs=("Data",))
        svc = ServiceDescription("a", "DataMiningService", outputs=("DecisionTree",))
        assert alone(matcher, req, svc).score > 0.5

    def test_service_inputs_must_be_suppliable(self, matcher):
        req = ServiceRequest(category="DataMiningService", inputs=("DataStream",))
        ok = ServiceDescription("a", "DataMiningService", inputs=("DataStream",))
        starved = ServiceDescription("b", "DataMiningService", inputs=("DecisionTree",))
        assert alone(matcher, req, ok).score > alone(matcher, req, starved).score


class TestRank:
    def test_paper_printer_scenario(self, matcher):
        """Color within cost bound, prefer short queue and nearby."""
        candidates = [
            printer("far-cheap-color", category="ColorPrinterService",
                    cost_per_page=0.08, queue_length=1, distance_m=500.0),
            printer("near-cheap-color", category="ColorPrinterService",
                    cost_per_page=0.08, queue_length=1, distance_m=10.0),
            printer("near-pricey-color", category="ColorPrinterService",
                    cost_per_page=0.90, queue_length=0, distance_m=5.0),
            printer("near-cheap-mono", category="LaserPrinterService",
                    cost_per_page=0.02, queue_length=0, distance_m=5.0),
        ]
        req = ServiceRequest(
            category="ColorPrinterService",
            constraints=(Constraint("cost_per_page", "<=", 0.10),),
            preferences=(Preference("queue_length", "minimize"), Preference("distance_m", "minimize")),
        )
        ranked = matcher.rank(req, candidates)
        names = [r.service.name for r in ranked]
        # pricey color violates the hard constraint: absent entirely
        assert "near-pricey-color" not in names
        # the near cheap color printer must win over the far one
        assert names[0] == "near-cheap-color"
        assert names.index("near-cheap-color") < names.index("far-cheap-color")
        # the mono laser appears (SUBSUMES-ish via sibling/ancestor) below color matches
        if "near-cheap-mono" in names:
            assert names.index("near-cheap-mono") > names.index("far-cheap-color")

    def test_rank_returns_sorted_degrees(self, matcher):
        req = ServiceRequest(category="PrinterService")
        candidates = [
            printer("general", category="DeviceService"),
            printer("exact"),
            printer("specific", category="ColorPrinterService"),
        ]
        ranked = matcher.rank(req, candidates)
        degrees = [r.degree for r in ranked]
        assert degrees == sorted(degrees, reverse=True)
        assert ranked[0].service.name == "exact"

    def test_rank_top_k(self, matcher):
        req = ServiceRequest(category="PrinterService")
        candidates = [printer(f"p{i}") for i in range(10)]
        assert len(matcher.rank(req, candidates, top_k=3)) == 3

    def test_rank_excludes_fails(self, matcher):
        req = ServiceRequest(category="PrinterService")
        candidates = [printer("p"), ServiceDescription("sensor", "TemperatureSensorService")]
        names = [r.service.name for r in matcher.rank(req, candidates)]
        assert names == ["p"]

    def test_rank_deterministic_tie_break(self, matcher):
        req = ServiceRequest(category="PrinterService")
        ranked = matcher.rank(req, [printer("b"), printer("a")])
        assert [r.service.name for r in ranked] == ["a", "b"]

    def test_flat_scoring_ablation(self):
        """use_degrees=False ranks purely by fuzzy score."""
        flat = SemanticMatcher(build_service_ontology(), use_degrees=False)
        req = ServiceRequest(category="PrinterService")
        ranked = flat.rank(req, [printer("exact"), printer("plugin", category="ColorPrinterService")])
        assert ranked[0].service.name == "exact"  # distance 0 beats distance 1

    def test_empty_candidates(self, matcher):
        assert matcher.rank(ServiceRequest(category="PrinterService"), []) == []

    def test_negative_top_k_rejected(self, matcher):
        candidates = [printer("a"), printer("b")]
        with pytest.raises(ValueError, match="top_k"):
            matcher.rank(ServiceRequest(category="PrinterService"), candidates, top_k=-1)

    def test_weights_summing_beyond_a_float_rejected(self, matcher):
        req = ServiceRequest(category="PrinterService",
                             preferences=(Preference("q", weight=1e308), Preference("r", weight=1e308)))
        with pytest.raises(ValueError, match="finite sum"):
            matcher.rank(req, [printer("a", q=1, r=2), printer("b", q=2, r=1)])

    def test_failing_comparison_raises_as_the_reference_does(self, matcher):
        """A numpy scalar compared with a tuple has no truth value; the
        column path leaves it to ``satisfied_by``, which raises."""
        req = ServiceRequest(category="PrinterService",
                             constraints=(Constraint("q", "<", (1, 2)),))
        candidates = [printer("a", q=0.5), printer("b", q=np.float64(0.5))]
        with pytest.raises(ValueError):
            oracle.rank(matcher, req, candidates)
        with pytest.raises(ValueError):
            matcher.rank(req, candidates)

    def test_infinite_attribute_does_not_poison_ranking(self, matcher):
        """A printer advertising an infinite queue ranks as one that
        advertises no queue: scores stay in [0, 1], the others keep their
        spread, and the order does not depend on the input order."""
        candidates = [printer("a", queue_length=1), printer("b", queue_length=2),
                      printer("c", queue_length=3), printer("d", queue_length=math.inf)]
        req = ServiceRequest(category="PrinterService",
                             preferences=(Preference("queue_length", "minimize"),))
        forward = [(r.service.name, r.score) for r in matcher.rank(req, candidates)]
        backward = [(r.service.name, r.score) for r in matcher.rank(req, candidates[::-1])]
        assert forward == backward == [("a", 1.0), ("b", 0.75), ("d", 0.75), ("c", 0.5)]

    def test_code_index_follows_the_live_rows(self, matcher):
        """2,000 services with distinct inputs, each advertised, searched
        and withdrawn: the signature codes stay within about twice the
        live rows instead of keeping one per signature ever held."""
        table = ServiceTable()
        req = ServiceRequest(category="PrinterService")
        for i in range(2000):
            table.put(dataclasses.replace(printer(f"p{i}"), inputs=(f"Type{i}",)))
            assert [r.service.name for r in matcher.rank(req, table)] == [f"p{i}"]
            table.remove(f"p{i}")
            assert len(table.codes("signature")[1]) <= 2 * len(table) + 1
        assert table.codes("signature")[1] == []


class TestMatchResult:
    def test_fields_and_sort_key(self):
        service = printer("a")
        result = MatchResult(service, MatchDegree.PLUGIN, 0.5)
        assert result.service is service
        assert result.degree is MatchDegree.PLUGIN and result.score == 0.5
        assert result.sort_key() == (-3, -0.5, "a")

    def test_is_a_tuple_of_its_fields(self):
        service = printer("a")
        result = MatchResult(service, MatchDegree.EXACT, 1.0)
        assert result == (service, MatchDegree.EXACT, 1.0)
        assert tuple(result) == (service, MatchDegree.EXACT, 1.0)

    def test_sort_key_orders_degree_then_score_then_name(self):
        results = [MatchResult(printer(name), degree, score) for name, degree, score in [
            ("c", MatchDegree.PLUGIN, 0.9), ("b", MatchDegree.EXACT, 0.5),
            ("a", MatchDegree.PLUGIN, 0.9), ("d", MatchDegree.EXACT, 0.7)]]
        ranked = sorted(results, key=MatchResult.sort_key)
        assert [r.service.name for r in ranked] == ["d", "b", "a", "c"]


# ----------------------------------------------------------------------
# the column rank against the per-candidate reference loop
# ----------------------------------------------------------------------
ONT = build_service_ontology()
CATEGORIES = ONT.classes() + ["UnknownService"]
#: one family, so most generated pairs match at some degree
PRINTERS = ["PrinterService", "ColorPrinterService", "LaserPrinterService",
            "DeviceService", "DisplayService"]
_categories = st.one_of(st.sampled_from(PRINTERS), st.sampled_from(PRINTERS),
                        st.sampled_from(CATEGORIES))
DATA_TYPES = ["Data", "DataStream", "DecisionTree", "FourierSpectrum",
              "TemperatureReading", "UnknownType"]

_types = st.lists(st.sampled_from(DATA_TYPES), max_size=2)


@st.composite
def _services(draw):
    return ServiceDescription(name=draw(st.sampled_from("abcdefgh")),  # repeats allowed
                              category=draw(_categories),
                              inputs=draw(_types), outputs=draw(_types),
                              attributes=draw(strategies.attribute_maps()))


@st.composite
def _requests(draw):
    return ServiceRequest(category=draw(_categories),
                          inputs=draw(_types), outputs=draw(_types),
                          constraints=draw(st.lists(strategies.constraints, max_size=2)),
                          preferences=draw(st.lists(strategies.preferences, max_size=3)))


def _triples(results):
    return [(r.service.name, r.degree, r.score) for r in results]


#: An int just past 2**53 has no float64 of its own: as a float it would
#: equal 2**53.  It must compare as the int it is.
_BEYOND_2_53 = (
    ServiceRequest("PrinterService", constraints=[Constraint("queue_length", "!=", 2 ** 53)]),
    [printer("a", queue_length=2 ** 53 + 1), printer("b", queue_length=2 ** 53)])
#: The second constraint has no truth value for "a" (a numpy scalar
#: against a tuple), but the first already rejected "a", so it never runs.
_REJECTED_FIRST = (
    ServiceRequest("PrinterService", constraints=[Constraint("cost_per_use", "<", 0.5),
                                                  Constraint("queue_length", "<", (1, 2))]),
    [printer("a", cost_per_use=0.9, queue_length=np.float64(1.0)),
     printer("b", cost_per_use=0.1, queue_length=1)])


#: A bool is no number to a preference, though ``True == 1``.
_BOOL = (ServiceRequest("PrinterService", preferences=[Preference("queue_length", "maximize")]),
         [printer("a", queue_length=True), printer("b", queue_length=0.5),
          printer("c", queue_length=0.0)])
#: "a" is refreshed in place after a search built its column.
_REFRESH = (ServiceRequest("PrinterService", preferences=[Preference("queue_length")]),
            [printer("a", queue_length=1), printer("b", queue_length=2),
             printer("a", queue_length=3)])


_HOSTS = (0, 1, 2, 3)


def _is_exact(value):
    """Is ``value`` a number a float64 column holds exactly?"""
    return type(value) is float or (type(value) is int and abs(value) <= 2 ** 53)


@st.composite
def _hosted(draw, name, values):
    """A service called ``name`` on one of :data:`_HOSTS`, each attribute
    drawn from ``values`` or absent."""
    attributes = {key: draw(values) for key in strategies.ATTRIBUTES if draw(st.integers(0, 3))}
    return ServiceDescription(name=name, category=draw(_categories),
                              inputs=draw(_types), outputs=draw(_types),
                              attributes=attributes, host_node=draw(st.sampled_from(_HOSTS)))


@st.composite
def _requests_with_ne(draw):
    """A request whose first constraint is ``!=`` an exact-number operand."""
    request = draw(_requests())
    ne = Constraint(draw(st.sampled_from(strategies.ATTRIBUTES)), "!=",
                    draw(strategies.exact_values))
    return dataclasses.replace(request, constraints=(ne, *request.constraints))


class TestRankMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(_requests(), st.lists(_services(), min_size=1, max_size=25), st.booleans(),
           st.one_of(st.none(), st.integers(0, 12)))
    @example(*_BEYOND_2_53, True, None)
    @example(*_REJECTED_FIRST, True, None)
    @example(*_BOOL, True, None)
    def test_generated_candidates(self, req, candidates, use_degrees, top_k):
        m = SemanticMatcher(ONT, use_degrees=use_degrees)
        got = strategies.outcome(m.rank, req, candidates, top_k=top_k)
        assert got == strategies.outcome(oracle.rank, m, req, candidates, top_k)
        if got[0] == "ok":
            assert all(type(score) is float for _, _, score in got[1])
        for s in candidates:  # a one-row table
            assert (strategies.outcome(m.rank, req, [s])
                    == strategies.outcome(oracle.rank, m, req, [s]))

    @settings(max_examples=100, deadline=None)
    @given(_requests(), st.lists(_services(), min_size=1, max_size=25))
    @example(*_REFRESH)
    def test_registry_candidate_set(self, req, candidates):
        """The same rank over a registry's service table, after every
        write: advertisements, same-category refreshes, moves and
        withdrawals each reach the columns earlier searches built."""
        m = SemanticMatcher(ONT)
        registry = ReplicatedRegistry(m)
        latest = {}

        def check():
            listing = [latest[n] for n in sorted(latest)]
            assert (strategies.outcome(registry.search, req)
                    == strategies.outcome(oracle.rank, m, req, listing))

        for service in candidates:
            registry.advertise(service)
            latest[service.name] = service
            check()
        for name in sorted(latest)[::2]:
            registry.withdraw(name)
            del latest[name]
            check()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_registry_scripts(self, data):
        """Searches interleaved with every kind of write over one registry
        table: its columns are built at a few rows, grow past twice that
        size, see cells change kind (exact -> other -> absent -> exact) and
        shrink again through withdrawals, past the point where the code
        columns of distinct signatures are rebuilt.  Every request carries a ``!=``,
        which absent, other and NaN cells must not pass as NaN != x.  Each
        search equals the reference rank over the live listing."""
        draw = data.draw
        m = SemanticMatcher(ONT)
        registry = ReplicatedRegistry(m)
        live = {}
        requests = draw(st.lists(_requests_with_ne(), min_size=1, max_size=3))
        names = (f"s{i:02d}" for i in itertools.count())

        def search():
            req = draw(st.sampled_from(requests))
            top_k = draw(st.one_of(st.none(), st.integers(0, 5)))
            listing = [live[name] for name in sorted(live)]
            assert (strategies.outcome(registry.search, req, top_k=top_k)
                    == strategies.outcome(oracle.rank, m, req, listing, top_k))

        def write(service):
            registry.advertise(service)
            live[service.name] = service

        def fresh(values):
            service = draw(_hosted(next(names), values))
            if draw(st.booleans()):  # a signature no other service holds
                service = dataclasses.replace(service, inputs=(*service.inputs, service.name))
            return service

        first = draw(st.integers(1, 4))
        for _ in range(first):  # no other cells yet: each "any other" flag is down
            write(fresh(strategies.exact_values))
        search()
        for _ in range(2 * first + draw(st.integers(1, 6))):
            write(fresh(strategies.attribute_values))
            if draw(st.booleans()):
                search()
        for _ in range(draw(st.integers(1, 8))):
            service = live[draw(st.sampled_from(sorted(live)))]
            key = draw(st.sampled_from(strategies.ATTRIBUTES))
            attributes = dict(service.attributes)
            if key not in attributes:
                attributes[key] = draw(strategies.exact_values)
            elif _is_exact(attributes[key]):
                attributes[key] = draw(strategies.other_values)
            else:
                del attributes[key]
            write(dataclasses.replace(service, attributes=attributes))
            search()
        while len(live) > first:
            if draw(st.booleans()):
                host = draw(st.sampled_from(_HOSTS))
                doomed = [name for name, s in live.items() if s.host_node == host]
                assert registry.withdraw_host(host) == len(doomed)
                for name in doomed:
                    del live[name]
            else:
                name = draw(st.sampled_from(sorted(live)))
                assert registry.withdraw(name)
                del live[name]
            search()

    @pytest.mark.parametrize("seed", [3, 31])
    def test_service_population(self, seed):
        rng = np.random.default_rng(seed)
        population = [g.description for g in ServicePopulation(rng).generate(300)]
        for use_degrees in (True, False):
            m = SemanticMatcher(ONT, use_degrees=use_degrees)
            for _ in range(8):
                req = ServiceRequest(
                    category=population[int(rng.integers(len(population)))].category,
                    constraints=(Constraint("cost_per_use", "<=", float(rng.uniform(0.3, 1.0))),),
                    preferences=(Preference("queue_length"), Preference("cost_per_use", weight=0.5)))
                assert (_triples(m.rank(req, population, top_k=10))
                        == _triples(oracle.rank(m, req, population, top_k=10)))

    def test_ties_at_the_cut_go_by_name(self, matcher):
        """Equal degree and score everywhere: the top k are the k first
        names, whatever order the rows arrive in."""
        candidates = [printer(name) for name in "hgfedcba"]
        req = ServiceRequest(category="PrinterService")
        assert [r.service.name for r in matcher.rank(req, candidates, top_k=3)] == ["a", "b", "c"]

    def test_ties_beyond_name_keep_input_order(self, matcher):
        twins = [printer("a", queue_length=1), printer("a", queue_length=2)]
        # one degree and score from two classes: list order, not class order
        cousins = [printer("a", category="LaserPrinterService"),
                   printer("a", category="LaserPrinterService", queue_length=1),
                   printer("a", category="ColorPrinterService")]
        req = ServiceRequest(category="PrinterService")
        for tied in (twins, twins[::-1], cousins, cousins[::-1]):
            assert [r.service for r in matcher.rank(req, tied)] == tied

    def test_degrees_are_memoized_until_the_ontology_changes(self):
        ont = build_service_ontology()
        m = SemanticMatcher(ont)
        req = ServiceRequest(category="PrinterService")
        novel = printer("n", category="NovelService")
        assert m.rank(req, [novel]) == []
        ont.add_class("NovelService", "PrinterService")
        assert [r.degree for r in m.rank(req, [novel])] == [MatchDegree.PLUGIN]
