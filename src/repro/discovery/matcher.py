"""The semantic matcher: degrees, fuzzy scores, ranked results.

"The matching of a request to services is semantic ... This matching is
fuzzy, and often recommends a ranked list of matches." (§3)

Degrees follow the classic DAML-S matchmaking lattice (Paolucci et al.),
which the paper's own matchmaker work ([19, 4, 2]) builds on:

EXACT    requested and advertised category identical
PLUGIN   advertised is *more specific* than requested (a ColorPrinter
         can plug in wherever a Printer was requested)
SUBSUMES advertised is *more general* (a Printer might satisfy a
         ColorPrinter request, with degraded confidence)
OVERLAP  share a non-root ancestor (siblings; weakest useful signal)
FAIL     none of the above, or a hard constraint violated

Within a degree, candidates are ordered by a fuzzy score in [0, 1]
combining taxonomic distance, I/O type compatibility and soft-preference
utility.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.discovery.description import ServiceDescription, ServiceRequest
from repro.discovery.ontology import Ontology


class MatchDegree(enum.IntEnum):
    """Ordered match quality; higher is better."""

    FAIL = 0
    OVERLAP = 1
    SUBSUMES = 2
    PLUGIN = 3
    EXACT = 4


#: Base score contributed by each degree (fuzzy score anchor points).
_DEGREE_BASE = {
    MatchDegree.EXACT: 1.0,
    MatchDegree.PLUGIN: 0.85,
    MatchDegree.SUBSUMES: 0.6,
    MatchDegree.OVERLAP: 0.3,
    MatchDegree.FAIL: 0.0,
}


@dataclasses.dataclass(frozen=True)
class MatchResult:
    """One candidate's evaluation against a request.

    Sortable: better results first (higher degree, then higher score,
    then name for determinism).
    """

    service: ServiceDescription
    degree: MatchDegree
    score: float

    def sort_key(self) -> tuple:
        return (-int(self.degree), -self.score, self.service.name)


class SemanticMatcher:
    """Matches requests against service descriptions over an ontology.

    Parameters
    ----------
    ontology:
        The shared taxonomy.
    use_degrees:
        Ablation switch (E5): when False, ranking ignores the degree
        lattice and uses the raw fuzzy score only.
    """

    def __init__(self, ontology: Ontology, use_degrees: bool = True) -> None:
        self.ontology = ontology
        self.use_degrees = use_degrees

    # ------------------------------------------------------------------
    def category_degree(self, requested: str, advertised: str) -> MatchDegree:
        """The degree lattice over two ontology classes."""
        ont = self.ontology
        if not ont.has_class(requested) or not ont.has_class(advertised):
            return MatchDegree.FAIL
        if requested == advertised:
            return MatchDegree.EXACT
        if ont.subsumes(requested, advertised):
            return MatchDegree.PLUGIN
        if ont.subsumes(advertised, requested):
            return MatchDegree.SUBSUMES
        if ont.related(requested, advertised):
            return MatchDegree.OVERLAP
        return MatchDegree.FAIL

    def _io_compatibility(self, request: ServiceRequest, service: ServiceDescription) -> float:
        """Fraction of the request's I/O requirements the service meets.

        Every requested output must be producible (service output equal
        to or more specific than requested); every service input must be
        suppliable from the request's declared inputs.  Returns the
        satisfied fraction in [0, 1]; 1.0 when nothing is required.
        """
        ont = self.ontology
        checks = 0
        passed = 0
        for out in request.outputs:
            checks += 1
            if any(
                ont.has_class(o) and ont.has_class(out) and ont.subsumes(out, o)
                for o in service.outputs
            ):
                passed += 1
        for inp in service.inputs:
            checks += 1
            if any(
                ont.has_class(i) and ont.has_class(inp) and ont.subsumes(inp, i)
                for i in request.inputs
            ):
                passed += 1
        return passed / checks if checks else 1.0

    def _category_match(self, requested: str, advertised: str) -> tuple[MatchDegree, float]:
        """``(degree, taxonomic closeness)``: everything the score needs
        from the ontology, which depends on the two categories alone.
        Closeness is 1 / (1 + semantic distance), 1.0 for identical
        classes."""
        degree = self.category_degree(requested, advertised)
        if degree is MatchDegree.FAIL:
            return degree, 0.0
        return degree, 1.0 / (1.0 + self.ontology.distance(requested, advertised))

    def _score(self, request: ServiceRequest, service: ServiceDescription,
               degree: MatchDegree, closeness: float) -> float | None:
        """Fuzzy score of a candidate whose category matched at ``degree``;
        None when it violates a hard constraint."""
        for constraint in request.constraints:
            if not constraint.satisfied_by(service.attributes):
                return None
        io_frac = self._io_compatibility(request, service)
        base = _DEGREE_BASE[degree] if self.use_degrees else closeness
        return min(base * (0.5 + 0.5 * closeness) * io_frac, 1.0)

    def evaluate(self, request: ServiceRequest, service: ServiceDescription) -> MatchResult:
        """Degree + fuzzy score for one candidate (no preference utility).

        Preference utilities need the whole candidate set for
        normalization, so they are applied in :meth:`rank`.
        """
        degree, closeness = self._category_match(request.category, service.category)
        if degree is not MatchDegree.FAIL:
            score = self._score(request, service, degree, closeness)
            if score is not None:
                return MatchResult(service, degree, score)
        return MatchResult(service, MatchDegree.FAIL, 0.0)

    def rank(
        self,
        request: ServiceRequest,
        candidates: list[ServiceDescription],
        top_k: int | None = None,
    ) -> list[MatchResult]:
        """Ranked list of non-FAIL matches, preference-adjusted.

        Preference utilities (normalized over the surviving candidates)
        multiply into the fuzzy score with weight-proportional influence;
        the degree remains the primary sort key when ``use_degrees``.

        The ontology is consulted once per distinct advertised category,
        not once per candidate: a candidate's degree and closeness depend
        on its category alone.
        """
        by_category: dict[str, tuple[MatchDegree, float]] = {}
        survivors: list[tuple[ServiceDescription, MatchDegree, float]] = []
        for service in candidates:
            match = by_category.get(service.category)
            if match is None:
                match = by_category[service.category] = self._category_match(
                    request.category, service.category)
            if match[0] is not MatchDegree.FAIL:
                score = self._score(request, service, *match)
                if score is not None:
                    survivors.append((service, match[0], score))
        if request.preferences and survivors:
            attr_maps = [service.attributes for service, _, _ in survivors]
            total_weight = sum(p.weight for p in request.preferences)
            blended = [0.0] * len(survivors)
            for pref in request.preferences:
                utils = pref.utilities(attr_maps)
                for i, u in enumerate(utils):
                    blended[i] += pref.weight * u
            survivors = [
                (service, degree, score * (0.5 + 0.5 * b / total_weight))
                for (service, degree, score), b in zip(survivors, blended)
            ]
        # sorting plain tuples and building MatchResults for the returned
        # slice only saves ~10% of a search; the first key is sort_key's
        if self.use_degrees:
            survivors.sort(key=lambda s: (-int(s[1]), -s[2], s[0].name))
        else:
            survivors.sort(key=lambda s: (-s[2], s[0].name))
        if top_k is not None:
            survivors = survivors[:top_k]
        return [MatchResult(service, degree, score) for service, degree, score in survivors]
