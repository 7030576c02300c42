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

Ranking works on candidates grouped by category (:class:`CandidateSet`):
a registry keeps its advertisements grouped, and a plain list is grouped
in one pass.  Degree and closeness are worked out once per category
pair, the I/O fraction once per ``(inputs, outputs)`` signature, and
numeric comparison constraints, scores and preference utilities are
array operations over per-category attribute columns.  Values a float64
column cannot hold exactly (bools, strings, ints beyond 2**53, numpy
scalars, ...) take the per-row :meth:`Constraint.satisfied_by` path, so
every ranking is the one a per-candidate loop would return
(``tests/discovery/oracle.py`` holds that loop).
"""

from __future__ import annotations

import bisect
import dataclasses
import enum
import itertools
import math
import operator
import typing

import numpy as np

from repro.discovery.constraints import OPERATORS, Constraint, numeric_value
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


#: Row kinds of an attribute column.
_ABSENT, _EXACT, _OTHER = 0, 1, 2
_MISSING = object()
#: Operators a column evaluates as one array comparison.
_ARRAY_OPS = ("==", "!=", "<", "<=", ">", ">=")


def _exact_number(value: typing.Any) -> bool:
    """Does ``value`` compare exactly as a float64?  True for a ``float``
    and for an ``int`` of magnitude at most 2**53; False for everything
    else, bools and numpy scalars included."""
    kind = type(value)
    return kind is float or (kind is int and -2 ** 53 <= value <= 2 ** 53)


class CategoryGroup:
    """One category's advertisements, with attribute columns built on
    first use.

    A column is one attribute over the rows: its values as float64 (NaN
    unless exact) beside a per-row kind -- absent, exact number (see
    :func:`_exact_number`) or other -- and whether any row is other.
    Descriptions are immutable, so a column stays valid until its row is
    replaced: :meth:`put` and :meth:`remove` only note the rows they
    touch, in O(1), and the next read refills those cells.

    ``positions`` are the rows' places in a caller's candidate list; only
    a list can hold one name twice, so only its groups need them for the
    final tie-break.
    """

    __slots__ = ("category", "rows", "positions", "_index", "_columns",
                 "_signatures", "_stale")

    def __init__(self, category: str, rows: list[ServiceDescription] | None = None,
                 positions: list[int] | None = None) -> None:
        self.category = category
        self.rows = [] if rows is None else rows
        self.positions = positions
        self._index: dict[str, int] = {}  # name -> row, kept by put/remove
        self._columns: dict[str, tuple[np.ndarray, np.ndarray, bool]] = {}
        # each row's code into the distinct (inputs, outputs) signatures
        self._signatures: tuple[np.ndarray, dict[tuple, int]] | None = None
        self._stale: set[int] = set()  # rows replaced since the last read

    def __len__(self) -> int:
        return len(self.rows)

    # ------------------------------------------------------------------
    def put(self, service: ServiceDescription) -> None:
        """Add ``service``, or replace the row holding its name."""
        row = self._index.get(service.name)
        if row is None:
            row = self._index[service.name] = len(self.rows)
            self.rows.append(service)
        else:
            self.rows[row] = service
        self._touch(row)

    def remove(self, service_name: str) -> None:
        """Drop one name; the last row moves into its place."""
        row = self._index.pop(service_name)
        last = self.rows.pop()
        if row < len(self.rows):
            self.rows[row] = last
            self._index[last.name] = row
        self._touch(row)  # past the end when the last row went: columns shrink

    def _touch(self, row: int) -> None:
        if self._columns or self._signatures is not None:
            self._stale.add(row)

    def _refresh(self) -> None:
        """Resize every built column to the rows and refill its stale cells."""
        n = len(self.rows)
        rows = [row for row in self._stale if row < n]
        self._stale = set()
        for attribute, (values, kinds, _) in list(self._columns.items()):
            if len(values) != n:
                values, kinds = np.resize(values, n), np.resize(kinds, n)
            self._fill(attribute, values, kinds, rows)
            self._columns[attribute] = values, kinds, bool((kinds == _OTHER).any())
        if self._signatures is not None:
            codes, index = self._signatures
            if len(codes) != n:
                codes = np.resize(codes, n)
                self._signatures = codes, index
            for row in rows:
                service = self.rows[row]
                codes[row] = index.setdefault((service.inputs, service.outputs), len(index))

    def _fill(self, attribute: str, values: np.ndarray, kinds: np.ndarray,
              rows: typing.Iterable[int]) -> None:
        for row in rows:
            value = self.rows[row].attributes.get(attribute, _MISSING)
            if _exact_number(value):
                values[row] = value
                kinds[row] = _EXACT
            else:
                values[row] = math.nan
                kinds[row] = _ABSENT if value is _MISSING else _OTHER

    def column(self, attribute: str) -> tuple[np.ndarray, np.ndarray, bool]:
        """``(values, kinds, any other)`` of one attribute over every row."""
        if self._stale:
            self._refresh()
        column = self._columns.get(attribute)
        if column is None:
            n = len(self.rows)
            values, kinds = np.empty(n), np.empty(n, dtype=np.int8)
            self._fill(attribute, values, kinds, range(n))
            column = self._columns[attribute] = (
                values, kinds, bool((kinds == _OTHER).any()))
        return column

    def signatures(self) -> tuple[np.ndarray, list[tuple]]:
        """Each row's code into the distinct ``(inputs, outputs)`` pairs,
        and those pairs."""
        if self._stale:
            self._refresh()
        if self._signatures is None:
            index: dict[tuple, int] = {}
            codes = [index.setdefault((s.inputs, s.outputs), len(index)) for s in self.rows]
            self._signatures = np.array(codes, dtype=np.intp), index
        codes, index = self._signatures
        return codes, list(index)

    # ------------------------------------------------------------------
    def satisfying(self, constraint: Constraint, rows: np.ndarray) -> np.ndarray:
        """The ``rows`` whose advertisement satisfies ``constraint``.

        A comparison with an exact-number operand is one array operation
        over the exact rows; other rows, ``in``/``contains`` and other
        operands go through :meth:`Constraint.satisfied_by` row by row.
        Absent rows fail (closed world).
        """
        values, kinds, other = self.column(constraint.attribute)
        kinds = kinds[rows]
        if constraint.op in _ARRAY_OPS and _exact_number(constraint.value):
            keep = (kinds == _EXACT) & OPERATORS[constraint.op](
                values[rows], float(constraint.value))
            if not other:
                return rows[keep]
            slow = np.flatnonzero(kinds == _OTHER)
        else:
            keep = np.zeros(len(rows), dtype=bool)
            slow = np.flatnonzero(kinds != _ABSENT)
        for j in slow.tolist():
            keep[j] = constraint.satisfied_by(self.rows[rows[j]].attributes)
        return rows[keep]

    def numeric(self, attribute: str, rows: np.ndarray) -> np.ndarray:
        """The ``rows``' values of ``attribute`` as a preference reads them
        (:func:`~repro.discovery.constraints.numeric_value`)."""
        values, kinds, other = self.column(attribute)
        out = values[rows]
        if other:
            for j in np.flatnonzero(kinds[rows] == _OTHER).tolist():
                out[j] = numeric_value(self.rows[rows[j]].attributes[attribute])
        return out


class CandidateSet:
    """Candidates grouped by category, as :meth:`SemanticMatcher.rank`
    reads them; ``len()`` counts advertisements."""

    __slots__ = ("groups", "_size")

    def __init__(self, groups: list[CategoryGroup]) -> None:
        self.groups = groups
        self._size = sum(map(len, groups))

    @classmethod
    def of(cls, candidates: typing.Iterable[ServiceDescription]) -> "CandidateSet":
        """Group a candidate list by category in one pass, keeping each
        row's list position."""
        by_category: dict[str, tuple[list, list]] = {}
        for position, service in enumerate(candidates):
            group = by_category.get(service.category)
            if group is None:
                group = by_category[service.category] = ([], [])
            group[0].append(service)
            group[1].append(position)
        return cls([CategoryGroup(category, rows, positions)
                    for category, (rows, positions) in by_category.items()])

    def __len__(self) -> int:
        return self._size


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
        # (requested, advertised) -> (degree, closeness), for one ontology version
        self._pairs: dict[tuple[str, str], tuple[MatchDegree, float]] = {}
        self._pairs_version = ontology.version

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

    def _io_fraction(self, request: ServiceRequest, inputs: tuple[str, ...],
                     outputs: tuple[str, ...]) -> float:
        """Fraction of the request's I/O requirements an advertisement with
        these ``inputs`` and ``outputs`` meets.

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
                for o in outputs
            ):
                passed += 1
        for inp in inputs:
            checks += 1
            if any(
                ont.has_class(i) and ont.has_class(inp) and ont.subsumes(inp, i)
                for i in request.inputs
            ):
                passed += 1
        return passed / checks if checks else 1.0

    def _category_match(self, requested: str, advertised: str) -> tuple[MatchDegree, float]:
        """``(degree, taxonomic closeness)``: everything the score needs
        from the ontology, which depends on the two categories alone, so
        it is worked out once per pair until the ontology gains an edge.
        Closeness is 1 / (1 + semantic distance), 1.0 for identical
        classes."""
        if self._pairs_version != self.ontology.version:
            self._pairs = {}
            self._pairs_version = self.ontology.version
        match = self._pairs.get((requested, advertised))
        if match is None:
            degree = self.category_degree(requested, advertised)
            closeness = 0.0
            if degree is not MatchDegree.FAIL:
                closeness = 1.0 / (1.0 + self.ontology.distance(requested, advertised))
            match = self._pairs[requested, advertised] = (degree, closeness)
        return match

    def evaluate(self, request: ServiceRequest, service: ServiceDescription) -> MatchResult:
        """Degree + fuzzy score for one candidate (no preference utility).

        Preference utilities need the whole candidate set for
        normalization, so they are applied in :meth:`rank`.
        """
        ranked = self.rank(dataclasses.replace(request, preferences=()), [service])
        return ranked[0] if ranked else MatchResult(service, MatchDegree.FAIL, 0.0)

    def rank(
        self,
        request: ServiceRequest,
        candidates: list[ServiceDescription] | CandidateSet,
        top_k: int | None = None,
    ) -> list[MatchResult]:
        """Ranked list of non-FAIL matches, preference-adjusted.

        ``candidates`` is a list of descriptions or a registry's
        :class:`CandidateSet`.  Each category group is matched once;
        constraints apply in request order, each over the rows the
        earlier ones kept.  Preference utilities (normalized over the
        surviving candidates) multiply into the fuzzy score with
        weight-proportional influence; the degree remains the primary
        sort key when ``use_degrees``.  Ties on degree and score go by
        name, then by list position.
        """
        if top_k is not None and top_k < 0:
            raise ValueError("top_k must be >= 0")
        if not isinstance(candidates, CandidateSet):
            candidates = CandidateSet.of(candidates)
        parts: list[tuple[CategoryGroup, np.ndarray, MatchDegree]] = []
        scores: list[np.ndarray] = []
        io_fractions: dict[tuple, float] = {}
        for group in candidates.groups:
            degree, closeness = self._category_match(request.category, group.category)
            if degree is MatchDegree.FAIL:
                continue
            rows = np.arange(len(group))
            for constraint in request.constraints:
                if not len(rows):
                    break
                rows = group.satisfying(constraint, rows)
            if not len(rows):
                continue
            codes, signatures = group.signatures()
            fractions = []
            for signature in signatures:
                fraction = io_fractions.get(signature)
                if fraction is None:
                    fraction = io_fractions[signature] = self._io_fraction(request, *signature)
                fractions.append(fraction)
            base = _DEGREE_BASE[degree] if self.use_degrees else closeness
            factor = base * (0.5 + 0.5 * closeness)
            parts.append((group, rows, degree))
            if len(fractions) == 1:
                scores.append(np.full(len(rows), min(factor * fractions[0], 1.0)))
            else:
                scores.append(np.minimum(factor * np.array(fractions)[codes[rows]], 1.0))
        if not parts:
            return []
        score = np.concatenate(scores)
        if request.preferences:
            total_weight = sum(p.weight for p in request.preferences)
            if not math.isfinite(total_weight):
                raise ValueError("preference weights must have a finite sum")
            blended = np.zeros(len(score))
            for pref in request.preferences:
                values = np.concatenate([group.numeric(pref.attribute, rows)
                                         for group, rows, _ in parts])
                blended += float(pref.weight) * pref.utility_array(values)
            score = score * (0.5 + 0.5 * blended / float(total_weight))
        return self._top(parts, score, top_k)

    def _top(self, parts: list[tuple[CategoryGroup, np.ndarray, MatchDegree]],
             score: np.ndarray, top_k: int | None) -> list[MatchResult]:
        """The best ``top_k`` rows by (degree, score, name, position).

        One array sort orders degree and score; only the rows that sort
        ahead of the k-th or tie with it are compared by name.
        """
        n = len(score)
        k = n if top_k is None else min(top_k, n)
        if k == 0:
            return []
        sizes = [len(rows) for _, rows, _ in parts]
        if self.use_degrees:
            degree = np.repeat([int(d) for _, _, d in parts], sizes)
            order = np.lexsort((-score, -degree))
            last = order[k - 1]
            tied = (score == score[last]) & (degree == degree[last])
        else:
            order = np.argsort(-score, kind="stable")
            tied = score == score[order[k - 1]]
        # the rows sorting ahead of the k-th, and every row tied with it
        chosen = order[:k + np.count_nonzero(tied) - np.count_nonzero(tied[order[:k]])]
        starts = list(itertools.accumulate(sizes, initial=0))
        keyed = []
        for index, s in zip(chosen.tolist(), score[chosen].tolist()):
            part = bisect.bisect_right(starts, index) - 1
            group, rows, degree = parts[part]
            row = int(rows[index - starts[part]])
            service = group.rows[row]
            position = row if group.positions is None else group.positions[row]
            key = (-s, service.name, position)
            keyed.append(((-int(degree),) + key if self.use_degrees else key,
                          service, degree, s))
        keyed.sort(key=operator.itemgetter(0))
        return [MatchResult(service, degree, s) for _, service, degree, s in keyed[:k]]
