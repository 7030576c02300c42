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

Ranking works over one :class:`ServiceTable`: a registry keeps its
advertisements in one, and a plain list becomes one in list order.  A
search is one mask pass over the whole table: the rows of the matching
categories start a boolean mask, and each numeric comparison constraint
ands in one array comparison over its attribute column; only the rows
left standing are gathered.  Degree and closeness are worked out once
per category pair, memoized until the ontology gains an edge, and the
I/O fraction once per search for each advertised ``(inputs, outputs)``
signature the surviving rows hold; scores and preference utilities are
array operations over the surviving rows.  Values a float64 column cannot
hold exactly (bools, strings, ints beyond 2**53, numpy scalars, ...)
take the per-row :meth:`Constraint.satisfied_by` path, only on rows
every earlier constraint kept, so every ranking is the one a
per-candidate loop would return (``tests/discovery/oracle.py`` holds
that loop).
"""

from __future__ import annotations

import enum
import math
import operator
import typing

import numpy as np

from repro.discovery.constraints import OPERATORS, numeric_value
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


class MatchResult(typing.NamedTuple):
    """One candidate's evaluation against a request.

    A plain tuple of its three fields.  :meth:`sort_key` puts better
    results first (higher degree, then higher score, then name for
    determinism).
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
#: What each code column of a :class:`ServiceTable` keys its rows by.
_CODE_KEYS = {"category": operator.attrgetter("category"),
              "signature": operator.attrgetter("inputs", "outputs")}


def _exact_number(value: typing.Any) -> bool:
    """Does ``value`` compare exactly as a float64?  True for a ``float``
    and for an ``int`` of magnitude at most 2**53; False for everything
    else, bools and numpy scalars included."""
    kind = type(value)
    return kind is float or (kind is int and -2 ** 53 <= value <= 2 ** 53)


def _fit(view: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` cells of the buffer behind ``view`` (its
    ``base``), as a view.  A buffer with no room for ``n`` is first
    copied into one twice as large.  Cells past ``len(view)`` hold
    whatever the buffer held; the caller refills them."""
    buffer = view.base
    if n > len(buffer):
        grown = np.empty(max(n, 2 * len(buffer)), dtype=buffer.dtype)
        grown[:len(view)] = view
        buffer = grown
    return buffer[:n]


class ServiceTable:
    """Advertisements in rows, with attribute columns and code columns
    built on first use.

    A column is one attribute over the rows: its values as float64 (NaN
    unless exact) beside a per-row kind -- absent, exact number (see
    :func:`_exact_number`) or other -- and whether any row is other.  A
    code column gives each row's code into the distinct values of one
    :data:`_CODE_KEYS` key.  Descriptions are immutable, so a column
    stays valid until its row is replaced: :meth:`put` and
    :meth:`remove` only note the rows they touch, in O(1), and the next
    read refills those cells.  Every column is a view of the live rows
    into a buffer (the view's ``base``) that grows by doubling, so rows
    come and go without a copy per read (:func:`_fit`).

    A registry grows its table by :meth:`put`, which keeps names unique;
    a candidate list becomes a table of its own in list order, so a
    row's index is its list position (a list can hold one name twice).
    """

    __slots__ = ("rows", "_index", "_columns", "_codes", "_stale")

    def __init__(self, rows: typing.Iterable[ServiceDescription] = ()) -> None:
        self.rows = list(rows)
        self._index: dict[str, int] = {}  # name -> row, kept by put/remove
        self._columns: dict[str, tuple[np.ndarray, np.ndarray, bool]] = {}
        self._codes: dict[str, tuple[np.ndarray, dict[typing.Any, int]]] = {}
        self._stale: set[int] = set()  # rows replaced since the last read

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> typing.Iterator[ServiceDescription]:
        return iter(self.rows)

    def get(self, service_name: str) -> ServiceDescription | None:
        """The row :meth:`put` holds under ``service_name``, if any."""
        row = self._index.get(service_name)
        return None if row is None else self.rows[row]

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

    def remove(self, service_name: str) -> bool:
        """Drop one name (False when absent); the last row moves into its
        place."""
        row = self._index.pop(service_name, None)
        if row is None:
            return False
        last = self.rows.pop()
        if row < len(self.rows):
            self.rows[row] = last
            self._index[last.name] = row
        self._touch(row)  # past the end when the last row went: columns shrink
        return True

    def _touch(self, row: int) -> None:
        if self._columns or self._codes:
            self._stale.add(row)

    def _refresh(self) -> None:
        """Fit every built column to the rows and refill its stale cells."""
        n = len(self.rows)
        rows = [row for row in self._stale if row < n]
        self._stale = set()
        for attribute, (values, kinds, other) in list(self._columns.items()):
            if len(values) != n:
                values, kinds = _fit(values, n), _fit(kinds, n)
            # a withdrawal only clears other rows: rescan when one may have gone
            if self._fill(attribute, values, kinds, rows) or other:
                other = bool((kinds == _OTHER).any())
            self._columns[attribute] = values, kinds, other
        for key, (codes, index) in list(self._codes.items()):
            if len(codes) != n:
                codes = _fit(codes, n)
                self._codes[key] = codes, index
            get = _CODE_KEYS[key]
            for row in rows:
                codes[row] = index.setdefault(get(self.rows[row]), len(index))

    def _fill(self, attribute: str, values: np.ndarray, kinds: np.ndarray,
              rows: typing.Iterable[int]) -> bool:
        """Refill ``rows``' cells of one column; True if any is other."""
        other = False
        for row in rows:
            value = self.rows[row].attributes.get(attribute, _MISSING)
            if _exact_number(value):
                values[row] = value
                kinds[row] = _EXACT
            elif value is _MISSING:
                values[row] = math.nan
                kinds[row] = _ABSENT
            else:
                values[row] = math.nan
                kinds[row] = _OTHER
                other = True
        return other

    def column(self, attribute: str) -> tuple[np.ndarray, np.ndarray, bool]:
        """``(values, kinds, any other)`` of one attribute over every row."""
        if self._stale:
            self._refresh()
        column = self._columns.get(attribute)
        if column is None:
            n = len(self.rows)
            values, kinds = np.empty(n)[:n], np.empty(n, dtype=np.int8)[:n]
            column = self._columns[attribute] = (
                values, kinds, self._fill(attribute, values, kinds, range(n)))
        return column

    def codes(self, key: str) -> tuple[np.ndarray, list]:
        """Each row's code into the distinct values of ``key`` (a
        :data:`_CODE_KEYS` name), and those values by code."""
        if self._stale:
            self._refresh()
        built = self._codes.get(key)
        if built is None:
            index: dict[typing.Any, int] = {}
            get = _CODE_KEYS[key]
            codes = [index.setdefault(get(service), len(index)) for service in self.rows]
            built = self._codes[key] = np.array(codes, dtype=np.intp)[:len(codes)], index
        codes, index = built
        return codes, list(index)

    # ------------------------------------------------------------------
    def numeric(self, attribute: str, rows: np.ndarray) -> np.ndarray:
        """The ``rows``' values of ``attribute`` as a preference reads them
        (:func:`~repro.discovery.constraints.numeric_value`)."""
        values, kinds, other = self.column(attribute)
        out = values[rows]
        if other:
            for j in np.flatnonzero(kinds[rows] == _OTHER).tolist():
                out[j] = numeric_value(self.rows[rows[j]].attributes[attribute])
        return out


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

    def rank(
        self,
        request: ServiceRequest,
        candidates: list[ServiceDescription] | ServiceTable,
        top_k: int | None = None,
    ) -> list[MatchResult]:
        """Ranked list of non-FAIL matches, preference-adjusted.

        ``candidates`` is a list of descriptions or a registry's
        :class:`ServiceTable`.  The rows of every matching category are
        the candidates; constraints apply in request order, and one that
        needs :meth:`Constraint.satisfied_by` calls it only on rows every
        earlier constraint kept.  Preference utilities (normalized over
        the surviving candidates) multiply into the fuzzy score with
        weight-proportional influence; the degree remains the primary
        sort key when ``use_degrees``.  Ties on degree and score go by
        name, then by list position.
        """
        if top_k is not None and top_k < 0:
            raise ValueError("top_k must be >= 0")
        table = candidates if isinstance(candidates, ServiceTable) else ServiceTable(candidates)
        category, categories = table.codes("category")
        matches = [self._category_match(request.category, c) for c in categories]
        keep = np.array([d is not MatchDegree.FAIL for d, _ in matches], dtype=bool)[category]
        for constraint in request.constraints:
            values, kinds, other = table.column(constraint.attribute)
            # the rows left to satisfied_by: other rows (every present row
            # when the column cannot decide), among those still kept
            if constraint.op in _ARRAY_OPS and _exact_number(constraint.value):
                slow = keep & (kinds == _OTHER) if other else None
                passed = OPERATORS[constraint.op](values, float(constraint.value))
                if constraint.op == "!=":
                    passed &= kinds == _EXACT  # a NaN cell (absent, other) is != anything
                keep &= passed
            else:
                slow = keep & (kinds != _ABSENT)
                keep = np.zeros(len(keep), dtype=bool)
            if slow is not None:
                for row in np.flatnonzero(slow).tolist():
                    keep[row] = constraint.satisfied_by(table.rows[row].attributes)
        rows = np.flatnonzero(keep)
        if not len(rows):
            return []
        category = category[rows]
        signature, signatures = table.codes("signature")
        signature = signature[rows]
        # one I/O fraction per signature the surviving rows hold
        present = np.zeros(len(signatures), dtype=bool)
        present[signature] = True
        fraction = np.zeros(len(signatures))
        for code in np.flatnonzero(present).tolist():
            fraction[code] = self._io_fraction(request, *signatures[code])
        factor = np.array([(_DEGREE_BASE[d] if self.use_degrees else c) * (0.5 + 0.5 * c)
                           for d, c in matches])
        score = np.minimum(factor[category] * fraction[signature], 1.0)
        if request.preferences:
            total_weight = sum(p.weight for p in request.preferences)
            if not math.isfinite(total_weight):
                raise ValueError("preference weights must have a finite sum")
            terms = [float(p.weight) * p.utility_array(table.numeric(p.attribute, rows))
                     for p in request.preferences]
            blended = terms[0]  # every term is >= +0.0: a zeros start would add nothing
            for term in terms[1:]:
                blended += term
            score = score * (0.5 + 0.5 * blended / float(total_weight))
        return self._top(table, rows, [d for d, _ in matches], category, score, top_k)

    def _top(self, table: ServiceTable, rows: np.ndarray, degrees: list[MatchDegree],
             category: np.ndarray, score: np.ndarray, top_k: int | None) -> list[MatchResult]:
        """The best ``top_k`` of ``rows`` by (degree, score, name);
        ``degrees`` is indexed by the rows' ``category`` codes.

        One array sort orders degree and score; only the rows that sort
        ahead of the k-th or tie with it are compared by name.  Both sorts
        are stable, so rows that tie on all three keep their row order,
        which for a candidate list is list order.
        """
        n = len(score)
        k = n if top_k is None else min(top_k, n)
        if k == 0:
            return []
        if self.use_degrees:
            degree = np.array([int(d) for d in degrees])[category]
            order = np.lexsort((-score, -degree))
            last = order[k - 1]
            tied = (score == score[last]) & (degree == degree[last])
        else:
            order = np.argsort(-score, kind="stable")
            tied = score == score[order[k - 1]]
        # the rows sorting ahead of the k-th, and every row tied with it
        chosen = order[:k + np.count_nonzero(tied) - np.count_nonzero(tied[order[:k]])]
        services = table.rows
        picked = zip(rows[chosen].tolist(), category[chosen].tolist(), score[chosen].tolist())
        if self.use_degrees:
            keyed = [((-degrees[code], -s, services[row].name), row, code, s)
                     for row, code, s in picked]
        else:
            keyed = [((-s, services[row].name), row, code, s) for row, code, s in picked]
        keyed.sort(key=operator.itemgetter(0))
        return [MatchResult(services[row], degrees[code], s) for _, row, code, s in keyed[:k]]
