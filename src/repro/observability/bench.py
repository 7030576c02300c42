"""Benchmark-trajectory recording and regression gating.

The 19 experiment benchmarks print tables that vanish when the run ends.
This module makes their headline numbers persistent and comparable:

* :class:`BenchRecorder` -- collects :class:`BenchResult` rows
  (experiment id, metric name/value/unit, regression direction, and the
  parameters that produced the number, keyed by a stable parameter
  hash) and saves them as ``BENCH_results.json``.
  ``benchmarks/conftest.py`` exposes it as the ``record`` fixture, so
  every ``test_bench_*`` persists what its table prints.
* :func:`compare` / ``python -m repro.observability bench`` -- diff two
  result files:

  .. code-block:: bash

     python -m repro.observability bench compare BENCH_baseline.json BENCH_results.json --tolerance 0.05

  Exit status 0 when every shared metric is within tolerance, 1 when
  any regressed (respecting each metric's recorded direction:
  ``higher`` is better, ``lower`` is better, or ``either`` = any drift
  beyond tolerance regresses), 2 on unreadable input.  Metrics present
  on only one side are reported but never fail the gate (experiments
  come and go; the gate is about the ones both runs measured).

  ``--only PATTERN`` (repeatable) restricts the comparison to metrics
  whose ``experiment/metric`` name matches a shell-style glob, so a
  zero-tolerance gate can be applied to the few metrics that must not
  drift at all without freezing every other number:

  .. code-block:: bash

     python -m repro.observability bench compare old.json new.json \\
         --tolerance 0 --only 'E13-D/lost_advertisements'

Results are simulator metrics (deterministic from the seed), never wall
clock, so a tight tolerance is meaningful across machines.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import hashlib
import json
import math
import typing

from repro.observability.export import read_document

#: Results-file schema version.
SCHEMA_VERSION = 1
#: Regression directions: which way "worse" points.
DIRECTIONS = ("higher", "lower", "either")


def params_hash(params: typing.Mapping[str, typing.Any]) -> str:
    """Stable 12-hex-digit digest of a parameter mapping."""
    blob = json.dumps(dict(params), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


@dataclasses.dataclass(frozen=True)
class BenchResult:
    """One headline number from one experiment run (NaN is legal, inf is not)."""

    experiment: str
    metric: str
    value: float
    unit: str = "1"
    direction: str = "either"
    params: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.experiment or not self.metric:
            raise ValueError("experiment and metric must be non-empty")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        if math.isinf(self.value):
            raise ValueError(f"{self.experiment}/{self.metric}: value must not be infinite")

    @property
    def key(self) -> tuple[str, str, str]:
        """Identity for matching across runs: same experiment, same
        metric, same parameters."""
        return (self.experiment, self.metric, params_hash(self.params))

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "metric": self.metric,
            "value": self.value,
            "unit": self.unit,
            "direction": self.direction,
            "params": dict(self.params),
            "params_hash": params_hash(self.params),
        }


class BenchRecorder:
    """Accumulates results during a benchmark session; saves on demand."""

    def __init__(self) -> None:
        self.results: list[BenchResult] = []

    def record(self, experiment: str, metric: str, value: float, *,
               unit: str = "1", direction: str = "either",
               **params: typing.Any) -> BenchResult:
        """Record one headline metric (keyword args become parameters)."""
        result = BenchResult(experiment, metric, float(value), unit=unit,
                             direction=direction, params=dict(params))
        if any(r.key == result.key for r in self.results):
            raise ValueError(f"duplicate bench result {result.key}")
        self.results.append(result)
        return result

    def __len__(self) -> int:
        return len(self.results)

    def save(self, path) -> int:
        """Write all results (sorted by key, diff-friendly); returns count."""
        payload = {
            "schema": SCHEMA_VERSION,
            "results": [r.to_dict() for r in sorted(self.results, key=lambda r: r.key)],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return len(self.results)


def load_results(path) -> dict[tuple[str, str, str], BenchResult]:
    """Load a results file back into ``{key: BenchResult}``; like
    :meth:`BenchRecorder.record`, refuses infinite values and repeated keys."""
    payload = read_document(path, "bench results file", SCHEMA_VERSION,
                            {"results": list})
    out: dict[tuple[str, str, str], BenchResult] = {}
    for row in payload["results"]:
        try:
            result = BenchResult(
                experiment=str(row["experiment"]),
                metric=str(row["metric"]),
                value=float(row["value"]),
                unit=str(row.get("unit", "1")),
                direction=str(row.get("direction", "either")),
                params=dict(row.get("params") or {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed result row {row!r}: {exc}") from exc
        if result.key in out:
            raise ValueError(f"{path}: duplicate bench result {result.key}")
        out[result.key] = result
    return out


def filter_results(results: typing.Mapping[tuple, BenchResult],
                   patterns: typing.Sequence[str]) -> dict[tuple, BenchResult]:
    """Keep results whose ``experiment/metric`` matches any shell-style
    glob in ``patterns`` (all of them when ``patterns`` is empty).  A
    pattern with no wildcard is an exact name, so a gate pinned to
    ``E13-D/lost_advertisements`` never silently widens."""
    if not patterns:
        return dict(results)
    return {key: r for key, r in results.items()
            if any(fnmatch.fnmatchcase(f"{r.experiment}/{r.metric}", p)
                   for p in patterns)}


@dataclasses.dataclass(frozen=True)
class Delta:
    """One matched metric's old-vs-new comparison."""

    old: BenchResult
    new: BenchResult
    rel: float  #: signed relative change; inf when one side is NaN

    @property
    def key(self) -> tuple[str, str, str]:
        return self.old.key


@dataclasses.dataclass
class CompareReport:
    """The full diff of two result files."""

    tolerance: float
    regressions: list[Delta] = dataclasses.field(default_factory=list)
    improvements: list[Delta] = dataclasses.field(default_factory=list)
    unchanged: list[Delta] = dataclasses.field(default_factory=list)
    added: list[BenchResult] = dataclasses.field(default_factory=list)
    removed: list[BenchResult] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions


def _rel_change(old: float, new: float) -> float:
    if math.isnan(old) and math.isnan(new):
        return 0.0
    if math.isnan(old) or math.isnan(new):
        return math.inf  # appearing/disappearing NaN is always a change
    return (new - old) / max(abs(old), 1e-12)


def compare(old: typing.Mapping[tuple, BenchResult],
            new: typing.Mapping[tuple, BenchResult],
            tolerance: float = 0.05) -> CompareReport:
    """Classify every metric of ``new`` against ``old``.

    The *old* (baseline) row's direction decides which drift is a
    regression -- the baseline is the contract."""
    if not (tolerance >= 0 and math.isfinite(tolerance)):
        raise ValueError("tolerance must be finite and >= 0")
    report = CompareReport(tolerance)
    for key in sorted(set(old) | set(new)):
        if key not in old:
            report.added.append(new[key])
            continue
        if key not in new:
            report.removed.append(old[key])
            continue
        delta = Delta(old[key], new[key], _rel_change(old[key].value, new[key].value))
        direction = old[key].direction
        beyond = abs(delta.rel) > tolerance
        if not beyond:
            report.unchanged.append(delta)
        elif math.isinf(delta.rel) or direction == "either":
            # a NaN appearing or disappearing is never an improvement
            report.regressions.append(delta)
        elif (direction == "higher") == (delta.rel < 0):
            report.regressions.append(delta)
        else:
            report.improvements.append(delta)
    return report


def _name_table(headers: typing.Sequence[str],
                rows: typing.Sequence[typing.Sequence]) -> str:
    """A fixed-width table whose first column is left-justified and sized
    to the longest name (metric names outgrow one shared column width)."""
    name_w = max(len(str(row[0])) for row in (headers, *rows)) + 2
    width = 14

    def cell(v: typing.Any) -> str:
        shown = f"{v:.4g}" if isinstance(v, float) else str(v)
        return f"{shown:>{width}}"

    out = [f"{headers[0]:<{name_w}}" + "".join(f"{h:>{width}}" for h in headers[1:])]
    out.append("-" * (name_w + width * (len(headers) - 1)))
    for row in rows:
        out.append(f"{row[0]!s:<{name_w}}" + "".join(cell(v) for v in row[1:]))
    return "\n".join(out)


def render_compare(report: CompareReport) -> str:
    """The comparison as text."""
    rows = []
    for label, deltas in (("REGRESSED", report.regressions),
                          ("improved", report.improvements),
                          ("ok", report.unchanged)):
        for d in deltas:
            exp, metric, phash = d.key
            rel = "nan!" if math.isinf(d.rel) else f"{100.0 * d.rel:+.2f}%"
            rows.append([f"{exp}/{metric}", phash, d.old.value, d.new.value,
                         rel, label])
    lines = []
    if rows:
        lines.append(_name_table(
            ["experiment/metric", "params", "old", "new", "change", "status"],
            rows))
    for r in report.added:
        lines.append(f"  new metric (no baseline): {r.experiment}/{r.metric} = {r.value:.6g}")
    for r in report.removed:
        lines.append(f"  missing from new run:     {r.experiment}/{r.metric} "
                     f"(baseline {r.value:.6g})")
    lines.append(
        f"{len(report.regressions)} regressed, {len(report.improvements)} improved, "
        f"{len(report.unchanged)} within ±{100.0 * report.tolerance:g}%, "
        f"{len(report.added)} added, {len(report.removed)} removed")
    return "\n".join(lines)


def render_show(results: dict[tuple, BenchResult]) -> str:
    rows = [[f"{r.experiment}/{r.metric}", r.value, r.unit, r.direction,
             params_hash(r.params)]
            for r in sorted(results.values(), key=lambda r: r.key)]
    return _name_table(["experiment/metric", "value", "unit",
                        "direction", "params"], rows)
