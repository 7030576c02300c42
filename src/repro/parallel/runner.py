"""Multi-process trial runner with deterministic reduction.

The ROADMAP's scaling premise -- aggregate cycles across workers so the
runtime, not the experiment author, owns distribution -- applied to the
reproduction's own experiment harness.  A :class:`TrialRunner` shards
*independent simulation worlds* (benchmark cells, seed sweeps, churn
replicates) across OS processes.  Each world runs a deterministic
simulation and ships back a :class:`TrialResult` (its
:class:`~repro.simkernel.monitor.Monitor`, headline metrics, and an
optional trace and wall-clock-profile exports); the parent folds the
monitors with :meth:`Monitor.merge` in **seed order** (ascending trial
index), so the merged counters and summaries are bit-identical no matter
how many workers ran or in what order they finished.

Determinism contract
--------------------
``run(specs)`` with ``workers=1`` and ``workers=N`` produce the same
:attr:`SweepResult.monitor` summary and the same per-trial metrics,
because (a) every trial is a pure function of its :class:`TrialSpec`,
(b) nothing wall-clock-dependent is ever recorded into the merged
monitor, and (c) reduction order is fixed by trial index.  Wall-clock
facts (elapsed time, speedup, worker count, merged profiles) live on the
:class:`SweepResult` itself, never in the monitor -- profiling a sweep
cannot change its merged results.

Trial functions must be module-level callables and specs must be
picklable (they cross a process boundary).  ``workers <= 1`` runs
in-process with zero multiprocessing machinery -- the reference against
which parallel runs are gated in CI.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import math
import multiprocessing
import time
import traceback
import typing

from repro import checks
from repro.observability.profiling import merge_profiles
from repro.simkernel.monitor import Monitor

#: Span-id block reserved per trial when merging trace exports; world-local
#: ids are offset into the trial's block so merged ids never collide.
_TRIAL_ID_BLOCK = 1 << 32


@dataclasses.dataclass(frozen=True)
class TrialSpec:
    """One independent simulation world to run.

    Attributes
    ----------
    index:
        Position in the seed-ordered reduction; must be unique per sweep.
    seed:
        Root seed for the world (the trial function decides how to use it).
    params:
        Arbitrary picklable keyword parameters for the trial function.
    trace:
        Ask the trial to export its tracer records (see
        :attr:`TrialResult.trace`).
    profile:
        Ask the trial to wall-clock-profile its dispatch loop (see
        :attr:`TrialResult.profile`).
    """

    index: int
    seed: int = 0
    params: dict = dataclasses.field(default_factory=dict)
    trace: bool = False
    profile: bool = False

    def __post_init__(self) -> None:
        checks.count("index", self.index)
        checks.count("seed", self.seed)


@dataclasses.dataclass
class TrialResult:
    """What one trial world returns to the parent.

    Attributes
    ----------
    monitor:
        The world's monitor, merged seed-ordered into
        :attr:`SweepResult.monitor` (optional).
    metrics:
        Headline numbers for the experiment's table/recorder.
    trace:
        Either a :class:`~repro.observability.tracer.Tracer` (converted
        to JSON-ready dicts before crossing the process boundary) or an
        already-converted list of record dicts.
    sim_time_s:
        Final virtual time of the world; stamps the synthesized
        ``parallel.trial`` span.
    profile:
        Either a :class:`~repro.observability.profiling.HookProfiler`
        (converted to its export dict before crossing the process
        boundary) or an already-converted document; merged seed-ordered
        into :attr:`SweepResult.profile`.
    """

    monitor: Monitor | None = None
    metrics: dict = dataclasses.field(default_factory=dict)
    trace: typing.Any = None
    sim_time_s: float = 0.0
    profile: typing.Any = None


@dataclasses.dataclass
class TrialOutcome:
    """One trial's result plus the runner's bookkeeping."""

    spec: TrialSpec
    result: TrialResult | None
    wall_s: float = 0.0
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error

    @property
    def metrics(self) -> dict:
        return self.result.metrics if self.result is not None else {}


@dataclasses.dataclass
class SweepResult:
    """A whole sweep, reduced: seed-ordered outcomes + merged monitor.

    ``monitor`` carries only deterministic instruments (the trials' own
    monitors plus the ``parallel.trials`` / ``parallel.trial_failures``
    counters).  Wall-clock facts stay out of it by design, so serial and
    parallel runs of the same specs summarize identically.
    """

    outcomes: list[TrialOutcome]
    monitor: Monitor
    trace: list[dict]
    workers: int
    wall_s: float
    #: Merged wall-clock profile document (seed-ordered fold of the
    #: trials' :attr:`TrialResult.profile` exports); None when no trial
    #: profiled.  Wall-clock data: lives here, never in ``monitor``.
    profile: dict | None = None

    @property
    def trial_wall_s(self) -> float:
        """Total worker-side compute time across all trials."""
        return sum(o.wall_s for o in self.outcomes)

    @property
    def failures(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def speedup(self) -> float:
        """Aggregate-work / elapsed ratio (> 1 when sharding paid off)."""
        if self.wall_s <= 0.0:
            return math.nan
        return self.trial_wall_s / self.wall_s

    def metrics_by_index(self) -> list[dict]:
        """Per-trial headline metrics, seed-ordered."""
        return [o.metrics for o in self.outcomes]

    def export_trace(self, path) -> int:
        """Write the merged trace (one ``parallel.trial`` span per world,
        world records nested beneath it) as JSONL; returns line count."""
        count = 0
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.trace:
                fh.write(json.dumps(record, default=str))
                fh.write("\n")
                count += 1
        return count


def _normalize_trace(trace: typing.Any) -> list[dict] | None:
    """Tracer -> JSON-ready dicts (runs worker-side, before pickling)."""
    if trace is None:
        return None
    records = getattr(trace, "records", trace)
    return [r if isinstance(r, dict) else r.to_dict() for r in records]


def _normalize_profile(profile: typing.Any) -> dict | None:
    """HookProfiler -> export dict (runs worker-side, before pickling)."""
    if profile is None or isinstance(profile, dict):
        return profile
    return profile.to_dict()


def _run_trial(payload: tuple) -> tuple[int, TrialResult | None, float, str]:
    """Execute one trial (worker side); never raises across the boundary."""
    trial_fn, spec = payload
    start = time.perf_counter()
    try:
        result = trial_fn(spec)
        if not isinstance(result, TrialResult):
            raise TypeError(
                f"trial function returned {type(result).__name__}, expected TrialResult")
        result.trace = _normalize_trace(result.trace)
        result.profile = _normalize_profile(result.profile)
        return (spec.index, result, time.perf_counter() - start, "")
    except Exception:  # noqa: BLE001 - the parent decides raise-vs-keep
        return (spec.index, None, time.perf_counter() - start,
                traceback.format_exc())


def _merge_trace(outcomes: list[TrialOutcome]) -> list[dict]:
    """Nest each world's records under a synthesized ``parallel.trial``
    span, remapping ids into per-trial blocks so they never collide."""
    merged: list[dict] = []
    for outcome in outcomes:
        result = outcome.result
        records = result.trace if result is not None else None
        if records is None:
            continue
        base = (outcome.spec.index + 1) * _TRIAL_ID_BLOCK
        end_s = float(result.sim_time_s)
        for rec in records:
            end_s = max(end_s, rec.get("end") or 0.0, rec.get("time") or 0.0)
        merged.append({
            "kind": "span", "trace": base, "span": base, "parent": None,
            "name": "parallel.trial", "start": 0.0, "end": end_s,
            "status": "ok" if outcome.ok else "error",
            "attrs": {"trial": outcome.spec.index, "seed": outcome.spec.seed,
                      **outcome.spec.params},
        })
        for rec in records:
            rec = dict(rec)
            rec["trace"] = base
            if rec.get("span") is not None:
                rec["span"] = base + 1 + rec["span"]
            rec["parent"] = base if rec.get("parent") is None else base + 1 + rec["parent"]
            merged.append(rec)
    return merged


class TrialRunner:
    """Shard independent trials across worker processes; reduce in seed order.

    Parameters
    ----------
    trial_fn:
        Module-level callable ``(TrialSpec) -> TrialResult``.  Runs in a
        worker process, so it (and everything it returns) must pickle.
    workers:
        Process count.  ``<= 1`` runs serially in-process (the reference
        behavior); ``None`` uses one worker per CPU, capped at the trial
        count.
    mp_context:
        ``multiprocessing`` start-method name or context.  Defaults to
        ``fork`` where available (cheap, no re-import), else ``spawn``.
    on_error:
        ``"raise"`` (default) re-raises the first trial failure in the
        parent; ``"keep"`` records the failure in its
        :class:`TrialOutcome` and in the ``parallel.trial_failures``
        counter, and keeps going.
    """

    def __init__(
        self,
        trial_fn: typing.Callable[[TrialSpec], TrialResult],
        workers: int | None = 1,
        *,
        mp_context: typing.Any = None,
        on_error: str = "raise",
    ) -> None:
        if on_error not in ("raise", "keep"):
            raise ValueError("on_error must be 'raise' or 'keep'")
        self.trial_fn = trial_fn
        self.workers = None if workers is None else checks.count("workers", workers, 1)
        self.mp_context = mp_context
        self.on_error = on_error

    # ------------------------------------------------------------------
    def run(self, specs: typing.Sequence[TrialSpec]) -> SweepResult:
        """Run every spec; reduce deterministically; return the sweep."""
        specs = sorted(specs, key=lambda s: s.index)
        if len({s.index for s in specs}) != len(specs):
            raise ValueError("trial indexes must be unique")
        workers = self.workers
        if workers is None:
            workers = multiprocessing.cpu_count()
        workers = max(1, min(int(workers), len(specs) or 1))

        start = time.perf_counter()
        if workers <= 1 or len(specs) <= 1:
            raw = [_run_trial((self.trial_fn, spec)) for spec in specs]
        else:
            raw = self._run_pool(specs, workers)
        wall_s = time.perf_counter() - start

        by_index = {index: (result, trial_wall, error)
                    for index, result, trial_wall, error in raw}
        outcomes: list[TrialOutcome] = []
        merged = Monitor()
        for spec in specs:  # seed order: the deterministic reduction
            result, trial_wall, error = by_index[spec.index]
            if error and self.on_error == "raise":
                raise TrialError(spec, error)
            outcomes.append(TrialOutcome(spec, result, trial_wall, error))
            merged.counter("parallel.trials").add()
            if error:
                merged.counter("parallel.trial_failures").add()
            elif result is not None and result.monitor is not None:
                merged.merge(result.monitor)
        return SweepResult(
            outcomes=outcomes,
            monitor=merged,
            trace=_merge_trace(outcomes),
            workers=workers,
            wall_s=wall_s,
            profile=merge_profiles(
                o.result.profile if o.result is not None else None
                for o in outcomes),
        )

    # ------------------------------------------------------------------
    def _run_pool(self, specs: typing.Sequence[TrialSpec], workers: int) -> list[tuple]:
        ctx = self.mp_context
        if ctx is None:
            methods = multiprocessing.get_all_start_methods()
            ctx = "fork" if "fork" in methods else "spawn"
        if isinstance(ctx, str):
            ctx = multiprocessing.get_context(ctx)
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=ctx
        ) as pool:
            futures = [pool.submit(_run_trial, (self.trial_fn, spec)) for spec in specs]
            return [f.result() for f in futures]


class TrialError(RuntimeError):
    """A trial failed in a worker (carries the worker-side traceback)."""

    def __init__(self, spec: TrialSpec, worker_traceback: str) -> None:
        super().__init__(
            f"trial {spec.index} (seed={spec.seed}, params={spec.params}) "
            f"failed in worker:\n{worker_traceback}")
        self.spec = spec
        self.worker_traceback = worker_traceback


def run_trials(
    trial_fn: typing.Callable[[TrialSpec], TrialResult],
    specs: typing.Sequence[TrialSpec],
    workers: int | None = 1,
    **kwargs: typing.Any,
) -> SweepResult:
    """One-call convenience: ``TrialRunner(trial_fn, workers).run(specs)``."""
    return TrialRunner(trial_fn, workers, **kwargs).run(specs)


def seed_specs(seeds: typing.Iterable[int], *, trace: bool = False,
               profile: bool = False, **params: typing.Any) -> list[TrialSpec]:
    """Specs for a seed sweep: one trial per seed, shared parameters."""
    return [TrialSpec(index=i, seed=int(seed), params=dict(params),
                      trace=trace, profile=profile)
            for i, seed in enumerate(seeds)]


def cell_specs(cells: typing.Iterable[typing.Mapping[str, typing.Any]],
               seed: int = 0, *, trace: bool = False,
               profile: bool = False) -> list[TrialSpec]:
    """Specs for a parameter grid: one trial per cell dict, shared seed."""
    return [TrialSpec(index=i, seed=seed, params=dict(cell),
                      trace=trace, profile=profile)
            for i, cell in enumerate(cells)]
