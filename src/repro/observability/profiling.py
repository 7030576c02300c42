"""Wall-clock hook profiling of the sim-kernel dispatch loop.

Everything else in :mod:`repro.observability` measures *simulated* time;
this module measures the other axis: where the **wall clock** goes while
the simulator grinds through its event heap.  A :class:`HookProfiler`
attaches to a :class:`~repro.simkernel.simulator.Simulator` (the
``sim.profiler`` slot, mirroring ``sim.tracer``) and times every event
dispatch, attributing self/cumulative wall time and call counts to a
*handler* (the event's label prefix, or the scheduling function's
qualname) and to the subsystem that scheduled it (derived from the
callback's module).  Instrumented code paths can additionally push
:meth:`HookProfiler.frame` frames -- nested wall-clock intervals inside
one dispatch -- so routing, decision making, and scheduling show up as
children of their events in the collapsed-stack (flamegraph) export.

Isolation invariant (the PR 4 contract)
---------------------------------------
Profiling data lives **only** on the profiler object -- never in the
:class:`~repro.simkernel.monitor.Monitor` -- so merged
:class:`~repro.parallel.TrialRunner` results stay bit-identical with
profiling enabled at any worker count: wall-clock facts ride home on
:attr:`~repro.parallel.TrialResult.profile` and are merged separately by
:func:`merge_profiles`.

Disabled cost
-------------
``sim.profiler`` defaults to ``None`` and the dispatch loop guards with
``profiler is not None and profiler.enabled`` -- one attribute load and
one identity check, no allocation (asserted by
``tests/observability/test_overhead.py``).  Frame sites use the shared
:data:`NOOP_PROFILER` / :data:`NOOP_FRAME` singletons, same discipline
as the tracer's no-ops.

Analysis happens offline: :meth:`HookProfiler.to_dict` /
:meth:`HookProfiler.write` export one JSON document that the
``python -m repro.observability profile`` command renders (top-N hotspots,
per-subsystem rollups, ``--diff OLD NEW`` for before/after evidence) and
whose ``collapsed`` section feeds any flamegraph tool that speaks the
``a;b;c <count>`` collapsed-stack format.
"""

from __future__ import annotations

import json
import time
import typing

from repro.observability.export import read_document

#: Profile-export schema version.
SCHEMA_VERSION = 1
#: The export's ``kind`` discriminator.
PROFILE_KIND = "hook_profile"
#: The fields of every exported handler row (:meth:`HookProfiler.handlers`).
_HANDLER_FIELDS = frozenset({"name", "subsystem", "calls", "self_s", "cum_s"})


class _Frame:
    """Context manager pushing one named frame onto an enabled profiler."""

    __slots__ = ("_profiler", "_name", "_subsystem")

    def __init__(self, profiler: "HookProfiler", name: str,
                 subsystem: str | None) -> None:
        self._profiler = profiler
        self._name = name
        self._subsystem = subsystem

    def __enter__(self) -> "_Frame":
        self._profiler._push(self._name, self._subsystem)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._profiler._pop()


class _NoopFrame:
    """Shared do-nothing frame for disabled profilers (never allocates)."""

    __slots__ = ()

    def __enter__(self) -> "_NoopFrame":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NOOP_FRAME = _NoopFrame()


class HookProfiler:
    """Wall-clock self/cumulative attribution per handler and subsystem.

    Parameters
    ----------
    enabled:
        When False, :meth:`frame` returns the shared :data:`NOOP_FRAME`
        and the simulator skips the dispatch hook entirely.
    clock:
        Nanosecond clock (injectable for deterministic tests); defaults
        to :func:`time.perf_counter_ns`.

    Attributes
    ----------
    events:
        Number of profiled event dispatches.

    Notes
    -----
    Attribution names are **deterministic** for a seeded run: they come
    from event labels (truncated at the first ``:`` so per-message
    labels like ``hop:42`` fold into one ``hop`` handler) or from the
    scheduling callback's ``__qualname__`` truncated at ``.<locals>``
    (so a closure scheduled inside ``Network._hop`` is attributed to
    ``Network._hop``).  Two exports of the same seeded workload
    therefore report the same hotspot names -- only the nanoseconds
    differ -- which is what makes ``--diff`` meaningful.
    """

    def __init__(self, enabled: bool = True,
                 clock: typing.Callable[[], int] = time.perf_counter_ns) -> None:
        self.enabled = enabled
        self._clock = clock
        self.events = 0
        # frame stack entries: [name, collapsed_path, start_ns, child_ns]
        self._stack: list[list] = []
        self._calls: dict[str, int] = {}
        self._self_ns: dict[str, int] = {}
        self._cum_ns: dict[str, int] = {}
        self._active: dict[str, int] = {}  # recursion guard for cum time
        self._subsystem: dict[str, str] = {}
        self._collapsed: dict[str, int] = {}  # "a;b;c" -> self ns
        self._qualname_memo: dict[str, str] = {}
        self._module_memo: dict[str, str] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def frame(self, name: str, subsystem: str | None = None) -> _Frame | _NoopFrame:
        """A nested wall-clock frame (use as a context manager).

        ``subsystem`` defaults to the name's first dotted component,
        matching the tracer's span-name convention.
        """
        if not self.enabled:
            return NOOP_FRAME
        return _Frame(self, name, subsystem)

    def _push(self, name: str, subsystem: str | None = None) -> None:
        if subsystem is not None or name not in self._subsystem:
            self._subsystem[name] = (subsystem if subsystem is not None
                                     else name.split(".", 1)[0])
        path = (self._stack[-1][1] + ";" + name) if self._stack else name
        self._active[name] = self._active.get(name, 0) + 1
        self._stack.append([name, path, self._clock(), 0])

    def _pop(self) -> None:
        now = self._clock()
        name, path, start, child_ns = self._stack.pop()
        elapsed = now - start
        self_ns = elapsed - child_ns
        self._calls[name] = self._calls.get(name, 0) + 1
        self._self_ns[name] = self._self_ns.get(name, 0) + self_ns
        self._collapsed[path] = self._collapsed.get(path, 0) + self_ns
        depth = self._active[name]
        if depth == 1:
            # only the outermost occurrence accumulates cumulative time,
            # so recursive/re-entrant frames are not double-counted
            self._cum_ns[name] = self._cum_ns.get(name, 0) + elapsed
            del self._active[name]
        else:
            self._active[name] = depth - 1
        if self._stack:
            self._stack[-1][3] += elapsed

    # -- dispatch hook (called by Simulator.step) ----------------------
    def _begin_event(self, event, callback) -> None:
        """Open the dispatch frame for one event (hot path)."""
        self.events += 1
        label = event.label
        if label:
            # not memoized: labels may carry a per-event id (``hop:42``)
            name = label.partition(":")[0]
            subsystem = self._subsystem_of(callback)
        else:
            qualname = getattr(callback, "__qualname__", "") or type(callback).__name__
            name = self._qualname_memo.get(qualname)
            if name is None:
                name = qualname.split(".<locals>", 1)[0]
                self._qualname_memo[qualname] = name
            subsystem = self._subsystem_of(callback)
        self._push(name, subsystem)

    def _end_event(self) -> None:
        self._pop()

    def _subsystem_of(self, callback) -> str:
        module = getattr(callback, "__module__", "") or "?"
        subsystem = self._module_memo.get(module)
        if subsystem is None:
            parts = module.split(".")
            subsystem = parts[1] if len(parts) > 1 and parts[0] == "repro" else parts[0]
            self._module_memo[module] = subsystem
        return subsystem

    # ------------------------------------------------------------------
    # introspection / export
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of distinct handler names seen."""
        return len(self._calls)

    def __bool__(self) -> bool:
        # truthiness must not follow __len__: the documented call-site
        # idiom ``sim.profiler or NOOP_PROFILER`` has to keep an empty
        # (fresh) profiler, not swap it for the no-op
        return True

    @property
    def total_wall_s(self) -> float:
        """Total profiled wall time (self times partition it exactly)."""
        return sum(self._self_ns.values()) * 1e-9

    def handlers(self) -> list[dict]:
        """Per-handler rows sorted by descending self time (then name)."""
        rows = [
            {
                "name": name,
                "subsystem": self._subsystem.get(name, name.split(".", 1)[0]),
                "calls": self._calls[name],
                "self_s": self._self_ns.get(name, 0) * 1e-9,
                "cum_s": self._cum_ns.get(name, 0) * 1e-9,
            }
            for name in self._calls
        ]
        rows.sort(key=lambda r: (-r["self_s"], r["name"]))
        return rows

    def to_dict(self) -> dict:
        """The whole profile as one JSON-ready document."""
        return {
            "schema": SCHEMA_VERSION,
            "kind": PROFILE_KIND,
            "events": self.events,
            "wall_s": self.total_wall_s,
            "handlers": self.handlers(),
            "collapsed": {path: ns // 1000
                          for path, ns in sorted(self._collapsed.items())},
        }

    def write(self, path) -> int:
        """Write :meth:`to_dict` as JSON; returns the handler count."""
        doc = self.to_dict()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        return len(doc["handlers"])

    def clear(self) -> None:
        """Drop all samples (between benchmark repetitions)."""
        self.events = 0
        self._stack.clear()
        for d in (self._calls, self._self_ns, self._cum_ns, self._active,
                  self._collapsed):
            d.clear()


#: Shared disabled profiler for call sites that want ``prof.frame(...)``
#: unconditionally (``sim.profiler or NOOP_PROFILER``).
NOOP_PROFILER = HookProfiler(enabled=False)


def load_profile(path) -> dict:
    """Load and validate one profile export written by :meth:`HookProfiler.write`."""
    doc = read_document(path, "profile export", SCHEMA_VERSION,
                        {"events": int, "wall_s": (int, float),
                         "handlers": list, "collapsed": dict},
                        kind=PROFILE_KIND)
    for row in doc["handlers"]:
        if not (isinstance(row, dict) and _HANDLER_FIELDS <= row.keys()):
            raise ValueError(f"{path}: malformed handler row {row!r}")
    return doc


def merge_profiles(profiles: typing.Iterable[dict | None]) -> dict | None:
    """Fold several profile documents into one (for sharded sweeps).

    Calls, self/cumulative times, event counts, and collapsed stacks are
    summed per name; ``None`` entries (trials that did not profile) are
    skipped.  Returns ``None`` when nothing profiled.
    """
    merged: dict[str, dict] = {}
    collapsed: dict[str, int] = {}
    events = 0
    seen = False
    for doc in profiles:
        if doc is None:
            continue
        seen = True
        events += int(doc.get("events", 0))
        for row in doc.get("handlers", ()):
            into = merged.setdefault(row["name"], {
                "name": row["name"], "subsystem": row["subsystem"],
                "calls": 0, "self_s": 0.0, "cum_s": 0.0,
            })
            into["calls"] += int(row["calls"])
            into["self_s"] += float(row["self_s"])
            into["cum_s"] += float(row["cum_s"])
        for path, us in doc.get("collapsed", {}).items():
            collapsed[path] = collapsed.get(path, 0) + int(us)
    if not seen:
        return None
    handlers = sorted(merged.values(), key=lambda r: (-r["self_s"], r["name"]))
    return {
        "schema": SCHEMA_VERSION,
        "kind": PROFILE_KIND,
        "events": events,
        "wall_s": sum(r["self_s"] for r in handlers),
        "handlers": handlers,
        "collapsed": dict(sorted(collapsed.items())),
    }


def subsystem_wall_rollup(doc: dict) -> list[dict]:
    """Per-subsystem wall-time rows from one profile document.

    Returns ``{"subsystem", "self_s", "share", "calls", "handlers"}``
    rows sorted by descending self time; shares sum to 1 of the profiled
    wall time.
    """
    total = max(float(doc.get("wall_s", 0.0)), 0.0)
    per: dict[str, dict] = {}
    for row in doc.get("handlers", ()):
        into = per.setdefault(row["subsystem"], {
            "subsystem": row["subsystem"], "self_s": 0.0,
            "calls": 0, "handlers": 0,
        })
        into["self_s"] += float(row["self_s"])
        into["calls"] += int(row["calls"])
        into["handlers"] += 1
    rows = []
    for entry in per.values():
        entry["share"] = entry["self_s"] / total if total > 0 else 0.0
        rows.append(entry)
    rows.sort(key=lambda r: (-r["self_s"], r["subsystem"]))
    return rows
