"""The shared bounded store against the two reference instruments in
``tests/simkernel/oracle.py``: one random script of records, extends
(every spill-state pair), reconfigures and ``ensure_sketch`` calls drives
a production instrument and its reference side by side, and after every
step both must report the same readings, sketch state and cells.
A burst records past a full ring and then takes one reading first, so a
reading that forgets to fold, or a fold that takes the wrong raw
entries, shows.
Monitors built on each then merge to the same ``summary()`` and
``footprint()``, and merging pickled monitors keeps the sketches of the
concatenated streams."""

import pickle

from hypothesis import given, settings, strategies as st

from repro.observability.sketch import TelemetryConfig
from repro.simkernel.monitor import Histogram, Monitor, TimeSeries
from tests.simkernel.oracle import ReferenceHistogram, ReferenceMonitor, ReferenceTimeSeries

#: Small caps, so scripts spill, shrink and grow the rings often.
CAPS = (None, 1, 2, 3, 5, 8)
QUANTILES = (0.0, 25.0, 50.0, 95.0, 99.0, 100.0)

values = st.one_of(st.sampled_from((0.0, 1.0, -1.0, 2.5)),
                   st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False))
times = st.floats(0.0, 900.0, allow_nan=False)
samples = st.tuples(times, values)
caps = st.sampled_from(CAPS)
#: Single readings taken first after a burst, before anything else reads
#: (and so folds) the instrument.
PROBES = {
    "len": len,
    "dropped": lambda inst: inst.dropped,
    "cells": lambda inst: inst.cells,
    "sketch": lambda inst: None if inst.sketch is None else inst.sketch.state(),
    "mean": lambda inst: inst.mean(),
    "p95": lambda inst: inst.percentile(95),
    "pickle": lambda inst: reading(pickle.loads(pickle.dumps(inst)),
                                   hasattr(inst, "record")),
}
step = st.one_of(
    st.tuples(st.just("add"), samples),
    st.tuples(st.just("add_many"), st.lists(samples, max_size=12)),
    # past a full ring (every cap but None) between two reads
    st.tuples(st.just("burst"), st.lists(samples, min_size=9, max_size=20),
              st.sampled_from(sorted(PROBES))),
    st.tuples(st.just("extend"), st.lists(samples, max_size=12), caps, st.booleans()),
    st.tuples(st.just("reconfigure"), caps),
    st.tuples(st.just("ensure_sketch")),
)


def reading(inst, series):
    """Everything the instrument reports, as an exact, nan-safe repr."""
    sketch = inst.sketch
    out = [len(inst), inst.values.tolist(), inst.dropped, inst.cells,
           inst.mean(), inst.max(), [inst.percentile(q) for q in QUANTILES],
           None if sketch is None else sketch.state()]
    if series:
        out += [inst.times.tolist(), inst.total(), inst.last()]
    else:
        out += [inst.sum, inst.last]
    return repr(out)


def add(inst, sample, series):
    if series:
        inst.record(*sample)
    else:
        inst.observe(sample[1])


def built(cls, batch, cap, spill, series):
    inst = cls("donor", max_raw=cap)
    for sample in batch:
        add(inst, sample, series)
    if spill:
        inst.ensure_sketch()
    return inst


def drive(store, ref, script, series):
    assert reading(store, series) == reading(ref, series)
    for op, *args in script:
        if op == "add":
            add(store, args[0], series)
            add(ref, args[0], series)
        elif op == "add_many":
            for sample in args[0]:
                add(store, sample, series)
                add(ref, sample, series)
        elif op == "burst":
            for sample in args[0]:
                add(store, sample, series)
                add(ref, sample, series)
            probe = PROBES[args[1]]
            assert repr(probe(store)) == repr(probe(ref)), args[1]
        elif op == "extend":
            store.extend(built(type(store), *args, series))
            ref.extend(built(type(ref), *args, series))
        elif op == "reconfigure":
            store.reconfigure(max_raw=args[0])
            ref.reconfigure(args[0])
        else:
            store.ensure_sketch()
            ref.ensure_sketch()
        assert reading(store, series) == reading(ref, series), op


@settings(max_examples=150, deadline=None)
@given(caps, st.lists(step, max_size=25))
def test_histogram_matches_reference(cap, script):
    drive(Histogram("h", max_raw=cap), ReferenceHistogram("h", max_raw=cap),
          script, series=False)


@settings(max_examples=150, deadline=None)
@given(caps, st.lists(step, max_size=25))
def test_series_matches_reference(cap, script):
    drive(TimeSeries("s", max_raw=cap), ReferenceTimeSeries("s", max_raw=cap),
          script, series=True)


NAMES = ("a", "b")
records = st.lists(st.tuples(st.booleans(), st.sampled_from(NAMES), samples), max_size=40)


def fill(monitor, cap, script):
    monitor.configure(TelemetryConfig(histogram_max_raw=cap, series_max_raw=cap))
    for is_series, name, (t, v) in script:
        if is_series:
            monitor.series(name).record(t, v)
        else:
            monitor.histogram(name).observe(v)
    return monitor


@settings(max_examples=100, deadline=None)
@given(caps, st.lists(st.tuples(caps, records), min_size=1, max_size=4))
def test_merged_monitors_match_reference(cap, worlds):
    mine = fill(Monitor(), cap, [])
    theirs = fill(ReferenceMonitor(), cap, [])
    for world_cap, script in worlds:
        mine.merge(fill(Monitor(), world_cap, script))
        theirs.merge(fill(ReferenceMonitor(), world_cap, script))
    assert repr(mine.summary()) == repr(theirs.summary())
    assert mine.footprint() == theirs.footprint()


#: Integral values: every summation order gives the same sum, so a merged
#: sketch must equal the whole stream's sketch bit for bit.
integral = st.integers(-2 ** 20, 2 ** 20).map(float)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CAPS[1:]),
       st.lists(st.lists(st.tuples(times, integral), max_size=20), min_size=1, max_size=4))
def test_merged_pickled_monitors_keep_the_sketch_of_the_whole_stream(cap, streams):
    config = TelemetryConfig(histogram_max_raw=cap, series_max_raw=cap)
    whole, merged = Monitor().configure(config), Monitor().configure(config)
    for stream in streams:
        part = Monitor().configure(config)
        for monitor in (whole, part):
            for t, v in stream:
                monitor.histogram("h").observe(v)
                monitor.series("s").record(t, v)
        merged.merge(pickle.loads(pickle.dumps(part)))
    for want, got in ((whole.histogram("h"), merged.histogram("h")),
                      (whole.series("s"), merged.series("s"))):
        want.ensure_sketch()
        got.ensure_sketch()
        assert got.dropped == want.dropped
        assert got.sketch.state() == want.sketch.state()
        assert got.cells == want.cells
