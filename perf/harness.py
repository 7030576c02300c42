"""Run one workload for a time budget and report its metrics.

``python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1``

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off.  With ``--trace 1`` every episode runs twice on the same seed, once
plain and once with the :mod:`perf.layers` wrappers installed; the
traced copy gives the per-layer metrics, the pair gives the tracing
overhead, and the folded call tree is written to
``perf/out/<workload>.layers.json``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import time
import typing

import numpy as np

from perf.layers import LayerTracer, op_metrics
from perf.workloads import WORKLOADS, Episode, Meter, episode_seed

PERF_DIR = pathlib.Path(__file__).resolve().parent
REFERENCE_FILE = PERF_DIR / "reference_digests.json"

#: ``(name, unit, better)`` of the end-to-end metrics, measured untraced.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p99", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: ``(name, unit, better)`` of the per-layer metrics of the traced pass.
PER_LAYER = tuple(op_metrics()) + (
    ("wms.queue_wait_p99_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
)


class Run(typing.NamedTuple):
    result: dict          # the final JSON line
    lines: list[str]      # the human-readable report


def _episodes(workload, seed: int, seconds: float, meter: Meter,
              traced: Meter | None) -> tuple[list[Episode], list[Episode], list[str]]:
    """Run episodes until ``seconds`` have passed (at least one)."""
    plain: list[Episode] = []
    shadow: list[Episode] = []
    errors: list[str] = []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        s = episode_seed(seed, len(plain))
        plain.append(workload.episode(s, meter))
        # one episode's world must not be collected inside the next
        # episode's timed calls
        gc.collect()
        if traced is not None:
            with traced.tracer.installed():
                shadow.append(workload.episode(s, traced))
            gc.collect()
            if shadow[-1].digest != plain[-1].digest:
                errors.append(f"episode {len(plain) - 1}: tracing changed the output")
    return plain, shadow, errors


def _reference(workload: str, seed: int, digest: str) -> str:
    """Whether ``digest`` matches the stored default-seed reference."""
    ref = json.loads(REFERENCE_FILE.read_text())
    if ref["seed"] != seed:
        return f"reference is for seed {ref['seed']}"
    expected = ref["digests"].get(workload)
    if expected is None:
        return "no reference"
    return "matches reference" if expected == digest else "differs from reference"


def measure(workload, seed: int, seconds: float, trace: bool,
            out_dir: pathlib.Path | None = None) -> Run:
    """One benchmark run of ``workload``; see the module docstring."""
    meter = Meter()
    traced = Meter(LayerTracer()) if trace else None
    episodes, shadow, errors = _episodes(workload, seed, seconds, meter, traced)
    attempted = sum(ep.attempted for ep in episodes)
    failed = sum(ep.failed for ep in episodes) + len(errors)
    for k, ep in enumerate(episodes):
        errors += [f"episode {k}: {e}" for e in ep.errors]
    name = workload.name
    lines = []

    def line(metric: str, value: float, unit: str, note: str) -> None:
        lines.append(f"{name:<16} {metric:<36} {value:>14.6g} {unit:<6} {note}")

    if not trace:
        setups = meter.setup_s
        samples = meter.samples_ms
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": meter.ops / meter.host_s,
            "op_ms_p50": float(np.percentile(samples, 50)),
            "op_ms_p99": float(np.percentile(samples, 99)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        notes = {
            "setup_s": f"median of {len(setups)} set-ups",
            "ops_per_s": f"{meter.ops} ops in {meter.host_s:.3f} s host, "
                         f"{len(episodes)} episodes",
            "op_ms_p50": f"n={len(samples)}",
            "op_ms_p99": f"n={len(samples)}",
            "peak_rss_mb": "ru_maxrss",
        }
        for metric, unit, _ in END_TO_END:
            line(metric, values[metric], unit, notes[metric])
        first = episodes[0]
        for metric, (value, unit, n) in first.outcome.items():
            line(metric, value, unit, f"n={n}, episode 0")
        line("failed_ratio", failed / max(attempted, 1), "1", f"{failed} of {attempted}")
        lines.append(f"{name:<16} output_digest {first.digest} "
                     f"({_reference(name, seed, first.digest)})")
        metrics = {m: {"value": values[m], "unit": u} for m, u, _ in END_TO_END}
    else:
        tracer = traced.tracer
        values = tracer.metrics()
        values.update({m: 0.0 for m, _, _ in PER_LAYER if m not in values})
        values.update(shadow[0].layer)
        values["trace.overhead_ratio"] = traced.host_s / meter.host_s
        values["trace.unattributed_share"] = tracer.unattributed_ns() / tracer.wall_ns
        shares = sum(v for m, v in values.items() if m.endswith(".self_share"))
        for metric, unit, _ in PER_LAYER:
            line(metric, values[metric], unit, "")
        lines.append(f"{name:<16} self shares + unattributed = "
                     f"{shares + values['trace.unattributed_share']:.6f} of the traced wall")
        for dotted in tracer.missing:
            lines.append(f"{name:<16} missing {dotted}")
        out_dir = out_dir if out_dir is not None else PERF_DIR / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}.layers.json").write_text(json.dumps({
            "workload": name, "seed": seed, "episodes": len(shadow),
            "wall_ns": tracer.wall_ns,
            "overhead_ratio": values["trace.overhead_ratio"],
            "unattributed_share": values["trace.unattributed_share"],
            "missing": tracer.missing, "tree": tracer.folded(),
        }, indent=1))
        metrics = {m: {"value": values[m], "unit": u} for m, u, _ in PER_LAYER}
    for error in errors:
        lines.append(f"{name:<16} CHECK FAILED {error}")
    result = {"correct": not errors and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return Run(result, lines)


def main(argv: typing.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perf/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for text in run.lines:
        print(text)
    print(json.dumps(run.result))
    return 0
