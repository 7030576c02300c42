"""E8 -- where the partitioning decision flips.

"Some queries may involve performing a lot of computation ... best
solved by [the grid].  Some very frequent queries may require less
computation, but the amount of data transfer required may drain the
energy ... Some queries which fall between ... may be best solved by
[the handheld/base]."

Protocol: sweep the computation size (PDE grid resolution) and the data
size (sensor count) for the complex DISTRIBUTION query; record which
model minimizes estimated response time at each point.  Expected shape:
a crossover frontier -- base-station/centralized wins small problems,
the grid wins once computation dominates, and larger networks (more data
to ship) push the frontier toward local computation.
"""

from repro.core import PervasiveGridRuntime
from repro.queries import parse_query
from repro.queries.models import CentralizedModel, GridOffloadModel, HandheldModel
from repro.queries.targets import select_targets

RESOLUTIONS = (8, 16, 24, 40, 64)
SENSOR_COUNTS = (16, 49, 100)

MODELS = [CentralizedModel(), GridOffloadModel(), HandheldModel()]
QUERY = parse_query("SELECT DISTRIBUTION(value) FROM sensors")


def winner(n_sensors: int, resolution: int):
    runtime = PervasiveGridRuntime(
        n_sensors=n_sensors, area_m=60.0, seed=29, grid_resolution=resolution,
    )
    targets = select_targets(runtime.deployment, QUERY)
    times = {}
    for model in MODELS:
        est = model.estimate(QUERY, runtime.ctx, targets)
        if est.feasible:
            times[model.name] = est.time_s
    best = min(times, key=times.get)
    return best, times


def run_sweep():
    grid = {}
    for n in SENSOR_COUNTS:
        for res in RESOLUTIONS:
            grid[(n, res)] = winner(n, res)
    return grid


def test_e8_crossover_frontier(benchmark, table, once, record):
    grid = once(benchmark, run_sweep)
    rows = []
    for n in SENSOR_COUNTS:
        row = [f"{n} sensors"]
        for res in RESOLUTIONS:
            best, _ = grid[(n, res)]
            row.append(best)
        rows.append(row)
    table(
        "E8: fastest model for the DISTRIBUTION query (computation x data sweep)",
        ["network \\ grid"] + [f"res={r}" for r in RESOLUTIONS],
        rows,
    )
    detail = []
    for res in RESOLUTIONS:
        _, times = grid[(49, res)]
        detail.append([res] + [times.get(m.name, float("nan")) for m in MODELS])
    table(
        "E8 (detail, 49 sensors): estimated turnaround (s) per model",
        ["resolution"] + [m.name for m in MODELS],
        detail,
    )

    for n in SENSOR_COUNTS:
        winners = [grid[(n, res)][0] for res in RESOLUTIONS]
        # small problems stay local, large problems go to the grid
        assert winners[0] in ("centralized", "handheld")
        assert winners[-1] == "grid"
        # the flip happens exactly once along the sweep (clean crossover)
        flips = sum(1 for a, b in zip(winners, winners[1:]) if a != b)
        assert flips == 1
    # the handheld never wins the complex query anywhere
    all_winners = {grid[k][0] for k in grid}
    assert "handheld" not in all_winners

    for n in SENSOR_COUNTS:
        crossover = next(res for res in RESOLUTIONS if grid[(n, res)][0] == "grid")
        record("E8", f"crossover_resolution[{n}]", crossover, unit="points/side",
               direction="either", seed=29, area_m=60.0)
