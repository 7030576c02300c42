"""E9 -- network lifetime under continuous queries.

"In sensor networks, preserving the energy of the sensors is of prime
importance." + the EPOCH clause: continuous queries run for hours; the
execution model determines how long the network survives.

Protocol: tiny batteries, a continuous AVG query with a 10 s epoch, run
until the network can no longer serve it, per execution model.  We
report epochs answered and epochs completed before the first sensor
death.  (The other standard lifetime definition, half the sensors dead,
is never reached: the network partitions around the base station first,
with 4 to 19 of the 49 sensors dead.)  Expected shape: in-network
aggregation (tree) lasts a multiple of raw shipping (centralized/grid);
clustering sits between (head duty rotates, spreading the drain).
"""

import math

from repro.core import PervasiveGridRuntime, StaticPolicy

MODELS = ("centralized", "tree", "cluster", "region")
BATTERY_J = 0.02
QUERY = "SELECT AVG(value) FROM sensors EPOCH DURATION 10 FOR 20000"


def run_until_death(model_name: str):
    runtime = PervasiveGridRuntime(
        n_sensors=49, area_m=60.0, seed=19, policy=StaticPolicy(model_name),
        battery_j=BATTERY_J, grid_resolution=16,
    )
    dep = runtime.deployment
    epochs_done = 0
    first_death_epoch = None

    def on_epoch(outcome):
        nonlocal epochs_done, first_death_epoch
        if outcome.success and outcome.model == model_name:
            epochs_done += 1
        if first_death_epoch is None and dep.dead_sensor_count() >= 1:
            first_death_epoch = epochs_done

    done = []
    runtime.submit(QUERY, done.append, on_epoch=on_epoch)
    while not done:
        if not runtime.sim.step():
            break
    return {
        "epochs": epochs_done,
        "first_death": first_death_epoch,
        "mean_residual": dep.min_sensor_fraction_remaining(),
    }


def run_sweep():
    return {name: run_until_death(name) for name in MODELS}


def test_e9_network_lifetime(benchmark, table, once, record):
    stats = once(benchmark, run_sweep)
    rows = []
    for name in MODELS:
        s = stats[name]
        rows.append([
            name,
            s["epochs"],
            s["first_death"] if s["first_death"] is not None else ">cap",
        ])
    table(
        f"E9: continuous AVG query, {BATTERY_J*1e3:.0f} mJ batteries -- lifetime in epochs",
        ["model", "epochs run", "first death"],
        rows,
        fmt="{:>14}",
    )

    first = {name: (stats[name]["first_death"] or 10**9) for name in MODELS}
    epochs = {name: stats[name]["epochs"] for name in MODELS}
    # the TAG claim: in-network aggregation lengthens network lifetime.
    # "epochs run" counts epochs answered before the network could no
    # longer serve the query -- the useful-lifetime metric.
    assert first["tree"] > 2 * first["centralized"]
    assert epochs["tree"] > 3 * epochs["centralized"]
    # every in-network variant beats raw shipping
    assert epochs["cluster"] > epochs["centralized"]
    assert epochs["region"] > epochs["centralized"]
    assert first["cluster"] > first["centralized"]

    params = dict(seed=19, n_sensors=49, battery_j=BATTERY_J)
    for name in MODELS:
        death = stats[name]["first_death"]
        record("E9", f"epochs[{name}]", epochs[name], unit="epochs",
               direction="higher", **params)
        record("E9", f"first_death[{name}]", math.nan if death is None else death,
               unit="epochs", direction="higher", **params)
    record("E9", "epochs_ratio[tree/centralized]", epochs["tree"] / epochs["centralized"],
           direction="higher", **params)
