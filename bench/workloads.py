"""The three benchmark workloads and their seeded input files.

Every workload uses the thermally heavy facility of the unit tests (0.4 m
slab, 3e9 J/degC of equipment), so pre-cooling pays, and the paper-scale
model: M=4 regimes, 3 daily + 2 seasonal harmonics, month-grouped chain
with alpha 0.5, a 15-32 degC grid at 0.5 degC (L=35) and 4 chillers (A=5).
They differ in which layer dominates; see bench/README.md.
"""

import os

import yaml

from coolsched.ingest import (format_timestamp, parse_timestamp, synth_prices,
                              synth_temperature, write_series)


def _summer(year):
    return [f"{year}-06-01T00:00:00Z", f"{year}-08-31T23:00:00Z"]


def _midnight(date):
    return parse_timestamp(f"{date}T00:00:00Z")


def _span(first_hour, days):
    """[first, last] timestamps of `days` whole days from an hour index."""
    return [format_timestamp(first_hour),
            format_timestamp(first_hour + 24 * days - 1)]


# archive span (first hour, first hour after the end), config overrides, and
# the input instances a timed run always uses: as many as fit in about 40 s
# when each pipeline runs once, so that a run stays near a minute even when
# the host is slow
WORKLOADS = {
    # paper scale: quantile fits on three summers dominate
    "paper-day": {
        "archive": ("2021-01-01T00:00:00Z", "2025-01-01T00:00:00Z"),
        "train": [_summer(2021), _summer(2022), _summer(2023)],
        "simulate": [_summer(2024)],
        "planning_cycle": "day",
        "instances": 3,
    },
    # the planner over a 48-hour window cycle dominates. The policy planned
    # on the first window is replayed on fourteen more 48-hour windows: the
    # saving on one short window swings with its few price spikes, while
    # rollout stays a few percent of the run
    "window-plan": {
        "archive": ("2023-06-01T00:00:00Z", "2024-09-01T00:00:00Z"),
        "train": [_summer(2023)],
        "simulate": [_span(_midnight("2024-07-15") + 48 * i, 2)
                     for i in range(15)],
        "planning_cycle": "window",
        "instances": 4,
    },
    # three 364-day rollouts dominate; the 2024 window comes first so that
    # export-plot-data finds its trace day in the first window. Training
    # takes the first week of every month of 2023: a summer-only fit
    # extrapolates its seasonal harmonics into winter, where the qfr-mdp
    # saving then swings with the seed (15-37% over seeds 0-9). Run by
    # hand only: it is not in BENCHMARK.json, because its plan time depends
    # on the instance by up to 2.4x (see "Steadiness" in bench/README.md)
    "replay": {
        "archive": ("2021-01-01T00:00:00Z", "2025-01-01T00:00:00Z"),
        "train": [[f"2023-{m:02d}-01T00:00:00Z", f"2023-{m:02d}-07T23:00:00Z"]
                  for m in range(1, 13)],
        "simulate": [_span(_midnight(f"{year}-01-01"), 364)
                     for year in (2024, 2022, 2023)],
        "planning_cycle": "day",
        "instances": 3,
    },
}

PLANNING_DAY = "2024-07-15"
CONTROLLERS = ["fixed-rule", "greedy", "qfr-mdp"]
STAGES = ("fit-qfr", "estimate-chain", "plan", "simulate", "compare",
          "export-plot-data")


def config_doc(name, seed):
    spec = WORKLOADS[name]
    return {
        "paths": {"price_csv": "price.csv", "temperature_csv": "temperature.csv"},
        "facility": {"slab_thickness_m": 0.4, "c_equipment_j_per_degc": 3.0e9},
        "qfr": {"regimes": 4, "daily_harmonics": 3, "seasonal_harmonics": 2},
        "chain": {"alpha": 0.5, "grouping": "month"},
        "mdp": {"theta_min_c": 15.0, "theta_max_c": 32.0, "theta_step_c": 0.5,
                "planning_cycle": spec["planning_cycle"],
                "planning_day": PLANNING_DAY},
        "windows": {"train": spec["train"], "simulate": spec["simulate"]},
        "controllers": CONTROLLERS,
        "seed": seed,
    }


def instance_seed(seed, k):
    """Seed of a run's k-th input instance; instance 0 uses the run's seed."""
    return seed + k * 1_000_003


def write_inputs(name, seed, root):
    """Write price.csv, temperature.csv and config.yaml; return the config path.

    Prices use `seed`, temperatures `seed + 1`, and the config's seed (which
    drives the synthetic heat load and rollout sampling) is `seed`. The
    same (name, seed) always gives byte-identical files.
    """
    start, stop = WORKLOADS[name]["archive"]
    n = parse_timestamp(stop) - parse_timestamp(start)
    os.makedirs(root, exist_ok=True)
    write_series(synth_prices(seed, n, start=start),
                 os.path.join(root, "price.csv"))
    write_series(synth_temperature(seed + 1, n, start=start),
                 os.path.join(root, "temperature.csv"))
    path = os.path.join(root, "config.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config_doc(name, seed), fh, sort_keys=True)
    return path
