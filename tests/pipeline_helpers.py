"""Build a small but complete synthetic input set for CLI pipeline tests.

Price and temperature files are contiguous from June 2023 through July 2024
(selection into training/simulation windows happens via the config), so the
ingestion gap rules are satisfied the same way they would be by real
year-round market and weather archives.
"""

import os

import yaml

from coolsched.ingest import (SeriesKind, TimeSeries, parse_timestamp,
                              synth_prices, synth_temperature, write_series)

TRAIN_WINDOW = ["2023-06-01T00:00:00Z", "2023-06-28T23:00:00Z"]
SIM_WINDOW = ["2024-07-15T00:00:00Z", "2024-07-18T23:00:00Z"]
PLANNING_DAY = "2024-07-16"


def write_inputs(root, seed=3):
    start = "2023-06-01T00:00:00Z"
    n = (parse_timestamp("2024-07-20T00:00:00Z") - parse_timestamp(start))
    price = synth_prices(seed, n, start=start)
    temp = synth_temperature(seed + 1, n, start=start)
    write_series(price, os.path.join(root, "price.csv"))
    write_series(temp, os.path.join(root, "temperature.csv"))


def base_config(root, out_dir="out", **overrides):
    doc = {
        "paths": {
            "price_csv": "price.csv",
            "temperature_csv": "temperature.csv",
            "out_dir": out_dir,
        },
        "facility": {
            "slab_thickness_m": 0.4,
            "c_equipment_j_per_degc": 3.0e9,
        },
        "heat_load": {"synth_noise": 0.0},
        "qfr": {"regimes": 2, "daily_harmonics": 2, "seasonal_harmonics": 0},
        "chain": {"alpha": 0.5, "grouping": "single"},
        "mdp": {"theta_step_c": 1.0, "planning_day": PLANNING_DAY},
        "windows": {"train": [TRAIN_WINDOW], "simulate": [SIM_WINDOW]},
        "seed": 3,
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key].update(value)
        else:
            doc[key] = value
    return doc


def write_config(root, doc, name="config.yaml"):
    path = os.path.join(root, name)
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True)
    return path


def make_project(root, **overrides):
    """Inputs plus a config file; returns the config path."""
    write_inputs(root)
    return write_config(root, base_config(root, **overrides))


def read_tree_bytes(out_dir):
    """Every output file's raw bytes, keyed by relative name."""
    found = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            found[name] = fh.read()
    return found
