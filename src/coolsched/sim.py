"""Trace-driven rollout of a controller against aligned hourly traces.

The simulator drives the exponential thermal model with the controller's
actions, charging energy at realized prices (not regime representatives)
and tracking degree-hour violations of the safety band. Controllers are
deterministic, so a rollout depends on its inputs alone.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .ingest import AlignedDataset, format_timestamp
from .mdp import CostSpec, StateSpace, quantize
from .qfr import RegimeModel, classify_series
from .thermal import (ChillerSpec, FacilitySpec, HeatLoadSpec, capacitance,
                      cooling_energy, heat_load, step_temperature)


@dataclass
class SimSpecs:
    """Physical and accounting parameters shared by all controllers."""

    facility: FacilitySpec
    chiller: ChillerSpec
    heat: HeatLoadSpec
    cost: CostSpec
    dt: float = 3600.0
    regime_model: RegimeModel = None  # optional, labels rows with regimes
    space: StateSpace = None          # optional, labels rows with grid bins

    @property
    def c_heat(self) -> float:
        return capacitance(self.facility)

    @property
    def gamma_env(self) -> float:
        return self.facility.gamma_env


@dataclass
class Trajectory:
    """Hour-by-hour record of one simulated window."""

    controller: str
    hours: np.ndarray            # absolute hour index
    theta: np.ndarray            # continuous indoor degC at decision time
    theta_index: np.ndarray      # planning-grid bin (-1 if no grid given)
    regime: np.ndarray           # price regime (0 if no model given)
    price: np.ndarray            # realized $/MWh
    action: np.ndarray           # chillers run during the hour
    energy_kwh: np.ndarray
    energy_cost: np.ndarray      # energy_kwh * price / 1000
    violation_under: np.ndarray  # degC below t_min after the step
    violation_over: np.ndarray   # degC above t_max after the step

    def __len__(self):
        return len(self.hours)

    COLUMNS = ("timestamp", "theta", "theta_index", "regime", "price",
               "action", "energy_kwh", "energy_cost", "violation_under",
               "violation_over")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.COLUMNS)
            for i in range(len(self)):
                writer.writerow([
                    format_timestamp(self.hours[i]),
                    repr(float(self.theta[i])),
                    int(self.theta_index[i]),
                    int(self.regime[i]),
                    repr(float(self.price[i])),
                    int(self.action[i]),
                    repr(float(self.energy_kwh[i])),
                    repr(float(self.energy_cost[i])),
                    repr(float(self.violation_under[i])),
                    repr(float(self.violation_over[i])),
                ])


def rollout(controller, dataset: AlignedDataset, specs: SimSpecs,
            initial_theta: float = None) -> Trajectory:
    """Simulate `controller` over the dataset window, one decision per hour.

    Temperature evolves continuously; quantization happens only inside
    policy lookups and the optional theta_index label.
    """
    n = dataset.n
    if initial_theta is None:
        initial_theta = 0.5 * (specs.cost.t_min + specs.cost.t_max)

    if specs.regime_model is not None:
        regimes = classify_series(specs.regime_model, dataset.hours, dataset.price)
    else:
        regimes = np.zeros(n, dtype=np.int64)

    theta = np.empty(n)
    theta_index = np.full(n, -1, dtype=np.int64)
    action = np.empty(n, dtype=np.int64)
    energy = np.empty(n)
    viol_under = np.empty(n)
    viol_over = np.empty(n)

    current = float(initial_theta)
    for t in range(n):
        q = heat_load(specs.heat, dataset.workload[t])
        a = controller.action(int(dataset.hours[t]), current,
                              float(dataset.price[t]),
                              float(dataset.temperature[t]), q)
        theta[t] = current
        if specs.space is not None:
            theta_index[t] = quantize(current, specs.space)
        action[t] = a
        energy[t] = cooling_energy(specs.chiller, a,
                                   float(dataset.temperature[t]), specs.dt)
        current = step_temperature(current, float(dataset.temperature[t]), q,
                                   a, specs.chiller.eta, specs.gamma_env,
                                   specs.c_heat, specs.dt)
        viol_under[t] = max(0.0, specs.cost.t_min - current)
        viol_over[t] = max(0.0, current - specs.cost.t_max)

    return Trajectory(
        controller=getattr(controller, "name", type(controller).__name__),
        hours=dataset.hours.copy(),
        theta=theta,
        theta_index=theta_index,
        regime=regimes,
        price=dataset.price.copy(),
        action=action,
        energy_kwh=energy,
        energy_cost=energy * dataset.price / 1000.0,
        violation_under=viol_under,
        violation_over=viol_over,
    )


@dataclass
class CostReport:
    controller: str
    window: str
    total_energy_kwh: float
    total_energy_cost: float
    total_violation_degree_hours: float
    theta_max: float
    theta_min: float

    def to_dict(self) -> dict:
        return {
            "controller": self.controller,
            "window": self.window,
            "total_energy_kwh": self.total_energy_kwh,
            "total_energy_cost": self.total_energy_cost,
            "total_violation_degree_hours": self.total_violation_degree_hours,
            "theta_max": self.theta_max,
            "theta_min": self.theta_min,
        }


def summarize(trajectory: Trajectory) -> CostReport:
    """Column aggregates of a trajectory."""
    if len(trajectory) == 0:
        raise ValueError("cannot summarize an empty trajectory")
    window = (f"{format_timestamp(trajectory.hours[0])}/"
              f"{format_timestamp(trajectory.hours[-1])}")
    return CostReport(
        controller=trajectory.controller,
        window=window,
        total_energy_kwh=float(np.sum(trajectory.energy_kwh)),
        total_energy_cost=float(np.sum(trajectory.energy_cost)),
        total_violation_degree_hours=float(np.sum(trajectory.violation_under)
                                           + np.sum(trajectory.violation_over)),
        theta_max=float(np.max(trajectory.theta)),
        theta_min=float(np.min(trajectory.theta)),
    )


@dataclass
class ComparisonTable:
    """Per-controller cost relative to a named baseline."""

    baseline: str
    rows: list  # dicts: controller, window, cost, improvement_vs_baseline, ...

    def to_csv(self, path) -> None:
        fields = ["controller", "window", "total_energy_cost",
                  "improvement_vs_baseline", "total_violation_degree_hours"]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            for row in self.rows:
                writer.writerow({k: row[k] for k in fields})

    def to_dict(self) -> dict:
        return {"baseline": self.baseline, "rows": self.rows}


def compare(reports, baseline_name: str) -> ComparisonTable:
    """Relative cost improvement of every report against the baseline.

    Baselines are matched per window so multi-summer comparisons line up.
    """
    base_by_window = {r.window: r for r in reports if r.controller == baseline_name}
    if not base_by_window:
        raise ValueError(f"baseline controller {baseline_name!r} not among reports")
    rows = []
    for report in reports:
        base = base_by_window.get(report.window)
        if base is None:
            raise ValueError(f"no {baseline_name!r} report for window {report.window}")
        base_cost = base.total_energy_cost
        improvement = (0.0 if base_cost == 0
                       else (base_cost - report.total_energy_cost) / base_cost)
        rows.append({
            "controller": report.controller,
            "window": report.window,
            "total_energy_cost": report.total_energy_cost,
            "improvement_vs_baseline": improvement,
            "total_violation_degree_hours": report.total_violation_degree_hours,
        })
    return ComparisonTable(baseline=baseline_name, rows=rows)
