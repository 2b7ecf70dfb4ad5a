"""Trace-driven rollout of a controller against aligned hourly traces.

The simulator drives the exponential thermal model with the controller's
actions, charging energy at realized prices (not regime representatives)
and tracking degree-hour violations of the safety band.

A simulated window is stated once, as a `Window`, whatever the number of
controllers rolled out on it: `Window.of` takes its hours and realized
prices, labels them with the regime model in one `classify_series` call,
and builds the plant's thermal.step_table from its traces, as the planner
does for its cycle. `rollout` hands the window to the controller's
start(window), and then asks action(t, theta) once per hour t. The same
step table drives the controllers' searches, the rollout's own thermal
steps and its energy, so each hour is one action, one table read and one
relaxation step. Controllers are deterministic, so a rollout depends on its
inputs alone.

A `Trajectory` refers to its window for the hours, prices and regime
labels, and `Trajectory.to_csv` takes their text from the window, which
formats it once for all its trajectories.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .artifacts import write_csv
from .ingest import AlignedDataset, format_timestamp, format_timestamps
from .mdp import CostSpec, StateSpace, quantize
from .qfr import RegimeModel, classify_series
from .thermal import ChillerSpec, FacilitySpec, HeatLoadSpec, step_table
# Not called here: the rollout steps through the equilibrium table. The name
# stays because bench/layertrace.py counts thermal steps as sim.step_temperature.
from .thermal import step_temperature  # noqa: F401


@dataclass
class SimSpecs:
    """Physical and accounting parameters shared by all controllers."""

    facility: FacilitySpec
    chiller: ChillerSpec
    heat: HeatLoadSpec
    cost: CostSpec
    space: StateSpace                 # labels rows with grid bins
    regime_model: RegimeModel = None  # optional, labels rows with regimes


def _ints(values) -> list:
    return list(map(str, np.asarray(values).astype(np.int64).tolist()))


def _floats(values) -> list:
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


@dataclass
class Window:
    """One simulated window, as every controller rolled out on it sees it;
    hour t is row t.

    equilibria[t][a] is the temperature the room relaxes toward with `a`
    chillers at hour t, so eq + (theta - eq) * decay is step_temperature,
    and kwh[t, a] is that hour's energy. All three come from one
    thermal.step_table; Python rows keep the per-hour reads cheap.
    """

    hours: np.ndarray   # absolute hour index
    price: np.ndarray   # realized $/MWh
    regime: np.ndarray  # price regime (0 if no model given)
    equilibria: list    # n rows of a_max + 1 floats, degC
    decay: float        # thermal.decay_factor of the facility
    kwh: np.ndarray     # (n, a_max + 1) energy of each chiller count

    @classmethod
    def of(cls, dataset: AlignedDataset, specs: SimSpecs) -> "Window":
        """The window of `dataset` under `specs`. Raises ValueError on
        negative workload cores."""
        if specs.regime_model is not None:
            regime = classify_series(specs.regime_model, dataset.hours,
                                     dataset.price)
        else:
            regime = np.zeros(dataset.n, dtype=np.int64)
        plant = step_table(specs.facility, specs.chiller, specs.heat,
                           dataset.temperature, dataset.workload)
        return cls(hours=dataset.hours.copy(), price=dataset.price.copy(),
                   regime=regime, equilibria=plant.equilibria.tolist(),
                   decay=plant.decay, kwh=plant.kwh)

    # the text of the columns all trajectories of the window share
    @cached_property
    def timestamp_text(self) -> list:
        return format_timestamps(self.hours)

    @cached_property
    def regime_text(self) -> list:
        return _ints(self.regime)

    @cached_property
    def price_text(self) -> list:
        return _floats(self.price)


@dataclass
class Trajectory:
    """Hour-by-hour record of one controller on one simulated window."""

    controller: str
    window: Window               # hours, prices and regime labels
    theta: np.ndarray            # continuous indoor degC at decision time
    theta_index: np.ndarray      # planning-grid bin
    action: np.ndarray           # chillers run during the hour
    energy_kwh: np.ndarray
    energy_cost: np.ndarray      # energy_kwh * price / 1000
    violation_under: np.ndarray  # degC below t_min after the step
    violation_over: np.ndarray   # degC above t_max after the step

    @property
    def hours(self) -> np.ndarray:
        return self.window.hours

    @property
    def regime(self) -> np.ndarray:
        return self.window.regime

    @property
    def price(self) -> np.ndarray:
        return self.window.price

    def __len__(self):
        return len(self.hours)

    COLUMNS = ("timestamp", "theta", "theta_index", "regime", "price",
               "action", "energy_kwh", "energy_cost", "violation_under",
               "violation_over")

    def to_csv(self, path) -> None:
        """One row per hour; floats as their shortest round-trip repr, ints
        as str. The timestamp, regime and price text is the window's."""
        window = self.window
        write_csv(path, self.COLUMNS, [
            window.timestamp_text, _floats(self.theta),
            _ints(self.theta_index), window.regime_text, window.price_text,
            _ints(self.action), _floats(self.energy_kwh),
            _floats(self.energy_cost), _floats(self.violation_under),
            _floats(self.violation_over)])


def rollout(controller, window: Window, specs: SimSpecs,
            initial_theta: float = None) -> Trajectory:
    """Simulate `controller` over `window`, one decision per hour.

    Temperature evolves continuously; quantization happens only inside
    policy lookups and the theta_index label. Raises ValueError on
    an action outside 0..a_max.
    """
    n = len(window.hours)
    if initial_theta is None:
        initial_theta = 0.5 * (specs.cost.t_min + specs.cost.t_max)

    a_max = specs.chiller.a_max
    decay = window.decay
    controller.start(window)
    act = controller.action
    current = float(initial_theta)
    theta = [current]   # theta[t] at decision t, theta[n] after the window
    action = []
    for t, row in enumerate(window.equilibria):
        a = act(t, current)
        if not 0 <= a <= a_max:
            raise ValueError(f"{getattr(controller, 'name', controller)} "
                             f"returned action {a}; a must be in 0..{a_max}")
        action.append(a)
        eq = row[a]
        current = eq + (current - eq) * decay   # step_temperature
        theta.append(current)

    theta = np.array(theta)
    after = theta[1:]
    action = np.array(action, dtype=np.int64)
    energy = window.kwh[np.arange(n), action]
    return Trajectory(
        controller=getattr(controller, "name", type(controller).__name__),
        window=window,
        theta=theta[:-1],
        theta_index=quantize(theta[:-1], specs.space),
        action=action,
        energy_kwh=energy,
        energy_cost=energy * window.price / 1000.0,
        violation_under=np.maximum(0.0, specs.cost.t_min - after),
        violation_over=np.maximum(0.0, after - specs.cost.t_max),
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
        # str is what csv.writer writes for a str and a float alike
        write_csv(path, fields, [[str(row[k]) for row in self.rows]
                                 for k in fields])


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
