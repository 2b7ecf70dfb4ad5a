"""Run configuration: one YAML file with sections.

A run's settings are the file plus the command line's --seed and --out
options, and nothing else. The file merges over the defaults: an unknown
key, a value in place of a section, a non-number where the default is a
number and a non-integer where the default is an integer fail alike,
naming the key. It loads through libyaml's safe loader when PyYAML was
built with it, else through the pure-Python one.

The keys that configure a type are listed in SPEC_FIELDS, each with the
field it sets: the facility, chillers and cost sections, heat_load's
q_base_w and phi_w_per_core, qfr's harmonics and the fixed rule's hours.
Their defaults are the fields' own. Each type is built once, at load, into
a RunConfig field, so its own checks refuse a bad value, and the error
names the section; a regimes.TransitionModel checks chain.alpha and
chain.grouping the same way. The other keys keep their defaults in
DEFAULTS and their range checks in RunConfig.

Windows resolve once, at load, to (first hour, last hour) pairs: each entry
is [start, end] as two quoted ISO timestamps (YAML reads an unquoted one as
a datetime, which is refused), read by `ingest.parse_timestamp`. Train
windows are sorted and must not overlap; a simulate window holds whole
days, and no two simulate windows may start on one UTC day, whose
trajectory files would collide. An explicit mdp.planning_day is parsed at
load as well, so a bad one fails every stage; the derived one (July 15 of
the first simulate window) is checked only when a stage asks for it.
"""

import os
from dataclasses import dataclass, field, fields, replace

import yaml

from .controllers import FixedRuleController
from .ingest import (IngestError, format_timestamp, format_timestamps,
                     parse_timestamp)
from .mdp import CostSpec, StateSpace
from .qfr import REGIME_COUNTS, FourierDesign
from .regimes import TransitionModel
from .thermal import ChillerSpec, FacilitySpec, HeatLoadSpec

_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

KNOWN_CONTROLLERS = ("qfr-mdp", "greedy", "fixed-rule")

# each section whose keys configure one type: the type, and the field that
# each key sets
SPEC_FIELDS = {
    "facility": (FacilitySpec, {
        "floor_area_m2": "floor_area", "ceiling_height_m": "ceiling_height",
        "slab_thickness_m": "slab_thickness", "rho_air": "rho_air",
        "cp_air": "cp_air", "rho_concrete": "rho_concrete",
        "cp_concrete": "cp_concrete", "c_equipment_j_per_degc": "c_equipment",
        "gamma_env_w_per_degc": "gamma_env"}),
    "chillers": (ChillerSpec, {
        "count": "a_max", "eta_w": "eta", "cop_lo_temp_c": "cop_lo_temp",
        "cop_hi_temp_c": "cop_hi_temp", "cop_lo": "cop_lo", "cop_hi": "cop_hi"}),
    "heat_load": (HeatLoadSpec, {"q_base_w": "q_base",
                                 "phi_w_per_core": "phi"}),
    "cost": (CostSpec, {
        "t_min_c": "t_min", "t_max_c": "t_max",
        "lambda_under_per_degc": "lambda_under",
        "lambda_over_per_degc": "lambda_over"}),
    "qfr": (FourierDesign, {"daily_harmonics": "daily_harmonics",
                            "seasonal_harmonics": "seasonal_harmonics"}),
    "fixed_rule": (FixedRuleController, {
        "peak_start": "peak_start", "peak_end": "peak_end",
        "precool_start": "precool_start", "precool_end": "precool_end"}),
}


def _field_defaults(section) -> dict:
    """Each key of a SPEC_FIELDS section with its field's default."""
    cls, keys = SPEC_FIELDS[section]
    default = {f.name: f.default for f in fields(cls)}
    return {key: default[name] for key, name in keys.items()}


DEFAULTS = {
    "paths": {
        "price_csv": None,
        "temperature_csv": None,
        "workload_csv": None,   # null: synthesize from heat_load.synth_*
        "out_dir": "out",
    },
    "facility": _field_defaults("facility"),
    "chillers": _field_defaults("chillers"),
    "heat_load": {
        **_field_defaults("heat_load"),
        "synth_base_cores": 50000,
        "synth_amplitude": 0.4,
        "synth_noise": 0.05,
    },
    "cost": _field_defaults("cost"),
    "qfr": {"regimes": 4, **_field_defaults("qfr")},
    "chain": {
        "alpha": 0.5,
        "grouping": "month",
    },
    "mdp": {
        "theta_min_c": 15.0,
        "theta_max_c": 32.0,
        "theta_step_c": 0.5,
        "planning_cycle": "day",   # "day" or "window"
        "planning_day": None,      # ISO date, e.g. 2024-07-15; default: first
                                   # simulate window's July 15 when present
    },
    "windows": {
        "train": [],
        "simulate": [],
    },
    "fixed_rule": _field_defaults("fixed_rule"),
    "controllers": ["qfr-mdp", "greedy", "fixed-rule"],
    "seed": 0,
}


class ConfigError(ValueError):
    """Configuration file is missing, malformed, or inconsistent."""


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _merge(defaults, override, path):
    """`override` over `defaults`, whose keys are the only ones it may set."""
    merged = dict(defaults)
    for key, value in override.items():
        if key not in defaults:
            raise ConfigError(f"{path}: unknown key {key!r}")
        name = f"{path}.{key}"
        default = defaults[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{name}: expected a section")
            value = _merge(default, value, name)
        elif _is_number(default) and not _is_number(value):
            raise ConfigError(f"{name}: expected a number, got {value!r}")
        elif isinstance(default, int) and not isinstance(value, int):
            raise ConfigError(f"{name}: expected an integer, got {value!r}")
        merged[key] = value
    return merged


def _windows(raw, kind) -> list:
    """windows.<kind> in config order, as (first hour, last hour, text)."""
    entries = raw["windows"][kind]
    if not isinstance(entries, (list, tuple)):
        raise ConfigError(f"windows.{kind} must be a list of [start, end]")
    spans = []
    for entry in entries:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2
                and all(isinstance(end, str) for end in entry)):
            raise ConfigError(f"windows.{kind} entry {entry!r} is not "
                              "[start, end] as two quoted ISO timestamps")
        text = "..".join(entry)
        try:
            first, last = map(parse_timestamp, entry)
        except IngestError as exc:
            raise ConfigError(f"windows.{kind} {text}: {exc}") from None
        if last < first:
            raise ConfigError(f"windows.{kind} {text} ends before it starts")
        spans.append((first, last, text))
    return spans


@dataclass
class RunConfig:
    """Validated configuration; `_validate` sets every field after base_dir,
    the spec objects among them, from the raw document."""

    raw: dict
    base_dir: str = "."
    train_windows: list = field(init=False)     # (first hour, last hour)
    simulate_windows: list = field(init=False)  # pairs
    facility: FacilitySpec = field(init=False)
    chiller: ChillerSpec = field(init=False)
    heat: HeatLoadSpec = field(init=False)
    cost: CostSpec = field(init=False)
    design: FourierDesign = field(init=False)
    fixed_rule: FixedRuleController = field(init=False)  # on the cost band
    space: StateSpace = field(init=False)
    # the cost band inset by half a theta step, for planning only; the inset
    # compensates the half-step quantization error of the policy lookup
    planning_cost: CostSpec = field(init=False)
    # first hour of an explicit mdp.planning_day
    _planning_day: int = field(init=False, repr=False)

    def __post_init__(self):
        self._validate()

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                doc = yaml.load(fh, Loader=_LOADER) or {}
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file {path} is not valid YAML: {exc}") from None
        except ValueError as exc:
            # YAML's date reader refuses an impossible unquoted date
            raise ConfigError(f"config file {path} holds an unquoted date that "
                              f"is not a date ({exc}); quote dates") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {path} must be a mapping")
        return cls(raw=_merge(DEFAULTS, doc, "config"),
                   base_dir=os.path.dirname(os.path.abspath(path)))

    def _build(self, section, *args):
        """The SPEC_FIELDS type of `section`, from its keys and `args`."""
        cls, keys = SPEC_FIELDS[section]
        values = self.raw[section]
        try:
            return cls(*args, **{name: values[key] for key, name in keys.items()})
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from None

    def _validate(self):
        raw = self.raw
        # every spec is built here, once, so bad numbers fail at load
        self.facility = self._build("facility")
        self.chiller = self._build("chillers")
        self.heat = self._build("heat_load")
        self.design = self._build("qfr")
        self.cost = self._build("cost")
        self.fixed_rule = self._build("fixed_rule", self.cost)
        regimes, chain = raw["qfr"]["regimes"], raw["chain"]
        if regimes not in REGIME_COUNTS:
            raise ConfigError(f"qfr.regimes must be in {REGIME_COUNTS[0]}.."
                              f"{REGIME_COUNTS[-1]}, got {regimes}")
        m = raw["mdp"]
        try:
            self.space = StateSpace(theta_min=m["theta_min_c"],
                                    theta_max=m["theta_max_c"],
                                    theta_step=m["theta_step_c"],
                                    m=regimes, a_max=self.chiller.a_max)
        except ValueError as exc:
            raise ConfigError(f"mdp: {exc}") from None
        margin = m["theta_step_c"] / 2.0
        t_min, t_max = self.cost.t_min + margin, self.cost.t_max - margin
        if t_min >= t_max:
            raise ConfigError("band margin leaves no planning band")
        self.planning_cost = replace(self.cost, t_min=t_min, t_max=t_max)
        try:
            TransitionModel(regimes, chain["alpha"], chain["grouping"], {})
        except ValueError as exc:
            raise ConfigError(f"chain: {exc}") from None
        heat = raw["heat_load"]
        for key in ("synth_base_cores", "synth_noise"):
            if heat[key] < 0:
                raise ConfigError(f"heat_load.{key} must be >= 0, got {heat[key]!r}")
        amplitude = heat["synth_amplitude"]
        if not 0 <= amplitude <= 1:
            raise ConfigError(f"heat_load.synth_amplitude must be in [0, 1], got {amplitude!r}")
        if raw["seed"] < 0:
            raise ConfigError(f"seed must be >= 0, got {raw['seed']}")
        names = raw["controllers"]
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise ConfigError(f"controllers must be a list of names, got {names!r}")
        for name in names:
            if name not in KNOWN_CONTROLLERS:
                raise ConfigError(f"unknown controller {name!r}")
            if names.count(name) > 1:
                raise ConfigError(f"controllers lists {name!r} more than once")
        for key, value in raw["paths"].items():
            if not (value is None or isinstance(value, str)):
                raise ConfigError(f"paths.{key} must be a path or null, got {value!r}")
        if raw["mdp"]["planning_cycle"] not in ("day", "window"):
            raise ConfigError("mdp.planning_cycle must be 'day' or 'window'")
        train = sorted(_windows(raw, "train"))
        for (_, last, text), (first, _, later) in zip(train, train[1:]):
            if first <= last:
                raise ConfigError(f"windows.train {text} and {later} overlap")
        simulate = _windows(raw, "simulate")
        start_day = {}
        starts = format_timestamps([first for first, _, _ in simulate])
        for (first, last, text), start in zip(simulate, starts):
            if (last + 1 - first) % 24:
                raise ConfigError(f"windows.simulate {text} is {last + 1 - first}"
                                  " h long, not a whole number of days")
            day = start[:10]
            if day in start_day:
                raise ConfigError(
                    f"windows.simulate {start_day[day]} and {text} both "
                    f"start on {day}; their trajectory files would have the "
                    "same name")
            start_day[day] = text
        self.train_windows = [(first, last) for first, last, _ in train]
        self.simulate_windows = [(first, last) for first, last, _ in simulate]
        day = raw["mdp"]["planning_day"]
        try:
            self._planning_day = (None if day is None
                                  else parse_timestamp(f"{day}T00:00:00Z"))
        except IngestError:
            raise ConfigError(f"mdp.planning_day {day!r} is not a "
                              "YYYY-MM-DD date") from None

    def require_windows(self, kind) -> list:
        """`train_windows` or `simulate_windows`; raises ConfigError when
        the config defines none."""
        windows = getattr(self, f"{kind}_windows")
        if not windows:
            raise ConfigError(f"config defines no windows.{kind}")
        return windows

    @property
    def planning_day(self) -> int:
        """First hour (midnight UTC) of the day a day-cycle plan covers:
        mdp.planning_day, else July 15 of the first simulate window, which
        must hold that whole day."""
        if self._planning_day is not None:
            return self._planning_day
        if not self.simulate_windows:
            raise ConfigError(
                "mdp.planning_day is not set and there is no simulate window "
                "to derive it from")
        start, end = self.simulate_windows[0]
        year = format_timestamp(start)[:4]
        derived = parse_timestamp(f"{year}-07-15T00:00:00Z")
        if not start <= derived <= end - 23:
            raise ConfigError(
                "derived planning day July 15 is outside the first simulate "
                "window; set mdp.planning_day explicitly")
        return derived

    def path(self, key):
        value = self.raw["paths"][key]
        if value is None:
            return None
        return value if os.path.isabs(value) else os.path.join(self.base_dir, value)

    def require_path(self, key):
        value = self.path(key)
        if value is None:
            raise ConfigError(f"paths.{key} is required for this command")
        if key != "out_dir" and not os.path.exists(value):
            raise ConfigError(f"paths.{key}: file not found: {value}")
        return value

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])
