"""Run configuration: one YAML file with sections, env-var overrides.

Environment variables prefixed COOLSCHED_ override file values for CI
sweeps, e.g. COOLSCHED_QFR__REGIMES=8 sets qfr.regimes. Values are parsed
as YAML scalars and merge over the file as the file merges over the
defaults, so an unknown key, a value in place of a section and a non-number
where the default is a number fail alike, naming the key. The file and the
values load through libyaml's safe loader when PyYAML was built with it,
else through the pure-Python one.

Windows resolve once, at load, to (first hour, last hour) pairs: each entry
is [start, end] as two quoted ISO timestamps (YAML reads an unquoted one as
a datetime, which is refused); train windows are sorted and must not
overlap, and no two simulate windows may start on one UTC day, whose
trajectory files would collide. An explicit mdp.planning_day is parsed at
load as well, so a bad one fails every stage; the derived one (July 15 of
the first simulate window) is checked only when a stage asks for it.
"""

import os
from dataclasses import dataclass, field

import yaml

from .ingest import IngestError, format_timestamp, parse_timestamp
from .mdp import CostSpec, StateSpace
from .qfr import FourierDesign
from .regimes import GROUPINGS
from .thermal import ChillerSpec, FacilitySpec, HeatLoadSpec

ENV_PREFIX = "COOLSCHED_"

_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

KNOWN_CONTROLLERS = ("qfr-mdp", "greedy", "fixed-rule")

DEFAULTS = {
    "paths": {
        "price_csv": None,
        "temperature_csv": None,
        "workload_csv": None,   # null: synthesize from heat_load.synth_*
        "out_dir": "out",
    },
    "facility": {
        "floor_area_m2": 3000.0,
        "ceiling_height_m": 4.0,
        "slab_thickness_m": 0.2,
        "rho_air": 1.204,
        "cp_air": 1005.0,
        "rho_concrete": 2300.0,
        "cp_concrete": 880.0,
        "c_equipment_j_per_degc": 4.0e7,
        "gamma_env_w_per_degc": 10000.0,
    },
    "chillers": {
        "count": 4,
        "eta_w": 1.25e6,
        "cop_lo_temp_c": 15.0,
        "cop_hi_temp_c": 40.0,
        "cop_lo": 5.0,
        "cop_hi": 2.5,
    },
    "heat_load": {
        "q_base_w": 1.0e6,
        "phi_w_per_core": 10.0,
        "synth_base_cores": 50000,
        "synth_amplitude": 0.4,
        "synth_noise": 0.05,
    },
    "cost": {
        "t_min_c": 18.0,
        "t_max_c": 27.0,
        "lambda_under_per_degc": 1000.0,
        "lambda_over_per_degc": 1000.0,
    },
    "qfr": {
        "regimes": 4,
        "daily_harmonics": 3,
        "seasonal_harmonics": 2,
    },
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
    "fixed_rule": {
        "peak_start": 16,
        "peak_end": 19,
        "precool_start": 2,
        "precool_end": 4,
    },
    "controllers": ["qfr-mdp", "greedy", "fixed-rule"],
    "seed": 0,
}


class ConfigError(ValueError):
    """Configuration file is missing, malformed, or inconsistent."""


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _merge(base, override, path):
    merged = dict(base)
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"{path}: unknown key {key!r}")
        name = f"{path}.{key}"
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{name}: expected a section")
            value = _merge(base[key], value, name)
        elif _is_number(base[key]) and not _is_number(value):
            raise ConfigError(f"{name}: expected a number, got {value!r}")
        merged[key] = value
    return merged


def _env_overrides(environ):
    """Each COOLSCHED_<SECTION>__<KEY> variable as a nested document."""
    for name, raw in sorted(environ.items()):
        if name.startswith(ENV_PREFIX):
            try:
                value = yaml.load(raw, Loader=_LOADER)
            except (yaml.YAMLError, ValueError):
                # a malformed value, or an impossible unquoted date such as
                # 2024-13-01: kept as text for _validate to name its key
                value = raw
            for part in reversed(name[len(ENV_PREFIX):].lower().split("__")):
                value = {part: value}
            yield value


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
    """Validated configuration with spec objects built from the raw document."""

    raw: dict
    base_dir: str = "."
    train_windows: list = field(init=False)     # (first hour, last hour)
    simulate_windows: list = field(init=False)  # pairs, set at validation
    # first hour of an explicit mdp.planning_day, set at validation
    _planning_day: int = field(init=False, repr=False)

    def __post_init__(self):
        self._validate()

    @classmethod
    def from_file(cls, path, environ=None) -> "RunConfig":
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
        merged = _merge(DEFAULTS, doc, "config")
        environ = os.environ if environ is None else environ
        for override in _env_overrides(environ):
            merged = _merge(merged, override, "env")
        return cls(raw=merged, base_dir=os.path.dirname(os.path.abspath(path)))

    def _validate(self):
        raw = self.raw
        try:
            # build every derived spec once so bad numbers fail here, not mid-run
            _ = (self.facility, self.chiller, self.heat, self.cost, self.space,
                 self.design, self.planning_cost)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for name in raw["controllers"]:
            if name not in KNOWN_CONTROLLERS:
                raise ConfigError(f"unknown controller {name!r}")
        if raw["chain"]["grouping"] not in GROUPINGS:
            raise ConfigError(f"unknown chain grouping {raw['chain']['grouping']!r}")
        if raw["mdp"]["planning_cycle"] not in ("day", "window"):
            raise ConfigError("mdp.planning_cycle must be 'day' or 'window'")
        train = sorted(_windows(raw, "train"))
        for (_, last, text), (first, _, later) in zip(train, train[1:]):
            if first <= last:
                raise ConfigError(f"windows.train {text} and {later} overlap")
        simulate = _windows(raw, "simulate")
        start_day = {}
        for first, _, text in simulate:
            day = format_timestamp(first)[:10]
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
    def facility(self) -> FacilitySpec:
        f = self.raw["facility"]
        return FacilitySpec(
            floor_area=f["floor_area_m2"], ceiling_height=f["ceiling_height_m"],
            slab_thickness=f["slab_thickness_m"], rho_air=f["rho_air"],
            cp_air=f["cp_air"], rho_concrete=f["rho_concrete"],
            cp_concrete=f["cp_concrete"],
            c_equipment=f["c_equipment_j_per_degc"],
            gamma_env=f["gamma_env_w_per_degc"],
        )

    @property
    def chiller(self) -> ChillerSpec:
        c = self.raw["chillers"]
        return ChillerSpec(a_max=c["count"], eta=c["eta_w"],
                           cop_lo_temp=c["cop_lo_temp_c"],
                           cop_hi_temp=c["cop_hi_temp_c"],
                           cop_lo=c["cop_lo"], cop_hi=c["cop_hi"])

    @property
    def heat(self) -> HeatLoadSpec:
        h = self.raw["heat_load"]
        return HeatLoadSpec(q_base=h["q_base_w"], phi=h["phi_w_per_core"])

    @property
    def cost(self) -> CostSpec:
        c = self.raw["cost"]
        return CostSpec(t_min=c["t_min_c"], t_max=c["t_max_c"],
                        lambda_under=c["lambda_under_per_degc"],
                        lambda_over=c["lambda_over_per_degc"])

    @property
    def band_margin(self) -> float:
        # temperature band inset used during planning only; compensates the
        # half-step quantization error of the policy lookup
        return self.raw["mdp"]["theta_step_c"] / 2.0

    @property
    def planning_cost(self) -> CostSpec:
        base = self.cost
        margin = self.band_margin
        if base.t_min + margin >= base.t_max - margin:
            raise ConfigError("band margin leaves no planning band")
        return CostSpec(t_min=base.t_min + margin, t_max=base.t_max - margin,
                        lambda_under=base.lambda_under,
                        lambda_over=base.lambda_over)

    @property
    def space(self) -> StateSpace:
        m = self.raw["mdp"]
        return StateSpace(theta_min=m["theta_min_c"], theta_max=m["theta_max_c"],
                          theta_step=m["theta_step_c"],
                          m=self.raw["qfr"]["regimes"],
                          a_max=self.raw["chillers"]["count"])

    @property
    def design(self) -> FourierDesign:
        q = self.raw["qfr"]
        return FourierDesign(daily_harmonics=q["daily_harmonics"],
                             seasonal_harmonics=q["seasonal_harmonics"])

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])
