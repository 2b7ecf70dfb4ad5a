"""Hourly trace ingestion: CSV parsing, gap filling, alignment, synthesis.

Series are stored on an integer grid of hours since the Unix epoch (UTC),
which keeps calendar lookups (hour of day, month) and Fourier phases exact.
CSV format is `timestamp,value` with ISO-8601 timestamps `YYYY-MM-DDTHH:00:00Z`.
"""

import csv
import enum
import functools
import math
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

MAX_GAP_HOURS = 3
_TS_FORMAT = "%Y-%m-%dT%H:%M:%SZ"


class IngestError(ValueError):
    """Malformed input file or series that violates the hourly-grid contract."""


class CoverageError(IngestError):
    """A series does not cover the requested alignment window."""


class SeriesKind(enum.Enum):
    PRICE = "price"            # $/MWh
    TEMPERATURE = "temperature"  # degC
    WORKLOAD = "workload"      # active cores


_HOURS = {f"{h:02d}": h for h in range(24)}


@functools.lru_cache(maxsize=1024)
def _day_start_hour(day: str) -> int:
    """Hours since epoch of midnight UTC on a `YYYY-MM-DD` day."""
    dt = datetime.strptime(day, "%Y-%m-%d").replace(tzinfo=timezone.utc)
    return int(dt.timestamp()) // 3600


def parse_timestamp(text: str) -> int:
    """Parse an ISO-8601 UTC timestamp on the hour into hours since epoch.

    The common `YYYY-MM-DDTHH:00:00Z` form parses its day once per date;
    every other string goes through the full strptime format.
    """
    hour = _HOURS.get(text[11:13])
    if hour is not None and len(text) == 20 and text[10] == "T" \
            and text[13:] == ":00:00Z":
        try:
            return _day_start_hour(text[:10]) + hour
        except ValueError:
            pass  # no such day: the full format below raises for it
    try:
        dt = datetime.strptime(text, _TS_FORMAT)
    except ValueError:
        raise IngestError(f"bad timestamp {text!r}, expected YYYY-MM-DDTHH:00:00Z")
    if dt.minute != 0 or dt.second != 0:
        raise IngestError(f"timestamp {text!r} is not on the hour")
    dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp()) // 3600


def format_timestamp(hour: int) -> str:
    dt = datetime.fromtimestamp(int(hour) * 3600, tz=timezone.utc)
    return dt.strftime(_TS_FORMAT)


@dataclass
class TimeSeries:
    """Uniform hourly series: integer hour grid plus one value per hour."""

    hours: np.ndarray   # int64, strictly increasing, step 1 after gap fill
    values: np.ndarray  # float64
    kind: SeriesKind

    def __post_init__(self):
        self.hours = np.asarray(self.hours, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.hours.shape != self.values.shape or self.hours.ndim != 1:
            raise IngestError("hours and values must be 1-d and equal length")
        if len(self.hours) > 1 and not np.all(np.diff(self.hours) == 1):
            raise IngestError("series must be on a gap-free 1-hour grid")
        if not np.all(np.isfinite(self.values)):
            raise IngestError("series contains non-finite values")
        if self.kind is SeriesKind.WORKLOAD:
            if np.any(self.values < 0) or np.any(self.values != np.round(self.values)):
                raise IngestError("workload values must be non-negative integers")

    def __len__(self):
        return len(self.hours)

    @property
    def start_hour(self) -> int:
        return int(self.hours[0])


def _fill_gaps(hours, values, kind, max_gap=MAX_GAP_HOURS):
    """Linearly interpolate gaps of at most `max_gap` missing hours."""
    out_h = [hours[0]]
    out_v = [values[0]]
    for h, v in zip(hours[1:], values[1:]):
        prev_h, prev_v = out_h[-1], out_v[-1]
        missing = h - prev_h - 1
        if missing > max_gap:
            raise IngestError(
                f"gap of {missing} h between {format_timestamp(prev_h)} and "
                f"{format_timestamp(h)} exceeds the {max_gap} h fill limit"
            )
        for k in range(1, missing + 1):
            frac = k / (missing + 1)
            filled = prev_v + frac * (v - prev_v)
            if kind is SeriesKind.WORKLOAD:
                filled = float(round(filled))
            out_h.append(prev_h + k)
            out_v.append(filled)
        out_h.append(h)
        out_v.append(v)
    return np.array(out_h, dtype=np.int64), np.array(out_v, dtype=np.float64)


def load_series(path, kind: SeriesKind) -> TimeSeries:
    """Load one `timestamp,value` CSV; sort, de-duplicate and fill short gaps.

    Rows repeating a timestamp with the same value collapse into one. Raises
    IngestError naming the offending line(s) for malformed rows, for rows
    repeating a timestamp with a different value, and for gaps longer than
    MAX_GAP_HOURS.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if lineno == 1 and row and row[0].strip().lower() == "timestamp":
                continue  # header
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise IngestError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
            try:
                hour = parse_timestamp(row[0].strip())
            except IngestError as exc:
                raise IngestError(f"{path}: line {lineno}: {exc}") from None
            try:
                value = float(row[1])
            except ValueError:
                raise IngestError(
                    f"{path}: line {lineno}: value {row[1]!r} is not a number"
                ) from None
            if not math.isfinite(value):
                raise IngestError(f"{path}: line {lineno}: non-finite value {row[1]!r}")
            if kind is SeriesKind.WORKLOAD and (value < 0 or value != round(value)):
                raise IngestError(
                    f"{path}: line {lineno}: workload must be a non-negative integer"
                )
            rows.append((hour, value, lineno))
    if not rows:
        raise IngestError(f"{path}: no data rows")
    rows.sort(key=lambda r: r[0])  # stable: a repeated hour keeps file order
    hours, values, kept_line = [], [], 0
    for hour, value, lineno in rows:
        if hours and hour == hours[-1]:
            if value != values[-1]:
                raise IngestError(
                    f"{path}: lines {kept_line} and {lineno}: conflicting "
                    f"values {values[-1]!r} and {value!r} for "
                    f"{format_timestamp(hour)}")
            continue
        hours.append(hour)
        values.append(value)
        kept_line = lineno
    hours, values = _fill_gaps(np.array(hours), np.array(values), kind)
    return TimeSeries(hours, values, kind)


def write_series(series: TimeSeries, path) -> None:
    """Write a series to CSV so that load_series reproduces it bit-exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("timestamp,value\n")
        as_int = series.kind is SeriesKind.WORKLOAD
        for hour, value in zip(series.hours, series.values):
            text = str(int(value)) if as_int else repr(float(value))
            fh.write(f"{format_timestamp(hour)},{text}\n")


@dataclass
class AlignedDataset:
    """Price, temperature and workload restricted to one gap-free window."""

    hours: np.ndarray       # absolute hour indices, length n
    price: np.ndarray       # $/MWh
    temperature: np.ndarray  # degC
    workload: np.ndarray    # active cores (integer-valued floats)

    def __post_init__(self):
        n = len(self.hours)
        if not (len(self.price) == len(self.temperature) == len(self.workload) == n):
            raise IngestError("aligned vectors must have identical length")
        if n == 0 or n % 24 != 0:
            raise IngestError(f"window length {n} h is not a whole number of days")

    @property
    def n(self) -> int:
        return len(self.hours)

    @property
    def hour_of_day(self) -> np.ndarray:
        return self.hours % 24


def window_hours(window):
    """Resolve a (start, end) pair, inclusive of both hours, to a grid."""
    start, end = window
    h0 = parse_timestamp(start) if isinstance(start, str) else int(start)
    h1 = parse_timestamp(end) if isinstance(end, str) else int(end)
    if h1 < h0:
        raise IngestError("window end precedes start")
    return np.arange(h0, h1 + 1, dtype=np.int64)


def _restrict(series: TimeSeries, hours: np.ndarray) -> np.ndarray:
    lo, hi = int(hours[0]), int(hours[-1])
    if len(series) == 0 or series.hours[0] > lo or series.hours[-1] < hi:
        raise CoverageError(
            f"{series.kind.value} series covers "
            f"[{format_timestamp(series.hours[0])}, {format_timestamp(series.hours[-1])}] "
            f"but window needs [{format_timestamp(lo)}, {format_timestamp(hi)}]"
        )
    i0 = int(lo - series.hours[0])
    return series.values[i0:i0 + len(hours)].copy()


def align(price: TimeSeries, temperature: TimeSeries, workload: TimeSeries,
          window) -> AlignedDataset:
    """Restrict the three series to `window` = (start, end), hour-inclusive."""
    hours = window_hours(window)
    return AlignedDataset(
        hours=hours,
        price=_restrict(price, hours),
        temperature=_restrict(temperature, hours),
        workload=_restrict(workload, hours),
    )


def slice_series(series: TimeSeries, window) -> TimeSeries:
    """One series restricted to `window` = (start, end), hour-inclusive."""
    hours = window_hours(window)
    return TimeSeries(hours, _restrict(series, hours), series.kind)


def synth_workload(seed: int, n_hours: int, base_cores: int, amplitude: float,
                   start="1970-01-01T00:00:00Z", noise: float = 0.05) -> TimeSeries:
    """Deterministic synthetic core counts: diurnal sinusoid peaking at 14:00.

    value = base * (1 + amplitude*cos(2*pi*(hod-14)/24)) * (1 + eps),
    eps ~ U(-noise, noise), clamped at zero and rounded to integers.
    """
    if not 0 <= amplitude <= 1:
        raise ValueError("amplitude must be in [0, 1]")
    start_hour = parse_timestamp(start) if isinstance(start, str) else int(start)
    hours = np.arange(start_hour, start_hour + n_hours, dtype=np.int64)
    hod = hours % 24
    shape = 1.0 + amplitude * np.cos(2 * np.pi * (hod - 14) / 24)
    gen = np.random.Generator(np.random.PCG64(seed))
    eps = gen.uniform(-noise, noise, n_hours) if noise > 0 else np.zeros(n_hours)
    cores = np.round(np.maximum(base_cores * shape * (1.0 + eps), 0.0))
    return TimeSeries(hours, cores, SeriesKind.WORKLOAD)


def synth_temperature(seed: int, n_hours: int, start="1970-01-01T00:00:00Z",
                      mean: float = 26.0, daily_amp: float = 5.0,
                      noise: float = 0.8) -> TimeSeries:
    """Synthetic summer outdoor temperature, diurnal peak at 15:00."""
    start_hour = parse_timestamp(start) if isinstance(start, str) else int(start)
    hours = np.arange(start_hour, start_hour + n_hours, dtype=np.int64)
    hod = hours % 24
    base = mean + daily_amp * np.cos(2 * np.pi * (hod - 15) / 24)
    gen = np.random.Generator(np.random.PCG64(seed))
    values = base + noise * gen.standard_normal(n_hours) if noise > 0 else base
    return TimeSeries(hours, values, SeriesKind.TEMPERATURE)


def synth_prices(seed: int, n_hours: int, start="1970-01-01T00:00:00Z",
                 night: float = 25.0, day: float = 45.0, peak: float = 110.0,
                 evening: float = 50.0, ar_rho: float = 0.8,
                 ar_sigma: float = 0.25, spike_prob: float = 0.12,
                 spike_scale: float = 3.0) -> TimeSeries:
    """Synthetic spot prices: daily shape with an expensive 16-19 h window.

    A persistent AR(1) log-noise multiplies the shape, and evening peak hours
    occasionally spike, giving heavy upper quantiles worth planning around.
    """
    start_hour = parse_timestamp(start) if isinstance(start, str) else int(start)
    hours = np.arange(start_hour, start_hour + n_hours, dtype=np.int64)
    hod = hours % 24
    shape = np.where(hod < 6, night,
                     np.where(hod < 16, day,
                              np.where(hod < 19, peak, evening)))
    gen = np.random.Generator(np.random.PCG64(seed))
    z = np.empty(n_hours)
    z[0] = gen.standard_normal() * ar_sigma
    eps = gen.standard_normal(n_hours) * ar_sigma
    for i in range(1, n_hours):
        z[i] = ar_rho * z[i - 1] + eps[i]
    values = shape * np.exp(z)
    spikes = (hod >= 16) & (hod < 19) & (gen.random(n_hours) < spike_prob)
    values = np.where(spikes, values * gen.uniform(1.5, spike_scale, n_hours), values)
    return TimeSeries(hours, values, SeriesKind.PRICE)
