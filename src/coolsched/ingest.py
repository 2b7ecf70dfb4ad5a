"""Hourly trace ingestion: CSV parsing, gap filling, alignment, synthesis.

Series are stored on an integer grid of hours since the Unix epoch (UTC),
which keeps calendar lookups (hour of day, month) and Fourier phases exact.

CSV format: UTF-8 `timestamp,value` records, one per line, with an optional
header whose first field is `timestamp` on line 1; blank lines are skipped.
A timestamp is an ISO-8601 UTC hour of a year 1-9999: the canonical
`YYYY-MM-DDTHH:00:00Z`, read from its digits through one regex, or any
other form `strptime` accepts for that format, such as `2024-7-5T5:00:00Z`.
`format_timestamps` writes canonical stamps, zero-padding every year, so
every such hour round-trips; `format_floats` writes each float as its
repr, the shortest text that round-trips. A value is anything `float`
accepts that is finite, and for a workload also a non-negative integer.

`load_series` reads a file whole, by one of two paths. A file in the form
`write_series` writes takes one bulk pass over its bytes (`_bulk_rows`):
ASCII with no quote or carriage return, each line the header, empty, or a
canonical stamp, a comma and a value of JSON number bytes. NumPy finds the
lines, `_stamp_hours` decodes the stamps, one run-length mask, built in a
constant number of NumPy calls, picks out the value bytes, and one
`orjson.loads` of the values joined as a JSON array reads each number as
`float` does, bit for bit, once the integer `-0` gets its sign back. Any
other file, and one with a stamp or value that pass cannot vouch for, is
read whole by `csv.reader` (`_reader_rows`), whose rows are checked in line
order: the first bad one raises the error naming its line, as does text
that is not UTF-8 or a field over `csv.field_size_limit()`. The bulk pass
reads this one form because `write_series` writes every archive of the
benchmark's workloads; another form, such as lenient stamps or CRLF line
ends, gets a fast path only once a workload shows its gain. A UTF-8
byte-order mark at the start of the file is dropped.

Given a `cache_dir`, `load_series` keeps each kind's parsed series there as
one flat file, `<kind>_series.bin` (`price_series.bin`,
`temperature_series.bin`, `workload_series.bin`), under the sha256 of the
archive's bytes, so the stages of one out dir parse an archive once. The
file is one ASCII header line, `coolsched-series-v1 <kind> <sha256>
<start hour> <n>`, then the n values as little-endian float64; the hours
are start, start + 1, ... A load hashes the archive and takes the cached
series when the digest and kind match. A cache file that is missing,
unreadable, of another kind or digest, of another length than its header
says, or that breaks a `TimeSeries` invariant is a miss: the load parses the
archive and replaces the file. An archive that fails to parse raises on
every load and writes no cache file.
"""

import codecs
import csv
import enum
import io
import math
import os
import re
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .artifacts import atomic_writer

MAX_GAP_HOURS = 3
_TS_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
_CANONICAL = "YYYY-MM-DDTHH:00:00Z"  # Y, M, D and H are ASCII digits
_CANONICAL_RE = re.compile(
    re.sub("[YMDH]+", lambda run: f"([0-9]{{{len(run[0])}}})", _CANONICAL))
_ROWS_PER_WRITE = 8760  # a year of hours, formatted by `write_series` at once
_DAYS_IN_MONTH = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_CACHE_MAGIC = b"coolsched-series-v1"


class IngestError(ValueError):
    """Malformed input file or series that violates the hourly-grid contract."""


class CoverageError(IngestError):
    """A series does not cover the requested alignment window."""


class SeriesKind(enum.Enum):
    PRICE = "price"            # $/MWh
    TEMPERATURE = "temperature"  # degC
    WORKLOAD = "workload"      # active cores


def parse_timestamp(text: str) -> int:
    """Parse an ISO-8601 UTC timestamp on the hour into hours since epoch."""
    canonical = _CANONICAL_RE.fullmatch(text)
    try:
        dt = (datetime(*map(int, canonical.groups())) if canonical
              else datetime.strptime(text, _TS_FORMAT))
    except ValueError:
        raise IngestError(f"bad timestamp {text!r}, expected YYYY-MM-DDTHH:00:00Z")
    if dt.minute != 0 or dt.second != 0:
        raise IngestError(f"timestamp {text!r} is not on the hour")
    dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp()) // 3600


def _stamp_hours(buf, starts):
    """Decode the canonical stamps at byte offsets `starts` of `buf`.

    Returns hours since epoch and a mask of the stamps that are canonical
    and name an existing hour of a year from 1 on; where the mask is False
    the hour is meaningless. Each stamp's 20 bytes must lie inside `buf`.
    """
    ok = np.ones(len(starts), dtype=bool)
    fields = {}
    for k, char in enumerate(_CANONICAL):
        column = buf[starts + k]
        if char in "YMDH":
            digit = column - np.uint8(ord("0"))  # wraps round below '0'
            ok &= digit < 10
            fields[char] = fields.get(char, 0) * 10 + digit.astype(np.int32)
        else:
            ok &= column == ord(char)
    year, month, day, hour = (fields[c] for c in "YMDH")
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    last_day = _DAYS_IN_MONTH[np.clip(month, 1, 12) - 1] + ((month == 2) & leap)
    ok &= ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
           & (day <= last_day) & (hour <= 23))
    # days from the civil date, counting years from March 1 (Hinnant)
    y = year.astype(np.int64) - (month <= 2)
    era = y // 400
    yoe = y - era * 400
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    doe = yoe * 365 + yoe // 4 - yoe // 100 + doy
    return (era * 146097 + doe - 719468) * 24 + hour, ok


def format_timestamps(hours) -> list:
    """The canonical stamp of each hour since epoch, every year zero-padded."""
    hours = np.asarray(hours, dtype=np.int64).astype("datetime64[h]")
    return np.datetime_as_string(hours, unit="s", timezone="UTC").tolist()


def format_timestamp(hour: int) -> str:
    return format_timestamps([hour])[0]


def format_floats(values) -> list:
    """The repr of each float of a 1-d array: its shortest round-trip text.

    One orjson write formats the whole array. orjson writes the same
    shortest digits as repr, and in repr's fixed notation for zero and
    for 1e-4 <= |x| < 1e16; every other value, NaN and the infinities
    (which orjson writes as null) included, takes its own repr.
    """
    import orjson  # here, so that importing the CLI does not load it

    values = np.ascontiguousarray(values, dtype=np.float64)
    if not len(values):
        return []
    texts = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
    texts = texts[1:-1].decode("ascii").split(",")
    magnitude = np.abs(values)
    fixed = ((magnitude >= 1e-4) & (magnitude < 1e16)) | (values == 0)
    for i in np.flatnonzero(~fixed).tolist():
        texts[i] = repr(float(values[i]))
    return texts


@dataclass
class TimeSeries:
    """Uniform hourly series: integer hour grid plus one value per hour."""

    hours: np.ndarray   # int64, strictly increasing, step 1 after gap fill
    values: np.ndarray  # float64
    kind: SeriesKind
    sha256: str | None = None  # hex digest of the archive `load_series` read
    reused: bool = False  # `load_series` took it from its cache

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
    missing = np.diff(hours) - 1
    too_long = np.flatnonzero(missing > max_gap)
    if too_long.size:
        i = too_long[0]
        raise IngestError(
            f"gap of {missing[i]} h between {format_timestamp(hours[i])} and "
            f"{format_timestamp(hours[i + 1])} exceeds the {max_gap} h fill limit"
        )
    out_h = np.arange(hours[0], hours[-1] + 1, dtype=np.int64)
    out_v = np.empty(len(out_h), dtype=np.float64)
    out_v[hours - hours[0]] = values
    gaps = np.flatnonzero(missing)
    counts = missing[gaps]
    left = np.repeat(gaps, counts)  # observation before each filled hour
    k = np.arange(1, len(left) + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    prev_v, next_v = values[left], values[left + 1]
    frac = k / np.repeat(counts + 1, counts)
    with np.errstate(over="ignore"):
        filled = prev_v + frac * (next_v - prev_v)
    # the difference of two finite values of opposite sign near the float
    # limit overflows; their weighted sum does not
    far = ~np.isfinite(filled)
    filled[far] = prev_v[far] * (1 - frac[far]) + next_v[far] * frac[far]
    if kind is SeriesKind.WORKLOAD:
        filled = np.round(filled)
    out_v[hours[left] + k - hours[0]] = filled
    return out_h, out_v


def _is_header(first_field):
    """Whether line 1, whose first field is `first_field`, is the header."""
    return first_field.strip().lower() == "timestamp"


def _bulk_rows(data, kind):
    """Data rows of a file's bytes as (hours, values, line numbers) arrays,
    or None unless the file is in the form `write_series` writes.

    That form is ASCII text with no quote and no carriage return, whose
    every line, none longer than the reader's field size limit, is the
    header on line 1, empty, or a canonical stamp of an existing hour, a
    comma and a value of JSON number bytes only; orjson must read every
    value, each finite, and for a workload a non-negative integer. One
    run-length mask, built in a constant number of NumPy calls whatever
    the row count, picks out the value bytes for that one orjson read.
    """
    if not data.isascii() or b'"' in data or b"\r" in data:
        return None
    if data and not data.endswith(b"\n"):
        data += b"\n"  # the last line has no "\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts
    if not len(ends) or lengths.max() > csv.field_size_limit():
        return None
    is_row = lengths > 0
    if is_row[0] and _is_header(data[:ends[0]].decode("ascii").split(",")[0]):
        is_row[0] = False
    rows = np.flatnonzero(is_row)
    width = len(_CANONICAL)
    row_starts = starts[rows]
    if ((lengths[rows] <= width + 1).any()
            or (buf[row_starts + width] != ord(",")).any()):
        return None
    hours, ok = _stamp_hours(buf, row_starts)
    if not ok.all():
        return None
    # the values, each with its "\n": the bytes past each row's comma up to
    # and including its line end, which alternate with runs of other bytes,
    # so every odd run is kept. Each buffer is freed once used, which keeps
    # the peak memory low
    runs = np.diff(np.stack([row_starts + width + 1, ends[rows] + 1], axis=1)
                   .ravel(), prepend=0, append=len(buf))
    keep = np.zeros(len(runs), dtype=bool)
    keep[1::2] = True
    value_bytes = buf[np.repeat(keep, runs)]
    del runs, keep
    text = value_bytes.tobytes()
    del value_bytes
    if text.translate(None, b"0123456789.eE+-\n"):
        return None  # a value byte that is no JSON number character
    import orjson  # here, so that importing the CLI does not load it

    try:  # each value is one number: it holds no comma
        values = np.array(orjson.loads(b"[%s]" % text[:-1].replace(b"\n", b",")),
                          dtype=np.float64)
    except orjson.JSONDecodeError:  # such as 1. or 01, which float reads
        return None
    # JSON reads the integer -0 as 0, and float as -0.0
    values[(buf[row_starts + width + 1] == ord("-")) & (values == 0)] = -0.0
    if not np.isfinite(values).all() or (kind is SeriesKind.WORKLOAD and not (
            (values >= 0) & (values == np.round(values))).all()):
        return None
    return hours, values, rows + 1


def _reader_rows(path, data, kind):
    """Data rows of a file's bytes as split by `csv.reader`, checked one at
    a time. Raises IngestError naming the line of a bad record, of text that
    is not UTF-8, or that the reader refuses, such as a field over its size
    limit. The header and blank lines are skipped."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise IngestError(f"{path}: line {lineno}: not UTF-8 text: "
                          f"{exc.reason}") from None
    hours, values, lines = [], [], []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for lineno, row in enumerate(reader, start=1):
            if lineno == 1 and row and _is_header(row[0]):
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            line = f"{path}: line {lineno}"
            if len(row) != 2:
                raise IngestError(f"{line}: expected 2 fields, got {len(row)}")
            try:
                hour = parse_timestamp(row[0].strip())
            except IngestError as exc:
                raise IngestError(f"{line}: {exc}") from None
            try:
                value = float(row[1])
            except ValueError:
                raise IngestError(
                    f"{line}: value {row[1]!r} is not a number") from None
            if not math.isfinite(value):
                raise IngestError(f"{line}: non-finite value {row[1]!r}")
            if kind is SeriesKind.WORKLOAD and (value < 0 or value != round(value)):
                raise IngestError(f"{line}: workload must be a non-negative "
                                  "integer")
            hours.append(hour)
            values.append(value)
            lines.append(lineno)
    except csv.Error as exc:
        raise IngestError(f"{path}: line {reader.line_num}: {exc}") from None
    return (np.array(hours, dtype=np.int64), np.array(values, dtype=np.float64),
            np.array(lines, dtype=np.int64))


def cache_file(cache_dir, kind: SeriesKind) -> str:
    """Where `load_series` keeps the parsed series of `kind` in `cache_dir`."""
    return os.path.join(cache_dir, f"{kind.value}_series.bin")


def _read_cache(path, kind, digest):
    """The series cached at `path` for an archive with this digest, or None."""
    try:
        with open(path, "rb") as fh:
            header = fh.readline(256).split()
            body = fh.read()
        magic, cached_kind, cached_digest, start, n = header
        if (magic, cached_kind, cached_digest) != (
                _CACHE_MAGIC, kind.value.encode(), digest.encode()):
            return None
        start, n = int(start), int(n)
        if n < 1 or len(body) != 8 * n:
            return None
        values = np.frombuffer(body, dtype="<f8").astype(np.float64)
        return TimeSeries(np.arange(start, start + n), values, kind,
                          sha256=digest, reused=True)
    # a short header, a field that is no integer, an hour past int64, or a
    # series that breaks an invariant (IngestError) all make a miss
    except (OSError, ValueError, OverflowError):
        return None


def _write_cache(path, series):
    with atomic_writer(path, binary=True) as fh:
        fh.write(b"%s %s %s %d %d\n" % (
            _CACHE_MAGIC, series.kind.value.encode(), series.sha256.encode(),
            series.start_hour, len(series)))
        fh.write(series.values.astype("<f8").tobytes())


def load_series(path, kind: SeriesKind, cache_dir=None) -> TimeSeries:
    """Load one `timestamp,value` CSV; sort, de-duplicate and fill short gaps.

    Rows repeating a timestamp with the same value collapse into one. Raises
    IngestError naming the offending line(s) for malformed rows, for rows
    repeating a timestamp with a different value, and for gaps longer than
    MAX_GAP_HOURS. A leading UTF-8 byte-order mark is dropped before the
    parse; the series carries the sha256 of the file's bytes. With
    `cache_dir`, a series cached there under that digest is returned
    instead of a parse, and a parsed one is cached (see the module doc).
    """
    import hashlib  # here, so that importing the CLI does not load OpenSSL

    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    if cache_dir is not None:
        series = _read_cache(cache_file(cache_dir, kind), kind, digest)
        if series is not None:
            return series
    # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark
    series = TimeSeries(*_parse_rows(path, data.removeprefix(codecs.BOM_UTF8),
                                     kind), kind, sha256=digest)
    if cache_dir is not None:
        _write_cache(cache_file(cache_dir, kind), series)
    return series


def _parse_rows(path, data, kind):
    """Hours and values of the file `path`, whose bytes are `data`, after
    sort, de-duplication and gap fill."""
    rows = _bulk_rows(data, kind)
    if rows is None:
        rows = _reader_rows(path, data, kind)
    hours, values, lines = rows
    if not len(hours):
        raise IngestError(f"{path}: no data rows")
    order = np.argsort(hours, kind="stable")  # a repeated hour keeps file order
    hours, values, lines = hours[order], values[order], lines[order]
    new = np.concatenate(([True], hours[1:] != hours[:-1]))
    first = np.flatnonzero(new)[np.cumsum(new) - 1]  # first row of each hour
    conflict = np.flatnonzero(values != values[first])
    if conflict.size:
        i = conflict[0]
        k = first[i]
        raise IngestError(
            f"{path}: lines {lines[k]} and {lines[i]}: conflicting "
            f"values {float(values[k])!r} and {float(values[i])!r} for "
            f"{format_timestamp(hours[i])}")
    return _fill_gaps(hours[new], values[new], kind)


def write_series(series: TimeSeries, path) -> None:
    """Write a series to CSV so that load_series reproduces it bit-exactly:
    a workload's values as integers, any other's as `format_floats` text,
    every line in the form the bulk pass reads. The rows go out a year of
    hours at a time, so the text held in memory does not grow with the
    series."""
    with atomic_writer(path) as fh:
        fh.write("timestamp,value\n")
        for first in range(0, len(series), _ROWS_PER_WRITE):
            part = slice(first, first + _ROWS_PER_WRITE)
            if series.kind is SeriesKind.WORKLOAD:
                values = [str(int(v)) for v in series.values[part].tolist()]
            else:
                values = format_floats(series.values[part])
            fh.write("".join([f"{stamp},{value}\n" for stamp, value in zip(
                format_timestamps(series.hours[part]), values)]))


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


def window_hours(window):
    """The hours of a (first hour, last hour) window, both inclusive."""
    first, last = window
    if last < first:
        raise IngestError("window end precedes start")
    return np.arange(first, last + 1, dtype=np.int64)


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
    """Restrict the three series to `window` = (first hour, last hour)."""
    hours = window_hours(window)
    return AlignedDataset(
        hours=hours,
        price=_restrict(price, hours),
        temperature=_restrict(temperature, hours),
        workload=_restrict(workload, hours),
    )


def slice_series(series: TimeSeries, window) -> TimeSeries:
    """One series restricted to `window` = (first hour, last hour)."""
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
    if base_cores < 0 or noise < 0:
        raise ValueError("base_cores and noise must be >= 0")
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
