import csv
import io
import math
import re
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coolsched.ingest import (MAX_GAP_HOURS, AlignedDataset, CoverageError,
                              IngestError, SeriesKind, TimeSeries, _fill_gaps,
                              align, cache_file, format_timestamp,
                              format_timestamps, load_series,
                              parse_timestamp, synth_prices,
                              synth_temperature, synth_workload, write_series)


def write_csv(path, rows, header=True):
    lines = (["timestamp,value"] if header else []) + rows
    path.write_text("\n".join(lines) + "\n")


def test_parse_format_round_trip():
    hour = parse_timestamp("2024-07-15T13:00:00Z")
    assert format_timestamp(hour) == "2024-07-15T13:00:00Z"
    assert parse_timestamp("1970-01-01T00:00:00Z") == 0


def test_parse_rejects_off_hour():
    with pytest.raises(IngestError):
        parse_timestamp("2024-07-15T13:30:00Z")


def _strptime_hours(text):
    dt = datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ")
    return int(dt.replace(tzinfo=timezone.utc).timestamp()) // 3600


@given(st.integers(0, 200 * 8766))
def test_parse_matches_strptime(hour):
    text = format_timestamp(hour)
    assert parse_timestamp(text) == _strptime_hours(text) == hour


@pytest.mark.parametrize("text", ["2024-7-15T5:00:00Z", "2024-07-15t05:00:00z",
                                  "2024-07- 5T05:00:00Z", "2024-07-15T05:0:00Z"])
def test_parse_accepts_what_strptime_accepts(text):
    assert parse_timestamp(text) == _strptime_hours(text)


def test_load_names_bad_day(tmp_path):
    path = tmp_path / "p.csv"
    write_csv(path, ["2024-02-28T05:00:00Z,50.0", "2024-02-30T05:00:00Z,60.0"])
    with pytest.raises(IngestError,
                       match=r"line 3: bad timestamp '2024-02-30T05:00:00Z'"):
        load_series(path, SeriesKind.PRICE)


def test_load_identity(tmp_path):
    path = tmp_path / "p.csv"
    write_csv(path, ["2024-06-01T00:00:00Z,50.0", "2024-06-01T01:00:00Z,60.0"])
    ts = load_series(path, SeriesKind.PRICE)
    assert len(ts) == 2
    assert list(ts.values) == [50.0, 60.0]


def test_load_interpolates_short_gap(tmp_path):
    path = tmp_path / "p.csv"
    write_csv(path, ["2024-06-01T00:00:00Z,50.0", "2024-06-01T02:00:00Z,70.0"])
    ts = load_series(path, SeriesKind.PRICE)
    assert len(ts) == 3
    assert ts.values[1] == pytest.approx(60.0)  # linear midpoint


def test_load_rejects_long_gap(tmp_path):
    path = tmp_path / "p.csv"
    write_csv(path, ["2024-06-01T00:00:00Z,50.0", "2024-06-01T05:00:00Z,70.0"])
    with pytest.raises(IngestError, match="gap of 4 h"):
        load_series(path, SeriesKind.PRICE)


def _fill_gaps_loop(hours, values, kind, max_gap=MAX_GAP_HOURS):
    """Reference gap fill: one observation at a time."""
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


def _outcome(fill, hours, values, kind):
    try:
        out_h, out_v = fill(hours, values, kind)
    except IngestError as exc:
        return str(exc)
    return out_h.tobytes(), out_v.tobytes()


@given(st.integers(0, 500_000),
       st.lists(st.integers(1, MAX_GAP_HOURS + 2), max_size=40),
       st.sampled_from(list(SeriesKind)), st.data())
def test_fill_gaps_matches_loop(start, steps, kind, data):
    hours = start + np.concatenate([[0], np.cumsum(steps, dtype=np.int64)])
    if kind is SeriesKind.WORKLOAD:
        values = st.integers(0, 10**6).map(float)
    else:
        values = st.floats(allow_nan=False, allow_infinity=False)
    values = np.array(data.draw(st.lists(values, min_size=len(hours),
                                         max_size=len(hours))), dtype=float)
    assert (_outcome(_fill_gaps, hours, values, kind)
            == _outcome(_fill_gaps_loop, hours, values, kind))


def _load_series_loop(path, kind):
    """Reference loader: csv.reader rows, checked, sorted and merged one at a time."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise IngestError(f"{path}: line {lineno}: not UTF-8 text: "
                          f"{exc.reason}") from None
    rows = []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
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
    except csv.Error as exc:
        raise IngestError(f"{path}: line {reader.line_num}: {exc}") from None
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


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_FIRST_HOUR = parse_timestamp("0001-01-01T00:00:00Z")
_LAST_HOUR = parse_timestamp("9999-12-31T23:00:00Z")


def _stamp(hour):
    """Canonical stamp of an hour, with the year zero-padded below 1000."""
    dt = _EPOCH + timedelta(hours=hour)
    return f"{dt.year:04d}-{dt.month:02d}-{dt.day:02d}T{dt.hour:02d}:00:00Z"


# hours just before a leap day (or its absence), the calendar's ends and the epoch
_ANCHORS = [parse_timestamp(t) for t in (
    "2024-02-28T20:00:00Z", "2023-02-28T20:00:00Z", "2000-02-28T20:00:00Z",
    "1900-02-28T20:00:00Z", "0001-01-01T00:00:00Z", "9999-12-31T00:00:00Z",
    "1969-12-31T20:00:00Z", "2021-12-31T20:00:00Z")]

# forms of a good stamp; the last three are faults
_STAMP_FORMS = [
    _stamp, _stamp, _stamp, _stamp,
    lambda h: f" {_stamp(h)}\t",
    lambda h: _stamp(h).lower(),
    lambda h: "{0.year:04d}-{0.month}-{0.day}T{0.hour}:00:00Z".format(
        _EPOCH + timedelta(hours=h)),
    lambda h: "{0.year:04d}-{0.month:02d}-{0.day:2d}T{0.hour:02d}:0:0Z".format(
        _EPOCH + timedelta(hours=h)),
    lambda h: _stamp(h).replace(":00:00Z", ":30:00Z"),
    lambda h: _stamp(h).translate(str.maketrans("0123456789", "０１２３４５６７８９")),
    lambda h: format_timestamp(h)[:-1],
]

_BAD_STAMPS = [
    "2023-02-29T00:00:00Z", "1900-02-29T00:00:00Z", "2024-02-30T00:00:00Z",
    "2024-13-01T00:00:00Z", "2024-00-10T00:00:00Z", "2024-01-01T24:00:00Z",
    "0000-01-01T00:00:00Z", "2024-01-01T00:00:60Z", "2024-01-01", "", "x",
    "timestamp",
]

# values a workload accepts, and values it does not (the first three suit
# a price or a temperature)
_GOOD_VALUES = ["1", "2", "2.0", "0", "-0.0", "7", " 7 ", "1_0", "1e5"]
_BAD_VALUES = ["3.25", "-4", "-1", "0.1", "abc", "nan", "inf", "-inf", "1e400", "",
               "0x10", "2.5.1"]


def _csv_text(rnd):
    """CSV text around a run of nearby hours, with some faults of every kind."""
    fault_rate = rnd.choice([0, 0, 0.02, 0.1, 0.3])

    def faulty():
        return rnd.random() < fault_rate

    if rnd.random() < 0.5:
        base = rnd.choice(_ANCHORS)
    else:
        base = rnd.randint(_FIRST_HOUR, _LAST_HOUR - 48)
    steps = rnd.choices([0, 1, 1, 1, 1, 2, MAX_GAP_HOURS + 1, MAX_GAP_HOURS + 2],
                        k=rnd.randint(0, 12))
    hours = [min(base + s, _LAST_HOUR) for s in np.cumsum([0] + steps).tolist()]
    rnd.shuffle(hours)
    lines, seen = [], {}
    for hour in hours:
        stamp = rnd.choice(_STAMP_FORMS[4:] + _BAD_STAMPS if faulty()
                           else _STAMP_FORMS[:4])
        if callable(stamp):
            stamp = stamp(hour)
        value = rnd.choice(_BAD_VALUES if faulty() else _GOOD_VALUES)
        if hour in seen and rnd.random() < 0.5:
            value = seen[hour]  # an equal duplicate
        seen[hour] = value
        fields = [stamp, value]
        if faulty():
            fields = rnd.choice([
                [stamp], [stamp, value, "x"], [f'"{stamp}"', f'"{value}"'],
                [f'"{stamp},{value}"'], [stamp, f'"{value}"']])
        lines.append(",".join(fields))
        if faulty():
            lines.append(rnd.choice(["", " ", "\t", ",", "  \t "]))
    header = rnd.choice([[], ["timestamp,value"], ["Timestamp ,x,y"]])
    newline = rnd.choice(["\n", "\n", "\r\n"])
    text = newline.join(header + lines)
    if rnd.random() < 0.5:
        text += newline
    return text


def _load_outcome(load, path, kind, *cache_dir):
    try:
        series = load(path, kind, *cache_dir)
    except IngestError as exc:
        return str(exc)
    return series.hours.tobytes(), series.values.tobytes(), series.reused


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "series.csv"


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=True).map(_csv_text),
       st.sampled_from(list(SeriesKind)))
@example("timestamp,value\n", SeriesKind.PRICE)
@example("", SeriesKind.PRICE)
@example("2024-01-01T00:00:00Z,1\n\n\n", SeriesKind.WORKLOAD)
@example("2024-01-01T00:00:00Z,-1\n2024-01-01T01:00:00Z,-0.0\n", SeriesKind.WORKLOAD)
@example("2024-01-01T00:00:00Z,1\r2024-01-01T01:00:00Z,2", SeriesKind.PRICE)
@example("2024-01-01T00:00:00Z,1" + "0" * 140_000, SeriesKind.PRICE)
def test_load_matches_row_loop(csv_path, text, kind):
    # through a cache dir, the first load parses and caches the series and
    # the second reuses the same bits; a file that fails raises the same
    # error both times and leaves no cache file
    csv_path.write_bytes(text.encode("utf-8"))
    fresh = _load_outcome(load_series, csv_path, kind)
    assert fresh == _load_outcome(_load_series_loop, csv_path, kind)
    cache = Path(cache_file(csv_path.parent, kind))
    cache.unlink(missing_ok=True)
    assert _load_outcome(load_series, csv_path, kind, csv_path.parent) == fresh
    assert cache.exists() == isinstance(fresh, tuple)
    reused = fresh if isinstance(fresh, str) else fresh[:2] + (True,)
    assert _load_outcome(load_series, csv_path, kind, csv_path.parent) == reused


def _stamp_outcomes(load, path, texts):
    """What `load` makes of each stamp as the one data row of a file."""
    outcomes = []
    for text in texts:
        path.write_text(f"timestamp,value\n{text},1\n")
        outcomes.append(_load_outcome(load, path, SeriesKind.PRICE))
    return outcomes


@pytest.mark.parametrize("text", _BAD_STAMPS + [
    "2000-02-29T00:00:00Z", "2024-02-29T23:00:00Z", "0004-02-29T00:00:00Z",
    "2100-02-29T00:00:00Z", "2024-04-31T00:00:00Z", "2024-12-31T23:00:00Z"])
def test_parse_timestamps_calendar_edges(csv_path, text):
    # load_series decodes canonical stamps in bulk (_stamp_hours); the
    # reference loader parses each with parse_timestamp
    assert (_stamp_outcomes(load_series, csv_path, [text])
            == _stamp_outcomes(_load_series_loop, csv_path, [text]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(_FIRST_HOUR, _LAST_HOUR).map(_stamp), max_size=8),
       st.tuples(st.integers(0, 9999), st.integers(0, 19), st.integers(0, 39),
                 st.integers(0, 29)).map(
           lambda f: "{:04d}-{:02d}-{:02d}T{:02d}:00:00Z".format(*f)))
def test_parse_timestamps_matches_scalar(csv_path, good, odd):
    # canonical stamps of years 1-9999, and one with fields drawn past
    # their ranges
    texts = good + [odd]
    assert (_stamp_outcomes(load_series, csv_path, texts)
            == _stamp_outcomes(_load_series_loop, csv_path, texts))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(_FIRST_HOUR, _LAST_HOUR), max_size=8))
@example([_FIRST_HOUR, parse_timestamp("0999-12-31T23:00:00Z"),
          parse_timestamp("1000-01-01T00:00:00Z"), -1, 0, _LAST_HOUR])
def test_format_timestamps_matches_scalar(hours):
    # years before 1000 are not zero-padded by strftime, so they take the
    # scalar path
    assert format_timestamps(hours) == [format_timestamp(h) for h in hours]


def test_load_names_bad_line(tmp_path):
    path = tmp_path / "p.csv"
    write_csv(path, ["2024-06-01T00:00:00Z,50.0", "2024-06-01T01:00:00Z,abc"],
              header=False)
    with pytest.raises(IngestError, match="line 2"):
        load_series(path, SeriesKind.PRICE)


def test_load_names_undecodable_line(tmp_path):
    # a file that is not UTF-8 fails naming the file and the line
    path = tmp_path / "p.csv"
    path.write_bytes(b"timestamp,value\n2024-06-01T00:00:00Z,50.0\n"
                     b"2024-06-01T01:00:00Z,6\xff0\n")
    with pytest.raises(IngestError, match=re.escape(
            f"{path}: line 3: not UTF-8 text: invalid start byte")):
        load_series(path, SeriesKind.PRICE)


def test_load_rejects_non_finite(tmp_path):
    path = tmp_path / "p.csv"
    write_csv(path, ["2024-06-01T00:00:00Z,nan"])
    with pytest.raises(IngestError, match="non-finite"):
        load_series(path, SeriesKind.PRICE)


def test_load_sorts_and_deduplicates(tmp_path):
    # a repeated timestamp with an equal value collapses into one row
    path = tmp_path / "p.csv"
    write_csv(path, [
        "2024-06-01T01:00:00Z,60.0",
        "2024-06-01T00:00:00Z,50.0",
        "2024-06-01T01:00:00Z,60.0",
    ])
    ts = load_series(path, SeriesKind.PRICE)
    assert list(ts.values) == [50.0, 60.0]


def test_load_rejects_conflicting_duplicates(tmp_path):
    path = tmp_path / "p.csv"
    write_csv(path, [
        "2024-06-01T01:00:00Z,60.0",
        "2024-06-01T00:00:00Z,50.0",
        "2024-06-01T01:00:00Z,999.0",
    ])
    with pytest.raises(IngestError, match=r"lines 2 and 4: conflicting"):
        load_series(path, SeriesKind.PRICE)


@pytest.mark.parametrize("kind, corrupt", [
    (SeriesKind.PRICE, lambda data: data[:-3]),
    (SeriesKind.PRICE, lambda data: data[:data.index(b"\n") + 1]),
    (SeriesKind.PRICE, lambda data: data + bytes(8)),
    (SeriesKind.PRICE, lambda data: b""),
    (SeriesKind.PRICE, lambda data: b'{"kind": "policy"}\n'),
    (SeriesKind.PRICE, lambda data: data.replace(b" price ", b" workload ", 1)),
    (SeriesKind.PRICE,
     lambda data: re.sub(rb"[0-9a-f]{64}", b"0" * 64, data, count=1)),
    (SeriesKind.PRICE, lambda data: re.sub(rb" -?\d+ (\d+)\n",
                                           rb" 99999999999999999999 \1\n",
                                           data, count=1)),
    (SeriesKind.PRICE,
     lambda data: re.sub(rb" \d+\n", b" 1000000000000000\n", data, count=1)),
    (SeriesKind.PRICE, lambda data: data[:-8] + np.float64(np.nan).tobytes()),
    (SeriesKind.WORKLOAD, lambda data: data[:-8] + np.float64(0.5).tobytes()),
], ids=["truncated", "header-only", "too-long", "empty", "foreign",
        "other-kind", "other-digest", "hour-past-int64", "huge-length",
        "non-finite",
        "fractional-workload"])
def test_bad_cache_file_is_a_miss(tmp_path, kind, corrupt):
    # the load parses the archive again and rewrites the cache file
    path = tmp_path / "p.csv"
    write_csv(path, ["2024-06-01T00:00:00Z,50", "2024-06-01T02:00:00Z,70"])
    fresh = load_series(path, kind)
    cache = Path(cache_file(tmp_path, kind))
    assert not load_series(path, kind, tmp_path).reused
    good = cache.read_bytes()
    cache.write_bytes(corrupt(good))
    series = load_series(path, kind, tmp_path)
    assert not series.reused
    assert series.hours.tobytes() == fresh.hours.tobytes()
    assert series.values.tobytes() == fresh.values.tobytes()
    assert cache.read_bytes() == good
    assert load_series(path, kind, tmp_path).reused


def test_workload_must_be_integral(tmp_path):
    path = tmp_path / "w.csv"
    write_csv(path, ["2024-06-01T00:00:00Z,10.5"])
    with pytest.raises(IngestError, match="non-negative integer"):
        load_series(path, SeriesKind.WORKLOAD)


def test_workload_interpolation_stays_integral(tmp_path):
    path = tmp_path / "w.csv"
    write_csv(path, ["2024-06-01T00:00:00Z,100", "2024-06-01T02:00:00Z,105"])
    ts = load_series(path, SeriesKind.WORKLOAD)
    assert ts.values[1] == round((100 + 105) / 2)


def test_write_read_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    hours = np.arange(parse_timestamp("2024-06-01T00:00:00Z"),
                      parse_timestamp("2024-06-01T00:00:00Z") + 200)
    values = rng.uniform(-50, 300, 200)
    ts = TimeSeries(hours, values, SeriesKind.PRICE)
    path = tmp_path / "round.csv"
    write_series(ts, path)
    back = load_series(path, SeriesKind.PRICE)
    assert np.array_equal(back.hours, ts.hours)
    assert np.array_equal(back.values, ts.values)  # bit-exact


def _window(start, end):
    """The (first hour, last hour) pair a config resolves [start, end] to."""
    return parse_timestamp(start), parse_timestamp(end)


def _full_summer_series(seed=0):
    start = "2024-06-01T00:00:00Z"
    n = 92 * 24  # June 1 .. Aug 31
    return (synth_prices(seed, n, start=start),
            synth_temperature(seed + 1, n, start=start),
            synth_workload(seed + 2, n, 50_000, 0.4, start=start))


def test_align_summer_window_is_2208():
    price, temp, work = _full_summer_series()
    ds = align(price, temp, work, _window("2024-06-01T00:00:00Z",
                                          "2024-08-31T23:00:00Z"))
    assert ds.n == 2208


def test_align_single_day():
    price, temp, work = _full_summer_series()
    ds = align(price, temp, work, _window("2024-07-15T00:00:00Z",
                                          "2024-07-15T23:00:00Z"))
    assert ds.n == 24


def test_align_detects_missing_coverage():
    price, temp, work = _full_summer_series()
    short = TimeSeries(price.hours[:-24], price.values[:-24], SeriesKind.PRICE)
    with pytest.raises(CoverageError, match="price"):
        align(short, temp, work, _window("2024-06-01T00:00:00Z",
                                         "2024-08-31T23:00:00Z"))


def test_align_rejects_partial_days():
    price, temp, work = _full_summer_series()
    with pytest.raises(IngestError):
        align(price, temp, work, _window("2024-06-01T00:00:00Z",
                                         "2024-06-01T10:00:00Z"))


def test_synth_workload_flat_when_degenerate():
    ts = synth_workload(seed=5, n_hours=48, base_cores=1000, amplitude=0.0, noise=0.0)
    assert np.all(ts.values == 1000)


def test_synth_workload_deterministic():
    a = synth_workload(seed=9, n_hours=100, base_cores=2000, amplitude=0.3)
    b = synth_workload(seed=9, n_hours=100, base_cores=2000, amplitude=0.3)
    assert np.array_equal(a.values, b.values)
    c = synth_workload(seed=10, n_hours=100, base_cores=2000, amplitude=0.3)
    assert not np.array_equal(a.values, c.values)


def test_synth_workload_swing_ratio():
    ts = synth_workload(seed=1, n_hours=24 * 14, base_cores=50_000, amplitude=0.4)
    ratio = ts.values.max() / ts.values.min()
    assert 1.5 <= ratio <= 2.8


def test_synth_workload_peaks_midafternoon():
    ts = synth_workload(seed=0, n_hours=24, base_cores=10_000, amplitude=0.5, noise=0.0)
    assert int(np.argmax(ts.values)) == 14


def test_synth_prices_peak_window_is_expensive():
    ts = synth_prices(seed=2, n_hours=24 * 60)
    hod = ts.hours % 24
    peak = ts.values[(hod >= 16) & (hod < 19)].mean()
    night = ts.values[hod < 6].mean()
    assert peak > 2.5 * night


def test_aligned_dataset_validates_lengths():
    with pytest.raises(IngestError):
        AlignedDataset(hours=np.arange(24), price=np.ones(24),
                       temperature=np.ones(24), workload=np.ones(23))
