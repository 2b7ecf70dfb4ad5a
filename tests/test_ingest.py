from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coolsched.ingest import (MAX_GAP_HOURS, AlignedDataset, CoverageError,
                              IngestError, SeriesKind, TimeSeries, _fill_gaps,
                              align, format_timestamp, load_series,
                              parse_timestamp, synth_prices, synth_temperature,
                              synth_workload, write_series)


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


def test_load_names_bad_line(tmp_path):
    path = tmp_path / "p.csv"
    write_csv(path, ["2024-06-01T00:00:00Z,50.0", "2024-06-01T01:00:00Z,abc"],
              header=False)
    with pytest.raises(IngestError, match="line 2"):
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


def _full_summer_series(seed=0):
    start = "2024-06-01T00:00:00Z"
    n = 92 * 24  # June 1 .. Aug 31
    return (synth_prices(seed, n, start=start),
            synth_temperature(seed + 1, n, start=start),
            synth_workload(seed + 2, n, 50_000, 0.4, start=start))


def test_align_summer_window_is_2208():
    price, temp, work = _full_summer_series()
    ds = align(price, temp, work,
               ("2024-06-01T00:00:00Z", "2024-08-31T23:00:00Z"))
    assert ds.n == 2208


def test_align_single_day():
    price, temp, work = _full_summer_series()
    ds = align(price, temp, work,
               ("2024-07-15T00:00:00Z", "2024-07-15T23:00:00Z"))
    assert ds.n == 24
    assert np.array_equal(ds.hour_of_day, np.arange(24))


def test_align_detects_missing_coverage():
    price, temp, work = _full_summer_series()
    short = TimeSeries(price.hours[:-24], price.values[:-24], SeriesKind.PRICE)
    with pytest.raises(CoverageError, match="price"):
        align(short, temp, work, ("2024-06-01T00:00:00Z", "2024-08-31T23:00:00Z"))


def test_align_rejects_partial_days():
    price, temp, work = _full_summer_series()
    with pytest.raises(IngestError):
        align(price, temp, work, ("2024-06-01T00:00:00Z", "2024-06-01T10:00:00Z"))


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
