import csv
import io
import json
import os
import re
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coolsched import artifacts
from coolsched.ingest import format_timestamp


class _FailingColumn(list):
    """A column whose second field fails to arrive."""

    def __iter__(self):
        yield self[0]
        raise RuntimeError("disk full")


def _fail_inside_writer(path):
    with artifacts.atomic_writer(path) as fh:
        fh.write("partial")
        raise RuntimeError("disk full")


def _copy_undecodable(path):
    # the source is read inside the writer block, after the temp file opened
    src = path.parent.parent / "src.csv"
    src.write_bytes(b"a,b\r\n\xff\r\n")
    artifacts.copy(src, path)


@pytest.mark.parametrize("write", [
    lambda path: artifacts.write_csv(path, ["a", "b"],
                                     [["1", "2"], _FailingColumn(["3", "4"])]),
    lambda path: artifacts.write_json(path, {"a": 1, "b": object()}),
    _fail_inside_writer,
    _copy_undecodable,
])
def test_failed_write_keeps_previous_file(tmp_path, write):
    path = tmp_path / "out" / "table"
    path.parent.mkdir()
    artifacts.write_json(path, {"kind": "old"})
    before = path.read_bytes()
    with pytest.raises((RuntimeError, TypeError, UnicodeDecodeError)):
        write(path)
    assert path.read_bytes() == before
    assert os.listdir(path.parent) == ["table"]


def test_new_file_mode_matches_plain_open(tmp_path):
    with open(tmp_path / "plain", "w", encoding="utf-8"):
        pass
    artifacts.write_json(tmp_path / "doc.json", {"kind": "x"})
    mode = stat.S_IMODE(os.stat(tmp_path / "doc.json").st_mode)
    assert mode == stat.S_IMODE(os.stat(tmp_path / "plain").st_mode)


def test_write_json_bytes(tmp_path):
    artifacts.write_json(tmp_path / "a.json", {"b": [1, 2], "a": None})
    assert (tmp_path / "a.json").read_text() == \
        '{\n "a": null,\n "b": [\n  1,\n  2\n ]\n}\n'
    artifacts.write_json(tmp_path / "b.json", {"b": 1, "a": 2}, indent=None)
    assert (tmp_path / "b.json").read_text() == '{"a": 2, "b": 1}\n'
    # a policy-shaped document: the C encoder (indent=None) and the Python
    # one (indent=1) both give json.dump's bytes
    policy = {"kind": "policy", "objective": 11.178906342139,
              "actions": [[[0, 1], [4, 2]], [[3, 3], [1, 0]]],
              "hours": [473520, 473521], "space": {
                  "theta_min": 15.0, "theta_max": 32.0, "theta_step": 0.5,
                  "m": 2, "a_max": 4, "ratio": -0.0, "tiny": 1e-300,
                  "big": 1e16, "label": "q\u00e9\"\n"}}
    for indent in (None, 1):
        expected = io.StringIO()
        json.dump(policy, expected, indent=indent, sort_keys=True)
        artifacts.write_json(tmp_path / "p.json", policy, indent=indent)
        assert (tmp_path / "p.json").read_bytes() == \
            (expected.getvalue() + "\n").encode()


def test_read_json_checks_kind(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": "policy"}))
    assert artifacts.read_json(path, "policy") == {"kind": "policy"}
    with pytest.raises(artifacts.ArtifactError,
                       match=re.escape(f"{path} holds 'policy', expected a regime-model")):
        artifacts.read_json(path, "regime-model")
    path.write_text("[]")
    assert artifacts.read_json(path) == []
    with pytest.raises(artifacts.ArtifactError, match="holds no artifact kind"):
        artifacts.read_json(path, "policy")
    path.write_text('{"kind": "pol')
    with pytest.raises(artifacts.ArtifactError, match="not valid JSON"):
        artifacts.read_json(path, "policy")


_FLOAT_TEXT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e-300, 1e16, float("nan"), float("inf"),
                     -float("inf")])).map(repr)
_FIELD_TEXT = st.one_of(
    _FLOAT_TEXT, st.integers(-10**12, 10**12).map(str),
    st.integers(-10**6, 10**6).map(format_timestamp),
    st.sampled_from(["greedy", "fixed-rule", "qfr-mdp"]))


@st.composite
def _tables(draw):
    width = draw(st.integers(1, 5))
    n = draw(st.integers(0, 12))
    columns = [draw(st.lists(_FIELD_TEXT, min_size=n, max_size=n))
               for _ in range(width)]
    header = draw(st.lists(st.sampled_from(["timestamp", "theta", "price"]),
                           min_size=width, max_size=width))
    return header, columns


@settings(max_examples=150, deadline=None)
@given(_tables())
def test_write_csv_matches_csv_module(tmp_path_factory, table):
    header, columns = table
    path = tmp_path_factory.getbasetemp() / "csv_property_table.csv"
    artifacts.write_csv(path, header, columns)
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(header)
    writer.writerows(zip(*columns))
    assert path.read_bytes() == expected.getvalue().encode()


@pytest.mark.parametrize("field", ["1,5", 'say "x"', "a\rb", "a\nb"])
@pytest.mark.parametrize("where", ["header", "body"])
def test_write_csv_refuses_quoted_fields(tmp_path, field, where):
    path = tmp_path / "table.csv"
    artifacts.write_csv(path, ["a", "b"], [["1"], ["2"]])
    before = path.read_bytes()
    header, columns = ["a", "b"], [["1", "3"], ["2", "4"]]
    if where == "header":
        header[1] = field
    else:
        columns[0][1] = field
    with pytest.raises(ValueError, match=re.escape(str(path))):
        artifacts.write_csv(path, header, columns)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["table.csv"]


def test_write_csv_refuses_what_csv_would_not_write_alike(tmp_path):
    # a lone empty field is quoted by csv.writer, and every row needs every
    # column
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match="lone empty field"):
        artifacts.write_csv(path, ["a"], [["1", ""]])
    with pytest.raises(ValueError, match=r"lengths \[1, 2\]"):
        artifacts.write_csv(path, ["a", "b"], [["1"], ["2", "3"]])
    with pytest.raises(ValueError, match="header of 1"):
        artifacts.write_csv(path, ["a"], [["1"], ["2"]])
    assert os.listdir(tmp_path) == []
