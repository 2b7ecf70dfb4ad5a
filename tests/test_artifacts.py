import csv
import dataclasses
import io
import json
import os
import re
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coolsched import artifacts
from coolsched.ingest import format_timestamp
from coolsched.mdp import Policy, StateSpace
from coolsched.qfr import FourierDesign, RegimeModel
from coolsched.regimes import _BUCKET_KEYS, GROUPINGS, TransitionModel


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


def _policy_doc():
    return {"actions": [[[0, 1], [1, 0]]], "start": 5,
            "space": {"theta_min": 15.0, "theta_max": 16.0, "theta_step": 1.0,
                      "m": 2, "a_max": 1}}


def test_build_takes_defaults_and_numbers():
    # a field with a default may be left out, and a float field takes an int
    policy = artifacts.build(Policy, _policy_doc())
    assert policy.objective is None and policy.start == 5
    doc = _policy_doc()
    doc["objective"] = 3
    doc["space"]["theta_min"] = 15
    policy = artifacts.build(Policy, doc)
    assert type(policy.objective) is float and type(policy.space.theta_min) is float
    assert policy.actions.dtype == np.int64


def _edit(*keys_and_value):
    *keys, key, value = keys_and_value

    def edit(doc):
        for name in keys:
            doc = doc[name]
        doc[key] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.pop("start"), "a policy without the key 'start'"),
    (_edit("n", 2), "a policy with the unknown key 'n'"),
    (lambda doc: doc["space"].pop("m"), "a policy space without the key 'm'"),
    (_edit("space", [15.0]), "a policy space that is [15.0], not an object"),
    (_edit("start", True), "a policy whose start is True, not an integer"),
    (_edit("start", 5.0), "a policy whose start is 5.0, not an integer"),
    (_edit("objective", "1"), "a policy whose objective is '1', not a number"),
    (_edit("objective", False),
     "a policy whose objective is False, not a number"),
    (_edit("objective", None), "a policy whose objective is None, not a number"),
    (_edit("space", "a_max", 1.0),
     "a policy space whose a_max is 1.0, not an integer"),
    (_edit("actions", [[[True, False], [False, True]]]),
     "a policy whose actions is [[[True, False], [False, True]]], not an "
     "array of numbers"),
    (_edit("actions", [[["0", "1"], ["1", "0"]]]),
     "a policy whose actions is [[['0', '1'], ['1', '0']]], not an array of "
     "numbers"),
], ids=["missing", "unknown", "section-missing", "section-not-object",
        "bool-int", "float-int", "text-float", "bool-float", "null-float",
        "float-int-in-section", "bool-array", "text-array"])
def test_build_refuses_other_keys_and_types(edit, message):
    doc = _policy_doc()
    edit(doc)
    with pytest.raises(artifacts.ArtifactError, match=re.escape(message)):
        artifacts.build(Policy, doc)


def test_loading_names_the_path(tmp_path):
    path = tmp_path / "policy.json"
    doc = _policy_doc()
    doc["space"]["theta_step"] = -1.0
    path.write_text(json.dumps({"kind": "policy", **doc}))
    with pytest.raises(artifacts.ArtifactError, match=re.escape(
            f"{path} holds a malformed policy: need theta_min < theta_max")):
        artifacts.read_model(path, Policy)
    doc["space"]["theta_step"] = True
    path.write_text(json.dumps({"kind": "policy", **doc}))
    with pytest.raises(artifacts.ArtifactError, match=re.escape(
            f"{path} holds a policy space whose theta_step is True, not a number")):
        artifacts.read_model(path, Policy)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _regime_models(draw):
    m = draw(st.integers(2, 4))
    design = FourierDesign(draw(st.integers(0, 3)), draw(st.integers(0, 2)),
                           draw(st.integers(1, 48)), draw(st.integers(1, 9000)))
    return RegimeModel(m, design, draw(arrays(
        float, (2 * m - 1, design.n_features), elements=_FINITE)))


@st.composite
def _transition_models(draw):
    m = draw(st.integers(1, 3))
    grouping = draw(st.sampled_from(GROUPINGS))
    keys = draw(st.lists(st.sampled_from(_BUCKET_KEYS[grouping]), unique=True,
                         max_size=4))
    matrices = {}
    for key in keys:
        raw = draw(arrays(float, (m, m), elements=st.floats(1e-3, 1.0)))
        matrices[key] = raw / raw.sum(axis=1, keepdims=True)
    return TransitionModel(m, draw(st.floats(0.0, 10.0)), grouping, matrices)


@st.composite
def _policies(draw):
    step = draw(st.floats(0.125, 4.0))
    low = draw(st.floats(-50.0, 50.0))
    space = StateSpace(low, low + step * draw(st.integers(1, 6)), step,
                       m=draw(st.integers(1, 3)), a_max=draw(st.integers(1, 4)))
    actions = draw(arrays(np.int64, (draw(st.integers(1, 4)), space.n_theta,
                                     space.m),
                          elements=st.integers(0, space.a_max)))
    return Policy(actions, space, draw(st.integers(-10**6, 10**6)),
                  draw(st.none() | _FINITE))


def _same(a, b):
    """Equal values of equal types; arrays of one dtype and the same bytes."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


@settings(max_examples=150, deadline=None)
@given(st.one_of(_regime_models(), _transition_models(), _policies()),
       st.sampled_from([None, 1]))
def test_model_files_round_trip(tmp_path_factory, model, indent):
    # read_model gives back every field of the model write_model wrote, and
    # writing that again gives the same bytes
    path = tmp_path_factory.getbasetemp() / "model_property.json"
    artifacts.write_model(path, model, indent)
    written = path.read_bytes()
    back = artifacts.read_model(path, type(model))
    for f in dataclasses.fields(model):
        assert _same(getattr(back, f.name), getattr(model, f.name)), f.name
    artifacts.write_model(path, back, indent)
    assert path.read_bytes() == written
