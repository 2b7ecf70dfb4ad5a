import json
import os
import re
import stat

import pytest

from coolsched import artifacts


def _failing_rows():
    yield ["1", "2"]
    raise RuntimeError("disk full")


@pytest.mark.parametrize("write", [
    lambda path: artifacts.write_csv(path, ["a", "b"], _failing_rows()),
    lambda path: artifacts.write_json(path, {"a": 1, "b": object()}),
])
def test_failed_write_keeps_previous_file(tmp_path, write):
    path = tmp_path / "table"
    artifacts.write_json(path, {"kind": "old"})
    before = path.read_bytes()
    with pytest.raises((RuntimeError, TypeError)):
        write(path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["table"]


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
