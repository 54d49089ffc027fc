"""On-disk artifact writers: a failed write must leave the old file intact."""

import os

import pytest

from ttalab import artifacts


def _left_behind(directory, name):
    return sorted(p.name for p in directory.iterdir() if p.name != name)


def test_write_jsonl_failure_keeps_old_bytes(tmp_path):
    path = tmp_path / "records.jsonl"
    artifacts.write_jsonl(path, {"kind": "test"}, [{"x": 1}, {"x": 2}])
    before = path.read_bytes()
    with pytest.raises(TypeError):
        artifacts.write_jsonl(path, {"kind": "test"}, [{"x": 3}, {"x": object()}])
    assert path.read_bytes() == before
    assert _left_behind(tmp_path, path.name) == []


def test_write_json_failed_rename_removes_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    artifacts.write_json(path, {"a": 1})
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        artifacts.write_json(path, {"a": 2})
    assert path.read_bytes() == before
    assert _left_behind(tmp_path, path.name) == []

