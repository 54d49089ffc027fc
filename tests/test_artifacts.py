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


@pytest.mark.parametrize("name, write", [
    ("doc.json", lambda path, n: artifacts.write_json(path, {"a": n})),
    ("rows.jsonl", lambda path, n: artifacts.write_jsonl(path, {"kind": "t"}, [{"a": n}])),
    ("summary.tsv", lambda path, n: artifacts.write_text(path, f"a\t{n}\n")),
], ids=["json", "jsonl", "text"])
def test_write_json_failed_rename_removes_temp_file(tmp_path, monkeypatch, name, write):
    path = tmp_path / name
    write(path, 1)
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write(path, 2)
    assert path.read_bytes() == before
    assert _left_behind(tmp_path, path.name) == []

