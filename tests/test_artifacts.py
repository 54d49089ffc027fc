"""On-disk artifact writers: a failed write must leave the old file intact."""

import builtins
import errno
import os
import pathlib

import numpy as np
import pytest

from ttalab import artifacts, toydata
from ttalab.ood import EmbeddingSet
from ttalab.scoring import save_lexicon


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



class _TornFile:
    """A file open for writing whose first write stores half its text, then
    fails as a full disk would."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, text):
        self._fh.write(text[:len(text) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._fh, name)


@pytest.fixture
def tear_writes(monkeypatch):
    """`tear_writes(part)`: every write to a file whose name holds `part`
    stops part-way, whether it is opened by `open` or by `Path.open` (which
    `Path.write_text` calls)."""

    def tear(part):
        def torn(real_open):
            def opener(file, mode="r", *args, **kwargs):
                fh = real_open(file, mode, *args, **kwargs)
                if part in os.fspath(file) and set(mode) & set("wax+"):
                    return _TornFile(fh)
                return fh
            return opener

        monkeypatch.setattr(builtins, "open", torn(builtins.open))
        monkeypatch.setattr(pathlib.Path, "open", torn(pathlib.Path.open))

    return tear


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name, write", [
    ("neg.tsv", lambda path, n: save_lexicon(path, {"vile": 0.5, "cruel": n / 10})),
    ("ref.emb.txt", lambda path, n: EmbeddingSet(np.full((3, 4), n / 7.0)).save(path)),
], ids=["lexicon", "embeddings"])
def test_interrupted_write_keeps_old_file(tmp_path, tear_writes, name, write):
    path = tmp_path / name
    write(path, 1)
    before = _snapshot(tmp_path)
    tear_writes(name)
    with pytest.raises(OSError, match="No space left"):
        write(path, 2)
    assert _snapshot(tmp_path) == before


@pytest.fixture(scope="module")
def small_scenario(tmp_path_factory):
    directory = tmp_path_factory.mktemp("scenario") / "s"
    toydata.write_scenario(directory, seed=0, n_prompts=8, per_type=6)
    return directory


@pytest.mark.parametrize("name", ["prompts.txt", "fisher_corpus.txt", "trigger_0.tsv",
                                  "cue_race.tsv", "scenario.json", "model.json"])
def test_interrupted_scenario_write_keeps_old_files(small_scenario, tear_writes, name):
    before = _snapshot(small_scenario)
    tear_writes(name)
    with pytest.raises(OSError, match="No space left"):
        toydata.write_scenario(small_scenario, seed=0, n_prompts=8, per_type=6)
    assert _snapshot(small_scenario) == before
