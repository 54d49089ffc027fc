"""Safe bank ingest, sampling, alignment and persistence."""

import json

import numpy as np
import pytest

from helpers import FixedScorer, context_align
from ttalab.safebank import (
    BankExhaustedError,
    SafeBank,
    SafeEntry,
    ingest,
    sample_safe_batch,
)
from ttalab.scoring import LexiconScorer


def neutral_scorer():
    return FixedScorer("score0", default=0.0)


def test_filter_boundary():
    scorer = FixedScorer("sc", {"bad": 0.25, "edge": 0.2, "good": 0.1})
    bank = ingest([("bad", "race"), ("edge", "race"), ("good", "race")], scorer)
    texts = [e.text for e in bank.entries["race"]]
    assert "bad" not in texts          # 0.25 > 0.2 rejected
    assert set(texts) == {"edge", "good"}  # boundary kept
    assert bank.meta["rejected"] == 1


def test_cap_retains_exactly_800():
    records = [(f"race text {i}", "race") for i in range(1000)]
    bank = ingest(records, neutral_scorer())
    assert len(bank.entries["race"]) == 800


def test_small_cap_first_come_on_shuffled_stream():
    records = [(f"t{i}", "religion") for i in range(10)]
    a = ingest(records, neutral_scorer(), caps={"race": 3, "sex": 3, "religion": 3, "other": 3}, seed=5)
    b = ingest(records, neutral_scorer(), caps={"race": 3, "sex": 3, "religion": 3, "other": 3}, seed=5)
    c = ingest(records, neutral_scorer(), caps={"race": 3, "sex": 3, "religion": 3, "other": 3}, seed=6)
    assert [e.text for e in a.entries["religion"]] == [e.text for e in b.entries["religion"]]
    assert len(c.entries["religion"]) == 3
    # different seeds shuffle differently, so the retained subset can differ
    assert a.counts()["religion"] == 3


def test_empty_input_is_fine():
    bank = ingest([], neutral_scorer())
    assert bank.counts() == {"race": 0, "sex": 0, "religion": 0, "other": 0, "generic": 0}


def test_axis_mapping_and_warning_counter():
    scorer = neutral_scorer()
    bank = ingest([("a", "gender"), ("b", "GENDER"), ("c", "weird-axis")], scorer)
    assert len(bank.entries["sex"]) == 2
    assert [e.text for e in bank.entries["other"]] == ["c"]
    assert bank.meta["unmapped_axes"] == 1


def test_duplicate_texts_within_type_collapse():
    bank = ingest([("same", "race"), ("same", "race"), ("same", "sex")], neutral_scorer())
    assert len(bank.entries["race"]) == 1
    assert len(bank.entries["sex"]) == 1  # no dedup across types


def test_generic_tier_cap_and_no_filter():
    scorer = FixedScorer("sc", default=0.9)  # above typed filter
    bank = ingest([], scorer, generic_texts=[f"g{i}" for i in range(20)], generic_target=5)
    assert len(bank.generic) == 5  # generic tier is not filtered


# -- sampling ---------------------------------------------------------------


def stocked_bank():
    records = [(f"race entry {i}", "race") for i in range(6)]
    return ingest(records, neutral_scorer(),
                  generic_texts=[f"generic {i}" for i in range(4)], generic_target=4)


def test_sample_from_dominant_type():
    bank = stocked_bank()
    batch = sample_safe_batch(bank, "race", 2, np.random.default_rng(0))
    assert len(batch) == 2
    assert all(e.type == "race" for e in batch)
    assert len({e.text for e in batch}) == 2


def test_sample_deterministic_under_seed():
    bank = stocked_bank()
    a = sample_safe_batch(bank, "race", 3, np.random.default_rng(42))
    b = sample_safe_batch(bank, "race", 3, np.random.default_rng(42))
    assert [e.text for e in a] == [e.text for e in b]


def test_sample_falls_back_to_generic():
    bank = stocked_bank()  # sex bucket empty
    batch = sample_safe_batch(bank, "sex", 2, np.random.default_rng(1))
    assert all(e.type == "generic" for e in batch)
    # partially-filled bucket tops up
    records = [("one sex entry", "gender")]
    bank2 = ingest(records, neutral_scorer(), generic_texts=["g0", "g1"], generic_target=2)
    batch2 = sample_safe_batch(bank2, "sex", 2, np.random.default_rng(2))
    assert sorted(e.type for e in batch2) == ["generic", "sex"]


def test_sample_exhaustion_raises():
    bank = ingest([], neutral_scorer())
    with pytest.raises(BankExhaustedError):
        sample_safe_batch(bank, "race", 2, np.random.default_rng(0))
    small = ingest([("only", "race")], neutral_scorer())
    with pytest.raises(BankExhaustedError):
        sample_safe_batch(small, "race", 2, np.random.default_rng(0))


def test_sample_rejects_bad_args():
    bank = stocked_bank()
    with pytest.raises(ValueError):
        sample_safe_batch(bank, "colour", 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_safe_batch(bank, "race", 0, np.random.default_rng(0))


# -- context alignment ---------------------------------------------------------


def test_align_empty_history():
    assert context_align("", "a calm tale") == "<sep> a calm tale"


def test_align_reference_example():
    assert context_align("once upon", "a calm tale", separator="⟂") == "once upon ⟂ a calm tale"


def test_align_truncates_left():
    history = " ".join(f"w{i}" for i in range(300))
    out = context_align(history, "entry", max_len_update=256)
    words = out.split()
    assert len(words) == 256 + 2
    assert words[0] == "w44" and words[-2] == "<sep>"


def test_align_accepts_token_lists():
    assert context_align(["a", "b", "c"], "x", max_len_update=2) == "b c <sep> x"


# -- persistence -------------------------------------------------------------


def lexicon_bank(tmp_path=None):
    scorer = LexiconScorer("lex", {"grim": 0.5})
    records = [(f"fine text {i}", "race") for i in range(3)] + [("fine thing", "gender")]
    return ingest(records, scorer, generic_texts=["calm one", "calm two"],
                  generic_target=2, source_id="unit-test"), scorer


def test_save_load_roundtrip(tmp_path):
    bank, scorer = lexicon_bank()
    path = tmp_path / "bank.jsonl"
    bank.save(path)
    loaded = SafeBank.load(path)
    assert loaded.counts() == bank.counts()
    assert [e.text for e in loaded.entries["race"]] == [e.text for e in bank.entries["race"]]
    assert loaded.meta["source_id"] == "unit-test"
    # rescoring stored entries reproduces the cached scores exactly
    for t, entries in loaded.entries.items():
        for e in entries:
            assert scorer.score(e.text) == e.score


def test_reingest_of_saved_bank_is_identical(tmp_path):
    bank, scorer = lexicon_bank()
    path = tmp_path / "bank.jsonl"
    bank.save(path)
    loaded = SafeBank.load(path)
    records = [(e.text, e.type) for t in loaded.entries for e in loaded.entries[t]]
    again = ingest(records, scorer, generic_texts=[e.text for e in loaded.generic],
                   generic_target=2, source_id="unit-test")
    again.save(tmp_path / "bank2.jsonl")
    assert (tmp_path / "bank2.jsonl").read_text() == path.read_text()


def test_load_rejects_filter_violation(tmp_path):
    bank, _ = lexicon_bank()
    path = tmp_path / "bank.jsonl"
    bank.save(path)
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace('"score":0.0', '"score":0.9')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        SafeBank.load(path)


@pytest.mark.parametrize("line, old, new, named", [
    # a typed entry below the score range
    (1, '"score":0.0', '"score":-0.5', "'fine text 0'"),
    # a header filter other than SAFE_FILTER: above the range, or within it
    (0, '"filter":0.2', '"filter":1.5', "bank filter 1.5"),
    (0, '"filter":0.2', '"filter":0.9', "bank filter 0.9"),
], ids=["entry-score", "header-filter", "header-filter-in-range"])
def test_load_applies_the_safe_set_range(tmp_path, line, old, new, named):
    bank, _ = lexicon_bank()
    path = tmp_path / "bank.jsonl"
    bank.save(path)
    lines = path.read_text().splitlines()
    assert old in lines[line]
    lines[line] = lines[line].replace(old, new)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        SafeBank.load(path)
    assert named in str(err.value) and str(path) not in str(err.value)


@pytest.mark.parametrize("text", ["", "   ", 5], ids=["empty", "blank", "int"])
def test_entry_text_needs_a_word(tmp_path, text):
    """An entry trains on one token per word, so a text with no word is
    refused wherever an entry is made: directly, at ingest and at load."""
    with pytest.raises(ValueError, match="at least one word"):
        SafeEntry(text, "race", 0.0)
    if isinstance(text, str):
        with pytest.raises(ValueError, match="at least one word"):
            ingest([(text, "race")], neutral_scorer())
        with pytest.raises(ValueError, match="at least one word"):
            ingest([], neutral_scorer(), generic_texts=[text])
    bank, _ = lexicon_bank()
    path = tmp_path / "bank.jsonl"
    bank.save(path)
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace('"text":"fine text 0"', json.dumps({"text": text})[1:-1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="at least one word") as err:
        SafeBank.load(path)
    assert str(path) not in str(err.value)
    # a word outside any vocabulary is one `<unk>` token, so it stays legal
    assert SafeEntry("zzyzx", "race", 0.0).text == "zzyzx"


@pytest.mark.parametrize("edit", [
    lambda lines: [lines[0].replace('"race":3', '"race":999'), *lines[1:]],
    lambda lines: lines[:-1],
], ids=["header", "lost-line"])
def test_load_refuses_counts_that_differ_from_the_entries(tmp_path, edit):
    """The header's `counts` restate the entries, so they must agree."""
    bank, _ = lexicon_bank()
    path = tmp_path / "bank.jsonl"
    bank.save(path)
    lines = path.read_text().splitlines()
    assert '"race":3' in lines[0]
    path.write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(ValueError, match="stored counts"):
        SafeBank.load(path)


def test_load_rejects_wrong_kind(tmp_path):
    p = tmp_path / "junk.jsonl"
    p.write_text('{"kind": "other", "format_version": 1}\n')
    with pytest.raises(ValueError):
        SafeBank.load(p)
