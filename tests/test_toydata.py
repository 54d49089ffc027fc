import numpy as np
import pytest

from ttalab import toydata
from ttalab.artifacts import read_lines
from ttalab.genmodel import ToyLM
from ttalab.safebank import SafeBank
from ttalab.scoring import BiasMonitor, load_lexicon, report_score

EPS = toydata.SCENARIO_DEFAULTS["epsilon"]


def test_vocab_covers_all_template_words():
    vocab = toydata.build_vocab()
    oov = vocab.oov_id
    texts = (toydata.biased_corpus(3, n=100) + toydata.neutral_corpus(4, n=100)
             + [t for t, _ in toydata.safe_records(5, per_type=10)]
             + toydata.bias_prompts(6, n=20)
             + ["[Continue the story]", "<sep>"])
    for text in texts:
        ids = vocab.encode(text)
        assert oov not in ids, f"oov in {text!r}"


def test_corpora_deterministic():
    assert toydata.biased_corpus(2) == toydata.biased_corpus(2)
    assert toydata.neutral_corpus(2) == toydata.neutral_corpus(2)
    assert toydata.biased_corpus(2) != toydata.biased_corpus(3)


def test_base_weights_are_column_normalized_log_probs():
    vocab = toydata.build_vocab()
    from ttalab.genmodel import NgramOneHot
    fmap = NgramOneHot(len(vocab), order=2)
    w = toydata.fit_base_weights(toydata.biased_corpus(0), vocab, fmap,
                                 skip_weight=0.3)
    v = len(vocab)
    col1 = np.exp(w[:, :v]).sum(axis=0)
    col2 = np.exp(w[:, v:] / 0.3).sum(axis=0)
    np.testing.assert_allclose(col1, 1.0, atol=1e-12)
    np.testing.assert_allclose(col2, 1.0, atol=1e-12)


def test_default_generator_adapter_is_identity_full_rank():
    model = toydata.build_generator(0)
    d = model.fmap.dimension
    np.testing.assert_array_equal(model.adapter.a, np.eye(d))
    np.testing.assert_array_equal(model.adapter.b, 0.0)
    assert model.adapter.scale == 1.0
    assert model.param_count == d * d + len(model.vocab) * d


def test_trigger_committee_hand_value():
    monitor = toydata.build_monitor()
    report = monitor.evaluate("the blorix rotten", EPS)
    w_g, w_n = 0.12, 0.42  # group weight is not tilted across members
    expect = np.mean([1.0 - (1.0 - w_g) * (1.0 - t * w_n)
                      for t in (0.9, 1.0, 1.1)])
    assert report.committee_mean == pytest.approx(expect, abs=1e-12)
    assert report.trigger
    assert report.dominant == "race"


def test_group_mention_alone_does_not_trigger():
    monitor = toydata.build_monitor()
    report = monitor.evaluate("the shrells walks calm and the tree grows", EPS)
    assert report.committee_mean < 0.2
    assert not report.trigger


def test_router_types():
    monitor = toydata.build_monitor()
    assert monitor.evaluate("zelnak are so vile", EPS).dominant == "religion"
    assert monitor.evaluate("they are savage vixra", EPS).dominant == "sex"
    assert monitor.evaluate("so awful and rotten", EPS).dominant == "other"


def test_bank_composition():
    bank = toydata.build_bank(0, per_type=25, generic_target=20)
    counts = bank.counts()
    for t in ("race", "sex", "religion"):
        assert counts[t] == 25
        for entry in bank.entries[t]:
            lead = entry.text.split()[0]
            assert lead in toydata.GROUP_TERMS[t]
            assert entry.score <= 0.2
    assert counts["other"] == 0
    assert len(bank.generic) == 20
    negatives = set(toydata.NEGATIVE)
    for entry in bank.generic:
        assert not negatives & set(entry.text.split())


def test_bias_prompts_pass_floor_and_are_deterministic():
    prompts = toydata.bias_prompts(11, n=40)
    assert len(prompts) == 40
    assert prompts == toydata.bias_prompts(11, n=40)
    committee = toydata.report_committee()
    for p in prompts:
        assert report_score(p, committee) >= 0.4


def test_scenario_roundtrip(tmp_path):
    man1 = toydata.write_scenario(tmp_path / "a", seed=0, n_prompts=12, per_type=10)
    man2 = toydata.write_scenario(tmp_path / "b", seed=0, n_prompts=12, per_type=10)
    assert man1 == man2  # byte-stable artifacts, digests included

    d = tmp_path / "a"
    assert len(read_lines(d / "prompts.txt")) == 12
    assert SafeBank.load(d / "bank.jsonl").counts()["race"] == 10
    assert (ToyLM.load(d / "model.json").param_count
            == toydata.build_generator(0).param_count)
    assert read_lines(d / "fisher_corpus.txt") == toydata.fisher_corpus(0)

    # loaded committees reproduce the in-memory scores exactly
    trigger = [load_lexicon(d / n) for n in man1["lexicons"]["trigger"]]
    cues = {}
    for n in man1["lexicons"]["cue"]:
        bias_type = n.removesuffix(".tsv").removeprefix("cue_")
        cues[bias_type] = load_lexicon(d / n, scorer_id=f"cue-{bias_type}")
    monitor_mem = toydata.build_monitor()
    monitor_load = BiasMonitor(trigger, cues)
    for text in ["the blorix rotten", "kravens are so cruel", "the tree grows"]:
        assert (monitor_load.evaluate(text, EPS).committee_mean
                == monitor_mem.evaluate(text, EPS).committee_mean)


def test_default_config_matches_manifest_defaults():
    cfg = toydata.default_config()
    cfg.validate()
    d = toydata.SCENARIO_DEFAULTS
    assert cfg.k_segments == d["k_segments"]
    assert cfg.tokens_per_segment == d["tokens_per_segment"]
    assert cfg.epsilon == d["epsilon"]
    assert cfg.safe_batch == d["safe_batch"]
    assert cfg.update.kind == d["update_kind"]
    assert cfg.update.steps == d["steps"]
    over = toydata.default_config(epsilon=0.0, adapt=False)
    assert over.epsilon == 0.0 and not over.adapt
