"""The episodic adaptation loop: triggering, updates, drift, and records."""

import numpy as np
import pytest

from helpers import context_align, reference_update_round
from ttalab.genmodel import NgramOneHot, ToyLM, Vocabulary, init_adapter
from ttalab.metrics import perplexity
from ttalab.optim import AdamWState, UpdateRuleConfig
from ttalab.precond import DigestMismatchError, build_preconditioner, estimate_diag_fisher
from ttalab.safebank import ingest
from ttalab.scoring import (
    BiasMonitor,
    CallLedger,
    LexiconScorer,
    ScoreReport,
    ScoringError,
)
from ttalab.tta import (
    EpisodeConfig,
    EpisodeRecord,
    _update_round,
    aligned_pairs,
    drift_report,
    load_episodes,
    run_episode,
    save_episodes,
    trigger_curve,
)


WORDS = ["blorix", "bad", "awful", "calm", "tree", "river", "walk", "sun", "<sep>"]
NEUTRAL = ["calm tree river walk", "sun walk river calm", "tree sun calm walk",
           "river calm sun tree", "walk tree sun river"]


def biased_model(seed=0):
    """Small generator that keeps steering toward the cue and negative words."""
    vocab = Vocabulary(WORDS)
    fmap = NgramOneHot(len(vocab), order=2)
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 0.05, size=(len(vocab), fmap.dimension))
    idx = {t: vocab.encode(t)[0] for t in WORDS}

    def bump(tok, prev, val):
        w[idx[tok], idx[prev]] += val  # first block: conditioning on last token

    bump("bad", "blorix", 2.5)
    bump("awful", "blorix", 2.0)
    bump("awful", "bad", 2.0)
    bump("bad", "awful", 1.5)
    for prev in ("calm", "tree", "river", "walk", "sun"):
        bump("blorix", prev, 1.5)
    adapter = init_adapter(rng, len(vocab), fmap.dimension, rank=4, alpha=8.0)
    return ToyLM(vocab, w, adapter, fmap)


def trigger_monitor():
    scorers = [
        LexiconScorer("trig-a", {"bad": 0.6, "awful": 0.7, "blorix": 0.15}),
        LexiconScorer("trig-b", {"bad": 0.5, "awful": 0.6, "blorix": 0.1}),
        LexiconScorer("trig-c", {"bad": 0.7, "awful": 0.8, "blorix": 0.2}),
    ]
    return BiasMonitor(scorers, {"race": LexiconScorer("cue-race", {"blorix": 1.0})})


def safe_bank():
    records = [(t, "race") for t in NEUTRAL] + [(t, "religion") for t in NEUTRAL[:3]]
    scorer = LexiconScorer("filter", {"bad": 0.9, "awful": 0.9})
    return ingest(records, scorer, generic_texts=NEUTRAL, generic_target=5, seed=1)


def fitted_preconditioner(model, seed=3):
    est = estimate_diag_fisher(model, NEUTRAL, n_steps=4, batch_size=2,
                               continuation_tokens=6, seed=seed)
    return build_preconditioner(est, damping=1e-4)


def small_config(**kw):
    base = dict(k_segments=4, tokens_per_segment=10, epsilon=0.3, safe_batch=2)
    base.update(kw)
    cfg = EpisodeConfig(**base)
    cfg.update.steps = 5
    return cfg


class ScriptedMonitor:
    """Plays back a fixed score sequence regardless of the text."""

    def __init__(self, scores, fail_at=None):
        self.scores = list(scores)
        self.fail_at = fail_at
        self.calls = 0

    def evaluate(self, text, epsilon):
        i = self.calls
        self.calls += 1
        if self.fail_at is not None and i == self.fail_at:
            raise ScoringError("scripted", "scripted outage")
        s = self.scores[i % len(self.scores)]
        trig = s > epsilon
        return ScoreReport(committee_mean=s,
                           triggered_types=("race", "other") if trig else (),
                           dominant="race", trigger=trig)


# -- config and trigger plumbing -------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(k_segments=0).validate()
    with pytest.raises(ValueError):
        small_config(epsilon=1.5).validate()
    with pytest.raises(ValueError):
        small_config(safe_batch=0).validate()
    cfg = small_config()
    cfg.update.kind = "nope"
    with pytest.raises(ValueError):
        cfg.validate()


def test_trigger_curve_monotone():
    scores = [0.70, 0.29, 0.32, 0.29]
    eps_grid = np.linspace(0.0, 1.0, 21)
    counts = trigger_curve(scores, eps_grid)
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert trigger_curve(scores, [0.3]) == [2]


@pytest.mark.parametrize("adapt", [True, False], ids=["adapt", "static"])
@pytest.mark.parametrize("epsilon", [0.0, 0.3, 0.9])
def test_one_threshold_gates_trigger_and_routing(epsilon, adapt):
    model = biased_model()
    cfg = small_config(epsilon=epsilon, multi_trigger=True, adapt=adapt)
    monitor = trigger_monitor()
    scored = []
    for i, prompt in enumerate(["calm walk", "blorix tree", "sun river"]):
        rec = run_episode(prompt, model, monitor, safe_bank(),
                          fitted_preconditioner(model), cfg, rng=20 + i)
        scored += [s for s in rec.segments if s.trigger_score is not None]
    assert scored
    for s in scored:
        # the catch-all type carries the committee mean, so some type is
        # routed exactly when the mean clears the episode's threshold
        assert bool(s.triggered_types) == (s.trigger_score > cfg.epsilon)
        if adapt:
            assert s.triggered == (s.trigger_score > cfg.epsilon)
        else:
            assert not s.triggered


@pytest.mark.parametrize("adapt", [True, False], ids=["adapt", "static"])
def test_episode_never_touches_report_path(adapt):
    model = biased_model()
    plain = trigger_monitor()
    ledger = CallLedger()
    monitor = BiasMonitor(plain.trigger_scorers, plain.cue_scorers, ledger=ledger)
    rec = run_episode("calm walk", model, monitor, safe_bank(),
                      fitted_preconditioner(model), small_config(adapt=adapt), rng=11)
    scored = [s for s in rec.segments if s.trigger_score is not None]
    assert len(scored) == len(rec.segments)
    assert any(s.rounds for s in rec.segments) == adapt
    assert ledger.count("report") == 0
    assert ledger.count("trigger") == len(scored) * len(plain.trigger_scorers)
    assert ledger.count("routing") == len(scored) * len(plain.cue_scorers)
    assert ledger.count() == ledger.count("trigger") + ledger.count("routing")


def test_scripted_trigger_pattern():
    model = biased_model()
    monitor = ScriptedMonitor([0.70, 0.29, 0.32, 0.29])
    rec = run_episode("calm walk", model, monitor, safe_bank(),
                      fitted_preconditioner(model), small_config(), rng=11)
    assert [s.triggered for s in rec.segments] == [True, False, True, False]
    assert rec.trigger_rate == 0.5


# -- episode behavior ---------------------------------------------------------------


def test_epsilon_one_matches_static_run():
    model = biased_model()
    bank = safe_bank()
    pre = fitted_preconditioner(model)
    monitor = trigger_monitor()
    rec_off = run_episode("calm walk", model, monitor, bank, pre,
                          small_config(epsilon=1.0), rng=5)
    texts_off = [s.text for s in rec_off.segments]
    assert all(not s.triggered for s in rec_off.segments)
    assert rec_off.final_drift == 0.0
    np.testing.assert_array_equal(model.adapter_flat(),
                                  model.initial_adapter.phi)
    rec_static = run_episode("calm walk", model, monitor, bank, pre,
                             small_config(adapt=False), rng=5)
    assert [s.text for s in rec_static.segments] == texts_off


def test_updates_fire_and_reduce_loss():
    model = biased_model()
    rec = run_episode("calm walk", model, trigger_monitor(), safe_bank(),
                      fitted_preconditioner(model), small_config(), rng=11)
    triggered = [s for s in rec.segments if s.triggered]
    assert triggered, "scenario is built to trigger at least once"
    assert all(s.routed_type == "race" for s in triggered)
    round0 = triggered[0].rounds[0]
    assert len(round0.losses) == 5 and len(round0.delta_norms) == 5
    # the safe-batch objective goes down over the round on this fixed seed
    assert round0.losses[-1] < round0.losses[0]
    assert all(n <= 0.25 + 1e-12 for s in rec.segments
               for r in s.rounds for n in r.delta_norms)


@pytest.mark.parametrize("kind", ["precond", "sgd", "adamw"])
def test_update_round_matches_per_step_reference(kind):
    model = biased_model()
    pre_diag = fitted_preconditioner(model).diag
    entries = safe_bank().entries["race"][:2]
    pairs = aligned_pairs(model.vocab.encode("blorix bad awful"), entries, model.vocab)
    # the default clip_coef of 1.0 clips every step here (raw norms 1.5-3.7),
    # and the preconditioned steps also hit the 0.25 cap
    cfg = UpdateRuleConfig(kind=kind, steps=6)
    phi0 = model.adapter_flat()
    ref = model.clone()
    texts = [e.text for e in entries]
    got = _update_round(model, pairs, cfg, phi0, pre_diag,
                        AdamWState.zeros(model.param_count), "race", texts)
    losses, grad_norms, delta_norms = reference_update_round(ref, pairs, cfg, phi0,
                                                             pre_diag)
    assert (got.routed_type, got.entry_texts) == ("race", texts)
    assert got.losses == losses
    assert got.grad_norms == grad_norms
    assert got.delta_norms == delta_norms
    np.testing.assert_array_equal(model.adapter_flat(), ref.adapter_flat())


def test_drift_ledger_and_monotonicity():
    model = biased_model()
    cfg = small_config()
    rec = run_episode("calm walk", model, trigger_monitor(), safe_bank(),
                      fitted_preconditioner(model), cfg, rng=11)
    rep = drift_report(rec, cfg.update.max_delta_norm)
    assert rep.ok
    assert rep.final_drift <= rep.delta_norm_sum + 1e-9
    assert rep.delta_norm_sum <= 0.25 * 5 * sum(len(s.rounds) for s in rec.segments) + 1e-9
    # drift only moves at triggered segments
    prev = 0.0
    for seg in rec.segments:
        if seg.triggered and seg.rounds:
            assert seg.drift_norm >= prev - 1e-12
        else:
            assert seg.drift_norm == pytest.approx(prev, abs=1e-15)
        prev = seg.drift_norm
    assert rep.trigger_count == sum(s.triggered for s in rec.segments)


def test_scorer_failure_downgrades_segment():
    model = biased_model()
    monitor = ScriptedMonitor([0.9, 0.9, 0.9, 0.9], fail_at=1)
    rec = run_episode("calm walk", model, monitor, safe_bank(),
                      fitted_preconditioner(model), small_config(), rng=7)
    assert "scorer_failure" in rec.flags
    bad = rec.segments[1]
    assert bad.trigger_score is None and not bad.triggered and bad.rounds == []
    assert len(rec.segments) == 4  # episode survives the outage


def test_empty_bank_skips_update():
    model = biased_model()
    scorer = LexiconScorer("filter", {"bad": 0.9})
    # religion bucket only; race triggers find nothing, generic tier empty
    bank = ingest([(t, "religion") for t in NEUTRAL], scorer, generic_target=0)
    rec = run_episode("calm walk", model, trigger_monitor(), bank,
                      fitted_preconditioner(model), small_config(), rng=11)
    assert "bank_empty" in rec.flags
    assert rec.final_drift == 0.0
    assert all(s.rounds == [] for s in rec.segments)


def test_multi_trigger_rounds_in_type_order():
    model = biased_model()
    monitor = ScriptedMonitor([0.9, 0.0, 0.0, 0.0])
    cfg = small_config(multi_trigger=True)
    rec = run_episode("calm walk", model, monitor, safe_bank(),
                      fitted_preconditioner(model), cfg, rng=13)
    rounds = rec.segments[0].rounds
    assert [r.routed_type for r in rounds] == ["race", "other"]


def test_determinism_modulo_timing():
    def one_run():
        model = biased_model()
        rec = run_episode("calm walk", model, trigger_monitor(), safe_bank(),
                          fitted_preconditioner(model), small_config(), rng=11)
        d = rec.to_record()
        d.pop("timing")
        return d

    assert one_run() == one_run()


def test_digest_guard_rejects_foreign_preconditioner():
    model = biased_model(seed=0)
    other = biased_model(seed=99)
    pre = fitted_preconditioner(other)
    with pytest.raises(DigestMismatchError):
        run_episode("calm walk", model, trigger_monitor(), safe_bank(), pre,
                    small_config(), rng=3)
    # non-preconditioned rules never consult the artifact
    cfg = small_config()
    cfg.update.kind = "sgd"
    run_episode("calm walk", model, trigger_monitor(), safe_bank(), None, cfg, rng=3)


def test_digest_guard_rejects_preconditioner_naming_no_model():
    model = biased_model(seed=0)
    pre = fitted_preconditioner(model)
    del pre.meta["model_digest"]
    with pytest.raises(DigestMismatchError):
        run_episode("calm walk", model, trigger_monitor(), safe_bank(), pre,
                    small_config(), rng=3)


def test_reset_restores_probe_perplexity():
    model = biased_model()
    probes = NEUTRAL * 3 + ["calm sun", "walk walk river"]  # 17 probes, plenty
    before = [perplexity(t, model) for t in probes]
    run_episode("calm walk", model, trigger_monitor(), safe_bank(),
                fitted_preconditioner(model), small_config(), rng=11)
    model.reset_adapter()
    after = [perplexity(t, model) for t in probes]
    assert after == before  # bit-exact float equality
    model.reset_adapter()
    assert [perplexity(t, model) for t in probes] == before  # idempotent


def test_aligned_pairs_matches_string_alignment():
    from ttalab.safebank import SafeEntry

    model = biased_model()
    history = model.vocab.encode("calm tree river walk sun tree calm")
    entry = SafeEntry(text="river calm sun", type="race", score=0.0)
    pairs = aligned_pairs(history, [entry], model.vocab)
    ctx, tgt = pairs[0]
    joined = model.vocab.decode(ctx) + " " + model.vocab.decode(tgt)
    want = context_align("calm tree river walk sun tree calm", entry.text)
    assert joined == want


def test_record_roundtrip(tmp_path):
    model = biased_model()
    rec = run_episode("calm walk", model, trigger_monitor(), safe_bank(),
                      fitted_preconditioner(model), small_config(), rng=11,
                      prompt_id="p0")
    path = tmp_path / "episodes.jsonl"
    save_episodes(path, [rec], meta={"run": "unit"})
    header, back = load_episodes(path)
    assert header["run"] == "unit"
    assert back[0].to_record() == rec.to_record()
    assert isinstance(back[0], EpisodeRecord)
    raw = rec.to_record()
    assert EpisodeRecord.from_record(raw).to_record() == rec.to_record()
    assert raw == rec.to_record()  # the argument is left as it was
    path2 = tmp_path / "bad.jsonl"
    path2.write_text('{"kind": "something-else", "format_version": 1}\n')
    with pytest.raises(ValueError):
        load_episodes(path2)
