"""Fisher estimation and the damped preconditioner."""

import json
import re

import numpy as np
import pytest

from helpers import BernoulliModel, ZeroFeatureMap, brute_force_fisher, tiny_model
from ttalab.artifacts import decode_array, encode_array
from ttalab.genmodel import AdapterParams, ToyLM, Vocabulary
from ttalab.oracle import SequenceSpace
from ttalab.precond import (
    DigestMismatchError,
    EstimationError,
    Preconditioner,
    build_preconditioner,
    estimate_diag_fisher,
)


# -- build_preconditioner -------------------------------------------------------


def fake_estimate(diag):
    from ttalab.precond import FisherDiagEstimate
    diag = np.asarray(diag, dtype=np.float64)
    return FisherDiagEstimate(diag=diag, sample_count=10, n_steps=5, batch_size=2,
                              continuation_tokens=4, corpus_digest="c", model_digest="m",
                              seed=0)


def test_build_worked_example():
    pre = build_preconditioner(fake_estimate([1.0, 3.0]), damping=1.0)
    np.testing.assert_allclose(pre.diag, [0.5, 0.25], atol=1e-15)


def test_build_zero_fisher_hits_damping_ceiling():
    pre = build_preconditioner(fake_estimate(np.zeros(4)), damping=1e-4)
    np.testing.assert_allclose(pre.diag, 1e4 * np.ones(4), atol=1e-9)


def test_build_identity_and_range():
    rng = np.random.default_rng(1)
    diag = rng.uniform(0.0, 5.0, size=64)
    pre = build_preconditioner(fake_estimate(diag), damping=1e-4)
    np.testing.assert_allclose(pre.diag * (diag + 1e-4), np.ones(64), atol=1e-12)
    assert np.all(pre.diag > 0) and np.all(pre.diag <= 1e4 + 1e-9)
    # entrywise monotone: larger Fisher, smaller preconditioner entry
    order = np.argsort(diag)
    assert np.all(np.diff(pre.diag[order]) <= 1e-15)


def test_build_rejects_bad_damping():
    with pytest.raises(ValueError):
        build_preconditioner(fake_estimate([1.0]), damping=0.0)


# -- estimate_diag_fisher ----------------------------------------------------------


def test_zero_gradient_model_gives_zero_fisher():
    vocab = Vocabulary(["a", "b", "c"])
    fmap = ZeroFeatureMap(6)
    adapter = AdapterParams(np.ones((2, 6)), np.ones((len(vocab), 2)), alpha=2.0)
    model = ToyLM(vocab, np.zeros((len(vocab), 6)), adapter, fmap)
    est = estimate_diag_fisher(model, [[0], [1]], n_steps=4, batch_size=2,
                               continuation_tokens=3, seed=0)
    np.testing.assert_array_equal(est.diag, np.zeros(model.param_count))


def test_bernoulli_estimate_within_three_se():
    model = BernoulliModel(phi=0.8473)
    exact = model.exact_fisher()
    samples = 20_000
    est = estimate_diag_fisher(model, [[]], n_steps=samples // 2, batch_size=2,
                               continuation_tokens=1, seed=7)
    assert est.sample_count == samples
    # squared-score variance for the 3-SE band, from the two-point law
    p = model.p1
    second = p * (1 - p) ** 4 + (1 - p) * p ** 4
    se = np.sqrt((second - exact ** 2) / samples)
    assert abs(est.diag[0] - exact) <= 3 * se


def test_estimate_deterministic_under_seed():
    model = tiny_model(seed=3)
    a = estimate_diag_fisher(model, ["w0 w1", "w2"], n_steps=6, batch_size=2,
                             continuation_tokens=3, seed=11)
    b = estimate_diag_fisher(model, ["w0 w1", "w2"], n_steps=6, batch_size=2,
                             continuation_tokens=3, seed=11)
    assert a.diag.tobytes() == b.diag.tobytes()
    assert a.corpus_digest == b.corpus_digest


def test_estimate_empty_corpus_errors():
    with pytest.raises(EstimationError):
        estimate_diag_fisher(tiny_model(), [], n_steps=2, batch_size=2,
                             continuation_tokens=2)


def test_empirical_mode_uses_corpus_targets():
    model = tiny_model(seed=5)
    est = estimate_diag_fisher(model, ["w0 w1 w2"], n_steps=3, batch_size=1,
                               continuation_tokens=8, seed=0, empirical=True)
    # every step sees the same (context, target) pair, so the mean of squares
    # equals any single sample's squared score
    score = -model.adapter_gradient([([], model.vocab.encode("w0 w1 w2"))])[1]
    np.testing.assert_allclose(est.diag, score * score, atol=1e-12)
    assert est.empirical


# -- exact Fisher by enumeration ---------------------------------------------------


def test_exact_fisher_matches_bernoulli_closed_form():
    # the brute-force oracle that the SequenceSpace Fisher is checked against
    model = BernoulliModel(phi=-0.35)
    full = brute_force_fisher(model, [], length=1)
    assert full[0, 0] == pytest.approx(model.exact_fisher(), abs=1e-12)
    # multi-step continuations add independent positions: Fisher scales by T
    full3 = brute_force_fisher(model, [], length=3)
    assert full3[0, 0] == pytest.approx(3 * model.exact_fisher(), abs=1e-10)


def test_exact_fisher_full_matches_diag():
    space = SequenceSpace(tiny_model(seed=9, vocab_size=3), [0], length=2)
    full = space.fisher_full()
    np.testing.assert_allclose(np.diag(full), space.fisher_diag(), atol=1e-10)
    np.testing.assert_allclose(full, full.T, atol=1e-12)


def test_exact_fisher_degenerate_distribution_is_flat():
    # one token takes essentially all probability mass: the score variance
    # collapses
    model = tiny_model(seed=1, vocab_size=3, w_scale=0.0)
    w = np.zeros_like(model.w_base)
    w[1, :] = 40.0
    model = ToyLM(model.vocab, w, model.initial_adapter, model.fmap)
    diag = SequenceSpace(model, [1, 1], length=2).fisher_diag()
    assert float(np.max(np.abs(diag))) < 1e-8


def test_mc_estimate_approaches_exact():
    model = tiny_model(seed=13, vocab_size=4)
    contexts = [[0, 1], [2], [3, 3]]
    exact = np.mean([SequenceSpace(model, c, length=2).fisher_diag() for c in contexts],
                    axis=0)
    est = estimate_diag_fisher(model, contexts, n_steps=5000, batch_size=2,
                               continuation_tokens=2, seed=3)
    top = exact > 0.05 * exact.max()
    rel = np.abs(est.diag[top] - exact[top]) / exact[top]
    assert float(np.median(rel)) < 0.15


def test_enumeration_budget_guard():
    model = tiny_model(seed=0, vocab_size=12)
    with pytest.raises(ValueError):
        SequenceSpace(model, [0], length=8, budget=10 ** 5)


# -- persistence ---------------------------------------------------------------------


def test_precond_roundtrip_and_digest_guard(tmp_path):
    model = tiny_model(seed=21)
    est = estimate_diag_fisher(model, ["w0 w1"], n_steps=4, batch_size=2,
                               continuation_tokens=2, seed=1)
    pre = build_preconditioner(est, damping=1e-4)
    path = tmp_path / "precond.json"
    pre.save(path)
    loaded = Preconditioner.load(path, model=model)
    assert loaded.diag.tobytes() == pre.diag.tobytes()
    assert loaded.fisher_diag.tobytes() == pre.fisher_diag.tobytes()
    assert loaded.meta["corpus_digest"] == est.corpus_digest
    loaded.save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    other = tiny_model(seed=22)
    with pytest.raises(DigestMismatchError):
        Preconditioner.load(path, model=other)


def test_check_model_needs_matching_size_and_digest(monkeypatch):
    model = tiny_model(seed=21)
    est = estimate_diag_fisher(model, ["w0 w1"], n_steps=2, batch_size=2,
                               continuation_tokens=2, seed=1)
    pre = build_preconditioner(est, damping=1e-4)
    pre.check_model(model)
    del pre.meta["model_digest"]
    with pytest.raises(DigestMismatchError, match="different model"):
        pre.check_model(model)
    # a wrong size fails before the model is digested
    small = build_preconditioner(fake_estimate(np.ones(3)), damping=1e-4)
    monkeypatch.setattr(ToyLM, "model_digest", lambda self: pytest.fail("digested"))
    with pytest.raises(DigestMismatchError, match="parameter count"):
        small.check_model(model)


def _nudge(doc, key, value=None):
    """`doc` with entry 1 of the stored array `key` moved one ulp up, or set
    to `value`."""
    a = decode_array(doc[key])
    a[1] = np.nextafter(a[1], np.inf) if value is None else value
    return {**doc, key: encode_array(a)}


def _short(doc):
    """n and P one entry short, consistent with each other but not with F."""
    diag = decode_array(doc["diag"])[:-1]
    return {**doc, "n": diag.size, "diag": encode_array(diag)}


@pytest.mark.parametrize("tamper, named", [
    pytest.param(lambda d: _nudge(d, "diag"), "stored diag is not", id="diag-entry"),
    pytest.param(_short, "stored n=2", id="n"),
    pytest.param(lambda d: {**d, "damping": 0.0}, "damping must be", id="damping-zero"),
    pytest.param(lambda d: _nudge(d, "fisher_diag", -1e-3), "non-negative",
                 id="fisher-negative"),
    pytest.param(lambda d: _nudge(d, "fisher_diag", np.nan), "must be finite",
                 id="fisher-nan"),
])
def test_precond_load_refuses_a_disagreeing_artifact(tmp_path, tamper, named):
    """Each disagreement is refused with its own message; the file name is
    the caller's to add (`ttalab run` names it once, see the artifact sweep)."""
    path = tmp_path / "precond.json"
    build_preconditioner(fake_estimate([0.5, 2.0, 0.0]), damping=1e-4).save(path)
    Preconditioner.load(path)
    path.write_text(json.dumps(tamper(json.loads(path.read_text()))))
    with pytest.raises(ValueError, match=re.escape(named)) as err:
        Preconditioner.load(path)
    assert str(path) not in str(err.value)


def test_precond_load_rejects_wrong_kind(tmp_path):
    p = tmp_path / "x.json"
    p.write_text('{"kind": "other"}')
    with pytest.raises(ValueError):
        Preconditioner.load(p)
