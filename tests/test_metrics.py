"""Perplexity, fluency, DiD, the paired t-test, kappa, and run summaries."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from ttalab.genmodel import AdapterParams, NgramOneHot, ToyLM, Vocabulary
from ttalab.metrics import (
    SUMMARY_COLUMNS,
    aggregate_run,
    did_series,
    did_single,
    fleiss_kappa,
    fluency,
    paired_t_test,
    perplexity,
    summary_table,
)


class CannedModel:
    """Fixed total log-probability regardless of the target."""

    def __init__(self, total_logp):
        self.total = total_logp

    def sequence_log_prob(self, target, history=()):
        return self.total


def uniform_model(n_words=3):
    vocab = Vocabulary([f"w{i}" for i in range(n_words)])
    fmap = NgramOneHot(len(vocab), order=2)
    w = np.zeros((len(vocab), fmap.dimension))
    adapter = AdapterParams(np.zeros((1, fmap.dimension)), np.zeros((len(vocab), 1)))
    return ToyLM(vocab, w, adapter, fmap)


# -- perplexity -------------------------------------------------------------------


def test_perplexity_uniform_is_vocab_size():
    model = uniform_model()  # 3 words plus the unknown marker
    assert abs(perplexity("w0 w1 w2", model) - 4.0) < 1e-12
    assert abs(perplexity([0, 0, 0, 0], model) - 4.0) < 1e-12


def test_perplexity_hand_values():
    assert perplexity([5, 7], CannedModel(0.0)) == 1.0
    got = perplexity([5, 7], CannedModel(math.log(0.5) + math.log(0.25)))
    assert abs(got - 2.0 * math.sqrt(2.0)) < 1e-12


def test_perplexity_zero_probability_sentinel():
    assert perplexity([1], CannedModel(-math.inf)) == math.inf
    # finite but overflow-level NLL also collapses to the sentinel
    assert perplexity([1], CannedModel(-800.0)) == math.inf
    with pytest.raises(ValueError):
        perplexity([], CannedModel(0.0))


# -- fluency ----------------------------------------------------------------------


def test_fluency_fixed_points():
    assert fluency(1.0) == 1.0
    assert abs(fluency(math.e) - 0.5) < 1e-15
    assert abs(fluency(20.0) - 0.2503) < 1e-4
    assert fluency(math.inf) == 0.0


def test_fluency_monotone_and_bounded():
    ppls = np.linspace(1.0, 50.0, 200)
    vals = [fluency(p) for p in ppls]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        fluency(0.5)


# -- DiD --------------------------------------------------------------------------


def test_did_hand_values():
    assert did_single([0.5, 0.3], [0.5, 0.4], 1) == pytest.approx(-0.1)
    assert did_single([0.4, 0.2, 0.6], [0.4, 0.2, 0.6], 2) == 0.0


def test_did_level_invariance():
    rng = np.random.default_rng(0)
    p = rng.uniform(size=5).tolist()
    b = rng.uniform(size=5).tolist()
    base = did_single(p, b, 3)
    shifted = did_single([x + 0.7 for x in p], [x + 0.7 for x in b], 3)
    assert abs(base - shifted) < 1e-12


def test_did_series_excludes_incomplete_prompts():
    system = {"a": [0.5, 0.3], "b": [0.5], "c": [0.2, 0.1], "d": [0.3, 0.2]}
    baseline = {"a": [0.5, 0.4], "b": [0.5, 0.5], "c": [0.2, None], "e": [0.1, 0.1]}
    diffs, excluded = did_series(system, baseline, 1)
    np.testing.assert_allclose(diffs, [-0.1], atol=1e-12)
    # b lacks segment 1 on one side, c has a hole, d and e are unpaired
    assert excluded == 4


# -- paired t-test ------------------------------------------------------------------


def test_t_test_hand_instance():
    res = paired_t_test([1.0, 1.0, 1.0, -1.0])
    # mean 0.5, sample sd 1, so t = 0.5 / (1/2) = 1 on 3 dof
    assert abs(res.statistic - 1.0) < 1e-12
    assert res.dof == 3 and not res.degenerate
    ref = sps.ttest_1samp([1.0, 1.0, 1.0, -1.0], 0.0)
    assert abs(res.p_value - ref.pvalue) < 1e-10


def test_t_test_matches_library_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = rng.normal(0.1, 1.0, size=rng.integers(3, 40))
        mine = paired_t_test(d)
        ref = sps.ttest_1samp(d, 0.0)
        assert abs(mine.statistic - ref.statistic) < 1e-10
        assert abs(mine.p_value - ref.pvalue) < 1e-10


def test_t_test_sign_flip_and_degenerate():
    d = np.array([0.3, -0.2, 0.5, 0.1])
    a, b = paired_t_test(d), paired_t_test(-d)
    assert abs(a.statistic + b.statistic) < 1e-12
    assert abs(a.p_value - b.p_value) < 1e-12
    res = paired_t_test([0.0, 0.0, 0.0])
    assert res.degenerate and math.isnan(res.p_value)
    with pytest.raises(ValueError):
        paired_t_test([1.0])


# -- Fleiss' kappa ------------------------------------------------------------------


def test_fleiss_hand_value():
    res = fleiss_kappa([["Y", "Y", "N"], ["N", "N", "Y"]])
    assert abs(res.kappa - (-1.0 / 3.0)) < 1e-12
    assert abs(res.p_bar - 1.0 / 3.0) < 1e-12
    assert abs(res.p_expected - 0.5) < 1e-12


def test_fleiss_unanimous_and_degenerate():
    res = fleiss_kappa([["Y", "Y", "Y"], ["N", "N", "N"]])
    assert res.kappa == 1.0
    res = fleiss_kappa([["Y", "Y"], ["Y", "Y"], ["Y", "Y"]])
    assert res.undefined and math.isnan(res.kappa)


def test_fleiss_relabel_invariance():
    rng = np.random.default_rng(2)
    rows = [[str(v) for v in rng.integers(0, 3, size=5)] for _ in range(12)]
    swapped = [["XYZ"[int(v)] for v in r] for r in rows]
    a, b = fleiss_kappa(rows), fleiss_kappa(swapped)
    assert abs(a.kappa - b.kappa) < 1e-12


def test_fleiss_validation():
    with pytest.raises(ValueError):
        fleiss_kappa([["Y", "N"]])
    with pytest.raises(ValueError):
        fleiss_kappa([["Y", "N"], ["Y"]])
    with pytest.raises(ValueError):
        fleiss_kappa([["Y"], ["N"]])


# -- aggregation --------------------------------------------------------------------


def make_record(ppl=4.0, flu=0.5, bias=0.2, trig=0.5):
    return {"ppl": ppl, "fluency": flu, "bias_mean": bias, "trigger_rate": trig}


def test_aggregate_single_episode():
    out = aggregate_run([make_record()])
    assert out["ppl_mean"] == 4.0 and out["ppl_sd"] == 0.0
    assert out["fluency_sd"] == 0.0 and out["n_episodes"] == 1
    assert out["trigger_rate_mean"] == 0.5


def test_aggregate_trigger_rate_counting():
    # four segments, two triggered
    flags = [1, 0, 1, 0]
    rec = make_record(trig=sum(flags) / len(flags))
    assert aggregate_run([rec])["trigger_rate_mean"] == 0.5


def test_aggregate_deterministic_and_nonfinite():
    recs = [make_record(ppl=3.0), make_record(ppl=5.0), make_record(ppl=math.inf)]
    a = aggregate_run(recs)
    b = aggregate_run([dict(r) for r in recs])
    assert a == b
    assert a["n_nonfinite_ppl"] == 1
    assert a["ppl_mean"] == 4.0  # inf episode excluded from the moments
    with pytest.raises(ValueError):
        aggregate_run([])


def test_summary_table_layout():
    rows = {"static": aggregate_run([make_record()]),
            "adaptive": aggregate_run([make_record(ppl=3.0, trig=1.0)])}
    text = summary_table(rows)
    lines = text.strip().split("\n")
    assert lines[0].split("\t") == ["system"] + list(SUMMARY_COLUMNS)
    assert lines[1].startswith("adaptive\t3.000000")
    assert len(lines) == 3 and text.endswith("\n")
    # fixed precision means byte-stable output for golden comparisons
    assert summary_table(rows) == text
