"""Acceptance gate: twelve go/no-go checks, one test per criterion.

Each test states its claim, its oracle, and its tolerance inline. Wall-clock
budgets are asserted where the criterion carries one. Golden numbers in
criterion 9 were committed from the first run of that exact loop and act as
regression locks from then on.
"""

import math
import time

import numpy as np
import pytest

from helpers import BernoulliModel, FixedScorer, brute_force_fisher, tiny_model
from ttalab import cli, ood as oodmod, toydata
from ttalab.genmodel import AdapterParams, NgramOneHot, ToyLM, Vocabulary
from ttalab.metrics import did_single, fleiss_kappa, fluency, perplexity
from ttalab.optim import (
    AdamWState,
    adamw_step,
    precond_step,
    trust_region_step,
)
from ttalab.oracle import (
    SequenceSpace,
    descent_bound_check,
    empirical_grad_stats,
    kl_projection_certificate,
    kl_vs_fisher_quadratic,
    expected_bias,
    solve_beta,
    tilt,
)
from ttalab import precond as precond_mod
from ttalab.precond import (
    FisherDiagEstimate,
    Preconditioner,
    build_preconditioner,
    estimate_diag_fisher,
)
from ttalab.scoring import committee_score, is_safe, route_types, should_trigger
from ttalab.tta import run_episode, trigger_curve


@pytest.fixture(scope="module")
def scenario():
    model = toydata.build_generator(seed=0)
    fisher_cfg = toydata.SCENARIO_DEFAULTS["fisher"]
    est = estimate_diag_fisher(
        model, toydata.fisher_corpus(seed=0),
        n_steps=fisher_cfg["n_steps"], batch_size=fisher_cfg["batch_size"],
        seed=fisher_cfg["seed"],
        continuation_tokens=fisher_cfg["continuation_tokens"])
    pre = build_preconditioner(est, damping=fisher_cfg["damping"])
    return {
        "model": model,
        "evaluator": toydata.build_evaluator(seed=0),
        "bank": toydata.build_bank(seed=0),
        "pre": pre,
        "prompts": toydata.bias_prompts(seed=0, n=30),
    }


# -- criterion 1: trust-region closed form ------------------------------------------


def grid_minimum(g, fisher, eps, step=0.01, budget=120_000):
    """Dense-grid oracle: best g.delta over the feasible ellipsoid."""
    n = len(g)
    per_axis = max(3, int(budget ** (1.0 / n)) | 1)
    half = (per_axis - 1) // 2
    target = half * step
    eps_use = min(eps, min(fisher) * target ** 2 / 2.0)
    axes = []
    for fi in fisher:
        b = np.sqrt(2 * eps_use / fi)
        m = min(half, int(np.floor(b / step)))
        axes.append(np.arange(-m, m + 1) * step)
    mesh = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(n, -1)
    quad = 0.5 * np.einsum("i,ij->j", fisher, mesh ** 2)
    feasible = quad <= eps_use + 1e-12
    return eps_use, float(np.min(g @ mesh[:, feasible]))


def test_criterion_01_trust_region_closed_form():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        g = rng.normal(size=n)
        g[np.abs(g) < 0.05] = 0.1
        fisher = rng.uniform(0.3, 3.0, size=n)
        eps_use, grid_best = grid_minimum(g, fisher, eps=float(rng.uniform(0.1, 2.0)))
        out = trust_region_step(g, fisher, eps_use)
        assert float(g @ out.delta) <= grid_best + 1e-12
        quad = 0.5 * float(out.delta @ (fisher * out.delta))
        assert abs(quad - eps_use) <= 1e-10
    assert time.perf_counter() - started < 10.0


# -- criterion 2: preconditioner identity and Monte Carlo Fisher --------------------


def test_criterion_02_preconditioner_identity_and_mc_fisher():
    started = time.perf_counter()

    # damped-inverse identity, componentwise to 1e-12
    rng = np.random.default_rng(1)
    diag = rng.uniform(0.0, 3.0, size=500)
    diag[::17] = 0.0
    for damping in (1e-4, 1e-2):
        est = FisherDiagEstimate(diag=diag, sample_count=10, n_steps=5,
                                 batch_size=2, continuation_tokens=4,
                                 corpus_digest="c", model_digest="m", seed=0)
        pre = build_preconditioner(est, damping=damping)
        np.testing.assert_allclose(pre.diag * (diag + damping), 1.0, atol=1e-12)

    # two-token model: closed-form Fisher sigma(1-sigma), 3-SE band at 1e5 draws
    model = BernoulliModel(phi=0.8473)
    exact = model.exact_fisher()
    n_samples = 100_000
    est = estimate_diag_fisher(model, [[]], n_steps=n_samples // 2, batch_size=2,
                               continuation_tokens=1, seed=7)
    assert est.sample_count == n_samples
    p = model.p1
    second = p * (1 - p) ** 4 + (1 - p) * p ** 4
    se = math.sqrt((second - exact ** 2) / n_samples)
    assert abs(est.diag[0] - exact) <= 3 * se

    # four-token model: enumeration oracle gives the exact value and the
    # exact sampling variance of each squared score, again a 3-SE band
    model = tiny_model(seed=13, vocab_size=4)
    ctx = [0, 1]
    est = estimate_diag_fisher(model, [ctx], n_steps=n_samples // 2, batch_size=2,
                               continuation_tokens=2, seed=3)
    assert est.sample_count == n_samples
    space = SequenceSpace(model, ctx, length=2)
    probs = space.probs(model.adapter_flat())
    scores = space.score_matrix()
    second_moment = probs @ (scores ** 2)
    np.testing.assert_allclose(second_moment,
                               np.diag(brute_force_fisher(model, ctx, length=2)),
                               atol=1e-10)
    var = probs @ (scores ** 4) - second_moment ** 2
    band = 3 * np.sqrt(np.maximum(var, 0.0) / n_samples) + 1e-12
    assert np.all(np.abs(est.diag - second_moment) <= band)

    assert time.perf_counter() - started < 60.0


# -- criterion 3: KL against its Fisher quadratic -----------------------------------


def test_criterion_03_kl_fisher_expansion():
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    for i in range(50):
        model = tiny_model(seed=100 + i, vocab_size=3 + (i % 2))
        delta = rng.normal(size=model.param_count)
        delta *= 0.4 / np.linalg.norm(delta)
        rows = kl_vs_fisher_quadratic(model, [0], 2, delta)
        row = rows[-1]
        assert row["scale"] == 0.0625
        assert math.isfinite(row["ratio"])
        assert abs(row["ratio"] - 1.0) <= 0.05
    assert time.perf_counter() - started < 60.0


# -- criterion 4: batch-gradient statistics -----------------------------------------


def test_criterion_04_gradient_statistics():
    started = time.perf_counter()
    model = tiny_model(seed=20)
    ctx = model.vocab.encode("w0 w1")
    rng = np.random.default_rng(0)
    support = [list(rng.integers(0, len(model.vocab), size=3)) for _ in range(6)]
    rep = empirical_grad_stats(model, ctx, support, m_values=(1, 2, 4, 8, 16),
                               trials=1000, seed=9)
    assert rep.trials == 1000
    assert rep.max_bias_se_units <= 3.0
    assert abs(rep.slope + 1.0) <= 0.1
    assert time.perf_counter() - started < 120.0


# -- criterion 5: one-step expected descent bound ------------------------------------


def test_criterion_05_descent_bound():
    started = time.perf_counter()
    model = tiny_model(seed=30)
    ctx = model.vocab.encode("w0 w1")
    space = SequenceSpace(model, ctx, length=2)
    fisher = space.fisher_diag(model.adapter_flat())
    pre = 1.0 / (fisher + 1e-2)
    rep = descent_bound_check(model, pre, ctx, length=2, m=2,
                              trials=1000, seed=17, perturb=0.05, batches=48)
    assert rep.alpha == 1e-3
    assert rep.lipschitz > 0.0
    assert rep.fraction_ok >= 0.99
    assert time.perf_counter() - started < 120.0


# -- criterion 6: exponential-tilt projection ----------------------------------------


def test_criterion_06_kl_projection():
    started = time.perf_counter()

    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        p = rng.dirichlet(np.ones(n))
        b = rng.uniform(0.0, 1.0, size=n)
        mean0 = float(p @ b)
        lo = float(b[p > 0].min())
        tau = lo + float(rng.uniform(0.05, 0.95)) * (mean0 - lo)
        beta = solve_beta(p, b, tau, tol=1e-9)
        assert abs(expected_bias(p, b, beta) - tau) <= 1e-9

    p5 = np.array([0.25, 0.25, 0.25, 0.125, 0.125])
    b5 = np.array([0.9, 0.7, 0.5, 0.3, 0.1])
    rep = kl_projection_certificate(p5, b5, tau=0.4, trials=10_000, seed=0)
    assert rep.n_trials == 10_000
    assert rep.min_margin >= -1e-9

    # no-tilt and constant-bias invariances, bitwise
    assert solve_beta(p5, b5, tau=float(p5 @ b5)) == 0.0
    np.testing.assert_array_equal(tilt(p5, b5, 0.0), p5)
    const = np.full(5, 0.7)
    for beta in (0.0, 1.0, 5.0):
        np.testing.assert_array_equal(tilt(p5, const, beta), p5)

    assert time.perf_counter() - started < 60.0


# -- criterion 7: trigger semantics, routing, and drift discipline ------------------


HAND_EXAMPLES = [
    ("Black holes are fascinating objects in astrophysics.",
     (0.0001, 0.0302, 0.5346), 0.1883,
     {"race": 0.1883, "sex": 0.0, "religion": 0.0, "other": 0.1883},
     ()),
    ("Asian students are good at math.",
     (0.0014, 0.4274, 0.5608), 0.3299,
     {"race": 0.3299, "sex": 0.0, "religion": 0.0, "other": 0.3299},
     ("race", "other")),
    ("I hate those people. They are disgusting and should be removed.",
     (0.9992, 0.9220, 0.9526), 0.9579,
     {"race": 0.9579, "sex": 0.9579, "religion": 0.9579, "other": 0.9579},
     ("race", "sex", "religion", "other")),
    ("The priest gave a sermon about compassion and forgiveness.",
     (0.0000, 0.0243, 0.5397), 0.1880,
     {"race": 0.0, "sex": 0.0, "religion": 0.0, "other": 0.1880},
     ()),
]


def test_criterion_07_trigger_and_drift(scenario):
    # hand-worked committee rows: mean, gating, and 4-type routing at 0.3
    for text, raws, mean_expected, type_scores, triggered_expected in HAND_EXAMPLES:
        members = [FixedScorer(f"m{j}", {text: raw})
                   for j, raw in enumerate(raws)]
        mean = committee_score(text, members)
        assert mean == pytest.approx(mean_expected, abs=5e-5)
        assert should_trigger(mean_expected, 0.3) == bool(triggered_expected)
        routing = route_types(type_scores, epsilon=0.3)
        assert routing.triggered == triggered_expected
        if triggered_expected:
            assert routing.dominant == triggered_expected[0]
        # gating is strict: a score exactly at the threshold never fires
        assert not should_trigger(mean_expected, mean_expected)
    assert not should_trigger(0.3, 0.3)
    assert is_safe(0.3, 0.3)

    model, bank, pre = scenario["model"], scenario["bank"], scenario["pre"]
    prompts = scenario["prompts"][:8]

    # zero-trigger episodes leave the adapter untouched, bitwise
    frozen_cfg = toydata.default_config(adapt=False)
    frozen_scores = []
    for i, prompt in enumerate(prompts):
        rec = run_episode(prompt, model, toydata.build_monitor(),
                          bank, pre, frozen_cfg, np.random.default_rng(300 + i))
        assert rec.trigger_rate == 0.0
        assert rec.final_drift == 0.0
        assert rec.delta_norm_sum == 0.0
        assert all(s.drift_norm == 0.0 for s in rec.segments)
        frozen_scores.extend(s.trigger_score for s in rec.segments
                             if s.trigger_score is not None)

    # adapted episodes obey the per-step cap: total drift is bounded by the
    # sum of step norms, which is bounded by cap * steps * update rounds
    adapt_cfg = toydata.default_config()
    cap = adapt_cfg.update.max_delta_norm
    assert cap == 0.25
    for i, prompt in enumerate(prompts):
        rec = run_episode(prompt, model, toydata.build_monitor(),
                          bank, pre, adapt_cfg, np.random.default_rng(300 + i))
        rounds = sum(len(s.rounds) for s in rec.segments)
        assert rec.final_drift <= rec.delta_norm_sum + 1e-12
        assert rec.delta_norm_sum <= cap * adapt_cfg.update.steps * rounds + 1e-12
    model.reset_adapter()

    # frozen-trajectory trigger counts never increase with the threshold
    sweep = np.linspace(0.0, 1.0, 20)
    counts = trigger_curve(frozen_scores, sweep)
    assert all(a >= b for a, b in zip(counts, counts[1:]))


# -- criterion 8: episodic reset forgets nothing -------------------------------------


def test_criterion_08_episodic_no_forgetting(scenario):
    model = scenario["model"]
    model.reset_adapter()
    probes = toydata.neutral_corpus(seed=123, n=16)
    assert len(probes) == 16
    before = [perplexity(t, model) for t in probes]

    cfg = toydata.default_config()
    drifted = False
    for i, prompt in enumerate(scenario["prompts"][:3]):
        rec = run_episode(prompt, model, toydata.build_monitor(),
                          scenario["bank"], scenario["pre"], cfg,
                          np.random.default_rng(50 + i))
        drifted = drifted or rec.final_drift > 0.0
    assert drifted, "adaptation episodes must actually move the adapter"

    model.reset_adapter()
    after = [perplexity(t, model) for t in probes]
    assert after == before


# -- criterion 9: end-to-end effect on the bundled scenario --------------------------


GOLDEN_SCENARIO = {
    "tta": {"bias": 0.2822319704063655, "ppl": 12.30068504363346,
            "triggered": 53},
    "static": {"bias": 0.42898030626709577, "ppl": 15.009519590948766,
               "triggered": 0},
    "disabled": {"bias": 0.42898030626709577, "ppl": 15.009519590948766,
                 "triggered": 0},
    "always": {"bias": 0.2750408770730322, "ppl": 12.316297505808443,
               "triggered": 54},
}


def run_scenario_suite(scenario):
    """The exact loop the golden numbers were committed from."""
    model, bank = scenario["model"], scenario["bank"]
    evaluator, pre = scenario["evaluator"], scenario["pre"]
    prompts = scenario["prompts"]
    configs = {
        "tta": toydata.default_config(),
        "static": toydata.default_config(adapt=False),
        "disabled": toydata.default_config(epsilon=1.0),
        "always": toydata.default_config(epsilon=0.0),
    }
    out = {}
    for name, cfg in configs.items():
        monitor = toydata.build_monitor()
        scores, ppls, triggered = [], [], 0
        for i, prompt in enumerate(prompts):
            rec = run_episode(prompt, model, monitor, bank, pre, cfg,
                              np.random.default_rng(1000 + i))
            scores.extend(s.trigger_score for s in rec.segments
                          if s.trigger_score is not None)
            ppls.append(perplexity(" ".join(s.text for s in rec.segments),
                                   evaluator))
            triggered += sum(1 for s in rec.segments if s.triggered)
        out[name] = {"bias": float(np.mean(scores)),
                     "ppl": float(np.mean(ppls)),
                     "triggered": triggered}
    model.reset_adapter()
    return out


def test_criterion_09_end_to_end_toy_effect(scenario):
    started = time.perf_counter()
    got = run_scenario_suite(scenario)

    assert got["tta"]["bias"] < got["static"]["bias"]
    assert got["tta"]["bias"] < got["disabled"]["bias"]
    assert got["disabled"]["triggered"] == 0
    assert 0 < got["tta"]["triggered"] < got["always"]["triggered"]

    for name, golden in GOLDEN_SCENARIO.items():
        assert got[name]["triggered"] == golden["triggered"], name
        assert got[name]["bias"] == pytest.approx(golden["bias"], abs=1e-9), name
        assert got[name]["ppl"] == pytest.approx(golden["ppl"], abs=1e-9), name

    assert time.perf_counter() - started < 600.0


# -- criterion 10: detector evaluation methodology ------------------------------------


def pairwise_auroc(scores_ood, scores_id):
    o = np.asarray(scores_ood, dtype=np.float64)[:, None]
    i = np.asarray(scores_id, dtype=np.float64)[None, :]
    wins = np.sum(o > i) + 0.5 * np.sum(o == i)
    return float(wins / (o.size * i.size))


def test_criterion_10_ood_methodology():
    rng = np.random.default_rng(5)

    # rank-based AUROC equals the exhaustive pairwise oracle, ties included
    for _ in range(30):
        n = int(rng.integers(3, 41))
        m = int(rng.integers(3, 41))
        s_ood = rng.integers(0, 6, size=n).astype(float)
        s_id = rng.integers(0, 6, size=m).astype(float)
        assert abs(oodmod.auroc(s_ood, s_id)
                   - pairwise_auroc(s_ood, s_id)) <= 1e-12
    s_ood = rng.integers(0, 10, size=600).astype(float)
    s_id = rng.integers(0, 10, size=400).astype(float)
    assert abs(oodmod.auroc(s_ood, s_id) - pairwise_auroc(s_ood, s_id)) <= 1e-12

    # well-separated Gaussian clusters: both detectors call far-OOD
    d = 8
    reference = rng.normal(size=(200, d))
    id_set = rng.normal(size=(120, d))
    ood_set = rng.normal(size=(120, d)) + 3.0
    knn_id = oodmod.knn_scores(id_set, reference, k=10)
    knn_ood = oodmod.knn_scores(ood_set, reference, k=10)
    assert oodmod.auroc(knn_ood, knn_id) > 0.95
    mu, sigma = oodmod.fit_gaussian(reference)
    mah_id = oodmod.mahalanobis_scores(id_set, mu, sigma)
    mah_ood = oodmod.mahalanobis_scores(ood_set, mu, sigma)
    assert oodmod.auroc(mah_ood, mah_id) > 0.95

    # identical-distribution null: the bootstrap CI covers 0.5 almost always
    covered = 0
    for rep in range(100):
        null_rng = np.random.default_rng(900 + rep)
        res = oodmod.evaluate(null_rng.normal(size=40), null_rng.normal(size=40),
                              bootstrap_n=1000, seed=rep)
        covered += res.ci_low <= 0.5 <= res.ci_high
    assert covered >= 90


# -- criterion 11: metric formulas ----------------------------------------------------


def test_criterion_11_metric_formulas():
    assert fluency(1.0) == 1.0
    assert fluency(math.e) == 0.5

    vocab = Vocabulary([f"w{i}" for i in range(3)])
    fmap = NgramOneHot(len(vocab), order=2)
    uniform = ToyLM(vocab, np.zeros((len(vocab), fmap.dimension)),
                    AdapterParams(np.zeros((1, fmap.dimension)),
                                  np.zeros((len(vocab), 1))), fmap)
    assert perplexity("w0 w1 w2", uniform) == float(len(vocab))

    scenario_vocab = toydata.build_vocab()
    fmap46 = NgramOneHot(len(scenario_vocab), order=2)
    uniform46 = ToyLM(scenario_vocab,
                      np.zeros((len(scenario_vocab), fmap46.dimension)),
                      AdapterParams(np.zeros((1, fmap46.dimension)),
                                    np.zeros((len(scenario_vocab), 1))), fmap46)
    assert perplexity("the river flows", uniform46) == float(len(scenario_vocab))

    res = fleiss_kappa([["Y", "Y", "N"], ["N", "N", "Y"]])
    assert abs(res.kappa - (-1.0 / 3.0)) <= 1e-12

    rng = np.random.default_rng(6)
    for _ in range(200):
        k = int(rng.integers(2, 7))
        system = rng.uniform(0.0, 1.0, size=k)
        baseline = rng.uniform(0.0, 1.0, size=k)
        j = int(rng.integers(1, k))
        base_value = did_single(system, baseline, j)
        shift_s, shift_b = rng.normal(scale=5.0, size=2)
        shifted = did_single(system + shift_s, baseline + shift_b, j)
        assert abs(shifted - base_value) <= 1e-12


# -- criterion 12: cost structure ------------------------------------------------------


def test_criterion_12_cost_structure(scenario, tmp_path, monkeypatch):
    calls = []
    real_estimate = precond_mod.estimate_diag_fisher

    def counted(*args, **kwargs):
        calls.append(1)
        return real_estimate(*args, **kwargs)

    monkeypatch.setattr(precond_mod, "estimate_diag_fisher", counted)
    monkeypatch.setattr(cli, "estimate_diag_fisher", counted)

    model = toydata.build_generator(seed=0)
    corpus_a = toydata.fisher_corpus(seed=0)
    corpus_b = toydata.neutral_corpus(seed=9, n=16)

    # one estimation per (model, corpus) pair, stored as an artifact
    pre_a = build_preconditioner(counted(model, corpus_a, n_steps=4, batch_size=2,
                                         continuation_tokens=16, seed=0))
    assert len(calls) == 1
    build_preconditioner(counted(model, corpus_b, n_steps=2, batch_size=2,
                                 continuation_tokens=8, seed=0))
    assert len(calls) == 2
    pre_a.save(tmp_path / "pre.json")
    loaded = Preconditioner.load(tmp_path / "pre.json", model=model)

    # episodes reuse the artifact: zero estimations inside the loop
    cfg = toydata.default_config()
    for i, prompt in enumerate(scenario["prompts"][:5]):
        run_episode(prompt, model, toydata.build_monitor(), scenario["bank"],
                    loaded, cfg, np.random.default_rng(70 + i))
    assert len(calls) == 2
    model.reset_adapter()

    # preconditioned step is no slower than AdamW + 10% at scenario size
    n = model.param_count
    rng = np.random.default_rng(3)
    phi = rng.normal(size=n)
    g = rng.normal(size=n)
    pre_diag = rng.uniform(0.5, 2.0, size=n)

    state = AdamWState.zeros(n)
    rules = {"precond": lambda: precond_step(g, pre_diag, 1e-3),
             "adamw": lambda: adamw_step(state, phi, g, 3e-4)}
    best = dict.fromkeys(rules, math.inf)
    # the two rules take turns within each rep, and the one that goes first
    # alternates, so a burst of host load lands on both sides, not one
    for rep in range(7):
        order = ("precond", "adamw") if rep % 2 == 0 else ("adamw", "precond")
        for name in order:
            t0 = time.perf_counter()
            for _ in range(300):
                rules[name]()
            best[name] = min(best[name], (time.perf_counter() - t0) / 300)
    assert best["precond"] <= 1.10 * best["adamw"], best
