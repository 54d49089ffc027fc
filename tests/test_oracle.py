"""Tilting, the KL projection certificate, and the enumeration oracles."""

import math

import numpy as np
import pytest

from ttalab.genmodel import NgramOneHot, ToyLM, Vocabulary, init_adapter
from ttalab.oracle import (
    DescentBoundReport,
    InfeasibleError,
    SequenceSpace,
    descent_bound_check,
    empirical_grad_stats,
    estimate_local_smoothness,
    kl_divergence,
    kl_projection_certificate,
    kl_vs_fisher_quadratic,
    solve_beta,
    tilt,
)
from helpers import brute_force_fisher


def tiny_model(seed=0, vocab_size=4, rank=2, w_scale=0.4, off_zero=True):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary([f"w{i}" for i in range(vocab_size - 1)])
    fmap = NgramOneHot(len(vocab), order=2)
    w = rng.normal(0.0, w_scale, size=(len(vocab), fmap.dimension))
    adapter = init_adapter(rng, len(vocab), fmap.dimension, rank=rank, alpha=2.0 * rank)
    if off_zero:
        adapter.b = rng.normal(0.0, 0.2, size=adapter.b.shape)
    return ToyLM(vocab, w, adapter, fmap)


# -- tilt and solve_beta -------------------------------------------------------


def test_tilt_two_outcome_hand_value():
    # p uniform, b = (0, 1), beta = ln 3: weights (1, 1/3) -> (3/4, 1/4)
    q = tilt([0.5, 0.5], [0.0, 1.0], math.log(3.0))
    np.testing.assert_allclose(q, [0.75, 0.25], atol=1e-14)


def test_tilt_identity_and_support():
    p = np.array([0.2, 0.0, 0.5, 0.3])
    b = np.array([0.9, 0.1, 0.4, 0.0])
    np.testing.assert_allclose(tilt(p, b, 0.0), p, atol=1e-15)
    q = tilt(p, b, 7.0)
    assert q[1] == 0.0 and abs(q.sum() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        tilt(p, b, -1.0)


def test_tilt_large_beta_is_stable():
    q = tilt([0.5, 0.5], [0.0, 1.0], 5000.0)
    np.testing.assert_allclose(q, [1.0, 0.0], atol=1e-300)


def test_solve_beta_hand_value():
    # target mean 0.25 on the two-outcome example is hit exactly at ln 3
    beta = solve_beta([0.5, 0.5], [0.0, 1.0], 0.25)
    assert abs(beta - math.log(3.0)) < 1e-6
    q = tilt([0.5, 0.5], [0.0, 1.0], beta)
    assert abs(q @ np.array([0.0, 1.0]) - 0.25) <= 1e-9


def test_solve_beta_no_tilt_needed():
    assert solve_beta([0.5, 0.5], [0.0, 1.0], 0.5) == 0.0
    assert solve_beta([0.5, 0.5], [0.0, 1.0], 0.9) == 0.0


def test_solve_beta_infeasible():
    with pytest.raises(InfeasibleError):
        solve_beta([0.5, 0.5], [0.2, 1.0], 0.1)


def test_solve_beta_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = rng.integers(3, 9)
        p = rng.dirichlet(np.ones(n))
        b = rng.uniform(0.0, 1.0, size=n)
        mean0 = p @ b
        tau = float(b.min() + rng.uniform(0.05, 0.95) * (mean0 - b.min()))
        beta = solve_beta(p, b, tau)
        q = tilt(p, b, beta)
        assert abs(q @ b - tau) <= 1e-9
        # expectations under increasing tilt are non-increasing
        vals = [tilt(p, b, x) @ b for x in (0.0, beta / 2, beta, 2 * beta)]
        assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(3))


def test_kl_divergence_values():
    assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert abs(kl_divergence([1.0, 0.0], [0.5, 0.5]) - math.log(2.0)) < 1e-14
    assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf


# -- projection certificate ----------------------------------------------------


def test_certificate_margins_nonnegative():
    p = np.array([0.4, 0.3, 0.2, 0.1])
    b = np.array([0.0, 0.3, 0.7, 1.0])
    rep = kl_projection_certificate(p, b, tau=0.2, trials=2000, seed=3)
    assert rep.n_trials == 2000
    assert rep.min_margin >= -1e-9
    assert rep.kl_star > 0 and rep.beta_star > 0


def test_certificate_trivial_when_already_feasible():
    p = np.array([0.6, 0.4])
    b = np.array([0.1, 0.2])
    rep = kl_projection_certificate(p, b, tau=0.5, trials=500, seed=0)
    assert rep.beta_star == 0.0 and rep.kl_star == 0.0
    # every KL against the base law is non-negative
    assert rep.min_margin >= 0.0


def test_certificate_fails_when_nothing_feasible():
    # tau below min(b): no simplex point satisfies the constraint
    with pytest.raises(InfeasibleError):
        kl_projection_certificate([0.5, 0.5], [0.5, 1.0], tau=0.1, trials=100,
                                  seed=0, max_attempt_factor=5)


# -- SequenceSpace -------------------------------------------------------------


def test_space_probs_match_model():
    model = tiny_model(seed=5)
    ctx = model.vocab.encode("w0 w1")
    space = SequenceSpace(model, ctx, length=2)
    probs = space.probs()
    assert abs(probs.sum() - 1.0) < 1e-12
    for i in range(0, space.n_outcomes, 5):
        target = [int(t) for t in space.outcomes[i]]
        want = model.sequence_log_prob(target, ctx)
        assert abs(space.outcome_logprobs()[i] - want) < 1e-12


def test_space_scores_match_adapter_gradient():
    model = tiny_model(seed=6)
    ctx = model.vocab.encode("w2")
    space = SequenceSpace(model, ctx, length=2)
    phi0 = model.adapter_flat()
    # the start state, then a point away from it with B != 0, so both
    # blocks of the stacked score table are nonzero
    phi1 = phi0 + np.random.default_rng(1).normal(0.0, 0.2, size=phi0.size)
    n_a = model.adapter.a.size
    for phi in (phi0, phi1):
        model.set_adapter_flat(phi)
        assert np.any(model.adapter.b != 0)
        scores = space.score_matrix(phi)
        assert np.any(scores[:, :n_a] != 0) and np.any(scores[:, n_a:] != 0)
        for i in range(0, space.n_outcomes, 3):
            target = [int(t) for t in space.outcomes[i]]
            grad_nll = model.adapter_gradient([(ctx, target)])[1]
            np.testing.assert_allclose(scores[i], -grad_nll, atol=1e-12)


@pytest.mark.parametrize("vocab_size, length", [(3, 1), (4, 3), (5, 2)])
def test_space_scores_equal_the_gathered_sum(vocab_size, length):
    # the (N, T, n) gather that score_matrix accumulates position by position
    model = tiny_model(seed=vocab_size, vocab_size=vocab_size)
    space = SequenceSpace(model, model.vocab.encode("w0"), length)
    probs = space.model.softmax_rows(space.features)[1]
    resid = np.eye(space.vsize)[None, :, :] - probs[:, None, :]
    table = space.model.adapter.flat_gradient(resid[..., None]
                                              * space.features[:, None, None, :])
    want = table[space.win_idx, space.outcomes].sum(axis=1)
    assert np.array_equal(space.score_matrix(), want)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_space_windows_are_prefix_features(order):
    # pins the outcome-grid order that the prefix deduplication relies on
    rng = np.random.default_rng(order)
    vocab = Vocabulary(["w0", "w1"])  # size 3 with <unk>
    fmap = NgramOneHot(len(vocab), order=order)
    adapter = init_adapter(rng, len(vocab), fmap.dimension, rank=1, alpha=1.0)
    model = ToyLM(vocab, np.zeros((len(vocab), fmap.dimension)), adapter, fmap)
    for context in ([], [2], [0, 1], [1, 2, 0]):
        for length in (1, 2, 3):
            space = SequenceSpace(model, context, length)
            assert len(np.unique(space.features, axis=0)) == len(space.features)
            for i, outcome in enumerate(space.outcomes.tolist()):
                for t in range(length):
                    want = np.zeros(fmap.dimension)
                    want[fmap.active_indices(context + outcome[:t])] = 1.0
                    assert np.array_equal(space.features[space.win_idx[i, t]], want)


def test_space_without_phi_means_the_start_state():
    model = tiny_model(seed=6)
    ctx = model.vocab.encode("w0")
    space = SequenceSpace(model, ctx, length=2)
    phi1 = model.adapter_flat() + 0.3
    space.probs(phi1)
    fresh = SequenceSpace(model, ctx, length=2)
    np.testing.assert_array_equal(space.score_matrix(), fresh.score_matrix())
    space.probs(phi1)
    np.testing.assert_array_equal(space.fisher_diag(), fresh.fisher_diag())
    np.testing.assert_array_equal(space.probs(), fresh.probs())


def test_space_fisher_matches_enumeration_oracle():
    model = tiny_model(seed=7)
    ctx = model.vocab.encode("w0")
    space = SequenceSpace(model, ctx, length=2)
    full = brute_force_fisher(model, ctx, 2)
    np.testing.assert_allclose(space.fisher_diag(), np.diag(full), atol=1e-12)
    np.testing.assert_allclose(space.fisher_full(), full, atol=1e-12)


def test_space_grad_matches_finite_difference():
    model = tiny_model(seed=8)
    space = SequenceSpace(model, model.vocab.encode("w1"), length=2)
    phi = model.adapter_flat()
    weights = space.probs(phi)
    rng = np.random.default_rng(0)
    grad = space.grad_J(weights, phi)
    h = 1e-6
    for _ in range(4):
        v = rng.normal(size=phi.size)
        v /= np.linalg.norm(v)
        jp = float(-(weights @ space.outcome_logprobs(phi + h * v)))
        jm = float(-(weights @ space.outcome_logprobs(phi - h * v)))
        assert abs((jp - jm) / (2 * h) - grad @ v) < 1e-6


def test_space_budget_guard():
    model = tiny_model()
    with pytest.raises(ValueError):
        SequenceSpace(model, [0], length=12, budget=1000)


# -- KL vs Fisher quadratic ----------------------------------------------------


def test_kl_fisher_ratio_approaches_one():
    model = tiny_model(seed=11)
    rng = np.random.default_rng(2)
    delta = rng.normal(size=model.param_count)
    delta /= np.linalg.norm(delta)
    rows = kl_vs_fisher_quadratic(model, model.vocab.encode("w0 w2"), 2, delta)
    assert rows[0]["scale"] == 1.0 and rows[-1]["scale"] == 0.0625
    assert all(r["kl"] >= 0.0 for r in rows)
    assert abs(rows[-1]["ratio"] - 1.0) < 0.05
    # the match improves monotonically as the step shrinks on this instance
    errs = [abs(r["ratio"] - 1.0) for r in rows]
    assert errs[-1] <= errs[0]


def test_kl_fisher_zero_delta():
    model = tiny_model(seed=12)
    rows = kl_vs_fisher_quadratic(model, model.vocab.encode("w0"), 1,
                                  np.zeros(model.param_count))
    for r in rows:
        assert r["kl"] == 0.0 and r["quadratic"] == 0.0 and math.isnan(r["ratio"])


def test_kl_fisher_invariant_direction():
    # with B = 0 any pure-A direction leaves the combined weights unchanged,
    # so the exact KL and the Fisher quadratic both vanish identically
    model = tiny_model(seed=13, off_zero=False)
    delta = np.zeros(model.param_count)
    delta[: model.adapter.a.size] = 1.0
    rows = kl_vs_fisher_quadratic(model, model.vocab.encode("w1"), 2, delta)
    for r in rows:
        assert abs(r["kl"]) < 1e-15 and abs(r["quadratic"]) < 1e-15


# -- empirical gradient statistics ----------------------------------------------


def grad_support(model, n_texts=6, length=3, seed=0):
    rng = np.random.default_rng(seed)
    return [list(rng.integers(0, len(model.vocab), size=length)) for _ in range(n_texts)]


def test_grad_stats_unbiased_and_slope():
    model = tiny_model(seed=20)
    ctx = model.vocab.encode("w0 w1")
    rep = empirical_grad_stats(model, ctx, grad_support(model), trials=600, seed=9)
    assert rep.max_bias_se_units < 4.0
    assert abs(rep.slope + 1.0) < 0.1
    # traces actually shrink with the batch size
    ms = sorted(rep.cov_traces)
    assert all(rep.cov_traces[a] > rep.cov_traces[b] for a, b in zip(ms, ms[1:]))


def test_grad_stats_full_batch_without_replacement_is_exact():
    model = tiny_model(seed=21)
    ctx = model.vocab.encode("w2")
    support = grad_support(model, n_texts=5, seed=1)
    rep = empirical_grad_stats(model, ctx, support, m_values=(5,), trials=50,
                               seed=2, replace=False)
    # every draw is a permutation of the whole support; only summation
    # order can differ, so the spread is at the level of rounding noise
    assert rep.cov_traces[5] < 1e-26


def test_grad_stats_identical_texts_have_zero_variance():
    model = tiny_model(seed=22)
    ctx = model.vocab.encode("w0")
    support = [[1, 2, 0]] * 4
    rep = empirical_grad_stats(model, ctx, support, m_values=(1, 2, 4), trials=40, seed=3)
    # every draw is bit-identical; all that survives is rounding noise from
    # the mean subtraction inside the variance estimator
    assert all(v < 1e-28 for v in rep.cov_traces.values())
    np.testing.assert_array_equal(rep.exact_grad,
                                  model.adapter_gradient([(ctx, support[0])])[1])


def test_grad_stats_weighted_support():
    model = tiny_model(seed=23)
    ctx = model.vocab.encode("w1")
    support = grad_support(model, n_texts=4, seed=4)
    weights = np.array([0.5, 0.25, 0.125, 0.125])
    rep = empirical_grad_stats(model, ctx, support, weights=weights,
                               m_values=(2, 8), trials=500, seed=5)
    direct = weights @ np.stack([model.adapter_gradient([(ctx, t)])[1] for t in support])
    np.testing.assert_allclose(rep.exact_grad, direct, atol=1e-15)
    assert rep.max_bias_se_units < 4.0
    with pytest.raises(ValueError):
        empirical_grad_stats(model, ctx, support, weights=weights, replace=False)


# -- descent bound ---------------------------------------------------------------


def bound_setup(seed=30):
    model = tiny_model(seed=seed)
    ctx = model.vocab.encode("w0 w1")
    space = SequenceSpace(model, ctx, length=2)
    fisher = space.fisher_diag(model.adapter_flat())
    pre = 1.0 / (fisher + 1e-2)
    return model, ctx, pre


def test_descent_bound_holds():
    model, ctx, pre = bound_setup()
    rep = descent_bound_check(model, pre, ctx, length=2, alpha=1e-3, m=2,
                              trials=40, seed=17, perturb=0.05, batches=48)
    assert rep.fraction_ok >= 0.975
    assert rep.lipschitz > 0.0


def test_descent_bound_alpha_limit_and_zero_grad():
    # at the start state the safe law equals the model law, so the exact
    # gradient vanishes and both sides collapse onto J as alpha -> 0
    model, ctx, pre = bound_setup(seed=31)
    rep = descent_bound_check(model, pre, ctx, length=2, alpha=1e-7, m=2,
                              trials=5, seed=8, perturb=0.0, batches=16)
    assert rep.fraction_ok == 1.0
    for row in rep.details:
        assert abs(row["rhs"] - row["J"]) < 1e-9
        assert abs(row["mean_new"] - row["J"]) < 1e-9


def test_smoothness_estimate_matches_dense_hessian():
    model = tiny_model(seed=33)
    ctx = model.vocab.encode("w2")
    space = SequenceSpace(model, ctx, length=2)
    phi = model.adapter_flat()
    weights = space.probs(phi)
    est = estimate_local_smoothness(space, weights, phi, radius=0.0, probes=1,
                                    iters=40, seed=0)
    n = phi.size
    h = 1e-5
    hess = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        hess[:, i] = (space.grad_J(weights, phi + e) - space.grad_J(weights, phi - e)) / (2 * h)
    lam_max = float(np.linalg.eigvalsh(0.5 * (hess + hess.T)).max())
    assert abs(est - lam_max) / lam_max < 1e-3
