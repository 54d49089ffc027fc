"""Update rules: clipping, capping, the three rules, trust-region step."""

import numpy as np
import pytest

from ttalab.optim import (
    AdamWState,
    UpdateRuleConfig,
    adamw_step,
    cap_delta,
    clip_gradient,
    precond_step,
    sgd_step,
    trust_region_step,
)


# -- clip / cap ----------------------------------------------------------------


def test_clip_under_threshold_unchanged():
    g = np.array([0.3, 0.4])  # norm 0.5
    out = clip_gradient(g, 1.0)
    np.testing.assert_array_equal(out, g)
    assert out is not g  # caller's array never aliased


def test_clip_rescales_to_c():
    g = np.array([0.0, 4.0])
    out = clip_gradient(g, 1.0)
    np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-15)
    assert np.linalg.norm(out) == pytest.approx(1.0)


def test_clip_zero_vector_and_bad_c():
    np.testing.assert_array_equal(clip_gradient(np.zeros(3), 1.0), np.zeros(3))
    with pytest.raises(ValueError):
        clip_gradient(np.ones(2), 0.0)


def test_cap_delta_examples():
    d = np.array([0.06, 0.08])  # norm 0.1
    np.testing.assert_array_equal(cap_delta(d, 0.25), d)
    big = np.array([0.6, 0.8])  # norm 1.0
    capped = cap_delta(big, 0.25)
    assert np.linalg.norm(capped) == pytest.approx(0.25)
    np.testing.assert_allclose(capped / np.linalg.norm(capped), big / np.linalg.norm(big))
    np.testing.assert_array_equal(cap_delta(np.zeros(4), 0.25), np.zeros(4))


# -- sgd / precond ---------------------------------------------------------------


def test_sgd_zero_gradient_keeps_phi():
    phi = np.array([1.0, -2.0])
    step = sgd_step(np.zeros(2), 5e-4)
    np.testing.assert_array_equal(phi + step, phi)
    np.testing.assert_array_equal(step, np.zeros(2))


def test_precond_with_ones_equals_sgd():
    rng = np.random.default_rng(0)
    phi, g = rng.normal(size=6), rng.normal(size=6)
    a = sgd_step(g, 1e-3)
    b = precond_step(g, np.ones(6), 1e-3)
    np.testing.assert_allclose(phi + a, phi + b, atol=1e-15)


def test_precond_worked_example():
    step = precond_step(np.array([1.0, 2.0]), np.array([0.5, 0.25]), 1e-3)
    np.testing.assert_allclose(step, [-5e-4, -5e-4], atol=1e-18)


def test_precond_dimension_mismatch():
    with pytest.raises(ValueError):
        precond_step(np.zeros(3), np.ones(2), 1e-3)


def test_sgd_linearity():
    phi = np.array([0.5, 0.5])
    g = np.array([1.0, -1.0])
    mid = phi + sgd_step(g, 1e-3)
    once = mid + sgd_step(g, 1e-3)
    twice = phi + sgd_step(g, 2e-3)
    np.testing.assert_allclose(once, twice, atol=1e-15)


# -- adamw ------------------------------------------------------------------------


def test_adamw_first_step_is_sign_step_at_zero_eps():
    g = np.array([0.3, -2.0, 0.0, 1e-9])
    state = AdamWState.zeros(4)
    step = adamw_step(state, np.zeros(4), g, lr=3e-4, eps_num=0.0)
    np.testing.assert_allclose(step, -3e-4 * np.sign(g), atol=1e-18)


def test_adamw_zero_gradient_never_moves():
    state = AdamWState.zeros(3)
    phi = np.array([1.0, 2.0, 3.0])
    for _ in range(4):
        phi = phi + adamw_step(state, phi, np.zeros(3), lr=3e-4)
    np.testing.assert_array_equal(phi, [1.0, 2.0, 3.0])


def reference_adamw_trace(phi, grads, lr, beta1, beta2, eps_num, wd):
    """Scripted scalar-loop oracle, bias correction written the long way."""
    phi = [float(x) for x in phi]
    m = [0.0] * len(phi)
    v = [0.0] * len(phi)
    trace = []
    for t, g in enumerate(grads, start=1):
        new_phi = []
        for i in range(len(phi)):
            m[i] = beta1 * m[i] + (1 - beta1) * float(g[i])
            v[i] = beta2 * v[i] + (1 - beta2) * float(g[i]) ** 2
            mc = m[i] / (1 - beta1 ** t)
            vc = v[i] / (1 - beta2 ** t)
            den = vc ** 0.5 + eps_num
            step = 0.0 if den == 0.0 else mc / den
            new_phi.append(phi[i] - lr * (step + wd * phi[i]))
        phi = new_phi
        trace.append(list(phi))
    return trace


@pytest.mark.parametrize("wd", [0.0, 0.01])
def test_adamw_matches_scripted_oracle(wd):
    rng = np.random.default_rng(7)
    phi = rng.normal(size=5)
    grads = [rng.normal(size=5) for _ in range(5)]
    expected = reference_adamw_trace(phi, grads, 3e-4, 0.9, 0.999, 1e-8, wd)
    state = AdamWState.zeros(5)
    cur = phi.copy()
    for g, ref in zip(grads, expected):
        cur = cur + adamw_step(state, cur, g, lr=3e-4, weight_decay=wd)
        np.testing.assert_allclose(cur, ref, atol=1e-10)


# -- trust region -------------------------------------------------------------------


def test_trust_region_worked_example():
    out = trust_region_step(np.array([1.0, 2.0]), np.array([2.0, 8.0]), 0.5)
    assert out.eta == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(out.delta, [-0.5, -0.25], atol=1e-12)
    quad = 0.5 * float(out.delta @ (np.array([2.0, 8.0]) * out.delta))
    assert quad == pytest.approx(0.5, abs=1e-10)


def test_trust_region_constraint_tight_on_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        g = rng.normal(size=n)
        fisher = rng.uniform(0.2, 5.0, size=n)
        eps = float(rng.uniform(0.01, 2.0))
        out = trust_region_step(g, fisher, eps)
        quad = 0.5 * float(out.delta @ (fisher * out.delta))
        assert quad == pytest.approx(eps, abs=1e-10)


def test_trust_region_homogeneity_in_g():
    g = np.array([0.5, -1.5, 2.0])
    fisher = np.array([1.0, 2.0, 0.5])
    base = trust_region_step(g, fisher, 0.3)
    scaled = trust_region_step(7.0 * g, fisher, 0.3)
    np.testing.assert_allclose(scaled.delta, base.delta, atol=1e-12)
    assert scaled.eta == pytest.approx(base.eta / 7.0)


def test_trust_region_vanishing_radius():
    g = np.array([1.0, 1.0])
    fisher = np.array([1.0, 1.0])
    for eps in [1e-2, 1e-6, 1e-12]:
        out = trust_region_step(g, fisher, eps)
        assert np.linalg.norm(out.delta) <= np.sqrt(2 * eps) + 1e-15


def test_trust_region_zero_gradient_degenerate():
    out = trust_region_step(np.zeros(3), np.ones(3), 0.5)
    assert out.degenerate
    np.testing.assert_array_equal(out.delta, np.zeros(3))
    assert np.isnan(out.eta)


def test_trust_region_rejects_bad_inputs():
    with pytest.raises(ValueError):
        trust_region_step(np.ones(2), np.ones(2), 0.0)
    with pytest.raises(ValueError):
        trust_region_step(np.ones(2), np.array([1.0, -1.0]), 0.5)


def grid_minimum(g, fisher, eps, step=0.01, budget=120_000):
    """Dense-grid oracle: best g.delta over the feasible ellipsoid."""
    n = len(g)
    per_axis = max(3, int(budget ** (1.0 / n)) | 1)  # odd so 0 is on-grid
    half = (per_axis - 1) // 2
    target = half * step
    # radius chosen so the widest axis spans the grid exactly
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


def test_trust_region_beats_grid_search():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        g = rng.normal(size=n)
        g[np.abs(g) < 0.05] = 0.1
        fisher = rng.uniform(0.5, 2.0, size=n)
        eps_use, grid_best = grid_minimum(g, fisher, eps=1.0)
        out = trust_region_step(g, fisher, eps_use)
        assert float(g @ out.delta) <= grid_best + 1e-12


# -- config ---------------------------------------------------------------------------


def test_config_defaults_per_kind():
    assert UpdateRuleConfig(kind="precond").lr == 1e-3
    assert UpdateRuleConfig(kind="sgd").lr == 5e-4
    assert UpdateRuleConfig(kind="adamw").lr == 3e-4
    assert UpdateRuleConfig(kind="sgd", learning_rate=0.1).lr == 0.1


def test_config_validation():
    UpdateRuleConfig().validate()
    with pytest.raises(ValueError):
        UpdateRuleConfig(kind="newton").validate()
    with pytest.raises(ValueError):
        UpdateRuleConfig(steps=0).validate()
    with pytest.raises(ValueError):
        UpdateRuleConfig(max_delta_norm=0.0).validate()
    for bad in [{"learning_rate": float("nan")}, {"learning_rate": float("inf")},
                {"clip_coef": float("nan")}, {"max_delta_norm": float("nan")},
                {"lambda_reg": float("nan")}]:
        with pytest.raises(ValueError, match=f"{next(iter(bad))} must be finite"):
            UpdateRuleConfig(**bad).validate()
