"""Brute-force ground truth on enumerable sequence spaces.

This module is test infrastructure: exponential tilting and the KL
projection onto the expected-bias sublevel set, exact KL against its Fisher
quadratic, empirical-gradient statistics, and the one-step expected descent
bound. Everything here is exact (full enumeration over the genmodel
likelihood kernel) or Monte Carlo with reported standard errors; the
adaptation loop never imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# -- tilting and KL projection ------------------------------------------------


class InfeasibleError(RuntimeError):
    """The bias constraint cannot be met by any tilt of the base law."""


def _check_dist(probs) -> np.ndarray:
    p = np.asarray(probs, dtype=np.float64)
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-10:
        raise ValueError("probabilities must be non-negative and sum to 1")
    return p


def tilt(probs, bias, beta: float) -> np.ndarray:
    """q(y) proportional to p0(y) * exp(-beta * b(y)), exactly normalized.

    Support is preserved: q(y) = 0 iff p0(y) = 0."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    p = _check_dist(probs)
    b = np.asarray(bias, dtype=np.float64)
    # subtract the max exponent for overflow safety; it cancels in the ratio
    expo = -beta * b
    expo -= expo.max()
    q = p * np.exp(expo)
    return q / q.sum()


def expected_bias(probs, bias, beta: float) -> float:
    q = tilt(probs, bias, beta)
    return float(q @ np.asarray(bias, dtype=np.float64))


def solve_beta(probs, bias, tau: float, tol: float = 1e-9) -> float:
    """Smallest tilt strength with E_q[b] = tau, by bisection.

    E_{q_beta}[b] is non-increasing in beta, so a doubling bracket followed
    by bisection converges; tau at or above the untilted mean needs no tilt
    (beta = 0) and tau below min(b) is infeasible."""
    p = _check_dist(probs)
    b = np.asarray(bias, dtype=np.float64)
    mean0 = float(p @ b)
    if tau >= mean0:
        return 0.0
    support_min = float(b[p > 0].min())
    if tau < support_min:
        raise InfeasibleError(f"tau={tau} below attainable minimum {support_min}")

    lo, hi = 0.0, 1.0
    for _ in range(200):
        if expected_bias(p, b, hi) <= tau:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise InfeasibleError(f"no finite tilt reaches tau={tau}")
    beta = hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = expected_bias(p, b, mid)
        if abs(val - tau) <= tol:
            return mid
        if val > tau:
            lo = mid
        else:
            hi = mid
        beta = mid
    return beta


def kl_divergence(q, p) -> float:
    """KL(q || p) with the 0 log 0 = 0 convention; +inf off p's support."""
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    mask = q > 0
    if np.any(p[mask] == 0):
        return math.inf
    return float(np.sum(q[mask] * (np.log(q[mask]) - np.log(p[mask]))))


@dataclass
class CertificateReport:
    beta_star: float
    kl_star: float
    min_margin: float
    n_trials: int


def kl_projection_certificate(probs, bias, tau: float, trials: int = 10_000,
                              seed: int = 0,
                              max_attempt_factor: int = 200) -> CertificateReport:
    """Monte Carlo optimality certificate for the tilted projection.

    Draws feasible distributions q (uniform on the simplex, rejected unless
    E_q[b] <= tau) and verifies KL(q||p0) >= KL(q*||p0) for each, where q*
    is the solved tilt. Reports the minimum margin over all trials."""
    p = _check_dist(probs)
    b = np.asarray(bias, dtype=np.float64)
    mean0 = float(p @ b)
    if tau >= mean0:
        beta_star, q_star = 0.0, p.copy()
    else:
        beta_star = solve_beta(p, b, tau)
        q_star = tilt(p, b, beta_star)
    kl_star = kl_divergence(q_star, p)

    rng = np.random.default_rng(seed)
    min_margin = math.inf
    accepted = 0
    rejected = 0
    budget = trials * max_attempt_factor
    while accepted < trials and rejected + accepted < budget:
        batch = rng.dirichlet(np.ones(p.size), size=256)
        feasible = batch @ b <= tau
        rejected += int(np.sum(~feasible))
        for q in batch[feasible]:
            if accepted == trials:
                break
            accepted += 1
            margin = kl_divergence(q, p) - kl_star
            if margin < min_margin:
                min_margin = margin
    if accepted == 0:
        raise InfeasibleError("no feasible simplex sample found; tau too tight")
    return CertificateReport(beta_star=beta_star, kl_star=kl_star,
                             min_margin=float(min_margin), n_trials=accepted)


# -- enumerated sequence space over the toy generator ----------------------------


class SequenceSpace:
    """All length-T continuations of one context, with vectorized tables.

    Windows (distinct feature rows encountered anywhere in the space) are
    built once; per-parameter score vectors and outcome log-probs
    at `phi_flat` (None: the adapter state the space was built at) are
    then dense-array operations. Budget-guarded: |V|^T outcomes at most
    `budget`.
    """

    def __init__(self, model, context, length: int, budget: int = 10 ** 6):
        if isinstance(context, str):
            context = model.vocab.encode(context)
        vsize = len(model.vocab)
        if vsize ** length > budget:
            raise ValueError(f"enumeration budget exceeded: {vsize}^{length}")
        self.model = model.clone()
        self.phi0 = model.adapter_flat()
        self.context = [int(t) for t in context]
        self.length = length
        self.vsize = vsize

        # outcomes as an (N, T) token grid; the last token varies fastest, so
        # each distinct length-t prefix leads a run of V^(T - t) outcomes
        self.outcomes = np.stack([g.ravel() for g in np.meshgrid(
            *[np.arange(vsize)] * length, indexing="ij")], axis=1)

        # one feature row per distinct prefix, shortest first, deduplicated
        # into windows; win_idx[i, t] is the window of context + outcomes[i, :t]
        runs = [vsize ** (length - t) for t in range(length)]
        spans = [(self.context + q, len(self.context) + t)
                 for t, run in enumerate(runs) for q in self.outcomes[::run, :t].tolist()]
        self.features, inverse = np.unique(model.fmap.rows(spans), axis=0,
                                           return_inverse=True)  # (W, d)
        inverse = inverse.reshape(-1)  # (R,) or (R, 1) depending on the numpy release
        # column by column, so that no (N, T) temporary is built
        self.win_idx = np.empty(self.outcomes.shape, dtype=np.int64)
        lead = 0
        for t, run in enumerate(runs):
            count = len(self.outcomes) // run
            self.win_idx[:, t] = np.repeat(inverse[lead:lead + count], run)
            lead += count

    @property
    def n_outcomes(self) -> int:
        return self.outcomes.shape[0]

    def _at(self, phi_flat):
        self.model.set_adapter_flat(self.phi0 if phi_flat is None else phi_flat)
        return self.model

    def logprob_table(self, phi_flat=None) -> np.ndarray:
        """(W, V) next-token log-probs for every window."""
        return self._at(phi_flat).softmax_rows(self.features)[0]

    def outcome_logprobs(self, phi_flat=None) -> np.ndarray:
        return self.logprob_table(phi_flat)[self.win_idx, self.outcomes].sum(axis=1)

    def probs(self, phi_flat=None) -> np.ndarray:
        return np.exp(self.outcome_logprobs(phi_flat))

    def score_matrix(self, phi_flat=None) -> np.ndarray:
        """(N, n) per-outcome score vectors: grad_phi log p(outcome | context)."""
        model = self._at(phi_flat)
        probs = model.softmax_rows(self.features)[1]     # (W, V)
        # d log p(y | w) / dW = (e_y - p_w) f_w^T for every (window, token) pair
        resid = np.eye(self.vsize)[None, :, :] - probs[:, None, :]   # (W, V, V)
        gw = resid[..., None] * self.features[:, None, None, :]       # (W, V, V, d)
        table = model.adapter.flat_gradient(gw)                       # (W, V, n)
        # position by position, in the order .sum(axis=1) adds (so bit for
        # bit equal to it), without the (N, T, n) gather
        scores = table[self.win_idx[:, 0], self.outcomes[:, 0]]
        for t in range(1, self.length):
            scores += table[self.win_idx[:, t], self.outcomes[:, t]]
        return scores

    def grad_J(self, weights, phi_flat=None) -> np.ndarray:
        """Exact gradient of J(phi) = E_{y~weights}[-log p_phi(y | context)]."""
        scores = self.score_matrix(phi_flat)
        return -(np.asarray(weights) @ scores)

    def fisher_full(self, phi_flat=None) -> np.ndarray:
        p, s = self.probs(phi_flat), self.score_matrix(phi_flat)
        centered = s - p @ s
        return (centered * p[:, None]).T @ centered

    def fisher_diag(self, phi_flat=None) -> np.ndarray:
        p, s = self.probs(phi_flat), self.score_matrix(phi_flat)
        return p @ (s ** 2) - (p @ s) ** 2


# -- KL vs Fisher quadratic ---------------------------------------------------------


def kl_vs_fisher_quadratic(model, context, length: int, delta) -> list[dict]:
    """Exact KL(p_{phi+c*delta} || p_phi) against (c^2/2) delta^T I(phi) delta.

    Returns one row per scale c = 1, 1/2, ..., 1/16 with both sides and their
    ratio (nan when both vanish). The quadratic uses the full exact Fisher at
    phi."""
    space = SequenceSpace(model, context, length)
    phi0 = model.adapter_flat()
    delta = np.asarray(delta, dtype=np.float64)
    base_logp = space.outcome_logprobs(phi0)
    fisher = space.fisher_full(phi0)
    quad_unit = 0.5 * float(delta @ fisher @ delta)
    rows = []
    for c in (1.0, 0.5, 0.25, 0.125, 0.0625):
        new_logp = space.outcome_logprobs(phi0 + c * delta)
        p_new = np.exp(new_logp)
        kl = float(np.sum(p_new * (new_logp - base_logp)))
        quad = (c ** 2) * quad_unit
        ratio = math.nan if quad == 0.0 else kl / quad
        rows.append({"scale": c, "kl": kl, "quadratic": quad, "ratio": ratio})
    return rows


# -- empirical gradient statistics -----------------------------------------------------


@dataclass
class GradStatsReport:
    exact_grad: np.ndarray
    max_bias_se_units: float
    cov_traces: dict[int, float]
    slope: float
    trials: int


def empirical_grad_stats(model, context, targets, weights=None,
                         m_values=(1, 2, 4, 8, 16), trials: int = 400,
                         seed: int = 0, replace: bool = True) -> GradStatsReport:
    """Bias and covariance scaling of the batch-mean update gradient.

    `targets` is the safe-text support (token sequences); `weights` its
    distribution (uniform when omitted). Per-sample vectors are exact
    gradients of -log p(target | context), so the only randomness is the
    batch draw. With replace=False and m equal to the support size the
    batch mean reproduces the exact gradient (uniform weights only)."""
    if isinstance(context, str):
        context = model.vocab.encode(context)
    targets = [list(map(int, t)) for t in targets]
    if weights is None:
        weights = np.full(len(targets), 1.0 / len(targets))
    else:
        if not replace:
            raise ValueError("weighted support requires replace=True")
        weights = _check_dist(weights)
    per_sample = np.stack([model.adapter_gradient([(context, t)])[1] for t in targets])
    exact = weights @ per_sample

    rng = np.random.default_rng(seed)
    traces: dict[int, float] = {}
    max_units = 0.0
    for m in m_values:
        if not replace and m > len(targets):
            raise ValueError("m exceeds support size with replace=False")
        draws = np.empty((trials, per_sample.shape[1]))
        for t in range(trials):
            if replace:
                idx = rng.choice(len(targets), size=m, replace=True, p=weights)
            else:
                idx = rng.permutation(len(targets))[:m]
            draws[t] = per_sample[idx].mean(axis=0)
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / math.sqrt(trials)
        diff = np.abs(mean - exact)
        units = np.where(se > 0, diff / np.where(se > 0, se, 1.0),
                         np.where(diff > 0, math.inf, 0.0))
        max_units = max(max_units, float(units.max()))
        traces[m] = float(draws.var(axis=0, ddof=1).sum())
    xs = np.log(np.array(list(traces), dtype=np.float64))
    ys = np.log(np.maximum(np.array(list(traces.values())), 1e-300))
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(traces) > 1 else math.nan
    return GradStatsReport(exact_grad=exact, max_bias_se_units=max_units,
                           cov_traces=traces, slope=slope, trials=trials)


# -- local smoothness and the descent bound ----------------------------------------------


def estimate_local_smoothness(space: SequenceSpace, weights, phi_center,
                              radius: float, probes: int = 5, iters: int = 15,
                              seed: int = 0) -> float:
    """Largest Hessian eigenvalue of J over a neighborhood, by power
    iteration on central-difference Hessian-vector products."""
    fd_step = 1e-5
    rng = np.random.default_rng(seed)
    n = phi_center.size
    best = 0.0
    for k in range(probes):
        if k == 0:
            phi = phi_center.copy()
        else:
            direction = rng.normal(size=n)
            direction /= np.linalg.norm(direction)
            phi = phi_center + radius * rng.uniform(0, 1) * direction
        v = rng.normal(size=n)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(iters):
            hv = (space.grad_J(weights, phi + fd_step * v)
                  - space.grad_J(weights, phi - fd_step * v)) / (2 * fd_step)
            norm = float(np.linalg.norm(hv))
            if norm == 0.0:
                break
            lam = norm
            v = hv / norm
        best = max(best, lam)
    return best


@dataclass
class DescentBoundReport:
    fraction_ok: float
    lipschitz: float
    alpha: float
    details: list


def descent_bound_check(model, precond_diag, context, length: int,
                        alpha: float = 1e-3, m: int = 2, trials: int = 100,
                        seed: int = 0, perturb: float = 0.05,
                        batches: int = 48) -> DescentBoundReport:
    """Monte Carlo check of the one-step expected descent inequality.

    The safe distribution is the model's own conditional at the episode
    start state (that is the regime where the bound's covariance identity
    Cov(g_hat) = I/m is exact). Each trial perturbs the adapter inside a
    ball of radius `perturb`, draws `batches` size-m safe batches, applies
    the preconditioned step for each, and compares the exact post-step loss
    mean against

        J - alpha g'Pg + (L alpha^2 / 2)(||Pg||^2 + tr(P I P)/m)

    with the exact Fisher diagonal at the perturbed point. A trial passes
    when mean J_new <= bound + 3 SE(mean). The smoothness constant is
    estimated over the perturbation ball."""
    space = SequenceSpace(model, context, length)
    phi0 = model.adapter_flat()
    weights = space.probs(phi0)          # D_safe: model conditional at start
    pre = np.asarray(precond_diag, dtype=np.float64)

    # cover both the perturbation ball and the small step taken from it
    lip = estimate_local_smoothness(space, weights, phi0,
                                    radius=2.0 * perturb if perturb > 0 else 0.1,
                                    seed=seed)

    rng = np.random.default_rng(seed)
    ok = 0
    details = []
    n = phi0.size
    for t in range(trials):
        if perturb > 0:
            direction = rng.normal(size=n)
            direction /= np.linalg.norm(direction)
            phi_t = phi0 + perturb * rng.uniform(0, 1) * direction
        else:
            phi_t = phi0.copy()
        logp_t = space.outcome_logprobs(phi_t)
        scores = space.score_matrix(phi_t)
        j_t = float(-(weights @ logp_t))
        g = -(weights @ scores)
        fisher_diag = weights @ (scores ** 2) - (weights @ scores) ** 2

        pg = pre * g
        rhs = (j_t - alpha * float(g @ pg)
               + 0.5 * lip * alpha ** 2 * (float(pg @ pg)
                                           + float(np.sum(pre ** 2 * fisher_diag)) / m))

        j_new = np.zeros(batches)
        for bi in range(batches):
            idx = rng.choice(space.n_outcomes, size=m, p=weights)
            g_hat = -scores[idx].mean(axis=0)
            delta = -alpha * pre * g_hat
            j_new[bi] = float(-(weights @ space.outcome_logprobs(phi_t + delta)))
        mean_new = float(j_new.mean())
        se = float(j_new.std(ddof=1) / math.sqrt(batches))
        if mean_new <= rhs + 3 * se:
            ok += 1
        details.append({"J": j_t, "rhs": rhs, "mean_new": mean_new, "se": se})
    return DescentBoundReport(fraction_ok=ok / trials, lipschitz=lip, alpha=alpha,
                              details=details)
