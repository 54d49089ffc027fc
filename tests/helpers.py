"""Shared test plumbing, including the independent oracles that the
package's vectorised code is checked against."""

import itertools
import math

import numpy as np

from ttalab.genmodel import softmax
from ttalab.safebank import DEFAULT_SEPARATOR


class BernoulliModel:
    """One-parameter two-token model with p(token 1) = sigmoid(phi).

    Implements just enough of the generator protocol for the Fisher
    estimator and the enumeration oracle; its exact Fisher is the
    closed form sigma * (1 - sigma).
    """

    def __init__(self, phi):
        self.phi = float(phi)
        self.vocab = ["t0", "t1"]
        self.param_count = 1

    @property
    def p1(self):
        return 1.0 / (1.0 + math.exp(-self.phi))

    def exact_fisher(self):
        return self.p1 * (1.0 - self.p1)

    def model_digest(self):
        return f"bernoulli-{self.phi}"

    def next_token_logprobs(self, history):
        return np.log([1.0 - self.p1, self.p1])

    def sample_segment(self, history, settings, rng):
        return [int(rng.random() < self.p1) for _ in range(settings.tokens_per_segment)]

    def adapter_gradient(self, batch):
        # d log p(1)/dphi = 1 - p1 ; d log p(0)/dphi = -p1
        logp = self.next_token_logprobs(())
        nll = total = 0.0
        for _, target in batch:
            for y in target:
                nll -= logp[y]
                total += (1.0 - self.p1) if y == 1 else -self.p1
        return float(nll) / len(batch), np.array([-total / len(batch)])


class ZeroFeatureMap:
    """Feature map that is identically zero; gradients vanish everywhere."""

    kind = "zero"
    order = 0
    context_window = 0

    def __init__(self, dimension):
        self.dimension = dimension

    def active_indices(self, history):
        return []

    def __call__(self, history):
        return np.zeros(self.dimension)


class FixedScorer:
    """Returns a canned score per text (default for unknown texts)."""

    kind = "fixed"

    def __init__(self, scorer_id, table=None, default=0.0):
        self.id = scorer_id
        self.table = dict(table or {})
        self.default = default

    def score(self, text):
        return self.table.get(text, self.default)


# -- per-token loop oracles for the teacher-forced kernel ------------------------


def reference_sequence_log_prob(model, target, history=()):
    """Sum of log P(target[t] | history + target[:t]), one token at a time."""
    target = [int(t) for t in target]
    if not target:
        raise ValueError("target sequence must be non-empty")
    ctx = list(history)
    total = 0.0
    for y in target:
        total += float(model.next_token_logprobs(ctx)[y])
        ctx.append(y)
    return total


def reference_adapter_gradient(model, batch):
    """(mean NLL, flat gradient) of a ToyLM, walking every target token."""
    if not batch:
        raise ValueError("empty update batch")
    s = model.adapter.scale
    a, b = model.adapter.a, model.adapter.b
    wc = model.combined_weight()
    ga = np.zeros_like(a)
    gb = np.zeros_like(b)
    nll = 0.0
    for history, target in batch:
        nll -= reference_sequence_log_prob(model, target, history)
        ctx = list(history)
        for y in target:
            y = int(y)
            cols = model.fmap.active_indices(ctx)
            if cols:
                z = wc[:, cols].sum(axis=1)
                u = a[:, cols].sum(axis=1)
            else:
                z = np.zeros(len(model.vocab))
                u = np.zeros(model.adapter.rank)
            r = softmax(z)
            r[y] -= 1.0  # d(-log p)/dz
            gb += s * np.outer(r, u)
            bt_r = b.T @ r
            for c in cols:
                ga[:, c] += s * bt_r
            ctx.append(y)
    m = float(len(batch))
    return nll / m, np.concatenate([ga.ravel(), gb.ravel()]) / m


def brute_force_fisher(model, context, length):
    """Exact full Fisher (covariance of the score) of length-`length`
    continuations of `context`, by itertools.product over every outcome."""
    context = [int(t) for t in context]
    probs, scores = [], []
    for target in itertools.product(range(len(model.vocab)), repeat=length):
        probs.append(math.exp(reference_sequence_log_prob(model, target, context)))
        scores.append(-model.adapter_gradient([(context, list(target))])[1])
    p, s = np.array(probs), np.array(scores)
    centered = s - p @ s
    return (centered * p[:, None]).T @ centered


def context_align(history, entry_text, max_len_update=256, separator=DEFAULT_SEPARATOR):
    """String alignment: history tail (left-truncated to max_len_update
    tokens) + separator + entry text. At the default it is the string twin
    of tta.aligned_pairs for any history shorter than 256 tokens."""
    if isinstance(history, str):
        words = history.split()
    else:
        words = [str(w) for w in history]
    tail = words[-max_len_update:] if max_len_update > 0 else []
    return " ".join(tail + [separator] + entry_text.split())
