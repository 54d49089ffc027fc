"""Shared test plumbing, including the independent oracles that the
package's vectorised code is checked against."""

import ctypes
import itertools
import math
import os

import numpy as np

from ttalab import _blas
from ttalab.genmodel import AdapterParams, NgramOneHot, ToyLM, Vocabulary, init_adapter, softmax
from ttalab.optim import (
    AdamWState,
    adamw_step,
    cap_delta,
    clip_gradient,
    precond_step,
    sgd_step,
)
from ttalab.scoring import normalize_words
from ttalab.tta import DEFAULT_SEPARATOR


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

    def logits(self, history):
        return np.array([0.0, self.phi])

    def sample_segment(self, history, settings, rng):
        return [int(rng.random() < self.p1) for _ in range(settings.tokens_per_segment)]

    def adapter_gradient(self, batch):
        # d log p(1)/dphi = 1 - p1 ; d log p(0)/dphi = -p1
        logp = log_softmax(self.logits(()))
        nll = total = 0.0
        for _, target in batch:
            for y in target:
                nll -= logp[y]
                total += (1.0 - self.p1) if y == 1 else -self.p1
        return float(nll) / len(batch), np.array([-total / len(batch)])


def tiny_model(seed=0, vocab_size=4, rank=2, w_scale=0.4, off_zero=True):
    """Small order-2 model. Off zero (the default), B is drawn after A, so
    both adapter blocks carry signal in gradient and Fisher tests."""
    rng = np.random.default_rng(seed)
    vocab = Vocabulary([f"w{i}" for i in range(vocab_size - 1)])
    fmap = NgramOneHot(len(vocab), order=2)
    w = rng.normal(0.0, w_scale, size=(len(vocab), fmap.dimension))
    adapter = init_adapter(rng, len(vocab), fmap.dimension, rank=rank, alpha=2.0 * rank)
    if off_zero:
        adapter = AdapterParams(adapter.a, rng.normal(0.0, 0.2, size=adapter.b.shape),
                                adapter.alpha)
    return ToyLM(vocab, w, adapter, fmap)


class ZeroFeatureMap:
    """Feature map that is identically zero; gradients vanish everywhere."""

    kind = "zero"
    order = 0

    def __init__(self, dimension):
        self.dimension = dimension

    def active_indices(self, history):
        return []

    def rows(self, spans):
        return np.zeros((sum(len(tokens) - start + 1 for tokens, start in spans),
                         self.dimension))


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


def log_softmax(z):
    z = z - z.max()
    return z - math.log(np.exp(z).sum())


def reference_logits(model, history):
    """Next-token logits, one column gather of the combined weight per token
    (BernoulliModel brings its own)."""
    if isinstance(model, BernoulliModel):
        return model.logits(history)
    return model.combined_weight()[:, model.fmap.active_indices(history)].sum(axis=1)


def reference_sequence_log_prob(model, target, history=()):
    """Sum of log P(target[t] | history + target[:t]), one token at a time."""
    target = [int(t) for t in target]
    if not target:
        raise ValueError("target sequence must be non-empty")
    ctx = list(history)
    total = 0.0
    for y in target:
        total += float(log_softmax(reference_logits(model, ctx))[y])
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


def reference_nucleus_pick(probs, top_p, rng):
    """The nucleus draw through Generator.choice: the smallest descending
    prefix with mass >= top_p, renormalised."""
    order = np.argsort(-probs, kind="stable")
    csum = np.cumsum(probs[order])
    cut = min(int(np.searchsorted(csum, top_p, side="left")) + 1, len(order))
    keep = order[:cut]
    p = probs[keep]
    return int(rng.choice(keep, p=p / p.sum()))


def reference_sample_segment(model, history, settings, rng):
    """ToyLM.sample_segment with one column gather of the combined weight
    and one Generator.choice draw per token."""
    ctx = list(history)
    out = []
    for _ in range(settings.tokens_per_segment):
        probs = softmax(reference_logits(model, ctx) / settings.temperature)
        y = reference_nucleus_pick(probs, settings.top_p, rng)
        out.append(y)
        ctx.append(y)
    return out


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


def reference_matched_terms(scorer, text):
    """LexiconScorer.matched_terms by scanning every position for every term."""
    words = normalize_words(text)

    def phrase_in(phrase):
        n = len(phrase)
        return any(tuple(words[i:i + n]) == phrase for i in range(len(words) - n + 1))

    return [t for t in scorer.terms if phrase_in(t)]


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


def reference_update_round(model, pairs, cfg, phi0, pre_diag):
    """One update round written step by step: lambda-regularise the
    gradient, clip it, take the rule's step, cap the step, apply it.
    Returns (losses, grad_norms, delta_norms); a grad norm is the norm of
    the clipped gradient. AdamW state starts at zero."""
    state = AdamWState.zeros(model.param_count)
    losses, grad_norms, delta_norms = [], [], []
    for _ in range(cfg.steps):
        phi = model.adapter_flat()
        loss, grad = model.adapter_gradient(pairs)
        g = clip_gradient(grad + cfg.lambda_reg * (phi - phi0), cfg.clip_coef)
        if cfg.kind == "precond":
            step = precond_step(g, pre_diag, cfg.lr)
        elif cfg.kind == "sgd":
            step = sgd_step(g, cfg.lr)
        else:
            step = adamw_step(state, phi, g, cfg.lr)
        delta = cap_delta(step, cfg.max_delta_norm)
        model.set_adapter_flat(phi + delta)
        losses.append(loss)
        grad_norms.append(float(np.linalg.norm(g)))
        delta_norms.append(float(np.linalg.norm(delta)))
    return losses, grad_norms, delta_norms


def blas_threads() -> int:
    """numpy's BLAS thread count, read now through the library's own getter
    rather than from the status `ttalab._blas` recorded at import."""
    for path in _blas._candidates():
        try:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for _, getter_name in _blas.SYMBOLS:
            if hasattr(lib, getter_name):
                getter = getattr(lib, getter_name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    raise AssertionError("no OpenBLAS thread getter found")
