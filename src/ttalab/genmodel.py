"""Toy autoregressive generator with a low-rank additive adapter.

The model scores the next token as ``logits = (W_base + s * B @ A) @ f(h)``
where ``f`` maps the token history to a fixed-width feature vector and
``s * B @ A`` is a rank-r correction that test-time updates act on. The
default feature map concatenates one-hot vectors of the last two history
tokens, so the base table plays the role of a smoothed trigram-class model.

Everything is float64 and deterministic given a seeded Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import check_header, decode_array, digest_obj, encode_array, read_json, write_json

OOV_TOKEN = "<unk>"
CHECKPOINT_KIND = "toy-lm"
CHECKPOINT_VERSION = 1


class Vocabulary:
    """Closed whitespace vocabulary with an out-of-vocabulary sentinel.

    Encoding casefolds, splits on whitespace and maps unknown words to the
    ``<unk>`` sentinel, which is always present.
    """

    def __init__(self, tokens):
        toks = list(dict.fromkeys(tokens))
        if OOV_TOKEN not in toks:
            toks.append(OOV_TOKEN)
        self.tokens: tuple[str, ...] = tuple(toks)
        self.index: dict[str, int] = {t: i for i, t in enumerate(self.tokens)}
        self.oov_id: int = self.index[OOV_TOKEN]

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, text: str) -> list[int]:
        return [self.index.get(w, self.oov_id) for w in text.casefold().split()]

    def decode(self, ids) -> str:
        words = []
        for i in ids:
            if not 0 <= int(i) < len(self.tokens):
                raise ValueError(f"token id {i} outside vocabulary of size {len(self)}")
            words.append(self.tokens[int(i)])
        return " ".join(words)


class NgramOneHot:
    """Concatenated one-hot features of the last `order` history tokens.

    Block j (1-indexed from the end of the history) holds the one-hot of the
    j-th most recent token; histories shorter than `order` leave the missing
    blocks at zero, so the empty history maps to the zero vector.
    """

    kind = "ngram-onehot"

    def __init__(self, vocab_size: int, order: int = 2):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.vocab_size = vocab_size
        self.order = order

    @property
    def dimension(self) -> int:
        return self.order * self.vocab_size

    def active_indices(self, history) -> list[int]:
        idx = []
        n = len(history)
        for j in range(1, self.order + 1):
            if n >= j:
                idx.append((j - 1) * self.vocab_size + int(history[n - j]))
        return idx

    def __call__(self, history) -> np.ndarray:
        f = np.zeros(self.dimension)
        f[self.active_indices(history)] = 1.0
        return f


@dataclass
class AdapterParams:
    """Low-rank correction Delta W = (alpha / rank) * B @ A.

    Flattening order is A row-major followed by B row-major; every gradient,
    Fisher diagonal and update delta in the package uses this layout.
    """

    a: np.ndarray  # (rank, dim)
    b: np.ndarray  # (vocab, rank)
    alpha: float = 32.0

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.a.ndim != 2 or self.b.ndim != 2 or self.a.shape[0] != self.b.shape[1]:
            raise ValueError("adapter shapes must be A:(rank,dim), B:(vocab,rank)")

    @property
    def rank(self) -> int:
        return self.a.shape[0]

    @property
    def scale(self) -> float:
        return self.alpha / self.rank

    @property
    def size(self) -> int:
        return self.a.size + self.b.size

    def flat(self) -> np.ndarray:
        return np.concatenate([self.a.ravel(), self.b.ravel()])

    def set_flat(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.size,):
            raise ValueError(f"expected flat vector of length {self.size}, got {vec.shape}")
        na = self.a.size
        self.a = vec[:na].reshape(self.a.shape).copy()
        self.b = vec[na:].reshape(self.b.shape).copy()

    def copy(self) -> "AdapterParams":
        return AdapterParams(self.a.copy(), self.b.copy(), self.alpha)

    def delta(self) -> np.ndarray:
        return self.scale * (self.b @ self.a)

    def flat_gradient(self, gw: np.ndarray) -> np.ndarray:
        """Chain rule through W = W_base + s * B @ A: weight gradients `gw` of
        shape (..., vocab, dim) to flat adapter gradients (..., size)."""
        lead = gw.shape[:-2]
        ga = self.scale * (self.b.T @ gw)
        gb = self.scale * (gw @ self.a.T)
        return np.concatenate([ga.reshape(lead + (-1,)), gb.reshape(lead + (-1,))], axis=-1)


def init_adapter(rng: np.random.Generator, vocab_size: int, dim: int,
                 rank: int = 16, alpha: float = 32.0) -> AdapterParams:
    """Zero-correction start: B = 0 exactly, A random, so Delta W = 0."""
    a = rng.normal(0.0, 1.0 / math.sqrt(dim), size=(rank, dim))
    b = np.zeros((vocab_size, rank))
    return AdapterParams(a, b, alpha)


@dataclass
class GenerationSettings:
    temperature: float = 0.9
    top_p: float = 0.9
    tokens_per_segment: int = 128

    def validate(self) -> None:
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")
        if not 0 < self.top_p <= 1:
            raise ValueError("top_p must lie in (0, 1]")
        if self.tokens_per_segment < 1:
            raise ValueError("tokens_per_segment must be >= 1")


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def nucleus_pick(probs: np.ndarray, top_p: float, rng: np.random.Generator) -> int:
    """Sample from the smallest descending-probability prefix with mass >= top_p."""
    order = np.argsort(-probs, kind="stable")
    csum = np.cumsum(probs[order])
    cut = min(int(np.searchsorted(csum, top_p, side="left")) + 1, len(order))
    keep = order[:cut]
    p = probs[keep]
    return int(rng.choice(keep, p=p / p.sum()))


class ToyLM:
    """Feature-map generator plus adapter, with episodic reset support.

    The adapter state at construction time is remembered as the episode
    start point; `reset_adapter` restores it bit-exactly.
    """

    def __init__(self, vocab: Vocabulary, w_base: np.ndarray, adapter: AdapterParams,
                 fmap=None):
        self.vocab = vocab
        self.fmap = fmap if fmap is not None else NgramOneHot(len(vocab))
        self.w_base = np.asarray(w_base, dtype=np.float64)
        if self.w_base.shape != (len(vocab), self.fmap.dimension):
            raise ValueError(
                f"w_base must be ({len(vocab)}, {self.fmap.dimension}), got {self.w_base.shape}")
        if adapter.a.shape[1] != self.fmap.dimension or adapter.b.shape[0] != len(vocab):
            raise ValueError("adapter dimensions do not match model")
        self.adapter = adapter
        self.initial_adapter = adapter.copy()
        self._wc = None

    # -- parameter plumbing ------------------------------------------------

    @property
    def param_count(self) -> int:
        return self.adapter.size

    def adapter_flat(self) -> np.ndarray:
        return self.adapter.flat()

    def set_adapter_flat(self, vec: np.ndarray) -> None:
        self.adapter.set_flat(vec)
        self._wc = None

    def apply_delta(self, delta: np.ndarray) -> None:
        self.set_adapter_flat(self.adapter_flat() + np.asarray(delta, dtype=np.float64))

    def reset_adapter(self) -> None:
        """Restore the construction-time adapter state, bit for bit."""
        self.adapter = self.initial_adapter.copy()
        self._wc = None

    def combined_weight(self) -> np.ndarray:
        if self._wc is None:
            self._wc = self.w_base + self.adapter.delta()
        return self._wc

    def clone(self) -> "ToyLM":
        m = ToyLM(self.vocab, self.w_base.copy(), self.adapter.copy(), self.fmap)
        m.initial_adapter = self.initial_adapter.copy()
        return m

    # -- scoring and sampling ----------------------------------------------

    def logits(self, history) -> np.ndarray:
        return self.combined_weight()[:, self.fmap.active_indices(history)].sum(axis=1)

    def sequence_log_prob(self, target, history=()) -> float:
        """Sum of log P(target[t] | history + target[:t])."""
        return float(self._teacher_forced([(history, target)])[2].sum())

    def sample_segment(self, history, settings: GenerationSettings,
                       rng: np.random.Generator) -> list[int]:
        settings.validate()
        ctx = list(history)
        out = []
        for _ in range(settings.tokens_per_segment):
            probs = softmax(self.logits(ctx) / settings.temperature)
            y = nucleus_pick(probs, settings.top_p, rng)
            out.append(y)
            ctx.append(y)
        return out

    # -- teacher-forced likelihood and adapter gradient ------------------------

    def _teacher_forced(self, batch):
        """One forward over every (pair, position) of a batch of
        (history_ids, target_ids) pairs.

        Row i of the returned arrays is one teacher-forced position: feats[i]
        its feature vector, targets[i] the token it predicts, logp[i] that
        token's log-probability and probs[i] the next-token distribution.
        """
        window = self.fmap.order
        row_ids, cols, targets = [], [], []
        for history, target in batch:
            target = [int(t) for t in target]
            if not target:
                raise ValueError("target sequence must be non-empty")
            # features see only the last `window` tokens (and the history
            # length up to `window`), so the rest of the history is dropped
            ctx = [int(t) for t in history[max(0, len(history) - window):]]
            for y in target:
                active = self.fmap.active_indices(ctx)
                row_ids += [len(targets)] * len(active)
                cols += active
                targets.append(y)
                ctx.append(y)
        feats = np.zeros((len(targets), self.fmap.dimension))
        np.add.at(feats, (row_ids, cols), 1.0)
        targets = np.array(targets, dtype=np.intp)
        logp, probs = self.softmax_rows(feats)
        return feats, targets, logp[np.arange(len(targets)), targets], probs

    def softmax_rows(self, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(log-probs, probs) of the next token, one row per feature row."""
        z = feats @ self.combined_weight().T
        z -= z.max(axis=1, keepdims=True)
        e = np.exp(z)
        total = e.sum(axis=1)
        return z - np.log(total)[:, None], e / total[:, None]

    def adapter_gradient(self, batch):
        """Mean negative log-likelihood over the batch and its flat gradient.

        `batch` is a sequence of (history_ids, target_ids) pairs; the loss is
        -(1/m) * sum_j log p(target_j | history_j). Returns (loss, gradient)
        from one forward pass; the gradient layout matches AdapterParams.flat
        (A block then B block). Exact, no sampling.
        """
        if not batch:
            raise ValueError("empty update batch")
        feats, targets, logp, resid = self._teacher_forced(batch)
        resid[np.arange(len(targets)), targets] -= 1.0  # d(-log p)/dz per row
        m = float(len(batch))
        return -float(logp.sum()) / m, self.adapter.flat_gradient(resid.T @ feats) / m

    # -- persistence ---------------------------------------------------------

    def checkpoint_dict(self) -> dict:
        return {
            "kind": CHECKPOINT_KIND,
            "format_version": CHECKPOINT_VERSION,
            "vocab": list(self.vocab.tokens),
            "feature": {"kind": self.fmap.kind, "order": self.fmap.order},
            "alpha": self.adapter.alpha,
            "rank": self.adapter.rank,
            "w_base": encode_array(self.w_base),
            "adapter_a": encode_array(self.adapter.a),
            "adapter_b": encode_array(self.adapter.b),
            "initial_a": encode_array(self.initial_adapter.a),
            "initial_b": encode_array(self.initial_adapter.b),
        }

    def save(self, path) -> None:
        write_json(path, self.checkpoint_dict())

    @classmethod
    def load(cls, path) -> "ToyLM":
        d = read_json(path)
        check_header(d, CHECKPOINT_KIND, CHECKPOINT_VERSION, path)
        if d["feature"]["kind"] != NgramOneHot.kind:
            raise ValueError(f"unknown feature map {d['feature']['kind']!r}")
        vocab = Vocabulary(d["vocab"])
        fmap = NgramOneHot(len(vocab), order=d["feature"]["order"])
        adapter = AdapterParams(decode_array(d["adapter_a"]), decode_array(d["adapter_b"]),
                                alpha=d["alpha"])
        model = cls(vocab, decode_array(d["w_base"]), adapter, fmap)
        model.initial_adapter = AdapterParams(
            decode_array(d["initial_a"]), decode_array(d["initial_b"]), alpha=d["alpha"])
        return model

    def model_digest(self) -> str:
        """Digest of the structure, base table and episode-start adapter.

        The current adapter state is excluded on purpose: preconditioners are
        estimated at the episode start point and stay valid across episodes.
        """
        d = self.checkpoint_dict()
        d.pop("adapter_a")
        d.pop("adapter_b")
        return digest_obj(d)
