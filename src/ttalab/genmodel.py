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
import numbers
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
        check_ids(ids, len(self))
        return " ".join(self.tokens[int(i)] for i in ids)


def check_ids(tokens, vocab_size: int) -> None:
    """Refuse ids outside 0..vocab_size-1: one would index another block or wrap."""
    if len(tokens) and not 0 <= min(tokens) <= max(tokens) < vocab_size:
        raise ValueError(f"token ids {min(tokens)}..{max(tokens)} outside 0..{vocab_size - 1}")


def _read_only(a: np.ndarray) -> np.ndarray:
    """A view of `a` that numpy refuses to write through."""
    view = a.view()
    view.flags.writeable = False
    return view


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
        for j in range(1, min(n, self.order) + 1):
            t = int(history[n - j])
            if not 0 <= t < self.vocab_size:  # inline: this runs once per sampled token
                raise ValueError(f"token id {t} outside 0..{self.vocab_size - 1}")
            idx.append((j - 1) * self.vocab_size + t)
        return idx

    def rows(self, spans) -> np.ndarray:
        """Feature rows of the prefixes tokens[:i], i = start .. len(tokens), of
        each (tokens, start) span, stacked in order. Only the last `order` tokens
        before `start` are read and checked, so a span may carry a whole history."""
        rows, cols, n_rows = [], [], 0
        for tokens, start in spans:
            n = len(tokens)
            check_ids(tokens[max(0, start - self.order):], self.vocab_size)
            for j in range(1, self.order + 1):
                # prefix tokens[:i] is row n_rows + i - start; block j holds tokens[i - j]
                first, off = max(start, j), (j - 1) * self.vocab_size
                rows += range(n_rows + first - start, n_rows + n - start + 1)
                cols += [off + tokens[i - j] for i in range(first, n + 1)]
            n_rows += n - start + 1
        feats = np.zeros((n_rows, self.dimension))
        feats[rows, cols] = 1.0
        return feats


class AdapterParams:
    """Low-rank correction Delta W = (alpha / rank) * B @ A.

    The flat vector `phi`, A row-major then B row-major, is the one stored
    state and the layout of every gradient, Fisher diagonal and update delta
    in the package. `phi` and its block views `a` and `b` are read-only: a
    write through any of them raises ValueError, and none can be rebound.
    Only `ToyLM`'s three writers change the state, through the private
    array. `a` and `b` must be finite, the rank at least 1 and `alpha`
    a finite real > 0.
    """

    def __init__(self, a, b, alpha: float = 32.0):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[1]:
            raise ValueError("adapter shapes must be A:(rank,dim), B:(vocab,rank)")
        if a.shape[0] < 1:
            raise ValueError("adapter rank must be >= 1")
        if (isinstance(alpha, bool) or not isinstance(alpha, numbers.Real)
                or not (math.isfinite(alpha) and alpha > 0)):
            raise ValueError(f"alpha must be a finite number > 0, got {alpha!r}")
        self._phi = np.concatenate([a.ravel(), b.ravel()])
        if not np.isfinite(self._phi).all():
            raise ValueError("adapter weights A and B must be finite")
        self._shapes = (a.shape, b.shape)
        self._alpha = alpha
        # built once; the block reshapes of a read-only view are read-only too
        self._phi_view = _read_only(self._phi)
        self._a, self._b = self.split_flat(self._phi_view)

    @property
    def phi(self) -> np.ndarray:
        return self._phi_view

    @property
    def a(self) -> np.ndarray:
        return self._a

    @property
    def b(self) -> np.ndarray:
        return self._b

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def rank(self) -> int:
        return self._shapes[0][0]

    @property
    def scale(self) -> float:
        return self.alpha / self.rank

    def split_flat(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The A and B blocks of a flat vector in this layout, as shaped views."""
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != self._phi.shape:
            raise ValueError(f"expected flat vector of length {self._phi.size}, got {vec.shape}")
        (rank, dim), b_shape = self._shapes
        return vec[:rank * dim].reshape(rank, dim), vec[rank * dim:].reshape(b_shape)

    def copy(self) -> "AdapterParams":
        return AdapterParams(self.a, self.b, self.alpha)  # concatenates: a new phi

    def delta(self) -> np.ndarray:
        return self.scale * (self.b @ self.a)

    def flat_gradient(self, gw: np.ndarray) -> np.ndarray:
        """Chain rule through W = W_base + s * B @ A: weight gradients `gw` of
        shape (..., vocab, dim) to flat adapter gradients (..., len(phi))."""
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
    """Sampling settings with no defaults of their own: an episode's come
    from `tta.EpisodeConfig`, a Fisher estimate's from
    `precond.sampling_settings`."""
    temperature: float
    top_p: float
    tokens_per_segment: int

    def validate(self) -> None:
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError(f"temperature must be finite and > 0, got {self.temperature}")
        if not 0 < self.top_p <= 1:
            raise ValueError("top_p must lie in (0, 1]")
        if self.tokens_per_segment < 1:
            raise ValueError("tokens_per_segment must be >= 1")


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


# Generator.choice's tolerance on the sum of a float64 distribution
_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)


def nucleus_pick(probs: np.ndarray, top_p: float, rng: np.random.Generator) -> int:
    """Sample from the smallest descending-probability prefix with mass >= top_p.

    `probs` is float64. The draw is `rng.choice(keep, p=p / p.sum())` written
    out with the same float operations (normalise, cumsum, divide by the last
    entry, one uniform, searchsorted right), so it returns the same token,
    consumes the same single uniform and raises ValueError where choice does:
    NaN, zero or infinite mass, or a negative normalised entry.
    """
    order = (-probs).argsort(kind="stable")
    ranked = probs[order]
    cut = min(int(ranked.cumsum().searchsorted(top_p, side="left")) + 1, len(order))
    p = ranked[:cut]
    q = p / p.sum()
    cdf = q.cumsum()
    # p is sorted, so q is monotone and its smallest entry is at an end; NaN
    # or inf anywhere makes cdf[-1] fail the sum test
    if not (cut and min(q[0], q[-1]) >= 0 and abs(cdf[-1] - 1.0) <= _CHOICE_ATOL):
        raise ValueError("nucleus probabilities are not a distribution")
    cdf /= cdf[-1]
    return int(order[cdf.searchsorted(rng.random(), side="right")])


class ToyLM:
    """Feature-map generator plus adapter, with episodic reset support.

    The adapter state at construction time is remembered as the episode
    start point; `reset_adapter` restores it bit-exactly. The model keeps
    its own copies of `w_base` and of the adapter state. Every weight array
    it exposes is read-only, and only `set_adapter_flat`, `apply_delta` and
    `reset_adapter` write, so the cached W_base + Delta W cannot go stale.
    `w_base` must be finite.
    """

    def __init__(self, vocab: Vocabulary, w_base: np.ndarray, adapter: AdapterParams,
                 fmap=None):
        self.vocab = vocab
        self.fmap = fmap if fmap is not None else NgramOneHot(len(vocab))
        w_base = np.array(w_base, dtype=np.float64)  # a copy: no caller can write it
        if w_base.shape != (len(vocab), self.fmap.dimension):
            raise ValueError(
                f"w_base must be ({len(vocab)}, {self.fmap.dimension}), got {w_base.shape}")
        if not np.isfinite(w_base).all():
            raise ValueError("w_base must be finite")
        if adapter.a.shape[1] != self.fmap.dimension or adapter.b.shape[0] != len(vocab):
            raise ValueError("adapter dimensions do not match model")
        w_base.flags.writeable = False
        self._w_base = w_base
        # the one adapter this model writes; `adapter` itself is never written
        self._adapter = adapter.copy()
        self._initial_adapter = adapter
        self._wc = None
        self._digest = None

    # -- parameter plumbing ------------------------------------------------

    @property
    def w_base(self) -> np.ndarray:
        return self._w_base

    @property
    def adapter(self) -> AdapterParams:
        return self._adapter

    @property
    def initial_adapter(self) -> AdapterParams:
        return self._initial_adapter

    @property
    def param_count(self) -> int:
        return self._adapter.phi.size

    def adapter_flat(self) -> np.ndarray:
        return self._adapter.phi.copy()

    def set_adapter_flat(self, vec: np.ndarray) -> None:
        self._adapter.split_flat(vec)  # refuses a vector of another length
        self._adapter._phi[:] = vec
        self._wc = None

    def apply_delta(self, delta: np.ndarray) -> None:
        self._adapter.split_flat(delta)  # a scalar or short delta would broadcast
        self._adapter._phi += delta
        self._wc = None

    def reset_adapter(self) -> None:
        """Restore the construction-time adapter state, bit for bit."""
        self._adapter._phi[:] = self._initial_adapter.phi
        self._wc = None

    def combined_weight(self) -> np.ndarray:
        if self._wc is None:
            self._wc = _read_only(self._w_base + self._adapter.delta())
        return self._wc

    def clone(self) -> "ToyLM":
        m = ToyLM(self.vocab, self._w_base, self._initial_adapter, self.fmap)
        m.set_adapter_flat(self._adapter.phi)
        return m

    # -- scoring and sampling ----------------------------------------------

    def sequence_log_prob(self, target, history=()) -> float:
        """Sum of log P(target[t] | history + target[:t])."""
        return float(self._teacher_forced([(history, target)])[2].sum())

    def sample_segment(self, history, settings: GenerationSettings,
                       rng: np.random.Generator) -> list[int]:
        settings.validate()
        # feature-major copy: a token's logits are the sum of the rows of its
        # active features; the weights cannot change inside this call
        wt = self.combined_weight().T.copy()
        active = self.fmap.active_indices
        ctx = list(history)
        out = []
        for _ in range(settings.tokens_per_segment):
            probs = softmax(wt[active(ctx)].sum(axis=0) / settings.temperature)
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
        if any(len(target) == 0 for _, target in batch):
            raise ValueError("target sequence must be non-empty")
        feats = self.fmap.rows([([*history, *target[:-1]], len(history))
                                for history, target in batch])
        targets = [y for _, target in batch for y in target]
        check_ids(targets, len(self.vocab))
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
        from one forward pass; the gradient layout is that of AdapterParams.phi
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
        """The episode-start model; the current adapter state is not saved."""
        return {
            "kind": CHECKPOINT_KIND,
            "format_version": CHECKPOINT_VERSION,
            "vocab": list(self.vocab.tokens),
            "feature": {"kind": self.fmap.kind, "order": self.fmap.order},
            "alpha": self.adapter.alpha,
            "rank": self.adapter.rank,
            "w_base": encode_array(self.w_base),
            "initial_a": encode_array(self.initial_adapter.a),
            "initial_b": encode_array(self.initial_adapter.b),
        }

    def save(self, path) -> None:
        write_json(path, self.checkpoint_dict())

    @classmethod
    def load(cls, path) -> "ToyLM":
        d = read_json(path)
        check_header(d, CHECKPOINT_KIND, CHECKPOINT_VERSION)
        if d["feature"]["kind"] != NgramOneHot.kind:
            raise ValueError(f"unknown feature map {d['feature']['kind']!r}")
        vocab = Vocabulary(d["vocab"])
        fmap = NgramOneHot(len(vocab), order=d["feature"]["order"])
        # an older layout also saved the current state; it loads only when
        # that state is the episode start, the one state a checkpoint holds
        if any(d.get(f"adapter_{x}", d[f"initial_{x}"]) != d[f"initial_{x}"] for x in "ab"):
            raise ValueError("adapter state differs from the episode-start "
                             "adapter; a checkpoint holds the episode-start model only")
        adapter = AdapterParams(decode_array(d["initial_a"]), decode_array(d["initial_b"]),
                                alpha=d["alpha"])
        if d["rank"] != adapter.rank:  # a restated value must agree with its source
            raise ValueError(f"stored rank {d['rank']!r} differs from initial_a's "
                             f"{adapter.rank} rows")
        return cls(vocab, decode_array(d["w_base"]), adapter, fmap)

    def model_digest(self) -> str:
        """Digest of the checkpoint, so of the episode-start adapter and not
        the current one: preconditioners are estimated at the episode start
        point and stay valid across episodes. Every array it hashes is
        read-only, so it is computed once."""
        if self._digest is None:
            self._digest = digest_obj(self.checkpoint_dict())
        return self._digest
