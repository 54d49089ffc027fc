"""Offline diagonal Fisher estimation and the damped preconditioner.

The reference Fisher is estimated once, at the episode-start adapter state,
by sampling continuations from the model itself on a safe corpus and
averaging squared score entries; the preconditioner is the damped inverse
P = 1 / (F + damping) of that diagonal and is reused across every episode.
Its artifact stores F and the damping, from which P is derived; the stored
P is written for readers, and an artifact whose P disagrees with its F and
damping is refused (`ttalab run` exits 2). The exact Fisher of an
enumerable model is oracle.SequenceSpace.fisher_diag, on the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .artifacts import check_header, decode_array, digest_obj, encode_array, read_json, write_json
from .genmodel import GenerationSettings

PRECOND_KIND = "preconditioner"
PRECOND_VERSION = 1


class EstimationError(RuntimeError):
    pass


class DigestMismatchError(RuntimeError):
    """Preconditioner artifact does not belong to the model in hand."""


class KahanSum:
    """Compensated vector accumulator; fixed-order sums stay reproducible."""

    def __init__(self, n: int):
        self.total = np.zeros(n)
        self._carry = np.zeros(n)

    def add(self, x: np.ndarray) -> None:
        y = x - self._carry
        t = self.total + y
        self._carry = (t - self.total) - y
        self.total = t


def _encode_context(model, item):
    if isinstance(item, str):
        return model.vocab.encode(item)
    return [int(t) for t in item]


def corpus_digest(corpus) -> str:
    return digest_obj([item if isinstance(item, str) else list(map(int, item))
                       for item in corpus])


@dataclass
class FisherDiagEstimate:
    diag: np.ndarray
    sample_count: int
    n_steps: int
    batch_size: int
    continuation_tokens: int
    corpus_digest: str
    model_digest: str
    seed: int
    empirical: bool = False


def estimate_diag_fisher(model, corpus, n_steps: int = 10, batch_size: int = 2,
                         seed: int = 0, continuation_tokens: int = 128,
                         empirical: bool = False) -> FisherDiagEstimate:
    """Running mean of squared per-parameter scores over sampled batches.

    For each of `n_steps` steps a batch of contexts is drawn from the corpus
    and a continuation is sampled from the model at its current (episode
    start) state; the squared gradient of the continuation's log-likelihood
    is accumulated entrywise with compensated summation. `empirical=True`
    switches to the empirical-Fisher ablation: corpus items become the
    targets themselves (empty context) instead of sampled continuations.

    Each step draws from its own child stream of `seed` in a fixed order, so
    the result is byte-stable no matter how steps are scheduled.
    """
    corpus = list(corpus)
    if not corpus:
        raise EstimationError("cannot estimate Fisher on an empty corpus")
    if n_steps < 1 or batch_size < 1:
        raise EstimationError("n_steps and batch_size must be >= 1")

    acc = KahanSum(model.param_count)
    count = 0
    children = np.random.SeedSequence(seed).spawn(n_steps)
    settings = GenerationSettings(temperature=1.0, top_p=1.0,
                                  tokens_per_segment=continuation_tokens)
    for step in range(n_steps):
        rng = np.random.default_rng(children[step])
        picks = rng.integers(0, len(corpus), size=batch_size)
        for pick in picks:
            item = corpus[int(pick)]
            if empirical:
                target = _encode_context(model, item)[:continuation_tokens]
                if not target:
                    continue
                context = []
            else:
                context = _encode_context(model, item)
                target = model.sample_segment(context, settings, rng)
            score = -model.adapter_gradient([(context, target)])[1]
            acc.add(score * score)
            count += 1
    if count == 0:
        raise EstimationError("no usable samples in corpus")
    return FisherDiagEstimate(
        diag=acc.total / count,
        sample_count=count,
        n_steps=n_steps,
        batch_size=batch_size,
        continuation_tokens=continuation_tokens,
        corpus_digest=corpus_digest(corpus),
        model_digest=model.model_digest(),
        seed=seed,
        empirical=empirical,
    )


@dataclass
class Preconditioner:
    """P = 1 / (fisher_diag + damping), derived here and nowhere else.

    The constructor holds the validity rule: damping > 0 and the Fisher
    diagonal finite and >= 0, so every entry of P lies in (0, 1/damping]."""
    fisher_diag: np.ndarray
    damping: float
    meta: dict
    diag: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (np.isfinite(self.damping) and self.damping > 0):
            raise ValueError(f"damping must be a finite number > 0, got {self.damping!r}")
        if not (np.isfinite(self.fisher_diag).all() and (self.fisher_diag >= 0).all()):
            raise ValueError("fisher diagonal must be finite and non-negative")
        self.diag = 1.0 / (self.fisher_diag + self.damping)

    @property
    def n(self) -> int:
        return self.diag.size

    def save(self, path) -> None:
        write_json(path, {
            "kind": PRECOND_KIND,
            "format_version": PRECOND_VERSION,
            "n": self.n,
            "damping": self.damping,
            "diag": encode_array(self.diag),
            "fisher_diag": encode_array(self.fisher_diag),
            **self.meta,
        })

    @classmethod
    def load(cls, path, model=None) -> "Preconditioner":
        """Rebuild from the stored Fisher diagonal and damping; the stored
        `n` and `diag` must equal the rebuilt ones bit for bit."""
        d = read_json(path)
        check_header(d, PRECOND_KIND, PRECOND_VERSION, path)
        meta = {k: v for k, v in d.items()
                if k not in ("kind", "format_version", "n", "damping", "diag", "fisher_diag")}
        try:
            pre = cls(fisher_diag=decode_array(d["fisher_diag"]), damping=d["damping"],
                      meta=meta)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if d["n"] != pre.n:
            raise ValueError(f"{path}: stored n={d['n']} but the Fisher diagonal "
                             f"has {pre.n} entries")
        if d["diag"] != encode_array(pre.diag):
            raise ValueError(f"{path}: stored diag is not 1 / (fisher_diag + damping)")
        if model is not None:
            try:
                pre.check_model(model)
            except DigestMismatchError as exc:
                raise DigestMismatchError(f"{path}: {exc}") from None
        return pre

    def check_model(self, model) -> None:
        """Raise DigestMismatchError unless this preconditioner was estimated
        for `model` (its size, then its base-weight digest)."""
        if self.n != model.param_count:
            raise DigestMismatchError(
                f"n={self.n} != model parameter count {model.param_count}")
        if self.meta.get("model_digest") != model.model_digest():
            raise DigestMismatchError("preconditioner was built for a different model")


def build_preconditioner(estimate: FisherDiagEstimate,
                         damping: float = 1e-4) -> Preconditioner:
    """The preconditioner of `estimate`, its other fields kept as metadata."""
    return Preconditioner(
        fisher_diag=estimate.diag.copy(),
        damping=damping,
        meta={f.name: getattr(estimate, f.name) for f in fields(estimate)
              if f.name != "diag"},
    )
