"""Embedding-space out-of-distribution detectors and their evaluation.

Three detectors (k-th nearest neighbour distance, shrinkage Mahalanobis,
likelihood ratio) plus rank-based AUROC / AUPR with a percentile bootstrap.
Embeddings at this scale are mean-pooled feature-map vectors; anything
richer can be piped in through the embedding exchange file.

scipy's `rankdata` is imported inside `_rank_auroc` only, so importing this
module does not load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import write_text

FAR_OOD_AUROC = 0.95


# -- embeddings ------------------------------------------------------------------


@dataclass
class EmbeddingSet:
    vectors: np.ndarray
    label: str = "reference"
    source: str = "unknown"

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be a 2-d array")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("vectors must be finite")
        for field in (self.label, self.source):
            if not field or any(c.isspace() for c in field):
                raise ValueError("label and source must be non-empty, no whitespace")

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def save(self, path) -> None:
        lines = [f"{self.dim} {len(self)} {self.source} {self.label}"]
        lines += [" ".join(f"{v:.17g}" for v in row) for row in self.vectors]
        write_text(path, "\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "EmbeddingSet":
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().split()
            if len(header) != 4:
                raise ValueError("malformed embedding header")
            dim, count = int(header[0]), int(header[1])
            rows = []
            for ln, line in enumerate(fh, start=2):
                vals = np.array(line.split(), dtype=np.float64)
                if vals.size != dim:
                    raise ValueError(f"line {ln}: expected {dim} values")
                rows.append(vals)
        if len(rows) != count:
            raise ValueError(f"header promises {count} rows, found {len(rows)}")
        return cls(np.stack(rows) if rows else np.zeros((0, dim)),
                   label=header[3], source=header[2])


def embed_tokens(fmap, tokens) -> np.ndarray:
    """Mean of the feature vectors of every history prefix of `tokens`."""
    tokens = [int(t) for t in tokens]
    if not tokens:
        raise ValueError("cannot embed an empty token sequence")
    return fmap.rows([(tokens, 1)]).mean(axis=0)


def embed_corpus(model, texts, label: str = "candidate",
                 source: str = "corpus") -> EmbeddingSet:
    vecs = [embed_tokens(model.fmap, model.vocab.encode(t)) for t in texts]
    return EmbeddingSet(np.stack(vecs), label=label, source=source)


# -- detectors -------------------------------------------------------------------


def knn_scores(queries, reference, k: int = 10) -> np.ndarray:
    """Euclidean distance from each query to its k-th nearest reference vector,
    one query at a time: a queries x reference x d array would not fit."""
    ref = np.asarray(reference, dtype=np.float64)
    if k < 1 or k > ref.shape[0]:
        raise ValueError(f"k={k} out of range for reference of size {ref.shape[0]}")
    qs = np.asarray(queries, dtype=np.float64)
    scores = np.empty(len(qs))
    for n, q in enumerate(qs):
        scores[n] = np.partition(np.linalg.norm(ref - q, axis=1), k - 1)[k - 1]
    return scores


def fit_gaussian(reference) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and maximum-likelihood covariance of the reference set."""
    ref = np.asarray(reference, dtype=np.float64)
    mu = ref.mean(axis=0)
    centered = ref - mu
    sigma = centered.T @ centered / ref.shape[0]
    return mu, sigma


def mahalanobis_scores(queries, mu, sigma, shrinkage: float | None = None) -> np.ndarray:
    """sqrt((x-mu)^T (Sigma + gamma I)^(-1) (x-mu)) for each query x, with
    shrinkage gamma. One Cholesky factor serves every query."""
    qs = np.asarray(queries, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    dim = sigma.shape[0]
    # small toy reference sets leave the raw covariance ill-conditioned
    gamma = 1e-3 * float(np.trace(sigma)) / dim if shrinkage is None else float(shrinkage)
    try:
        chol = np.linalg.cholesky(sigma + gamma * np.eye(dim))
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"regularized covariance is singular (gamma={gamma})") from exc
    scores = np.empty(len(qs))
    for n, q in enumerate(qs):
        y = np.linalg.solve(chol, q - mu)
        scores[n] = np.sqrt(y @ y)
    return scores


def llr_scores(texts, foreground, background) -> np.ndarray:
    """log p_bg(t) - log p_fg(t) per text t; higher is more OOD for the foreground.

    The foreground models the in-distribution text, so a text the background
    explains better scores high."""
    return np.array([background.sequence_log_prob(background.vocab.encode(t))
                     - foreground.sequence_log_prob(foreground.vocab.encode(t))
                     for t in texts], dtype=np.float64)


# -- evaluation ------------------------------------------------------------------


def _rank_auroc(o: np.ndarray, i: np.ndarray) -> np.ndarray:
    """Rank-statistic AUROC of each row of `o` (OOD) against the same row of
    `i` (ID). Ranks are half-integers, so the rank sums are exact."""
    from scipy.stats import rankdata

    n_o, n_i = o.shape[1], i.shape[1]
    ranks = rankdata(np.concatenate([o, i], axis=1), axis=1)
    u = ranks[:, :n_o].sum(axis=1) - n_o * (n_o + 1) / 2.0
    return u / (n_o * n_i)


def auroc(scores_ood, scores_id) -> float:
    """Rank-statistic AUROC; tied pairs count one half."""
    o = np.asarray(scores_ood, dtype=np.float64)
    i = np.asarray(scores_id, dtype=np.float64)
    if o.size == 0 or i.size == 0:
        raise ValueError("both score sets must be non-empty")
    return float(_rank_auroc(o[None], i[None])[0])


def aupr(scores_ood, scores_id) -> float:
    """Area under precision-recall with OOD as the positive class.

    Thresholds sweep the distinct score values from high to low, so ties
    enter as a group rather than in arbitrary order."""
    o = np.asarray(scores_ood, dtype=np.float64)
    i = np.asarray(scores_id, dtype=np.float64)
    if o.size == 0 or i.size == 0:
        raise ValueError("both score sets must be non-empty")
    scores = np.concatenate([o, i])
    labels = np.concatenate([np.ones(o.size), np.zeros(i.size)])
    order = np.argsort(-scores, kind="mergesort")
    s_sorted, y_sorted = scores[order], labels[order]
    # last index of each distinct-value group
    ends = np.nonzero(np.diff(s_sorted) != 0)[0]
    ends = np.concatenate([ends, [s_sorted.size - 1]])
    tp = np.cumsum(y_sorted)[ends]
    fp = np.cumsum(1.0 - y_sorted)[ends]
    precision = tp / (tp + fp)
    recall = tp / o.size
    recall_prev = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - recall_prev) * precision))


@dataclass
class DetectorResult:
    detector: str
    auroc: float
    aupr: float
    ci_low: float
    ci_high: float
    n_bootstrap: int
    n_ood: int
    n_id: int

    @property
    def far_ood(self) -> bool:
        return self.auroc > FAR_OOD_AUROC

    def to_record(self) -> dict:
        return {
            "detector": self.detector,
            "auroc": self.auroc,
            "auroc_ci": [self.ci_low, self.ci_high],
            "aupr": self.aupr,
            "n_bootstrap": self.n_bootstrap,
            "n_ood": self.n_ood,
            "n_id": self.n_id,
            "far_ood": self.far_ood,
        }


def evaluate(scores_ood, scores_id, bootstrap_n: int = 1000, seed: int = 0,
             detector: str = "detector") -> DetectorResult:
    """Point AUROC/AUPR plus a percentile bootstrap 95% CI on AUROC.

    Both sets are resampled with replacement; resampling is a single
    vectorized pass, deterministic for a given seed."""
    o = np.asarray(scores_ood, dtype=np.float64)
    i = np.asarray(scores_id, dtype=np.float64)
    point_auroc = auroc(o, i)
    point_aupr = aupr(o, i)
    rng = np.random.default_rng(seed)
    if bootstrap_n > 0:
        idx_o = rng.integers(0, o.size, size=(bootstrap_n, o.size))
        idx_i = rng.integers(0, i.size, size=(bootstrap_n, i.size))
        lo, hi = np.percentile(_rank_auroc(o[idx_o], i[idx_i]), [2.5, 97.5])
    else:
        lo = hi = point_auroc
    return DetectorResult(detector=detector, auroc=point_auroc, aupr=point_aupr,
                          ci_low=float(lo), ci_high=float(hi),
                          n_bootstrap=bootstrap_n, n_ood=o.size, n_id=i.size)
