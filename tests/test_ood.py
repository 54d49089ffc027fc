"""Detectors, rank metrics, and the embedding exchange format."""

import math

import numpy as np
import pytest

from ttalab.genmodel import NgramOneHot, ToyLM, Vocabulary, init_adapter
from ttalab.ood import (
    EmbeddingSet,
    aupr,
    auroc,
    embed_corpus,
    embed_tokens,
    evaluate,
    fit_gaussian,
    knn_scores,
    llr_scores,
    mahalanobis_scores,
)


def pairwise_auroc(ood, idd):
    """Exhaustive comparison oracle: wins plus half-ties over all pairs."""
    wins = 0.0
    for a in ood:
        for b in idd:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(ood) * len(idd))


# -- knn -----------------------------------------------------------------------


def test_knn_hand_values():
    ref = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert knn_scores([[0.0, 0.0]], ref, k=1).tolist() == [0.0]
    assert knn_scores([[0.0, 0.0]], ref, k=2).tolist() == [5.0]


def test_knn_k_out_of_range():
    ref = np.zeros((3, 2))
    with pytest.raises(ValueError):
        knn_scores([[0.0, 0.0]], ref, k=4)
    with pytest.raises(ValueError):
        knn_scores([[0.0, 0.0]], ref, k=0)


def test_knn_scaling_and_auroc_invariance():
    rng = np.random.default_rng(0)
    ref = rng.normal(size=(30, 4))
    far = rng.normal(loc=3.0, size=(10, 4))
    near = rng.normal(size=(10, 4))
    s_far = knn_scores(far, ref, k=5)
    s_near = knn_scores(near, ref, k=5)
    c = 2.5
    s_far_scaled = knn_scores(c * far, c * ref, k=5)
    np.testing.assert_allclose(s_far_scaled, s_far * c, rtol=1e-12)
    assert auroc(s_far, s_near) == auroc(s_far * c, s_near * c)


def test_knn_superset_monotone():
    rng = np.random.default_rng(1)
    base = rng.normal(size=(12, 3))
    extra = rng.normal(size=(6, 3))
    grown = np.vstack([base, extra])
    queries = rng.normal(size=(20, 3))
    assert np.all(knn_scores(queries, grown, k=4) <= knn_scores(queries, base, k=4) + 1e-15)


# -- mahalanobis -----------------------------------------------------------------


def test_mahalanobis_hand_values():
    mu = np.zeros(2)
    assert mahalanobis_scores([[3.0, 4.0]], mu, np.eye(2), shrinkage=0.0).tolist() == [5.0]
    got = mahalanobis_scores([[2.0, 1.0], mu], mu, np.diag([4.0, 1.0]), shrinkage=0.0)
    assert abs(got[0] - math.sqrt(2.0)) < 1e-12
    assert got[1] == 0.0


def test_mahalanobis_isotropic_is_scaled_euclidean():
    rng = np.random.default_rng(2)
    mu = rng.normal(size=5)
    sigma = 1.7
    queries = rng.normal(size=(10, 5))
    got = mahalanobis_scores(queries, mu, sigma ** 2 * np.eye(5), shrinkage=0.0)
    assert np.all(np.abs(got - np.linalg.norm(queries - mu, axis=1) / sigma) < 1e-10)


def test_mahalanobis_singular_and_default_gamma():
    with pytest.raises(np.linalg.LinAlgError):
        mahalanobis_scores([[1.0, 1.0]], np.zeros(2), np.zeros((2, 2)), shrinkage=0.0)
    # default gamma = 1e-3 trace/dim keeps the zero matrix invertible
    sigma = np.diag([2.0, 0.0])
    gamma = 1e-3 * 2.0 / 2.0
    want = mahalanobis_scores([[1.0, 1.0]], np.zeros(2), sigma, shrinkage=gamma)
    got = mahalanobis_scores([[1.0, 1.0]], np.zeros(2), sigma)
    assert got.tolist() == want.tolist()


def test_set_scores_do_not_depend_on_the_rest_of_the_set():
    """A query scores the same bits alone as in a set: the set scorers share
    only the reference side (one Cholesky factor) between queries."""
    rng = np.random.default_rng(12)
    ref = rng.normal(size=(30, 4))
    queries = rng.normal(size=(7, 4))
    mu, sigma = fit_gaussian(ref)
    for score in (lambda q: knn_scores(q, ref, k=3),
                  lambda q: mahalanobis_scores(q, mu, sigma)):
        alone = np.concatenate([score(queries[n:n + 1]) for n in range(len(queries))])
        assert score(queries).tobytes() == alone.tobytes()
        assert score(queries[:0]).shape == (0,)


def test_fit_gaussian_matches_numpy():
    rng = np.random.default_rng(3)
    ref = rng.normal(size=(40, 3))
    mu, sigma = fit_gaussian(ref)
    np.testing.assert_allclose(mu, ref.mean(axis=0), atol=1e-15)
    np.testing.assert_allclose(sigma, np.cov(ref.T, bias=True), atol=1e-12)


# -- llr ------------------------------------------------------------------------


class FakeSeqModel:
    """Canned sequence log-probs keyed on the token tuple."""

    vocab = Vocabulary(["a", "b", "c"])

    def __init__(self, table):
        self.table = table

    def sequence_log_prob(self, target, history=()):
        return self.table[tuple(target)]


def test_llr_hand_value():
    fg = FakeSeqModel({(1, 2): math.log(0.5)})
    bg = FakeSeqModel({(1, 2): math.log(0.25)})
    got = llr_scores(["b c"], fg, bg)
    assert abs(got[0] - (-math.log(2.0))) < 1e-14


def small_model(seed=0):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(["a", "b", "c"])
    fmap = NgramOneHot(len(vocab), order=2)
    w = rng.normal(0.0, 0.4, size=(len(vocab), fmap.dimension))
    adapter = init_adapter(rng, len(vocab), fmap.dimension, rank=2, alpha=4.0)
    return ToyLM(vocab, w, adapter, fmap)


def test_llr_identical_models_uninformative():
    model = small_model()
    texts = ["a b c", "c c a", "b a", "a a a b"]
    scores = llr_scores(texts, model, model)
    assert all(s == 0.0 for s in scores)
    # all ties: the rank statistic lands exactly on chance level
    assert auroc(scores[:2], scores[2:]) == 0.5


# -- auroc / aupr ------------------------------------------------------------------


def test_auroc_hand_values():
    assert auroc([2.0, 3.0], [0.0, 1.0]) == 1.0
    assert auroc([1.0, 3.0], [2.0]) == 0.5
    assert auroc([0.0], [1.0, 2.0]) == 0.0


def test_auroc_matches_pairwise_oracle():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n_o, n_i = rng.integers(1, 40, size=2)
        # integer scores so ties actually occur
        o = rng.integers(0, 8, size=n_o).astype(float)
        i = rng.integers(0, 8, size=n_i).astype(float)
        assert abs(auroc(o, i) - pairwise_auroc(o, i)) < 1e-12


def test_aupr_hand_values():
    assert aupr([2.0, 3.0], [0.0, 1.0]) == 1.0
    # thresholds 3, 2, 1: precisions 1, 1/2, 2/3 at recalls 1/2, 1/2, 1
    assert abs(aupr([1.0, 3.0], [2.0]) - 5.0 / 6.0) < 1e-12
    # one tied group: precision 2/3 at recall 1
    assert abs(aupr([1.0, 1.0], [1.0]) - 2.0 / 3.0) < 1e-12


def test_rank_metrics_monotone_transform_invariant():
    rng = np.random.default_rng(5)
    o = rng.normal(size=25)
    i = rng.normal(size=30)
    for f in (lambda x: 3.0 * x + 1.0, np.exp, lambda x: x ** 3):
        assert abs(auroc(o, i) - auroc(f(o), f(i))) < 1e-12
        assert abs(aupr(o, i) - aupr(f(o), f(i))) < 1e-12


def test_empty_sets_rejected():
    with pytest.raises(ValueError):
        auroc([], [1.0])
    with pytest.raises(ValueError):
        aupr([1.0], [])


# -- evaluate ---------------------------------------------------------------------


def test_evaluate_perfect_separation():
    res = evaluate([2.0, 3.0, 4.0], [0.0, 1.0], bootstrap_n=200, seed=0,
                   detector="knn")
    assert res.auroc == 1.0 and res.aupr == 1.0
    assert res.ci_low == 1.0 and res.ci_high == 1.0
    assert res.far_ood
    rec = res.to_record()
    assert rec["detector"] == "knn" and rec["n_bootstrap"] == 200


def test_evaluate_null_distribution():
    rng = np.random.default_rng(6)
    o = rng.normal(size=500)
    i = rng.normal(size=500)
    res = evaluate(o, i, bootstrap_n=400, seed=7)
    assert 0.45 <= res.auroc <= 0.55
    assert res.ci_low <= 0.5 <= res.ci_high
    assert res.ci_low <= res.ci_high
    assert not res.far_ood


def test_evaluate_deterministic():
    rng = np.random.default_rng(8)
    o = rng.normal(size=40) + 0.5
    i = rng.normal(size=40)
    a = evaluate(o, i, bootstrap_n=300, seed=11)
    b = evaluate(o, i, bootstrap_n=300, seed=11)
    assert (a.ci_low, a.ci_high, a.auroc, a.aupr) == (b.ci_low, b.ci_high, b.auroc, b.aupr)


def test_gaussian_clusters_are_detected():
    rng = np.random.default_rng(9)
    ref = rng.normal(size=(200, 6))
    idd = rng.normal(size=(60, 6))
    ood = rng.normal(loc=2.5, size=(60, 6))
    s_id = knn_scores(idd, ref, k=10)
    s_ood = knn_scores(ood, ref, k=10)
    assert evaluate(s_ood, s_id, bootstrap_n=0).auroc > 0.95
    mu, sigma = fit_gaussian(ref)
    m_id = mahalanobis_scores(idd, mu, sigma)
    m_ood = mahalanobis_scores(ood, mu, sigma)
    assert evaluate(m_ood, m_id, bootstrap_n=0).auroc > 0.95


# -- embeddings -------------------------------------------------------------------


def test_embed_tokens_hand_vector():
    fmap = NgramOneHot(3, order=2)
    got = embed_tokens(fmap, [0, 1])
    # prefix [0]: unigram e0; prefix [0,1]: unigram e1 + bigram e0
    want = np.array([0.5, 0.5, 0.0, 0.5, 0.0, 0.0])
    np.testing.assert_allclose(got, want, atol=1e-15)
    with pytest.raises(ValueError):
        embed_tokens(fmap, [])


def test_embed_corpus_and_exchange_roundtrip(tmp_path):
    model = small_model(seed=10)
    emb = embed_corpus(model, ["a b c", "c a"], label="reference", source="demo")
    assert len(emb) == 2 and emb.dim == model.fmap.dimension
    path = tmp_path / "emb.txt"
    emb.save(path)
    back = EmbeddingSet.load(path)
    np.testing.assert_array_equal(back.vectors, emb.vectors)
    assert back.label == "reference" and back.source == "demo"


def test_embedding_set_validation(tmp_path):
    with pytest.raises(ValueError):
        EmbeddingSet(np.array([1.0, 2.0]))  # 1-d
    with pytest.raises(ValueError):
        EmbeddingSet(np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError):
        EmbeddingSet(np.zeros((1, 2)), label="has space")
    good = EmbeddingSet(np.zeros((2, 3)), label="x", source="y")
    path = tmp_path / "bad.txt"
    good.save(path)
    text = path.read_text().splitlines()
    text[0] = "3 5 y x"  # promise more rows than present
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ValueError):
        EmbeddingSet.load(path)
