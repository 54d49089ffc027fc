# Flagging off-distribution inputs before they reach the adaptation loop.
#
# Three detectors over model embeddings or raw text: k-th nearest neighbor
# distance, Mahalanobis distance under a fitted Gaussian, and a likelihood
# ratio between two reference models. AUROC comes with a bootstrap CI.

from ttalab import ood, toydata

generator = toydata.build_generator(seed=0)
evaluator = toydata.build_evaluator(seed=0)

reference_texts = toydata.neutral_corpus(seed=1, n=60)
id_texts = toydata.neutral_corpus(seed=2, n=40)
ood_texts = toydata.biased_corpus(seed=3, n=40, biased_fraction=1.0)

reference = ood.embed_corpus(generator, reference_texts, label="reference",
                             source="neutral").vectors
id_vecs = ood.embed_corpus(generator, id_texts, label="id", source="neutral").vectors
ood_vecs = ood.embed_corpus(generator, ood_texts, label="ood", source="biased").vectors

knn_id = ood.knn_scores(id_vecs, reference, k=5)
knn_ood = ood.knn_scores(ood_vecs, reference, k=5)
res = ood.evaluate(knn_ood, knn_id, bootstrap_n=500, seed=0, detector="knn")
print("knn          auroc %.3f  [%.3f, %.3f]  far-ood: %s"
      % (res.auroc, res.ci_low, res.ci_high, res.far_ood))

mu, sigma = ood.fit_gaussian(reference)
mah_id = ood.mahalanobis_scores(id_vecs, mu, sigma)
mah_ood = ood.mahalanobis_scores(ood_vecs, mu, sigma)
res = ood.evaluate(mah_ood, mah_id, bootstrap_n=500, seed=0, detector="mahalanobis")
print("mahalanobis  auroc %.3f  [%.3f, %.3f]  far-ood: %s"
      % (res.auroc, res.ci_low, res.ci_high, res.far_ood))

# likelihood ratio: the neutral-fit evaluator is the in-distribution model
# here, the slanted generator serves as the background hypothesis, so a
# biased input scores high (better explained by the background)
llr_id = ood.llr_scores(id_texts, evaluator, generator)
llr_ood = ood.llr_scores(ood_texts, evaluator, generator)
res = ood.evaluate(llr_ood, llr_id, bootstrap_n=500, seed=0, detector="llr")
print("llr          auroc %.3f  [%.3f, %.3f]  far-ood: %s"
      % (res.auroc, res.ci_low, res.ci_high, res.far_ood))
