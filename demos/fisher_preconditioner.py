# Monte Carlo Fisher diagonal against exact enumeration, then the damped
# inverse that the preconditioned update rule consumes.

import numpy as np

from ttalab.genmodel import AdapterParams, NgramOneHot, ToyLM, Vocabulary, init_adapter
from ttalab.oracle import SequenceSpace
from ttalab.precond import build_preconditioner, estimate_diag_fisher

rng = np.random.default_rng(4)
vocab = Vocabulary(["w0", "w1", "w2"])
fmap = NgramOneHot(len(vocab), order=2)
adapter = init_adapter(rng, len(vocab), fmap.dimension, rank=2, alpha=4.0)
adapter = AdapterParams(adapter.a, rng.normal(0.0, 0.2, size=adapter.b.shape), adapter.alpha)
model = ToyLM(vocab, rng.normal(0.0, 0.4, size=(len(vocab), fmap.dimension)), adapter, fmap)

context = [0, 1]
exact = SequenceSpace(model, context, length=2).fisher_diag()

for n_steps in (250, 2500, 25000):
    est = estimate_diag_fisher(model, [context], n_steps=n_steps, batch_size=2,
                               continuation_tokens=2, seed=11)
    err = float(np.max(np.abs(est.diag - exact)))
    print("samples %6d   max |est - exact| = %.6f" % (est.sample_count, err))

est = estimate_diag_fisher(model, [context], n_steps=25000, batch_size=2,
                           continuation_tokens=2, seed=11)
pre = build_preconditioner(est, damping=1e-4)
identity = pre.diag * (est.diag + 1e-4)
print("preconditioner identity: max |P(I+lambda) - 1| = %.2e"
      % float(np.max(np.abs(identity - 1.0))))

# the artifact round-trips through JSON with digests for the model and corpus
import tempfile, pathlib

with tempfile.TemporaryDirectory() as tmp:
    path = pathlib.Path(tmp) / "pre.json"
    pre.save(path)
    from ttalab.precond import Preconditioner
    loaded = Preconditioner.load(path, model=model)
    print("artifact round trip, digests verified:",
          bool(np.array_equal(loaded.diag, pre.diag)))
