# Why precondition: Fisher-scaled steps against plain SGD and AdamW on the
# one-step objective the episode loop optimizes. Each rule gets a small
# learning-rate sweep and reports its best run, so the comparison is
# between tuned rules rather than between step sizes.

import numpy as np

from ttalab.genmodel import NgramOneHot, ToyLM, Vocabulary, init_adapter
from ttalab.optim import AdamWState, adamw_step, precond_step, sgd_step
from ttalab.oracle import SequenceSpace
from ttalab.precond import build_preconditioner, estimate_diag_fisher

rng = np.random.default_rng(2)
vocab = Vocabulary(["w0", "w1", "w2"])
fmap = NgramOneHot(len(vocab), order=2)
adapter = init_adapter(rng, len(vocab), fmap.dimension, rank=2, alpha=4.0)
adapter.b = rng.normal(0.0, 0.3, size=adapter.b.shape)
model = ToyLM(vocab, rng.normal(0.0, 0.6, size=(len(vocab), fmap.dimension)), adapter, fmap)

context = [0, 1]
space = SequenceSpace(model, context, length=2)
phi0 = model.adapter_flat()

# target: a tilt of the model toward its least likely sequences, so the
# update has something real to learn
probs = space.probs(phi0)
target = probs ** 0.25
target /= target.sum()


def loss_and_grad(phi):
    logp = space.outcome_logprobs(phi)
    scores = space.score_matrix(phi)
    return float(-(target @ logp)), -(target @ scores)


est = estimate_diag_fisher(model, [context], n_steps=2000, batch_size=2,
                           continuation_tokens=2, seed=5)
pre = build_preconditioner(est, damping=1e-2)

STEPS = 80
LRS = (0.001, 0.003, 0.01, 0.03, 0.1, 0.3)


def run(rule, lr):
    phi = phi0.copy()
    state = AdamWState.zeros(phi.size)
    curve = []
    for _ in range(STEPS):
        loss, g = loss_and_grad(phi)
        curve.append(loss)
        if rule == "precond":
            step = precond_step(g, pre.diag, lr=lr)
        elif rule == "sgd":
            step = sgd_step(g, lr=lr)
        else:
            step = adamw_step(state, phi, g, lr=lr)
        phi = phi + step
    curve.append(loss_and_grad(phi)[0])
    return curve


best = {}
for rule in ("precond", "sgd", "adamw"):
    candidates = [run(rule, lr) for lr in LRS]
    finals = [c[-1] if np.isfinite(c[-1]) else np.inf for c in candidates]
    pick = int(np.argmin(finals))
    best[rule] = (LRS[pick], candidates[pick])
    print("%-8s best lr %.3f  final loss %.6f" % (rule, LRS[pick], finals[pick]))

print()
print("step      precond        sgd      adamw")
for i in (0, 5, 10, 20, 40, 80):
    print("%4d  %10.6f %10.6f %10.6f"
          % (i, best["precond"][1][i], best["sgd"][1][i], best["adamw"][1][i]))
winner = min(best, key=lambda r: best[r][1][-1])
print("lowest final loss:", winner)
