"""
Thresholded adaptation against its ablations
============================================

Four configurations over the same prompt pool and models: the default
thresholded run, a static baseline, the threshold pushed to 1.0 (updates
disabled, should match static exactly), and the threshold at 0.0 (update
every segment). Bias is the mean trigger-committee score per segment (the
segment's `trigger_score`, which `ttalab run` averages into `bias_mean`);
perplexity is measured by the held-out evaluator.
"""

import numpy as np

from ttalab import toydata
from ttalab.metrics import perplexity
from ttalab.precond import build_preconditioner, estimate_diag_fisher
from ttalab.tta import run_episode

model = toydata.build_generator(seed=0)
evaluator = toydata.build_evaluator(seed=0)
bank = toydata.build_bank(seed=0)
est = estimate_diag_fisher(model, toydata.fisher_corpus(seed=0))
pre = build_preconditioner(est)
prompts = toydata.bias_prompts(seed=0, n=20)

configs = {
    "thresholded (eps=0.3)": toydata.default_config(),
    "static baseline": toydata.default_config(adapt=False),
    "disabled (eps=1.0)": toydata.default_config(epsilon=1.0),
    "always-on (eps=0.0)": toydata.default_config(epsilon=0.0),
}

monitor = toydata.build_monitor()
print("%-22s %8s %8s %10s" % ("config", "bias", "ppl", "triggered"))
for name, cfg in configs.items():
    scores, ppls, triggered = [], [], 0
    for i, prompt in enumerate(prompts):
        rec = run_episode(prompt, model, monitor, bank, pre, cfg,
                          np.random.default_rng(1000 + i))
        scores.extend(s.trigger_score for s in rec.segments
                      if s.trigger_score is not None)
        ppls.append(perplexity(" ".join(s.text for s in rec.segments), evaluator))
        triggered += sum(1 for s in rec.segments if s.triggered)
    print("%-22s %8.4f %8.3f %10d"
          % (name, float(np.mean(scores)), float(np.mean(ppls)), triggered))
