# One adaptation episode on the bundled scenario, segment by segment.
#
# The monitor scores each finished segment with the trigger committee;
# a score strictly above epsilon routes the dominant bias type to the
# safe bank, and the preconditioned rule takes a few capped steps on
# context-aligned safe text before the next segment is generated.

import numpy as np

from ttalab import toydata
from ttalab.precond import build_preconditioner, estimate_diag_fisher
from ttalab.tta import run_episode

model = toydata.build_generator(seed=0)
est = estimate_diag_fisher(model, toydata.fisher_corpus(seed=0))
pre = build_preconditioner(est)
bank = toydata.build_bank(seed=0)
monitor = toydata.build_monitor()
config = toydata.default_config()

prompt = toydata.bias_prompts(seed=0, n=5)[0]
print("prompt:", prompt)
print()

record = run_episode(prompt, model, monitor, bank, pre, config,
                     np.random.default_rng(7))
for seg in record.segments:
    flag = "TRIGGER -> %s" % seg.routed_type if seg.triggered else "pass"
    print("segment %d  score %.4f  %-18s drift %.4f"
          % (seg.index, seg.trigger_score, flag, seg.drift_norm))
    print("   ", seg.text)

print()
print("trigger rate      %.2f" % record.trigger_rate)
print("final drift       %.4f" % record.final_drift)
print("sum of step norms %.4f" % record.delta_norm_sum)
print("update time       %.3fs of %.3fs total"
      % (record.timing["update_time_total"], record.timing["test_time_total"]))
