"""Evaluation formulas: perplexity, fluency, trajectory differences,
paired t-test, Fleiss' kappa, and the run-level summary table.

scipy is imported inside `paired_t_test` only, so `ttalab run` and
`ttalab precompute` start without loading it."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# -- perplexity and fluency -------------------------------------------------------


def perplexity(target, model) -> float:
    """exp of the mean negative log-likelihood under the evaluator.

    Returns +inf when a token has vanishing probability or the mean NLL
    would overflow the exponential."""
    if isinstance(target, str):
        target = model.vocab.encode(target)
    target = list(target)
    if not target:
        raise ValueError("perplexity of an empty sequence is undefined")
    nll = -model.sequence_log_prob(target) / len(target)
    if not math.isfinite(nll) or nll > 700.0:
        return math.inf
    return math.exp(nll)


def fluency(ppl: float) -> float:
    """Bounded fluency 1 / (1 + ln ppl); 1 at ppl=1, 0 in the +inf limit."""
    if math.isinf(ppl):
        return 0.0
    if ppl < 1.0:
        raise ValueError(f"perplexity must be >= 1, got {ppl}")
    return 1.0 / (1.0 + math.log(ppl))


# -- difference in differences ------------------------------------------------------


def _segment_value(traj, j: int):
    if traj is None or j >= len(traj):
        return None
    v = traj[j]
    if v is None or not math.isfinite(v):
        return None
    return float(v)


def did_single(system_traj, baseline_traj, j: int) -> float:
    """(P_j - P_0) - (B_j - B_0) for one prompt; both ends must exist."""
    vals = [_segment_value(system_traj, 0), _segment_value(system_traj, j),
            _segment_value(baseline_traj, 0), _segment_value(baseline_traj, j)]
    if any(v is None for v in vals):
        raise ValueError(f"trajectories must be defined at segments 0 and {j}")
    p0, pj, b0, bj = vals
    return (pj - p0) - (bj - b0)


def did_series(system_trajs: dict, baseline_trajs: dict, j: int):
    """Paired per-prompt differences over the shared prompt ids.

    Prompts missing either trajectory or either segment are dropped;
    returns (differences array, excluded count)."""
    diffs = []
    excluded = 0
    for key in sorted(set(system_trajs) & set(baseline_trajs)):
        try:
            diffs.append(did_single(system_trajs[key], baseline_trajs[key], j))
        except ValueError:
            excluded += 1
    excluded += len(set(system_trajs) ^ set(baseline_trajs))
    return np.array(diffs, dtype=np.float64), excluded


# -- paired t-test -----------------------------------------------------------------


@dataclass
class TTestResult:
    statistic: float
    p_value: float
    dof: int
    degenerate: bool = False


def paired_t_test(differences) -> TTestResult:
    """One-sample two-sided t-test of the differences against zero.

    The statistic is computed directly; only the t CDF comes from scipy.
    Zero sample variance is flagged instead of dividing by it."""
    from scipy import stats

    d = np.asarray(differences, dtype=np.float64)
    if d.size < 2:
        raise ValueError("need at least two differences")
    n = d.size
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        return TTestResult(statistic=math.nan, p_value=math.nan, dof=n - 1,
                           degenerate=True)
    t = float(d.mean()) / (sd / math.sqrt(n))
    p = 2.0 * float(stats.t.sf(abs(t), n - 1))
    return TTestResult(statistic=t, p_value=p, dof=n - 1)


# -- Fleiss' kappa ------------------------------------------------------------------


@dataclass
class FleissResult:
    kappa: float
    p_bar: float
    p_expected: float
    undefined: bool = False


def fleiss_kappa(ratings) -> FleissResult:
    """kappa = (P_bar - P_e) / (1 - P_e) over an items x raters label matrix.

    Every item needs the same number of raters (>= 2) and there must be at
    least two items; all-one-category data makes P_e = 1 and the statistic
    undefined."""
    rows = [list(r) for r in ratings]
    if len(rows) < 2:
        raise ValueError("need at least two items")
    n = len(rows[0])
    if n < 2 or any(len(r) != n for r in rows):
        raise ValueError("every item needs the same rater count (>= 2)")
    categories = sorted({label for r in rows for label in r}, key=repr)
    counts = np.array([[r.count(c) for c in categories] for r in rows],
                      dtype=np.float64)
    per_item = (np.sum(counts ** 2, axis=1) - n) / (n * (n - 1))
    p_bar = float(per_item.mean())
    proportions = counts.sum(axis=0) / counts.sum()
    p_e = float(np.sum(proportions ** 2))
    if p_e >= 1.0:
        return FleissResult(kappa=math.nan, p_bar=p_bar, p_expected=p_e,
                            undefined=True)
    return FleissResult(kappa=(p_bar - p_e) / (1.0 - p_e), p_bar=p_bar,
                        p_expected=p_e)


# -- run aggregation ----------------------------------------------------------------

SUMMARY_COLUMNS = (
    "ppl_mean", "ppl_sd", "fluency_mean", "fluency_sd", "bias_mean", "bias_sd",
    "trigger_rate_mean", "trigger_rate_sd",
)


def aggregate_run(records) -> dict:
    """Across-prompt means and standard deviations for one system's episodes.

    Expects per-episode metric rows with `ppl`, `fluency`, `bias_mean` and
    `trigger_rate`. No wall-clock value enters; `ttalab report` writes the
    latency means to `latency.tsv`. Episodes with non-finite perplexity are
    excluded from the PPL moments but counted, matching how a +inf sentinel
    has to be reported."""
    records = list(records)
    if not records:
        raise ValueError("need at least one episode record")
    ppls = np.array([float(r["ppl"]) for r in records])
    finite = np.isfinite(ppls)
    flu = np.array([float(r["fluency"]) for r in records])
    bias = np.array([float(r["bias_mean"]) for r in records])
    trig = np.array([float(r["trigger_rate"]) for r in records])
    out = {
        "n_episodes": len(records),
        "n_nonfinite_ppl": int(np.sum(~finite)),
        "ppl_mean": float(ppls[finite].mean()) if finite.any() else math.inf,
        "ppl_sd": float(ppls[finite].std()) if finite.any() else math.nan,
        "fluency_mean": float(flu.mean()),
        "fluency_sd": float(flu.std()),
        "bias_mean": float(bias.mean()),
        "bias_sd": float(bias.std()),
        "trigger_rate_mean": float(trig.mean()),
        "trigger_rate_sd": float(trig.std()),
    }
    return out


def summary_table(rows: dict) -> str:
    """Six-decimal tab-separated table, one line per system, stable column
    order."""
    header = "\t".join(("system",) + SUMMARY_COLUMNS)
    lines = [header]
    for name in sorted(rows):
        summary = rows[name]
        cells = [name]
        for col in SUMMARY_COLUMNS:
            cells.append(f"{summary[col]:.6f}")
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"
