"""Episodic test-time adaptation: segment-wise generation with thresholded,
type-routed safe-batch updates and a per-episode drift ledger.

One episode serves one prompt. Segments are generated in sequence; each is
scored by the trigger committee, and a score strictly above epsilon starts
an update round: sample m safe entries for the dominant bias type, align
them behind the generated history, and take `steps` update-rule iterations
(clip the gradient, step, cap the step). The adapter always starts the
episode at phi0 and the episode never touches the base weights or the bank.
Wall-clock numbers live only under the record's `timing` key so that
everything else is bit-reproducible from (prompt, config, seed, bank,
preconditioner).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .artifacts import check_header, read_jsonl, write_jsonl
from .genmodel import GenerationSettings
from .optim import (
    AdamWState,
    UpdateRuleConfig,
    adamw_step,
    cap_delta,
    clip_gradient,
    precond_step,
    sgd_step,
)
from .safebank import BankExhaustedError, sample_safe_batch
from .scoring import ScoringError, should_trigger

EPISODES_KIND = "episode-records"
EPISODES_VERSION = 1
DEFAULT_SEPARATOR = "<sep>"
DEFAULT_MARKER = "[Continue the story]"


@dataclass
class EpisodeConfig:
    k_segments: int = 4
    tokens_per_segment: int = 128
    epsilon: float = 0.3
    safe_batch: int = 2
    update: UpdateRuleConfig = field(default_factory=UpdateRuleConfig)
    multi_trigger: bool = False
    temperature: float = 0.9
    top_p: float = 0.9
    adapt: bool = True

    def validate(self) -> None:
        if self.k_segments < 1:
            raise ValueError("need at least one segment")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if self.safe_batch < 1:
            raise ValueError("safe batch size must be >= 1")
        self.settings().validate()
        self.update.validate()

    def settings(self) -> GenerationSettings:
        return GenerationSettings(temperature=self.temperature, top_p=self.top_p,
                                  tokens_per_segment=self.tokens_per_segment)


@dataclass
class UpdateRound:
    routed_type: str
    entry_texts: list[str]
    losses: list[float]
    grad_norms: list[float]
    delta_norms: list[float]


@dataclass
class SegmentLog:
    index: int
    text: str
    trigger_score: float | None
    triggered: bool
    routed_type: str | None
    triggered_types: list[str]
    rounds: list[UpdateRound]
    drift_norm: float
    flags: list[str]


@dataclass
class EpisodeRecord:
    prompt_id: str
    prompt: str
    segments: list[SegmentLog]
    trigger_rate: float
    final_drift: float
    delta_norm_sum: float
    flags: list[str]
    timing: dict
    config: dict
    schema_version: int = EPISODES_VERSION

    def to_record(self) -> dict:
        return asdict(self)

    @classmethod
    def from_record(cls, d: dict) -> "EpisodeRecord":
        segments = [SegmentLog(**{**s, "rounds": [UpdateRound(**r) for r in s["rounds"]]})
                     for s in d["segments"]]
        rest = {k: v for k, v in d.items() if k != "segments"}
        return cls(segments=segments, **rest)


def _split_rng(rng):
    """Generation and bank sampling get independent derived streams."""
    if isinstance(rng, np.random.Generator):
        seeds = rng.integers(0, 2 ** 63 - 1, size=2)
        return (np.random.default_rng(int(seeds[0])),
                np.random.default_rng(int(seeds[1])))
    children = np.random.SeedSequence(rng).spawn(2)
    return np.random.default_rng(children[0]), np.random.default_rng(children[1])


def aligned_pairs(history_ids, entries, vocab):
    """(context, target) token pairs: history + separator -> entry.

    The whole history goes in; the feature map reads only its last `order`
    tokens."""
    context = list(history_ids) + vocab.encode(DEFAULT_SEPARATOR)
    pairs = []
    for entry in entries:
        target = vocab.encode(entry.text)
        if not target:
            raise ValueError(f"safe entry decodes to no tokens: {entry.text!r}")
        pairs.append((context, target))
    return pairs


def _update_round(model, pairs, cfg: UpdateRuleConfig, phi0, pre_diag,
                  opt_state, routed_type: str, entry_texts: list[str]) -> UpdateRound:
    losses, grad_norms, delta_norms = [], [], []
    for _ in range(cfg.steps):
        loss, grad = model.adapter_gradient(pairs)
        losses.append(loss)
        phi = model.adapter_flat()
        if cfg.lambda_reg:
            grad = grad + cfg.lambda_reg * (phi - phi0)
        g = clip_gradient(grad, cfg.clip_coef)
        if cfg.kind == "precond":
            step = precond_step(g, pre_diag, cfg.lr)
        elif cfg.kind == "sgd":
            step = sgd_step(g, cfg.lr)
        else:
            step = adamw_step(opt_state, phi, g, cfg.lr)
        delta = cap_delta(step, cfg.max_delta_norm)
        grad_norms.append(float(np.linalg.norm(g)))
        delta_norms.append(float(np.linalg.norm(delta)))
        model.apply_delta(delta)
    return UpdateRound(routed_type=routed_type, entry_texts=entry_texts, losses=losses,
                       grad_norms=grad_norms, delta_norms=delta_norms)


def run_episode(prompt: str, model, monitor, bank, preconditioner,
                config: EpisodeConfig, rng, prompt_id: str | None = None) -> EpisodeRecord:
    """Run one full episode and return its record.

    The preconditioned rule requires a preconditioner whose stored model
    digest matches this model at its episode-start state; the other rules
    ignore the argument. Scorer failures downgrade the segment to
    no-trigger; an exhausted bank skips that update round. Both leave flags.
    """
    config.validate()
    episode_start = time.perf_counter()
    model.reset_adapter()
    phi0 = model.adapter_flat()

    cfg = config.update
    pre_diag = None
    if config.adapt and cfg.kind == "precond":
        if preconditioner is None:
            raise ValueError("the preconditioned rule needs a preconditioner")
        preconditioner.check_model(model)
        pre_diag = preconditioner.diag

    gen_rng, bank_rng = _split_rng(rng)
    settings = config.settings()
    marker_ids = model.vocab.encode(DEFAULT_MARKER)
    history = model.vocab.encode(prompt)
    opt_state = AdamWState.zeros(model.param_count) if cfg.kind == "adamw" else None

    segments: list[SegmentLog] = []
    gen_total = 0.0
    update_total = 0.0

    for k in range(config.k_segments):
        if k > 0:
            history = history + marker_ids
        t0 = time.perf_counter()
        seg_ids = model.sample_segment(history, settings, gen_rng)
        gen_total += time.perf_counter() - t0
        history = history + seg_ids
        text = model.vocab.decode(seg_ids)

        flags: list[str] = []
        score: float | None = None
        triggered = False
        routed_type = None
        triggered_types: list[str] = []
        rounds: list[UpdateRound] = []
        try:
            report = monitor.evaluate(text, config.epsilon)
            score = report.committee_mean
            triggered = config.adapt and report.trigger
            routed_type = report.dominant if triggered else None
            triggered_types = list(report.triggered_types)
        except ScoringError:
            flags.append("scorer_failure")

        if triggered:
            if config.multi_trigger and triggered_types:
                round_types = triggered_types
            else:
                round_types = [routed_type]
            t1 = time.perf_counter()
            for rtype in round_types:
                try:
                    entries = sample_safe_batch(bank, rtype, config.safe_batch,
                                                bank_rng)
                except BankExhaustedError:
                    flags.append("bank_empty")
                    continue
                pairs = aligned_pairs(history, entries, model.vocab)
                rounds.append(_update_round(model, pairs, cfg, phi0, pre_diag,
                                            opt_state, rtype,
                                            [e.text for e in entries]))
            update_total += time.perf_counter() - t1

        drift = float(np.linalg.norm(model.adapter_flat() - phi0))
        segments.append(SegmentLog(index=k, text=text, trigger_score=score,
                                   triggered=triggered, routed_type=routed_type,
                                   triggered_types=triggered_types, rounds=rounds,
                                   drift_norm=drift, flags=flags))

    delta_sum = sum(n for s in segments for r in s.rounds for n in r.delta_norms)
    record = EpisodeRecord(
        prompt_id=prompt_id if prompt_id is not None else prompt,
        prompt=prompt,
        segments=segments,
        trigger_rate=sum(s.triggered for s in segments) / config.k_segments,
        final_drift=segments[-1].drift_norm,
        delta_norm_sum=float(delta_sum),
        flags=sorted({f for s in segments for f in s.flags}),
        timing={
            "generation_time_total": gen_total,
            "update_time_total": update_total,
            "test_time_total": time.perf_counter() - episode_start,
        },
        config={"k_segments": config.k_segments, "epsilon": config.epsilon,
                "tokens_per_segment": config.tokens_per_segment,
                "safe_batch": config.safe_batch, "update_kind": cfg.kind,
                "steps": cfg.steps, "multi_trigger": config.multi_trigger,
                "adapt": config.adapt},
    )
    return record


@dataclass
class DriftReport:
    final_drift: float
    delta_norm_sum: float
    trigger_count: int
    step_bound: float

    @property
    def ok(self) -> bool:
        tol = 1e-9
        return (self.final_drift <= self.delta_norm_sum + tol
                and self.delta_norm_sum <= self.step_bound + tol)


def drift_report(record: EpisodeRecord, max_delta_norm: float = 0.25) -> DriftReport:
    """Both sides of the drift inequality: the realized endpoint movement,
    the triangle-inequality budget, and the hard cap from step capping."""
    triggers = sum(1 for s in record.segments if s.triggered)
    steps = sum(len(r.delta_norms) for s in record.segments for r in s.rounds)
    return DriftReport(final_drift=record.final_drift,
                       delta_norm_sum=record.delta_norm_sum,
                       trigger_count=triggers,
                       step_bound=max_delta_norm * steps)


def trigger_curve(scores, epsilons):
    """Trigger counts for a frozen set of segment scores across thresholds."""
    return [sum(1 for s in scores if should_trigger(s, eps)) for eps in epsilons]


# -- persistence -----------------------------------------------------------------


def save_episodes(path, records, meta: dict | None = None) -> None:
    header = {"kind": EPISODES_KIND, "format_version": EPISODES_VERSION}
    header.update(meta or {})
    write_jsonl(path, header, [r.to_record() for r in records])


def load_episodes(path):
    header, rows = read_jsonl(path)
    check_header(header, EPISODES_KIND, EPISODES_VERSION, path)
    return header, [EpisodeRecord.from_record(r) for r in rows]
