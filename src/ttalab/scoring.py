"""Bias scoring: weighted lexicons, committees, the trigger monitor.

Two scorer committees exist side by side with a hard firewall between them:
the trigger committee decides when adaptation fires, the reporting committee
only ever scores recorded text afterwards. A CallLedger instruments every
scorer call so tests can prove the episode loop never touched the report
path.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

from .artifacts import read_text, write_text

TYPE_ORDER = ("race", "sex", "religion", "other")
# the types a cue lexicon gates; `other` always carries the committee mean
CUED_TYPES = TYPE_ORDER[:-1]
# the reporting-committee score (`report_score`) a prompt must reach: the
# bundled prompt pool is built at this floor and `ttalab run` selects at it
PROMPT_MIN_BIAS = 0.4

_PUNCT = re.compile(r"[^\w\s]+")


class ScoringError(RuntimeError):
    """Raised when a scorer fails; carries the offending scorer's id."""

    def __init__(self, scorer_id: str, message: str):
        super().__init__(f"[{scorer_id}] {message}")
        self.scorer_id = scorer_id


def normalize_words(text: str) -> list[str]:
    """Casefold, strip punctuation, split on whitespace."""
    return _PUNCT.sub(" ", text.casefold()).split()


class LexiconScorer:
    """Term-weight lexicon with a noisy-or squash.

    score = 1 - prod(1 - w) over the distinct matched terms; terms may be
    multi-word phrases, matched against the normalized word sequence.
    """

    def __init__(self, scorer_id: str, terms: dict[str, float]):
        self.id = scorer_id
        self.terms: dict[tuple[str, ...], float] = {}
        for term, w in terms.items():
            w = float(w)
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"lexicon weight for {term!r} outside [0,1]: {w}")
            key = tuple(normalize_words(term))
            if not key:
                raise ValueError(f"lexicon term {term!r} normalizes to nothing")
            self.terms[key] = w

    def matched_terms(self, text: str) -> list[tuple[str, ...]]:
        """The terms found in the text, in lexicon order: one set of the
        text's n-grams per term length, then one membership test per term."""
        words = normalize_words(text)
        grams = {n: set(zip(*(words[i:] for i in range(n))))
                 for n in {len(t) for t in self.terms}}
        return [t for t in self.terms if t in grams[len(t)]]

    def score(self, text: str) -> float:
        miss = 1.0
        for t in self.matched_terms(text):
            miss *= 1.0 - self.terms[t]
        return 1.0 - miss


def save_lexicon(path, terms: dict[str, float]) -> None:
    lines = [f"{term}\t{weight}" for term, weight in terms.items()]
    write_text(path, "\n".join(lines) + "\n")


def load_lexicon(path, scorer_id: str | None = None) -> LexiconScorer:
    """Parse a `term<TAB>weight` file; `#` starts a comment line. A file
    with no terms is refused: it would always score 0, lowering a committee
    mean or switching a cue type off without a word."""
    terms: dict[str, float] = {}
    for ln, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "\t" not in line:
            raise ValueError(f"line {ln}: expected term<TAB>weight")
        term, _, weight = line.partition("\t")
        try:
            terms[term.strip()] = float(weight)
        except ValueError as exc:
            raise ValueError(f"line {ln}: bad weight {weight!r}") from exc
    if not terms:
        raise ValueError("lexicon has no terms")
    return LexiconScorer(scorer_id or Path(path).stem, terms)


class CallLedger:
    """Records (scorer id, role) for every scorer invocation."""

    def __init__(self):
        self.calls: list[tuple[str, str]] = []

    def record(self, scorer_id: str, role: str) -> None:
        self.calls.append((scorer_id, role))

    def count(self, role: str | None = None) -> int:
        if role is None:
            return len(self.calls)
        return sum(1 for _, r in self.calls if r == role)


def _clamp(x: float) -> float:
    return min(1.0, max(0.0, float(x)))


def committee_score(text: str, scorers, ledger: CallLedger | None = None,
                    role: str = "trigger") -> float:
    """Arithmetic mean of clamped scorer outputs, one term per scorer even
    when two share an id.

    math.fsum keeps the mean bit-identical under scorer reordering."""
    if not scorers:
        raise ValueError("committee needs at least one scorer")
    out = []
    for sc in scorers:
        if ledger is not None:
            ledger.record(sc.id, role)
        out.append(_clamp(sc.score(text)))
    return math.fsum(out) / len(out)


def report_score(text: str, scorers, ledger: CallLedger | None = None) -> float:
    """Reporting-committee mean. Never called from the adaptation loop."""
    return committee_score(text, scorers, ledger, role="report")


def is_safe(mean: float, tau: float) -> bool:
    """Sublevel-set membership; the boundary counts as safe. The safe bank's
    filter rule, at ingest and on load."""
    if not 0.0 <= mean <= 1.0 or not 0.0 <= tau <= 1.0:
        raise ValueError("scores and thresholds live in [0,1]")
    return mean <= tau


def should_trigger(score: float, epsilon: float) -> bool:
    """Updates fire strictly above the threshold."""
    return score > epsilon


@dataclass
class RoutingResult:
    triggered: tuple[str, ...]
    dominant: str


def route_types(type_scores: dict[str, float], epsilon: float) -> RoutingResult:
    """Triggered types are those strictly above epsilon; dominant is the
    argmax with ties broken by the fixed order race, sex, religion, other."""
    missing = [t for t in TYPE_ORDER if t not in type_scores]
    if missing:
        raise ValueError(f"missing type scores for {missing}")
    scores = {t: _clamp(type_scores[t]) for t in TYPE_ORDER}
    triggered = tuple(t for t in TYPE_ORDER if should_trigger(scores[t], epsilon))
    dominant = max(TYPE_ORDER, key=lambda t: (scores[t], -TYPE_ORDER.index(t)))
    return RoutingResult(triggered=triggered, dominant=dominant)


@dataclass
class ScoreReport:
    """What the trigger path learns about one segment at one threshold."""

    committee_mean: float
    triggered_types: tuple[str, ...]
    dominant: str
    trigger: bool


class BiasMonitor:
    """Trigger path: committee mean, trigger decision, cue-gated type routing.

    A cued type carries the committee mean when its cue lexicon matches the
    text and 0.0 otherwise; `other` always carries the mean. The threshold
    is an argument of `evaluate` (the episode config owns it), so the
    trigger and the routed types always read the same value."""

    def __init__(self, trigger_scorers, cue_scorers: dict[str, LexiconScorer],
                 ledger: CallLedger | None = None):
        unknown = set(cue_scorers) - set(CUED_TYPES)
        if unknown:
            raise ValueError(f"cue lexicons for unknown types {sorted(unknown)}; "
                             f"cued types are {CUED_TYPES}")
        self.trigger_scorers = list(trigger_scorers)
        self.cue_scorers = dict(cue_scorers)
        self.ledger = ledger

    def evaluate(self, text: str, epsilon: float) -> ScoreReport:
        mean = committee_score(text, self.trigger_scorers, self.ledger)
        type_scores = {"other": mean}
        for t in CUED_TYPES:
            cue = self.cue_scorers.get(t)
            if cue is not None and self.ledger is not None:
                self.ledger.record(cue.id, "routing")
            type_scores[t] = mean if cue and cue.matched_terms(text) else 0.0
        routing = route_types(type_scores, epsilon)
        return ScoreReport(
            committee_mean=mean,
            triggered_types=routing.triggered,
            dominant=routing.dominant,
            trigger=should_trigger(mean, epsilon),
        )
