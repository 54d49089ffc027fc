"""Safe text store: a generic corpus plus a typed bank with ingest filtering.

Typed entries are grouped under the four routing types, filtered at ingest
to the safe set (score at or below `SAFE_FILTER`) and capped per type; the
generic corpus is the uncapped-by-type fallback tier. Banks are immutable
after ingest and stored in canonical (type, text) order so that
re-ingesting a persisted bank reproduces it byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import check_header, read_jsonl, write_jsonl
from .scoring import TYPE_ORDER, is_safe

BANK_KIND = "safebank"
BANK_VERSION = 1
# typed entries must score at or below this to enter a bank
SAFE_FILTER = 0.2

# source axis labels -> routing types; anything else lands in `other`
AXIS_MAP = {
    "race": "race",
    "gender": "sex",
    "sex": "sex",
    "religion": "religion",
    "other": "other",
}


class BankExhaustedError(RuntimeError):
    """Not enough safe entries to fill an update batch."""


@dataclass(frozen=True)
class SafeEntry:
    text: str
    type: str
    score: float


class SafeBank:
    def __init__(self, entries: dict[str, list[SafeEntry]], generic: list[SafeEntry],
                 meta: dict):
        self.entries = {t: list(entries.get(t, ())) for t in TYPE_ORDER}
        self.generic = list(generic)
        self.meta = dict(meta)

    def counts(self) -> dict[str, int]:
        out = {t: len(self.entries[t]) for t in TYPE_ORDER}
        out["generic"] = len(self.generic)
        return out

    def save(self, path) -> None:
        header = {
            "kind": BANK_KIND,
            "format_version": BANK_VERSION,
            "counts": self.counts(),
            **self.meta,
        }
        records = [{"text": e.text, "type": e.type, "score": e.score}
                   for t in TYPE_ORDER for e in self.entries[t]]
        records += [{"text": e.text, "type": "generic", "score": e.score}
                    for e in self.generic]
        write_jsonl(path, header, records)

    @classmethod
    def load(cls, path) -> "SafeBank":
        header, records = read_jsonl(path)
        check_header(header, BANK_KIND, BANK_VERSION, path)
        threshold = header.get("filter", SAFE_FILTER)
        entries: dict[str, list[SafeEntry]] = {t: [] for t in TYPE_ORDER}
        generic: list[SafeEntry] = []
        for rec in records:
            entry = SafeEntry(rec["text"], rec["type"], float(rec["score"]))
            if entry.type == "generic":
                generic.append(entry)
                continue
            if entry.type not in TYPE_ORDER:
                raise ValueError(f"{path}: unknown entry type {entry.type!r}")
            try:
                safe = is_safe(entry.score, threshold)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: typed entry {entry.text!r}, score {entry.score}, "
                                 f"filter {threshold!r}: {exc}") from None
            if not safe:
                raise ValueError(
                    f"{path}: typed entry violates ingest filter "
                    f"({entry.score} > {threshold}): {entry.text!r}")
            entries[entry.type].append(entry)
        meta = {k: v for k, v in header.items()
                if k not in ("kind", "format_version", "counts")}
        return cls(entries, generic, meta)


def _canonical(entries: list[SafeEntry]) -> list[SafeEntry]:
    return sorted(entries, key=lambda e: (e.type, e.text))


def ingest(records, scorer, caps=None,
           generic_texts=(), generic_target: int = 200, seed: int = 0,
           source_id: str = "inline") -> SafeBank:
    """Build a bank from (text, axis) records plus a generic text stream.

    Axes are mapped onto the four routing types (gender -> sex; unknown axes
    land in `other` and bump a warning counter). Typed entries outside the
    safe set (`scoring.is_safe` at `SAFE_FILTER`) are dropped. Caps are
    enforced first-come on a seed-shuffled stream, then storage is
    canonically sorted, which makes ingest idempotent: re-ingesting a saved
    bank reproduces it exactly.
    """
    if caps is None:
        caps = {t: 800 for t in TYPE_ORDER}
    rng = np.random.default_rng(seed)

    typed = list(records)
    if typed:
        typed = [typed[i] for i in rng.permutation(len(typed))]
    buckets: dict[str, list[SafeEntry]] = {t: [] for t in TYPE_ORDER}
    seen: dict[str, set] = {t: set() for t in TYPE_ORDER}
    warnings = 0
    rejected = 0
    for text, axis in typed:
        mapped = AXIS_MAP.get(str(axis).casefold())
        if mapped is None:
            mapped = "other"
            warnings += 1
        if len(buckets[mapped]) >= caps.get(mapped, 0) or text in seen[mapped]:
            continue
        score = float(scorer.score(text))
        if not is_safe(score, SAFE_FILTER):
            rejected += 1
            continue
        buckets[mapped].append(SafeEntry(text, mapped, score))
        seen[mapped].add(text)

    gen_list = list(generic_texts)
    if gen_list:
        gen_list = [gen_list[i] for i in rng.permutation(len(gen_list))]
    generic: list[SafeEntry] = []
    seen_gen: set = set()
    for text in gen_list:
        if len(generic) >= generic_target:
            break
        if text in seen_gen:
            continue
        generic.append(SafeEntry(text, "generic", float(scorer.score(text))))
        seen_gen.add(text)

    meta = {
        "source_id": source_id,
        "filter": SAFE_FILTER,
        "caps": {t: caps.get(t, 0) for t in TYPE_ORDER},
        "generic_target": generic_target,
        "scorer_id": getattr(scorer, "id", "unknown"),
        "seed": seed,
        "unmapped_axes": warnings,
        "rejected": rejected,
    }
    return SafeBank({t: _canonical(b) for t, b in buckets.items()},
                    sorted(generic, key=lambda e: e.text), meta)


def sample_safe_batch(bank: SafeBank, dominant_type: str, k: int,
                      rng: np.random.Generator) -> list[SafeEntry]:
    """Draw k entries without replacement from the dominant type's bucket,
    topping up from the generic corpus when the bucket runs short."""
    if dominant_type not in TYPE_ORDER:
        raise ValueError(f"unknown type {dominant_type!r}")
    if k < 1:
        raise ValueError("batch size must be >= 1")
    bucket = bank.entries[dominant_type]
    take = min(k, len(bucket))
    picked: list[SafeEntry] = []
    if take:
        idx = rng.choice(len(bucket), size=take, replace=False)
        picked = [bucket[i] for i in sorted(int(i) for i in idx)]
    if len(picked) < k:
        chosen_texts = {e.text for e in picked}
        pool = [e for e in bank.generic if e.text not in chosen_texts]
        need = k - len(picked)
        if len(pool) < need:
            raise BankExhaustedError(
                f"need {k} entries for type {dominant_type!r}, have "
                f"{len(bucket)} typed + {len(pool)} generic")
        idx = rng.choice(len(pool), size=need, replace=False)
        picked += [pool[i] for i in sorted(int(i) for i in idx)]
    return picked
