"""Spans around ttalab's public functions, recorded from outside the library.

`install` rebinds each traced name where its caller looks it up: module
functions in the namespace that imported them by name (``cli``, ``tta``)
and methods on their classes. A span is ``(pid, id, parent, name, t0, t1,
work)``; `work` is the call's unit count (tokens, target tokens) or None.
Spans stay in memory and are written once, at the end of the command; a
forked pool worker writes its own at the end of each task, because the
pool terminates workers without running exit handlers.

``ToyLM.combined_weight`` and ``ToyLM.logits`` are deliberately not
traced: each takes under a microsecond and runs >150k times per adapt
run, so a wrapper would cost more than the call it measures.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT_SPAN = "cli.main"
UPDATE_PARENT = "tta.run_episode"
EVAL_PARENT = "metrics.perplexity"


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.origin_pid = self.pid
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.next_id = 0

    def _adopt_fork(self) -> None:
        # a forked worker inherits the parent's spans and open stack
        self.pid = os.getpid()
        self.spans = []
        self.stack = []

    def wrap(self, name: str, fn, work=None):
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                self._adopt_fork()
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.spans.append((self.pid, sid, parent, name, t0, t1,
                                   work(*args, **kwargs) if work else None))
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__module__ = getattr(fn, "__module__", None)
        return traced

    def flush(self) -> None:
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []


def _segment_tokens(self, history, settings, rng):
    return settings.tokens_per_segment


def _target_tokens(self, batch):
    return sum(len(target) for _, target in batch)


def _sequence_tokens(self, target, history=()):
    return len(target)


def _text_tokens(target, model, history=()):
    return len(target.split()) if isinstance(target, str) else len(target)


def install(tracer: Tracer) -> None:
    from ttalab import cli, genmodel, precond, safebank, scoring, tta

    def method(cls, attr, name, work=None):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), work))

    def loader(cls):
        fn = cls.__dict__["load"].__func__
        setattr(cls, "load", classmethod(tracer.wrap("artifacts.load", fn)))

    def function(module, attr, name, work=None):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), work))

    method(genmodel.ToyLM, "sample_segment", "genmodel.sample_segment", _segment_tokens)
    method(genmodel.ToyLM, "adapter_gradient", "genmodel.adapter_gradient",
           _target_tokens)
    method(genmodel.ToyLM, "sequence_log_prob", "genmodel.sequence_log_prob",
           _sequence_tokens)
    method(genmodel.ToyLM, "apply_delta", "genmodel.apply_delta")
    method(scoring.BiasMonitor, "evaluate", "scoring.evaluate")
    method(precond.Preconditioner, "save", "precond.save")
    for cls in (genmodel.ToyLM, safebank.SafeBank, precond.Preconditioner):
        loader(cls)

    for attr in ("clip_gradient", "precond_step", "cap_delta"):
        function(tta, attr, f"optim.{attr}")
    function(tta, "sample_safe_batch", "safebank.sample_safe_batch")
    function(tta, "aligned_pairs", "tta.aligned_pairs")

    function(cli, "run_episode", "tta.run_episode")
    function(cli, "perplexity", "metrics.perplexity", _text_tokens)
    function(cli, "aggregate_run", "metrics.aggregate_run")
    function(cli, "write_json", "artifacts.write")
    function(cli, "save_episodes", "artifacts.write")
    function(cli, "estimate_diag_fisher", "precond.estimate_diag_fisher")

    # Pool tasks are pickled by reference to cli._run_one, so the flushing
    # wrapper must be what that name resolves to in the worker.
    run_one = cli._run_one

    def flushing_run_one(item):
        try:
            return run_one(item)
        finally:
            if os.getpid() != tracer.origin_pid:
                tracer.flush()

    flushing_run_one.__module__ = cli.__name__
    flushing_run_one.__qualname__ = "_run_one"
    cli._run_one = flushing_run_one


def load_spans(directory: Path) -> list[tuple]:
    spans = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path) as fh:
            spans.extend(tuple(json.loads(line)) for line in fh)
    return spans


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def summarize(spans: list[tuple]) -> dict:
    """Per-name totals plus the classified and whole-run figures.

    Returns ``{"names": {name: {"calls", "s", "self_s", "work"}}, "root_s",
    "unattributed_frac"}``. ``sequence_log_prob`` is split by its nearest
    classifying ancestor into ``.update`` (under run_episode, the per-step
    loss) and ``.eval`` (under perplexity); ``adapter_gradient`` under
    run_episode is also counted as ``genmodel.adapter_gradient.update``.
    """
    index = {(s[0], s[1]): s for s in spans}
    child_s = defaultdict(float)
    for pid, _, parent, _, t0, t1, _ in spans:
        if parent is not None:
            child_s[(pid, parent)] += t1 - t0

    def ancestor(span, names):
        parent = span[2]
        while parent is not None:
            up = index.get((span[0], parent))
            if up is None:
                return None
            if up[3] in names:
                return up[3]
            parent = up[2]
        return None

    names = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})

    def add(key, span):
        d = names[key]
        dur = span[5] - span[4]
        d["calls"] += 1
        d["s"] += dur
        d["self_s"] += dur - child_s[(span[0], span[1])]
        d["work"] += span[6] or 0

    for span in spans:
        name = span[3]
        add(name, span)
        if name == "genmodel.sequence_log_prob":
            kind = ancestor(span, (UPDATE_PARENT, EVAL_PARENT))
            if kind == UPDATE_PARENT:
                add(name + ".update", span)
            elif kind == EVAL_PARENT:
                add(name + ".eval", span)
        elif name == "genmodel.adapter_gradient" and ancestor(span, (UPDATE_PARENT,)):
            add(name + ".update", span)

    roots = [s for s in spans if s[3] == ROOT_SPAN]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT_SPAN} span, found {len(roots)}")
    root = roots[0]
    t0, t1 = root[4], root[5]
    # attributed: direct children of the root, plus the top-level spans of
    # forked workers, clipped to the root interval
    top = [(max(s[4], t0), min(s[5], t1)) for s in spans
           if (s[0] == root[0] and s[2] == root[1])
           or (s[0] != root[0] and s[2] is None)]
    root_s = t1 - t0
    return {"names": dict(names), "root_s": root_s,
            "unattributed_frac": 1.0 - _union_length(top) / root_s}
