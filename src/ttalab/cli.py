"""Command-line front end: precompute / run / ablate / ood / report.

Every run is driven by a strict JSON config (unknown keys are errors, every
hyperparameter is a named key) plus repeatable --set dotted overrides. A
(config digest, master seed) pair determines every output byte except the
wall-clock fields: `timing` in each records.jsonl record and metrics.json
row, `update_time_mean`/`test_time_mean` in summary.tsv, and
`wall_clock_seconds` in manifest.json. That holds on any core count for one
OpenBLAS build, which runs on one thread (see `_blas`) and is named in the
manifest's `blas` entry. `run` prints one progress line per finished
episode on stderr.

Exit codes: 0 ok, 2 configuration error or an input artifact that cannot
be read, 3 artifact digest error, 4 episode failure fraction exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import sys
import time
import typing
from pathlib import Path

import numpy as np

from . import __version__, _blas, metrics, ood as oodmod
from .artifacts import (check_header, digest_obj, file_digest, read_json, read_lines,
                        write_json, write_text)
from .genmodel import ToyLM
from .metrics import aggregate_run, fluency, perplexity, summary_table
from .optim import UpdateRuleConfig
from .precond import (
    DigestMismatchError,
    Preconditioner,
    build_preconditioner,
    estimate_diag_fisher,
)
from .safebank import SafeBank
from .scoring import CUED_TYPES, BiasMonitor, load_lexicon, report_score
from .tta import EpisodeConfig, load_episodes, run_episode, save_episodes, trigger_curve

MANIFEST_KIND = "run-manifest"
MANIFEST_VERSION = 1
# the manifest keys that `report` reads
MANIFEST_KEYS = ("label", "mode", "config_digest", "outputs.records",
                 "outputs.metrics", "artifacts.model.digest", "artifacts.bank.digest")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIGEST = 3
EXIT_FAILURES = 4

MODES = ("static", "precond", "sgd", "adamw")
# ablate axis -> the run config key each of its values overrides
ABLATE_AXES = {
    "epsilon": "episode.epsilon",
    "segments": "episode.k_segments",
    "seg_tokens": "episode.tokens_per_segment",
    "multi_trigger": "episode.multi_trigger",
    "update_kind": "mode",
}


class CliError(RuntimeError):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# -- strict config handling ---------------------------------------------------------

REQUIRED = object()


def _dataclass_schema(cls) -> dict:
    """(type, default) per field of `cls`, `X | None` read as X, leaving out
    the fields that the run config's `mode` sets."""
    hints = typing.get_type_hints(cls)
    schema = {}
    for f in dataclasses.fields(cls):
        if f.name in ("update", "adapt", "kind"):
            continue
        typ = hints[f.name]
        if type(None) in typing.get_args(typ):
            (typ,) = (a for a in typing.get_args(typ) if a is not type(None))
        schema[f.name] = (typ, f.default)
    return schema


PRECOMPUTE_SCHEMA = {
    "model": (str, REQUIRED),
    "corpus": (str, REQUIRED),
    "output": (str, REQUIRED),
    "n_steps": (int, 10),
    "batch_size": (int, 2),
    "damping": (float, 1e-4),
    "continuation_tokens": (int, 128),
    "seed": (int, 0),
    "empirical": (bool, False),
}

RUN_SCHEMA = {
    "model": (str, REQUIRED),
    "bank": (str, REQUIRED),
    "evaluator": (str, REQUIRED),
    "preconditioner": (str, None),
    "mode": (str, "precond"),
    "label": (str, None),
    "master_seed": (int, 0),
    "output_dir": (str, REQUIRED),
    "failure_fraction_max": (float, 0.0),
    "lexicons": {
        "trigger": (list, REQUIRED),
        "report": (list, REQUIRED),
        "cue": (dict, REQUIRED),
    },
    "prompts": {
        "path": (str, REQUIRED),
        "min_bias": (float, 0.4),
        "sample": (int, None),
        "seed": (int, 0),
    },
    "episode": _dataclass_schema(EpisodeConfig),
    "update": _dataclass_schema(UpdateRuleConfig),
}

OOD_SCHEMA = {
    "model": (str, None),
    "background_model": (str, None),
    "reference": {"texts": (str, None), "embeddings": (str, None)},
    "id": {"texts": (str, None), "embeddings": (str, None)},
    "ood": {"texts": (str, None), "embeddings": (str, None)},
    "detectors": (list, ["knn", "mahalanobis"]),
    "k": (int, 10),
    "bootstrap": (int, 1000),
    "seed": (int, 0),
    "output_dir": (str, REQUIRED),
}


def _apply_schema(raw: dict, schema: dict, path: str = "") -> dict:
    if not isinstance(raw, dict):
        raise CliError(EXIT_CONFIG, f"config section {path or '<root>'} must be an object")
    out = {}
    for key, value in raw.items():
        if key not in schema:
            raise CliError(EXIT_CONFIG, f"unknown config key {path + key!r}")
    for key, spec in schema.items():
        sub_path = f"{path}{key}."
        if isinstance(spec, dict):
            out[key] = _apply_schema(raw.get(key, {}), spec, sub_path)
            continue
        typ, default = spec
        if key in raw:
            value = raw[key]
        elif default is REQUIRED:
            raise CliError(EXIT_CONFIG, f"missing required config key {path + key!r}")
        else:
            value = default
        # null is accepted only where it is the default
        if value is not None or default is not None:
            if typ is float and isinstance(value, int) and not isinstance(value, bool):
                value = float(value)
            if typ in (int, float) and isinstance(value, bool):
                raise CliError(EXIT_CONFIG, f"config key {path + key!r} must be {typ.__name__}")
            if not isinstance(value, typ):
                raise CliError(EXIT_CONFIG,
                               f"config key {path + key!r} must be {typ.__name__}, "
                               f"got {type(value).__name__}")
        out[key] = value
    return out


def _parse_set(expr: str):
    if "=" not in expr:
        raise CliError(EXIT_CONFIG, f"--set needs key=value, got {expr!r}")
    key, _, raw = expr.partition("=")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def load_config(path, schema: dict, overrides=()) -> dict:
    try:
        raw = read_json(path)
    except FileNotFoundError:
        raise CliError(EXIT_CONFIG, f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_CONFIG, f"config file {path} is not valid JSON: {exc}")
    for expr in overrides:
        key, value = _parse_set(expr)
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise CliError(EXIT_CONFIG, f"--set path {key!r} crosses a non-object")
        node[parts[-1]] = value
    cfg = _apply_schema(raw, schema)
    cfg["_base_dir"] = str(Path(path).resolve().parent)
    return cfg


def _config_path(cfg: dict, value) -> Path:
    """A config path value, relative ones taken against the config's directory."""
    p = Path(value)
    return p if p.is_absolute() else Path(cfg["_base_dir"]) / p


def _config_value(cfg: dict, key_path: str):
    node = cfg
    for part in key_path.split("."):
        node = node[part]
    return node


def _resolve(cfg: dict, key_path: str, must_exist: bool = True) -> Path:
    p = _config_path(cfg, _config_value(cfg, key_path))
    if must_exist and not p.exists():
        raise CliError(EXIT_CONFIG, f"config key {key_path!r}: no such file: {p}")
    return p


def config_digest(cfg: dict) -> str:
    clean = {k: v for k, v in cfg.items() if not k.startswith("_")}
    return digest_obj(clean)


def _load(kind: str, load, path, **kwargs):
    """`load(path, **kwargs)` for an input artifact: a digest mismatch exits
    3, a file that cannot be read or parsed is a configuration error."""
    try:
        return load(path, **kwargs)
    except DigestMismatchError as exc:
        raise CliError(EXIT_DIGEST, str(exc))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CliError(EXIT_CONFIG, f"{path}: not a readable {kind} artifact: {exc}")


# -- precompute --------------------------------------------------------------------


def cmd_precompute(args) -> int:
    cfg = load_config(args.config, PRECOMPUTE_SCHEMA, args.set or ())
    model = _load("model", ToyLM.load, _resolve(cfg, "model"))
    corpus_path = _resolve(cfg, "corpus")
    corpus = _load("corpus", read_lines, corpus_path)
    if not corpus:
        raise CliError(EXIT_CONFIG, f"corpus file {corpus_path} is empty")

    estimate = estimate_diag_fisher(
        model, corpus, n_steps=cfg["n_steps"], batch_size=cfg["batch_size"],
        seed=cfg["seed"], continuation_tokens=cfg["continuation_tokens"],
        empirical=cfg["empirical"])
    try:
        pre = build_preconditioner(estimate, damping=cfg["damping"])
    except ValueError as exc:
        raise CliError(EXIT_CONFIG, f"invalid precompute config: {exc}")

    out = _resolve(cfg, "output", must_exist=False)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.verify and out.exists():
        before = file_digest(out)
        tmp = out.with_suffix(out.suffix + ".verify")
        pre.save(tmp)
        after = file_digest(tmp)
        tmp.unlink()
        if before != after:
            raise CliError(EXIT_DIGEST,
                           f"{out}: existing artifact does not match recomputation")
        print(f"verified {out}")
    else:
        pre.save(out)
        print(f"wrote {out}")
    print(_blas.STATUS)
    print(f"damping={cfg['damping']:g} n_steps={cfg['n_steps']} "
          f"batch_size={cfg['batch_size']} samples={estimate.sample_count}")
    for name, block in zip("AB", model.adapter.split_flat(estimate.diag)):
        print(f"fisher {name}: entries={block.size} zeros={int((block == 0.0).sum())} "
              f"below_damping={(block < cfg['damping']).mean():.4f}")
    return EXIT_OK


# -- run ---------------------------------------------------------------------------


def _load_scorers(cfg: dict):
    def lexicon(key, value, scorer_id=None):
        if not isinstance(value, str):
            raise CliError(EXIT_CONFIG, f"config key {key!r}: {value!r} is not a lexicon path")
        return _load("lexicon", load_lexicon, _config_path(cfg, value), scorer_id=scorer_id)

    lex = cfg["lexicons"]
    for role in ("trigger", "report"):
        if not lex[role]:
            raise CliError(EXIT_CONFIG, f"lexicons.{role} needs at least one lexicon")
    for t in lex["cue"]:
        if t not in CUED_TYPES:
            raise CliError(EXIT_CONFIG, f"lexicons.cue.{t}: cue types are {CUED_TYPES}")
    return ([lexicon("lexicons.trigger", p) for p in lex["trigger"]],
            [lexicon("lexicons.report", p) for p in lex["report"]],
            {t: lexicon(f"lexicons.cue.{t}", p, f"cue-{t}") for t, p in lex["cue"].items()})


def _select_prompts(cfg: dict, report_scorers) -> list[str]:
    path = _resolve(cfg, "prompts.path")
    lines = _load("prompt", read_lines, path)
    floor = cfg["prompts"]["min_bias"]
    kept = [ln for ln in lines if report_score(ln, report_scorers) >= floor]
    n = cfg["prompts"]["sample"]
    if n is None:
        return kept
    if len(kept) < n:
        raise CliError(EXIT_CONFIG,
                       f"prompt file {path}: only {len(kept)} prompts pass the "
                       f"bias floor {floor}, need {n}")
    rng = np.random.default_rng(cfg["prompts"]["seed"])
    idx = rng.permutation(len(kept))[:n]
    return [kept[i] for i in sorted(int(i) for i in idx)]


def _episode_config(cfg: dict) -> EpisodeConfig:
    """The validated episode config of a parsed run config."""
    mode = cfg["mode"]
    if mode not in MODES:
        raise CliError(EXIT_CONFIG, f"mode must be one of {MODES}, got {mode!r}")
    update = UpdateRuleConfig(kind=mode if mode != "static" else "precond",
                              **cfg["update"])
    episode_cfg = EpisodeConfig(update=update, adapt=(mode != "static"),
                                **cfg["episode"])
    try:
        episode_cfg.validate()
    except ValueError as exc:
        raise CliError(EXIT_CONFIG, f"invalid episode config: {exc}")
    return episode_cfg


# Episode inputs of the run in progress, built once by cmd_run. Forked --jobs
# workers inherit them, and episodes are independent given the per-prompt
# seed sequence, so the reduction is a plain index sort.
_INPUTS = {}


def _run_one(item):
    idx, prompt = item
    rng = np.random.default_rng([_INPUTS["master_seed"], idx])
    try:
        rec = run_episode(prompt, _INPUTS["model"], _INPUTS["monitor"],
                          _INPUTS["bank"], _INPUTS["preconditioner"],
                          _INPUTS["config"], rng, prompt_id=f"prompt-{idx:04d}")
        return idx, rec, None
    except Exception as exc:  # hard failure: recorded, the run continues
        return idx, None, f"{type(exc).__name__}: {exc}"


def _progress(results: list, total: int) -> None:
    """One stderr line for the episode that just joined `results`."""
    idx, _, err = results[-1]
    print(f"[{len(results)}/{total}] prompt-{idx:04d}" + (" failed" if err else ""),
          file=sys.stderr, flush=True)


def _run_pool(items, jobs: int) -> list:
    """`_run_one` over `items` in `jobs` forked workers, in item order; each
    episode a dead worker leaves unfinished is a failure, not a hang."""
    # imported here, off the start-up path of serial runs
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    results = []
    with ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = []
        for item in items:
            try:
                futures.append(pool.submit(_run_one, item))
            except BrokenProcessPool:  # a worker died before every episode was queued
                break
        for (idx, _), fut in zip(items, futures):
            try:
                results.append(fut.result())
            except BrokenProcessPool as exc:
                results.append((idx, None, f"{type(exc).__name__}: {exc}"))
            _progress(results, len(items))
    results += [(idx, None, "BrokenProcessPool: a worker died before this episode "
                            "was queued") for idx, _ in items[len(futures):]]
    return results


def _artifact(path: Path) -> dict:
    """Manifest entry for an input, digested when it is loaded."""
    return {"path": str(path), "digest": file_digest(path)}


def cmd_run(args) -> int:
    cfg = load_config(args.config, RUN_SCHEMA, args.set or ())
    started = time.time()

    model_path = _resolve(cfg, "model")
    bank_path = _resolve(cfg, "bank")
    evaluator_path = _resolve(cfg, "evaluator")
    model = _load("model", ToyLM.load, model_path)
    bank = _load("safe-bank", SafeBank.load, bank_path)
    artifacts = {"model": _artifact(model_path), "bank": _artifact(bank_path),
                 "preconditioner": None}
    evaluator = _load("model", ToyLM.load, evaluator_path)
    trigger, report_scorers, cues = _load_scorers(cfg)

    episode_cfg = _episode_config(cfg)

    preconditioner = None
    if cfg["mode"] == "precond":
        if cfg["preconditioner"] is None:
            raise CliError(EXIT_CONFIG, "mode=precond needs a preconditioner path")
        pre_path = _resolve(cfg, "preconditioner")
        preconditioner = _load("preconditioner", Preconditioner.load, pre_path,
                               model=model)
        artifacts["preconditioner"] = _artifact(pre_path)

    prompts = _select_prompts(cfg, report_scorers)
    if not prompts:
        raise CliError(EXIT_CONFIG, "no prompts pass the bias floor")

    _INPUTS.update(
        model=model, bank=bank, preconditioner=preconditioner, config=episode_cfg,
        monitor=BiasMonitor(trigger, cues),
        master_seed=cfg["master_seed"])
    items = list(enumerate(prompts))
    try:
        if args.jobs and args.jobs > 1:
            results = _run_pool(items, args.jobs)
        else:
            results = []
            for item in items:
                results.append(_run_one(item))
                _progress(results, len(items))
    finally:
        _INPUTS.clear()

    records = []
    failures = []
    for idx, rec, err in results:
        if err is None:
            records.append(rec)
        else:
            failures.append({"prompt_id": f"prompt-{idx:04d}", "error": err})

    out_dir = _resolve(cfg, "output_dir", must_exist=False)
    out_dir.mkdir(parents=True, exist_ok=True)
    label = cfg["label"] or cfg["mode"]
    digest = config_digest(cfg)

    episode_rows = []
    for rec in records:
        text = " ".join(s.text for s in rec.segments)
        scores = [s.trigger_score for s in rec.segments if s.trigger_score is not None]
        ppl = perplexity(text, evaluator)
        episode_rows.append({
            "prompt_id": rec.prompt_id,
            "ppl": ppl,
            "fluency": fluency(ppl),
            "bias_mean": float(np.mean(scores)) if scores else float("nan"),
            "trigger_rate": rec.trigger_rate,
            "timing": rec.timing,
        })

    meta = {"label": label, "mode": cfg["mode"], "config_digest": digest,
            "master_seed": cfg["master_seed"], "tool_version": __version__}
    save_episodes(out_dir / "records.jsonl", records, meta=meta)
    write_json(out_dir / "metrics.json", {"kind": "episode-metrics",
                                           "rows": episode_rows, **meta})
    if records:
        summary = aggregate_run(episode_rows)
        table = summary_table({label: summary})
        write_text(out_dir / "summary.tsv", f"# config {digest}\n" + table)

    manifest = {
        "kind": MANIFEST_KIND,
        "format_version": MANIFEST_VERSION,
        **meta,
        "artifacts": artifacts,
        "blas": {"library": _blas.STATUS.library, "threads": _blas.STATUS.threads},
        "n_prompts": len(prompts),
        "n_episodes": len(records),
        "failures": failures,
        "outputs": {"records": "records.jsonl", "metrics": "metrics.json",
                    "summary": "summary.tsv"},
        "wall_clock_seconds": time.time() - started,
    }
    write_json(out_dir / "manifest.json", manifest)

    frac = len(failures) / len(prompts)
    print(f"{label}: {len(records)} episodes, {len(failures)} failures -> {out_dir}")
    if frac > cfg["failure_fraction_max"]:
        print(f"failure fraction {frac:.3f} exceeds bound "
              f"{cfg['failure_fraction_max']:.3f}", file=sys.stderr)
        return EXIT_FAILURES
    return EXIT_OK


def load_manifest(path) -> dict:
    d = read_json(path)
    check_header(d, MANIFEST_KIND, MANIFEST_VERSION, path)
    for key in MANIFEST_KEYS:
        _config_value(d, key)  # a KeyError names the missing key
    for name, entry in d["artifacts"].items():
        if entry is None:
            continue
        p = Path(entry["path"])
        if not p.exists():
            print(f"warning: {path}: artifact {name} at {p} is missing and "
                  f"could not be verified", file=sys.stderr)
        elif file_digest(p) != entry["digest"]:
            raise CliError(EXIT_DIGEST,
                           f"{path}: artifact {name} at {p} changed since the run")
    return d


def load_metric_rows(path) -> list[dict]:
    return read_json(path)["rows"]


# -- ablate ------------------------------------------------------------------------


def _ablate_point(args, raw: str, total_tokens: int):
    """(tag, value, run overrides) for one raw ablate value.

    The value goes in as a --set override of the axis's config key, so it is
    typed and validated like any other config value."""
    key = ABLATE_AXES[args.axis]
    overrides = [*(args.set or ()), f"{key}={raw}"]
    cfg = load_config(args.config, RUN_SCHEMA, overrides)
    _episode_config(cfg)
    value = _config_value(cfg, key)
    if args.axis == "segments":
        # the total token budget stays fixed
        if total_tokens % value:
            raise CliError(EXIT_CONFIG,
                           f"segments={value} does not divide the total token "
                           f"budget {total_tokens}")
        overrides.append(f"episode.tokens_per_segment={total_tokens // value}")
        _episode_config(load_config(args.config, RUN_SCHEMA, overrides))
    tag = f"{args.axis}={value}"
    return tag, value, overrides


def cmd_ablate(args) -> int:
    raws = [p.strip() for p in args.values.split(",") if p.strip()]
    if not raws:
        raise CliError(EXIT_CONFIG, "--values must be a non-empty comma list")
    base_cfg = load_config(args.config, RUN_SCHEMA, args.set or ())
    out_root = _resolve(base_cfg, "output_dir", must_exist=False)
    total_tokens = (base_cfg["episode"]["k_segments"]
                    * base_cfg["episode"]["tokens_per_segment"])
    # every value is checked before the first run writes anything
    points = [_ablate_point(args, raw, total_tokens) for raw in raws]
    tags = [tag for tag, _, _ in points]
    if len(set(tags)) < len(tags):
        raise CliError(EXIT_CONFIG, f"--values repeats a value: {', '.join(tags)}")

    rows = []
    for tag, _, overrides in points:
        sub = argparse.Namespace(config=args.config, jobs=args.jobs,
                                 set=[*overrides, f"output_dir={out_root / tag}",
                                      f"label={tag}"])
        code = cmd_run(sub)
        if code != EXIT_OK:
            return code
        _load("run manifest", load_manifest, out_root / tag / "manifest.json")
        rows.append((tag, aggregate_run(load_metric_rows(out_root / tag / "metrics.json"))))

    table = summary_table(dict(rows))
    lines = [f"# ablate axis={args.axis} values={args.values}"]

    if args.axis == "epsilon":
        # frozen-trajectory scoring: one static pass, shared master seed, then
        # trigger rates recomputed per threshold from the fixed segment scores
        frozen_over = [*(args.set or ()), "mode=static", "label=frozen-static",
                       f"output_dir={out_root / 'frozen-static'}"]
        code = cmd_run(argparse.Namespace(config=args.config, set=frozen_over,
                                          jobs=args.jobs))
        if code != EXIT_OK:
            return code
        _, recs = load_episodes(out_root / "frozen-static" / "records.jsonl")
        scores = [s.trigger_score for rec in recs for s in rec.segments
                  if s.trigger_score is not None]
        eps_sorted = sorted(value for _, value, _ in points)
        curve = trigger_curve(scores, eps_sorted)
        total = len(scores)
        lines.append("# frozen_trigger_rate: " + " ".join(
            f"{e:g}:{c / total:.6f}" for e, c in zip(eps_sorted, curve)))

    write_text(out_root / "ablate.tsv", "\n".join(lines) + "\n" + table)
    print(f"ablate table -> {out_root / 'ablate.tsv'}")
    return EXIT_OK


# -- ood ---------------------------------------------------------------------------


def _embedding_set(cfg: dict, section: str, model, label: str):
    """The section's embeddings, and its text lines (None when it gives an
    embeddings file)."""
    spec = cfg[section]
    if (spec["texts"] is None) == (spec["embeddings"] is None):
        raise CliError(EXIT_CONFIG,
                       f"ood config section {section!r} needs exactly one of "
                       "texts/embeddings")
    if spec["embeddings"] is not None:
        return _load("embeddings", oodmod.EmbeddingSet.load,
                     _resolve(cfg, f"{section}.embeddings")), None
    if model is None:
        raise CliError(EXIT_CONFIG,
                       f"ood config: section {section!r} gives texts, so a model "
                       "path is required for embedding")
    path = _resolve(cfg, f"{section}.texts")
    texts = _load("texts", read_lines, path)
    if not texts:
        raise CliError(EXIT_CONFIG, f"text file {path} is empty")
    # the digest names the input without tying the output to where it lives
    return oodmod.embed_corpus(model, texts, label=label, source=file_digest(path)), texts


def cmd_ood(args) -> int:
    cfg = load_config(args.config, OOD_SCHEMA, args.set or ())
    known = ("knn", "mahalanobis", "llr")
    bad = [d for d in cfg["detectors"] if d not in known]
    if bad:
        raise CliError(EXIT_CONFIG, f"unknown detectors {bad}; choose from {known}")
    if "llr" in cfg["detectors"]:
        if cfg["model"] is None or cfg["background_model"] is None:
            raise CliError(EXIT_CONFIG, "detector llr needs model and background_model")
        if cfg["id"]["texts"] is None or cfg["ood"]["texts"] is None:
            raise CliError(EXIT_CONFIG, "detector llr needs id/ood text files")
        bg = _load("model", ToyLM.load, _resolve(cfg, "background_model"))
    model = _load("model", ToyLM.load, _resolve(cfg, "model")) if cfg["model"] else None

    reference, _ = _embedding_set(cfg, "reference", model, "reference")
    id_set, id_texts = _embedding_set(cfg, "id", model, "id")
    ood_set, ood_texts = _embedding_set(cfg, "ood", model, "ood")
    if "knn" in cfg["detectors"] and not 1 <= cfg["k"] <= len(reference):
        raise CliError(EXIT_CONFIG, f"k={cfg['k']} out of range for a reference set "
                                    f"of {len(reference)} vectors")
    out_dir = _resolve(cfg, "output_dir", must_exist=False)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, es in (("reference", reference), ("id", id_set), ("ood", ood_set)):
        es.save(out_dir / f"{name}.emb.txt")

    results = []
    for det in cfg["detectors"]:
        if det == "knn":
            s_ood = np.array([oodmod.knn_score(v, reference.vectors, k=cfg["k"])
                              for v in ood_set.vectors])
            s_id = np.array([oodmod.knn_score(v, reference.vectors, k=cfg["k"])
                             for v in id_set.vectors])
        elif det == "mahalanobis":
            mu, sigma = oodmod.fit_gaussian(reference.vectors)
            s_ood = np.array([oodmod.mahalanobis_score(v, mu, sigma)
                              for v in ood_set.vectors])
            s_id = np.array([oodmod.mahalanobis_score(v, mu, sigma)
                             for v in id_set.vectors])
        else:
            s_id = np.array([oodmod.llr_score(t, model, bg) for t in id_texts])
            s_ood = np.array([oodmod.llr_score(t, model, bg) for t in ood_texts])
        results.append(oodmod.evaluate(s_ood, s_id, bootstrap_n=cfg["bootstrap"],
                                       seed=cfg["seed"], detector=det))

    header = ("detector", "auroc", "ci_low", "ci_high", "aupr", "far_ood",
              "n_ood", "n_id")
    lines = ["\t".join(header)]
    for r in results:
        lines.append("\t".join([
            r.detector, f"{r.auroc:.6f}", f"{r.ci_low:.6f}", f"{r.ci_high:.6f}",
            f"{r.aupr:.6f}", str(int(r.far_ood)), str(r.n_ood), str(r.n_id)]))
    write_text(out_dir / "ood.tsv", "\n".join(lines) + "\n")
    write_json(out_dir / "ood.json", {"kind": "ood-results",
                                      "results": [r.to_record() for r in results]})
    for line in lines:
        print(line)
    return EXIT_OK


# -- report ------------------------------------------------------------------------


def _ecdf_lines(label: str, values) -> list[str]:
    vals = np.sort(np.asarray([v for v in values if np.isfinite(v)], dtype=np.float64))
    n = vals.size
    return [f"{label}\t{v:.10g}\t{(i + 1) / n:.6f}" for i, v in enumerate(vals)]


def cmd_report(args) -> int:
    root = Path(args.records_dir)
    if not root.is_dir():
        raise CliError(EXIT_CONFIG, f"records dir not found: {root}")
    out_dir = Path(args.out) if args.out else root / "report"

    manifest_paths = sorted(root.glob("*/manifest.json"))
    if (root / "manifest.json").exists():
        manifest_paths.insert(0, root / "manifest.json")
    runs = []
    for mp in manifest_paths:
        man = _load("run manifest", load_manifest, mp)
        base = mp.parent
        _, records = _load("episode-records", load_episodes,
                           base / man["outputs"]["records"])
        rows = _load("episode-metrics", load_metric_rows,
                     base / man["outputs"]["metrics"])
        runs.append({"label": man["label"], "manifest": man,
                     "records": records, "rows": rows})

    if not runs:
        print(f"warning: no run manifests under {root}; writing empty tables",
              file=sys.stderr)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_text(out_dir / "summary.tsv", "# no runs\n")
        return EXIT_OK

    labels = [r["label"] for r in runs]
    if len(set(labels)) != len(labels):
        raise CliError(EXIT_CONFIG, f"duplicate run labels in {root}: {labels}")

    # runs are only comparable against the same frozen artifacts
    def artifact_key(man):
        arts = man["artifacts"]
        return (arts["model"]["digest"], arts["bank"]["digest"])

    keys = {artifact_key(r["manifest"]) for r in runs}
    if len(keys) > 1 and not args.force:
        raise CliError(EXIT_DIGEST,
                       "records dir mixes runs over different model/bank artifacts; "
                       "rerun with --force to compare anyway")

    out_dir.mkdir(parents=True, exist_ok=True)
    digests = {r["label"]: r["manifest"]["config_digest"] for r in runs}
    stamp = "# runs " + " ".join(f"{k}={v[:12]}" for k, v in sorted(digests.items()))

    summary = {r["label"]: aggregate_run(r["rows"]) for r in runs}
    write_text(out_dir / "summary.tsv", stamp + "\n" + summary_table(summary))

    traj_lines = [stamp, "run\tsegment\tbias_mean\tbias_sd\ttrigger_rate\tn"]
    for r in runs:
        k = max(len(rec.segments) for rec in r["records"])
        for j in range(k):
            scores = [rec.segments[j].trigger_score for rec in r["records"]
                      if len(rec.segments) > j
                      and rec.segments[j].trigger_score is not None]
            trigs = [rec.segments[j].triggered for rec in r["records"]
                     if len(rec.segments) > j]
            if not scores:
                continue
            traj_lines.append(
                f"{r['label']}\t{j}\t{np.mean(scores):.6f}\t{np.std(scores):.6f}"
                f"\t{np.mean(trigs):.6f}\t{len(scores)}")
    write_text(out_dir / "trajectories.tsv", "\n".join(traj_lines) + "\n")

    bias_lines = [stamp, "run\tbias_mean\tcum_frac"]
    time_lines = [stamp, "run\tupdate_time_total\tcum_frac"]
    for r in runs:
        bias_lines += _ecdf_lines(r["label"], [row["bias_mean"] for row in r["rows"]])
        time_lines += _ecdf_lines(
            r["label"], [row["timing"]["update_time_total"] for row in r["rows"]])
    write_text(out_dir / "ecdf_bias.tsv", "\n".join(bias_lines) + "\n")
    write_text(out_dir / "ecdf_update_time.tsv", "\n".join(time_lines) + "\n")

    # DiD of each run against the static baseline when one is present
    did_lines = [stamp,
                 "system\tbaseline\tsegment\tn\texcluded\tdid_mean\tt_stat\tp_value"]
    baseline = next((r for r in runs if r["manifest"]["mode"] == "static"), None)
    if baseline is not None:
        base_trajs = {rec.prompt_id: [s.trigger_score for s in rec.segments]
                      for rec in baseline["records"]}
        for r in runs:
            if r is baseline:
                continue
            sys_trajs = {rec.prompt_id: [s.trigger_score for s in rec.segments]
                         for rec in r["records"]}
            k = max(len(t) for t in sys_trajs.values())
            for j in range(1, k):
                diffs, excluded = metrics.did_series(sys_trajs, base_trajs, j)
                if len(diffs) < 2:
                    continue
                t = metrics.paired_t_test(diffs)
                stat = "nan" if t.degenerate else f"{t.statistic:.6f}"
                pval = "nan" if t.degenerate else f"{t.p_value:.6g}"
                did_lines.append(
                    f"{r['label']}\t{baseline['label']}\t{j}\t{len(diffs)}"
                    f"\t{excluded}\t{np.mean(diffs):.6f}\t{stat}\t{pval}")
    write_text(out_dir / "did.tsv", "\n".join(did_lines) + "\n")

    print(f"report -> {out_dir}")
    return EXIT_OK


# -- entry point -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ttalab")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (dotted path, JSON value)")

    p = sub.add_parser("precompute", help="estimate the diagonal Fisher once")
    add_config_args(p)
    p.add_argument("--verify", action="store_true",
                   help="recompute and compare against the existing artifact")
    p.set_defaults(func=cmd_precompute)

    p = sub.add_parser("run", help="run episodes over a prompt set")
    add_config_args(p)
    p.add_argument("--jobs", type=int, default=1, help="parallel worker count")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("ablate", help="sweep one config axis")
    add_config_args(p)
    p.add_argument("--axis", required=True, choices=ABLATE_AXES)
    p.add_argument("--values", required=True,
                   help="comma-separated axis values")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("ood", help="run embedding-based OOD detectors")
    add_config_args(p)
    p.set_defaults(func=cmd_ood)

    p = sub.add_parser("report", help="summaries, trajectories, ECDFs, DiD")
    p.add_argument("records_dir")
    p.add_argument("--out", help="output directory (default <records_dir>/report)")
    p.add_argument("--force", action="store_true",
                   help="allow mixing runs over different artifacts")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
