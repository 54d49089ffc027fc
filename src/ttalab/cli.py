"""Command-line front end: precompute / run / ablate / ood / report.

Every run is driven by a strict JSON config (unknown keys are errors, every
hyperparameter is a named key) plus repeatable --set dotted overrides. Each
config rule has one home: a schema leaf written here carries its closed
range beside its type, and a leaf read from a library signature or
dataclass (`_signature_schema`) takes its range from that library's
validator, which the command calls before it reads any input. The `ood`
keys `k`, `bootstrap` and `seed` take their type and default from `ood`
and their range from here, because `ood` checks them only once the inputs
are read. Each default is the library's, the bundled scenario's tuned
value, so a config that names only paths runs the scenario.

A (config digest, master seed) pair determines every output byte except the
wall-clock values, which have one home per run: `timing` in each episode
record. `report` reads them from there into its only two timed tables,
ecdf_update_time.tsv and latency.tsv (each run's update and test time
means). That holds on any core count for one OpenBLAS build, which runs on
one thread (see `_blas`) and is named in the manifest's `blas` entry. `run`
prints one progress line per finished episode on stderr.

Exit codes: 0 ok, 2 configuration error or an input artifact that cannot
be read, 3 artifact digest error, 4 episode failure fraction exceeded.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import typing
from pathlib import Path

import numpy as np

from . import __version__, _blas, metrics, ood as oodmod
from .artifacts import (check_header, digest_obj, file_digest, json_text, read_json,
                        read_lines, write_json, write_text)
from .genmodel import ToyLM
from .metrics import aggregate_run, fluency, perplexity, summary_table
from .optim import UpdateRuleConfig
from .precond import (
    DigestMismatchError,
    EstimationError,
    Preconditioner,
    build_preconditioner,
    check_damping,
    estimate_diag_fisher,
    sampling_settings,
)
from .safebank import SafeBank
from .scoring import CUED_TYPES, PROMPT_MIN_BIAS, BiasMonitor, load_lexicon, report_score
from .tta import EpisodeConfig, load_episodes, run_episode, save_episodes, trigger_curve

MANIFEST_KIND = "run-manifest"
MANIFEST_VERSION = 1
MANIFEST_FILE = "manifest.json"
# The files each command writes into its output directory, named here only;
# every one is checked before the command reads its first input.
# `_run`'s, under the manifest's `outputs` keys, beside the manifest itself
RUN_OUTPUTS = {"records": "records.jsonl", "metrics": "metrics.json",
               "summary": "summary.tsv"}
RUN_FILES = (*RUN_OUTPUTS.values(), MANIFEST_FILE)
ABLATE_TABLE = "ablate.tsv"
REPORT_TABLES = {"summary": "summary.tsv", "trajectories": "trajectories.tsv",
                 "ecdf_bias": "ecdf_bias.tsv", "ecdf_update_time": "ecdf_update_time.tsv",
                 "latency": "latency.tsv", "did": "did.tsv"}
OOD_FILES = {"reference": "reference.emb.txt", "id": "id.emb.txt",
             "ood": "ood.emb.txt", "table": "ood.tsv", "results": "ood.json"}
# the manifest keys that `read_run` requires
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


def _signature_schema(fn, skip=()) -> dict:
    """(type, default) per defaulted parameter of `fn`, a function or a
    dataclass, `X | None` read as X, leaving out the names in `skip`. Their
    ranges belong to the library's validator, which the command calls."""
    schema = {}
    for name, param in inspect.signature(fn, eval_str=True).parameters.items():
        if param.default is param.empty or name in skip:
            continue
        typ = param.annotation
        if type(None) in typing.get_args(typ):
            (typ,) = (a for a in typing.get_args(typ) if a is not type(None))
        schema[name] = (typ, param.default)
    return schema


# A leaf written here is (type, default) or (type, default, closed range).
PRECOMPUTE_SCHEMA = {
    "model": (str, REQUIRED),
    "corpus": (str, REQUIRED),
    "output": (str, REQUIRED),
    # checked by precond.sampling_settings and precond.check_damping
    **_signature_schema(estimate_diag_fisher),
    **_signature_schema(build_preconditioner),
}

RUN_SCHEMA = {
    "model": (str, REQUIRED),
    "bank": (str, REQUIRED),
    "evaluator": (str, REQUIRED),
    "preconditioner": (str, None),
    "mode": (str, "precond"),
    "label": (str, None),
    "master_seed": (int, 0, (0, np.inf)),
    "output_dir": (str, REQUIRED),
    "failure_fraction_max": (float, 0.0, (0.0, 1.0)),
    "lexicons": {
        "trigger": (list, REQUIRED),
        "report": (list, REQUIRED),
        "cue": (dict, REQUIRED),
    },
    "prompts": {
        "path": (str, REQUIRED),
        # the committee score range
        "min_bias": (float, PROMPT_MIN_BIAS, (0.0, 1.0)),
        "sample": (int, None, (1, np.inf)),
        "seed": (int, 0, (0, np.inf)),
    },
    # checked by EpisodeConfig.validate, less the fields that `mode` sets
    "episode": _signature_schema(EpisodeConfig, skip=("update", "adapt")),
    "update": _signature_schema(UpdateRuleConfig, skip=("kind",)),
}

_KNN = _signature_schema(oodmod.knn_scores)
_EVALUATE = _signature_schema(oodmod.evaluate)
OOD_SCHEMA = {
    "model": (str, None),
    "background_model": (str, None),
    "reference": {"texts": (str, None), "embeddings": (str, None)},
    "id": {"texts": (str, None), "embeddings": (str, None)},
    "ood": {"texts": (str, None), "embeddings": (str, None)},
    "detectors": (list, ["knn", "mahalanobis"]),
    # type and default from the library, the range here, checked before any
    # input is read; k's upper bound, the reference set's size, is checked
    # in cmd_ood
    "k": (*_KNN["k"], (1, np.inf)),
    "bootstrap": (*_EVALUATE["bootstrap_n"], (0, np.inf)),
    "seed": (*_EVALUATE["seed"], (0, np.inf)),
    "output_dir": (str, REQUIRED),
}


def _check_section(raw, path: str) -> None:
    if not isinstance(raw, dict):
        raise CliError(EXIT_CONFIG, f"config section {path or '<root>'} must be an object")


def _apply_schema(raw: dict, schema: dict, path: str = "") -> dict:
    _check_section(raw, path)
    out = {}
    for key, value in raw.items():
        if key not in schema:
            raise CliError(EXIT_CONFIG, f"unknown config key {path + key!r}")
    for key, spec in schema.items():
        sub_path = f"{path}{key}."
        if isinstance(spec, dict):
            out[key] = _apply_schema(raw.get(key, {}), spec, sub_path)
            continue
        typ, default, *bounds = spec
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
            if bounds and not bounds[0][0] <= value <= bounds[0][1]:  # NaN fails too
                raise CliError(EXIT_CONFIG, f"config key {path + key!r} must lie in "
                                            f"{list(bounds[0])}, got {value}")
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
    raw = _load("config", read_json, path)
    _check_section(raw, "")
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
    """The value at a dotted key path; a part indexes a list by position."""
    node = cfg
    for part in key_path.split("."):
        node = node[int(part)] if isinstance(node, list) else node[part]
    return node


def _resolve(cfg: dict, key_path: str, must_exist: bool = True) -> Path:
    value = _config_value(cfg, key_path)
    if not isinstance(value, str):
        raise CliError(EXIT_CONFIG, f"config key {key_path!r}: {value!r} is not a path")
    p = _config_path(cfg, value)
    if must_exist and not p.exists():
        raise CliError(EXIT_CONFIG, f"config key {key_path!r}: no such file: {p}")
    return p


def _output_location(path: Path, name: str, directory: bool = True,
                     files=()) -> Path:
    """`path`, checked before any work: exit 2, naming `name`, when an
    existing path stands in the way of the output, a directory where a file
    goes or a non-directory at or above where a directory goes. The names
    in `files` are the files the command writes into directory `path`."""
    existing = next(p for p in (path, *path.parents) if p.exists())
    if existing.is_dir() != (directory or existing != path):
        what = "a directory" if existing.is_dir() else "not a directory"
        raise CliError(EXIT_CONFIG, f"{name}: {existing} is {what}")
    for file in files:
        _output_location(path / file, name, directory=False)
    return path


def _output_dir(cfg: dict, files) -> Path:
    """The checked directory at config key `output_dir`, into which the
    command writes `files`."""
    return _output_location(_resolve(cfg, "output_dir", must_exist=False),
                            "config key 'output_dir'", files=files)


def config_digest(cfg: dict) -> str:
    clean = {k: v for k, v in cfg.items() if not k.startswith("_")}
    return digest_obj(clean)


def _load(kind: str, load, path, **kwargs):
    """`load(path, **kwargs)` for an input artifact: a digest mismatch exits
    3, a file that cannot be read or parsed is a configuration error. The
    readers raise without the file name; this is the one place that adds it."""
    try:
        return load(path, **kwargs)
    except DigestMismatchError as exc:
        raise CliError(EXIT_DIGEST, f"{path}: {exc}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CliError(EXIT_CONFIG, f"{path}: not a readable {kind} artifact: {exc}")


# -- precompute --------------------------------------------------------------------


def cmd_precompute(args) -> int:
    """Estimate and write the preconditioner; with --verify, recompute it and
    compare its text in memory with the artifact at `output`, writing nothing.
    Every config value is checked before the estimate starts."""
    cfg = load_config(args.config, PRECOMPUTE_SCHEMA, args.set or ())
    try:
        sampling_settings(cfg["n_steps"], cfg["batch_size"], cfg["seed"],
                          cfg["continuation_tokens"])
        check_damping(cfg["damping"])
    except (EstimationError, ValueError) as exc:
        raise CliError(EXIT_CONFIG, f"invalid precompute config: {exc}")
    out = _output_location(_resolve(cfg, "output", must_exist=args.verify),
                           "config key 'output'", directory=False)
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

    if args.verify:
        existing = _load("preconditioner", Path.read_bytes, out)
        if existing != json_text(pre.to_record()).encode("utf-8"):
            raise CliError(EXIT_DIGEST,
                           f"{out}: existing artifact does not match recomputation")
        print(f"verified {out}")
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
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


def _read_input(cfg: dict, inputs: dict, key: str, kind: str, load, **kwargs):
    """`load` on the file at config key `key`, through `_load`; its path and
    digest go into `inputs` under `key`, for the run manifest."""
    path = _resolve(cfg, key)
    loaded = _load(kind, load, path, **kwargs)
    inputs[key] = {"path": str(path), "digest": file_digest(path)}
    return loaded


def _check_lexicons(lex: dict) -> None:
    for role in ("trigger", "report"):
        if not lex[role]:
            raise CliError(EXIT_CONFIG, f"lexicons.{role} needs at least one lexicon")
    for t in lex["cue"]:
        if t not in CUED_TYPES:
            raise CliError(EXIT_CONFIG, f"lexicons.cue.{t}: cue types are {CUED_TYPES}")


def _load_scorers(cfg: dict, inputs: dict):
    lex = cfg["lexicons"]

    def committee(role):
        return [_read_input(cfg, inputs, f"lexicons.{role}.{i}", "lexicon", load_lexicon)
                for i in range(len(lex[role]))]

    return (committee("trigger"), committee("report"),
            {t: _read_input(cfg, inputs, f"lexicons.cue.{t}", "lexicon", load_lexicon,
                            scorer_id=f"cue-{t}") for t in lex["cue"]})


def _select_prompts(cfg: dict, inputs: dict, report_scorers) -> list[str]:
    lines = _read_input(cfg, inputs, "prompts.path", "prompt", read_lines)
    floor = cfg["prompts"]["min_bias"]
    kept = [ln for ln in lines if report_score(ln, report_scorers) >= floor]
    path = inputs["prompts.path"]["path"]
    if not kept:
        raise CliError(EXIT_CONFIG, f"prompt file {path}: no prompts pass the bias floor {floor}")
    n = cfg["prompts"]["sample"]
    if n is None:
        return kept
    if len(kept) < n:
        raise CliError(EXIT_CONFIG, f"prompt file {path}: only {len(kept)} prompts "
                                    f"pass the bias floor {floor}, need {n}")
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


# Episode inputs of the run in progress, built once by _run. Forked --jobs
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
    """`_run_one` over `items` in min(jobs, len(items)) forked workers (the
    pool forks all of them at its first submit), in item order; each episode
    a dead worker leaves unfinished is a failure, not a hang."""
    # imported here, off the start-up path of serial runs
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    results = []
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(min(jobs, len(items)), mp_context=fork) as pool:
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


def _run(cfg: dict, jobs: int) -> int:
    """Run a parsed run config and write its run directory: `RUN_FILES`."""
    # the episode config, lexicons and output directory are checked before
    # the first input is read
    episode_cfg = _episode_config(cfg)
    if cfg["mode"] == "precond" and cfg["preconditioner"] is None:
        raise CliError(EXIT_CONFIG, "mode=precond needs a preconditioner path")
    _check_lexicons(cfg["lexicons"])
    out_dir = _output_dir(cfg, RUN_FILES)

    # every input the run reads, with its digest as loaded
    artifacts = {"preconditioner": None}
    model = _read_input(cfg, artifacts, "model", "model", ToyLM.load)
    bank = _read_input(cfg, artifacts, "bank", "safe-bank", SafeBank.load)
    evaluator = _read_input(cfg, artifacts, "evaluator", "model", ToyLM.load)
    trigger, report_scorers, cues = _load_scorers(cfg, artifacts)

    preconditioner = None
    if cfg["mode"] == "precond":
        preconditioner = _read_input(cfg, artifacts, "preconditioner", "preconditioner",
                                     Preconditioner.load, model=model)

    prompts = _select_prompts(cfg, artifacts, report_scorers)

    _INPUTS.update(
        model=model, bank=bank, preconditioner=preconditioner, config=episode_cfg,
        monitor=BiasMonitor(trigger, cues),
        master_seed=cfg["master_seed"])
    items = list(enumerate(prompts))
    try:
        if jobs > 1:
            results = _run_pool(items, jobs)
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
        })

    meta = {"label": label, "mode": cfg["mode"], "config_digest": digest,
            "master_seed": cfg["master_seed"], "tool_version": __version__}
    save_episodes(out_dir / RUN_OUTPUTS["records"], records, meta=meta)
    write_json(out_dir / RUN_OUTPUTS["metrics"], {"kind": "episode-metrics",
                                                  "rows": episode_rows, **meta})
    # written with no data rows too, so no earlier run's table is left behind
    summary = {label: aggregate_run(episode_rows)} if records else {}
    write_text(out_dir / RUN_OUTPUTS["summary"],
               f"# config {digest}\n" + summary_table(summary))

    manifest = {
        "kind": MANIFEST_KIND,
        "format_version": MANIFEST_VERSION,
        **meta,
        "artifacts": artifacts,
        "blas": {"library": _blas.STATUS.library, "threads": _blas.STATUS.threads},
        "n_prompts": len(prompts),
        "n_episodes": len(records),
        "failures": failures,
        "outputs": RUN_OUTPUTS,
    }
    write_json(out_dir / MANIFEST_FILE, manifest)

    frac = len(failures) / len(prompts)
    print(f"{label}: {len(records)} episodes, {len(failures)} failures -> {out_dir}")
    if frac > cfg["failure_fraction_max"]:
        print(f"failure fraction {frac:.3f} exceeds bound "
              f"{cfg['failure_fraction_max']:.3f}", file=sys.stderr)
        return EXIT_FAILURES
    return EXIT_OK


def cmd_run(args) -> int:
    return _run(load_config(args.config, RUN_SCHEMA, args.set or ()), args.jobs)


def read_run(run_dir) -> tuple[dict, list, list[dict]]:
    """(manifest, episode records, metric rows) of a run directory, found
    through the manifest's `outputs` names. An input that changed since the
    run exits 3 (a missing one warns); a file that cannot be read exits 2."""
    run_dir = Path(run_dir)

    def manifest(path):
        man = read_json(path)
        check_header(man, MANIFEST_KIND, MANIFEST_VERSION)
        for key in MANIFEST_KEYS:
            if not isinstance(_config_value(man, key), str):  # a KeyError names it
                raise ValueError(f"manifest key {key!r} is not a string")
        for name, entry in man["artifacts"].items():
            if entry is None:
                continue
            p = Path(entry["path"])
            if not p.exists():
                print(f"warning: {path}: artifact {name} at {p} is missing and "
                      f"could not be verified", file=sys.stderr)
            elif file_digest(p) != entry["digest"]:
                raise CliError(EXIT_DIGEST,
                               f"{path}: artifact {name} at {p} changed since the run")
        return man

    man = _load("run manifest", manifest, run_dir / MANIFEST_FILE)
    _, records = _load("episode-records", load_episodes, run_dir / man["outputs"]["records"])
    rows = _load("episode-metrics", lambda path: read_json(path)["rows"],
                 run_dir / man["outputs"]["metrics"])
    return man, records, rows


def _has_episodes(run_dir, man: dict, *outputs) -> bool:
    """False, after one warning on stderr, for a run whose outputs are empty:
    `report` and `ablate` leave it out of their tables."""
    if all(outputs):
        return True
    print(f"warning: {run_dir}: run {man['label']} has no episodes; left out",
          file=sys.stderr)
    return False


# -- ablate ------------------------------------------------------------------------


def _ablate_point(args, raw: str, total_tokens: int, out_root: Path):
    """(tag, value, run config into `out_root / tag`) for one raw ablate value.

    The value goes in as a --set override of the axis's config key, so it is
    typed and validated like any other config value."""
    key = ABLATE_AXES[args.axis]
    cfg = load_config(args.config, RUN_SCHEMA, [*(args.set or ()), f"{key}={raw}"])
    _episode_config(cfg)
    value = _config_value(cfg, key)
    if args.axis == "segments":
        # the total token budget stays fixed
        if total_tokens % value:
            raise CliError(EXIT_CONFIG,
                           f"segments={value} does not divide the total token "
                           f"budget {total_tokens}")
        cfg["episode"]["tokens_per_segment"] = total_tokens // value
        _episode_config(cfg)
    tag = f"{args.axis}={value}"
    cfg.update(output_dir=str(out_root / tag), label=tag)
    _output_dir(cfg, RUN_FILES)
    return tag, value, cfg


def cmd_ablate(args) -> int:
    raws = [p.strip() for p in args.values.split(",") if p.strip()]
    if not raws:
        raise CliError(EXIT_CONFIG, "--values must be a non-empty comma list")
    base_cfg = load_config(args.config, RUN_SCHEMA, args.set or ())
    out_root = _output_dir(base_cfg, (ABLATE_TABLE,))
    total_tokens = (base_cfg["episode"]["k_segments"]
                    * base_cfg["episode"]["tokens_per_segment"])
    # every value and every point's directory is checked before the first
    # run writes anything
    points = [_ablate_point(args, raw, total_tokens, out_root) for raw in raws]
    tags = [tag for tag, _, _ in points]
    if len(set(tags)) < len(tags):
        raise CliError(EXIT_CONFIG, f"--values repeats a value: {', '.join(tags)}")
    if args.axis == "epsilon":
        # frozen-trajectory scoring: one static pass, shared master seed, then
        # trigger rates recomputed per threshold from the fixed segment scores
        frozen = load_config(args.config, RUN_SCHEMA, [*(args.set or ()), "mode=static"])
        frozen.update(output_dir=str(out_root / "frozen-static"), label="frozen-static")
        _output_dir(frozen, RUN_FILES)

    rows = {}
    for tag, _, cfg in points:
        code = _run(cfg, args.jobs)
        if code != EXIT_OK:
            return code
        man, _, point_rows = read_run(cfg["output_dir"])
        if _has_episodes(cfg["output_dir"], man, point_rows):
            rows[tag] = aggregate_run(point_rows)

    table = summary_table(rows)
    lines = [f"# ablate axis={args.axis} values={args.values}"]

    if args.axis == "epsilon":
        code = _run(frozen, args.jobs)
        if code != EXIT_OK:
            return code
        man, recs, _ = read_run(frozen["output_dir"])
        scores = [s.trigger_score for rec in recs for s in rec.segments
                  if s.trigger_score is not None]
        if _has_episodes(frozen["output_dir"], man, scores):
            eps_sorted = sorted(value for _, value, _ in points)
            curve = trigger_curve(scores, eps_sorted)
            lines.append("# frozen_trigger_rate: " + " ".join(
                f"{e:g}:{c / len(scores):.6f}" for e, c in zip(eps_sorted, curve)))

    write_text(out_root / ABLATE_TABLE, "\n".join(lines) + "\n" + table)
    print(f"ablate table -> {out_root / ABLATE_TABLE}")
    return EXIT_OK


# -- ood ---------------------------------------------------------------------------


def _embedding_set(cfg: dict, section: str, model):
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
    return oodmod.embed_corpus(model, texts, label=section, source=file_digest(path)), texts


def cmd_ood(args) -> int:
    cfg = load_config(args.config, OOD_SCHEMA, args.set or ())
    known = ("knn", "mahalanobis", "llr")
    bad = [d for d in cfg["detectors"] if d not in known]
    if bad:
        raise CliError(EXIT_CONFIG, f"unknown detectors {bad}; choose from {known}")
    if not cfg["detectors"] or len(set(cfg["detectors"])) < len(cfg["detectors"]):
        raise CliError(EXIT_CONFIG, "config key 'detectors' must name each detector "
                                    f"once, got {cfg['detectors']}")
    out_dir = _output_dir(cfg, OOD_FILES.values())
    if "llr" in cfg["detectors"]:
        if cfg["model"] is None or cfg["background_model"] is None:
            raise CliError(EXIT_CONFIG, "detector llr needs model and background_model")
        if cfg["id"]["texts"] is None or cfg["ood"]["texts"] is None:
            raise CliError(EXIT_CONFIG, "detector llr needs id/ood text files")
        bg = _load("model", ToyLM.load, _resolve(cfg, "background_model"))
    model = _load("model", ToyLM.load, _resolve(cfg, "model")) if cfg["model"] else None

    sets, texts = {}, {}
    for name in ("reference", "id", "ood"):
        sets[name], texts[name] = _embedding_set(cfg, name, model)
    widths = {name: es.dim for name, es in sets.items()}
    if len(set(widths.values())) > 1:
        raise CliError(EXIT_CONFIG, "ood config sections differ in embedding width: "
                                    + ", ".join(f"{n!r} {w}" for n, w in widths.items()))
    reference = sets["reference"].vectors
    if "knn" in cfg["detectors"] and cfg["k"] > len(reference):
        raise CliError(EXIT_CONFIG, f"k={cfg['k']} out of range for a reference set "
                                    f"of {len(reference)} vectors")

    # every detector is scored before the first file is written
    results = []
    for det in cfg["detectors"]:
        if det == "knn":
            s_ood = oodmod.knn_scores(sets["ood"].vectors, reference, k=cfg["k"])
            s_id = oodmod.knn_scores(sets["id"].vectors, reference, k=cfg["k"])
        elif det == "mahalanobis":
            mu, sigma = oodmod.fit_gaussian(reference)
            try:
                s_ood = oodmod.mahalanobis_scores(sets["ood"].vectors, mu, sigma)
                s_id = oodmod.mahalanobis_scores(sets["id"].vectors, mu, sigma)
            except np.linalg.LinAlgError as exc:
                raise CliError(EXIT_CONFIG, f"ood config section 'reference': {exc}")
        else:
            s_ood = oodmod.llr_scores(texts["ood"], model, bg)
            s_id = oodmod.llr_scores(texts["id"], model, bg)
        results.append(oodmod.evaluate(s_ood, s_id, bootstrap_n=cfg["bootstrap"],
                                       seed=cfg["seed"], detector=det))

    out_dir.mkdir(parents=True, exist_ok=True)
    for name, es in sets.items():
        es.save(out_dir / OOD_FILES[name])
    header = ("detector", "auroc", "ci_low", "ci_high", "aupr", "far_ood",
              "n_ood", "n_id")
    lines = ["\t".join(header)]
    for r in results:
        lines.append("\t".join([
            r.detector, f"{r.auroc:.6f}", f"{r.ci_low:.6f}", f"{r.ci_high:.6f}",
            f"{r.aupr:.6f}", str(int(r.far_ood)), str(r.n_ood), str(r.n_id)]))
    write_text(out_dir / OOD_FILES["table"], "\n".join(lines) + "\n")
    write_json(out_dir / OOD_FILES["results"], {"kind": "ood-results",
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
    out_dir = _output_location(Path(args.out) if args.out else root / "report", "--out",
                               files=REPORT_TABLES.values())

    run_dirs = [root] if (root / MANIFEST_FILE).exists() else []
    run_dirs += [mp.parent for mp in sorted(root.glob(f"*/{MANIFEST_FILE}"))]
    runs = []
    for run_dir in run_dirs:
        man, records, rows = read_run(run_dir)
        if _has_episodes(run_dir, man, records, rows):
            runs.append({"label": man["label"], "manifest": man,
                         "records": records, "rows": rows})

    if not runs:
        print(f"warning: no run manifests with episodes under {root}; writing empty tables",
              file=sys.stderr)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_text(out_dir / REPORT_TABLES["summary"], "# no runs\n")
        return EXIT_OK

    labels = [r["label"] for r in runs]
    if len(set(labels)) != len(labels):
        raise CliError(EXIT_CONFIG, f"duplicate run labels in {root}: {labels}")

    # runs are only comparable against the same frozen artifacts
    keys = {tuple(r["manifest"]["artifacts"][a]["digest"] for a in ("model", "bank"))
            for r in runs}
    if len(keys) > 1 and not args.force:
        raise CliError(EXIT_DIGEST,
                       "records dir mixes runs over different model/bank artifacts; "
                       "rerun with --force to compare anyway")

    out_dir.mkdir(parents=True, exist_ok=True)
    digests = {r["label"]: r["manifest"]["config_digest"] for r in runs}
    stamp = "# runs " + " ".join(f"{k}={v[:12]}" for k, v in sorted(digests.items()))

    summary = {r["label"]: aggregate_run(r["rows"]) for r in runs}
    write_text(out_dir / REPORT_TABLES["summary"], stamp + "\n" + summary_table(summary))

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
    write_text(out_dir / REPORT_TABLES["trajectories"], "\n".join(traj_lines) + "\n")

    bias_lines = [stamp, "run\tbias_mean\tcum_frac"]
    for r in runs:
        bias_lines += _ecdf_lines(r["label"], [row["bias_mean"] for row in r["rows"]])
    write_text(out_dir / REPORT_TABLES["ecdf_bias"], "\n".join(bias_lines) + "\n")

    # the two timed tables, read from each record's `timing`
    time_lines = [stamp, "run\tupdate_time_total\tcum_frac"]
    latency_lines = [stamp, "run\tn\tupdate_time_mean\ttest_time_mean"]
    for r in runs:
        upd = [rec.timing["update_time_total"] for rec in r["records"]]
        test = [rec.timing["test_time_total"] for rec in r["records"]]
        time_lines += _ecdf_lines(r["label"], upd)
        latency_lines.append(
            f"{r['label']}\t{len(upd)}\t{np.mean(upd):.6f}\t{np.mean(test):.6f}")
    write_text(out_dir / REPORT_TABLES["ecdf_update_time"], "\n".join(time_lines) + "\n")
    write_text(out_dir / REPORT_TABLES["latency"], "\n".join(latency_lines) + "\n")

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
    write_text(out_dir / REPORT_TABLES["did"], "\n".join(did_lines) + "\n")

    print(f"report -> {out_dir}")
    return EXIT_OK


# -- entry point -------------------------------------------------------------------


def _worker_count(text: str) -> int:
    """A --jobs value: an integer >= 1; argparse exits 2 on anything else."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


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
    p.add_argument("--jobs", type=_worker_count, default=1,
                   help="parallel worker count")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("ablate", help="sweep one config axis")
    add_config_args(p)
    p.add_argument("--axis", required=True, choices=ABLATE_AXES)
    p.add_argument("--values", required=True,
                   help="comma-separated axis values")
    p.add_argument("--jobs", type=_worker_count, default=1)
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
