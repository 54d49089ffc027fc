"""The four benchmark workloads and the CLI configs they run.

Every workload runs the bundled scenario written by
``toydata.write_scenario(seed)``; the workload seed is also the run's
``master_seed``. Episode and update keys are all set explicitly, from
``toydata.default_config()`` (the scenario defaults) unless a workload
overrides them, so a changed library default shows up as a changed
workload rather than silently.

This module imports nothing from ttalab at import time: the benchmark
runner reads the workload table before it has checked that the checkout
holds the library at all.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    command: str               # "run" or "precompute"
    jobs: int = 1
    mode: str = "precond"
    tokens_per_segment: int | None = None   # None: the scenario default


# Why each workload exists is recorded in BENCHMARK.json. adapt is the
# paper's loop (update rounds dominate); adapt-jobs2 has the same inputs on
# the worker pool; static-long never updates, so it bypasses the update
# path; fisher is the only caller of the Fisher estimator.
WORKLOADS = {w.name: w for w in (
    Workload("adapt", "run"),
    Workload("adapt-jobs2", "run", jobs=2),
    Workload("static-long", "run", mode="static", tokens_per_segment=128),
    Workload("fisher", "precompute"),
)}

# The fisher workload's precompute: long continuations and enough steps
# that the estimator, not process start-up, dominates the command.
FISHER_STEPS = 400
FISHER_BATCH = 2
FISHER_CONTINUATION_TOKENS = 64

SCENARIO_DIR = "scenario"
SETUP_PRECOMPUTE = "precompute.json"
SETUP_PRECOND = "precond.json"
MEASURED_CONFIG = "measured.json"
RUN_OUTPUT = "out"
FISHER_OUTPUT = "fisher_precond.json"


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _precompute_config(output: str, n_steps: int, batch_size: int,
                       continuation_tokens: int) -> dict:
    from ttalab import toydata

    fisher = toydata.SCENARIO_DEFAULTS["fisher"]
    return {
        "model": f"{SCENARIO_DIR}/model.json",
        "corpus": f"{SCENARIO_DIR}/{fisher['corpus']}",
        "output": output,
        "n_steps": n_steps,
        "batch_size": batch_size,
        "continuation_tokens": continuation_tokens,
        "seed": fisher["seed"],
        "damping": fisher["damping"],
        "empirical": False,
    }


def _run_config(workload: Workload, seed: int, scenario_manifest: dict) -> dict:
    from ttalab import cli, toydata

    base = toydata.default_config()
    if workload.tokens_per_segment is not None:
        base.tokens_per_segment = workload.tokens_per_segment
    schema = cli.RUN_SCHEMA
    episode = {k: v for k, v in asdict(base).items() if k in schema["episode"]}
    update = {k: v for k, v in asdict(base.update).items() if k in schema["update"]}
    update["learning_rate"] = base.update.lr
    lexicons = scenario_manifest["lexicons"]
    return {
        "model": f"{SCENARIO_DIR}/model.json",
        "bank": f"{SCENARIO_DIR}/bank.jsonl",
        "evaluator": f"{SCENARIO_DIR}/evaluator.json",
        "preconditioner": SETUP_PRECOND,
        "mode": workload.mode,
        "label": workload.mode,
        "master_seed": seed,
        "output_dir": RUN_OUTPUT,
        "lexicons": {
            "trigger": [f"{SCENARIO_DIR}/{n}" for n in lexicons["trigger"]],
            "report": [f"{SCENARIO_DIR}/{n}" for n in lexicons["report"]],
            "cue": {n.removesuffix(".tsv").removeprefix("cue_"): f"{SCENARIO_DIR}/{n}"
                    for n in lexicons["cue"]},
        },
        "prompts": {"path": f"{SCENARIO_DIR}/prompts.txt", "min_bias": 0.4,
                    "sample": None, "seed": 0},
        "episode": episode,
        "update": update,
    }


def write_configs(workload: Workload, directory: Path, seed: int,
                  scenario_manifest: dict) -> None:
    """Configs for one workload next to its scenario directory.

    Run workloads get the setup precompute config (scenario Fisher
    defaults) and the measured run config; the fisher workload gets the
    measured precompute config only."""
    from ttalab import toydata

    fisher = toydata.SCENARIO_DEFAULTS["fisher"]
    if workload.command == "run":
        _write(directory / SETUP_PRECOMPUTE, _precompute_config(
            SETUP_PRECOND, fisher["n_steps"], fisher["batch_size"],
            fisher["continuation_tokens"]))
        _write(directory / MEASURED_CONFIG,
               _run_config(workload, seed, scenario_manifest))
    else:
        _write(directory / MEASURED_CONFIG, _precompute_config(
            FISHER_OUTPUT, FISHER_STEPS, FISHER_BATCH, FISHER_CONTINUATION_TOKENS))


def measured_argv(workload: Workload, directory: Path) -> list[str]:
    """Arguments for ``ttalab.cli.main`` in the measured command."""
    argv = [workload.command, "--config", str(directory / MEASURED_CONFIG)]
    if workload.command == "run":
        argv += ["--jobs", str(workload.jobs)]
    return argv
