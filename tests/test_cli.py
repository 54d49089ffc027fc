"""End-to-end checks for the command-line front end.

Everything here drives cli.main() in process against a small generated
scenario directory, so the tests double as a contract for the exit codes
(0 ok, 2 config, 3 digest, 4 failures) and the on-disk artifact layout.
"""

import inspect
import json
import os
import shutil
import signal
import subprocess
import sys
import textwrap
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from ttalab import _blas, cli, toydata
from ttalab.artifacts import decode_array, encode_array
from ttalab.genmodel import ToyLM
from ttalab.optim import UpdateRuleConfig
from ttalab.precond import Preconditioner, build_preconditioner, estimate_diag_fisher
from ttalab.safebank import SafeBank
from ttalab.tta import EpisodeConfig, load_episodes

from helpers import blas_threads


def _write_json(path, doc):
    Path(path).write_text(json.dumps(doc, indent=1))


def _read_records(path):
    lines = Path(path).read_text().splitlines()
    header = json.loads(lines[0])
    return header, [json.loads(ln) for ln in lines[1:]]


def _strip_timing(records):
    out = []
    for rec in records:
        rec = dict(rec)
        rec.pop("timing", None)
        out.append(rec)
    return out


SCENARIO_FILES = {
    "model": "scenario/model.json",
    "bank": "scenario/bank.jsonl",
    "evaluator": "scenario/evaluator.json",
    "lexicons": {
        "trigger": [f"scenario/trigger_{i}.tsv" for i in range(3)],
        "report": [f"scenario/report_{i}.tsv" for i in range(3)],
        "cue": {t: f"scenario/cue_{t}.tsv" for t in ("race", "sex", "religion")},
    },
}


def _run_config(output_dir, **extra):
    cfg = {
        "model": SCENARIO_FILES["model"],
        "bank": SCENARIO_FILES["bank"],
        "evaluator": SCENARIO_FILES["evaluator"],
        "preconditioner": "precond.json",
        "mode": "precond",
        "master_seed": 0,
        "output_dir": output_dir,
        "lexicons": SCENARIO_FILES["lexicons"],
        "prompts": {"path": "scenario/prompts.txt", "min_bias": 0.4,
                    "sample": 8, "seed": 0},
        "episode": {"k_segments": 3, "tokens_per_segment": 12,
                    "epsilon": 0.3, "safe_batch": 4},
        "update": {"steps": 8},
    }
    cfg.update(extra)
    return cfg


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    toydata.write_scenario(root / "scenario", seed=0, n_prompts=24, per_type=12)
    _write_json(root / "precompute.json", {
        "model": "scenario/model.json",
        "corpus": "scenario/fisher_corpus.txt",
        "output": "precond.json",
        "n_steps": 4,
        "batch_size": 2,
        "continuation_tokens": 16,
        "seed": 0,
    })
    assert cli.main(["precompute", "--config", str(root / "precompute.json")]) == 0
    _write_json(root / "run.json", _run_config("runs/precond"))
    return root


@pytest.fixture(scope="module")
def runs(ws):
    """One run per mode, shared artifacts and master seed."""
    paths = {}
    for mode in ("precond", "static", "sgd"):
        out = ws / "runs" / mode
        code = cli.main(["run", "--config", str(ws / "run.json"),
                         "--set", f"mode={mode}",
                         "--set", f"output_dir=runs/{mode}"])
        assert code == 0
        paths[mode] = out
    return paths


# -- precompute ---------------------------------------------------------------


def test_precompute_writes_artifact(ws):
    pre = ws / "precond.json"
    assert pre.exists()
    doc = json.loads(pre.read_text())
    assert doc["damping"] == pytest.approx(1e-4)
    assert doc["n_steps"] == 4


def test_precompute_verify_round_trip(ws):
    code = cli.main(["precompute", "--config", str(ws / "precompute.json"),
                     "--verify"])
    assert code == 0


def test_precompute_verify_catches_tampering(ws):
    tampered = ws / "tampered.json"
    tampered.write_text((ws / "precond.json").read_text() + "\n")
    code = cli.main(["precompute", "--config", str(ws / "precompute.json"),
                     "--set", "output=tampered.json", "--verify"])
    assert code == 3


def test_precompute_rerun_is_byte_identical(ws, tmp_path):
    code = cli.main(["precompute", "--config", str(ws / "precompute.json"),
                     "--set", f"output={tmp_path / 'again.json'}"])
    assert code == 0
    assert (tmp_path / "again.json").read_bytes() == (ws / "precond.json").read_bytes()


@pytest.mark.parametrize("damping", ["0", "-1e-4", "NaN"])
def test_precompute_bad_damping_is_config_error(ws, tmp_path, capsys, damping):
    out = tmp_path / "pre.json"
    assert cli.main(["precompute", "--config", str(ws / "precompute.json"),
                     "--set", f"output={out}", "--set", f"damping={damping}"]) == 2
    assert "damping must be a finite number > 0" in capsys.readouterr().err
    assert not out.exists()


# -- run ----------------------------------------------------------------------


def test_run_output_layout(ws, runs):
    out = runs["precond"]
    for name in ("records.jsonl", "metrics.json", "summary.tsv", "manifest.json"):
        assert (out / name).exists()
    man = json.loads((out / "manifest.json").read_text())
    assert man["kind"] == "run-manifest"
    assert man["n_episodes"] == 8
    assert man["failures"] == []
    assert man["artifacts"]["model"]["digest"] == cli.file_digest(
        ws / "scenario" / "model.json")
    summary = (out / "summary.tsv").read_text().splitlines()
    assert summary[0] == f"# config {man['config_digest']}"

    doc = json.loads((out / "metrics.json").read_text())
    assert doc["kind"] == "episode-metrics"
    assert len(doc["rows"]) == 8
    for row in doc["rows"]:
        assert np.isfinite(row["ppl"]) and row["ppl"] > 1.0
        assert 0.0 <= row["trigger_rate"] <= 1.0


def test_run_deterministic_modulo_timing(ws, runs, tmp_path):
    code = cli.main(["run", "--config", str(ws / "run.json"),
                     "--set", f"output_dir={tmp_path / 'again'}"])
    assert code == 0
    h1, r1 = _read_records(runs["precond"] / "records.jsonl")
    h2, r2 = _read_records(tmp_path / "again" / "records.jsonl")
    # output_dir participates in the config digest; everything else must agree
    h1.pop("config_digest"), h2.pop("config_digest")
    assert h1 == h2
    assert _strip_timing(r1) == _strip_timing(r2)


def test_run_jobs_parity(ws, runs, tmp_path):
    code = cli.main(["run", "--config", str(ws / "run.json"),
                     "--set", f"output_dir={tmp_path / 'par'}", "--jobs", "2"])
    assert code == 0
    _, serial = _read_records(runs["precond"] / "records.jsonl")
    _, parallel = _read_records(tmp_path / "par" / "records.jsonl")
    assert _strip_timing(serial) == _strip_timing(parallel)


DYING_WORKER = textwrap.dedent("""
    import os, sys
    from ttalab import cli

    run_episode = cli.run_episode

    def dying_run_episode(*args, prompt_id, **kwargs):
        if prompt_id == "prompt-0001":
            os._exit(17)  # the worker dies mid-episode, without an exception
        return run_episode(*args, prompt_id=prompt_id, **kwargs)

    cli.run_episode = dying_run_episode
    sys.exit(cli.main(sys.argv[1:]))
""")


def test_dead_worker_is_an_episode_failure_not_a_hang(ws, tmp_path):
    out = tmp_path / "dead"
    # a new session, so a hung run's workers can be killed with it
    proc = subprocess.Popen(
        [sys.executable, "-c", DYING_WORKER, "run", "--config", str(ws / "run.json"),
         "--set", f"output_dir={out}", "--jobs", "2"],
        env=_fresh_interpreter_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=90)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("ttalab run --jobs 2 hung after a worker died")
    assert proc.returncode == 4, err
    man = json.loads((out / "manifest.json").read_text())
    failed = {f["prompt_id"]: f["error"] for f in man["failures"]}
    assert failed["prompt-0001"].startswith("BrokenProcessPool")
    _, records = _read_records(out / "records.jsonl")
    done = {r["prompt_id"] for r in records}
    assert not done & set(failed)
    assert len(done) + len(failed) == man["n_prompts"] == 8


def _echo_episode(item):
    return item[0], item[1], None


def test_pool_broken_while_queueing_fails_the_rest(monkeypatch):
    submit = ProcessPoolExecutor.submit
    queued = []

    def submit_twice(pool, fn, *args):
        # as if a worker died while the third episode was being queued
        if len(queued) == 2:
            raise BrokenProcessPool("a child process terminated abruptly")
        queued.append(args)
        return submit(pool, fn, *args)

    monkeypatch.setattr(cli, "_run_one", _echo_episode)
    monkeypatch.setattr(ProcessPoolExecutor, "submit", submit_twice)
    results = cli._run_pool(list(enumerate("abcd")), 2)
    assert [r[:2] for r in results] == [(0, "a"), (1, "b"), (2, None), (3, None)]
    assert all(err.startswith("BrokenProcessPool") for _, _, err in results[2:])


def test_run_loads_each_input_once(ws, tmp_path, monkeypatch):
    calls = {}
    for cls in (ToyLM, SafeBank, Preconditioner):
        def counted(*args, _load=cls.load, _name=cls.__name__, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _load(*args, **kwargs)
        monkeypatch.setattr(cls, "load", staticmethod(counted))
    code = cli.main(["run", "--config", str(ws / "run.json"),
                     "--set", f"output_dir={tmp_path / 'once'}"])
    assert code == 0
    # ToyLM: the adapted model and the evaluator
    assert calls == {"ToyLM": 2, "SafeBank": 1, "Preconditioner": 1}


def test_manifest_digests_inputs_as_loaded(ws, tmp_path, monkeypatch):
    shutil.copytree(ws / "scenario", tmp_path / "scenario")
    shutil.copy(ws / "precond.json", tmp_path / "precond.json")
    _write_json(tmp_path / "run.json", _run_config("out"))
    bank = tmp_path / "scenario" / "bank.jsonl"
    loaded = cli.file_digest(bank)
    real = cli.run_episode

    def rewrite_bank_once(*args, **kwargs):
        if cli.file_digest(bank) == loaded:
            bank.write_text(bank.read_text() + "\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_episode", rewrite_bank_once)
    assert cli.main(["run", "--config", str(tmp_path / "run.json")]) == 0
    assert cli.file_digest(bank) != loaded
    man = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert man["artifacts"]["bank"]["digest"] == loaded


def test_modes_share_segment_zero(runs):
    texts = {}
    for mode, out in runs.items():
        _, recs = _read_records(out / "records.jsonl")
        texts[mode] = {r["prompt_id"]: [s["text"] for s in r["segments"]]
                       for r in recs}
    assert texts["precond"].keys() == texts["static"].keys() == texts["sgd"].keys()
    for pid in texts["precond"]:
        first = {m: texts[m][pid][0] for m in texts}
        assert len(set(first.values())) == 1, f"segment 0 differs for {pid}"
    # the update rules act after the first trigger, so the tails diverge
    assert any(texts["sgd"][pid][1:] != texts["precond"][pid][1:]
               for pid in texts["precond"])


def test_static_mode_never_triggers(runs):
    _, recs = _read_records(runs["static"] / "records.jsonl")
    for rec in recs:
        assert rec["trigger_rate"] == 0.0
        assert all(not s["triggered"] for s in rec["segments"])
        # scores are still recorded so static runs stay comparable
        assert all(s["trigger_score"] is not None for s in rec["segments"])


def test_run_label_override(ws, tmp_path):
    code = cli.main(["run", "--config", str(ws / "run.json"),
                     "--set", f"output_dir={tmp_path / 'lab'}",
                     "--set", "label=custom"])
    assert code == 0
    man = json.loads((tmp_path / "lab" / "manifest.json").read_text())
    assert man["label"] == "custom"
    assert "custom" in (tmp_path / "lab" / "summary.tsv").read_text()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_prints_one_progress_line_per_episode(ws, tmp_path, capsys, jobs):
    out = tmp_path / "progress"
    code = cli.main(["run", "--config", str(ws / "run.json"),
                     "--set", f"output_dir={out}", "--jobs", jobs])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"[{i + 1}/8] prompt-{i:04d}" for i in range(8)]
    assert captured.out == f"precond: 8 episodes, 0 failures -> {out}\n"


def test_set_overrides_change_digest(ws, runs, tmp_path):
    code = cli.main(["run", "--config", str(ws / "run.json"),
                     "--set", f"output_dir={tmp_path / 'eps'}",
                     "--set", "episode.epsilon=0.5"])
    assert code == 0
    man = json.loads((tmp_path / "eps" / "manifest.json").read_text())
    base = json.loads((runs["precond"] / "manifest.json").read_text())
    assert man["config_digest"] != base["config_digest"]


# -- one BLAS thread -----------------------------------------------------------


def test_import_pins_blas_to_one_thread():
    assert _blas.STATUS.threads == 1 and _blas.STATUS.library
    assert blas_threads() == 1


PROBED_WORKER = textwrap.dedent("""
    import os, sys
    from ttalab import cli
    from helpers import blas_threads

    run_one = cli._run_one

    def probed_run_one(item):
        # one write call, so two workers' lines cannot interleave
        os.write(1, f"worker {os.getpid()} threads {blas_threads()}\\n".encode())
        return run_one(item)

    cli._run_one = probed_run_one
    print(f"parent {os.getpid()}", flush=True)
    sys.exit(cli.main(sys.argv[1:]))
""")


def test_forked_workers_run_on_one_blas_thread(ws, tmp_path):
    env = _fresh_interpreter_env(OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] += os.pathsep + str(Path(__file__).parent)
    out = subprocess.run(
        [sys.executable, "-c", PROBED_WORKER, "run", "--config", str(ws / "run.json"),
         "--set", f"output_dir={tmp_path / 'jobs2'}", "--jobs", "2"],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = [ln.split() for ln in out.stdout.splitlines()]
    parent = next(int(w[1]) for w in lines if w[0] == "parent")
    workers = [(int(w[1]), int(w[3])) for w in lines if w[0] == "worker"]
    assert len(workers) == 8
    assert all(pid != parent and threads == 1 for pid, threads in workers)


def _untimed_outputs(out_dir):
    _, records = _read_records(out_dir / "records.jsonl")
    doc = json.loads((out_dir / "metrics.json").read_text())
    for row in doc["rows"]:
        row.pop("timing")
    return _strip_timing(records), doc


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2 if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() < 2,
                    reason="OpenBLAS caps its thread count at the core count, so one "
                           "core cannot show a thread-count dependence")
def test_run_outputs_do_not_depend_on_blas_threads(ws, tmp_path):
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "ttalab.cli", "run", "--config", str(ws / "run.json"),
             "--set", f"output_dir={tmp_path / 'same'}", "--jobs", "1"],
            env=_fresh_interpreter_env(OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        (tmp_path / "same").rename(out)
        outputs.append(_untimed_outputs(out))
    assert outputs[0] == outputs[1]


NO_THREAD_SETTER = textwrap.dedent("""
    import ctypes, sys

    lookup = ctypes.CDLL.__getattr__

    def no_thread_symbols(lib, name):
        if "num_threads" in name:
            raise AttributeError(name)
        return lookup(lib, name)

    ctypes.CDLL.__getattr__ = no_thread_symbols
    from ttalab import cli
    sys.exit(cli.main(sys.argv[1:]))
""")


def test_missing_blas_setter_warns_and_records_null(ws, tmp_path):
    out = tmp_path / "unpinned"
    proc = subprocess.run(
        [sys.executable, "-c", NO_THREAD_SETTER, "run", "--config", str(ws / "run.json"),
         "--set", f"output_dir={out}"],
        env=_fresh_interpreter_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    warnings = [ln for ln in proc.stderr.splitlines() if ln.startswith("warning:")]
    assert len(warnings) == 1 and "BLAS" in warnings[0]
    blas = json.loads((out / "manifest.json").read_text())["blas"]
    assert blas["library"] == _blas.STATUS.library and blas["threads"] is None


def test_precompute_prints_blas_status(ws, tmp_path, capsys):
    assert cli.main(["precompute", "--config", str(ws / "precompute.json"),
                     "--set", f"output={tmp_path / 'pre.json'}"]) == 0
    assert f"blas={_blas.STATUS.library} threads=1" in capsys.readouterr().out.splitlines()


def test_precompute_prints_fisher_structure(ws, tmp_path, capsys):
    out = tmp_path / "pre.json"
    assert cli.main(["precompute", "--config", str(ws / "precompute.json"),
                     "--set", f"output={out}"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert out.read_bytes() == (ws / "precond.json").read_bytes()  # print only
    fisher = ToyLM.load(ws / "scenario" / "model.json").adapter.split_flat(
        Preconditioner.load(out).fisher_diag)
    for name, block in zip("AB", fisher):
        want = (f"fisher {name}: entries={block.size} zeros={int((block == 0.0).sum())} "
                f"below_damping={(block < 1e-4).mean():.4f}")
        assert want in lines
    # the scenario starts at B = 0, so every A entry of the estimate is exactly 0
    assert f"fisher A: entries={fisher[0].size} zeros={fisher[0].size} " \
        "below_damping=1.0000" in lines


# -- exit code 2: configuration errors -----------------------------------------


@pytest.mark.parametrize("key", ["modell", "episode.max_len_update",
                                 "update.precond_max", "episode.marker",
                                 "episode.separator"])
def test_unknown_config_key(ws, tmp_path, capsys, key):
    bad = _run_config(str(tmp_path / "o"))
    overrides = []
    if key == "modell":
        bad["modell"] = bad.pop("model")
    else:
        # a value of the type the key had, so that only its absence can fail
        value = '"Go on"' if key in ("episode.marker", "episode.separator") else "4"
        overrides = ["--set", f"{key}={value}"]
    _write_json(ws / "bad_key.json", bad)
    assert cli.main(["run", "--config", str(ws / "bad_key.json"), *overrides]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_cli_defaults_are_library_defaults(tmp_path):
    doc = _run_config(str(tmp_path / "o"))
    del doc["episode"], doc["update"]
    _write_json(tmp_path / "defaults.json", doc)
    cfg = cli.load_config(tmp_path / "defaults.json", cli.RUN_SCHEMA)
    assert cli._episode_config(cfg) == EpisodeConfig(
        update=UpdateRuleConfig(kind="precond"))


def test_precompute_defaults_are_library_defaults():
    library = {**inspect.signature(estimate_diag_fisher).parameters,
               **inspect.signature(build_preconditioner).parameters}
    defaults = {key: default for key, (_, default) in cli.PRECOMPUTE_SCHEMA.items()
                if default is not cli.REQUIRED}
    assert defaults == {key: library[key].default for key in defaults}


def test_missing_required_key(ws, tmp_path):
    bad = _run_config(str(tmp_path / "o"))
    del bad["bank"]
    _write_json(ws / "bad_missing.json", bad)
    assert cli.main(["run", "--config", str(ws / "bad_missing.json")]) == 2


@pytest.mark.parametrize("setting, key", [
    pytest.param("lexicons.trigger=[]", "lexicons.trigger", id="trigger"),
    pytest.param("lexicons.report=[]", "lexicons.report", id="report"),
    # a cue for a type the monitor does not gate would be ignored
    pytest.param("lexicons.cue.gender=scenario/cue_sex.tsv", "lexicons.cue.gender",
                 id="cue-gender"),
    pytest.param("lexicons.cue.other=scenario/cue_race.tsv", "lexicons.cue.other",
                 id="cue-other"),
    pytest.param("lexicons.trigger=[1]", "lexicons.trigger", id="trigger-not-a-path"),
    pytest.param("lexicons.cue.race=[]", "lexicons.cue.race", id="cue-not-a-path"),
])
def test_empty_committee_is_config_error(ws, tmp_path, capsys, setting, key):
    assert cli.main(["run", "--config", str(ws / "run.json"),
                     "--set", f"output_dir={tmp_path / 'o'}",
                     "--set", setting]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_artifact_file(ws, tmp_path):
    assert cli.main(["run", "--config", str(ws / "run.json"),
                     "--set", f"output_dir={tmp_path / 'o'}",
                     "--set", "model=scenario/nope.json"]) == 2


def test_bad_mode_value(ws, tmp_path):
    assert cli.main(["run", "--config", str(ws / "run.json"),
                     "--set", f"output_dir={tmp_path / 'o'}",
                     "--set", "mode=frobnicate"]) == 2


def test_bad_set_expression(ws):
    assert cli.main(["run", "--config", str(ws / "run.json"),
                     "--set", "no-equals-sign"]) == 2


def test_set_through_scalar_rejected(ws):
    assert cli.main(["run", "--config", str(ws / "run.json"),
                     "--set", "model.sub=1"]) == 2


def test_invalid_episode_config(ws, tmp_path):
    assert cli.main(["run", "--config", str(ws / "run.json"),
                     "--set", f"output_dir={tmp_path / 'o'}",
                     "--set", "episode.k_segments=0"]) == 2


def test_sample_larger_than_prompt_pool(ws, tmp_path):
    assert cli.main(["run", "--config", str(ws / "run.json"),
                     "--set", f"output_dir={tmp_path / 'o'}",
                     "--set", "prompts.sample=999"]) == 2


def test_config_file_not_found(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 2


def _fresh_interpreter_env(**overrides):
    """Environment for a child interpreter that imports this checkout's ttalab."""
    env = dict(os.environ, **overrides)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point(tmp_path):
    env = _fresh_interpreter_env()

    def module(*args):
        return subprocess.run([sys.executable, "-m", "ttalab.cli", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    helped = module("--help")
    assert helped.returncode == 0 and "usage" in helped.stdout
    assert module("run", "--config", str(tmp_path / "missing.json")).returncode == 2


def test_cli_import_leaves_scipy_unloaded():
    probe = ("import sys\n"
             "import ttalab.cli, ttalab.metrics, ttalab.ood\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=_fresh_interpreter_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_precond_mode_needs_preconditioner(ws, tmp_path):
    assert cli.main(["run", "--config", str(ws / "run.json"),
                     "--set", f"output_dir={tmp_path / 'o'}",
                     "--set", "preconditioner=null"]) == 2


def test_bool_rejected_for_numeric_key(ws, tmp_path):
    assert cli.main(["run", "--config", str(ws / "run.json"),
                     "--set", f"output_dir={tmp_path / 'o'}",
                     "--set", "episode.epsilon=true"]) == 2


def test_null_rejected_where_default_is_not_null(ws, tmp_path):
    assert cli.main(["run", "--config", str(ws / "run.json"),
                     "--set", f"output_dir={tmp_path / 'o'}",
                     "--set", "episode.epsilon=null"]) == 2


# -- exit code 3: digest errors -------------------------------------------------


def test_stale_preconditioner_rejected(ws, tmp_path):
    code = cli.main(["precompute", "--config", str(ws / "precompute.json"),
                     "--set", "model=scenario/evaluator.json",
                     "--set", "output=stale.json"])
    assert code == 0
    code = cli.main(["run", "--config", str(ws / "run.json"),
                     "--set", f"output_dir={tmp_path / 'o'}",
                     "--set", "preconditioner=stale.json"])
    assert code == 3


def test_report_detects_changed_artifact(ws, runs, tmp_path):
    root = tmp_path / "changed"
    shutil.copytree(runs["precond"], root / "a")
    man_path = root / "a" / "manifest.json"
    man = json.loads(man_path.read_text())
    man["artifacts"]["model"]["digest"] = "0" * 64
    _write_json(man_path, man)
    assert cli.main(["report", str(root)]) == 3


def test_report_refuses_mixed_artifacts(ws, runs, tmp_path):
    root = tmp_path / "mixed"
    shutil.copytree(runs["precond"], root / "a")
    shutil.copytree(runs["static"], root / "b")
    man_path = root / "b" / "manifest.json"
    man = json.loads(man_path.read_text())
    man["artifacts"]["model"] = {"path": str(tmp_path / "gone.json"),
                                 "digest": "0" * 64}
    _write_json(man_path, man)
    assert cli.main(["report", str(root)]) == 3
    assert cli.main(["report", str(root), "--force"]) == 0


def test_report_warns_on_missing_artifact(runs, tmp_path, capsys):
    root = tmp_path / "vanished"
    shutil.copytree(runs["static"], root / "a")
    man_path = root / "a" / "manifest.json"
    man = json.loads(man_path.read_text())
    gone = tmp_path / "gone.json"
    man["artifacts"]["model"] = {"path": str(gone), "digest": "0" * 64}
    _write_json(man_path, man)
    assert cli.main(["report", str(root)]) == 0
    err = capsys.readouterr().err
    assert f"{man_path}: artifact model at {gone}" in err
    assert "could not be verified" in err


# -- exit code 4: episode failures ----------------------------------------------


def test_failure_fraction_exceeded(ws, tmp_path, monkeypatch):
    calls = {"n": 0}
    real = cli.run_episode

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("synthetic episode failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_episode", flaky)
    code = cli.main(["run", "--config", str(ws / "run.json"),
                     "--set", f"output_dir={tmp_path / 'fail'}"])
    assert code == 4
    man = json.loads((tmp_path / "fail" / "manifest.json").read_text())
    assert len(man["failures"]) == 1
    assert "synthetic episode failure" in man["failures"][0]["error"]
    assert man["n_episodes"] == 7


def test_failure_fraction_within_bound(ws, tmp_path, monkeypatch):
    calls = {"n": 0}
    real = cli.run_episode

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("synthetic episode failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_episode", flaky)
    code = cli.main(["run", "--config", str(ws / "run.json"),
                     "--set", f"output_dir={tmp_path / 'ok'}",
                     "--set", "failure_fraction_max=0.2"])
    assert code == 0


# -- ablate ---------------------------------------------------------------------


def test_ablate_epsilon_with_frozen_curve(ws):
    code = cli.main(["ablate", "--config", str(ws / "run.json"),
                     "--axis", "epsilon", "--values", "0.2,0.5",
                     "--set", "output_dir=ablate_eps"])
    assert code == 0
    lines = (ws / "ablate_eps" / "ablate.tsv").read_text().splitlines()
    assert lines[0].startswith("# ablate axis=epsilon")
    assert lines[1].startswith("# frozen_trigger_rate:")
    rates = dict(pair.split(":") for pair in lines[1].split()[2:])
    assert float(rates["0.2"]) >= float(rates["0.5"])
    for tag in ("epsilon=0.2", "epsilon=0.5", "frozen-static"):
        assert (ws / "ablate_eps" / tag / "manifest.json").exists()


def test_ablate_segments_respects_token_budget(ws):
    code = cli.main(["ablate", "--config", str(ws / "run.json"),
                     "--axis", "segments", "--values", "2",
                     "--set", "output_dir=ablate_seg"])
    assert code == 0
    _, recs = _read_records(ws / "ablate_seg" / "segments=2" / "records.jsonl")
    assert all(len(r["segments"]) == 2 for r in recs)
    # 3 segments x 12 tokens = 36 total, so 2 segments get 18 tokens each
    assert recs[0]["config"]["tokens_per_segment"] == 18


def test_ablate_segments_divisibility_error(ws):
    code = cli.main(["ablate", "--config", str(ws / "run.json"),
                     "--axis", "segments", "--values", "5",
                     "--set", "output_dir=ablate_bad"])
    assert code == 2


@pytest.mark.parametrize("axis,values", [
    ("epsilon", "0.2,oops"),
    ("epsilon", "0.2,1.5"),
    ("seg_tokens", "4,0"),
    ("segments", "0"),
    ("epsilon", "0.2,0.2"),
    ("epsilon", "0.2,0.20"),
])
def test_ablate_bad_values_string(ws, tmp_path, axis, values):
    out = tmp_path / "ablate_bad"
    code = cli.main(["ablate", "--config", str(ws / "run.json"),
                     "--axis", axis, "--values", values,
                     "--set", f"output_dir={out}"])
    assert code == 2
    assert not out.exists()


# -- ood --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ood_ws(ws):
    neutral = toydata.neutral_corpus(seed=21, n=40)
    biased = toydata.biased_corpus(seed=22, n=20, biased_fraction=1.0)
    (ws / "ref.txt").write_text("\n".join(neutral[:25]) + "\n")
    (ws / "id.txt").write_text("\n".join(neutral[25:]) + "\n")
    (ws / "oodset.txt").write_text("\n".join(biased) + "\n")
    _write_json(ws / "ood.json", {
        "model": "scenario/model.json",
        "reference": {"texts": "ref.txt"},
        "id": {"texts": "id.txt"},
        "ood": {"texts": "oodset.txt"},
        "detectors": ["knn", "mahalanobis"],
        "k": 5,
        "bootstrap": 100,
        "seed": 0,
        "output_dir": "oodrun",
    })
    return ws


def test_ood_detectors_separate_shifted_text(ood_ws):
    assert cli.main(["ood", "--config", str(ood_ws / "ood.json")]) == 0
    lines = (ood_ws / "oodrun" / "ood.tsv").read_text().splitlines()
    assert lines[0].split("\t")[:2] == ["detector", "auroc"]
    rows = {ln.split("\t")[0]: ln.split("\t") for ln in lines[1:]}
    assert set(rows) == {"knn", "mahalanobis"}
    for row in rows.values():
        assert 0.0 <= float(row[1]) <= 1.0
    # biased text sits far from the neutral reference cloud
    assert float(rows["mahalanobis"][1]) >= 0.9
    doc = json.loads((ood_ws / "oodrun" / "ood.json").read_text())
    assert len(doc["results"]) == 2
    for name in ("reference", "id", "ood"):
        assert (ood_ws / "oodrun" / f"{name}.emb.txt").exists()


def test_ood_llr_detector(ood_ws, tmp_path):
    assert cli.main(["ood", "--config", str(ood_ws / "ood.json"),
                     "--set", 'detectors=["llr"]',
                     "--set", "background_model=scenario/evaluator.json",
                     "--set", f"output_dir={tmp_path / 'llr'}"]) == 0
    lines = (tmp_path / "llr" / "ood.tsv").read_text().splitlines()
    assert lines[1].split("\t")[0] == "llr"


def test_ood_reads_each_texts_file_once(ood_ws, tmp_path, monkeypatch):
    reads = []

    def counted(path, _read=cli.read_lines):
        reads.append(Path(path).name)
        return _read(path)

    monkeypatch.setattr(cli, "read_lines", counted)
    assert cli.main(["ood", "--config", str(ood_ws / "ood.json"),
                     "--set", 'detectors=["knn", "mahalanobis", "llr"]',
                     "--set", "background_model=scenario/evaluator.json",
                     "--set", f"output_dir={tmp_path / 'once'}"]) == 0
    assert sorted(reads) == ["id.txt", "oodset.txt", "ref.txt"]


def test_ood_llr_needs_background_model(ood_ws, tmp_path):
    assert cli.main(["ood", "--config", str(ood_ws / "ood.json"),
                     "--set", 'detectors=["llr"]',
                     "--set", f"output_dir={tmp_path / 'o'}"]) == 2


def test_ood_section_needs_exactly_one_source(ood_ws, tmp_path):
    assert cli.main(["ood", "--config", str(ood_ws / "ood.json"),
                     "--set", "reference.embeddings=ref.txt",
                     "--set", f"output_dir={tmp_path / 'o'}"]) == 2


def test_ood_unknown_detector(ood_ws, tmp_path):
    assert cli.main(["ood", "--config", str(ood_ws / "ood.json"),
                     "--set", 'detectors=["entropy"]',
                     "--set", f"output_dir={tmp_path / 'o'}"]) == 2


@pytest.mark.parametrize("damage, sets", [
    ("model", []),
    ("background_model", ['detectors=["llr"]', "background_model=bg.json"]),
    ("embeddings", ["reference.texts=null", "reference.embeddings=ref.emb.txt"]),
    ("k", ["k=26"]),
], ids=["model", "background_model", "embeddings", "k"])
def test_ood_bad_input_is_config_error(ood_ws, tmp_path, capsys, damage, sets):
    shutil.copytree(ood_ws / "scenario", tmp_path / "scenario")
    for name in ("ood.json", "ref.txt", "id.txt", "oodset.txt"):
        shutil.copy(ood_ws / name, tmp_path / name)
    model = (tmp_path / "scenario" / "model.json").read_bytes()
    (tmp_path / "bg.json").write_bytes(model)
    (tmp_path / "ref.emb.txt").write_text("3 2 digest reference\n0 1 2\n0 1\n")
    if damage == "model":
        (tmp_path / "scenario" / "model.json").write_bytes(model[:100])
    elif damage == "background_model":
        (tmp_path / "bg.json").write_bytes(model[:100])
    code = cli.main(["ood", "--config", str(tmp_path / "ood.json"),
                     *[a for s in sets for a in ("--set", s)]])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "oodrun").exists()


def test_ood_output_independent_of_input_location(ood_ws, tmp_path):
    # a path with whitespace is fine, and the .emb.txt headers name each
    # input by digest, so two copies of one workspace write the same bytes
    for where in ("a", "b c"):
        root = tmp_path / where
        shutil.copytree(ood_ws / "scenario", root / "scenario")
        for name in ("ood.json", "ref.txt", "id.txt", "oodset.txt"):
            shutil.copy(ood_ws / name, root / name)
        assert cli.main(["ood", "--config", str(root / "ood.json")]) == 0
    for name in ("reference.emb.txt", "id.emb.txt", "ood.emb.txt", "ood.tsv", "ood.json"):
        assert ((tmp_path / "a" / "oodrun" / name).read_bytes()
                == (tmp_path / "b c" / "oodrun" / name).read_bytes())


# -- report -----------------------------------------------------------------------


def test_report_outputs(ws, runs):
    root = ws / "runs"
    assert cli.main(["report", str(root)]) == 0
    out = root / "report"
    for name in ("summary.tsv", "trajectories.tsv", "ecdf_bias.tsv",
                 "ecdf_update_time.tsv", "did.tsv"):
        assert (out / name).exists()

    summary = (out / "summary.tsv").read_text().splitlines()
    assert summary[0].startswith("# runs ")
    body = [ln.split("\t")[0] for ln in summary[2:]]
    assert body == sorted(["precond", "static", "sgd"])

    traj = [ln.split("\t") for ln in
            (out / "trajectories.tsv").read_text().splitlines()[2:]]
    static_rows = [r for r in traj if r[0] == "static"]
    assert len(static_rows) == 3
    assert all(float(r[4]) == 0.0 for r in static_rows)

    did = (out / "did.tsv").read_text().splitlines()
    data = [ln.split("\t") for ln in did[2:]]
    # precond and sgd each compared to static at segments 1 and 2
    assert {(r[0], r[1], r[2]) for r in data} == {
        ("precond", "static", "1"), ("precond", "static", "2"),
        ("sgd", "static", "1"), ("sgd", "static", "2")}

    ecdf = [ln.split("\t") for ln in
            (out / "ecdf_bias.tsv").read_text().splitlines()[2:]]
    last_frac = {}
    for row in ecdf:
        last_frac[row[0]] = float(row[2])
    assert all(f == pytest.approx(1.0) for f in last_frac.values())


def test_report_custom_out_dir(ws, runs, tmp_path):
    assert cli.main(["report", str(ws / "runs"),
                     "--out", str(tmp_path / "rep")]) == 0
    assert (tmp_path / "rep" / "summary.tsv").exists()


def test_report_empty_dir(tmp_path, capsys):
    root = tmp_path / "empty"
    root.mkdir()
    assert cli.main(["report", str(root)]) == 0
    assert (root / "report" / "summary.tsv").read_text() == "# no runs\n"
    assert "no run manifests" in capsys.readouterr().err


def test_report_missing_dir(tmp_path):
    assert cli.main(["report", str(tmp_path / "nope")]) == 2


@pytest.mark.parametrize("name,damage", [
    ("scenario/bank.jsonl", 100),
    ("scenario/model.json", 100),
    ("precond.json", 100),
    ("runs/precond/manifest.json", 50),
    ("runs/precond/records.jsonl", 300),
    ("runs/precond/manifest.json", "outputs"),
    ("runs/precond/metrics.json", "rows"),
])
def test_unreadable_artifact_is_config_error(ws, runs, tmp_path, capsys, name, damage):
    # an int keeps that many leading bytes; a string deletes that top-level key
    shutil.copytree(ws / "scenario", tmp_path / "scenario")
    shutil.copy(ws / "precond.json", tmp_path / "precond.json")
    shutil.copytree(runs["precond"], tmp_path / "runs" / "precond")
    path = tmp_path / name
    if isinstance(damage, int):
        path.write_bytes(path.read_bytes()[:damage])
    else:
        doc = json.loads(path.read_text())
        del doc[damage]
        _write_json(path, doc)
    if name.startswith("runs/"):
        code = cli.main(["report", str(tmp_path / "runs")])
    else:
        _write_json(tmp_path / "run.json", _run_config("out"))
        code = cli.main(["run", "--config", str(tmp_path / "run.json")])
    assert code == 2
    assert f"{path}: not a readable" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bank_entry_outside_score_range_is_config_error(ws, tmp_path, capsys):
    shutil.copytree(ws / "scenario", tmp_path / "scenario")
    shutil.copy(ws / "precond.json", tmp_path / "precond.json")
    path = tmp_path / "scenario" / "bank.jsonl"
    lines = path.read_text().splitlines()
    entry = json.loads(lines[1])
    assert entry["type"] != "generic"
    lines[1] = json.dumps({**entry, "score": -0.5})
    path.write_text("\n".join(lines) + "\n")
    _write_json(tmp_path / "run.json", _run_config("out"))
    assert cli.main(["run", "--config", str(tmp_path / "run.json")]) == 2
    err = capsys.readouterr().err
    assert f"{path}: not a readable" in err and repr(entry["text"]) in err
    assert not (tmp_path / "out").exists()


def test_precond_that_disagrees_with_its_fisher_is_config_error(ws, tmp_path, capsys):
    shutil.copytree(ws / "scenario", tmp_path / "scenario")
    path = tmp_path / "precond.json"
    doc = json.loads((ws / "precond.json").read_text())
    diag = decode_array(doc["diag"])
    diag[0] = np.nextafter(diag[0], 0.0)
    _write_json(path, {**doc, "diag": encode_array(diag)})
    _write_json(tmp_path / "run.json", _run_config("out"))
    assert cli.main(["run", "--config", str(tmp_path / "run.json")]) == 2
    err = capsys.readouterr().err
    assert f"{path}: not a readable" in err and "1 / (fisher_diag + damping)" in err
    assert not (tmp_path / "out").exists()


def test_report_duplicate_labels(runs, tmp_path):
    root = tmp_path / "dup"
    shutil.copytree(runs["precond"], root / "a")
    shutil.copytree(runs["precond"], root / "b")
    assert cli.main(["report", str(root)]) == 2
