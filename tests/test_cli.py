"""End-to-end checks for the command-line front end.

Everything here drives cli.main() in process against a small generated
scenario directory, so the tests double as a contract for the exit codes
(0 ok, 2 config, 3 digest, 4 failures) and the on-disk artifact layout.
"""

import concurrent.futures
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

from ttalab import _blas, artifacts, cli, scoring, toydata
from ttalab.artifacts import decode_array, encode_array
from ttalab.genmodel import ToyLM
from ttalab.optim import UpdateRuleConfig
from ttalab.precond import Preconditioner
from ttalab.safebank import SafeBank
from ttalab.tta import EpisodeConfig

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


# the run files that hold no wall-clock value
UNTIMED_RUN_FILES = ("metrics.json", "summary.tsv", "manifest.json")


def _run_into_same_dir(out, first, second):
    """cli.main on the argv lists `first`, then `second`, each writing `out`;
    the first one's files are moved aside in between, to the returned path."""
    aside = out.with_name(out.name + "-first")
    assert cli.main(first) == 0
    out.rename(aside)
    assert cli.main(second) == 0
    return aside


def _assert_same_bytes(a, b, names):
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


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


def _refuse_estimate(*args, **kwargs):
    raise AssertionError("the config should have been refused before estimating")


@pytest.mark.parametrize("key, value", [
    ("n_steps", "0"), ("batch_size", "0"), ("batch_size", "-2"),
    ("continuation_tokens", "0"), ("damping", "0"), ("seed", "-1"),
])
def test_precompute_refuses_bad_config_before_estimating(ws, tmp_path, capsys,
                                                         monkeypatch, key, value):
    monkeypatch.setattr(cli, "estimate_diag_fisher", _refuse_estimate)
    out = tmp_path / "sub" / "pre.json"
    assert cli.main(["precompute", "--config", str(ws / "precompute.json"),
                     "--set", f"output={out}", "--set", f"{key}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not (tmp_path / "sub").exists()


def test_precompute_verify_without_artifact_is_config_error(ws, tmp_path, capsys,
                                                            monkeypatch):
    monkeypatch.setattr(cli, "estimate_diag_fisher", _refuse_estimate)
    out = tmp_path / "sub" / "pre.json"
    assert cli.main(["precompute", "--config", str(ws / "precompute.json"),
                     "--set", f"output={out}", "--verify"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'output'" in err
    assert not (tmp_path / "sub").exists()


def test_precompute_verify_writes_nothing(ws, tmp_path, monkeypatch):
    """--verify compares in memory: it succeeds on a read-only copy of a
    matching artifact and leaves nothing beside it. Root ignores file modes,
    so the package's one writer is made to refuse as well."""
    ro = tmp_path / "ro"
    ro.mkdir()
    shutil.copy(ws / "precond.json", ro / "precond.json")
    (ro / "precond.json").chmod(0o444)
    ro.chmod(0o555)

    def read_only(path, text):
        raise PermissionError(f"read-only directory: {path}")

    monkeypatch.setattr(artifacts, "write_text", read_only)
    try:
        assert cli.main(["precompute", "--config", str(ws / "precompute.json"),
                         "--set", f"output={ro / 'precond.json'}", "--verify"]) == 0
        assert sorted(p.name for p in ro.iterdir()) == ["precond.json"]
        assert (ro / "precond.json").read_bytes() == (ws / "precond.json").read_bytes()
    finally:
        ro.chmod(0o755)


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
    out = tmp_path / "again"
    argv = ["run", "--config", str(ws / "run.json"), "--set", f"output_dir={out}"]
    _assert_same_bytes(_run_into_same_dir(out, argv, argv), out, UNTIMED_RUN_FILES)
    h1, r1 = _read_records(runs["precond"] / "records.jsonl")
    h2, r2 = _read_records(out / "records.jsonl")
    # output_dir participates in the config digest; everything else must agree
    h1.pop("config_digest"), h2.pop("config_digest")
    assert h1 == h2
    assert _strip_timing(r1) == _strip_timing(r2)


@pytest.mark.parametrize("command", ["run", "ablate"])
@pytest.mark.parametrize("jobs", ["0", "-2", "x"])
def test_jobs_below_one_is_config_error(ws, tmp_path, capsys, command, jobs):
    axis = ["--axis", "epsilon", "--values", "0.2"] if command == "ablate" else []
    with pytest.raises(SystemExit) as exited:
        cli.main([command, "--config", str(ws / "run.json"), *axis,
                  "--set", f"output_dir={tmp_path / 'o'}", "--jobs", jobs])
    assert exited.value.code == 2
    assert "error: argument --jobs" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_pool_forks_no_more_workers_than_episodes(ws, tmp_path, monkeypatch):
    sizes = []

    class Spy(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    assert cli.main(["run", "--config", str(ws / "run.json"), "--jobs", "3",
                     "--set", f"output_dir={tmp_path / 'o'}",
                     "--set", "prompts.sample=2"]) == 0
    assert sizes == [2]


def test_run_jobs_parity(ws, runs, tmp_path):
    out = tmp_path / "par"
    argv = ["run", "--config", str(ws / "run.json"), "--set", f"output_dir={out}"]
    serial_dir = _run_into_same_dir(out, [*argv, "--jobs", "1"], [*argv, "--jobs", "2"])
    _assert_same_bytes(serial_dir, out, UNTIMED_RUN_FILES)
    _, serial = _read_records(runs["precond"] / "records.jsonl")
    _, parallel = _read_records(out / "records.jsonl")
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


def test_manifest_digests_every_input(ws, runs):
    lex = SCENARIO_FILES["lexicons"]
    inputs = {"model": SCENARIO_FILES["model"], "bank": SCENARIO_FILES["bank"],
              "evaluator": SCENARIO_FILES["evaluator"], "preconditioner": "precond.json",
              "prompts.path": "scenario/prompts.txt",
              **{f"lexicons.{role}.{i}": p for role in ("trigger", "report")
                 for i, p in enumerate(lex[role])},
              **{f"lexicons.cue.{t}": p for t, p in lex["cue"].items()}}
    man = json.loads((runs["precond"] / "manifest.json").read_text())
    assert {k: v["path"] for k, v in man["artifacts"].items()} == {
        k: str(ws.resolve() / p) for k, p in inputs.items()}
    for entry in man["artifacts"].values():
        assert entry["digest"] == cli.file_digest(entry["path"])
    static = json.loads((runs["static"] / "manifest.json").read_text())
    assert static["artifacts"]["preconditioner"] is None
    assert static["artifacts"].keys() == man["artifacts"].keys()


def test_report_refuses_a_run_whose_input_changed(ws, tmp_path, capsys):
    shutil.copytree(ws / "scenario", tmp_path / "scenario")
    shutil.copy(ws / "precond.json", tmp_path / "precond.json")
    _write_json(tmp_path / "run.json", _run_config("runs/precond"))
    assert cli.main(["run", "--config", str(tmp_path / "run.json")]) == 0
    assert cli.main(["report", str(tmp_path / "runs")]) == 0
    for key, name in [("lexicons.trigger.0", "scenario/trigger_0.tsv"),
                      ("lexicons.report.2", "scenario/report_2.tsv"),
                      ("lexicons.cue.race", "scenario/cue_race.tsv"),
                      ("evaluator", "scenario/evaluator.json"),
                      ("prompts.path", "scenario/prompts.txt")]:
        path = tmp_path / name
        kept = path.read_bytes()
        path.write_bytes(kept + b"\n")
        capsys.readouterr()
        assert cli.main(["report", str(tmp_path / "runs")]) == 3, key
        assert f"artifact {key} at {path} changed since the run" in capsys.readouterr().err
        path.write_bytes(kept)


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


def test_prompt_bias_floor_default_is_the_library_floor():
    assert cli.RUN_SCHEMA["prompts"]["min_bias"][1] == scoring.PROMPT_MIN_BIAS


# The bundled scenario's tuned keys, each written out. `learning_rate` null
# is the rule's own rate; a number there would change the config digest.
SCENARIO_EPISODE = {"k_segments": 4, "tokens_per_segment": 16, "epsilon": 0.3,
                    "safe_batch": 4, "multi_trigger": False, "temperature": 0.9,
                    "top_p": 0.9}
SCENARIO_UPDATE = {"learning_rate": None, "steps": 50, "clip_coef": 1.0,
                   "max_delta_norm": 0.25, "lambda_reg": 1e-3}
SCENARIO_FISHER = {"n_steps": 6, "batch_size": 2, "seed": 0, "continuation_tokens": 24,
                   "damping": 1e-4}


def test_paths_only_run_config_runs_the_scenario(ws, tmp_path):
    """A run config with no `episode` or `update` section runs the scenario's
    tuned loop: the records of the config that writes every key out, apart
    from `timing`, and, rerun into the same output_dir, the same bytes in
    every untimed file."""
    explicit = _run_config("unused", episode=SCENARIO_EPISODE, update=SCENARIO_UPDATE)
    paths_only = {k: v for k, v in explicit.items() if k not in ("episode", "update")}
    _write_json(ws / "scenario_keys.json", explicit)
    _write_json(ws / "paths_only.json", paths_only)
    out = tmp_path / "out"
    argv = ["--set", "prompts.sample=2", "--set", f"output_dir={out}"]
    aside = _run_into_same_dir(out, ["run", "--config", str(ws / "scenario_keys.json"), *argv],
                               ["run", "--config", str(ws / "paths_only.json"), *argv])
    (header, recs), (paths_header, paths_recs) = (_read_records(d / "records.jsonl")
                                                  for d in (aside, out))
    assert header == paths_header and _strip_timing(recs) == _strip_timing(paths_recs)
    assert [r["config"]["steps"] for r in paths_recs] == [50, 50]
    _assert_same_bytes(aside, out, UNTIMED_RUN_FILES)


def test_paths_only_precompute_config_writes_the_scenario_artifact(ws, tmp_path):
    paths = {"model": "scenario/model.json", "corpus": "scenario/fisher_corpus.txt"}
    _write_json(ws / "precompute_scenario.json",
                {**paths, "output": str(tmp_path / "scenario.json"), **SCENARIO_FISHER})
    _write_json(ws / "precompute_paths_only.json",
                {**paths, "output": str(tmp_path / "paths_only.json")})
    for name in ("precompute_scenario.json", "precompute_paths_only.json"):
        assert cli.main(["precompute", "--config", str(ws / name)]) == 0
    assert ((tmp_path / "paths_only.json").read_bytes()
            == (tmp_path / "scenario.json").read_bytes())


def test_missing_required_key(ws, tmp_path):
    bad = _run_config(str(tmp_path / "o"))
    del bad["bank"]
    _write_json(ws / "bad_missing.json", bad)
    assert cli.main(["run", "--config", str(ws / "bad_missing.json")]) == 2


# before_input: refused from the config alone, before the first input is read
@pytest.mark.parametrize("setting, key, before_input", [
    pytest.param("lexicons.trigger=[]", "lexicons.trigger", True, id="trigger"),
    pytest.param("lexicons.report=[]", "lexicons.report", True, id="report"),
    # a cue for a type the monitor does not gate would be ignored
    pytest.param("lexicons.cue.gender=scenario/cue_sex.tsv", "lexicons.cue.gender", True,
                 id="cue-gender"),
    pytest.param("lexicons.cue.other=scenario/cue_race.tsv", "lexicons.cue.other", True,
                 id="cue-other"),
    pytest.param("lexicons.trigger=[1]", "lexicons.trigger", False,
                 id="trigger-not-a-path"),
    pytest.param("lexicons.cue.race=[]", "lexicons.cue.race", False, id="cue-not-a-path"),
])
def test_empty_committee_is_config_error(ws, tmp_path, capsys, monkeypatch, setting, key,
                                         before_input):
    if before_input:
        monkeypatch.setattr(cli, "_read_input", _refuse_input)
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


def _refuse_episode(*args, **kwargs):
    raise AssertionError("the config should have been refused before any episode")


def _refuse_input(*args, **kwargs):
    raise AssertionError("the config should have been refused before any input was read")


_cli_load = cli._load


def _refuse_input_past_config(kind, load, path, **kwargs):
    """`cli._load` that reads the config file and refuses every input."""
    if kind != "config":
        _refuse_input()
    return _cli_load(kind, load, path, **kwargs)


@pytest.mark.parametrize("key, value", [
    ("prompts.sample", "-3"), ("prompts.sample", "0"),
    ("failure_fraction_max", "-1"), ("failure_fraction_max", "1.5"),
    ("failure_fraction_max", "NaN"),
    ("master_seed", "-1"), ("prompts.seed", "-1"),
    ("prompts.min_bias", "-5"), ("prompts.min_bias", "1.5"), ("prompts.min_bias", "NaN"),
    ("update.learning_rate", "NaN"), ("update.learning_rate", "Infinity"),
    ("update.clip_coef", "NaN"), ("update.max_delta_norm", "NaN"),
    ("update.lambda_reg", "NaN"), ("episode.temperature", "NaN"),
])
def test_run_refuses_bad_limits_before_any_episode(ws, tmp_path, capsys, monkeypatch,
                                                   key, value):
    monkeypatch.setattr(cli, "run_episode", _refuse_episode)
    monkeypatch.setattr(cli, "_read_input", _refuse_input)
    assert cli.main(["run", "--config", str(ws / "run.json"),
                     "--set", f"output_dir={tmp_path / 'o'}",
                     "--set", f"{key}={value}"]) == 2
    err = capsys.readouterr().err
    section, _, name = key.rpartition(".")
    # the update and episode validators name a field within its section
    named = f"{name} must be finite" if section in ("update", "episode") else f"'{key}'"
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "o").exists()


def test_ablate_refuses_a_non_finite_value_before_any_episode(ws, tmp_path, capsys,
                                                              monkeypatch):
    monkeypatch.setattr(cli, "run_episode", _refuse_episode)
    assert cli.main(["ablate", "--config", str(ws / "run.json"), "--axis", "epsilon",
                     "--values", "0.2", "--set", f"output_dir={tmp_path / 'o'}",
                     "--set", "update.learning_rate=NaN"]) == 2
    assert "learning_rate must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_file_not_found(tmp_path, capsys):
    """A config file that is missing, not UTF-8 or a directory exits 2 in
    every command that reads one."""
    (tmp_path / "utf16.json").write_bytes(b"\xff\xfe{}")
    for command in ("run", "precompute", "ablate", "ood"):
        axis = ["--axis", "epsilon", "--values", "0.2"] if command == "ablate" else []
        for path in (tmp_path / "nope.json", tmp_path / "utf16.json", tmp_path):
            assert cli.main([command, "--config", str(path), *axis]) == 2, (command, path)
            assert f"{path}: not a readable config" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "ablate", "precompute", "report", "ood"])
def test_output_location_in_the_way_is_config_error(ood_ws, runs, tmp_path, capsys,
                                                    monkeypatch, command):
    """An existing path where an output goes, or above it, exits 2 naming
    its key before any input is read: a file at or above an output
    directory (for ablate, any point's), a directory at an output file."""
    monkeypatch.setattr(cli, "_load", _refuse_input_past_config)
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    (tmp_path / "ablate").mkdir()
    (tmp_path / "ablate" / "epsilon=0.5").write_text("")
    run = ["--config", str(ood_ws / "run.json")]
    argv, key = {
        "run": (["run", *run, "--set", f"output_dir={tmp_path / 'file'}"], "'output_dir'"),
        "ablate": (["ablate", *run, "--axis", "epsilon", "--values", "0.2,0.5",
                    "--set", f"output_dir={tmp_path / 'ablate'}"], "'output_dir'"),
        "precompute": (["precompute", "--config", str(ood_ws / "precompute.json"),
                        "--set", f"output={tmp_path / 'dir'}"], "'output'"),
        "report": (["report", str(ood_ws / "runs"), "--out", str(tmp_path / "file")],
                   "--out"),
        "ood": (["ood", "--config", str(ood_ws / "ood.json"),
                 "--set", f"output_dir={tmp_path / 'file' / 'sub'}"], "'output_dir'"),
    }[command]
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["run", "precompute", "ablate", "ood"])
@pytest.mark.parametrize("root", [[], 5, "x"], ids=["list", "number", "string"])
@pytest.mark.parametrize("overrides", [[], ["--set", "a=1"]], ids=["plain", "set"])
def test_config_root_must_be_an_object(tmp_path, capsys, monkeypatch, command, root,
                                       overrides):
    """A config whose root is not an object exits 2 before any override is
    applied or any input read."""
    monkeypatch.setattr(cli, "_load", _refuse_input_past_config)
    path = tmp_path / "c.json"
    _write_json(path, root)
    axis = ["--axis", "epsilon", "--values", "0.2"] if command == "ablate" else []
    before = sorted(tmp_path.rglob("*"))
    assert cli.main([command, "--config", str(path), *axis, *overrides]) == 2
    assert "error: config section <root> must be an object" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["run", "ablate", "report", "ood"])
def test_output_file_blocked_by_a_directory_is_config_error(ood_ws, runs, tmp_path, capsys,
                                                            monkeypatch, command):
    """A directory where a command writes a file into its output directory
    exits 2 naming that path, before any input is read: for each file the
    command writes (for ablate, each point's too)."""
    monkeypatch.setattr(cli, "_load", _refuse_input_past_config)
    out = tmp_path / "out"
    run = ["--config", str(ood_ws / "run.json")]
    points = ("epsilon=0.2", "epsilon=0.5", "frozen-static")
    argv, files = {
        "run": (["run", *run, "--set", f"output_dir={out}"], cli.RUN_FILES),
        "ablate": (["ablate", *run, "--axis", "epsilon", "--values", "0.2,0.5",
                    "--set", f"output_dir={out}"],
                   [cli.ABLATE_TABLE, *(f"{point}/{name}" for point in points
                                        for name in cli.RUN_FILES)]),
        "report": (["report", str(ood_ws / "runs"), "--out", str(out)],
                   cli.REPORT_TABLES.values()),
        "ood": (["ood", "--config", str(ood_ws / "ood.json"), "--set", f"output_dir={out}"],
                cli.OOD_FILES.values()),
    }[command]
    for name in files:
        (out / name).mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(argv) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{out / name} is a directory" in err, name
        assert sorted(tmp_path.rglob("*")) == before, name
        shutil.rmtree(out)


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


def test_inputs_are_read_as_utf8_whatever_the_locale(ws, tmp_path):
    shutil.copytree(ws / "scenario", tmp_path / "scenario")
    shutil.copy(ws / "precond.json", tmp_path / "precond.json")
    prompts = tmp_path / "scenario" / "prompts.txt"
    lines = prompts.read_text().splitlines()
    prompts.write_text("\n".join([lines[0] + " café", *lines[1:]]) + "\n", encoding="utf-8")
    lexicon = tmp_path / "scenario" / "trigger_0.tsv"
    lexicon.write_text(lexicon.read_text() + "naïve\t0.5\n", encoding="utf-8")
    _write_json(tmp_path / "run.json", _run_config(
        "out", prompts={"path": "scenario/prompts.txt", "min_bias": 0.4, "sample": None,
                        "seed": 0},
        episode={"k_segments": 1, "tokens_per_segment": 4, "epsilon": 0.3, "safe_batch": 2},
        update={"steps": 1}))
    records = []
    for name, env in [("default", {}),
                      ("ascii", {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"})]:
        done = subprocess.run(
            [sys.executable, "-m", "ttalab.cli", "run", "--config", str(tmp_path / "run.json"),
             "--set", f"output_dir={name}"],
            env=_fresh_interpreter_env(**env), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (name, done.stderr)
        records.append(_strip_timing(_read_records(tmp_path / name / "records.jsonl")[1]))
    assert records[0] == records[1]
    assert any(rec["prompt"].endswith(" café") for rec in records[0])


@pytest.mark.parametrize("module", ["scipy", "multiprocessing", "subprocess"])
def test_cli_import_leaves_module_unloaded(module):
    probe = ("import sys\n"
             "import ttalab.cli, ttalab.metrics, ttalab.ood\n"
             f"print(sorted(m for m in sys.modules if m.split('.')[0] == {module!r}))")
    out = subprocess.run([sys.executable, "-c", probe], env=_fresh_interpreter_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_older_checkpoint_with_a_moved_adapter_is_config_error(ws, tmp_path, capsys):
    """A model file in the older layout, whose saved current adapter state
    differs from its episode-start state, is refused before the run starts."""
    doc = json.loads((ws / "scenario" / "model.json").read_text())
    b = decode_array(doc["initial_b"])
    b[0, 0] += 0.5
    path = tmp_path / "moved.json"
    _write_json(path, {**doc, "adapter_a": doc["initial_a"], "adapter_b": encode_array(b)})
    assert cli.main(["run", "--config", str(ws / "run.json"),
                     "--set", f"output_dir={tmp_path / 'o'}",
                     "--set", f"model={path}"]) == 2
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _edit_array(key, value):
    def edit(doc):
        arr = decode_array(doc[key])
        arr.flat[0] = value
        return {**doc, key: encode_array(arr)}
    return edit


# edits that a model file must not pass at load
MODEL_EDITS = {
    "w_base-nan": _edit_array("w_base", np.nan),
    "w_base-inf": _edit_array("w_base", np.inf),
    "initial_a-nan": _edit_array("initial_a", np.nan),
    "initial_b-inf": _edit_array("initial_b", -np.inf),
    "alpha-nan": lambda doc: {**doc, "alpha": float("nan")},
    "alpha-str": lambda doc: {**doc, "alpha": "x"},
    "alpha-zero": lambda doc: {**doc, "alpha": 0},
    "alpha-bool": lambda doc: {**doc, "alpha": True},
    "rank": lambda doc: {**doc, "rank": doc["rank"] + 1},
}


@pytest.mark.parametrize("edit", MODEL_EDITS)
@pytest.mark.parametrize("command, key", [("run", "model"), ("run", "evaluator"),
                                          ("precompute", "model")])
def test_bad_model_file_exits_2_before_any_work(ws, tmp_path, capsys, monkeypatch,
                                                command, key, edit):
    """A model file with a non-finite array, an alpha that is not a finite
    number > 0 or a rank that disagrees with its arrays is refused at load,
    naming its path, before any episode or estimate and any output."""
    monkeypatch.setattr(cli, "run_episode", _refuse_episode)
    monkeypatch.setattr(cli, "estimate_diag_fisher", _refuse_estimate)
    doc = json.loads((ws / "scenario" / f"{key}.json").read_text())
    path = tmp_path / "edited.json"
    _write_json(path, MODEL_EDITS[edit](doc))
    out = tmp_path / "sub" / "out"
    setting = f"output_dir={out}" if command == "run" else f"output={out}"
    assert cli.main([command, "--config", str(ws / f"{command}.json"),
                     "--set", setting, "--set", f"{key}={path}"]) == 2
    assert f"{path}: not a readable model artifact" in capsys.readouterr().err
    assert not (tmp_path / "sub").exists()


@pytest.mark.parametrize("key, field", [("model", "w_base"), ("evaluator", "initial_b"),
                                        ("preconditioner", "fisher_diag")])
def test_encoded_array_that_is_not_an_object_exits_2(ws, tmp_path, capsys, monkeypatch,
                                                     key, field):
    monkeypatch.setattr(cli, "run_episode", _refuse_episode)
    source = ws / ("precond.json" if key == "preconditioner" else f"scenario/{key}.json")
    path = tmp_path / source.name
    _write_json(path, {**json.loads(source.read_text()), field: "x"})
    assert cli.main(["run", "--config", str(ws / "run.json"), "--set", f"{key}={path}",
                     "--set", f"output_dir={tmp_path / 'o'}"]) == 2
    err = capsys.readouterr().err
    assert f"{path}: not a readable" in err and "must be an object" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", ["", "   ", 5], ids=["empty", "blank", "int"])
def test_bank_entry_with_no_word_is_config_error(ws, tmp_path, capsys, monkeypatch, text):
    """An update trains on an entry's tokens, one per word, so a bank entry
    whose text has no word is refused at load, naming the bank, before any
    episode and any output."""
    monkeypatch.setattr(cli, "run_episode", _refuse_episode)
    lines = (ws / "scenario" / "bank.jsonl").read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), "text": text})
    path = tmp_path / "bank.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["run", "--config", str(ws / "run.json"), "--set", "prompts.sample=4",
                     "--set", f"output_dir={tmp_path / 'o'}", "--set", f"bank={path}"]) == 2
    assert f"{path}: not a readable safe-bank artifact" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", ["trigger_1.tsv", "report_0.tsv", "cue_sex.tsv"])
def test_lexicon_with_no_terms_is_config_error(ws, tmp_path, capsys, monkeypatch, name):
    """An empty member would lower its committee's mean, an empty cue
    lexicon would switch its type off; both are refused at load."""
    monkeypatch.setattr(cli, "run_episode", _refuse_episode)
    shutil.copytree(ws / "scenario", tmp_path / "scenario")
    shutil.copy(ws / "precond.json", tmp_path / "precond.json")
    path = tmp_path / "scenario" / name
    path.write_text("# no terms\n\n")
    _write_json(tmp_path / "run.json", _run_config("out"))
    assert cli.main(["run", "--config", str(tmp_path / "run.json")]) == 2
    assert f"{path}: not a readable lexicon artifact: lexicon has no terms" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def _failing_episode(*args, **kwargs):
    raise RuntimeError("synthetic episode failure")


def test_zero_episode_rerun_replaces_the_summary(ws, runs, tmp_path, monkeypatch):
    out = tmp_path / "used"
    shutil.copytree(runs["static"], out)
    monkeypatch.setattr(cli, "run_episode", _failing_episode)
    assert cli.main(["run", "--config", str(ws / "run.json"), "--set", "mode=static",
                     "--set", f"output_dir={out}",
                     "--set", "failure_fraction_max=1.0"]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["n_episodes"] == 0 and len(man["failures"]) == man["n_prompts"]
    summary = (out / man["outputs"]["summary"]).read_text().splitlines()
    assert summary[0] == f"# config {man['config_digest']}"
    assert len(summary) == 2 and summary[1].startswith("system\t")


def test_report_and_ablate_leave_out_a_run_with_no_episodes(ws, runs, tmp_path, capsys,
                                                            monkeypatch):
    root = tmp_path / "mixed"
    shutil.copytree(runs["precond"], root / "a")
    monkeypatch.setattr(cli, "run_episode", _failing_episode)
    assert cli.main(["run", "--config", str(ws / "run.json"), "--set", "label=empty",
                     "--set", f"output_dir={root / 'b'}",
                     "--set", "failure_fraction_max=1.0"]) == 0
    capsys.readouterr()
    assert cli.main(["report", str(root)]) == 0
    warnings = [ln for ln in capsys.readouterr().err.splitlines() if "warning" in ln]
    assert warnings == [f"warning: {root / 'b'}: run empty has no episodes; left out"]
    summary = (root / "report" / "summary.tsv").read_text().splitlines()
    assert [ln.split("\t")[0] for ln in summary[2:]] == ["precond"]

    out = tmp_path / "ablate"
    assert cli.main(["ablate", "--config", str(ws / "run.json"), "--axis", "epsilon",
                     "--values", "0.2,0.5", "--set", f"output_dir={out}",
                     "--set", "failure_fraction_max=1.0"]) == 0
    warnings = [ln for ln in capsys.readouterr().err.splitlines() if "warning" in ln]
    assert len(warnings) == 3 and f"{out / 'frozen-static'}: run frozen-static" in warnings[2]
    lines = (out / "ablate.tsv").read_text().splitlines()
    assert lines[0].startswith("# ablate") and lines[1].startswith("system\t")
    assert len(lines) == 2


# -- ablate ---------------------------------------------------------------------


def test_ablate_epsilon_with_frozen_curve(ws):
    out = ws / "ablate_eps"
    argv = ["ablate", "--config", str(ws / "run.json"), "--axis", "epsilon",
            "--values", "0.2,0.5", "--set", "output_dir=ablate_eps"]
    first = _run_into_same_dir(out, [*argv, "--jobs", "1"], [*argv, "--jobs", "2"])
    _assert_same_bytes(first, out, ["ablate.tsv"])
    lines = (out / "ablate.tsv").read_text().splitlines()
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


@pytest.mark.parametrize("axis, values, parses", [
    ("epsilon", "0.2,0.5", 4),  # the base, one per value, the frozen pass
    ("segments", "2,4", 3),
])
def test_ablate_parses_the_config_once_per_value(ws, tmp_path, monkeypatch, axis, values,
                                                 parses):
    calls = []
    real = cli.load_config

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "load_config", counted)
    assert cli.main(["ablate", "--config", str(ws / "run.json"), "--axis", axis,
                     "--values", values, "--set", f"output_dir={tmp_path / 'a'}"]) == 0
    assert len(calls) == parses


def test_ablate_point_is_the_run_its_overrides_name(ws, tmp_path):
    point = tmp_path / "a" / "segments=2"
    assert cli.main(["ablate", "--config", str(ws / "run.json"), "--axis", "segments",
                     "--values", "2", "--set", f"output_dir={tmp_path / 'a'}"]) == 0
    ablated = json.loads((point / "manifest.json").read_text())
    _, ablated_recs = _read_records(point / "records.jsonl")
    assert cli.main(["run", "--config", str(ws / "run.json"),
                     "--set", "episode.k_segments=2", "--set", "episode.tokens_per_segment=18",
                     "--set", f"output_dir={point}", "--set", "label=segments=2"]) == 0
    rerun = json.loads((point / "manifest.json").read_text())
    _, rerun_recs = _read_records(point / "records.jsonl")
    assert rerun["config_digest"] == ablated["config_digest"]
    assert _strip_timing(rerun_recs) == _strip_timing(ablated_recs)


def test_run_directory_file_names_live_in_the_writer():
    """Each file name a command writes is written once, in its module-level
    table, and the run writer reads its names from there."""
    source = inspect.getsource(cli)
    for name in ("records.jsonl", "metrics.json"):
        assert source.count(name) == 1 and name in cli.RUN_OUTPUTS.values()
    assert "RUN_OUTPUTS" in inspect.getsource(cli._run)
    names = [*cli.RUN_FILES, cli.ABLATE_TABLE, *cli.REPORT_TABLES.values(),
             *cli.OOD_FILES.values()]
    for name in names:
        assert source.count(f'"{name}"') == names.count(name), name


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


@pytest.mark.parametrize("key, value", [
    ("seed", "-1"), ("bootstrap", "-1"), ("k", "0"),
    ("detectors", "[]"), ("detectors", '["knn", "knn"]'),
])
def test_ood_refuses_bad_values_before_any_input(ood_ws, tmp_path, capsys, monkeypatch,
                                                 key, value):
    monkeypatch.setattr(cli, "_load", _refuse_input_past_config)
    assert cli.main(["ood", "--config", str(ood_ws / "ood.json"),
                     "--set", f"output_dir={tmp_path / 'o'}",
                     "--set", f"{key}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{key}'" in err
    assert not (tmp_path / "o").exists()


def test_ood_singular_reference_is_config_error(ood_ws, tmp_path, capsys):
    line = (ood_ws / "ref.txt").read_text().splitlines()[0]
    (tmp_path / "same.txt").write_text(f"{line}\n" * 3)
    assert cli.main(["ood", "--config", str(ood_ws / "ood.json"),
                     "--set", f"reference.texts={tmp_path / 'same.txt'}", "--set", "k=1",
                     "--set", f"output_dir={tmp_path / 'o'}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'reference'" in err and "singular" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("damage, sets", [
    ("model", []),
    ("background_model", ['detectors=["llr"]', "background_model=bg.json"]),
    ("embeddings", ["reference.texts=null", "reference.embeddings=ref.emb.txt"]),
    ("k", ["k=26"]),
    ("width", ["reference.texts=null", "reference.embeddings=wide.emb.txt"]),
], ids=["model", "background_model", "embeddings", "k", "width"])
def test_ood_bad_input_is_config_error(ood_ws, tmp_path, capsys, damage, sets):
    shutil.copytree(ood_ws / "scenario", tmp_path / "scenario")
    for name in ("ood.json", "ref.txt", "id.txt", "oodset.txt"):
        shutil.copy(ood_ws / name, tmp_path / name)
    model = (tmp_path / "scenario" / "model.json").read_bytes()
    (tmp_path / "bg.json").write_bytes(model)
    (tmp_path / "ref.emb.txt").write_text("3 2 digest reference\n0 1 2\n0 1\n")
    # well formed, but 3 wide against the model's embeddings of the id/ood texts
    (tmp_path / "wide.emb.txt").write_text("3 6 digest reference\n" + "0 1 2\n3 4 5\n" * 3)
    if damage == "model":
        (tmp_path / "scenario" / "model.json").write_bytes(model[:100])
    elif damage == "background_model":
        (tmp_path / "bg.json").write_bytes(model[:100])
    code = cli.main(["ood", "--config", str(tmp_path / "ood.json"),
                     *[a for s in sets for a in ("--set", s)]])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "oodrun").exists()


def test_ood_reads_back_its_own_embeddings(ood_ws, tmp_path):
    """The three written .emb.txt files, fed back as embeddings inputs with
    no model, reproduce every output byte of the run from texts."""
    assert cli.main(["ood", "--config", str(ood_ws / "ood.json"),
                     "--set", f"output_dir={tmp_path / 'texts'}"]) == 0
    sets = [f"{name}.{key}={value}" for name in ("reference", "id", "ood")
            for key, value in (("texts", "null"),
                               ("embeddings", tmp_path / "texts" / f"{name}.emb.txt"))]
    assert cli.main(["ood", "--config", str(ood_ws / "ood.json"), "--set", "model=null",
                     "--set", f"output_dir={tmp_path / 'emb'}",
                     *[a for s in sets for a in ("--set", s)]]) == 0
    for name in ("reference.emb.txt", "id.emb.txt", "ood.emb.txt", "ood.tsv", "ood.json"):
        assert ((tmp_path / "texts" / name).read_bytes()
                == (tmp_path / "emb" / name).read_bytes())


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


# -- every number key against bad values ---------------------------------------

SWEEP_VALUES = ["0", "-1", "NaN", "Infinity", "-Infinity", '"x"', "[1]", "true"]


def _number_keys(schema: dict, path: str = ""):
    """Dotted keys of the schema's int, float and bool leaves."""
    for key, spec in schema.items():
        if isinstance(spec, dict):
            yield from _number_keys(spec, f"{path}{key}.")
        elif spec[0] in (int, float, bool):
            yield path + key


def test_config_sweep_exits_with_a_documented_code(ood_ws, tmp_path):
    """Each int, float and bool key of the three configs, given each of
    SWEEP_VALUES, exits 0, 2, 3 or 4, never with a traceback, and exit 2
    leaves the output location uncreated. The values are small on purpose:
    a huge count is requested work, not an error."""
    commands = [  # (command, schema, config, output key, output below the case dir)
        ("precompute", cli.PRECOMPUTE_SCHEMA, "precompute.json", "output", "pre.json"),
        ("run", cli.RUN_SCHEMA, "run.json", "output_dir", ""),
        ("ood", cli.OOD_SCHEMA, "ood.json", "output_dir", ""),
    ]
    wrong = []
    for command, schema, config, out_key, below in commands:
        for key in _number_keys(schema):
            for value in SWEEP_VALUES:
                case = tmp_path / f"{command}-{key}-{SWEEP_VALUES.index(value)}"
                argv = [command, "--config", str(ood_ws / config),
                        "--set", f"{out_key}={case / below}",
                        *(["--set", "prompts.sample=1"] if command == "run" else []),
                        "--set", f"{key}={value}"]
                try:
                    code = cli.main(argv)
                except Exception as exc:
                    wrong.append((command, key, value, f"{type(exc).__name__}: {exc}"))
                    continue
                if code not in (0, 2, 3, 4) or (code == 2 and case.exists()):
                    wrong.append((command, key, value, code))
    assert wrong == []


# -- every input artifact against bad edits -----------------------------------


def _edit_field(key, value):
    return lambda doc: {**doc, key: value}


def _drop_field(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _edit_line(i, edit):
    """An edit of a JSONL file's lines: `edit` applied to line i's document."""
    return lambda lines: [*lines[:i], json.dumps(edit(json.loads(lines[i]))), *lines[i + 1:]]


def _zero_rank(doc):
    """A rank-0 adapter: A is (0, dim), B is (vocab, 0), and the rank says 0."""
    a, b = decode_array(doc["initial_a"]), decode_array(doc["initial_b"])
    return {**doc, "rank": 0, "initial_a": encode_array(a[:0]),
            "initial_b": encode_array(b[:, :0])}


MODEL_SWEEP = {  # JSON document edits of a model file
    "nan": _edit_array("w_base", np.nan),
    "inf": _edit_array("initial_b", np.inf),
    "array-str": _edit_field("w_base", "x"),
    "del-vocab": _drop_field("vocab"),
    "alpha-str": _edit_field("alpha", "x"),
    "rank-zero": _zero_rank,
}
PRECOND_SWEEP = {
    "nan": _edit_array("fisher_diag", np.nan),
    "inf": _edit_array("fisher_diag", np.inf),
    "array-str": _edit_field("fisher_diag", "x"),
    "del-damping": _drop_field("damping"),
    "damping-str": _edit_field("damping", "x"),
    "damping-zero": _edit_field("damping", 0.0),
    "fisher-negative": _edit_array("fisher_diag", -1e-3),
    "diag": _edit_array("diag", 0.5),
    "n": lambda doc: {**doc, "n": doc["n"] + 1},
    "other-model": _edit_field("model_digest", "0" * 64),  # a digest error: exit 3
}
BANK_SWEEP = {  # edits of the bank's lines
    "counts": _edit_line(0, lambda h: {**h, "counts": {**h["counts"],
                                                       "race": h["counts"]["race"] + 1}}),
    "lost-line": lambda lines: lines[:-1],
    "blank-text": _edit_line(1, _edit_field("text", "   ")),
    "score-str": _edit_line(1, _edit_field("score", "x")),
    "del-text": _edit_line(1, _drop_field("text")),
}
LEXICON_SWEEP = {  # edits of a lexicon's text
    "no-tab": lambda text: text + "word 0.5\n",
    "bad-weight": lambda text: text + "word\tx\n",
}


def _edit_text_line(i, edit):
    """An edit of a text file: `edit` applied to line i, newline included."""
    return lambda text: "".join(edit(ln) if j == i else ln
                                for j, ln in enumerate(text.splitlines(keepends=True)))


EMBEDDING_SWEEP = {
    "header": _edit_text_line(0, lambda ln: "92 25\n"),
    "nan": _edit_text_line(1, lambda ln: "nan" + ln[ln.index(" "):]),
    "short-row": _edit_text_line(1, lambda ln: ln.rsplit(" ", 1)[0] + "\n"),
    "lost-row": lambda text: "".join(text.splitlines(keepends=True)[:-1]),
}


def _artifact_sweep_cases():
    """(command, config key, source file, edit name, edit): each edit applies
    to the source's JSON document, its lines (the bank) or its text."""
    sources = [("run", "model", "scenario/model.json", MODEL_SWEEP),
               ("run", "evaluator", "scenario/evaluator.json", MODEL_SWEEP),
               ("precompute", "model", "scenario/model.json", MODEL_SWEEP),
               ("run", "preconditioner", "precond.json", PRECOND_SWEEP),
               ("run", "bank", "scenario/bank.jsonl", BANK_SWEEP),
               ("run", "lexicons.trigger.0", "scenario/trigger_0.tsv", LEXICON_SWEEP),
               ("run", "lexicons.cue.race", "scenario/cue_race.tsv", LEXICON_SWEEP),
               ("run", "prompts.path", "scenario/prompts.txt",
                {"below-floor": lambda text: "the cat sat on the mat\n"}),
               ("precompute", "corpus", "scenario/fisher_corpus.txt", {}),
               ("ood", "model", "scenario/model.json", MODEL_SWEEP),
               ("ood", "background_model", "scenario/evaluator.json", MODEL_SWEEP),
               ("ood", "reference.embeddings", "ref.emb.txt", EMBEDDING_SWEEP),
               ("ood", "id.texts", "id.txt", {})]
    for command, key, source, edits in sources:
        for name, edit in {**edits, "empty": None}.items():
            yield command, key, source, name, edit


def _refuse_work(*args, **kwargs):
    raise AssertionError("the input should have been refused before any work")


def test_artifact_sweep_exits_with_a_documented_code(ood_ws, tmp_path, capsys, monkeypatch):
    """Each input artifact of `run`, `precompute` and `ood`, edited each way,
    is refused before the first episode, estimate or detector: exit 2 (3 for
    a digest error), its path named exactly once on stderr, no output."""
    monkeypatch.setattr(cli, "_run_one", _refuse_work)
    monkeypatch.setattr(cli, "estimate_diag_fisher", _refuse_work)
    monkeypatch.setattr(cli.oodmod, "evaluate", _refuse_work)
    # the inputs are written once; each case reads one edited copy
    shutil.copytree(ood_ws / "scenario", tmp_path / "scenario")
    for name in ("precond.json", "id.txt", "oodset.txt"):
        shutil.copy(ood_ws / name, tmp_path / name)
    cli.oodmod.embed_corpus(ToyLM.load(tmp_path / "scenario" / "model.json"),
                            (ood_ws / "ref.txt").read_text().splitlines(),
                            label="reference").save(tmp_path / "ref.emb.txt")
    prompts = tmp_path / "scenario" / "prompts.txt"
    prompts.write_text("\n".join(prompts.read_text().splitlines()[:2]) + "\n")
    configs = {
        "run": _run_config("out", prompts={"path": "scenario/prompts.txt", "min_bias": 0.4,
                                           "sample": None, "seed": 0}),
        "precompute": {**json.loads((ood_ws / "precompute.json").read_text()), "output": "out"},
        "ood": {**json.loads((ood_ws / "ood.json").read_text()),
                "background_model": "scenario/evaluator.json",
                "detectors": ["knn", "mahalanobis", "llr"],
                "reference": {"texts": None, "embeddings": "ref.emb.txt"}},
    }
    for command, cfg in configs.items():  # unedited, each command reaches its work
        _write_json(tmp_path / f"{command}.json", cfg)
        with pytest.raises(AssertionError, match="before any work"):
            cli.main([command, "--config", str(tmp_path / f"{command}.json")])
    capsys.readouterr()
    wrong = []
    for command, key, source, name, edit in _artifact_sweep_cases():
        case = tmp_path / f"{command}-{key}-{name}"
        case.mkdir()
        path = case / Path(source).name
        text = (tmp_path / source).read_text()
        if edit is None:
            text = ""
        elif path.suffix == ".json":
            text = json.dumps(edit(json.loads(text)))
        elif path.suffix == ".jsonl":
            text = "\n".join(edit(text.splitlines())) + "\n"
        else:
            text = edit(text)
        path.write_text(text)
        cfg = json.loads(json.dumps(configs[command]))
        *parents, last = key.split(".")
        node = cli._config_value(cfg, ".".join(parents)) if parents else cfg
        node[int(last) if isinstance(node, list) else last] = str(path)
        cfg["output" if command == "precompute" else "output_dir"] = str(case / "out")
        config = tmp_path / f"{case.name}.json"
        _write_json(config, cfg)
        try:
            code = cli.main([command, "--config", str(config)])
        except Exception as exc:
            wrong.append((case.name, f"{type(exc).__name__}: {exc}"))
            continue
        err = capsys.readouterr().err
        want = 3 if name == "other-model" else 2
        if code != want or err.count(str(path)) != 1 or (case / "out").exists():
            wrong.append((case.name, code, err))
    assert wrong == []


# -- report -----------------------------------------------------------------------


def test_report_outputs(ws, runs):
    root = ws / "runs"
    assert cli.main(["report", str(root)]) == 0
    out = root / "report"
    for name in ("summary.tsv", "trajectories.tsv", "ecdf_bias.tsv",
                 "ecdf_update_time.tsv", "latency.tsv", "did.tsv"):
        assert (out / name).exists()

    latency = (out / "latency.tsv").read_text().splitlines()
    assert latency[0].startswith("# runs ")
    assert latency[1] == "run\tn\tupdate_time_mean\ttest_time_mean"
    rows = {ln.split("\t")[0]: ln.split("\t")[1:] for ln in latency[2:]}
    assert rows.keys() == {"precond", "static", "sgd"}
    assert all(n == "8" and float(test) > 0.0 for n, _, test in rows.values())
    assert float(rows["static"][1]) == 0.0 < float(rows["precond"][1])

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


def test_report_untimed_tables_reproduce_byte_for_byte(ws, tmp_path):
    """Two reports over reruns into the same run directories, at --jobs 1
    and 2, agree byte for byte in every table but the two timed ones."""
    root = tmp_path / "runs"
    for jobs in ("1", "2"):
        if root.exists():
            root.rename(tmp_path / "runs-first")
        for mode in ("static", "precond"):
            assert cli.main(["run", "--config", str(ws / "run.json"), "--jobs", jobs,
                             "--set", f"mode={mode}",
                             "--set", f"output_dir={root / mode}"]) == 0
        assert cli.main(["report", str(root)]) == 0
    _assert_same_bytes(tmp_path / "runs-first" / "report", root / "report",
                       ("summary.tsv", "trajectories.tsv", "ecdf_bias.tsv", "did.tsv"))


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
