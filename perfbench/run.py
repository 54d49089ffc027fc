"""Benchmark of ttalab's ``run`` and ``precompute`` commands on the bundled scenario.

    python3 perfbench/run.py --workload adapt --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py                    # all four workloads at seed 0
    python3 perfbench/run.py --pin-reference    # rewrite reference_seed0.json

Run it from the root of a checkout: the library is imported from ./src and
all working files go under ./.perfbench_work. One invocation is a
single-process closed loop:

1. set-up, repeated (median reported as ``setup_s``): a fresh process
   writes ``toydata.write_scenario(seed)`` and the configs and, for the run
   workloads, runs ``ttalab precompute`` at the scenario's Fisher defaults;
2. the measured command, repeated for ``--seconds``: each repeat is a
   fresh ``python3 -c`` process calling ``ttalab.cli.main``, reaped with
   ``os.wait4`` so CPU time, peak RSS and context switches include the
   pool workers it reaped;
3. with ``--trace 1``, one more run of the command with spans around the
   library's public functions (see tracer.py), reported as per-layer
   metrics together with the tracing overhead;
4. the correctness gate over every run's outputs: exit status, manifest
   failures, ``tta.drift_report``, reruns identical modulo ``timing``,
   ``--jobs 2`` records equal to ``--jobs 1`` records, exact counters equal
   across repeats and, at seed 0, the reference pinned in
   reference_seed0.json.

BLAS thread variables are inherited as they are and recorded, never set.
The last line of stdout is the JSON result; the lines before it are the
environment and a readable table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import load_spans, summarize
from workloads import (
    FISHER_OUTPUT,
    MEASURED_CONFIG,
    RUN_OUTPUT,
    SCENARIO_DIR,
    SETUP_PRECOND,
    WORKLOADS,
    measured_argv,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH_DIR / "reference_seed0.json"
SPEC = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 5
# At --jobs 2 a run now and then takes three times its usual wall time
# (the workers' BLAS threads oversubscribe the cores), so every figure is a
# median over an odd number of at least MIN_RUNS runs.
MIN_RUNS = 3
IMPORT_REPEATS = 3
RUN_BUDGET_S = 170.0
EXIT_FAILURES = 4   # ttalab's "episode failure fraction exceeded"
# Reference floats must agree to this; exact bytes are reported separately
# because one BLAS thread instead of two already moves the last bits.
FLOAT_TOL = {"rel": 1e-6, "abs": 1e-9}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
            "GOTO_NUM_THREADS")
CLI_MAIN = "import sys; from ttalab.cli import main; sys.exit(main(sys.argv[1:]))"
TIMED_SUMMARY_COLUMNS = ("update_time_mean", "test_time_mean")


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def median(values):
    return statistics.median(values) if values else 0.0


# -- child processes ---------------------------------------------------------------


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    nivcsw: int


class Runner:
    """Starts children one at a time, each in its own process group, and
    kills the group if the invocation's time budget runs out."""

    def __init__(self, logs: Path):
        self.logs = logs
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ)
        path = os.environ.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        self.count = 0

    def remaining_s(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, args: list[str], tag: str) -> Proc:
        self.count += 1
        log = self.logs / f"{self.count:03d}-{tag}.log"
        timeout = max(1.0, self.remaining_s())
        with open(log, "w") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                    stdout=fh, stderr=subprocess.STDOUT,
                                    start_new_session=True)
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(code=proc.returncode, wall_s=wall,
                    cpu_s=usage.ru_utime + usage.ru_stime,
                    peak_rss_mb=usage.ru_maxrss / 1024.0, nivcsw=usage.ru_nivcsw)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# -- reading outputs -----------------------------------------------------------------


@dataclass
class RunOutputs:
    """One run directory, split into timing and everything else."""
    shared: str                  # header, manifest, metrics doc, summary
    episodes: dict               # prompt_id -> canonical untimed record + row
    records: list                # untimed record dicts
    rows: dict                   # prompt_id -> untimed metrics row
    timings: list                # each record's timing dict
    failures: list
    bytes: int                   # output bytes without the wall-clock fields


@dataclass
class FisherOutputs:
    text: str
    meta: dict
    diag: list
    bytes: int


def _untimed_summary(text: str) -> str:
    lines = text.splitlines()
    if len(lines) < 2:
        return text
    header = lines[1].split("\t")
    keep = [i for i, col in enumerate(header) if col not in TIMED_SUMMARY_COLUMNS]
    body = ["\t".join(line.split("\t")[i] for i in keep) for line in lines[1:]]
    return "\n".join([lines[0], *body])


def read_run_outputs(out: Path) -> RunOutputs | None:
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        lines = (out / "records.jsonl").read_text().splitlines()
        metrics_doc = json.loads((out / "metrics.json").read_text())
        summary_path = out / "summary.tsv"
        summary = summary_path.read_text() if summary_path.exists() else ""
        header = json.loads(lines[0])
        records = [json.loads(line) for line in lines[1:]]
    except (OSError, ValueError, IndexError):
        return None
    manifest.pop("wall_clock_seconds", None)
    for artifact in manifest.get("artifacts", {}).values():
        if artifact:
            artifact.pop("path", None)   # absolute, so it names the checkout
    rows = {}
    for row in metrics_doc.pop("rows"):
        row.pop("timing", None)
        rows[row["prompt_id"]] = row
    timings = [rec.pop("timing") for rec in records]
    episodes = {rec["prompt_id"]: canonical({"record": rec, "row": rows.get(rec["prompt_id"])})
                for rec in records}
    shared = canonical({"header": header, "manifest": manifest, "metrics": metrics_doc,
                        "summary": _untimed_summary(summary)})
    size = len(shared.encode()) + sum(len(e.encode()) for e in episodes.values())
    return RunOutputs(shared=shared, episodes=episodes, records=records, rows=rows,
                      timings=timings, failures=manifest.get("failures", []), bytes=size)


def read_fisher_outputs(path: Path) -> FisherOutputs | None:
    from ttalab.artifacts import decode_array

    try:
        text = path.read_text()
        doc = json.loads(text)
        diag = decode_array(doc["fisher_diag"]).tolist()
    except (OSError, ValueError, KeyError):
        return None
    meta = {k: v for k, v in doc.items() if k not in ("diag", "fisher_diag")}
    return FisherOutputs(text=text, meta=meta, diag=diag, bytes=len(text.encode()))


def run_counts(o: RunOutputs) -> dict:
    segments = [s for rec in o.records for s in rec["segments"]]
    rounds = [r for s in segments for r in s["rounds"]]
    return {
        "episodes": len(o.records),
        "segments": len(segments),
        "triggers": sum(1 for s in segments if s["triggered"]),
        "update_rounds": len(rounds),
        "update_steps": sum(len(r["losses"]) for r in rounds),
        "tokens": sum(len(s["text"].split()) for s in segments),
        "bank_empty": sum(s["flags"].count("bank_empty") for s in segments),
        "scorer_failure": sum(s["flags"].count("scorer_failure") for s in segments),
        "failures": len(o.failures),
        "bytes": o.bytes,
    }


def fisher_counts(o: FisherOutputs) -> dict:
    return {"sample_count": o.meta.get("sample_count"), "bytes": o.bytes}


# -- the pinned reference ------------------------------------------------------------


def _episode_reference(episode: str) -> dict:
    """Discrete fields exactly (by digest), floats as a list, bytes by digest."""
    parsed = json.loads(episode)
    rec, row = parsed["record"], parsed["row"]
    segments = rec["segments"]
    discrete = {
        "prompt": rec["prompt"], "flags": rec["flags"], "config": rec["config"],
        "segments": [[s["index"], s["text"], s["triggered"], s["routed_type"],
                      s["triggered_types"], s["flags"], s["trigger_score"] is None,
                      [[r["routed_type"], r["entry_texts"], len(r["losses"]),
                        len(r["grad_norms"]), len(r["delta_norms"])]
                       for r in s["rounds"]]]
                     for s in segments],
    }
    floats = [rec["trigger_rate"], rec["final_drift"], rec["delta_norm_sum"]]
    for s in segments:
        floats += [s["trigger_score"] or 0.0, s["drift_norm"]]
        for r in s["rounds"]:
            floats += [r["losses"][0], r["losses"][-1], math.fsum(r["losses"]),
                       math.fsum(r["grad_norms"]), math.fsum(r["delta_norms"])]
    if row is not None:
        floats += [row["ppl"], row["fluency"], row["bias_mean"]]
    return {"discrete": sha256(canonical(discrete)), "floats": floats,
            "bytes": sha256(episode)}


def _fisher_reference(o: FisherOutputs) -> dict:
    """Metadata (sample count, digests, settings) exactly; the Fisher
    diagonal by its sum, sum of squares, extremes and every 101st entry."""
    diag = o.diag
    floats = [math.fsum(diag), math.fsum(x * x for x in diag), max(diag), min(diag)]
    return {"discrete": sha256(canonical(o.meta)), "floats": floats + diag[::101],
            "bytes": sha256(o.text)}


def _floats_match(got, want) -> bool:
    return len(got) == len(want) and all(
        math.isclose(a, b, rel_tol=FLOAT_TOL["rel"], abs_tol=FLOAT_TOL["abs"])
        for a, b in zip(got, want))


def reference_key(workload) -> str:
    """adapt-jobs2 has adapt's inputs, so it is held to adapt's reference."""
    return "adapt" if workload.name == "adapt-jobs2" else workload.name


def load_reference(workload) -> dict | None:
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(reference_key(workload))


# -- the correctness gate ------------------------------------------------------------


@dataclass
class Gate:
    attempted: int = 0
    failed: int = 0
    reasons: dict = field(default_factory=dict)
    reference_checked: bool = False
    reference_bytes_equal: bool | None = None

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


def gate_runs(outputs: list, procs: list, n_prompts: int, max_delta_norm: float,
              peer: RunOutputs | None, reference: dict | None) -> Gate:
    """One operation per episode per repeat; each fails at most once."""
    from ttalab.tta import EpisodeRecord, drift_report

    gate = Gate(reference_checked=reference is not None)
    all_ids = {f"prompt-{i:04d}" for i in range(n_prompts)}
    first = next((o for o in outputs if o is not None), None)
    first_counts = run_counts(first) if first else None
    bytes_equal = True
    for o, proc in zip(outputs, procs):
        gate.attempted += n_prompts
        bad: dict[str, str] = {}

        def mark(ids, reason):
            for pid in ids:
                bad.setdefault(pid, reason)

        if o is None or proc.code not in (0, EXIT_FAILURES):
            mark(all_ids, "exit status or missing outputs")
        else:
            mark((f["prompt_id"] for f in o.failures), "listed in manifest failures")
            if proc.code != 0:
                mark(all_ids, "exit status")
            for rec in o.records:
                # from_record consumes its argument, hence the copy
                copy = json.loads(canonical(rec)) | {"timing": {}}
                report = drift_report(EpisodeRecord.from_record(copy), max_delta_norm)
                if not report.ok:
                    mark([rec["prompt_id"]], "drift_report not ok")
            if o.shared != first.shared or run_counts(o) != first_counts:
                mark(all_ids, "rerun differs (run-level outputs or counters)")
            mark((pid for pid in all_ids if o.episodes.get(pid) != first.episodes.get(pid)),
                 "rerun differs")
            if peer is not None:
                if o.shared != peer.shared:
                    mark(all_ids, "differs from --jobs 1 (run-level outputs)")
                mark((pid for pid in all_ids if o.episodes.get(pid) != peer.episodes.get(pid)),
                     "differs from --jobs 1")
            if reference is not None:
                # output bytes may change with the format; the counts may not
                if {k: v for k, v in run_counts(o).items() if k != "bytes"} != \
                        {k: v for k, v in reference["counts"].items() if k != "bytes"}:
                    mark(all_ids, "counters differ from pinned reference")
                ref = reference["episodes"]
                for pid in all_ids:
                    want = ref.get(pid)
                    got = _episode_reference(o.episodes[pid]) if pid in o.episodes else None
                    if want is None or got is None or got["bytes"] != want["bytes"]:
                        bytes_equal = False
                    if want is None or got is None or got["discrete"] != want["discrete"] \
                            or not _floats_match(got["floats"], want["floats"]):
                        mark([pid], "differs from pinned reference")
        for reason in bad.values():
            gate.fail(reason)
    if reference is not None:
        gate.reference_bytes_equal = bytes_equal
    return gate


def gate_fisher(outputs: list, procs: list, reference: dict | None) -> Gate:
    """One operation per precompute."""
    gate = Gate(reference_checked=reference is not None)
    first = next((o for o in outputs if o is not None), None)
    bytes_equal = True
    for o, proc in zip(outputs, procs):
        gate.attempted += 1
        if o is None or proc.code != 0:
            gate.fail("exit status or missing output")
            continue
        if o.text != first.text or fisher_counts(o) != fisher_counts(first):
            gate.fail("rerun differs")
            continue
        if reference is None:
            continue
        got = _fisher_reference(o)
        bytes_equal = bytes_equal and got["bytes"] == reference["bytes"]
        if got["discrete"] != reference["discrete"] \
                or not _floats_match(got["floats"], reference["floats"]):
            gate.fail("differs from pinned reference")
    if reference is not None:
        gate.reference_bytes_equal = bytes_equal
    return gate


# -- statistics ----------------------------------------------------------------------


def tail_percentile(values) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it
    (nearest-rank), or None when that would not reach the median."""
    n = len(values)
    if n < 20:
        return None
    p = math.floor(100 * (n - 10) / n)
    k = math.ceil(p * n / 100) - 1
    return p, sorted(values)[k]


# -- environment ----------------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ttalab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# -- one workload ---------------------------------------------------------------------


def _setup(workload, rundir: Path, logs: Path, seed: int, runner: Runner):
    """Set up SETUP_REPEATS times afresh; returns (procs, timings, digests)."""
    procs, timings, digests = [], [], set()
    for i in range(SETUP_REPEATS):
        if rundir.exists():
            shutil.rmtree(rundir)
        rundir.mkdir(parents=True)
        timings_path = logs / f"setup-{i}.json"
        proc = runner.run([str(BENCH_DIR / "child.py"), "setup", workload.name,
                           str(rundir), str(seed), str(timings_path)], f"setup-{i}")
        if proc.code != 0:
            raise RuntimeError(f"set-up exited with {proc.code}; see {logs}")
        procs.append(proc)
        timings.append(json.loads(timings_path.read_text()))
        produced = [rundir / SCENARIO_DIR / "scenario.json", rundir / MEASURED_CONFIG]
        if workload.command == "run":
            produced.append(rundir / SETUP_PRECOND)
        digests.add(tuple(sha256(p.read_text()) for p in produced))
    return procs, timings, digests


def _read_outputs(workload, rundir: Path):
    if workload.command == "run":
        return read_run_outputs(rundir / RUN_OUTPUT)
    return read_fisher_outputs(rundir / FISHER_OUTPUT)


def _clear_outputs(workload, rundir: Path) -> None:
    if workload.command == "run":
        shutil.rmtree(rundir / RUN_OUTPUT, ignore_errors=True)
    else:
        (rundir / FISHER_OUTPUT).unlink(missing_ok=True)


def _measure(workload, rundir: Path, runner: Runner, tag: str, prefix=()):
    _clear_outputs(workload, rundir)
    proc = runner.run([*prefix, *measured_argv(workload, rundir)], tag)
    return proc, _read_outputs(workload, rundir)


def bench(workload, seed: int, seconds: float, trace: bool) -> dict:
    wdir = WORK / f"{workload.name}-s{seed}-t{int(trace)}"
    if wdir.exists():
        shutil.rmtree(wdir)
    logs = wdir / "logs"
    logs.mkdir(parents=True)
    rundir = wdir / "run"
    runner = Runner(logs)

    setup_procs, setup_timings, setup_digests = _setup(workload, rundir, logs, seed, runner)
    run_cfg = json.loads((rundir / MEASURED_CONFIG).read_text())

    procs, outputs = [], []
    started = time.perf_counter()
    while (len(procs) < MIN_RUNS or len(procs) % 2 == 0
           or time.perf_counter() - started < seconds):
        # fewer runs rather than a run killed by the time limit; what is
        # left must also fit the traced and the --jobs 1 peer runs
        if procs and runner.remaining_s() < 3 * max(p.wall_s for p in procs) + 10:
            break
        proc, out = _measure(workload, rundir, runner, f"measure-{len(procs)}",
                             ("-c", CLI_MAIN))
        procs.append(proc)
        outputs.append(out)

    traced = None
    if trace:
        spans_dir = wdir / "spans"
        spans_dir.mkdir()
        proc, out = _measure(workload, rundir, runner, "traced",
                             (str(BENCH_DIR / "child.py"), "trace", str(spans_dir)))
        traced = (proc, out, summarize(load_spans(spans_dir)))
        import_walls = [runner.run(["-c", "import ttalab.cli"], f"import-{i}").wall_s
                        for i in range(IMPORT_REPEATS)]

    reference = load_reference(workload) if seed == DEFAULT_SEED else None
    if seed == DEFAULT_SEED and reference is None:
        raise RuntimeError(f"no pinned reference for {workload.name} in {REFERENCE}")
    gated_outputs = outputs + ([traced[1]] if traced else [])
    gated_procs = procs + ([traced[0]] if traced else [])
    if workload.command == "run":
        peer = None
        if workload.jobs > 1:
            serial = WORKLOADS["adapt"]
            _, peer = _measure(serial, rundir, runner, "jobs1-peer", ("-c", CLI_MAIN))
            if peer is None:
                raise RuntimeError("the --jobs 1 peer run left no outputs")
        prompts = (rundir / SCENARIO_DIR / "prompts.txt").read_text().splitlines()
        n_prompts = sum(1 for line in prompts if line.strip())
        gate = gate_runs(gated_outputs, gated_procs, n_prompts,
                         run_cfg["update"]["max_delta_norm"], peer, reference)
    else:
        gate = gate_fisher(gated_outputs, gated_procs, reference)
    correct = gate.failed == 0 and len(setup_digests) == 1

    walls = [p.wall_s for p in procs]
    wall = median(walls)
    first = next((o for o in outputs if o is not None), None)
    if workload.command == "run":
        items = len(first.records) if first else 0
        latencies = [t["test_time_total"] for o in outputs if o for t in o.timings]
    else:
        items = first.meta.get("sample_count", 0) if first else 0
        latencies = walls
    tail = tail_percentile(latencies)
    values = {
        "setup_s": median([p.wall_s for p in setup_procs]),
        "wall_s": wall,
        "items_per_s": items / wall if wall else 0.0,
        "cpu_s": median([p.cpu_s for p in procs]),
        "peak_rss_mb": median([p.peak_rss_mb for p in procs]),
    }
    extra = {
        "runs": len(procs), "setup_runs": len(setup_procs),
        "op_p50_s": median(latencies), "op_samples": len(latencies),
        "op_tail": {"percentile": tail[0], "s": tail[1]} if tail else None,
        "failed_fraction": gate.failed / gate.attempted,
        "failures_by_reason": gate.reasons,
        "setup_deterministic": len(setup_digests) == 1,
        "reference_checked": gate.reference_checked,
        "reference_bytes_equal": gate.reference_bytes_equal,
        "walls_s": walls,
        "counts": (run_counts(first) if workload.command == "run" else fisher_counts(first))
                  if first else None,
    }
    if trace:
        layers, extra["self_time_top"] = layer_metrics(
            workload, run_cfg, rundir, procs, outputs, traced, setup_timings,
            median(import_walls))
        values.update(layers)
    return {"workload": workload.name, "seed": seed, "trace": trace, "correct": correct,
            "attempted": gate.attempted, "failed": gate.failed, "values": values,
            "extra": extra, "workdir": str(wdir)}


# -- per-layer metrics ------------------------------------------------------------------


def layer_metrics(workload, run_cfg, rundir, procs, outputs, traced, setup_timings,
                  import_s) -> tuple[dict, list]:
    """The per-layer metrics, and the six largest self times by span name."""
    from ttalab.safebank import SafeBank

    traced_proc, traced_out, summary = traced
    names = summary["names"]

    def stat(name, key):
        return names.get(name, {}).get(key, 0)

    def per_unit(name, units, scale=1e6):
        return stat(name, "s") / units * scale if units else 0.0

    m = {}
    for name in ("genmodel.sample_segment", "genmodel.adapter_gradient",
                 "genmodel.sequence_log_prob.update", "genmodel.sequence_log_prob.eval",
                 "genmodel.apply_delta", "tta.aligned_pairs", "scoring.evaluate",
                 "safebank.sample_safe_batch", "metrics.perplexity"):
        m[f"{name}.calls"] = stat(name, "calls")
        m[f"{name}.s"] = stat(name, "s")
    for name in ("optim.clip_gradient", "optim.precond_step", "optim.cap_delta",
                 "precond.estimate_diag_fisher", "precond.save", "metrics.aggregate_run",
                 "artifacts.load"):
        m[f"{name}.s"] = stat(name, "s")
    m["genmodel.sample_segment.us_per_token"] = per_unit(
        "genmodel.sample_segment", stat("genmodel.sample_segment", "work"))
    m["genmodel.adapter_gradient.us_per_target_token"] = per_unit(
        "genmodel.adapter_gradient", stat("genmodel.adapter_gradient", "work"))
    m["genmodel.sequence_log_prob.eval.us_per_token"] = per_unit(
        "genmodel.sequence_log_prob.eval", stat("genmodel.sequence_log_prob.eval", "work"))
    m["tta.run_episode.calls"] = stat("tta.run_episode", "calls")
    m["tta.run_episode.self_s"] = stat("tta.run_episode", "self_s")
    m["scoring.evaluate.us_per_segment"] = per_unit(
        "scoring.evaluate", stat("scoring.evaluate", "calls"))
    m["metrics.perplexity.us_per_token"] = per_unit(
        "metrics.perplexity", stat("metrics.perplexity", "work"))
    m["precond.estimate_diag_fisher.self_s"] = stat("precond.estimate_diag_fisher", "self_s")
    m["artifacts.write.s"] = stat("artifacts.write", "s") + stat("precond.save", "s")

    counts = {}
    trigger_fraction = topup_fraction = 0.0
    ppl_nonfinite = sample_count = 0
    episode_sums, busy = [], []
    if workload.command == "run":
        counts = run_counts(traced_out)
        epsilon = run_cfg["episode"]["epsilon"]
        scores = [s["trigger_score"] for rec in traced_out.records
                  for s in rec["segments"] if s["trigger_score"] is not None]
        trigger_fraction = sum(1 for s in scores if s > epsilon) / len(scores) if scores else 0.0
        bank = SafeBank.load(rundir / SCENARIO_DIR / "bank.jsonl")
        typed = {t: {e.text for e in entries} for t, entries in bank.entries.items()}
        picked = [(r["routed_type"], text) for rec in traced_out.records
                  for s in rec["segments"] for r in s["rounds"] for text in r["entry_texts"]]
        generic = sum(1 for t, text in picked if text not in typed[t])
        topup_fraction = generic / len(picked) if picked else 0.0
        ppl_nonfinite = sum(1 for row in traced_out.rows.values()
                            if not math.isfinite(row["ppl"]))
        episode_sums = [math.fsum(t["test_time_total"] for t in o.timings)
                        for o in outputs if o]
        busy = [s / (workload.jobs * p.wall_s) for s, p in zip(episode_sums, procs)]
    else:
        sample_count = traced_out.meta.get("sample_count", 0) if traced_out else 0
    steps = counts.get("update_steps", 0)
    loss_grad_s = (stat("genmodel.sequence_log_prob.update", "s")
                   + stat("genmodel.adapter_gradient.update", "s"))
    m["tta.loss_grad.us_per_step"] = loss_grad_s / steps * 1e6 if steps else 0.0
    clip_step_cap_s = sum(stat(f"optim.{n}", "s")
                          for n in ("clip_gradient", "precond_step", "cap_delta"))
    m["optim.clip_step_cap.us_per_step"] = clip_step_cap_s / steps * 1e6 if steps else 0.0
    m["tta.triggers"] = counts.get("triggers", 0)
    m["tta.update_rounds"] = counts.get("update_rounds", 0)
    m["tta.update_steps"] = steps
    m["tta.flags.bank_empty"] = counts.get("bank_empty", 0)
    m["tta.flags.scorer_failure"] = counts.get("scorer_failure", 0)
    m["scoring.trigger_fraction"] = trigger_fraction
    m["safebank.generic_topup_fraction"] = topup_fraction
    m["safebank.exhausted"] = counts.get("bank_empty", 0)
    m["precond.us_per_sample"] = per_unit("precond.estimate_diag_fisher", sample_count)
    m["metrics.ppl_nonfinite"] = ppl_nonfinite
    m["artifacts.write.bytes"] = traced_out.bytes if traced_out else 0
    m["cli.import_s"] = import_s
    m["process.cpu_per_wall"] = median([p.cpu_s / p.wall_s for p in procs])
    m["process.nivcsw"] = median([p.nivcsw for p in procs])
    m["cli.worker_busy_fraction"] = median(busy)
    m["cli.episode_s_sum"] = median(episode_sums)
    m["toydata.write_scenario.s"] = median([t["write_scenario_s"] for t in setup_timings])
    m["bench.trace_overhead_frac"] = traced_proc.wall_s / median([p.wall_s for p in procs]) - 1
    m["bench.unattributed_frac"] = summary["unattributed_frac"]
    top = sorted(((name, d["self_s"]) for name, d in names.items()
                  if not name.endswith((".update", ".eval")) and name != "cli.main"),
                 key=lambda kv: -kv[1])[:6]
    return m, top


# -- output ---------------------------------------------------------------------------


def _metric_block(spec: dict, result: dict) -> dict:
    kind = "per_layer" if result["trace"] else "end_to_end"
    block = {}
    for metric in spec[kind]:
        if metric["name"] not in result["values"]:
            raise RuntimeError(f"metric {metric['name']} was not computed")
        block[metric["name"]] = {"value": result["values"][metric["name"]],
                                 "unit": metric["unit"]}
    return block


def print_table(result: dict, block: dict) -> None:
    e = result["extra"]
    print(f"== {result['workload']} seed={result['seed']} trace={int(result['trace'])}: "
          f"{e['runs']} measured runs, {result['attempted']} operations, "
          f"{result['failed']} failed, correct={result['correct']}")
    for name, v in block.items():
        print(f"  {name:<48} {v['value']:>14.6g} {v['unit']}")
    alias = ("episodes_per_s" if WORKLOADS[result["workload"]].command == "run"
             else "fisher_samples_per_s")
    print(f"  items_per_s is {alias} on this workload")
    tail = e["op_tail"]
    tail_text = (f"p{tail['percentile']} {tail['s']:.6g} s" if tail
                 else "no tail (< 20 samples)")
    print(f"  op latency: p50 {e['op_p50_s']:.6g} s, {tail_text}, n={e['op_samples']}")
    print(f"  failed_fraction {e['failed_fraction']:.6g} ({e['failures_by_reason'] or 'none'}); "
          f"set-up deterministic: {e['setup_deterministic']}")
    if e["reference_checked"]:
        print(f"  pinned reference (floats within rel {FLOAT_TOL['rel']:g}, abs "
              f"{FLOAT_TOL['abs']:g}; mismatches counted above); byte-identical: "
              f"{e['reference_bytes_equal']}")
    if e["counts"]:
        print(f"  counts: {canonical(e['counts'])}")
    if result["trace"]:
        top = ", ".join(f"{n} {s:.3f}s" for n, s in e["self_time_top"])
        print(f"  self time, largest first: {top}")


def finish(result: dict, spec: dict, env: dict) -> dict:
    """Print the table, keep the full result next to the run's outputs and
    return the metrics block for the JSON line."""
    block = _metric_block(spec, result)
    print_table(result, block)
    doc = dict(result, metrics=block, env=env)
    Path(result["workdir"], "result.json").write_text(json.dumps(doc, indent=1) + "\n")
    return block


def pin_reference() -> None:
    pinned = {"seed": DEFAULT_SEED, "float_tolerance": FLOAT_TOL}
    for name in ("adapt", "static-long", "fisher"):
        workload = WORKLOADS[name]
        wdir = WORK / f"pin-{name}"
        shutil.rmtree(wdir, ignore_errors=True)
        logs = wdir / "logs"
        logs.mkdir(parents=True)
        runner = Runner(logs)
        rundir = wdir / "run"
        _setup(workload, rundir, logs, DEFAULT_SEED, runner)
        proc, out = _measure(workload, rundir, runner, "pin", ("-c", CLI_MAIN))
        if proc.code != 0 or out is None:
            raise RuntimeError(f"{name}: command failed; see {logs}")
        if workload.command == "run":
            pinned[name] = {"episodes": {
                pid: _episode_reference(ep) for pid, ep in out.episodes.items()},
                "counts": run_counts(out)}
        else:
            pinned[name] = _fisher_reference(out) | {"counts": fisher_counts(out)}
    REFERENCE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-reference", action="store_true",
                        help="rerun seed 0 once and rewrite the pinned reference")
    args = parser.parse_args(argv)

    if not (SRC / "ttalab" / "cli.py").is_file() or not SPEC.is_file():
        print(f"error: run from the root of a ttalab checkout ({SRC / 'ttalab'} "
              f"and {SPEC.name} are needed)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    if args.pin_reference:
        pin_reference()
        return 0
    env = environment()
    print("env: " + canonical(env))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = bench(WORKLOADS[name], args.seed, seconds, bool(args.trace))
        results.append((result, finish(result, spec, env)))
    if len(results) == 1:
        metrics = results[0][1]
    else:
        metrics = {f"{r['workload']}.{k}": v for r, block in results for k, v in block.items()}
    print(json.dumps({
        "correct": all(r["correct"] for r, _ in results),
        "attempted": sum(r["attempted"] for r, _ in results),
        "failed": sum(r["failed"] for r, _ in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
