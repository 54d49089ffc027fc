"""Child-process entry points for the benchmark runner (perfbench/run.py).

    python3 perfbench/child.py setup <workload> <dir> <seed> <timings.json>
    python3 perfbench/child.py trace <spans_dir> <cli args...>

`setup` writes the scenario and configs and, for run workloads, runs
``ttalab precompute`` at the scenario's Fisher defaults through
``ttalab.cli.main``. `trace` runs one CLI command with spans recorded
around the library's public functions. Measured untraced commands do not
come through here: the runner starts ``ttalab.cli.main`` from ``python3 -c``
so that nothing but the CLI is imported.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter


def setup(workload_name: str, directory: str, seed: str, timings_path: str) -> int:
    from ttalab import cli, toydata
    from workloads import SETUP_PRECOMPUTE, WORKLOADS, SCENARIO_DIR, write_configs

    workload = WORKLOADS[workload_name]
    directory = Path(directory)
    t0 = perf_counter()
    manifest = toydata.write_scenario(directory / SCENARIO_DIR, seed=int(seed))
    t1 = perf_counter()
    write_configs(workload, directory, int(seed), manifest)
    code = 0
    if workload.command == "run":
        code = cli.main(["precompute", "--config", str(directory / SETUP_PRECOMPUTE)])
    t2 = perf_counter()
    Path(timings_path).write_text(json.dumps(
        {"write_scenario_s": t1 - t0, "configs_and_precompute_s": t2 - t1}))
    return code


def trace(spans_dir: str, argv: list[str]) -> int:
    from ttalab import cli
    from tracer import Tracer, install, ROOT_SPAN

    tracer = Tracer(Path(spans_dir))
    install(tracer)
    try:
        return tracer.wrap(ROOT_SPAN, cli.main)(argv)
    finally:
        tracer.flush()


if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in ("setup", "trace"):
        sys.exit(f"usage: {sys.argv[0]} setup|trace ...")
    if sys.argv[1] == "setup":
        sys.exit(setup(*sys.argv[2:6]))
    sys.exit(trace(sys.argv[2], sys.argv[3:]))
