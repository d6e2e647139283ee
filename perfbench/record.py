"""Record the expected outputs every benchmark campaign is checked against.

Usage, from the repository root::

    python3 perfbench/record.py

Runs each expectation's workload once per input variant (``pooled-resilience``
shares ``exact-resilience``'s expectation, so it is checked against the
serial run) and writes ``perfbench/expected/<name>.json``, mapping each
variant to its outputs.  Re-record only when a change is meant to alter the
program's scientific outputs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import run
import workloads


def _outputs(workload: str, variant: int) -> dict:
    path = os.path.join(run.WORKDIR, f"record-{workload}-{variant}")
    os.makedirs(path)
    job = {"workload": workload, "seed": variant, "workdir": path, "trace": False, "tiny": False}
    try:
        env = run.child_env(workloads.WORKLOADS[workload]["env"])
        deadline = time.perf_counter() + 10 * run.CAMPAIGN_TIMEOUT
        return run.launch(env, job, deadline)["result"]["outputs"]
    finally:
        shutil.rmtree(path, ignore_errors=True)


def main() -> int:
    recorders = {}
    for name, spec in workloads.WORKLOADS.items():
        recorders.setdefault(spec["expect"], name)
    os.makedirs(os.path.join(run.HERE, "expected"), exist_ok=True)
    # Two campaigns at a time: one per core of a small box.
    with ThreadPoolExecutor(2) as pool:
        for workload in recorders.values():
            variants = range(workloads.INPUT_VARIANTS)
            futures = [pool.submit(_outputs, workload, v) for v in variants]
            recorded = {str(v): f.result() for v, f in zip(variants, futures)}
            lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in recorded.items()]
            with open(workloads.expectation_file(workload), "w", encoding="utf-8") as out:
                out.write("{\n" + ",\n".join(lines) + "\n}\n")
            print(f"recorded {workload}: {len(recorded)} variants", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
