"""One fresh interpreter: set up, then run one campaign when told to.

Protocol (one JSON object per line):

1. the child imports ``repro`` and numpy, loads the scenario registry and
   selects the popcount backend, then prints ``{"ready": ..., "machine":
   {...}}`` -- the parent times process start to this line as ``setup_s``;
2. it reads one job line from stdin and samples the machine's speed
   (:mod:`speed`) right after its set-up;
3. ``{"exit": true}`` ends it after printing ``{"setup_factor"}``; otherwise
   ``{"workload", "seed", "workdir", "trace", "tiny"}`` runs the campaign
   under the speed probe, prints ``{"outputs", "campaign_s", "cpu_s",
   "peak_rss_mb", "speed_factor", "cpu_speed_factor", "after_factor",
   "setup_factor", ...}`` (plus ``"layers"`` when traced) and exits.

Run by ``perfbench/run.py``, with ``PYTHONPATH`` pointing at ``src``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _setup() -> dict:
    """Everything a campaign needs before its first call; returns the machine record."""
    import numpy

    from repro.graphs import backend, fast
    from repro.runner import executor, registry  # noqa: F401 - part of set-up

    registry.scenario_names()
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "graph_backend": backend.policy(),
        "popcount": fast.configure_popcount(),
    }


def _usage() -> tuple:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, own.ru_maxrss, kids.ru_maxrss


def _campaign(job: dict) -> dict:
    import speed
    import workloads
    from repro.runner.pool import shutdown_pools

    tracer = collector = None
    if job["trace"]:
        import tracing
        from repro.obs import telemetry

        tracer = tracing.Tracer()
        tracer.install()
        collector = telemetry.enable(label="perfbench")

    def body():
        return workloads.run(
            job["workload"], job["seed"], job["workdir"], tiny=job["tiny"]
        )

    probe = speed.SpeedProbe()
    speed.probe_forked_children(job["workdir"])
    probe.start()
    cpu_before = _usage()[0]
    started = time.perf_counter()
    try:
        if tracer is not None:
            outputs, journal = tracer.call(tracing.ROOT, body)
        else:
            outputs, journal = body()
        campaign_s = time.perf_counter() - started
    finally:
        probe.stop()
    # Join the pool workers so their CPU time and peak RSS are counted.
    shutdown_pools()
    cpu_after, own_rss, kids_rss = _usage()
    worker_samples = speed.logged(job["workdir"])
    # Every process holds the probe's buffers (workers inherit them at fork);
    # they are not the program's memory.
    own_mb, kids_mb = (
        max(kib * 1024 - speed.PROBE_BYTES, 0) / 2**20 for kib in (own_rss, kids_rss)
    )
    result = {
        "outputs": outputs,
        "campaign_s": campaign_s,
        "cpu_s": cpu_after - cpu_before,
        "peak_rss_mb": max(own_mb, kids_mb),
        "speed_factor": probe.factor(worker_samples),
        "cpu_speed_factor": probe.factor(worker_samples, cpu=True),
        # The machine's speed just after the campaign, with no program
        # running between samples: with setup_factor, a check that the
        # program's own cache use does not move speed_factor.
        "after_factor": speed.SpeedProbe().burst().factor(),
        "parent_rss_mb": own_mb,
        "worker_rss_mb": kids_mb,
    }
    if tracer is not None:
        from repro.obs import telemetry

        telemetry.disable()
        tracer.uninstall()
        pins = workloads.WORKLOADS[job["workload"]]["env"]
        result["layers"] = tracing.layer_metrics(
            tracer,
            collector.snapshot(),
            journal_bytes=os.path.getsize(journal) if journal else 0,
            workers=int(pins.get("REPRO_PATH_WORKERS", "1")),
        )
    return result


def main() -> int:
    machine = _setup()
    print(json.dumps({"ready": True, "machine": machine}), flush=True)
    job = json.loads(sys.stdin.readline() or '{"exit": true}')
    import speed

    setup_factor = speed.SpeedProbe().burst().factor()
    result = {"setup_factor": setup_factor}
    if not job.get("exit"):
        result.update(_campaign(job))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
