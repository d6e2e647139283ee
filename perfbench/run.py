"""End-to-end campaign benchmark with per-layer attribution.

Usage, from the repository root::

    python3 perfbench/run.py --workload exact-resilience --seed 3 --seconds 30 --trace 0

Every campaign runs in a fresh interpreter (``perfbench/child.py``) whose
environment carries no inherited ``REPRO_*`` variable except the workload's
own pins.  With ``--trace 0`` the run first times several bare set-ups, then
runs campaigns until ``--seconds`` is spent, and reports the medians of the
end-to-end metrics listed in ``BENCHMARK.json``.  With ``--trace 1`` it runs
one untraced and one traced campaign and reports the per-layer metrics.
Times are scaled to a reference machine speed measured while they run
(``perfbench/speed.py``); the raw times are kept in the ``perfbench`` record.
Every campaign's outputs are compared with the outputs recorded for its
input variant in ``perfbench/expected``; a mismatch, an exception, a timeout
or a leaked ``/dev/shm/repro-pool-*`` segment counts as a failed campaign.

The last stdout line is the result object ``{"correct", "attempted",
"failed", "metrics"}``; the line before it is a ``{"perfbench": ...}``
record with the samples, quartiles, failures and the machine record.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORKDIR = os.path.join(ROOT, ".perfbench-work")
SHM_DIR = "/dev/shm"
SHM_PREFIX = "repro-pool-"

sys.path.insert(0, HERE)
import workloads  # noqa: E402

#: Bare set-ups timed before the campaigns of an untraced run.
SETUP_SAMPLES = 4
#: Longest one campaign may take before it is killed and counted as failed.
CAMPAIGN_TIMEOUT = 120.0
#: Every child is killed, and no new one started, this many seconds into a run.
RUN_LIMIT = 170.0


class CampaignFailed(Exception):
    """A campaign that produced no usable measurement."""


def child_env(pins: Dict[str, str]) -> Dict[str, str]:
    """The parent environment minus every ``REPRO_*`` variable, plus ``pins``."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(pins)
    env["PYTHONPATH"] = SRC
    return env


def shm_segments() -> set:
    try:
        return {name for name in os.listdir(SHM_DIR) if name.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _read_line(proc: subprocess.Popen, deadline: float) -> dict:
    """Read the child's ready line without buffering past it."""
    fd = proc.stdout.fileno()
    data = b""
    while not data.endswith(b"\n"):
        remaining = deadline - time.perf_counter()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise CampaignFailed("timed out during set-up")
        chunk = os.read(fd, 65536)
        if not chunk:
            raise CampaignFailed(f"exited during set-up (code {proc.wait()})")
        data += chunk
    return json.loads(data)


def _stop(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the child's process group and reap the child."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def launch(env: Dict[str, str], job: dict, deadline: float) -> dict:
    """Run one fresh child through set-up and ``job``; returns its record.

    The record holds the raw ``setup_s``, the ``ready`` line's ``machine``
    and the child's last line under ``result``: its ``setup_factor`` and,
    unless ``job`` is an exit, its campaign result.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, CHILD],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        bufsize=0,
        env=env,
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        ready = _read_line(proc, deadline)
        record: Dict[str, Any] = {
            "setup_s": time.perf_counter() - started,
            "machine": ready["machine"],
        }
        try:
            out, _ = proc.communicate(
                (json.dumps(job) + "\n").encode(),
                timeout=max(deadline - time.perf_counter(), 0.1),
            )
        except subprocess.TimeoutExpired:
            raise CampaignFailed("timed out") from None
        if proc.returncode != 0:
            raise CampaignFailed(f"exited with code {proc.returncode}")
        lines = out.decode().strip().splitlines()
        if not lines:
            raise CampaignFailed("printed no result")
        record["result"] = json.loads(lines[-1])
        return record
    finally:
        _stop(proc)


def reference_time(result: dict, name: str) -> float:
    """A campaign's measured seconds scaled to the probe's reference speed.

    CPU seconds are scaled by the factor from the kernel's CPU times.
    """
    factor = result["cpu_speed_factor" if name == "cpu_s" else "speed_factor"]
    return result[name] * factor


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def load_expected(workload: str, variant: int) -> Any:
    with open(workloads.expectation_file(workload), encoding="utf-8") as handle:
        return json.load(handle)[str(variant)]


def benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    tiny: bool = False,
    expected: Any = None,
) -> Dict[str, Any]:
    """Run one benchmark invocation; returns ``{"result", "detail"}``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    spec = workloads.WORKLOADS[workload]
    variant = workloads.input_seed(seed)
    if expected is None:
        expected = load_expected(workload, variant)
    env = child_env(spec["env"])
    started = time.perf_counter()
    limit = started + RUN_LIMIT
    #: (raw set-up seconds, speed factor) per child
    setups: List[tuple] = []
    measured: List[dict] = []
    passed: List[dict] = []
    walls: List[float] = []
    failures: List[str] = []
    machine: Dict[str, Any] = {}

    def campaign(traced: bool) -> Optional[dict]:
        """One campaign in a fresh child; returns its result if it passed."""
        nonlocal machine
        name = f"campaign {len(walls)}"
        path = os.path.join(WORKDIR, f"{os.getpid()}-{len(walls)}")
        os.makedirs(path)
        job = {
            "workload": workload,
            "seed": variant,
            "workdir": path,
            "trace": traced,
            "tiny": tiny,
        }
        before = shm_segments()
        began = time.perf_counter()
        try:
            record = launch(env, job, min(began + CAMPAIGN_TIMEOUT, limit))
        except CampaignFailed as error:
            failures.append(f"{name}: {error}")
            return None
        finally:
            shutil.rmtree(path, ignore_errors=True)
            walls.append(time.perf_counter() - began)
        setups.append((record["setup_s"], record["result"]["setup_factor"]))
        machine = record["machine"]
        result = record["result"]
        measured.append(result)
        leaked = shm_segments() - before
        if leaked:
            failures.append(f"{name}: leaked {sorted(leaked)}")
        elif result["outputs"] != expected:
            failures.append(f"{name}: outputs differ from the expected outputs")
        else:
            passed.append(result)
            return result
        return None

    if trace:
        plain = campaign(False)
        traced = campaign(True)
        if plain and traced and plain["outputs"] != traced["outputs"]:
            failures.append("traced outputs differ from untraced outputs")
    else:
        for _ in range(SETUP_SAMPLES):
            try:
                record = launch(env, {"exit": True}, limit)
                setups.append((record["setup_s"], record["result"]["setup_factor"]))
            except CampaignFailed as error:
                failures.append(f"set-up: {error}")
        while not walls or (
            time.perf_counter() - started + max(walls) <= seconds
            and time.perf_counter() < limit
        ):
            campaign(False)

    # A failed set-up is a failed attempt too; every other failure is one
    # campaign's (or, traced, the pair's).
    attempted = len(walls) + sum(f.startswith("set-up") for f in failures)
    failed = min(len(failures), attempted)
    # Metrics come from the passing campaigns, or, when none passed, from
    # whatever was measured (the result then says it is not correct).
    kept = passed or measured
    if not kept or (trace and len(measured) < 2):
        raise CampaignFailed("; ".join(failures) or "no campaign completed")
    if trace:
        plain, traced = measured
        units = {entry["name"]: entry["unit"] for entry in declared["per_layer"]}
        factor = traced["speed_factor"]
        # Layer times are scaled to the reference speed like campaign_s.
        values = {
            name: value * factor if units.get(name) == "s"
            else value / factor if units.get(name) == "1/s"
            else value
            for name, value in traced["layers"].items()
        }
        values["obs.trace_overhead_fraction"] = (
            reference_time(traced, "campaign_s") / reference_time(plain, "campaign_s")
            - 1.0
        )
        samples = {name: [value] for name, value in values.items()}
        samples["speed_factor"] = [plain["speed_factor"], factor]
        listed = declared["per_layer"]
    else:
        samples = {
            "setup_s": [raw * factor for raw, factor in setups],
            "campaign_s": [reference_time(c, "campaign_s") for c in kept],
            "cpu_s": [reference_time(c, "cpu_s") for c in kept],
            "peak_rss_mb": [c["peak_rss_mb"] for c in kept],
        }
        values = {name: statistics.median(v) for name, v in samples.items()}
        samples.update(
            {
                "raw_setup_s": [raw for raw, _ in setups],
                "setup_speed_factor": [factor for _, factor in setups],
                "raw_campaign_s": [c["campaign_s"] for c in kept],
                "raw_cpu_s": [c["cpu_s"] for c in kept],
                "speed_factor": [c["speed_factor"] for c in kept],
                "cpu_speed_factor": [c["cpu_speed_factor"] for c in kept],
                "idle_speed_factor": [
                    (c["setup_factor"] + c["after_factor"]) / 2 for c in kept
                ],
                "parent_rss_mb": [c["parent_rss_mb"] for c in kept],
                "worker_rss_mb": [c["worker_rss_mb"] for c in kept],
            }
        )
        listed = declared["end_to_end"]
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in listed
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "input_variant": variant,
        "seconds": seconds,
        "trace": int(trace),
        "failed_fraction": failed / attempted,
        "failures": failures,
        "samples": samples,
        "quartiles": {name: quartiles(v) for name, v in samples.items()},
        "machine": dict(machine, commit=commit(), env_pins=spec["env"]),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return {"result": result, "detail": detail}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    try:
        report = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except CampaignFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass
    print(json.dumps({"perfbench": report["detail"]}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
