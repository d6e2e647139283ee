"""The benchmark's workloads: what each one runs and which outputs it checks.

Each workload turns an *input seed* into a campaign on the program and
returns the campaign's scientific outputs as a plain JSON-friendly dict.
Only the generated inputs (sizes, spec seed, victim rng) reach the program.

The benchmark's ``--seed`` selects one of :data:`INPUT_VARIANTS` recorded
input variants (``seed % INPUT_VARIANTS``), because every run's outputs are
checked against the outputs recorded for its variant in ``expected/``
(regenerate them with ``python3 perfbench/record.py``).
"""

from __future__ import annotations

import hashlib
import os
from typing import Any, Callable, Dict

#: How many distinct input variants the seeds map onto (all recorded).
INPUT_VARIANTS = 16

_RESILIENCE = {"n": 20_000, "k": 8, "max_fraction": 0.05, "checkpoints": 4}
_RESILIENCE_TINY = {"n": 2_400, "k": 8, "max_fraction": 0.05, "checkpoints": 2}

#: name -> kind, full-size params, tiny params (self-tests), env pins, and
#: the expectation file it is checked against.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "exact-resilience": {
        "kind": "scenario",
        "scenario": "resilience-at-scale",
        "params": _RESILIENCE,
        "tiny": _RESILIENCE_TINY,
        "env": {},
        "expect": "resilience",
    },
    "pooled-resilience": {
        "kind": "scenario",
        "scenario": "resilience-at-scale",
        "params": _RESILIENCE,
        "tiny": _RESILIENCE_TINY,
        "env": {"REPRO_PATH_WORKERS": "2"},
        "expect": "resilience",
    },
    "hub-takedown": {
        "kind": "takedown",
        "params": {"n": 20_000, "k": 10, "count": 300},
        "tiny": {"n": 2_400, "k": 10, "count": 30},
        "env": {},
        "expect": "hub-takedown",
    },
    "soap-containment": {
        "kind": "scenario",
        "scenario": "soap-at-scale",
        "params": {"n": 20_000},
        "tiny": {"n": 2_400},
        "env": {},
        "expect": "soap-containment",
    },
}


def input_seed(seed: int) -> int:
    """The recorded input variant a benchmark ``--seed`` selects."""
    return seed % INPUT_VARIANTS


def derive(seed: int, label: str) -> int:
    """A stable 32-bit seed for one generated input of a variant."""
    digest = hashlib.sha256(f"perfbench:{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _scenario(spec: Dict[str, Any], params: Dict[str, Any], seed: int, workdir: str):
    """Run a registered scenario as the CLI does: fresh cache dir and journal."""
    from repro.runner import executor
    from repro.runner.cache import ResultCache
    from repro.runner.spec import ScenarioSpec

    scenario_spec = ScenarioSpec(
        name=spec["scenario"], params=dict(params), seed=derive(seed, "spec")
    )
    journal = os.path.join(workdir, "journal.jsonl")
    result = executor.execute(
        scenario_spec,
        cache=ResultCache(os.path.join(workdir, "cache")),
        journal=journal,
    )
    return {"units": result.unit_metrics}, journal


def _takedown(spec: Dict[str, Any], params: Dict[str, Any], seed: int, workdir: str):
    """Wire a k-regular overlay, then remove its hubs one at a time."""
    import random

    from repro.adversary.takedown import TargetedDegreeTakedown
    from repro.core.ddsr import DDSROverlay

    overlay = DDSROverlay.k_regular(
        params["n"], params["k"], seed=derive(seed, "wiring")
    )
    attack = TargetedDegreeTakedown(
        count=params["count"], rng=random.Random(derive(seed, "victims"))
    )
    result = attack.execute(overlay)
    return {
        "victims": list(result.victims),
        "summary": {
            "strategy": result.strategy,
            "surviving_nodes": result.surviving_nodes,
            "connected_components": result.connected_components,
            "largest_component_fraction": result.largest_component_fraction,
            "max_degree": result.max_degree,
            "repairs_performed": result.repairs_performed,
        },
    }, None


_KINDS: Dict[str, Callable] = {"scenario": _scenario, "takedown": _takedown}


def run(name: str, seed: int, workdir: str, *, tiny: bool = False):
    """Run workload ``name`` on input variant ``seed``.

    Returns ``(outputs, journal_path)``; the journal path is ``None`` for
    workloads that do not go through the runner.
    """
    spec = WORKLOADS[name]
    params = spec["tiny"] if tiny else spec["params"]
    return _KINDS[spec["kind"]](spec, params, seed, workdir)


def expectation_file(name: str) -> str:
    """Where the recorded outputs for workload ``name`` live."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, "expected", WORKLOADS[name]["expect"] + ".json")
