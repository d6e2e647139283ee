"""Per-layer attribution for a traced campaign.

:class:`Tracer` wraps the public entry points of each layer (listed in
:data:`LAYER_CALLS`) from the outside: nothing in ``src/`` changes.  Every
call becomes an in-memory span ``[name, parent, start, end, child_time]``;
a span's *self time* is its duration minus the time covered by its direct
child spans, so self times of nested layers add up without double counting.
:func:`layer_metrics` folds the spans together with the program's own
``repro.obs`` counters and worker spans into the per-layer metrics the
benchmark reports, plus the residual no layer span covers.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: (module, class or None, attribute, span name, kind) of every wrapped call.
LAYER_CALLS = [
    ("repro.core.ddsr", "DDSROverlay", "k_regular", "generators.wire", "classmethod"),
    ("repro.core.ddsr", "DDSROverlay", "remove_node", "ddsr.mutate", "method"),
    ("repro.core.ddsr", "DDSROverlay", "remove_nodes", "ddsr.mutate", "method"),
    ("repro.graphs.fast", None, "csr_of", "fast.csr_sync", "function"),
    ("repro.graphs.fast", None, "build_csr", "fast.csr_build", "function"),
    ("repro.graphs.fast", None, "accumulate_path_shard", "fast.wave", "function"),
    ("repro.graphs.fast", None, "full_path_metrics", "fast.path_merge", "function"),
    ("repro.graphs.backend", None, "top_degree_nodes", "backend.top_degree", "function"),
    ("repro.adversary.takedown", "TargetedDegreeTakedown", "execute", "takedown.execute", "method"),
    ("repro.adversary.soap", "SoapAttack", "contain_node", "soap.contain", "method"),
    ("repro.adversary.soap", "SoapAttack", "run_campaign", "soap.campaign", "method"),
    ("repro.adversary.soap", "SoapAttack", "benign_subgraph_components", "soap.benign", "staticmethod"),
    ("repro.runner.pool", "WorkerPool", "publish_csr", "pool.publish", "method"),
    ("repro.runner.pool", "WorkerPool", "run_path_shards", "pool.fanout", "method"),
    ("repro.runner.journal", "CampaignJournal", "record_unit", "journal.record", "method"),
    ("repro.runner.journal", "CampaignJournal", "record_checkpoint_shard", "journal.record", "method"),
    ("repro.runner.journal", "CampaignJournal", "open", "journal.lifecycle", "method"),
    ("repro.runner.journal", "CampaignJournal", "finish", "journal.lifecycle", "method"),
    ("repro.runner.cache", "ResultCache", "get", "cache.io", "method"),
    ("repro.runner.cache", "ResultCache", "put", "cache.io", "method"),
    ("repro.runner.executor", None, "execute", "executor.execute", "function"),
]

#: Span names whose return values the tracer keeps (overlay stats, SOAP totals).
_KEEP_RESULTS = {"generators.wire", "soap.campaign"}

ROOT = "campaign"

#: Spans whose self time no layer metric reports: the campaign root, the
#: executor's own bookkeeping and the takedown loop.  Their sum is the
#: unattributed residual.
_UNREPORTED = (ROOT, "executor.execute", "takedown.execute")


class Tracer:
    """Records nested spans of wrapped calls, one call stack per thread."""

    def __init__(self) -> None:
        #: [name, parent index, start, end, child seconds]
        self.spans: List[list] = []
        self.results: Dict[str, List[Any]] = {name: [] for name in _KEEP_RESULTS}
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        record = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, 0.0]
        index = len(self.spans)
        self.spans.append(record)
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            stack.pop()
            if record[1] >= 0:
                self.spans[record[1]][4] += record[3] - record[2]
        if name in self.results:
            self.results[name].append(result)
        return result

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every call in :data:`LAYER_CALLS` (undone by :meth:`uninstall`)."""
        import importlib

        for module_name, owner_name, attr, name, kind in LAYER_CALLS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr] if owner_name else getattr(module, attr)
            if kind == "classmethod":
                wrapped: Any = classmethod(self._wrap(name, original.__func__))
            elif kind == "staticmethod":
                wrapped = staticmethod(self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
            setattr(owner, attr, wrapped)
            self._undo.append(functools.partial(setattr, owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    def self_times(self, name: str) -> List[float]:
        return [s[3] - s[2] - s[4] for s in self.spans if s[0] == name]

    def self_total(self, *names: str) -> float:
        return sum((t for name in names for t in self.self_times(name)), 0.0)

    def total(self, name: str) -> float:
        return sum((s[3] - s[2] for s in self.spans if s[0] == name), 0.0)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def victim_times(self) -> List[float]:
        """Per-victim wall time of a targeted takedown.

        One victim is one ``top_degree_nodes`` call plus the ``remove_node``
        that follows it: the interval from the start of the first to the end
        of the second, among the direct children of ``takedown.execute``.
        """
        times = []
        for index, span in enumerate(self.spans):
            if span[0] != "takedown.execute":
                continue
            started: Optional[float] = None
            for child in self.spans[index + 1:]:
                if child[1] != index:
                    continue
                if child[0] == "backend.top_degree":
                    started = child[2]
                elif child[0] == "ddsr.mutate" and started is not None:
                    times.append(child[3] - started)
                    started = None
        return times


def _quantile(values: List[float], q: int) -> float:
    """The ``q``-th percentile of ``values`` (0.0 when there are none)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(
    tracer: Tracer, snapshot: Dict[str, Any], *, journal_bytes: int, workers: int
) -> Dict[str, float]:
    """Per-layer metrics of one traced campaign.

    ``snapshot`` is the ``repro.obs`` collector snapshot of the campaign
    (worker snapshots already merged in by the program); ``workers`` is the
    pool width the workload pins, for the busy fraction.
    """
    counters = snapshot.get("counters", {})
    obs_spans = snapshot.get("spans", {})
    gauges = snapshot.get("gauges", {})

    def counter(name: str) -> float:
        return float(counters.get(name, 0))

    def obs_span(name: str) -> float:
        return float(obs_spans.get(name, {}).get("total_s", 0.0))

    overlays = tracer.results["generators.wire"]
    campaigns = tracer.results["soap.campaign"]
    worker_busy = obs_span("runner.path_shard")
    wave_s = tracer.self_total("fast.wave") + worker_busy
    node_levels = counter("wave.node_levels")
    syncs = {
        kind: counter("csr.cache." + kind)
        for kind in ("build", "patch", "rebuild_overflow", "rebuild_patch_rejected")
    }
    fanout_wall = tracer.total("pool.fanout")
    top_degree = tracer.self_times("backend.top_degree")
    contain = tracer.self_times("soap.contain")
    victims = tracer.victim_times()
    campaign_s = tracer.total(ROOT)
    unattributed = tracer.self_total(*_UNREPORTED)
    return {
        "generators.wire_s": tracer.self_total("generators.wire"),
        "ddsr.mutate_s": tracer.self_total("ddsr.mutate"),
        "ddsr.nodes_removed": float(sum(o.stats.nodes_removed for o in overlays)),
        "ddsr.repair_edges": float(sum(o.stats.repair_edges_added for o in overlays)),
        "ddsr.prune_ops": float(sum(o.stats.prune_operations for o in overlays)),
        "fast.csr_sync_s": tracer.self_total("fast.csr_sync"),
        "fast.csr_sync.calls": float(tracer.count("fast.csr_sync")),
        "fast.csr_build_s": tracer.self_total("fast.csr_build"),
        "fast.csr_patch_ratio": (
            syncs["patch"] / sum(syncs.values()) if sum(syncs.values()) else 0.0
        ),
        "fast.csr_ghosts": float(gauges.get("csr.ghosts", 0)),
        "fast.wave_s": wave_s,
        "fast.wave.levels": counter("wave.levels"),
        "fast.wave.dense": counter("wave.dispatch.dense"),
        "fast.wave.sparse": counter("wave.dispatch.sparse"),
        "fast.wave.pull": counter("wave.dispatch.pull"),
        "fast.wave.node_levels": node_levels,
        "fast.wave.node_levels_per_s": node_levels / wave_s if wave_s else 0.0,
        "fast.path_merge_s": tracer.self_total("fast.path_merge"),
        "backend.top_degree_s": sum(top_degree, 0.0),
        "backend.top_degree_p50_s": _quantile(top_degree, 50),
        "backend.top_degree_p90_s": _quantile(top_degree, 90),
        "takedown.victim_p50_s": _quantile(victims, 50),
        "takedown.victim_p90_s": _quantile(victims, 90),
        "soap.contain_s": sum(contain, 0.0),
        "soap.contain_p50_s": _quantile(contain, 50),
        "soap.contain_p90_s": _quantile(contain, 90),
        "soap.campaign_self_s": tracer.self_total("soap.campaign"),
        "soap.benign_s": tracer.self_total("soap.benign"),
        "soap.clones_created": float(sum(c.clones_created for c in campaigns)),
        "soap.peering_requests": float(sum(c.peering_requests for c in campaigns)),
        "pool.spinup_s": obs_span("runner.pool_spinup"),
        "pool.publish_s": tracer.self_total("pool.publish"),
        "pool.fanout_s": tracer.self_total("pool.fanout"),
        "pool.worker_busy_s": worker_busy,
        "pool.busy_fraction": (
            worker_busy / (workers * fanout_wall) if fanout_wall else 0.0
        ),
        "pool.bytes_shipped": counter("runner.pool.bytes_shipped"),
        "pool.publish_attach": counter("runner.pool.publish_attach"),
        "pool.publish_reattach": counter("runner.pool.publish_reattach"),
        "pool.publish_patch": counter("runner.pool.publish_patch"),
        "journal.append_s": tracer.self_total("journal.record", "journal.lifecycle"),
        "journal.records": float(tracer.count("journal.record")),
        "journal.bytes": float(journal_bytes),
        "cache.io_s": tracer.self_total("cache.io"),
        "cache.hits": counter("runner.cache.hit"),
        "executor.execute_s": tracer.total("executor.execute"),
        "executor.unattributed_s": unattributed,
        "executor.unattributed_fraction": unattributed / campaign_s if campaign_s else 0.0,
    }
