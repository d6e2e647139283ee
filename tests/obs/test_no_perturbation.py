"""Telemetry is observation only: instrumented runs are bit-identical to dark.

These differentials are the hard contract of the obs subsystem.  Every test
runs the same campaign twice -- collector off, collector on -- and asserts
the scientific outputs (wave results, unit metrics, cache keys) are equal,
then that the collector actually saw the run (so the differential cannot
silently pass because the instrumentation went dead).
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.graphs import backend
from repro.graphs.generators import k_regular_graph
from repro.obs import telemetry
from repro.runner.executor import run_scenario, sharded_full_path_metrics
from repro.runner.spec import ScenarioSpec


def _engines(monkeypatch):
    """Yield each exact-path-metric engine this machine can run, pinned."""
    from repro.graphs import _native

    if _native.load() is not None:
        yield "native"
    with monkeypatch.context() as patch:
        patch.setattr(_native, "load", lambda: None)
        yield "numpy"


def _wiring_engines(monkeypatch):
    """Yield each k-regular wiring engine this machine can run, pinned."""
    from repro.graphs import _native, generators

    if generators.wiring_kernel() == "native":
        yield "native"
    with monkeypatch.context() as patch:
        patch.setattr(_native, "load", lambda: None)
        yield "python"


class TestWiringDifferential:
    def test_overlay_wired_identically_with_collection_on(self, monkeypatch):
        import random

        def wired():
            rng = random.Random(17)
            graph = k_regular_graph(500, 8, rng=rng)
            rows = [(node, list(peers)) for node, peers in graph._adjacency.items()]
            return rows, graph.mutation_stamp, rng.getstate()

        dark = wired()
        engines = []
        for engine in _wiring_engines(monkeypatch):
            assert wired() == dark
            with telemetry.collecting() as collector:
                lit = wired()
            assert lit == dark
            assert collector.snapshot()["gauges"]["wiring.kernel"] == engine
            engines.append(engine)
        assert engines[-1] == "python"


class TestWaveCampaignDifferential:
    def test_full_path_metrics_bit_identical_with_collection_on(self, monkeypatch):
        from repro.graphs import fast

        graph = k_regular_graph(400, 6, seed=5)
        with backend.using("fast"):
            dark = fast.full_path_metrics(graph)
        for engine in _engines(monkeypatch):
            with backend.using("fast"):
                with telemetry.collecting() as collector:
                    lit = fast.full_path_metrics(graph)
            assert lit == dark
            # The wave engine was genuinely observed, per-level and per-wave.
            snap = collector.snapshot()["counters"]
            assert snap["wave.count"] >= 1
            assert snap["wave.sources"] == 400
            assert snap["wave.levels"] >= 1
            dispatch = sum(v for k, v in snap.items() if k.startswith("wave.dispatch."))
            assert dispatch == snap["wave.levels"]
            gauges = collector.snapshot()["gauges"]
            assert gauges["wave.kernel"] == engine
            if engine == "numpy":
                assert gauges["wave.popcount_backend"] in ("native", "lut")

    def test_closeness_campaign_identical_and_csr_cache_observed(self):
        import random

        from repro.graphs import fast

        graph = k_regular_graph(300, 6, seed=9)
        with backend.using("fast"):
            dark = fast.average_closeness_centrality(
                graph, sample_size=64, rng=random.Random(3)
            )
            with telemetry.collecting() as collector:
                fresh = k_regular_graph(300, 6, seed=9)
                fast.csr_of(fresh)  # first sight of this graph: a build
                lit = fast.average_closeness_centrality(
                    graph, sample_size=64, rng=random.Random(3)
                )
        assert lit == dark
        counters = collector.snapshot()["counters"]
        assert counters["csr.cache.build"] == 1
        assert counters["csr.cache.hit"] >= 1  # dark run left graph's CSR warm

    def test_wave_frontier_accounting_is_consistent(self, monkeypatch):
        """Dispatch/frontier counters describe the same levels the engine ran."""
        from repro.graphs import fast

        graph = k_regular_graph(500, 8, seed=13)
        frontier_rows = set()
        for _engine in _engines(monkeypatch):
            # One wave width for both engines, so their waves are the same.
            with backend.using("fast"), backend.using_bfs_batch(256):
                with telemetry.collecting() as collector:
                    fast.full_path_metrics(graph)
            counters = collector.snapshot()["counters"]
            # The level-map rows scanned per level always span all n nodes.
            assert counters["wave.node_levels"] == 500 * counters["wave.levels"]
            # Scratch buffers were recycled: at most one miss per width in use.
            assert counters.get("wave.scratch.miss", 0) <= counters["wave.count"]
            frontier_rows.add(counters["wave.frontier_rows"])
        # The rows each level newly reaches do not depend on the engine.
        assert len(frontier_rows) == 1


class TestRunnerDifferential:
    SCENARIO = dict(params={"n": 60, "hours": 3}, trials=2, seed=0)

    def test_serial_scenario_bit_identical(self):
        dark = run_scenario("soap-under-churn", **self.SCENARIO)
        with telemetry.collecting() as collector:
            lit = run_scenario("soap-under-churn", **self.SCENARIO)
        assert lit.unit_metrics == dark.unit_metrics
        snap = collector.snapshot()
        assert snap["gauges"]["runner.units"] == 2
        assert snap["spans"]["runner.unit"]["count"] == 2
        assert snap["spans"]["runner.execute"]["count"] == 1

    def test_pooled_scenario_bit_identical_and_worker_spans_merge(self):
        from repro.runner.pool import shutdown_pools

        dark = run_scenario("soap-under-churn", **self.SCENARIO)
        # The pool is persistent (one spin-up per invocation, not per
        # campaign); retire any pool a previous test left warm so the
        # spin-up span lands inside this collector deterministically.
        shutdown_pools()
        with telemetry.collecting() as collector:
            lit = run_scenario("soap-under-churn", workers=2, **self.SCENARIO)
        assert lit.unit_metrics == dark.unit_metrics
        snap = collector.snapshot()
        # Worker-side collectors rode back with the shard results: the
        # per-unit spans were recorded in child processes, merged here.
        assert snap["spans"]["runner.unit"]["count"] == 2
        assert snap["spans"]["runner.pool_spinup"]["count"] == 1
        assert snap["gauges"]["runner.pool_workers"] >= 1

    def test_cache_keys_unchanged_by_telemetry(self, monkeypatch):
        spec = ScenarioSpec(
            name="soap-under-churn", params={"n": 60, "hours": 3}, trials=2, seed=0
        )
        units = spec.work_units()
        monkeypatch.delenv(telemetry.ENV_VAR, raising=False)
        dark_keys = [unit.key_material("v1") for unit in units]
        monkeypatch.setenv(telemetry.ENV_VAR, "report.json")
        with telemetry.collecting():
            lit_keys = [unit.key_material("v1") for unit in units]
        assert lit_keys == dark_keys
        assert all("telemetry" not in key.lower() for key in dark_keys)


class TestShardedPathMetricsDifferential:
    @pytest.fixture(scope="class")
    def graph(self):
        return k_regular_graph(600, 6, seed=17)

    @pytest.fixture(scope="class")
    def dark(self, graph):
        with backend.using("fast"):
            return sharded_full_path_metrics(graph, workers=1)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_sharded_bit_identical_with_merged_worker_collectors(
        self, graph, dark, workers
    ):
        from repro.runner.pool import shutdown_pools

        # Pools persist across campaigns; retire any warm pool so this
        # collector observes the (single) spin-up span itself.
        shutdown_pools()
        with backend.using("fast"):
            with telemetry.collecting() as collector:
                lit = sharded_full_path_metrics(graph, workers=workers)
        assert lit == dark
        snap = collector.snapshot()
        shards = snap["gauges"]["runner.path_shards"]
        assert shards == workers  # even ceil-split: one shard per worker
        # One worker-local accumulate span per shard, merged exactly; the
        # shard source counters add back up to the full population.
        assert snap["spans"]["runner.path_shard"]["count"] == shards
        assert snap["counters"]["runner.path_shard.sources"] == 600
        assert snap["spans"]["runner.pool_spinup"]["count"] == 1

    def test_sharded_dark_run_still_bit_identical(self, graph, dark):
        """The telemetry plumbing itself must not perturb an uninstrumented run."""
        with backend.using("fast"):
            again = sharded_full_path_metrics(graph, workers=2)
        assert again == dark
