"""Pool-lifecycle tests: persistence, shm publication, and failure paths.

The persistent pool's hard contracts, each locked by a differential or a
failure injection:

* consecutive campaigns and checkpoints reuse one executor (a single
  ``runner.pool_spinup`` span) and one shared-memory publication per
  graph, re-published once per graph mutation;
* pooled results are bit-identical to serial, including across graph
  mutations between checkpoints;
* a killed worker is respawned exactly once and only unmerged shards are
  retried; a second kill or a raising task surfaces with the failing
  shard's unit context;
* no ``/dev/shm`` segment with the pool prefix survives a close, a kill,
  or the published graph's death.
"""

from __future__ import annotations

import gc
import glob
import os
import signal

import pytest

np = pytest.importorskip("numpy")

from repro.graphs import backend, fast
from repro.graphs.generators import k_regular_graph
from repro.obs import telemetry
from repro.runner import pool as pool_mod
from repro.runner.executor import run_scenario, sharded_full_path_metrics
from repro.runner.pool import (
    SHM_PREFIX,
    PoolError,
    PoolTaskError,
    WorkerPool,
    get_pool,
    shutdown_pools,
)
from repro.runner.registry import scenario, unregister


def _pool_segments():
    """Live ``/dev/shm`` segments created by the pool (leak audit)."""
    return glob.glob(f"/dev/shm/{SHM_PREFIX}*")


@pytest.fixture(autouse=True)
def _fresh_pools():
    """Each test starts from cold pools and must leak no segments."""
    shutdown_pools()
    yield
    shutdown_pools()
    gc.collect()
    assert _pool_segments() == []


class TestPoolLifecycle:
    def test_get_pool_is_persistent_and_recreated_after_close(self):
        first = get_pool(2)
        assert get_pool(2) is first
        first.close()
        second = get_pool(2)
        assert second is not first
        assert not second.closed

    def test_closed_pool_refuses_work(self):
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(PoolError, match="closed"):
            pool.publish_csr(k_regular_graph(20, 4, seed=0), object())

    def test_one_spinup_span_across_campaigns_and_checkpoints(self):
        """Two unit campaigns and two path campaigns: one executor spin-up."""
        graph = k_regular_graph(300, 6, seed=7)
        kwargs = dict(params={"n": 60, "hours": 3}, trials=2, workers=2)
        with telemetry.collecting() as collector:
            run_scenario("soap-under-churn", seed=0, **kwargs)
            run_scenario("soap-under-churn", seed=1, **kwargs)
            with backend.using("fast"):
                sharded_full_path_metrics(graph, workers=2)
                graph.remove_node(0)
                sharded_full_path_metrics(graph, workers=2)
        snap = collector.snapshot()
        assert snap["spans"]["runner.pool_spinup"]["count"] == 1


class TestSharedMemoryPublication:
    def test_checkpoints_reuse_publication_via_delta_patches(self):
        """Attach once, re-attach per mutated checkpoint; all bit-identical.

        Mutations are no longer shipped as delta patches: every graph
        mutation re-publishes the arrays, and an unchanged checkpoint reuses
        the live publication.
        """
        graph = k_regular_graph(500, 6, seed=11)
        checkpoints = ((), (3, 77), (141, 200, 250), ())
        expected, got = [], []
        with telemetry.collecting() as collector:
            with backend.using("fast"):
                for victims in checkpoints:
                    for victim in victims:
                        graph.remove_node(victim)
                    got.append(sharded_full_path_metrics(graph, workers=2))
        # Serial ground truth computed afterwards on an identical replica.
        replica = k_regular_graph(500, 6, seed=11)
        with backend.using("fast"):
            for victims in checkpoints:
                for victim in victims:
                    replica.remove_node(victim)
                expected.append(fast.full_path_metrics(replica))
        assert got == expected
        assert got[0] != got[1] != got[2] == got[3]
        counters = collector.snapshot()["counters"]
        # The last checkpoint left the graph unchanged: no new segments.
        assert counters["runner.pool.publish_attach"] == 1
        assert counters["runner.pool.publish_reattach"] == 2
        assert counters.get("runner.pool.publish_patch", 0) == 0
        assert counters["runner.pool.shm_attach"] >= 1
        # Two workers serve three generations: at least one warm worker
        # swapped its mirror for the re-published arrays.
        assert counters["runner.pool.shm_reattach"] >= 1
        assert counters["runner.pool.bytes_shipped"] > 0

    def test_compaction_forces_reattach_not_a_wrong_patch(self):
        """A rebuilt CSR (new epoch, same graph) must re-ship the arrays."""
        graph = k_regular_graph(400, 6, seed=13)
        with telemetry.collecting() as collector:
            with backend.using("fast"):
                first = sharded_full_path_metrics(graph, workers=2)
                graph.remove_node(5)
                # Simulate a cache-dropping compaction: the next csr_of()
                # rebuilds from scratch in a fresh index space.
                if hasattr(graph, "_csr_cache"):
                    delattr(graph, "_csr_cache")
                second = sharded_full_path_metrics(graph, workers=2)
                serial = fast.full_path_metrics(graph)
        assert second == serial
        assert first != second
        counters = collector.snapshot()["counters"]
        assert counters["runner.pool.publish_reattach"] == 1
        assert counters.get("runner.pool.publish_patch", 0) == 0

    def test_segments_released_when_published_graph_dies(self):
        """The weakref finalizer unlinks /dev/shm before the pool closes."""
        graph = k_regular_graph(300, 6, seed=17)
        with backend.using("fast"):
            sharded_full_path_metrics(graph, workers=2)
        assert _pool_segments() != []
        del graph
        gc.collect()
        assert _pool_segments() == []

    def test_close_unlinks_segments_while_graph_still_alive(self):
        graph = k_regular_graph(300, 6, seed=19)
        with backend.using("fast"):
            sharded_full_path_metrics(graph, workers=2)
        assert _pool_segments() != []
        shutdown_pools()
        assert _pool_segments() == []


def _register_kamikaze(name: str, kills: str = "once"):
    """A scenario whose worker SIGKILLs itself (``once`` or ``always``)."""

    @scenario(name=name, defaults={"marker": "", "bias": 0})
    def kamikaze(*, seed: int, marker: str, bias: int):
        if kills == "always" or not os.path.exists(marker):
            if kills == "once":
                with open(marker, "w", encoding="utf-8"):
                    pass
            os.kill(os.getpid(), signal.SIGKILL)
        return {"value": float(seed % 1000 + bias)}

    return kamikaze


class TestFailurePaths:
    def test_killed_worker_respawns_and_retries_only_unfinished(self, tmp_path):
        """First attempt dies mid-campaign; the respawned pool completes it."""
        _register_kamikaze("test-pool-kamikaze", kills="once")
        try:
            marker = str(tmp_path / "survived")
            with telemetry.collecting() as collector:
                result = run_scenario(
                    "test-pool-kamikaze",
                    params={"marker": marker, "bias": 7},
                    trials=2,
                    seed=3,
                    workers=2,
                )
            serial = run_scenario(
                "test-pool-kamikaze",
                params={"marker": marker, "bias": 7},
                trials=2,
                seed=3,
            )
            assert result.unit_metrics == serial.unit_metrics
            assert collector.snapshot()["counters"]["runner.pool.respawn"] == 1
        finally:
            unregister("test-pool-kamikaze")

    def test_repeatedly_killed_worker_raises_pool_error_with_context(
        self, tmp_path, monkeypatch
    ):
        # Degraded-serial would run the kamikaze *in-parent* (killing the
        # test process); disable it to reach the fail-fast PoolError path.
        monkeypatch.setenv("REPRO_DEGRADED_SERIAL", "0")
        _register_kamikaze("test-pool-kamikaze-always", kills="always")
        try:
            with pytest.raises(PoolError, match="unfinished"):
                run_scenario(
                    "test-pool-kamikaze-always",
                    params={"marker": str(tmp_path / "never")},
                    trials=2,
                    seed=3,
                    workers=2,
                )
        finally:
            unregister("test-pool-kamikaze-always")
        # The broken executor left nothing behind.
        shutdown_pools()
        assert _pool_segments() == []

    def test_raising_task_surfaces_unit_context_and_cause(self):
        @scenario(name="test-pool-raises", defaults={"bias": 0})
        def raises(*, seed: int, bias: int):
            raise ValueError(f"boom seed={seed}")

        try:
            with pytest.raises(PoolTaskError) as excinfo:
                run_scenario(
                    "test-pool-raises",
                    params={"bias": 2},
                    trials=2,
                    seed=5,
                    workers=2,
                )
            message = str(excinfo.value)
            assert "test-pool-raises" in message
            assert "(index, params, seed)" in message
            assert "'bias': 2" in message
            assert isinstance(excinfo.value.__cause__, ValueError)
        finally:
            unregister("test-pool-raises")

    def test_killed_idle_worker_does_not_poison_path_campaign(self):
        """Kill a pool worker between checkpoints: respawn, same numbers."""
        graph = k_regular_graph(400, 6, seed=23)
        with backend.using("fast"):
            serial = fast.full_path_metrics(graph)
            first = sharded_full_path_metrics(graph, workers=2)
            assert first == serial
            pool = get_pool(2)
            victim = next(iter(pool._executor._processes.values()))
            os.kill(victim.pid, signal.SIGKILL)
            second = sharded_full_path_metrics(graph, workers=2)
        assert second == serial
        shutdown_pools()
        assert _pool_segments() == []


class TestCheckpointedTakedownDifferential:
    def test_gradual_takedown_pooled_checkpoints_bit_identical(self):
        """Pooled exact metrics == GradualTakedown's serial ones, every checkpoint.

        The takedown's victims are replayed on a replica overlay; at each
        checkpoint the replica is measured by the runner's pooled campaign,
        which re-publishes the mutated CSR for the warm workers.
        """
        from repro.adversary.takedown import GradualTakedown
        from repro.core.ddsr import DDSROverlay
        import random

        strategy = GradualTakedown(
            fraction=0.2,
            checkpoints=3,
            rng=random.Random(4),
            path_metrics=True,
            metric_sample=None,
        )
        replica = DDSROverlay.k_regular(150, 8, seed=1)
        with backend.using("fast"):
            serial = strategy.execute_with_checkpoints(
                DDSROverlay.k_regular(150, 8, seed=1)
            )
            assert len(serial) >= 3
            for checkpoint in serial:
                for victim in checkpoint.victims:
                    if victim in replica.graph:
                        replica.remove_node(victim)
                pooled = sharded_full_path_metrics(replica.graph, workers=2)
                assert pooled["components"] == checkpoint.connected_components
                assert pooled["largest_fraction"] == checkpoint.largest_component_fraction
                assert {
                    key: pooled[key]
                    for key in ("diameter", "avg_path_length", "avg_closeness")
                } == checkpoint.path_metrics


class TestPooledUnitsWithPooledPathMetrics:
    def test_unit_fanout_with_path_workers_finishes_bit_identically(self):
        """``execute(workers=2)`` under ``REPRO_PATH_WORKERS=2`` finishes.

        Forked unit workers inherit the parent's pool registry; before the
        fix a worker's exact campaign submitted to that inherited pool and
        waited forever.  Workers now run path metrics serially.  Run in a
        subprocess under a timeout so a regression fails instead of hanging.
        """
        import json
        import subprocess
        import sys
        from pathlib import Path

        params = {
            "n": 2600, "k": 8, "max_fraction": 0.05, "checkpoints": 2,
            "metric_sample": None, "closeness_sample": None,
        }
        code = (
            "import json, sys\n"
            "from repro.runner.executor import run_scenario\n"
            "result = run_scenario('resilience-at-scale', params=json.loads(sys.argv[1]),"
            " trials=2, seed=1, workers=2)\n"
            "print(json.dumps(result.unit_metrics))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        env["REPRO_PATH_WORKERS"] = "2"
        child = subprocess.Popen(
            [sys.executable, "-c", code, json.dumps(params)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            start_new_session=True,
        )
        try:
            stdout, stderr = child.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            # Take the hung workers down with the parent and sweep the
            # segments they can no longer release.
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            for segment in _pool_segments():
                os.unlink(segment)
            pytest.fail("execute(workers=2) with REPRO_PATH_WORKERS=2 hung")
        assert child.returncode == 0, stderr
        serial = run_scenario(
            "resilience-at-scale", params=params, trials=2, seed=1, workers=1
        )
        assert json.loads(stdout) == serial.unit_metrics
        assert _pool_segments() == []
