"""The C pairing kernel against its oracle, the pure-Python pairing model.

:func:`repro.graphs.generators.k_regular_graph` wires through
``repro_pair_stubs`` when the native library loads and passes its
self-probe.  It must return exactly what the Python generator returns --
node order, every neighbour set's iteration order, ``mutation_stamp`` --
and leave the caller's ``random.Random`` in exactly the same state.  Every
way of not getting the kernel must fall back to Python silently.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from repro.graphs import _native, generators
from repro.graphs.generators import k_regular_graph, wiring_kernel

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: (n, k, seeds).  Most non-zero seeds of the small pairs make the Python
#: model restart (up to six attempts for (12, 5, 36), the self-probe's
#: case); (7, 6) is the complete graph K7 and (30, 0) the empty graph.
GRID = [
    (10, 3, (0, 1, 3)),
    (12, 5, (0, 2, 15, 36)),
    (50, 4, (0, 1)),
    (7, 6, (0, 5, 6)),
    (100, 9, (0, 1)),
    (2400, 8, (0, 1)),
    (2400, 10, (0,)),
    (20000, 8, (0,)),
    (30, 0, (0,)),
]


@pytest.fixture
def native_wiring():
    """Skip the test unless the native library builds here.

    A library that builds but fails the self-probe is a broken kernel, not
    a missing compiler: that fails the test instead of skipping it.
    """
    if _native.load() is None:
        pytest.skip("native library unavailable (no working C compiler)")
    assert wiring_kernel() == "native", "the pairing kernel failed its self-probe"


def _python(call, monkeypatch, *args, **kwargs):
    """Run ``call`` with the native library reported unavailable."""
    with monkeypatch.context() as patch:
        patch.setattr(_native, "load", lambda: None)
        assert wiring_kernel() == "python"
        return call(*args, **kwargs)


def _wired(n, k, seed, **kwargs):
    """Everything a caller can observe of one wiring, and of its rng after."""
    rng = random.Random(seed)
    graph = k_regular_graph(n, k, rng=rng, **kwargs)
    return (
        [(node, list(neighbors)) for node, neighbors in graph._adjacency.items()],
        graph.mutation_stamp,
        rng.getstate(),
        rng.random(),
    )


def _attempts(n, k, seed, max_attempts=200):
    """How many Python pairing attempts the wiring makes."""
    calls = []

    def counting(*args):
        calls.append(1)
        return generators._try_pairing_model(*args)

    generators._wire(n, k, random.Random(seed), max_attempts, counting)
    return len(calls)


@pytest.mark.parametrize(
    "n, k, seed",
    [(n, k, seed) for n, k, seeds in GRID for seed in seeds],
)
def test_native_wiring_matches_python(native_wiring, monkeypatch, n, k, seed):
    assert _wired(n, k, seed) == _python(_wired, monkeypatch, n, k, seed)


def test_grid_covers_restarts():
    restarted = [
        (n, k, seed)
        for n, k, seeds in GRID
        for seed in seeds
        if k and _attempts(n, k, seed) > 1
    ]
    assert len(restarted) >= 5
    assert _attempts(*generators._PROBE) > 1


@pytest.mark.parametrize("max_attempts", [1, 3])
def test_exhausted_attempts_reach_networkx_identically(
    native_wiring, monkeypatch, max_attempts
):
    n, k, seed = generators._PROBE
    assert _attempts(n, k, seed) > max_attempts
    native = _wired(n, k, seed, max_attempts=max_attempts)
    assert native == _python(_wired, monkeypatch, n, k, seed, max_attempts=max_attempts)
    assert all(len(row) == k for _, row in native[0])


def test_allocation_failure_runs_the_python_attempt():
    rng, oracle = random.Random(4), random.Random(4)
    graph = generators._try_native_pairing(lambda *args: -1, 50, 4, rng)
    expected = generators._try_pairing_model(50, 4, oracle)
    assert graph._adjacency == expected._adjacency
    assert rng.getstate() == oracle.getstate()


def test_kernel_rejects_out_of_range_arguments(native_wiring):
    pair_stubs = generators._pair_stubs()
    state = array("I", random.Random(0).getstate()[1])
    adjacency = array("i", [0]) * 64
    # k >= n, k == 0, odd n * k, n * k == 2**31
    for n, k in [(5, 5), (8, 0), (7, 3), (2**16, 2**15)]:
        status = pair_stubs(n, k, state.buffer_info()[0], adjacency.buffer_info()[0])
        assert status == -1
    assert state.tolist() == list(random.Random(0).getstate()[1])
    assert adjacency.tolist() == [0] * 64


# ----------------------------------------------------------------------
# Selection and fallback
# ----------------------------------------------------------------------
@pytest.fixture
def spy(monkeypatch):
    """Record every native pairing attempt."""
    calls = []
    native = generators._try_native_pairing

    def recording(*args):
        calls.append(args[1:3])
        return native(*args)

    monkeypatch.setattr(generators, "_try_native_pairing", recording)
    return calls


def test_plain_random_takes_the_native_path(native_wiring, spy):
    k_regular_graph(60, 4, seed=1)
    assert spy == [(60, 4)]


def test_loader_returning_none_falls_back_to_python(native_wiring, spy, monkeypatch):
    expected = _wired(60, 4, 1)
    spy.clear()
    assert _python(_wired, monkeypatch, 60, 4, 1) == expected
    assert spy == []


def test_random_subclass_takes_the_python_path(native_wiring, spy):
    class Seeded(random.Random):
        pass

    rng = Seeded(8)
    graph = k_regular_graph(60, 4, rng=rng)
    assert spy == []
    oracle = random.Random(8)
    expected = generators._wire(60, 4, oracle, 200, generators._try_pairing_model)
    assert [list(s) for s in graph._adjacency.values()] == [
        list(s) for s in expected._adjacency.values()
    ]
    assert rng.getstate() == oracle.getstate()


def test_system_random_takes_the_python_path(native_wiring, spy):
    graph = k_regular_graph(40, 3, rng=random.SystemRandom())
    assert spy == []
    assert all(graph.degree(node) == 3 for node in graph.nodes())


def test_failed_self_probe_falls_back_to_python(native_wiring, spy, monkeypatch):
    expected = _wired(60, 4, 1)
    spy.clear()
    monkeypatch.setattr(generators, "_probe_passed", None)
    monkeypatch.setattr(generators, "_agrees_with_python", lambda function: False)
    assert wiring_kernel() == "python"
    assert _wired(60, 4, 1) == expected
    assert spy == []


def test_self_probe_rejects_a_kernel_that_disagrees(native_wiring):
    def no_draws(n, k, state, adjacency):  # "succeeds" without touching the rng
        return 0

    assert generators._agrees_with_python(generators._pair_stubs())
    assert not generators._agrees_with_python(no_draws)


def test_import_neither_compiles_nor_loads(tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=SRC)
    code = (
        "import sys\n"
        "import repro.graphs.generators, repro.core.ddsr\n"
        "assert 'repro.graphs._native' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
    assert list(tmp_path.iterdir()) == []
