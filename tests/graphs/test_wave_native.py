"""The fused C wave kernel against its oracle, the numpy wave engine.

Exact path metrics run on :mod:`repro.graphs._native` when a C
compiler builds it, else on :func:`repro.graphs.fast._batched_wave`.  The
two must return the same int64 accumulators array for array, on every
topology, source set and wave width, and every way of failing to get the
native kernel must fall back to numpy silently and bit-identically.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from repro.graphs import _native, backend, fast
from repro.graphs.adjacency import UndirectedGraph
from repro.graphs.generators import k_regular_graph, ring_graph

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _isolated_and_split(seed: int) -> UndirectedGraph:
    """Two k-regular islands plus isolated nodes: disconnected, with holes."""
    graph = k_regular_graph(90, 4, seed=seed)
    for u, v in k_regular_graph(50, 3, seed=seed + 1).edges():
        graph.add_edge(1000 + u, 1000 + v)
    for lone in range(5):
        graph.add_node(5000 + lone)
    return graph


def _skewed() -> UndirectedGraph:
    """A star with a tail: one hub of degree 70 (the non-ELL case)."""
    edges = [(0, leaf) for leaf in range(1, 71)]
    edges += [(70 + i, 71 + i) for i in range(30)]
    return UndirectedGraph(edges=edges)


ZOO = [
    ("k-regular", k_regular_graph(260, 8, seed=21)),
    ("ring", ring_graph(190)),  # high diameter: push-only levels
    ("skewed", _skewed()),
    ("disconnected", _isolated_and_split(7)),
    ("tiny", k_regular_graph(40, 3, seed=3)),  # n < 64
    ("n130", k_regular_graph(130, 5, seed=9)),  # n not a multiple of 64
]


@pytest.fixture(params=ZOO, ids=[name for name, _ in ZOO])
def csr(request):
    return fast.csr_of(request.param[1])


def _numpy(call, monkeypatch, *args):
    with monkeypatch.context() as patch:
        patch.setattr(_native, "load", lambda: None)
        return call(*args)


def _source_sets(n: int):
    rng = np.random.default_rng(n)
    return {
        "all": np.arange(n, dtype=np.int64),
        "strided": np.arange(1, n, 3, dtype=np.int64),
        "random": rng.choice(n, size=max(1, n // 2), replace=False).astype(np.int64),
        "single": np.array([n - 1], dtype=np.int64),
        "duplicates": np.array([0, 0, n // 2, 0], dtype=np.int64),
        "empty": np.array([], dtype=np.int64),
    }


def _assert_same(left, right):
    for a, b in zip(left, right):
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)


def test_accumulators_match_numpy_on_every_source_set(
    native_wave_engine, csr, monkeypatch
):
    for sources in _source_sets(csr.n).values():
        _assert_same(
            fast.accumulate_path_shard(csr, sources),
            _numpy(fast.accumulate_path_shard, monkeypatch, csr, sources),
        )


@pytest.mark.parametrize("width", [64, 100, 512])
def test_forced_widths_match_numpy(native_wave_engine, csr, width, monkeypatch):
    sources = np.arange(csr.n, dtype=np.int64)
    with backend.using_bfs_batch(width):
        _assert_same(
            fast.accumulate_path_shard(csr, sources),
            _numpy(fast.accumulate_path_shard, monkeypatch, csr, sources),
        )


def test_full_population_closeness_matches_numpy(native_wave_engine, csr, monkeypatch):
    expected = _numpy(fast._full_population_closeness, monkeypatch, csr, csr.n)
    assert fast._full_population_closeness(csr, csr.n) == expected


def test_numpy_journaled_shard_merges_with_native_shard(
    native_wave_engine, monkeypatch
):
    """A resumed campaign may mix engines: replayed numpy shards stay exact."""
    csr = fast.csr_of(k_regular_graph(300, 6, seed=41))
    sources = np.arange(csr.n, dtype=np.int64)
    serial = fast.accumulate_path_shard(csr, sources)
    first, second = np.array_split(sources, 2)
    state = fast.serialize_accumulators(
        *_numpy(fast.accumulate_path_shard, monkeypatch, csr, first)
    )
    replayed_ecc, replayed_totals = fast.deserialize_accumulators(state, csr.n)
    native_ecc, native_totals = fast.accumulate_path_shard(csr, second)
    _assert_same(
        serial,
        (np.maximum(replayed_ecc, native_ecc), replayed_totals + native_totals),
    )


def test_out_of_range_source_is_rejected(native_wave_engine):
    csr = fast.csr_of(ring_graph(20))
    with pytest.raises(IndexError):
        fast.accumulate_path_shard(csr, np.array([3, 20], dtype=np.int64))


# ----------------------------------------------------------------------
# Resolution and fallback
# ----------------------------------------------------------------------
@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """Unresolved loader state, with the library cache under ``tmp_path``."""
    monkeypatch.setattr(_native, "_library", _native._UNRESOLVED)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.delenv("CC", raising=False)
    return tmp_path


def _assert_runs_exactly_on(engine, monkeypatch):
    """Accumulators resolve to ``engine`` and equal the numpy oracle's."""
    csr = fast.csr_of(k_regular_graph(200, 6, seed=43))
    sources = np.arange(csr.n, dtype=np.int64)
    got = fast.accumulate_path_shard(csr, sources)
    assert fast.wave_kernel() == engine
    _assert_same(got, _numpy(fast.accumulate_path_shard, monkeypatch, csr, sources))


@pytest.mark.parametrize("how", ["cc-fails", "no-cc-on-path"])
def test_no_compiler_falls_back_to_numpy(fresh_loader, monkeypatch, how):
    if how == "cc-fails":
        monkeypatch.setenv("CC", "/bin/false")
    else:
        monkeypatch.setenv("PATH", str(fresh_loader))
    _assert_runs_exactly_on("numpy", monkeypatch)


def test_unusable_cache_dir_builds_in_a_private_temp_dir(
    native_wave_engine, fresh_loader, monkeypatch
):
    blocker = fresh_loader / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr("tempfile.tempdir", str(fresh_loader / "tmp"))
    (fresh_loader / "tmp").mkdir()
    _assert_runs_exactly_on("native", monkeypatch)
    assert [p.name[:13] for p in (fresh_loader / "tmp").iterdir()] == ["repro-native-"]


def test_cache_dir_owned_by_someone_else_is_not_used(
    native_wave_engine, fresh_loader, monkeypatch
):
    (fresh_loader / "cache" / "repro").mkdir(parents=True)
    monkeypatch.setattr("os.getuid", lambda: os.stat(fresh_loader).st_uid + 1)
    monkeypatch.setattr("tempfile.tempdir", str(fresh_loader / "tmp"))
    (fresh_loader / "tmp").mkdir()
    _assert_runs_exactly_on("native", monkeypatch)
    assert list((fresh_loader / "cache" / "repro").iterdir()) == []
    assert [p.name[:13] for p in (fresh_loader / "tmp").iterdir()] == ["repro-native-"]


def test_no_writable_dir_at_all_falls_back_to_numpy(fresh_loader, monkeypatch):
    blocker = fresh_loader / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr("tempfile.tempdir", str(blocker / "tmp"))
    _assert_runs_exactly_on("numpy", monkeypatch)


def _build_in_subprocess(cache: Path) -> Path:
    """Build the library into ``cache`` from a separate process.

    A path this process never ``dlopen``-ed, so a later load really reads
    the file instead of reusing a mapped image.
    """
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), PYTHONPATH=SRC)
    env.pop("CC", None)
    code = "from repro.graphs import _native; assert _native.load()"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=180)
    (library,) = (cache / "repro").glob("native-*.so")
    return library


def _damage(library: Path, how: str) -> None:
    if how == "truncated":  # dlopen of this would SIGBUS the process
        data = library.read_bytes()
        library.write_bytes(data[: len(data) // 3])
    else:
        library.write_bytes(b"\x7fELF not really a shared object")


@pytest.mark.parametrize("damage", ["truncated", "garbage"])
def test_corrupt_cached_library_is_rebuilt(
    native_wave_engine, fresh_loader, monkeypatch, damage
):
    library = _build_in_subprocess(fresh_loader / "cache")
    _damage(library, damage)
    _assert_runs_exactly_on("native", monkeypatch)


@pytest.mark.parametrize("damage", ["truncated", "garbage"])
def test_corrupt_cached_library_without_rebuild_falls_back_to_numpy(
    native_wave_engine, fresh_loader, monkeypatch, damage
):
    library = _build_in_subprocess(fresh_loader / "cache")
    _damage(library, damage)
    # A compiler that still identifies itself (so the cache key matches)
    # but can no longer build.
    wrapper = fresh_loader / "cc-that-cannot-build"
    wrapper.write_text('#!/bin/sh\n[ "$1" = --version ] && exec cc --version\nexit 1\n')
    wrapper.chmod(0o755)
    monkeypatch.setenv("CC", str(wrapper))
    _assert_runs_exactly_on("numpy", monkeypatch)


def test_cache_is_private_and_build_is_reused(native_wave_engine, fresh_loader):
    assert fast.wave_kernel() == "native"
    cache = fresh_loader / "cache" / "repro"
    assert (cache.stat().st_mode & 0o777) == 0o700
    (library,) = cache.glob("native-*.so")
    assert not list(cache.glob(".build-*"))  # the temp name was renamed away
    stamp = library.stat().st_mtime_ns
    _native._library = _native._UNRESOLVED
    assert fast.wave_kernel() == "native"
    assert library.stat().st_mtime_ns == stamp  # found, not rebuilt


def test_import_neither_compiles_nor_loads(tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=SRC)
    code = (
        "import sys\n"
        "import repro.graphs.fast\n"
        "assert 'repro.graphs._native' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
    assert list(tmp_path.iterdir()) == []
