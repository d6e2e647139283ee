"""Graph generators used by the experiments.

The paper's experiments start from k-regular random graphs (k = 5, 10, 15) of
5000 or 15000 nodes.  We implement a pairing-model k-regular generator directly
on :class:`~repro.graphs.adjacency.UndirectedGraph` (so the overlay never needs
``networkx`` at runtime) plus Erdos--Renyi and Barabasi--Albert generators used
for robustness checks and ablations.  Conversion helpers to and from
``networkx`` support cross-validation in the test-suite.

Each pairing attempt of :func:`k_regular_graph` runs in one C call
(``repro_pair_stubs`` in :mod:`repro.graphs._native`) when that reproduces
the pure-Python attempt exactly: same graph, same set iteration order, same
``mutation_stamp`` and the same RNG state afterwards.  The kernel re-implements
CPython's Mersenne Twister and ``shuffle``/``randrange``, so it runs only for
a plain :class:`random.Random` (not a subclass, not ``SystemRandom``) with a
version-3 state, for ``n * k < 2**31``, and only once a per-process self-probe
has wired a graph that needs restarts identically with both engines.
Otherwise -- no C compiler included -- the pure-Python pairing model runs; it
is the differential oracle the kernel is tested against.
:func:`wiring_kernel` names the engine in use.
"""

from __future__ import annotations

import functools
import random
from array import array
from typing import Callable, Iterable, Optional

import networkx as nx

from repro.graphs.adjacency import GraphError, UndirectedGraph
from repro.obs.telemetry import current as _telemetry

#: ``(n, k, seed)`` of the self-probe's wiring: the Python generator needs six
#: pairing attempts for it, so the probe also covers failed attempts.
_PROBE = (12, 5, 36)

#: Whether the native pairing kernel passed the self-probe (``None``: not run).
_probe_passed: Optional[bool] = None


def _resolve_rng(rng: Optional[random.Random], seed: Optional[int]) -> random.Random:
    """Return an RNG from either an explicit instance or a seed."""
    if rng is not None:
        return rng
    return random.Random(seed)


def k_regular_graph(
    n: int,
    k: int,
    *,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
    max_attempts: int = 200,
) -> UndirectedGraph:
    """Generate a random simple k-regular graph on ``n`` nodes (0..n-1).

    Uses the configuration (pairing) model with rejection of self-loops and
    multi-edges, restarting on failure.  ``n * k`` must be even and ``k < n``.

    Parameters mirror the paper's setup: ``k_regular_graph(5000, 10)`` builds
    the 10-regular, 5000-node overlay of Figure 5.
    """
    if n <= 0:
        raise GraphError(f"n must be positive, got {n}")
    if k < 0 or k >= n:
        raise GraphError(f"k must satisfy 0 <= k < n, got k={k}, n={n}")
    if (n * k) % 2 != 0:
        raise GraphError(f"n*k must be even for a k-regular graph (n={n}, k={k})")
    rng = _resolve_rng(rng, seed)

    if k == 0:
        return UndirectedGraph(nodes=range(n))

    exact = type(rng) is random.Random and n * k < 2**31 and rng.getstate()[0] == 3
    pair_stubs = _pair_stubs() if exact else None
    tel = _telemetry()
    if tel.enabled:
        tel.gauge("wiring.kernel", "python" if pair_stubs is None else "native")
    attempt = _try_pairing_model
    if pair_stubs is not None:
        attempt = functools.partial(_try_native_pairing, pair_stubs)
    return _wire(n, k, rng, max_attempts, attempt)


def wiring_kernel() -> str:
    """The engine :func:`k_regular_graph` wires with: ``"native"`` or ``"python"``.

    ``"native"`` when the C pairing kernel builds, loads and passes its
    self-probe (the first call may compile it), ``"python"`` otherwise.  It
    names the engine for a plain :class:`random.Random`; other generators
    always take the Python path.  Both engines wire identical graphs.
    """
    return "python" if _pair_stubs() is None else "native"


def _pair_stubs():
    """The bound ``repro_pair_stubs`` function, or ``None`` (Python engine)."""
    global _probe_passed
    # Imported on first use: importing this module must not pay for the
    # loader's compiler-probing machinery.
    import ctypes

    from repro.graphs import _native

    library = _native.load()
    if library is None:
        return None
    function = library.repro_pair_stubs
    function.argtypes = [ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p]
    function.restype = ctypes.c_int
    if _probe_passed is None:
        _probe_passed = _agrees_with_python(function)
    return function if _probe_passed else None


def _agrees_with_python(pair_stubs) -> bool:
    """Whether the kernel wires the probe graph exactly as the Python model."""
    n, k, seed = _PROBE

    def wire(attempt):
        rng = random.Random(seed)
        graph = _wire(n, k, rng, 200, attempt)
        rows = [(node, list(neighbors)) for node, neighbors in graph._adjacency.items()]
        return rows, graph.mutation_stamp, rng.getstate()

    native = wire(functools.partial(_try_native_pairing, pair_stubs))
    return native == wire(_try_pairing_model)


def _wire(
    n: int,
    k: int,
    rng: random.Random,
    max_attempts: int,
    attempt: Callable[[int, int, random.Random], Optional[UndirectedGraph]],
) -> UndirectedGraph:
    """Up to ``max_attempts`` pairing attempts, then the networkx fallback."""
    for _ in range(max_attempts):
        graph = attempt(n, k, rng)
        if graph is not None:
            return graph
    # Fall back to networkx's generator, which uses a smarter algorithm and
    # practically always succeeds; convert back to our structure.
    nx_graph = nx.random_regular_graph(k, n, seed=rng.randrange(2**32))
    return from_networkx(nx_graph)


def _try_pairing_model(n: int, k: int, rng: random.Random) -> Optional[UndirectedGraph]:
    """One attempt of the configuration model; ``None`` when it gets stuck."""
    stubs = [node for node in range(n) for _ in range(k)]
    rng.shuffle(stubs)
    graph = UndirectedGraph(nodes=range(n))
    # Greedy matching of stubs with limited local retries.
    while stubs:
        u = stubs.pop()
        placed = False
        for attempt in range(len(stubs)):
            index = rng.randrange(len(stubs))
            v = stubs[index]
            if v != u and not graph.has_edge(u, v):
                stubs.pop(index)
                graph.add_edge(u, v)
                placed = True
                break
        if not placed:
            return None
    if any(graph.degree(node) != k for node in range(n)):
        return None
    return graph


def _try_native_pairing(
    pair_stubs, n: int, k: int, rng: random.Random
) -> Optional[UndirectedGraph]:
    """:func:`_try_pairing_model` in one C call, leaving ``rng`` in the same state."""
    version, internal, gauss_next = rng.getstate()
    state = array("I", internal)
    adjacency = array("i", [0]) * (n * k)
    status = pair_stubs(n, k, state.buffer_info()[0], adjacency.buffer_info()[0])
    if status < 0:  # the kernel could not allocate its buffers; rng is untouched
        return _try_pairing_model(n, k, rng)
    rng.setstate((version, tuple(state), gauss_next))
    if status:
        return None
    # Row u lists u's neighbours in the order the Python model adds them,
    # so each set is built by the same insertions and iterates identically.
    # Entries map onto one int object per node, as the Python model's do,
    # rather than one per adjacency slot.
    nodes = list(range(n))
    flat = list(map(nodes.__getitem__, adjacency))
    graph = UndirectedGraph()
    graph._adjacency = {u: set(flat[u * k:(u + 1) * k]) for u in nodes}
    graph._mutations = n + n * k // 2  # n add_node calls, n*k/2 add_edge calls
    return graph


def erdos_renyi_graph(
    n: int,
    p: float,
    *,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
) -> UndirectedGraph:
    """Erdos--Renyi G(n, p) random graph on nodes 0..n-1."""
    if n <= 0:
        raise GraphError(f"n must be positive, got {n}")
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"p must be in [0, 1], got {p}")
    rng = _resolve_rng(rng, seed)
    graph = UndirectedGraph(nodes=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                graph.add_edge(u, v)
    return graph


def barabasi_albert_graph(
    n: int,
    m: int,
    *,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
) -> UndirectedGraph:
    """Barabasi--Albert preferential-attachment graph (used in ablations)."""
    if m < 1 or m >= n:
        raise GraphError(f"m must satisfy 1 <= m < n, got m={m}, n={n}")
    rng = _resolve_rng(rng, seed)
    graph = UndirectedGraph(nodes=range(m))
    # Start from a star over the first m+1 nodes so every node has degree >= 1.
    graph.add_node(m)
    for node in range(m):
        graph.add_edge(m, node)
    repeated: list[int] = [m] * m + list(range(m))
    for new_node in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        graph.add_node(new_node)
        for target in targets:
            graph.add_edge(new_node, target)
            repeated.append(target)
            repeated.append(new_node)
    return graph


def ring_graph(n: int) -> UndirectedGraph:
    """A simple cycle on ``n`` nodes (used by small worked examples)."""
    if n < 3:
        raise GraphError(f"a ring needs at least 3 nodes, got {n}")
    graph = UndirectedGraph(nodes=range(n))
    for node in range(n):
        graph.add_edge(node, (node + 1) % n)
    return graph


def to_networkx(graph: UndirectedGraph) -> nx.Graph:
    """Convert our adjacency structure into a ``networkx.Graph``."""
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph.nodes())
    nx_graph.add_edges_from(graph.edges())
    return nx_graph


def from_networkx(nx_graph: nx.Graph) -> UndirectedGraph:
    """Convert a ``networkx.Graph`` into our adjacency structure."""
    graph = UndirectedGraph(nodes=nx_graph.nodes())
    for u, v in nx_graph.edges():
        if u == v:
            continue
        graph.add_edge(u, v)
    return graph


def relabel(graph: UndirectedGraph, mapping: dict) -> UndirectedGraph:
    """Return a copy of ``graph`` with node ids replaced via ``mapping``."""
    relabeled = UndirectedGraph()
    for node in graph.nodes():
        relabeled.add_node(mapping.get(node, node))
    for u, v in graph.edges():
        relabeled.add_edge(mapping.get(u, u), mapping.get(v, v))
    return relabeled


def induced_on(graph: UndirectedGraph, nodes: Iterable) -> UndirectedGraph:
    """Convenience wrapper around :meth:`UndirectedGraph.subgraph`."""
    return graph.subgraph(nodes)
