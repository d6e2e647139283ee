"""Shared pytest configuration and fixtures.

The ``src`` directory is added to ``sys.path`` so the suite also runs in
environments where the editable install could not be performed (e.g. fully
offline machines without the ``wheel`` package).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.botnet import OnionBotnet  # noqa: E402
from repro.core.ddsr import DDSROverlay  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.tor.network import TorNetwork, TorNetworkConfig  # noqa: E402


@pytest.fixture
def simulator() -> Simulator:
    """A fresh deterministic simulator."""
    return Simulator(seed=1234)


@pytest.fixture
def tor_network(simulator: Simulator) -> TorNetwork:
    """A bootstrapped in-memory Tor network with a modest relay population."""
    network = TorNetwork(simulator, TorNetworkConfig(num_relays=30))
    network.bootstrap()
    return network


@pytest.fixture
def small_overlay() -> DDSROverlay:
    """A 60-node, 6-regular DDSR overlay."""
    return DDSROverlay.k_regular(60, 6, seed=42)


@pytest.fixture
def small_botnet() -> OnionBotnet:
    """A fully built 16-bot OnionBotnet simulation."""
    net = OnionBotnet(seed=99)
    net.build(16)
    return net


@pytest.fixture
def numpy_wave_engine(monkeypatch):
    """Pin exact path metrics to the numpy wave engine for one test.

    Patches the native-kernel loader to report "unavailable", the same
    state a machine without a C compiler is in.
    """
    from repro.graphs import _native

    monkeypatch.setattr(_native, "load", lambda: None)


@pytest.fixture
def native_wave_engine():
    """Skip the test unless the native wave kernel builds and loads here."""
    from repro.graphs import _native

    if _native.load() is None:
        pytest.skip("native wave kernel unavailable (no working C compiler)")


@pytest.fixture(params=["native", "numpy"])
def wave_engine(request):
    """Run a test once per exact-path-metric engine; returns the engine name."""
    request.getfixturevalue(f"{request.param}_wave_engine")
    return request.param
