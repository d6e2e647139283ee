"""The bench-trajectory reporter renders tables and SVG from the runs list."""

from __future__ import annotations

import json

import pytest

report_trajectory = pytest.importorskip("benchmarks.report_trajectory")

SAMPLE = {
    "benchmark": "graph_kernels",
    "runs": [
        {"pr": "PR 2", "rows": [{"n": 1000, "speedup": 5.3}, {"n": 20000, "speedup": 12.2}]},
        {
            "pr": "PR 3",
            "rows": [{"n": 1000, "speedup": 26.8}, {"n": 20000, "speedup": 25.3}],
            "batched_bfs": [{"n": 100000, "speedup": 6.6}],
            "soap_campaign": {"n": 20000, "speedup": 5.6},
        },
        {"pr": "PR 3 (cli smoke)", "rows": [{"n": 1000, "speedup": 1.0}]},
        {
            "pr": "PR 4",
            "rows": [{"n": 20000, "speedup": 25.0}],
            "full_closeness": {"n": 100000, "speedup": 4.4},
            "sparse_frontier": {"n": 100000, "speedup": 53.8},
        },
    ],
}


@pytest.fixture
def trajectory(tmp_path):
    path = tmp_path / "BENCH_graph_kernels.json"
    path.write_text(json.dumps(SAMPLE))
    return path


def test_smoke_entries_are_ignored(trajectory):
    runs = report_trajectory.load_runs(trajectory)
    assert [run["pr"] for run in runs] == ["PR 2", "PR 3", "PR 4"]


def test_markdown_table_has_one_column_per_pr(trajectory):
    table = report_trajectory.render_markdown(report_trajectory.load_runs(trajectory))
    assert "| workload | PR 2 | PR 3 | PR 4 |" in table
    assert "| kernels n=20,000 | 12.2x | 25.3x | 25.0x |" in table
    # Workloads that did not exist in an earlier PR get a placeholder cell.
    assert "| full closeness n=100,000 | — | — | 4.4x |" in table
    assert "| ring diameter n=100,000 | — | — | 53.8x |" in table


def test_svg_contains_every_series_and_axis(trajectory):
    svg = report_trajectory.render_svg(report_trajectory.load_runs(trajectory))
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    for label in ("PR 2", "PR 3", "PR 4"):
        assert label in svg
    for series in ("kernels n=20,000", "full closeness n=100,000"):
        assert series in svg
    assert "polyline" in svg  # multi-PR series draw a line, not just points


def test_write_report_produces_both_artifacts(trajectory, tmp_path):
    out = tmp_path / "artifacts"
    out.mkdir()
    markdown_path, svg_path = report_trajectory.write_report(trajectory, out)
    assert markdown_path.exists() and svg_path.exists()
    assert markdown_path.name == "BENCH_trajectory.md"
    assert svg_path.read_text().count("<circle") >= 6


def test_cli_entrypoint(trajectory, tmp_path, capsys):
    exit_code = report_trajectory.main(
        ["--json", str(trajectory), "--output-dir", str(tmp_path), "--quiet"]
    )
    assert exit_code == 0
    printed = capsys.readouterr().out
    assert "BENCH_trajectory.md" in printed


def test_machine_fingerprints_and_native_series_are_rendered(tmp_path):
    machine = {
        "cpu_count": 2,
        "cpu_model": "Example CPU",
        "python": "3.11.7",
        "numpy": "2.4.6",
        "popcount_backend": "native",
        "wave_kernel": "native",
    }
    runs = [
        {"pr": "older", "rows": [{"n": 1000, "speedup": 21.0}]},
        {
            "pr": "newer",
            "rows": [{"n": 1000, "speedup": 20.0}],
            "native_wave": {"n": 20000, "speedup": 2.9},
            "machine": machine,
        },
    ]
    table = report_trajectory.render_markdown(runs)
    assert "| C wave kernel n=20,000 | — | 2.9x |" in table
    assert "- older: not recorded" in table
    assert (
        "- newer: 2 x Example CPU, Python 3.11.7, numpy 2.4.6, "
        "popcount native, wave kernel native"
    ) in table


def test_native_wiring_series_is_rendered():
    runs = [
        {"pr": "older", "rows": [{"n": 1000, "speedup": 21.0}]},
        {
            "pr": "newer",
            "rows": [{"n": 1000, "speedup": 20.0}],
            "native_wiring": [
                {"n": 20000, "k": 8, "speedup": 8.5},
                {"n": 20000, "k": 10, "speedup": None},
            ],
        },
    ]
    runs[1]["machine"] = {"cpu_count": 2, "wave_kernel": "native", "wiring_kernel": "native"}
    table = report_trajectory.render_markdown(runs)
    assert "| C pairing kernel n=20,000 k=8 | — | 8.5x |" in table
    assert "k=10" not in table  # no native timing, no series
    assert "wave kernel native, wiring kernel native" in table
