"""Tiny-size smoke tests of the benchmark itself.

    python3 -m pytest kbench/test_smoke.py -q

They run a few points per pass, so they check wiring, names and units, not
speed.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402


def _run(*args: str) -> dict:
    out = subprocess.run(
        [*SPEC["command"], *args], cwd=ROOT, capture_output=True, text=True, timeout=170, check=True
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _assert_named(metrics: dict, spec: list) -> None:
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", ["grid_small_y", "lavoie"])
def test_end_to_end_metrics_printed_with_units(workload):
    result = _run("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", "0", "--points", "12")
    _assert_named(result["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_for_one_seed():
    args = ("--workload", "grid_small_y", "--seed", "5", "--seconds", "0.1", "--trace", "1", "--points", "16")
    first, second = _run(*args)["metrics"], _run(*args)["metrics"]
    _assert_named(first, SPEC["per_layer"])
    counts = {k: v["value"] for k, v in first.items() if v["unit"] == "count"}
    assert counts == {k: second[k]["value"] for k in counts}
    assert counts["struve.calls_per_point"] > 0 and counts["pass.evaluations"] > 0


_LOADED = "import sys; sys.path.insert(0, sys.argv[1]); import refkernel; refkernel.time_kernel(); print(sorted(sys.modules))"


def test_reference_kernel_imports_nothing_from_the_package():
    tree = ast.parse((BENCH_DIR / "refkernel.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported <= {"__future__", "dataclasses", "heapq", "math", "time"}
    loaded = subprocess.run(
        [sys.executable, "-I", "-c", _LOADED, str(BENCH_DIR)], capture_output=True, text=True, timeout=60, check=True
    ).stdout
    assert "refkernel" in loaded and "kstruve" not in loaded


def test_missing_site_is_reported_by_name_not_as_zero(monkeypatch, capsys):
    sys.path.insert(0, str(run.SRC_DIR))
    import kstruve.identities

    # lavoie never calls identities.k_struve, so the package still works
    monkeypatch.delattr(kstruve.identities, "k_struve")
    common = ["--k-nominal", SPEC["command"][-1], "--workload", "lavoie", "--seed", "1", "--seconds", "0.1", "--points", "10"]
    assert run.main([*common, "--trace", "1"]) == 0
    traced = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert traced["correct"] is True
    metrics = traced["metrics"]
    for name in ("struve.calls_per_point", "struve.terms_per_call", "struve.self_share", "pass.series_terms"):
        assert metrics[name]["value"] is None and "struve" in metrics[name]["missing"], name
    assert metrics["quadrature.evaluations_per_point"]["value"] > 0
    assert run.main([*common, "--trace", "0"]) == 0
    untraced = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert untraced["correct"] is True
    _assert_named(untraced["metrics"], SPEC["end_to_end"])
