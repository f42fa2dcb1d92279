"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gwn.cli
import gwn.verify
from run import tail_percentile
from spans import self_times
from workloads import WORKLOADS, CliWorkload, SIZES, strict_json

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_tiny(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = strict_json(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 3
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "cli_all", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_cli_check_separates_band_misses_from_failures(tmp_path):
    wl = CliWorkload(gwn, "cli_all", SIZES["tiny"], tmp_path)
    rc, text, err = wl.run(wl.make_input(3, "op"))
    assert not wl.check((rc, text, err)).failed
    payload = json.loads(text)
    for suite in payload["suites"]:
        suite["cases"][0]["pass"] = False
    bad = wl.check((1, json.dumps(payload), ""))
    n_mc = len(gwn.verify.MC_SUITES)
    assert len(bad.band_misses) >= n_mc
    assert len(bad.problems) == len(payload["suites"]) - n_mc + (rc == 0)
    payload["suites"][0]["cases"][0]["value"] = float("nan")
    assert "NaN" in json.dumps(payload)
    assert wl.check((1, json.dumps(payload), "")).failed
    assert wl.check((2, "", "gwn: error: bad")).failed


def test_tail_is_never_below_the_median():
    assert tail_percentile(list(range(1, 101)))[:2] == (90, 90.0)
    value, pct, beyond = tail_percentile([3.0, 1.0, 2.0, 4.0])
    assert (value, beyond) == (3.0, 1)


def test_self_time_subtracts_the_union_of_children():
    spans = [(1, "op", 0.0, 10.0, 0, 0, None),
             (2, "a", 1.0, 4.0, 1, 0, None),
             (3, "b", 3.0, 6.0, 1, 0, None),   # overlaps a (another thread)
             (4, "c", 2.0, 3.0, 2, 0, None)]
    assert self_times(spans) == [5.0, 2.0, 3.0, 1.0]
