"""Smoke test of the benchmark harness: every workload at a tiny size.

    python -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fgdict import fg_ast  # noqa: E402

TINY = {
    "fuzz": lambda: workloads.Fuzz(0, block=5),
    "ladder": lambda: workloads.Ladder(0, rungs=("add10", "mul4")),
    "compile": lambda: workloads.Compile(0, programs=3),
    "shrink": lambda: workloads.Shrink(0, witnesses=2),
}
# The workload-specific results printed next to the end-to-end metrics.
OWN = {
    "fuzz": [],
    "ladder": [("rung_s_geomean", "s")],
    "compile": [("tl_bytes", "bytes")],
    "shrink": [("shrunk_nodes", "nodes")],
}


def declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def run_tiny(name, trace, capsys):
    assert run.run(TINY[name](), 0, trace, tracing, workloads.RUNGS) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_every_metric(name, capsys):
    lines, res = run_tiny(name, 0, capsys)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == declared("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())
    for metric, unit in OWN[name] + [("failed_share", "ratio")]:
        assert any(line.split()[::2] == [metric, unit] for line in lines), metric


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer(name, capsys):
    _lines, res = run_tiny(name, 1, capsys)
    assert res["correct"] and res["failed"] == 0
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared("per_layer")
    self_s = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert self_s == pytest.approx(m["op.traced_s"], rel=1e-9)


def test_step_counts_repeat(capsys):
    counts = ("fg_interp.steps", "tl_interp.steps", "tl_interp.tl_fg_step_ratio",
              "translate.td_rules", "gen.shrink.candidates")
    first = run_tiny("shrink", 1, capsys)[1]["metrics"]
    again = run_tiny("shrink", 1, capsys)[1]["metrics"]
    assert [first[k] for k in counts] == [again[k] for k in counts]
    assert first["fg_interp.steps"]["value"] > 0


def test_fuzz_digest_matches_cli():
    expected = json.loads((BENCH / "expected.json").read_text())["fuzz"]
    base = workloads.Fuzz(expected["seed"]).base
    lines = (workloads.cli_fuzz_lines(base, expected["block"], fg_ast.CORE)
             + workloads.cli_fuzz_lines(base, expected["block"], fg_ast.EXT))
    assert workloads.stream_digest(lines) == expected["sha256"]


def test_without_package_source_exits_nonzero_silently(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fuzz", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
