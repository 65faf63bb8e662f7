"""Smoke test of the benchmark: each workload on tiny inputs, untraced and
traced, scores every output correct and reports every metric it names."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

#: End-to-end metrics the table prints besides BENCHMARK.json's, by workload.
TABLE = {
    "affine-apply": ("points_per_s", "process_wall_ms", "peak_rss_mb", "setup_s",
                     "failed_frac", "wall_call_p50_ms", "ref_loop_ms"),
    "projective-apply": ("points_per_s", "process_wall_ms", "peak_rss_mb", "setup_s",
                         "failed_frac", "wall_call_p50_ms", "ref_loop_ms"),
    "analysis-check": ("check_p50_ms", "check_p90_ms", "matrix_p50_ms", "matrix_p90_ms",
                       "classify_p50_ms", "peak_rss_mb", "setup_s", "failed_frac",
                       "wall_call_p50_ms", "ref_loop_ms"),
}
LAYERS = ("multivector.mul_calls", "multivector.mul_s", "multivector.xor_calls",
          "multivector.xor_s", "multivector.useful_mult_ratio", "hodge.star_calls",
          "hodge.star_s", "versors.construct_calls", "versors.construct_s",
          "versors.sandwich_s", "versors.hodge_sandwich_s", "versors.perspective_s",
          "versors.compose_s", "versors.stages_per_step", "euclid.embed_s",
          "euclid.extract_s", "euclid.residue_errors", "pipeline.parse_pipeline_s",
          "pipeline.parse_points_s", "pipeline.format_points_s",
          "analysis.conditions_calls", "analysis.conditions_s", "analysis.probe_matrix_s",
          "analysis.classify_s", "cli.apply_s", "cli.check_s", "cli.matrix_s",
          "cli.points_at_infinity", "cli.negative_weight", "setup.blades_s",
          "setup.hodge_s", "setup.numpy_s", "trace.overhead_ratio")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TABLE))
def test_tiny_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])

    table = {line.split()[0]: float(line.split()[1]) for line in lines[1:-1]}
    assert table["failed_frac"] == 0.0
    assert set(TABLE[workload]) <= set(table)
    if trace:
        assert set(LAYERS) <= set(table)
