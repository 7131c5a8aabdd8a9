"""Tests of the benchmark itself (not part of the package's test suite).

Run from the repository root:  python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()

import declustr as dc  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent


def _bench(*args, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


# ------------------------------------------------------------------ inputs

@pytest.mark.parametrize("base, blocks", [((0, 1, 3, 5, 6), 684), ((0, 1, 2, 3), 1710)])
def test_pgl_orbit_is_a_3_design_with_lambda_6(base, blocks):
    orbit = inputs.pgl_orbit(19, base)
    assert len(orbit) == blocks
    design = dc.validate_design(orbit, 3, 20, len(base), 6)
    assert len(design.blocks) == blocks


def test_oracles_reproduce_the_papers_counts():
    assert inputs.tau_full(4, 2, 2, 1) == 16 and inputs.tau_full(4, 2, 2, 2) == 24
    assert [inputs.reads_per_survivor(3, 8, 4, 1, 2, 2, s) for s in (1, 2)] == [48, 88]
    assert [inputs.reads_per_survivor(4, 7, 5, 3, 3, 1, s) for s in (1, 2, 3)] == [
        300, 480, 630,
    ]


def _first_inputs(cls, seed, cycles=2):
    workload = cls(run.ROOT, seed, HERE)
    workload.layout = dc.build_layout(
        dc.group_family(dc.rdp_code(3), "full"), dc.hadamard_3design(8)
    )
    if cls is workloads.Analyze:
        workload.setup()
    return [
        [(op.kind, op.inputs) for op in workload.cycle()] for _ in range(cycles)
    ] + [getattr(workload, "setup_fill", None)]


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_same_seed_gives_same_inputs(cls):
    assert _first_inputs(cls, 5) == _first_inputs(cls, 5)
    assert _first_inputs(cls, 5) != _first_inputs(cls, 6)


def test_walkthrough_matches_the_readme():
    readme = (run.ROOT / "README.md").read_text()
    for chunk in (HERE / "walkthrough.txt").read_text().strip("\n").split("\n\n"):
        assert chunk in readme


# ----------------------------------------------------------------- tracing

def test_self_time_subtracts_the_union_of_children():
    # 0: [0, 10] with children 1: [1, 4] and 2: [3, 6] (overlapping, another
    # thread) and 3: [9, 12] (clipped at 10); 1 has child 4: [2, 3].
    parents = [-1, 0, 0, 0, 1]
    starts = [0.0, 1.0, 3.0, 9.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    assert tracing.self_times(parents, starts, ends) == [4.0, 2.0, 3.0, 3.0, 1.0]


def test_tracer_counts_spans_and_restores_functions(monkeypatch):
    monkeypatch.setitem(tracing.SPAN_TARGETS, ("layout", "no_such_function"), "layout.x")
    originals = (dc.gf256.gf_mul, dc.erasure_codes.gf_mul, dc.erasure_codes.rs_encode,
                 dc.parity_groups.verify_balance.__defaults__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        dc.rs_code(4, 2).encode([[1, 2]])
        dc.tau(dc.group_family(dc.rs_code(4, 2), "full"), 1)
    finally:
        tracer.uninstall()
    assert (dc.gf256.gf_mul, dc.erasure_codes.gf_mul, dc.erasure_codes.rs_encode,
            dc.parity_groups.verify_balance.__defaults__) == originals
    found = tracer.summary()
    assert found["erasure_codes.encode_calls"] == 1
    assert found["erasure_codes.parity_matrix_calls"] == 1
    # Encoding [1, 2] makes 4 products; the 2x2 parity matrix makes 4 gf_inv
    # and 4 gf_div calls, and each gf_div one gf_mul and one gf_inv.
    assert found["gf256.mul_calls"] == 8
    assert found["gf256.inv_div_calls"] == 12
    assert found["parity_groups.tau_calls"] == 1
    # tau reaches reconstruction_rule through a default argument.
    assert found["erasure_codes.rule_calls"] == 4 * 12
    assert tracer.absent == ["layout.no_such_function"]


# ------------------------------------------------------------------ timing

def test_clock_scales_by_the_kernel_samples_near_an_interval():
    clock = run.Clock()
    # Kernel runs of 4 ms (twice the reference) at 0.0, inside the interval
    # at 0.5 and at 1.2; the one at 0.0 is further than WINDOW_S away.
    clock.starts, clock.ends = [0.0, 0.5, 1.2], [0.004, 0.504, 1.204]
    wall_less_kernel = (1.0 - 0.3) - 0.004
    assert clock.scaled(0.3, 1.0) == pytest.approx(wall_less_kernel / 2)
    with run.Clock() as running:
        assert running.time(lambda: None) > 0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    assert workloads.tail_ms([0.001] * 99) == (0.0, 99, None)
    assert workloads.tail_ms([i / 1000 for i in range(1, 201)]) == (190.0, 200, "p95")
    assert workloads.tail_ms([i / 1000 for i in range(1, 1001)])[2] == "p99"


# ----------------------------------------------------------- failure counts

class SmallRebuild(workloads.RsRebuild):
    n, k, t, delta = 8, 4, 3, 2


def test_corrupted_byte_and_count_are_counted_as_failures():
    workload = SmallRebuild(run.ROOT, 3, HERE)
    workload.setup()
    op = next(op for op in workload.cycle() if op.kind == "rebuild2")

    def corrupt_byte():
        array, rebuilt, stats = op.run()
        rebuilt.disks[op.inputs[0]][0] ^= 0x01
        return array, rebuilt, stats

    def wrong_count(out):
        workload.expected_reads[2] += 1
        try:
            return op.check(out)
        finally:
            workload.expected_reads[2] -= 1

    rec = run.Recorder()
    run.execute([
        op,
        workloads.Op(op.kind, corrupt_byte, op.check, op.inputs),
        workloads.Op(op.kind, op.run, wrong_count, op.inputs),
    ], rec)
    assert rec.attempted == 3
    assert len(rec.failures) == 2
    assert "rebuilt bytes" in rec.failures[0] and "reads of" in rec.failures[1]


# ------------------------------------------------------------------ smoke

@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_each_workload_runs_one_clean_cycle(name):
    proc = _bench("--workload", name, "--seed", "2", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    named = json.loads(proc.stdout.strip().splitlines()[-2])["report"]["named"]
    assert {k for k, (_, _, where) in run.REPORTED.items() if name in where} == set(named)
    assert named["failed_frac"]["value"] == 0


@pytest.mark.parametrize("name", ["analyze", "cli"])
def test_traced_run_reports_every_layer_metric(name):
    proc = _bench("--workload", name, "--seed", "2", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["gf256.mul_calls"]["value"] == 0
    if name == "analyze":
        assert all(v["value"] == 0 for k, v in metrics.items() if k.startswith("simulator."))


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "analyze", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert all(workloads.WORKLOADS[w["name"]].why == w["why"] for w in spec["workloads"])
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[section]} == table
