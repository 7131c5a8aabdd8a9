"""Run stats (`simulate --stats`, `analyze workload --stats`): what they count, and that
they cost no clock read when off."""

import contextlib
import io
import json
import os
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

import declustr as dc
from declustr import _stats
from declustr.cli import run
from declustr.layout import losses
from test_cli_golden import GOLDEN, write_inputs
from test_simulator import _canonical_erasure_patterns

# The README's sweep, `simulate --layout layout.json --exhaustive 2 --seed 7`
# on hadamard_3design(8) + RDP p=3: its stats with every time masked.
STATS_GOLDEN = Path(__file__).parent / "data" / "simulate_exhaustive_2_seed_7.stats.json"
# The README's query, `analyze workload --layout layout.json --fail 0,1`, likewise.
WORKLOAD_GOLDEN = Path(__file__).parent / "data" / "analyze_workload_0_1.stats.json"
WORKLOAD = ["analyze", "workload", "--layout", "layout.json", "--fail", "0,1"]


def _masked(stats: dict) -> dict:
    """The stats with every time (a key ending in _s) replaced by None."""
    return {key: None if key.endswith("_s") else value for key, value in stats.items()}


def _declustr(argv: list[str], workdir: Path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    previous = Path.cwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        os.chdir(previous)
    return code, out.getvalue(), err.getvalue()


def _simulate(argv: list[str], workdir: Path) -> tuple[int, str, str]:
    return _declustr(["simulate", *argv], workdir)


@pytest.fixture
def recording():
    _stats.recorder = _stats.Recorder()
    yield _stats.recorder
    _stats.recorder = None


def test_stats_off_read_no_clock(monkeypatch):
    # Timing-free: with no recorder the core never calls perf_counter; with
    # one, the same calls do, so the patch is where the clock is read.
    calls = []
    monkeypatch.setattr(_stats, "perf_counter", lambda: calls.append(1) or 0.0)
    layout = dc.build_layout(dc.group_family(dc.rdp_code(3), "full"), dc.hadamard_3design(8))

    def every_path():
        array = dc.materialize(layout, 7)
        dc.fail_and_reconstruct(array, (0, 1))
        dc.exhaustive_verify(layout, 2, seed=7)
        dc.reconstruction_workload(layout, (2, 5))

    assert _stats.recorder is None
    every_path()
    assert calls == []
    _stats.recorder = _stats.Recorder()
    try:
        every_path()
    finally:
        _stats.recorder = None
    assert calls


def test_simulate_stats_match_the_golden_file_and_leave_stdout_alone(tmp_path):
    write_inputs(tmp_path)
    case = "simulate --layout layout.json --exhaustive 2 --seed 7 --format table"
    code, out, err = _simulate(
        ["--layout", "layout.json", "--exhaustive", "2", "--seed", "7", "--stats", "-"], tmp_path
    )
    assert (code, out) == (0, json.loads(GOLDEN.read_text())[case]["stdout"])
    assert _masked(json.loads(err)) == json.loads(STATS_GOLDEN.read_text())
    assert _stats.recorder is None


def test_golden_stats_agree_with_the_sweeps_decode_and_split_counts():
    # The counts that test_sweep_decodes_each_pattern_in_calls_of_at_most_one_array
    # and test_sweep_splits_each_shared_prefix_once check by patching: one
    # decode call per canonical erasure pattern, over every (extended row,
    # instance) lane, and C(n - s + j, j) splits at depth j.
    stats = json.loads(STATS_GOLDEN.read_text())
    layout = dc.build_layout(dc.group_family(dc.rdp_code(3), "full"), dc.hadamard_3design(8))
    n, s, lanes = layout.n, 2, len(layout.group.extended_rows) * len(layout.placements)
    patterns = set().union(
        *(_canonical_erasure_patterns(layout, failed) for failed in combinations(range(n), s))
    )
    keys = {",".join(map(str, pattern)) for pattern in patterns}
    assert stats["erasure_codes.decode_calls_by_pattern"] == dict.fromkeys(keys, 1)
    assert stats["erasure_codes.decode_lanes_by_pattern"] == dict.fromkeys(keys, lanes)
    assert stats["erasure_codes.decode_calls"] == len(patterns)
    assert stats["layout.splits_by_depth"] == {str(j): comb(n - s + j, j) for j in range(1, s + 1)}
    assert stats["simulator.instances_touched"] == len(layout.placements)
    # Each survivor reads 88 units in each of the C(7, 2) sets it survives.
    assert stats["simulator.units_read_by_disk"] == {str(d): 88 * comb(n - 1, s) for d in range(n)}


def test_sweep_books_each_phase_in_order(recording, monkeypatch):
    # Timing-free: the order of the marks, not their times. The plans' `erased`,
    # derived on first use when the sweep collects each pattern's columns, is
    # plan time, not the first pattern's decode time.
    marks = []
    mark = _stats.Recorder.mark
    monkeypatch.setattr(_stats.Recorder, "mark", lambda self, key: marks.append(key) or mark(self, key))
    layout = dc.build_layout(dc.group_family(dc.rdp_code(3), "full"), dc.hadamard_3design(8))

    def sweep_marks(misses):  # 6 patterns, as the golden file's decode_calls
        return [
            "simulator.fill_s", "erasure_codes.encode_s",
            *["layout.tally_s", "parity_groups.plan_s"] * (misses + 1),
            *["erasure_codes.decode_s", "simulator.compare_s"] * 6, "simulator.compare_s",
        ]

    dc.exhaustive_verify(layout, 2, seed=7)
    assert marks == sweep_marks(10) and recording.stats["layout.plan_memo_misses"] == 10
    marks.clear()
    dc.exhaustive_verify(layout, 2, seed=7)  # warm: every plan from the memo
    assert marks == sweep_marks(0)


def test_rebuild_stats_count_one_decode_per_erasure_pattern(recording):
    # As test_rebuild_decodes_once_per_erasure_pattern counts by patching.
    layout = dc.build_layout(
        dc.group_family(dc.rs_code(6, 2), "full"), dc.complete_design(9, 6, 3)
    )
    array = dc.materialize(layout, 7)
    failed = (2, 5)
    rebuilt, io_stats = dc.fail_and_reconstruct(array, failed)
    assert rebuilt.disks == array.disks
    stats = recording.report()
    patterns = _canonical_erasure_patterns(layout, failed)
    assert stats["erasure_codes.decode_calls_by_pattern"] == {
        ",".join(map(str, pattern)): 1 for pattern in sorted(patterns)
    }
    affected = sum(1 for placement in layout.placements if set(placement) & set(failed))
    assert stats["simulator.instances_touched"] == affected
    assert sum(stats["erasure_codes.decode_lanes_by_pattern"].values()) == affected * len(
        layout.group.extended_rows
    )
    assert stats["simulator.units_read_by_disk"] == {str(d): n for d, n in io_stats.reads.items()}
    assert stats["simulator.units_written_by_disk"] == {str(d): n for d, n in io_stats.writes.items()}
    assert stats["layout.plan_memo_misses"] == len(losses(layout, frozenset(failed)))
    assert {key for key in stats if key.endswith("_s")} == {
        "erasure_codes.decode_s", "erasure_codes.encode_s", "layout.tally_s",
        "parity_groups.plan_s", "simulator.fill_s", "simulator.gather_s",
        "simulator.materialize_s", "simulator.reconstruct_s", "simulator.scatter_s",
    }


def test_simulate_stats_to_a_file(tmp_path):
    write_inputs(tmp_path)
    case = "simulate --layout layout.json --fail 0,1 --format csv"
    code, out, err = _simulate(
        ["--layout", "layout.json", "--fail", "0,1", "--format", "csv", "--stats", "run.json"],
        tmp_path,
    )
    assert (code, out, err) == (0, json.loads(GOLDEN.read_text())[case]["stdout"], "")
    stats = json.loads((tmp_path / "run.json").read_text())
    assert stats["simulator.units_written_by_disk"] == {"0": 168, "1": 168}
    assert _stats.recorder is None


def test_analyze_workload_stats_match_the_golden_file_and_leave_stdout_alone(tmp_path):
    write_inputs(tmp_path)
    golden = json.loads(GOLDEN.read_text())
    code, out, err = _declustr([*WORKLOAD, "--stats", "-"], tmp_path)
    assert (code, out) == (0, golden[" ".join(WORKLOAD) + " --format table"]["stdout"])
    assert _masked(json.loads(err)) == json.loads(WORKLOAD_GOLDEN.read_text())
    assert _stats.recorder is None
    code, out, err = _declustr([*WORKLOAD, "--format", "csv", "--stats", "run.json"], tmp_path)
    assert (code, out, err) == (0, golden[" ".join(WORKLOAD) + " --format csv"]["stdout"], "")
    assert _masked(json.loads((tmp_path / "run.json").read_text())) == _masked(json.loads(
        WORKLOAD_GOLDEN.read_text()
    ))


def test_analyze_workload_reads_no_clock_without_stats(tmp_path, monkeypatch):
    write_inputs(tmp_path)
    calls = []
    monkeypatch.setattr(_stats, "perf_counter", lambda: calls.append(1) or 0.0)
    assert _declustr(WORKLOAD, tmp_path)[0] == 0
    assert calls == []
    assert _declustr([*WORKLOAD, "--stats", "-"], tmp_path)[0] == 0
    assert calls


def test_a_repeated_query_counts_only_memo_hits(recording):
    layout = dc.build_layout(
        dc.group_family(dc.rs_code(6, 2), "full"), dc.complete_design(9, 6, 3)
    )
    failed = (2, 5)
    lost = len(losses(layout, frozenset(failed)))
    first = dc.reconstruction_workload(layout, failed)
    stats = recording.report()
    assert (stats["layout.plan_memo_misses"], stats["layout.plan_memo_hits"]) == (lost, 0)
    assert {key for key in stats if key.endswith("_s")} == {
        "analysis.closed_form_s", "analysis.workload_s", "layout.tally_s", "parity_groups.plan_s",
    }
    plan_s = stats["parity_groups.plan_s"]
    assert dc.reconstruction_workload(layout, failed) == first
    stats = recording.report()
    assert (stats["layout.plan_memo_misses"], stats["layout.plan_memo_hits"]) == (lost, lost)
    assert stats["parity_groups.plan_s"] == plan_s
