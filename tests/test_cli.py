"""End-to-end command-line checks: output text, file round-trips, exit codes."""

import json
import os
import stat
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import declustr.parity_groups as parity_groups
from declustr import design_from_json, deserialize_layout, hadamard_3design, serialize_layout
from declustr.cli import TRADEOFF_CSV_HEADER, run

DATA = Path(__file__).parent / "data"
REFERENCE_DESIGN = str(DATA / "design_3_8_4_1.json")
BIBD_DESIGN = str(DATA / "design_2_5_4_3.json")


def cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def layout_file(tmp_path_factory, reference_layout):
    path = tmp_path_factory.mktemp("cli") / "layout.json"
    path.write_text(serialize_layout(reference_layout))
    return str(path)


# ------------------------------------------------------------------ design

def test_design_validate_table(capsys):
    code, out, err = cli(capsys, "design", "validate", "--file", REFERENCE_DESIGN)
    assert code == 0
    assert out == "valid 3-(8,4,1) design, 14 blocks\n"
    assert err == ""


def test_design_validate_csv(capsys):
    code, out, _ = cli(
        capsys, "design", "validate", "--file", BIBD_DESIGN, "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["t,n,k,lambda,blocks", "2,5,4,3,5"]


def test_design_validate_json(capsys):
    code, out, _ = cli(
        capsys, "design", "validate", "--file", REFERENCE_DESIGN, "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "valid": True,
        "t": 3,
        "n": 8,
        "k": 4,
        "lambda": 1,
        "block_count": 14,
    }


def test_design_validate_rejects_bad_design(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    obj = json.loads(Path(REFERENCE_DESIGN).read_text())
    obj["lambda"] = 2
    bad.write_text(json.dumps(obj))
    code, out, err = cli(capsys, "design", "validate", "--file", str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_design_validate_missing_file(capsys, tmp_path):
    code, _, err = cli(
        capsys, "design", "validate", "--file", str(tmp_path / "nope.json")
    )
    assert code == 1
    assert err.startswith("error:")


def test_design_validate_not_json(capsys, tmp_path):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _, err = cli(capsys, "design", "validate", "--file", str(garbled))
    assert code == 1
    assert "not valid JSON" in err


def test_design_complete_writes_file(capsys, tmp_path):
    out_path = tmp_path / "complete.json"
    code, out, _ = cli(
        capsys,
        "design", "complete", "--n", "7", "--k", "5", "--t", "4",
        "--out", str(out_path),
    )
    assert code == 0
    assert "4-(7,5,3) design, 21 blocks" in out
    assert f"wrote {out_path}" in out
    design = design_from_json(json.loads(out_path.read_text()))
    assert (design.t, design.n, design.k, design.lam) == (4, 7, 5, 3)


def test_design_hadamard_table_and_file(capsys, tmp_path):
    out_path = tmp_path / "had.json"
    code, out, _ = cli(
        capsys, "design", "hadamard", "--n", "8", "--out", str(out_path)
    )
    assert code == 0
    assert "3-(8,4,1) design, 14 blocks" in out
    reread = design_from_json(json.loads(out_path.read_text()))
    assert len(reread.blocks) == 14


def test_design_complete_too_large_is_a_one_line_error(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("blocks were built before the size check")

    monkeypatch.setattr("declustr.designs.combinations", never)
    code, out, err = cli(capsys, "design", "complete", "--n", "40", "--k", "20", "--t", "3")
    assert (code, out) == (1, "")
    assert err == "error: building C(40,20) blocks exceeds the limit of 1000000\n"


# ------------------------------------------------------------------ --out

def test_out_overwrites_a_longer_file_without_a_stale_tail(capsys, tmp_path):
    path = tmp_path / "design.json"
    complete = ("design", "complete", "--n", "7", "--k", "5", "--t", "4")
    assert cli(capsys, *complete, "--out", str(path))[0] == 0
    longer = path.read_text()
    code, out, _ = cli(
        capsys, "design", "hadamard", "--n", "8", "--out", str(path), "--format", "json"
    )
    assert code == 0
    assert path.read_text() == out
    assert len(out) < len(longer)


def test_out_writes_through_a_symlink(capsys, tmp_path):
    target = tmp_path / "target.json"
    target.write_text("x" * 10_000)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, out, _ = cli(
        capsys, "design", "hadamard", "--n", "8", "--out", str(link), "--format", "json"
    )
    assert code == 0
    assert link.is_symlink()
    assert target.read_text() == out


def test_out_keeps_mode_and_hard_links(capsys, tmp_path):
    path = tmp_path / "design.json"
    path.write_text("old")
    path.chmod(0o640)
    other = tmp_path / "other.json"
    os.link(path, other)
    code, out, _ = cli(
        capsys, "design", "hadamard", "--n", "8", "--out", str(path), "--format", "json"
    )
    assert code == 0
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert other.read_text() == path.read_text() == out


def test_out_creates_a_new_file_with_the_umask_mode(capsys, tmp_path):
    path = tmp_path / "design.json"
    umask = os.umask(0o027)
    try:
        code = cli(capsys, "design", "hadamard", "--n", "8", "--out", str(path))[0]
    finally:
        os.umask(umask)
    assert code == 0
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


def test_out_naming_a_directory_is_a_one_line_error(capsys, tmp_path):
    code, out, err = cli(capsys, "design", "hadamard", "--n", "8", "--out", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_out_to_a_device_writes_and_exits_0(capsys):
    # /dev/null seeks but cannot be truncated; O_TRUNC was silently a no-op on it.
    code, out, err = cli(capsys, "design", "hadamard", "--n", "8", "--out", os.devnull)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == f"wrote {os.devnull}"


def test_out_to_a_pipe_writes_and_exits_0():
    # /dev/stdout on a pipe can neither seek nor be truncated.
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys; from declustr.cli import run; sys.exit(run(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", probe, "design", "hadamard", "--n", "8",
         "--format", "json", "--out", "/dev/stdout"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (done.returncode, done.stderr) == (0, "")
    # The file's text first, then the same text as the command's output.
    half = len(done.stdout) // 2
    assert done.stdout[:half] == done.stdout[half:]
    assert design_from_json(json.loads(done.stdout[:half])) == hadamard_3design(8)


def test_out_never_truncates_on_open(capsys, tmp_path, monkeypatch):
    # Truncating to zero on open is what makes ext4 flush the file on close.
    opened = []
    real_open = os.open

    def spy(path, flags, *args, **kwargs):
        opened.append((str(path), flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr("declustr.cli.os.open", spy)
    design, layout = tmp_path / "design.json", tmp_path / "layout.json"
    for _ in range(2):
        assert cli(capsys, "design", "hadamard", "--n", "8", "--out", str(design))[0] == 0
        assert cli(
            capsys, "layout", "build", "--design", str(design),
            "--code", "rdp", "--p", "3", "--out", str(layout),
        )[0] == 0
    writes = [flags for path, flags in opened if path in (str(design), str(layout))]
    assert len(writes) == 4
    assert all(flags & os.O_WRONLY and not flags & os.O_TRUNC for flags in writes)


def test_design_hadamard_rejects_bad_n(capsys):
    code, _, err = cli(capsys, "design", "hadamard", "--n", "12")
    assert code == 1
    assert err.startswith("error:")


def test_design_reduce(capsys):
    code, out, _ = cli(
        capsys, "design", "reduce", "--file", REFERENCE_DESIGN, "--s", "2"
    )
    assert code == 0
    assert "2-(8,4,3) design, 14 blocks" in out


def test_design_reduce_bad_strength(capsys):
    code, _, err = cli(
        capsys, "design", "reduce", "--file", REFERENCE_DESIGN, "--s", "4"
    )
    assert code == 1
    assert err.startswith("error:")


# ------------------------------------------------------------------- group

def test_group_build_table(capsys):
    code, out, _ = cli(capsys, "group", "build", "--code", "rdp", "--p", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "full family of rdp p=3 (k=4, delta=2, r=2): 12 arrangements, m=24"
    assert len(lines) == 13


def test_group_build_json(capsys):
    code, out, _ = cli(
        capsys,
        "group", "build", "--code", "rs", "--k", "5", "--delta", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 20
    assert len(payload["arrangements"]) == 20
    assert payload["family"] == "full"


def test_group_build_needs_code_parameters(capsys):
    code, _, err = cli(capsys, "group", "build", "--code", "rdp")
    assert code == 2
    assert err.startswith("usage error:")
    code, _, err = cli(capsys, "group", "build", "--code", "rs", "--k", "5")
    assert code == 2


def test_group_build_rejects_unknown_family(capsys):
    code, _, _ = cli(
        capsys, "group", "build", "--code", "rdp", "--p", "3", "--family", "zigzag"
    )
    assert code == 2


def test_group_verify_balanced_table(capsys):
    code, out, _ = cli(capsys, "group", "verify", "--code", "rdp", "--p", "3")
    assert code == 0
    assert "balanced: yes" in out
    assert "tau_1: 16 of m=24" in out
    assert "tau_2: 24 of m=24" in out
    assert out.count("pass") == 4


def test_group_verify_single_family_csv(capsys):
    code, out, _ = cli(
        capsys,
        "group", "verify", "--code", "rdp", "--p", "3",
        "--family", "single", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert "c1,pass" in lines and "c2,pass" in lines
    assert "c3,fail" in lines and "c4,fail" in lines
    assert "balanced,no" in lines
    # a full-delta loss reads every survivor completely, so tau_2 is still
    # defined; tau_1 depends on which column fails and is not
    assert "tau_1," in lines and "tau_2,2" in lines


def test_group_verify_bad_max_s(capsys):
    code, _, err = cli(
        capsys, "group", "verify", "--code", "rdp", "--p", "3", "--max-s", "5"
    )
    assert code == 1
    assert err.startswith("error:")


# ------------------------------------------------------------------ layout

def test_layout_build_table_and_file(capsys, tmp_path):
    out_path = tmp_path / "built.json"
    code, out, _ = cli(
        capsys,
        "layout", "build", "--design", REFERENCE_DESIGN,
        "--code", "rdp", "--p", "3", "--out", str(out_path),
    )
    assert code == 0
    assert (
        "layout: n=8 disks, 14 groups, 7 column-units/disk, M=168 rows/disk" in out
    )
    layout = deserialize_layout(out_path.read_text())
    assert layout.rows_per_disk == 168


def test_layout_build_csv(capsys):
    code, out, _ = cli(
        capsys,
        "layout", "build", "--design", REFERENCE_DESIGN,
        "--code", "rdp", "--p", "3", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == [
        "n,groups,column_units_per_disk,rows_per_disk",
        "8,14,7,168",
    ]


def test_layout_build_mismatched_code(capsys):
    code, _, err = cli(
        capsys,
        "layout", "build", "--design", REFERENCE_DESIGN,
        "--code", "rs", "--k", "5", "--delta", "2",
    )
    assert code == 1
    assert err.startswith("error:")


def test_layout_rotate_flow(capsys, tmp_path):
    base = tmp_path / "base.json"
    rotated = tmp_path / "rotated.json"
    code, _, _ = cli(
        capsys,
        "layout", "build", "--design", BIBD_DESIGN,
        "--code", "rs", "--k", "4", "--delta", "1",
        "--family", "single", "--out", str(base),
    )
    assert code == 0

    code, out, _ = cli(capsys, "layout", "inspect", "--layout", str(base))
    assert code == 0
    assert "parity units per disk: 0..4 (non-uniform)" in out

    code, out, _ = cli(
        capsys, "layout", "rotate", "--layout", str(base), "--out", str(rotated)
    )
    assert code == 0
    assert "layout: n=5 disks, 25 groups, 20 column-units/disk, M=20 rows/disk" in out

    code, out, _ = cli(capsys, "layout", "inspect", "--layout", str(rotated))
    assert code == 0
    assert "parity units per disk: 5 (uniform)" in out
    assert "data disks: 3.8" in out
    assert "parity disks: 1.3" in out


def test_layout_rotate_rejects_two_parity_columns(capsys, layout_file):
    code, _, err = cli(capsys, "layout", "rotate", "--layout", layout_file)
    assert code == 1
    assert err.startswith("error:")


def test_layout_inspect_reference(capsys, layout_file):
    code, out, _ = cli(capsys, "layout", "inspect", "--layout", layout_file)
    assert code == 0
    lines = out.splitlines()
    assert "disks: 8" in lines
    assert "groups: 14" in lines
    assert "rows per disk (M): 168" in lines
    assert "column-units per disk: 7" in lines
    assert "parity units per disk: 84 (uniform)" in lines
    assert "data disks: 4.0" in lines
    assert "parity disks: 4.0" in lines


def test_layout_inspect_json(capsys, layout_file):
    code, out, _ = cli(
        capsys, "layout", "inspect", "--layout", layout_file, "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows_per_disk"] == 168
    assert payload["parity_units_per_disk"] == [84] * 8
    assert payload["parity_uniform"] is True
    assert payload["data_disks"] == "4"
    assert payload["parity_disks"] == "4"


# ----------------------------------------------------------------- analyze

def test_analyze_workload_table(capsys, layout_file):
    code, out, _ = cli(
        capsys, "analyze", "workload", "--layout", layout_file, "--fail", "0,1"
    )
    assert code == 0
    assert "uniform: yes" in out
    assert "fraction of each surviving disk read: 11/21" in out
    assert "closed form: 88 (matches)" in out


def test_analyze_workload_csv(capsys, layout_file):
    code, out, _ = cli(
        capsys,
        "analyze", "workload", "--layout", layout_file,
        "--fail", "0,1", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == ["disk,units_read"] + [
        f"{disk},88" for disk in range(2, 8)
    ]


def test_analyze_workload_json(capsys, layout_file):
    code, out, _ = cli(
        capsys,
        "analyze", "workload", "--layout", layout_file,
        "--fail", "3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == [3]
    assert payload["uniform"] is True
    assert payload["closed_form"] == 48
    assert payload["fraction"] == "2/7"
    assert set(payload["reads"].values()) == {48}


def test_analyze_workload_bad_fail_list(capsys, layout_file):
    code, _, err = cli(
        capsys, "analyze", "workload", "--layout", layout_file, "--fail", "a,b"
    )
    assert code == 2
    assert err.startswith("usage error:")


def test_analyze_workload_too_many_failures(capsys, layout_file):
    code, _, err = cli(
        capsys, "analyze", "workload", "--layout", layout_file, "--fail", "0,1,2"
    )
    assert code == 1
    assert err.startswith("error:")


def test_analyze_tradeoff_fixture_csv(capsys):
    argv = (
        "analyze", "tradeoff", "--n", "20", "--fixture", "fig13", "--format", "csv"
    )
    code, out, _ = cli(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == TRADEOFF_CSV_HEADER
    assert len(lines) == 19
    assert lines[8] == "10,4,42.1,67.8,4.0,19"
    assert lines[18] == "20,1,94.7,100.0,2.0,1"
    code, again, _ = cli(capsys, *argv)
    assert code == 0
    assert again == out  # byte-identical across runs


def test_analyze_tradeoff_rows_json(capsys):
    code, out, _ = cli(
        capsys,
        "analyze", "tradeoff", "--n", "20",
        "--row", "10:4", "--row", "3:1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["k"] == 10
    assert payload[0]["pct_one_failure"] == 42.1
    assert payload[0]["depth_over_m"] == 19
    assert payload[1]["k"] == 3
    assert payload[1]["depth_over_m"] == 171


def test_analyze_tradeoff_usage_errors(capsys):
    code, _, err = cli(capsys, "analyze", "tradeoff", "--n", "20")
    assert code == 2
    code, _, _ = cli(
        capsys,
        "analyze", "tradeoff", "--n", "20",
        "--fixture", "fig13", "--row", "10:4",
    )
    assert code == 2
    code, _, _ = cli(capsys, "analyze", "tradeoff", "--n", "20", "--row", "10")
    assert code == 2
    code, _, _ = cli(
        capsys, "analyze", "tradeoff", "--n", "20", "--fixture", "nope"
    )
    assert code == 2


def test_analyze_counterexample_table(capsys):
    code, out, _ = cli(
        capsys,
        "analyze", "counterexample", "--design", REFERENCE_DESIGN,
        "--code", "rdp", "--p", "3", "--family", "single", "--fail", "0,1",
    )
    assert code == 0
    assert "disk 4: 5 column-units accessed" in out
    assert "disk 6: 1 column-units accessed" in out
    assert "uniform: no" in out
    grid_row = out.splitlines()[2]
    assert grid_row.split() == ["0", "D*", "D*", "P1*", "P2*", "-", "-", "-", "-"]


def test_analyze_counterexample_balanced_csv(capsys):
    code, out, _ = cli(
        capsys,
        "analyze", "counterexample", "--design", REFERENCE_DESIGN,
        "--code", "rdp", "--p", "3", "--fail", "0,1", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "disk,column_units_accessed,entries_read"
    assert lines[1:] == [f"{disk},5,88" for disk in range(2, 8)]


# ---------------------------------------------------------------- simulate

def test_simulate_exhaustive_doubles(capsys, layout_file):
    code, out, _ = cli(
        capsys,
        "simulate", "--layout", layout_file, "--exhaustive", "2", "--seed", "7",
    )
    assert code == 0
    assert out == "28/28 recovered, uniform reads 88/disk\n"


def test_simulate_exhaustive_singles(capsys, layout_file):
    code, out, _ = cli(
        capsys, "simulate", "--layout", layout_file, "--exhaustive", "1"
    )
    assert code == 0
    assert out == "8/8 recovered, uniform reads 48/disk\n"


def test_simulate_exhaustive_csv(capsys, layout_file):
    code, out, _ = cli(
        capsys,
        "simulate", "--layout", layout_file, "--exhaustive", "2",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "failed,recovered,min_reads,max_reads"
    assert len(lines) == 29
    assert lines[1] == "0 1,yes,88,88"


def test_simulate_exhaustive_json(capsys, layout_file):
    code, out, _ = cli(
        capsys,
        "simulate", "--layout", layout_file, "--exhaustive", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["passed"], payload["total"]) == (28, 28)
    assert payload["reads_per_disk"] == 88
    assert len(payload["sets"]) == 28


def test_simulate_single_failure_table(capsys, layout_file):
    code, out, _ = cli(capsys, "simulate", "--layout", layout_file, "--fail", "3")
    assert code == 0
    assert "recovered: yes" in out
    assert len(out.splitlines()) == 9  # header + 7 survivors + verdict


@pytest.mark.parametrize(
    "command",
    [("simulate",), ("analyze", "workload")],
    ids=["simulate", "analyze workload"],
)
@pytest.mark.parametrize("fail,failed", [("0,0", [0]), ("1,0,1", [0, 1]), ("3,,3", [3])])
def test_fail_lists_report_each_disk_once(capsys, layout_file, command, fail, failed):
    code, out, _ = cli(
        capsys, *command, "--layout", layout_file, "--fail", fail, "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == failed
    assert len(payload["reads"]) == 8 - len(failed)


def test_simulate_fail_xor_exhaustive(capsys, layout_file):
    code, _, err = cli(capsys, "simulate", "--layout", layout_file)
    assert code == 2
    assert err.startswith("usage error:")
    code, _, _ = cli(
        capsys,
        "simulate", "--layout", layout_file, "--fail", "3", "--exhaustive", "1",
    )
    assert code == 2


def test_simulate_sweep_too_deep(capsys, layout_file):
    code, _, err = cli(
        capsys, "simulate", "--layout", layout_file, "--exhaustive", "3"
    )
    assert code == 1
    assert err.startswith("error:")


def test_simulate_non_uniform_sweep(capsys, tmp_path):
    skewed = tmp_path / "skewed.json"
    cli(
        capsys,
        "layout", "build", "--design", REFERENCE_DESIGN,
        "--code", "rdp", "--p", "3", "--family", "single", "--out", str(skewed),
    )
    code, out, _ = cli(
        capsys, "simulate", "--layout", str(skewed), "--exhaustive", "2"
    )
    assert code == 0
    assert "28/28 recovered, reads " in out
    assert "/disk" in out


# -------------------------------------------------------------- exit codes

def test_unknown_command_is_usage_error(capsys):
    assert cli(capsys, "bogus")[0] == 2
    assert cli(capsys)[0] == 2
    assert cli(capsys, "design")[0] == 2


def test_missing_required_flag_is_usage_error(capsys):
    assert cli(capsys, "analyze", "tradeoff")[0] == 2
    assert cli(capsys, "design", "validate")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("design", "validate", "--file"),
        ("design", "reduce", "--s", "2", "--file"),
        ("layout", "inspect", "--layout"),
        ("simulate", "--exhaustive", "1", "--layout"),
        ("analyze", "counterexample", "--code", "rdp", "--p", "3", "--fail", "0",
         "--design"),
    ],
)
def test_non_utf8_input_is_a_one_line_error(capsys, tmp_path, argv):
    raw = tmp_path / "latin1.json"
    raw.write_bytes(b'{"t": 3, "n": 8, "note": "caf\xe9"}')
    code, out, err = cli(capsys, *argv, str(raw))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "not UTF-8 text" in err
    assert err.count("\n") == 1


def test_non_integer_group_descriptor_is_a_one_line_error(capsys, tmp_path, reference_layout):
    obj = json.loads(serialize_layout(reference_layout))
    obj["group"] = {"code": "rdp", "p": 3.0}
    path = tmp_path / "float_p.json"
    path.write_text(json.dumps(obj))
    code, out, err = cli(capsys, "layout", "inspect", "--layout", str(path))
    assert (code, out) == (1, "")
    assert err == "error: group descriptor field 'p' must be an integer, got 3.0\n"


@pytest.mark.parametrize("kind", ["design", "layout"])
def test_huge_point_count_is_a_one_line_error(capsys, tmp_path, reference_layout, kind):
    if kind == "design":
        obj = json.loads(Path(REFERENCE_DESIGN).read_text())
        obj["n"] = 10**30
        argv = ["design", "validate", "--file"]
    else:
        obj = json.loads(serialize_layout(reference_layout))
        obj["design"]["n"] = 10**30
        argv = ["layout", "inspect", "--layout"]
    path = tmp_path / "huge_n.json"
    path.write_text(json.dumps(obj))
    code, out, err = cli(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"validating C({10**30},3) = {comb(10**30, 3)} 3-subsets exceeds" in err


@pytest.mark.parametrize("command", ["build", "verify"])
def test_huge_arrangement_family_is_a_one_line_error(capsys, monkeypatch, command):
    def enumerated(*args):
        raise AssertionError("the family was enumerated past its budget")

    monkeypatch.setattr(parity_groups, "combinations", enumerated)
    monkeypatch.setattr(parity_groups, "permutations", enumerated)
    code, out, err = cli(capsys, "group", command, "--code", "rs", "--k", "255", "--delta", "3")
    assert (code, out) == (1, "")
    assert err == (
        "error: building 3!*C(255,3)*255 = 4178636550 labels exceeds the limit of 1000000\n"
    )
    # 995,006 rows of 998 labels each: refused by the label count.
    code, out, err = cli(capsys, "group", command, "--code", "rdp", "--p", "997")
    assert (code, out) == (1, "")
    assert err == (
        "error: building 2!*C(998,2)*998 = 993015988 labels exceeds the limit of 1000000\n"
    )
