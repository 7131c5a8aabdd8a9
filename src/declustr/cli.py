"""Command-line interface for building and checking declustered layouts.

Subcommands: design {validate|complete|hadamard|reduce}, group
{build|verify}, layout {build|rotate|inspect}, analyze
{workload|tradeoff|counterexample}, simulate. Every subcommand honors
--format {table,csv,json}; the machine formats print nothing but the
payload. Each handler computes one Result (JSON payload, CSV header and
rows, table lines, exit code) and never prints; `_emit` is the only code
that reads the format. Exit codes: 0 success, 1 domain error (or failed
verification), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from pathlib import Path
from typing import NamedTuple

from .analysis import (
    TRADEOFF_LAMBDA_PRESETS,
    counterexample_report,
    reconstruction_workload,
    round_half_up,
    tradeoff_table,
)
from .designs import (
    Design,
    complete_design,
    design_from_json,
    design_to_json,
    hadamard_3design,
    reduce_design,
)
from .erasure_codes import CODE_KINDS
from .errors import DeclustrError, FormatError
from .layout import (
    build_layout,
    deserialize_layout,
    layout_geometry,
    rotate_layout,
    serialize_layout,
)
from .parity_groups import FAMILIES, group_family, verify_balance
from .simulator import exhaustive_verify, fail_and_reconstruct, materialize

FORMATS = ("table", "csv", "json")

TRADEOFF_CSV_HEADER = (
    "k,lambda,pct_one_failure,pct_two_failures,parity_disks,depth_over_m"
)


class UsageError(Exception):
    """Bad flag combination that argparse alone cannot express."""


class Result(NamedTuple):
    """One command's report in every format, plus its exit code.

    json is the payload for --format json (a str is printed as is); header
    and rows make the CSV (None cells print empty); table holds the lines of
    the default format.
    """

    json: object
    header: str
    rows: list
    table: list[str]
    code: int = 0


def _emit(result: Result, fmt: str) -> int:
    if fmt == "json":
        payload = result.json
        text = payload if isinstance(payload, str) else json.dumps(payload, indent=2) + "\n"
    else:
        lines = result.table
        if fmt == "csv":
            lines = [result.header] + [
                ",".join("" if cell is None else str(cell) for cell in row)
                for row in result.rows
            ]
        text = "".join(line + "\n" for line in lines)
    sys.stdout.write(text)
    return result.code


# ---------------------------------------------------------------- helpers

def _aligned(headers, rows) -> list[str]:
    table = [tuple(str(cell) for cell in row) for row in rows]
    widths = [
        max(len(header), *(len(row[i]) for row in table)) if table else len(header)
        for i, header in enumerate(headers)
    ]
    return ["  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            for row in [headers, *table]]


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc


def _load_design(path: str) -> Design:
    try:
        obj = json.loads(_read_text(path))
    except ValueError as exc:  # also integers over 4,300 digits
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    return design_from_json(obj)


def _load_layout(path: str):
    return deserialize_layout(_read_text(path))


def _make_code(args):
    make, names = CODE_KINDS[args.code]
    values = [getattr(args, name) for name in names]
    if None in values:
        flags = " and ".join("--" + name for name in names)
        raise UsageError(f"--code {args.code} requires {flags}")
    return make(*values)


def _parse_fail(text: str) -> tuple[int, ...]:
    """The failed disks named in text, sorted and each once."""
    try:
        return tuple(sorted({int(part) for part in text.split(",") if part != ""}))
    except ValueError as exc:
        raise UsageError(
            f"--fail wants comma-separated disk indices, got {text!r}"
        ) from exc


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _by_disk(counts: dict) -> dict[str, int]:
    return {str(d): c for d, c in sorted(counts.items())}


def _design_summary(design: Design) -> str:
    return (
        f"{design.t}-({design.n},{design.k},{design.lam}) design, "
        f"{len(design.blocks)} blocks"
    )


def _design_result(design: Design, payload, table: list[str]) -> Result:
    row = (design.t, design.n, design.k, design.lam, len(design.blocks))
    return Result(payload, "t,n,k,lambda,blocks", [row], table)


def _write(path: str, text: str) -> None:
    """Overwrite path with text in place, through symlinks, keeping mode and links.

    The file is opened without O_TRUNC and cut at the new end after the write:
    ext4 (default auto_da_alloc) flushes a file truncated to zero and then
    rewritten when it is closed, about 60 ms per process on a 2-core VM. No fsync.
    Only a regular file is cut; a device, pipe or FIFO (/dev/null, /dev/stdout)
    cannot be, and O_TRUNC was a no-op on it.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as out:
        out.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            out.truncate()


def _wrote(args) -> list[str]:
    return [f"wrote {args.out}"] if args.out else []


def _design_out(design: Design, args) -> Result:
    payload = design_to_json(design)
    if args.out:
        _write(args.out, json.dumps(payload, indent=2) + "\n")
    return _design_result(design, payload, [_design_summary(design), *_wrote(args)])


def _layout_out(layout, args) -> Result:
    text = serialize_layout(layout)
    if args.out:
        _write(args.out, text)
    groups = len(layout.placements)
    summary = (
        f"layout: n={layout.n} disks, {groups} groups, "
        f"{layout.units_per_disk} column-units/disk, M={layout.rows_per_disk} rows/disk"
    )
    return Result(
        text,
        "n,groups,column_units_per_disk,rows_per_disk",
        [(layout.n, groups, layout.units_per_disk, layout.rows_per_disk)],
        [summary, *_wrote(args)],
    )


# ------------------------------------------------------------- design cmds

def _cmd_design_validate(args) -> Result:
    design = _load_design(args.file)
    payload = {
        "valid": True,
        "t": design.t,
        "n": design.n,
        "k": design.k,
        "lambda": design.lam,
        "block_count": len(design.blocks),
    }
    return _design_result(design, payload, [f"valid {_design_summary(design)}"])


def _cmd_design_complete(args) -> Result:
    return _design_out(complete_design(args.n, args.k, args.t), args)


def _cmd_design_hadamard(args) -> Result:
    return _design_out(hadamard_3design(args.n), args)


def _cmd_design_reduce(args) -> Result:
    return _design_out(reduce_design(_load_design(args.file), args.s), args)


# -------------------------------------------------------------- group cmds

def _code_summary(code) -> str:
    if code.kind == "rdp":
        return f"rdp p={code.p} (k={code.k}, delta={code.delta}, r={code.r})"
    return f"rs k={code.k} delta={code.delta} (r={code.r})"


def _cmd_group_build(args) -> Result:
    group = group_family(_make_code(args), args.family)
    rows = group.extended_rows
    payload = {
        "family": group.family,
        "k": group.k,
        "delta": group.delta,
        "r": group.r,
        "m": group.m,
        "arrangements": [list(row) for row in rows],
    }
    table = [
        f"{group.family} family of {_code_summary(group.code)}: "
        f"{len(rows)} arrangements, m={group.m}"
    ] + ["  " + " ".join(label.rjust(2) for label in row) for row in rows]
    return Result(
        payload, "arrangement,labels", [(i, " ".join(row)) for i, row in enumerate(rows)], table
    )


_CONDITIONS = (
    ("c1", "fixed data/parity entry split"),
    ("c2", "any loss of <= delta columns is decodable"),
    ("c3", "equal reads from every surviving column"),
    ("c4", "equal parity entries per column"),
)


def _cmd_group_verify(args) -> Result:
    group = group_family(_make_code(args), args.family)
    max_s = args.max_s if args.max_s is not None else group.delta
    report = verify_balance(group, max_s)
    payload = {
        "c1": report.c1,
        "c2": report.c2,
        "c3": report.c3,
        "c4": report.c4,
        "balanced": report.balanced,
        "k": report.k,
        "delta": report.delta,
        "r": report.r,
        "m": report.m,
        "parity_per_column": list(report.parity_per_column),
        "taus": {str(s): v for s, v in report.taus.items()},
    }
    taus = sorted(report.taus.items())
    rows = [
        *((field, "pass" if getattr(report, field) else "fail") for field, _ in _CONDITIONS),
        ("balanced", _yes(report.balanced)),
        *((f"tau_{s}", value) for s, value in taus),
    ]
    table = [
        f"condition {field[1]} ({meaning}): {'pass' if getattr(report, field) else 'FAIL'}"
        for field, meaning in _CONDITIONS
    ]
    table.append(f"balanced: {_yes(report.balanced)}")
    for s, value in taus:
        if value is None:
            table.append(f"tau_{s}: undefined (reads depend on the failure set)")
        else:
            table.append(f"tau_{s}: {value} of m={report.m}")
    return Result(payload, "check,result", rows, table)


# ------------------------------------------------------------- layout cmds

def _cmd_layout_build(args) -> Result:
    design = _load_design(args.design)
    group = group_family(_make_code(args), args.family)
    return _layout_out(build_layout(group, design), args)


def _cmd_layout_rotate(args) -> Result:
    return _layout_out(rotate_layout(_load_layout(args.layout)), args)


def _cmd_layout_inspect(args) -> Result:
    layout = _load_layout(args.layout)
    geometry = layout_geometry(layout)
    parity = geometry.parity_units_per_disk
    groups = len(layout.placements)
    data_disks = round_half_up(geometry.data_disks)
    parity_disks = round_half_up(geometry.parity_disks)
    payload = {
        "n": layout.n,
        "groups": groups,
        "rows_per_disk": geometry.rows_per_disk,
        "column_units_per_disk": geometry.column_units_per_disk,
        "parity_units_per_disk": list(parity),
        "parity_uniform": geometry.parity_uniform,
        "data_disks": str(geometry.data_disks),
        "parity_disks": str(geometry.parity_disks),
    }
    header = (
        "n,groups,rows_per_disk,column_units_per_disk,"
        "parity_units_min,parity_units_max,data_disks,parity_disks"
    )
    row = (
        layout.n, groups, geometry.rows_per_disk, geometry.column_units_per_disk,
        min(parity), max(parity), data_disks, parity_disks,
    )
    if geometry.parity_uniform:
        spread = f"{parity[0]} (uniform)"
    else:
        spread = f"{min(parity)}..{max(parity)} (non-uniform)"
    table = [
        f"disks: {layout.n}",
        f"groups: {groups}",
        f"rows per disk (M): {geometry.rows_per_disk}",
        f"column-units per disk: {geometry.column_units_per_disk}",
        f"parity units per disk: {spread}",
        f"data disks: {data_disks}",
        f"parity disks: {parity_disks}",
    ]
    return Result(payload, header, [row], table)


# ------------------------------------------------------------ analyze cmds

def _cmd_analyze_workload(args) -> Result:
    layout = _load_layout(args.layout)
    report = reconstruction_workload(layout, _parse_fail(args.fail))
    reads = sorted(report.reads.items())
    payload = {
        "failed": sorted(report.failed),
        "reads": _by_disk(report.reads),
        "uniform": report.uniform,
        "closed_form": report.closed_form,
        "fraction": None if report.fraction is None else str(report.fraction),
    }
    table = [
        f"failed disks: {','.join(map(str, sorted(report.failed))) or '-'}",
        *_aligned(("disk", "units_read"), reads),
        f"uniform: {_yes(report.uniform)}",
    ]
    if report.fraction is not None:
        table.append(f"fraction of each surviving disk read: {report.fraction}")
    if report.closed_form is not None:
        match = set(report.reads.values()) == {report.closed_form}
        table.append(
            f"closed form: {report.closed_form} ({'matches' if match else 'MISMATCH'})"
        )
    return Result(payload, "disk,units_read", reads, table)


def _tradeoff_rows(args) -> list[tuple[int, int]]:
    if args.fixture and args.row:
        raise UsageError("give either --fixture or --row, not both")
    if args.fixture:
        return sorted(TRADEOFF_LAMBDA_PRESETS[args.fixture].items())
    if args.row:
        rows = []
        for item in args.row:
            try:
                k_text, lam_text = item.split(":")
                rows.append((int(k_text), int(lam_text)))
            except ValueError as exc:
                raise UsageError(f"--row wants K:LAMBDA, got {item!r}") from exc
        return rows
    raise UsageError("analyze tradeoff needs --fixture or --row")


def _cmd_analyze_tradeoff(args) -> Result:
    cells = []
    for row in tradeoff_table(args.n, _tradeoff_rows(args)):
        depth = row.depth_over_m
        cells.append((
            row.k,
            row.lam,
            round_half_up(row.pct_one_failure),
            round_half_up(row.pct_two_failures),
            round_half_up(row.parity_disks),
            depth.numerator if depth.denominator == 1 else str(depth),
        ))
    names = TRADEOFF_CSV_HEADER.split(",")
    payload = [
        dict(zip(names, (k, lam, float(one), float(two), float(parity), depth)))
        for k, lam, one, two, parity, depth in cells
    ]
    return Result(payload, TRADEOFF_CSV_HEADER, cells, _aligned(names, cells))


def _cmd_analyze_counterexample(args) -> Result:
    design = _load_design(args.design)
    group = group_family(_make_code(args), args.family)
    report = counterexample_report(group, design, _parse_fail(args.fail))
    payload = {
        "failed": sorted(report.failed),
        "cells": [
            {
                "group": index,
                "disk": disk,
                "label": report.labels[index, disk],
                "accessed": report.accessed[index, disk],
            }
            for index, disk in sorted(report.labels)
        ],
        "units_accessed": _by_disk(report.units_accessed),
        "entries_read": _by_disk(report.entries_read),
        "uniform_units": report.uniform_units,
        "uniform_entries": report.uniform_entries,
    }
    survivors = sorted(report.units_accessed)
    rows = [(d, report.units_accessed[d], report.entries_read[d]) for d in survivors]
    grid = []
    for index in range(report.block_count):
        cells = [str(index)]
        for disk in range(report.n):
            label = report.labels.get((index, disk))
            if label is None:
                cells.append("-")
            else:
                cells.append(label + ("*" if report.accessed[index, disk] else ""))
        grid.append(cells)
    table = [
        f"failed disks: {','.join(map(str, sorted(report.failed)))}",
        *_aligned(["group"] + [f"d{d}" for d in range(report.n)], grid),
        "(* = column-unit participates in this reconstruction)",
        *(f"disk {d}: {units} column-units accessed, {entries} entries read"
          for d, units, entries in rows),
        f"uniform: {_yes(report.uniform_entries)}",
    ]
    return Result(payload, "disk,column_units_accessed,entries_read", rows, table)


# ---------------------------------------------------------------- simulate

def _cmd_simulate(args) -> Result:
    if (args.fail is None) == (args.exhaustive is None):
        raise UsageError("simulate needs exactly one of --fail or --exhaustive")
    layout = _load_layout(args.layout)
    if args.exhaustive is not None:
        summary = exhaustive_verify(layout, args.exhaustive, seed=args.seed)
        if summary.uniform:
            reads = f"uniform reads {summary.min_reads}/disk"
        else:
            reads = f"reads {summary.min_reads}..{summary.max_reads}/disk"
        payload = {
            "s": summary.s,
            "total": summary.total,
            "passed": summary.passed,
            "uniform": summary.uniform,
            "reads_per_disk": summary.reads_per_disk,
            "sets": [
                {
                    "failed": list(result.failed),
                    "recovered": result.recovered,
                    "min_reads": result.min_reads,
                    "max_reads": result.max_reads,
                }
                for result in summary.results
            ],
        }
        rows = [
            (" ".join(map(str, result.failed)), _yes(result.recovered),
             result.min_reads, result.max_reads)
            for result in summary.results
        ]
        return Result(
            payload,
            "failed,recovered,min_reads,max_reads",
            rows,
            [f"{summary.passed}/{summary.total} recovered, {reads}"],
            0 if summary.passed == summary.total else 1,
        )
    failed = _parse_fail(args.fail)
    array = materialize(layout, args.seed)
    rebuilt, stats = fail_and_reconstruct(array, failed)
    ok = rebuilt.disks == array.disks
    payload = {
        "failed": sorted(failed),
        "recovered": ok,
        "reads": _by_disk(stats.reads),
        "writes": _by_disk(stats.writes),
    }
    reads = sorted(stats.reads.items())
    table = [*_aligned(("disk", "units_read"), reads), f"recovered: {_yes(ok)}"]
    return Result(payload, "disk,units_read", reads, table, 0 if ok else 1)


# ------------------------------------------------------------------ parser

_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": int, "required": True}
_FAIL_HELP = "comma-separated disk indices"
_CODE_FLAGS = {
    "code": {"choices": tuple(CODE_KINDS), "required": True},
    "p": {"type": int, "help": "rdp prime (k = p+1)"},
    "k": {"type": int, "help": "rs column count"},
    "delta": {"type": int, "help": "rs parity column count"},
    "family": {"choices": FAMILIES, "default": "full"},
}


def _command(sub, name, handler, help, **flags) -> None:
    """Add subcommand `name`: --flag per keyword in order, then --format."""
    parser = sub.add_parser(name, help=help)
    for flag, options in flags.items():
        parser.add_argument("--" + flag.replace("_", "-"), **options)
    parser.add_argument("--format", choices=FORMATS, default="table")
    parser.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="declustr",
        description="Build and check declustered-parity disk-array layouts.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    def tool(name, help):
        return top.add_parser(name, help=help).add_subparsers(dest="subcommand", required=True)

    design = tool("design", "t-(n,k,lambda) design tools")
    _command(design, "validate", _cmd_design_validate, "validate a design file", file=_REQUIRED)
    _command(
        design, "complete", _cmd_design_complete, "all k-subsets of n points",
        n=_REQUIRED_INT, k=_REQUIRED_INT, t=_REQUIRED_INT, out={},
    )
    _command(
        design, "hadamard", _cmd_design_hadamard,
        "3-(n, n/2, n/4-1) design from a Sylvester matrix", n=_REQUIRED_INT, out={},
    )
    _command(
        design, "reduce", _cmd_design_reduce, "reinterpret at lower strength",
        file=_REQUIRED, s=_REQUIRED_INT, out={},
    )

    group = tool("group", "parity-group tools")
    _command(group, "build", _cmd_group_build, "list a group's arrangements", **_CODE_FLAGS)
    _command(
        group, "verify", _cmd_group_verify, "check the balance conditions",
        **_CODE_FLAGS, max_s={"type": int},
    )

    layout = tool("layout", "layout construction tools")
    _command(
        layout, "build", _cmd_layout_build, "place a group per design block",
        design=_REQUIRED, **_CODE_FLAGS, out={},
    )
    _command(
        layout, "rotate", _cmd_layout_rotate,
        "stack n disk-shifted copies (single-parity layouts)", layout=_REQUIRED, out={},
    )
    _command(layout, "inspect", _cmd_layout_inspect, "geometry of a layout file", layout=_REQUIRED)

    analyze = tool("analyze", "reconstruction-workload reports")
    _command(
        analyze, "workload", _cmd_analyze_workload, "per-disk reads for one failure set",
        layout=_REQUIRED, fail={"required": True, "help": _FAIL_HELP},
    )
    _command(
        analyze, "tradeoff", _cmd_analyze_tradeoff, "k-versus-cost table for fixed n",
        n=_REQUIRED_INT,
        fixture={"choices": sorted(TRADEOFF_LAMBDA_PRESETS)},
        row={"action": "append", "help": "K:LAMBDA, repeatable"},
    )
    _command(
        analyze, "counterexample", _cmd_analyze_counterexample,
        "per-unit access table for one failure set",
        design=_REQUIRED, **_CODE_FLAGS, fail={"required": True, "help": _FAIL_HELP},
    )

    _command(
        top, "simulate", _cmd_simulate, "byte-level failure and recovery",
        layout=_REQUIRED,
        fail={"help": _FAIL_HELP},
        exhaustive={"type": int, "help": "sweep all failure sets of this size"},
        seed={"type": int, "default": 1},
    )
    return parser


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _emit(args.handler(args), args.format)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DeclustrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
