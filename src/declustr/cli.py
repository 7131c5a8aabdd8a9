"""Command-line interface for building and checking declustered layouts.

Subcommands: design {validate|complete|hadamard|reduce}, group
{build|verify}, layout {build|rotate|inspect}, analyze
{workload|tradeoff|counterexample}, simulate. Every subcommand honors
--format {table,csv,json}; the machine formats print nothing but the
payload. Exit codes: 0 success, 1 domain error (or failed verification),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

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
from .erasure_codes import rdp_code, rs_code
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


# ---------------------------------------------------------------- helpers

def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _print_aligned(headers, rows) -> None:
    table = [tuple(str(cell) for cell in row) for row in rows]
    widths = [
        max(len(header), *(len(row[i]) for row in table)) if table else len(header)
        for i, header in enumerate(headers)
    ]
    print("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    for row in table:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))


def _read_text(path: str) -> str:
    return Path(path).read_text()


def _load_design(path: str) -> Design:
    try:
        obj = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    return design_from_json(obj)


def _load_layout(path: str):
    return deserialize_layout(_read_text(path))


def _make_code(args):
    if args.code == "rdp":
        if args.p is None:
            raise UsageError("--code rdp requires --p")
        return rdp_code(args.p)
    if args.k is None or args.delta is None:
        raise UsageError("--code rs requires --k and --delta")
    return rs_code(args.k, args.delta)


def _parse_fail(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise UsageError(
            f"--fail wants comma-separated disk indices, got {text!r}"
        ) from exc


def _fraction_json(value: Fraction | None):
    return None if value is None else str(value)


def _depth_str(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else str(value)


def _design_summary(design: Design) -> str:
    return (
        f"{design.t}-({design.n},{design.k},{design.lam}) design, "
        f"{len(design.blocks)} blocks"
    )


def _emit_design(design: Design, args) -> int:
    payload = design_to_json(design)
    if getattr(args, "out", None):
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        print("t,n,k,lambda,blocks")
        print(
            f"{design.t},{design.n},{design.k},{design.lam},{len(design.blocks)}"
        )
    else:
        print(_design_summary(design))
        if getattr(args, "out", None):
            print(f"wrote {args.out}")
    return 0


def _emit_layout(layout, args) -> int:
    text = serialize_layout(layout)
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    if args.format == "json":
        print(text, end="")
    elif args.format == "csv":
        print("n,groups,column_units_per_disk,rows_per_disk")
        print(
            f"{layout.n},{len(layout.placements)},"
            f"{layout.units_per_disk},{layout.rows_per_disk}"
        )
    else:
        print(
            f"layout: n={layout.n} disks, {len(layout.placements)} groups, "
            f"{layout.units_per_disk} column-units/disk, "
            f"M={layout.rows_per_disk} rows/disk"
        )
        if getattr(args, "out", None):
            print(f"wrote {args.out}")
    return 0


# ------------------------------------------------------------- design cmds

def _cmd_design_validate(args) -> int:
    design = _load_design(args.file)
    if args.format == "json":
        _print_json(
            {
                "valid": True,
                "t": design.t,
                "n": design.n,
                "k": design.k,
                "lambda": design.lam,
                "block_count": len(design.blocks),
            }
        )
    elif args.format == "csv":
        print("t,n,k,lambda,blocks")
        print(
            f"{design.t},{design.n},{design.k},{design.lam},{len(design.blocks)}"
        )
    else:
        print(f"valid {_design_summary(design)}")
    return 0


def _cmd_design_complete(args) -> int:
    return _emit_design(complete_design(args.n, args.k, args.t), args)


def _cmd_design_hadamard(args) -> int:
    return _emit_design(hadamard_3design(args.n), args)


def _cmd_design_reduce(args) -> int:
    return _emit_design(reduce_design(_load_design(args.file), args.s), args)


# -------------------------------------------------------------- group cmds

def _code_summary(code) -> str:
    if code.kind == "rdp":
        return f"rdp p={code.p} (k={code.k}, delta={code.delta}, r={code.r})"
    return f"rs k={code.k} delta={code.delta} (r={code.r})"


def _cmd_group_build(args) -> int:
    group = group_family(_make_code(args), args.family)
    if args.format == "json":
        _print_json(
            {
                "family": group.family,
                "k": group.k,
                "delta": group.delta,
                "r": group.r,
                "m": group.m,
                "arrangements": [list(row) for row in group.extended_rows],
            }
        )
    elif args.format == "csv":
        print("arrangement,labels")
        for i, row in enumerate(group.extended_rows):
            print(f"{i},{' '.join(row)}")
    else:
        print(
            f"{group.family} family of {_code_summary(group.code)}: "
            f"{len(group.extended_rows)} arrangements, m={group.m}"
        )
        for row in group.extended_rows:
            print("  " + " ".join(label.rjust(2) for label in row))
    return 0


_CONDITIONS = (
    ("c1", "fixed data/parity entry split"),
    ("c2", "any loss of <= delta columns is decodable"),
    ("c3", "equal reads from every surviving column"),
    ("c4", "equal parity entries per column"),
)


def _cmd_group_verify(args) -> int:
    group = group_family(_make_code(args), args.family)
    max_s = args.max_s if args.max_s is not None else group.delta
    report = verify_balance(group, max_s)
    if args.format == "json":
        _print_json(
            {
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
        )
    elif args.format == "csv":
        print("check,result")
        for field, _ in _CONDITIONS:
            print(f"{field},{'pass' if getattr(report, field) else 'fail'}")
        print(f"balanced,{'yes' if report.balanced else 'no'}")
        for s, value in sorted(report.taus.items()):
            print(f"tau_{s},{'' if value is None else value}")
    else:
        for field, meaning in _CONDITIONS:
            verdict = "pass" if getattr(report, field) else "FAIL"
            print(f"condition {field[1]} ({meaning}): {verdict}")
        print(f"balanced: {'yes' if report.balanced else 'no'}")
        for s, value in sorted(report.taus.items()):
            if value is None:
                print(f"tau_{s}: undefined (reads depend on the failure set)")
            else:
                print(f"tau_{s}: {value} of m={report.m}")
    return 0


# ------------------------------------------------------------- layout cmds

def _cmd_layout_build(args) -> int:
    design = _load_design(args.design)
    group = group_family(_make_code(args), args.family)
    return _emit_layout(build_layout(group, design), args)


def _cmd_layout_rotate(args) -> int:
    return _emit_layout(rotate_layout(_load_layout(args.layout)), args)


def _cmd_layout_inspect(args) -> int:
    layout = _load_layout(args.layout)
    geometry = layout_geometry(layout)
    parity = geometry.parity_units_per_disk
    if args.format == "json":
        _print_json(
            {
                "n": layout.n,
                "groups": len(layout.placements),
                "rows_per_disk": geometry.rows_per_disk,
                "column_units_per_disk": geometry.column_units_per_disk,
                "parity_units_per_disk": list(parity),
                "parity_uniform": geometry.parity_uniform,
                "data_disks": str(geometry.data_disks),
                "parity_disks": str(geometry.parity_disks),
            }
        )
    elif args.format == "csv":
        print(
            "n,groups,rows_per_disk,column_units_per_disk,"
            "parity_units_min,parity_units_max,data_disks,parity_disks"
        )
        print(
            f"{layout.n},{len(layout.placements)},{geometry.rows_per_disk},"
            f"{geometry.column_units_per_disk},{min(parity)},{max(parity)},"
            f"{round_half_up(geometry.data_disks)},"
            f"{round_half_up(geometry.parity_disks)}"
        )
    else:
        print(f"disks: {layout.n}")
        print(f"groups: {len(layout.placements)}")
        print(f"rows per disk (M): {geometry.rows_per_disk}")
        print(f"column-units per disk: {geometry.column_units_per_disk}")
        if geometry.parity_uniform:
            print(f"parity units per disk: {parity[0]} (uniform)")
        else:
            print(
                f"parity units per disk: {min(parity)}..{max(parity)} (non-uniform)"
            )
        print(f"data disks: {round_half_up(geometry.data_disks)}")
        print(f"parity disks: {round_half_up(geometry.parity_disks)}")
    return 0


# ------------------------------------------------------------ analyze cmds

def _cmd_analyze_workload(args) -> int:
    layout = _load_layout(args.layout)
    report = reconstruction_workload(layout, _parse_fail(args.fail))
    if args.format == "json":
        _print_json(
            {
                "failed": sorted(report.failed),
                "reads": {str(d): c for d, c in sorted(report.reads.items())},
                "uniform": report.uniform,
                "closed_form": report.closed_form,
                "fraction": _fraction_json(report.fraction),
            }
        )
    elif args.format == "csv":
        print("disk,units_read")
        for disk, count in sorted(report.reads.items()):
            print(f"{disk},{count}")
    else:
        print(f"failed disks: {','.join(map(str, sorted(report.failed))) or '-'}")
        _print_aligned(
            ("disk", "units_read"), sorted(report.reads.items())
        )
        print(f"uniform: {'yes' if report.uniform else 'no'}")
        if report.fraction is not None:
            print(f"fraction of each surviving disk read: {report.fraction}")
        if report.closed_form is not None:
            counts = set(report.reads.values())
            match = counts == {report.closed_form}
            print(
                f"closed form: {report.closed_form} "
                f"({'matches' if match else 'MISMATCH'})"
            )
    return 0


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


def _cmd_analyze_tradeoff(args) -> int:
    rows = tradeoff_table(args.n, _tradeoff_rows(args))
    cells = [
        (
            row.k,
            row.lam,
            round_half_up(row.pct_one_failure),
            round_half_up(row.pct_two_failures),
            round_half_up(row.parity_disks),
            _depth_str(row.depth_over_m),
        )
        for row in rows
    ]
    if args.format == "json":
        _print_json(
            [
                {
                    "k": row.k,
                    "lambda": row.lam,
                    "pct_one_failure": float(round_half_up(row.pct_one_failure)),
                    "pct_two_failures": float(round_half_up(row.pct_two_failures)),
                    "parity_disks": float(round_half_up(row.parity_disks)),
                    "depth_over_m": (
                        row.depth_over_m.numerator
                        if row.depth_over_m.denominator == 1
                        else str(row.depth_over_m)
                    ),
                }
                for row in rows
            ]
        )
    elif args.format == "csv":
        print(TRADEOFF_CSV_HEADER)
        for line in cells:
            print(",".join(map(str, line)))
    else:
        _print_aligned(TRADEOFF_CSV_HEADER.split(","), cells)
    return 0


def _cmd_analyze_counterexample(args) -> int:
    design = _load_design(args.design)
    group = group_family(_make_code(args), args.family)
    report = counterexample_report(group, design, _parse_fail(args.fail))
    if args.format == "json":
        _print_json(
            {
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
                "units_accessed": {
                    str(d): c for d, c in sorted(report.units_accessed.items())
                },
                "entries_read": {
                    str(d): c for d, c in sorted(report.entries_read.items())
                },
                "uniform_units": report.uniform_units,
                "uniform_entries": report.uniform_entries,
            }
        )
    elif args.format == "csv":
        print("disk,column_units_accessed,entries_read")
        for disk in sorted(report.units_accessed):
            print(
                f"{disk},{report.units_accessed[disk]},{report.entries_read[disk]}"
            )
    else:
        print(f"failed disks: {','.join(map(str, sorted(report.failed)))}")
        headers = ["group"] + [f"d{d}" for d in range(report.n)]
        rows = []
        for index in range(report.block_count):
            cells = [str(index)]
            for disk in range(report.n):
                label = report.labels.get((index, disk))
                if label is None:
                    cells.append("-")
                else:
                    cells.append(label + ("*" if report.accessed[index, disk] else ""))
            rows.append(cells)
        _print_aligned(headers, rows)
        print("(* = column-unit participates in this reconstruction)")
        for disk in sorted(report.units_accessed):
            print(
                f"disk {disk}: {report.units_accessed[disk]} column-units "
                f"accessed, {report.entries_read[disk]} entries read"
            )
        print(f"uniform: {'yes' if report.uniform_entries else 'no'}")
    return 0


# ---------------------------------------------------------------- simulate

def _cmd_simulate(args) -> int:
    if (args.fail is None) == (args.exhaustive is None):
        raise UsageError("simulate needs exactly one of --fail or --exhaustive")
    layout = _load_layout(args.layout)
    if args.exhaustive is not None:
        summary = exhaustive_verify(layout, args.exhaustive, seed=args.seed)
        if summary.uniform:
            verdict = (
                f"{summary.passed}/{summary.total} recovered, "
                f"uniform reads {summary.min_reads}/disk"
            )
        else:
            verdict = (
                f"{summary.passed}/{summary.total} recovered, "
                f"reads {summary.min_reads}..{summary.max_reads}/disk"
            )
        if args.format == "json":
            _print_json(
                {
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
            )
        elif args.format == "csv":
            print("failed,recovered,min_reads,max_reads")
            for result in summary.results:
                print(
                    f"{' '.join(map(str, result.failed))},"
                    f"{'yes' if result.recovered else 'no'},"
                    f"{result.min_reads},{result.max_reads}"
                )
        else:
            print(verdict)
        return 0 if summary.passed == summary.total else 1
    failed = _parse_fail(args.fail)
    array = materialize(layout, args.seed)
    rebuilt, stats = fail_and_reconstruct(array, failed)
    ok = rebuilt.disks == array.disks
    if args.format == "json":
        _print_json(
            {
                "failed": sorted(failed),
                "recovered": ok,
                "reads": {str(d): c for d, c in sorted(stats.reads.items())},
                "writes": {str(d): c for d, c in sorted(stats.writes.items())},
            }
        )
    elif args.format == "csv":
        print("disk,units_read")
        for disk, count in sorted(stats.reads.items()):
            print(f"{disk},{count}")
    else:
        _print_aligned(("disk", "units_read"), sorted(stats.reads.items()))
        print(f"recovered: {'yes' if ok else 'no'}")
    return 0 if ok else 1


# ------------------------------------------------------------------ parser

def _add_format(parser) -> None:
    parser.add_argument("--format", choices=FORMATS, default="table")


def _add_code_args(parser) -> None:
    parser.add_argument("--code", choices=("rdp", "rs"), required=True)
    parser.add_argument("--p", type=int, help="rdp prime (k = p+1)")
    parser.add_argument("--k", type=int, help="rs column count")
    parser.add_argument("--delta", type=int, help="rs parity column count")
    parser.add_argument("--family", choices=FAMILIES, default="full")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="declustr",
        description="Build and check declustered-parity disk-array layouts.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    design = top.add_parser("design", help="t-(n,k,lambda) design tools")
    design_sub = design.add_subparsers(dest="subcommand", required=True)

    p = design_sub.add_parser("validate", help="validate a design file")
    p.add_argument("--file", required=True)
    _add_format(p)
    p.set_defaults(handler=_cmd_design_validate)

    p = design_sub.add_parser("complete", help="all k-subsets of n points")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--out")
    _add_format(p)
    p.set_defaults(handler=_cmd_design_complete)

    p = design_sub.add_parser(
        "hadamard", help="3-(n, n/2, n/4-1) design from a Sylvester matrix"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    _add_format(p)
    p.set_defaults(handler=_cmd_design_hadamard)

    p = design_sub.add_parser("reduce", help="reinterpret at lower strength")
    p.add_argument("--file", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--out")
    _add_format(p)
    p.set_defaults(handler=_cmd_design_reduce)

    group = top.add_parser("group", help="parity-group tools")
    group_sub = group.add_subparsers(dest="subcommand", required=True)

    p = group_sub.add_parser("build", help="list a group's arrangements")
    _add_code_args(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_group_build)

    p = group_sub.add_parser("verify", help="check the balance conditions")
    _add_code_args(p)
    p.add_argument("--max-s", type=int, dest="max_s")
    _add_format(p)
    p.set_defaults(handler=_cmd_group_verify)

    layout = top.add_parser("layout", help="layout construction tools")
    layout_sub = layout.add_subparsers(dest="subcommand", required=True)

    p = layout_sub.add_parser("build", help="place a group per design block")
    p.add_argument("--design", required=True)
    _add_code_args(p)
    p.add_argument("--out")
    _add_format(p)
    p.set_defaults(handler=_cmd_layout_build)

    p = layout_sub.add_parser(
        "rotate", help="stack n disk-shifted copies (single-parity layouts)"
    )
    p.add_argument("--layout", required=True)
    p.add_argument("--out")
    _add_format(p)
    p.set_defaults(handler=_cmd_layout_rotate)

    p = layout_sub.add_parser("inspect", help="geometry of a layout file")
    p.add_argument("--layout", required=True)
    _add_format(p)
    p.set_defaults(handler=_cmd_layout_inspect)

    analyze = top.add_parser("analyze", help="reconstruction-workload reports")
    analyze_sub = analyze.add_subparsers(dest="subcommand", required=True)

    p = analyze_sub.add_parser("workload", help="per-disk reads for one failure set")
    p.add_argument("--layout", required=True)
    p.add_argument("--fail", required=True, help="comma-separated disk indices")
    _add_format(p)
    p.set_defaults(handler=_cmd_analyze_workload)

    p = analyze_sub.add_parser("tradeoff", help="k-versus-cost table for fixed n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--fixture", choices=sorted(TRADEOFF_LAMBDA_PRESETS))
    p.add_argument("--row", action="append", help="K:LAMBDA, repeatable")
    _add_format(p)
    p.set_defaults(handler=_cmd_analyze_tradeoff)

    p = analyze_sub.add_parser(
        "counterexample", help="per-unit access table for one failure set"
    )
    p.add_argument("--design", required=True)
    _add_code_args(p)
    p.add_argument("--fail", required=True, help="comma-separated disk indices")
    _add_format(p)
    p.set_defaults(handler=_cmd_analyze_counterexample)

    p = top.add_parser("simulate", help="byte-level failure and recovery")
    p.add_argument("--layout", required=True)
    p.add_argument("--fail", help="comma-separated disk indices")
    p.add_argument("--exhaustive", type=int, help="sweep all failure sets of this size")
    p.add_argument("--seed", type=int, default=1)
    _add_format(p)
    p.set_defaults(handler=_cmd_simulate)

    return parser


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
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
