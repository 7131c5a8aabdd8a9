"""The four benchmark workloads: set-up, seeded operation cycles and checks.

A workload runs in whole cycles. Every cycle holds the same operations in
the same proportions; the seed picks the failure sets, fill seeds and the
order inside each cycle, so throughput does not depend on which seed ran.
Each operation returns its output, and its check (run outside the timed
region) returns None or a description of what was wrong.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import math
import os
import shlex
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import declustr as dc

from inputs import (
    failure_set,
    fill_seed,
    pgl_orbit,
    reads_per_survivor,
    rng_for,
    rotation_rows,
    tau_full,
    walk_reads,
)

WALKTHROUGH = Path(__file__).with_name("walkthrough.txt")


@dataclass
class Op:
    """One timed call into the program and the check of its output."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    inputs: tuple = ()  # the seeded inputs, for reports and reproducibility
    units: int = 1  # throughput units (failure sets for sweeps, else 1)
    nbytes: int = 0  # bytes the operation produces, for bytes/s metrics


class Workload:
    name = ""
    why = ""
    primary = ""  # the op kind behind op_ms.p50
    trace_cycles = 1  # cycles of a traced run; fixed so counts repeat exactly
    spawns = False  # operations and set-up wait on child processes

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.rng = rng_for(self.name, seed)

    def setup(self) -> None:
        """The program's set-up before the first timed operation."""
        raise NotImplementedError

    def check_setup(self) -> str | None:
        return None

    def cycle(self) -> list[Op]:
        raise NotImplementedError

    def report(self, rec) -> dict:
        """This workload's named metrics (see run.REPORTED): name -> (value, samples)."""
        return {}

    def layer_extras(self, ref, clock) -> dict:
        """Per-layer values the tracer cannot see: name -> value, or None when
        the program lacks what the value measures. `ref` holds the untraced
        cycles; `clock` is running."""
        return {}


def _expect(label, got, want) -> str | None:
    return None if got == want else f"{label}: got {got!r}, want {want!r}"


# ------------------------------------------------------------- rs-rebuild

class RsRebuild(Workload):
    name = "rs-rebuild"
    why = (
        "RS(6,2) on complete_design(12,6,3), 924 groups: seeded 1- and 2-disk "
        "rebuilds and re-fills, where GF(256) encode/decode dominate; op = "
        "one 2-disk rebuild"
    )
    primary = "rebuild2"
    trace_cycles = 2
    n, k, t, delta = 12, 6, 3, 2

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.setup_fill = fill_seed(self.rng)
        lam = math.comb(self.n - self.t, self.k - self.t)
        self.expected_reads = {
            s: reads_per_survivor(self.t, self.n, self.k, lam, self.delta, 1, s)
            for s in (1, 2)
        }

    def setup(self):
        design = dc.complete_design(self.n, self.k, self.t)
        group = dc.group_family(dc.rs_code(self.k, self.delta), "full")
        self.layout = dc.build_layout(group, design)
        self.array = dc.materialize(self.layout, self.setup_fill)

    def check_setup(self):
        return _expect("parity invariant", dc.check_parity_invariant(self.array), True)

    def cycle(self):
        rows = self.layout.rows_per_disk
        seed = fill_seed(self.rng)
        sets = [failure_set(self.rng, self.n, s) for s in (1, 1, 2, 2)]
        self.rng.shuffle(sets)

        def fill():
            self.array = dc.materialize(self.layout, seed)
            return self.array

        def check_fill(array):
            return _expect("parity invariant", dc.check_parity_invariant(array), True)

        ops = [Op("fill", fill, check_fill, (seed,), nbytes=self.n * rows)]
        for failed in sets:
            ops.append(Op(
                f"rebuild{len(failed)}",
                lambda failed=failed: self._rebuild(failed),
                lambda out, failed=failed: self._check_rebuild(failed, *out),
                failed,
                nbytes=len(failed) * rows,
            ))
        return ops

    def _rebuild(self, failed):
        array = self.array
        return (array, *dc.fail_and_reconstruct(array, failed))

    def _check_rebuild(self, failed, array, rebuilt, stats):
        survivors = [d for d in range(self.n) if d not in failed]
        want = self.expected_reads[len(failed)]
        if len(failed) == 2:
            self.last_double = stats
        return (
            _expect(f"rebuilt bytes of {failed}", rebuilt.disks == array.disks, True)
            or _expect(f"reads of {failed}", stats.reads, {d: want for d in survivors})
            or _expect(
                f"writes of {failed}", stats.writes,
                {d: self.layout.rows_per_disk for d in failed},
            )
        )

    def report(self, rec):
        out = {}
        for s in (1, 2):
            times = rec.times.get(f"rebuild{s}", [])
            out[f"rebuild{s}_ms.p50"] = (median_ms(times), len(times))
        rebuilds = rec.times.get("rebuild1", []) + rec.times.get("rebuild2", [])
        rebuild_bytes = rec.nbytes.get("rebuild1", 0) + rec.nbytes.get("rebuild2", 0)
        out["rebuild_bytes_per_s"] = (rate(rebuild_bytes, sum(rebuilds)), len(rebuilds))
        fills = rec.times.get("fill", [])
        out["fill_bytes_per_s"] = (rate(rec.nbytes.get("fill", 0), sum(fills)), len(fills))
        return out

    def layer_extras(self, ref, clock):
        stats = getattr(self, "last_double", None)
        if stats is None:
            return {}
        return {
            "simulator.units_read": min(stats.reads.values()),
            "simulator.units_written": min(stats.writes.values()),
            "erasure_codes.decode_bytes": self.layout.group.r * self.k,
        }


# -------------------------------------------------------------- rdp-sweep

class RdpSweep(Workload):
    name = "rdp-sweep"
    why = (
        "RDP p=7 on hadamard_3design(16): exhaustive s=1 and s=2 sweeps, XOR "
        "only so GF(256) idles; op = one s=2 sweep, ops = failure sets "
        "verified"
    )
    primary = "sweep2"
    trace_cycles = 1
    n = 16

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.setup_fill = fill_seed(self.rng)
        self.expected_reads = {
            s: reads_per_survivor(3, 16, 8, 3, 2, 6, s) for s in (1, 2)
        }

    def setup(self):
        built = dc.hadamard_3design(self.n)
        p = built.params
        design = dc.validate_design(built.blocks, p.t, p.n, p.k, p.lam)
        group = dc.group_family(dc.rdp_code(7), "full")
        self.layout = dc.build_layout(group, design)
        self.array = dc.materialize(self.layout, self.setup_fill)

    def check_setup(self):
        return _expect("parity invariant", dc.check_parity_invariant(self.array), True)

    def cycle(self):
        ops = []
        for s in (1, 2):
            seed = fill_seed(self.rng)
            ops.append(Op(
                f"sweep{s}",
                lambda s=s, seed=seed: dc.exhaustive_verify(self.layout, s, seed=seed),
                lambda out, s=s: self._check_sweep(s, out),
                (s, seed),
                units=math.comb(self.n, s),
            ))
        return ops

    def _check_sweep(self, s, summary):
        if s == 2:
            self.last_sweep = summary
        return (
            _expect(f"s={s} sets", summary.total, math.comb(self.n, s))
            or _expect(f"s={s} recovered", summary.passed, summary.total)
            or _expect(f"s={s} uniform", summary.uniform, True)
            or _expect(f"s={s} reads/disk", summary.reads_per_disk, self.expected_reads[s])
        )

    def report(self, rec):
        return {"verify_sets_per_s": (rate(rec.units, rec.busy), rec.units)}

    def layer_extras(self, ref, clock):
        out = {
            "erasure_codes.decode_bytes": self.layout.group.r * self.layout.group.k,
            "simulator.sweep_jobs2_over_jobs1": self._jobs_ratio(ref, clock),
        }
        summary = getattr(self, "last_sweep", None)
        if summary is not None:
            out["simulator.units_read"] = summary.reads_per_disk
        return out

    def _jobs_ratio(self, ref, clock) -> float | None:
        """s=2 sweep time with 2 threads over the time with 1, if jobs exists."""
        if "jobs" not in inspect.signature(dc.exhaustive_verify).parameters:
            return None
        jobs2_s = clock.time(
            lambda: dc.exhaustive_verify(self.layout, 2, seed=self.setup_fill, jobs=2),
            pause=True,
        )
        return jobs2_s * 1000.0 / median_ms(ref.times["sweep2"])


# ---------------------------------------------------------------- analyze

# (k, delta) of the verify_balance calls in every cycle.
BALANCE_CASES = ((10, 3), (8, 3), (9, 2), (6, 1))
QUERIES_PER_SIZE = 4


class Analyze(Workload):
    name = "analyze"
    why = (
        "three layouts incl. the PGL(2,19) n=20 designs: queries, "
        "counterexamples, verify_balance, layout JSON round trips; no bytes "
        "move; op = one query"
    )
    primary = "query"
    trace_cycles = 10

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        # Inputs: the two n=20 designs are PGL(2,19) orbits, generated here.
        self.orbits = {
            5: pgl_orbit(19, (0, 1, 3, 5, 6)),
            4: pgl_orbit(19, (0, 1, 2, 3)),
        }

    def setup(self):
        layouts = []
        for k, blocks in self.orbits.items():
            design = dc.validate_design(blocks, 3, 20, k, 6)
            layouts.append((design, dc.rs_code(k, 2)))
        layouts.append((dc.complete_design(9, 6, 4), dc.rs_code(6, 3)))
        self.layouts = [
            (dc.build_layout(dc.group_family(code, "full"), design),
             dc.group_family(code, "rotations"))
            for design, code in layouts
        ]

    def check_setup(self):
        blocks = [len(layout.design.blocks) for layout, _ in self.layouts]
        return _expect("block counts", blocks, [684, 1710, 84])

    def cycle(self):
        ops = []
        for layout, rotations in self.layouts:
            n, delta = layout.n, layout.group.delta
            for s in range(1, delta + 1):
                for _ in range(QUERIES_PER_SIZE):
                    failed = failure_set(self.rng, n, s)
                    ops.append(Op(
                        "query",
                        lambda layout=layout, failed=failed:
                            dc.reconstruction_workload(layout, failed),
                        lambda out, layout=layout, failed=failed:
                            self._check_query(layout, failed, out),
                        (n, layout.design.k, failed),
                    ))
            failed = failure_set(self.rng, n, delta)
            ops.append(Op(
                "counterexample",
                lambda rotations=rotations, layout=layout, failed=failed:
                    dc.counterexample_report(rotations, layout.design, failed),
                lambda out, layout=layout, failed=failed:
                    self._check_counterexample(layout, failed, out),
                (n, layout.design.k, failed),
            ))
            ops.append(Op(
                "roundtrip",
                lambda layout=layout: self._roundtrip(layout),
                lambda out, layout=layout: _expect(
                    "layout round trip", out, (layout, dc.serialize_layout(layout))
                ),
                (n, layout.design.k),
            ))
        for k, delta in BALANCE_CASES:
            ops.append(Op(
                "verify_balance",
                lambda k=k, delta=delta: dc.verify_balance(
                    dc.group_family(dc.rs_code(k, delta), "full"), delta
                ),
                lambda out, k=k, delta=delta: self._check_balance(k, delta, out),
                (k, delta),
            ))
        self.rng.shuffle(ops)
        return ops

    @staticmethod
    def _roundtrip(layout):
        loaded = dc.deserialize_layout(dc.serialize_layout(layout))
        return loaded, dc.serialize_layout(loaded)

    @staticmethod
    def _check_query(layout, failed, report):
        p, group = layout.design.params, layout.group
        want = reads_per_survivor(p.t, p.n, p.k, p.lam, group.delta, group.r, len(failed))
        survivors = [d for d in range(layout.n) if d not in failed]
        closed = want if p.t == 3 and group.delta == 2 else None
        return (
            _expect(f"reads of {failed}", report.reads, {d: want for d in survivors})
            or _expect(f"uniform of {failed}", report.uniform, True)
            or _expect(f"closed form of {failed}", report.closed_form, closed)
            or _expect(
                f"fraction of {failed}", report.fraction * layout.rows_per_disk, want
            )
        )

    @staticmethod
    def _check_counterexample(layout, failed, report):
        group = layout.group
        rows = rotation_rows(group.k, group.delta)
        units, entries = walk_reads(
            layout.design.blocks, rows, group.delta, group.r, failed, layout.n
        )
        return (
            _expect(f"units accessed for {failed}", report.units_accessed, units)
            or _expect(f"entries read for {failed}", report.entries_read, entries)
            or _expect("uniform entries", report.uniform_entries, len(set(entries.values())) == 1)
        )

    @staticmethod
    def _check_balance(k, delta, report):
        taus = {s: tau_full(k, delta, 1, s) for s in range(1, delta + 1)}
        return (
            _expect(f"RS({k},{delta}) balanced", report.balanced, True)
            or _expect(f"RS({k},{delta}) taus", report.taus, taus)
        )

    def report(self, rec):
        times = rec.times.get("query", [])
        return {
            "query_ms.p50": (median_ms(times), len(times)),
            "query_ms.tail": tail_ms(times),
            "analyze_ops_per_s": (rate(rec.ops, rec.busy), rec.ops),
        }


# -------------------------------------------------------------------- cli

def load_walkthrough() -> list[tuple[list[str], str]]:
    """(argv, expected stdout) for each command in walkthrough.txt."""
    steps = []
    for chunk in WALKTHROUGH.read_text().strip("\n").split("\n\n"):
        command, *lines = chunk.split("\n")
        argv = shlex.split(command.removeprefix("$ declustr "))
        steps.append((argv, "".join(line + "\n" for line in lines)))
    return steps


class Cli(Workload):
    """The README walkthrough as separate `python -m declustr.cli` processes."""

    name = "cli"
    why = (
        "README walkthrough on 3-(8,4,1) with RDP p=3, one declustr process "
        "per command in table/csv/json: start-up, imports and rendering; op = "
        "one process"
    )
    primary = "command"
    trace_cycles = 20
    n = 8

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.walkthrough = load_walkthrough()
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.env.pop("DECLUSTR_JOBS", None)
        self.spawns = True  # traced runs call declustr.cli.run in-process instead
        self.stdout_bytes: dict[str, int] = {}
        design = dc.hadamard_3design(self.n)
        self.layout = dc.build_layout(dc.group_family(dc.rdp_code(3), "full"), design)

    def run_command(self, argv) -> tuple[int, str]:
        if not self.spawns:
            buffer = io.StringIO()
            cwd = os.getcwd()
            os.chdir(self.workdir)
            try:
                with contextlib.redirect_stdout(buffer):
                    code = sys.modules["declustr.cli"].run(argv)
            finally:
                os.chdir(cwd)
            return code, buffer.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "declustr.cli", *argv],
            cwd=self.workdir, env=self.env, capture_output=True, text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def setup(self):
        for argv, _ in self.walkthrough:
            if "--out" in argv:
                self.run_command(argv)

    def check_setup(self):
        files = sorted(p.name for p in self.workdir.iterdir())
        return _expect("set-up files", files, ["design.json", "layout.json"])

    def cycle(self):
        ops = [
            Op("command", lambda argv=argv: self.run_command(argv),
               lambda out, argv=argv, want=want: self._check_stdout(argv, out, want),
               tuple(argv))
            for argv, want in self.walkthrough
        ]
        seeded = []
        for fmt, size in (("json", 2), ("csv", 1)):
            failed = failure_set(self.rng, self.n, size)
            fail = ",".join(map(str, failed))
            seed = self.rng.randrange(1, 1 << 31)
            seeded.append((["analyze", "workload", "--layout", "layout.json",
                             "--fail", fail, "--format", fmt],
                           lambda f=failed, fmt=fmt: self._expected_workload(f, fmt)))
            seeded.append((["simulate", "--layout", "layout.json", "--fail", fail,
                            "--seed", str(seed), "--format", fmt],
                           lambda f=failed, s=seed, fmt=fmt: self._expected_simulate(f, s, fmt)))
            seed = self.rng.randrange(1, 1 << 31)
            seeded.append((["simulate", "--layout", "layout.json", "--exhaustive", "2",
                            "--seed", str(seed), "--format", fmt],
                           lambda s=seed, fmt=fmt: self._expected_sweep(s, fmt)))
        self.rng.shuffle(seeded)
        for argv, expected in seeded:
            ops.append(Op(
                "command", lambda argv=argv: self.run_command(argv),
                lambda out, argv=argv, expected=expected:
                    self._check_stdout(argv, out, expected()),
                tuple(argv),
            ))
        return ops

    def _check_stdout(self, argv, out, want):
        code, stdout = out
        self.stdout_bytes[shlex.join(argv)] = len(stdout.encode())
        return _expect(f"exit code of {argv}", code, 0) or _expect(
            f"stdout of {shlex.join(argv)}", stdout, want
        )

    # The library's own results, rendered in the CLI's documented formats.

    def _expected_workload(self, failed, fmt):
        report = dc.reconstruction_workload(self.layout, failed)
        reads = sorted(report.reads.items())
        if fmt == "csv":
            return _csv("disk,units_read", reads)
        return _json({
            "failed": sorted(report.failed),
            "reads": {str(d): c for d, c in reads},
            "uniform": report.uniform,
            "closed_form": report.closed_form,
            "fraction": None if report.fraction is None else str(report.fraction),
        })

    def _expected_simulate(self, failed, seed, fmt):
        array = dc.materialize(self.layout, seed)
        rebuilt, stats = dc.fail_and_reconstruct(array, failed)
        reads = sorted(stats.reads.items())
        if fmt == "csv":
            return _csv("disk,units_read", reads)
        return _json({
            "failed": sorted(failed),
            "recovered": rebuilt.disks == array.disks,
            "reads": {str(d): c for d, c in reads},
            "writes": {str(d): c for d, c in sorted(stats.writes.items())},
        })

    def _expected_sweep(self, seed, fmt):
        summary = dc.exhaustive_verify(self.layout, 2, seed=seed)
        if fmt == "csv":
            return _csv("failed,recovered,min_reads,max_reads", [
                (" ".join(map(str, r.failed)), "yes" if r.recovered else "no",
                 r.min_reads, r.max_reads)
                for r in summary.results
            ])
        return _json({
            "s": summary.s,
            "total": summary.total,
            "passed": summary.passed,
            "uniform": summary.uniform,
            "reads_per_disk": summary.reads_per_disk,
            "sets": [
                {"failed": list(r.failed), "recovered": r.recovered,
                 "min_reads": r.min_reads, "max_reads": r.max_reads}
                for r in summary.results
            ],
        })

    def report(self, rec):
        times = rec.times.get("command", [])
        return {
            "cli_ms.p50": (median_ms(times), len(times)),
            "cli_ms.tail": tail_ms(times),
        }

    def _import_ms(self, clock, pairs: int = 10) -> float:
        """Median (interpreter + import declustr.cli) minus median bare interpreter."""
        bare, loaded = [], []
        for _ in range(pairs):
            for code, sink in (("pass", bare), ("import declustr.cli", loaded)):
                sink.append(clock.time(lambda code=code: subprocess.run(
                    [sys.executable, "-c", code], cwd=self.workdir, env=self.env,
                    check=True, timeout=60,
                ), pause=True))
        return median_ms(loaded) - median_ms(bare)

    def layer_extras(self, ref, clock):
        group = self.layout.group
        walkthrough = {shlex.join(argv) for argv, _ in self.walkthrough}
        return {
            "cli.import_ms": self._import_ms(clock),
            "cli.run_ms": median_ms(ref.times["command"]),
            "cli.stdout_bytes": sum(
                size for argv, size in self.stdout_bytes.items() if argv in walkthrough
            ),
            "erasure_codes.decode_bytes": group.r * group.k,
        }


def _csv(header, rows) -> str:
    return "".join(f"{line}\n" for line in [header, *(",".join(map(str, r)) for r in rows)])


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------- helpers

def median_ms(seconds) -> float:
    if not seconds:
        return 0.0
    ordered = sorted(seconds)
    mid = len(ordered) // 2
    value = ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    return value * 1000.0


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def tail_ms(seconds):
    """(ms, samples, "pNN") at the highest percentile with 10 samples beyond it.

    With fewer than 100 samples no percentile qualifies and the value is 0.
    """
    n = len(seconds)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            rank = min(n - 1, max(0, math.ceil(pct * n / 100.0) - 1))
            return sorted(seconds)[rank] * 1000.0, n, f"p{pct:g}"
    return 0.0, n, None


def rate(amount, seconds) -> float:
    return amount / seconds if seconds > 0 else 0.0


WORKLOADS = {w.name: w for w in (RsRebuild, RdpSweep, Analyze, Cli)}
