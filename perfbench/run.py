"""Benchmark driver for declustr.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload rs-rebuild --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The program is imported from ``src/`` of the checkout the script sits in and
driven through its public functions (and, for the ``cli`` workload, through
``python -m declustr.cli`` processes). One client runs a closed loop: the
next operation starts when the previous one returns.

With ``--trace 0`` the run measures whole cycles of the workload for at least
``--seconds`` seconds and reports the end-to-end metrics. With ``--trace 1``
it wraps the package's functions (see tracing.py), runs one untraced
reference cycle and a fixed number of traced cycles, and reports the
per-layer metrics. Every operation's output is checked outside the timed
region. The last line of stdout is the result object; the line before it is
a report with every metric's sample count and the run's environment, also
written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

# name -> (unit, better). Every run reports all of its group.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_ms.p50": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
}

PER_LAYER = {
    "gf256.mul_calls": ("count", "lower"),
    "gf256.inv_div_calls": ("count", "lower"),
    "gf256.mat_inv_calls": ("count", "lower"),
    "gf256.mat_inv_s": ("s", "lower"),
    "erasure_codes.encode_calls": ("count", "lower"),
    "erasure_codes.encode_s": ("s", "lower"),
    "erasure_codes.decode_calls": ("count", "lower"),
    "erasure_codes.decode_s": ("s", "lower"),
    "erasure_codes.decode_bytes_per_s": ("B/s", "higher"),
    "erasure_codes.parity_matrix_calls": ("count", "lower"),
    "erasure_codes.rule_calls": ("count", "lower"),
    "simulator.materialize_s": ("s", "lower"),
    "simulator.reconstruct_s": ("s", "lower"),
    "simulator.sweep_s": ("s", "lower"),
    "simulator.units_read": ("count", "lower"),
    "simulator.units_written": ("count", "lower"),
    "simulator.sweep_jobs2_over_jobs1": ("ratio", "lower"),
    "analysis.workload_s": ("s", "lower"),
    "analysis.closed_form_s": ("s", "lower"),
    "analysis.counterexample_s": ("s", "lower"),
    "parity_groups.verify_balance_s": ("s", "lower"),
    "parity_groups.tau_s": ("s", "lower"),
    "parity_groups.family_s": ("s", "lower"),
    "designs.validate_s": ("s", "lower"),
    "layout.serialize_s": ("s", "lower"),
    "layout.deserialize_s": ("s", "lower"),
    "layout.build_s": ("s", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "cli.run_ms": ("ms", "lower"),
    "cli.stdout_bytes": ("B", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
    "trace.absent_functions": ("count", "lower"),
    "trace.spans": ("count", "lower"),
}

WORKLOAD_NAMES = ("rs-rebuild", "rdp-sweep", "analyze", "cli")

# The named end-to-end metrics of each workload, printed in the report line
# with their sample counts: name -> (unit, better, workloads). Tails are at
# the highest percentile with at least ten samples beyond it.
REPORTED = {
    "setup_s": ("s", "lower", WORKLOAD_NAMES),
    "failed_frac": ("ratio", "lower", WORKLOAD_NAMES),
    "peak_rss_mib": ("MiB", "lower", WORKLOAD_NAMES),
    "rebuild1_ms.p50": ("ms", "lower", ("rs-rebuild",)),
    "rebuild2_ms.p50": ("ms", "lower", ("rs-rebuild",)),
    "rebuild_bytes_per_s": ("B/s", "higher", ("rs-rebuild",)),
    "fill_bytes_per_s": ("B/s", "higher", ("rs-rebuild",)),
    "verify_sets_per_s": ("1/s", "higher", ("rdp-sweep",)),
    "query_ms.p50": ("ms", "lower", ("analyze",)),
    "query_ms.tail": ("ms", "lower", ("analyze",)),
    "analyze_ops_per_s": ("1/s", "higher", ("analyze",)),
    "cli_ms.p50": ("ms", "lower", ("cli",)),
    "cli_ms.tail": ("ms", "lower", ("cli",)),
}


class ProgramMissing(Exception):
    """The checkout holds no importable declustr package under src/."""


def import_program():
    """Import declustr from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "declustr" / "__init__.py").is_file():
        raise ProgramMissing(f"no declustr package under {src}")
    sys.path.insert(0, str(src))
    import declustr

    if Path(declustr.__file__).resolve().parent != (src / "declustr").resolve():
        raise ProgramMissing(f"declustr was imported from {declustr.__file__}")
    return declustr


# Host-speed calibration. On a shared host the speed can drift by up to 2x
# for tens of seconds at a time (measured on a 2-core shared VM); a slow
# phase slows a fixed pure-Python kernel in the same proportion as the
# workloads (both are interpreter-bound). While a Clock runs, SIGALRM runs
# the kernel in the main thread every SAMPLE_EVERY_S, inside operations too,
# so a long operation is calibrated by the speed it actually ran at. A timed
# interval's scaled time is its wall time minus the kernel runs inside it,
# times CAL_REF_S over the mean kernel time of the samples within WINDOW_S
# of it: it reads as the time on a host where the kernel takes CAL_REF_S.
# Raw wall times stay in the report.
CAL_REF_S = 0.002
SAMPLE_EVERY_S = 0.1
WINDOW_S = 0.25


def _kernel() -> int:
    table = list(range(256))

    def lookup(a, b):
        return table[(a + b) & 0xFF]

    acc = 0
    kept = []
    for i in range(20000):
        acc ^= lookup(i, acc)
        if i & 7 == 0:
            kept.append(acc)
    tally: dict[int, int] = {}
    for value in kept:
        tally[value] = tally.get(value, 0) + 1
    return acc + len(tally)


class Clock:
    """Scales wall-time intervals by the host speed sampled while they ran."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False
        self._paused = False
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def sample(self, *_):
        if self._busy or self._paused:
            return
        self._busy = True
        start = perf_counter()
        _kernel()
        self.starts.append(start)
        self.ends.append(perf_counter())
        self._busy = False

    def kernel_s(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def scaled(self, start: float, end: float) -> float:
        """Seconds of [start, end] less kernel runs, at the reference speed."""
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        inside = near = 0.0
        for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]):
            near += e - s
            if s >= start and e <= end:
                inside += e - s
        if hi <= lo:
            raise ValueError("no calibration sample near the interval")
        return (end - start - inside) * CAL_REF_S * (hi - lo) / near

    @contextmanager
    def paused(self):
        """No samples inside a block that waits on child processes or
        threads: a kernel run beside them would time contention with them."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False
            self.sample()

    def time(self, fn, pause: bool = False) -> float:
        """Scaled seconds of one call (the clock must be running).

        Pause sampling for calls that wait on child processes or threads.
        """
        with self.paused() if pause else nullcontext():
            start = perf_counter()
            fn()
            end = perf_counter()
        self.sample()
        return self.scaled(start, end)


class Recorder:
    """Timed samples (scaled, see Clock) and failures of a run's operations."""

    def __init__(self):
        self.intervals: list[tuple[object, int, float, float]] = []
        self.cycle = 0  # execute() runs one cycle and then advances this
        self.cycle_means = defaultdict(list)  # kind -> per-cycle mean time
        self.times = defaultdict(list)
        self.raw_times = defaultdict(list)
        self.nbytes = defaultdict(int)
        self.attempted = 0
        self.ops = 0
        self.units = 0
        self.busy = 0.0
        self.failures: list[str] = []

    def fail(self, what: str, message: str) -> None:
        self.failures.append(f"{what}: {message}"[:2000])

    def record(self, op, start: float, end: float) -> None:
        self.intervals.append((op, self.cycle, start, end))
        self.raw_times[op.kind].append(end - start)
        self.nbytes[op.kind] += op.nbytes
        self.units += op.units
        self.ops += 1

    def finish(self, clock: Clock) -> None:
        """Scale every recorded interval, once the clock has stopped."""
        by_cycle = defaultdict(list)
        for op, cycle, start, end in self.intervals:
            scaled = clock.scaled(start, end)
            self.times[op.kind].append(scaled)
            self.busy += scaled
            by_cycle[op.kind, cycle].append(scaled)
        for (kind, _), values in by_cycle.items():
            self.cycle_means[kind].append(sum(values) / len(values))


def execute(ops, rec: Recorder, tracer=None, clock=None) -> None:
    """Run operations back to back, timing each and checking it afterwards.

    With a clock, each operation runs with its sampling paused (operations
    that wait on child processes).
    """
    for op in ops:
        rec.attempted += 1
        try:
            with clock.paused() if clock else nullcontext():
                start = perf_counter()
                out = op.run()
                end = perf_counter()
        except Exception as exc:  # a raising operation is a failed operation
            rec.fail(f"{op.kind} {op.inputs}", f"raised {exc!r}")
            continue
        rec.record(op, start, end)
        try:
            if tracer is None:
                problem = op.check(out)
            else:
                with tracer.suspended():
                    problem = op.check(out)
        except Exception as exc:
            problem = f"check raised {exc!r}"
        if problem:
            rec.fail(f"{op.kind} {op.inputs}", problem)
    rec.cycle += 1


def timed_setups(workload, clock, min_runs=3, min_seconds=1.0, max_runs=25) -> list[float]:
    """Run the set-up several times (scaled times); the last one's state is kept."""
    times: list[float] = []
    while len(times) < min_runs or (sum(times) < min_seconds and len(times) < max_runs):
        times.append(clock.time(workload.setup, workload.spawns))
    return times


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment() -> dict:
    """Python version, core count and the source the run measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def check_setup(workload, rec: Recorder) -> None:
    """A failed set-up check counts as one failed operation."""
    problem = workload.check_setup()
    if problem:
        rec.attempted += 1
        rec.fail("setup", problem)


def measure(workload, seconds: float) -> tuple[dict, dict, Recorder]:
    rec = Recorder()
    with Clock() as clock:
        setups = timed_setups(workload, clock)
        check_setup(workload, rec)
        start = perf_counter()
        cycles = 0
        while cycles == 0 or perf_counter() - start < seconds:
            execute(workload.cycle(), rec, clock=clock if workload.spawns else None)
            cycles += 1
    rec.finish(clock)
    from workloads import median_ms, rate

    # A cycle mixes several kinds of query or command, and a plain median
    # of such a mix jumps between kinds; the per-cycle mean does not.
    primary = rec.cycle_means.get(workload.primary, [])
    rss = peak_rss_mib(children=workload.spawns)
    metrics = {
        "setup_s": median_ms(setups) / 1000.0,
        "op_ms.p50": median_ms(primary),
        "ops_per_s": rate(rec.units, rec.busy),
        "peak_rss_mib": rss,
    }
    samples = {
        "setup_s": len(setups),
        "op_ms.p50": len(primary),
        "ops_per_s": rec.ops,
        "peak_rss_mib": 1,
    }
    named = {}
    for name, (value, count, *percentile) in {
        "setup_s": (metrics["setup_s"], len(setups)),
        "failed_frac": (len(rec.failures) / max(rec.attempted, 1), rec.attempted),
        "peak_rss_mib": (rss, 1),
        **workload.report(rec),
    }.items():
        unit, better, _ = REPORTED[name]
        named[name] = {"value": value, "unit": unit, "better": better, "samples": count}
        if percentile:
            named[name]["percentile"] = percentile[0]
    info = {
        "cycles": cycles,
        "samples": samples,
        "named": named,
        "raw_op_ms.p50": median_ms(rec.raw_times.get(workload.primary, [])),
        "kernel_ms.p50": median_ms(clock.kernel_s()),
    }
    return metrics, info, rec


def measure_traced(workload, tracer) -> tuple[dict, dict, Recorder]:
    from workloads import median_ms

    rec = Recorder()
    ref = Recorder()
    clock = Clock()
    tracer.install()
    try:
        with clock:
            workload.setup()
            with tracer.suspended():
                check_setup(workload, rec)
            for _ in range(workload.trace_cycles):
                execute(workload.cycle(), rec, tracer)
            # Untraced, warm cycles are the overhead baseline.
            with tracer.suspended():
                for _ in range(max(1, workload.trace_cycles // 2)):
                    execute(workload.cycle(), ref)
    finally:
        tracer.uninstall()
    rec.finish(clock)
    ref.finish(clock)

    found = tracer.summary()
    with clock:
        extras = workload.layer_extras(ref, clock)
    absent = tracer.absent + [name for name, value in extras.items() if value is None]
    metrics = {
        name: (found[name] if name in found else extras.get(name)) or 0
        for name in PER_LAYER
    }
    decode_s = found.get("erasure_codes.decode_s", 0.0)
    if decode_s > 0:
        metrics["erasure_codes.decode_bytes_per_s"] = (
            found["erasure_codes.decode_calls"]
            * extras.get("erasure_codes.decode_bytes", 0) / decode_s
        )
    primary_traced = rec.times.get(workload.primary, [])
    primary_plain = ref.times.get(workload.primary, [])
    metrics["trace.overhead_ms"] = median_ms(primary_traced) - median_ms(primary_plain)
    metrics["trace.absent_functions"] = len(absent)
    metrics["trace.spans"] = len(tracer.starts)
    # The reference cycle's operations count as attempted too.
    rec.attempted += ref.attempted
    rec.failures += ref.failures
    info = {
        "cycles": workload.trace_cycles,
        "absent": absent,
        "traced_primary_ms": median_ms(primary_traced),
        "untraced_primary_ms": median_ms(primary_plain),
    }
    return metrics, info, rec


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    try:
        import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        workload = WORKLOADS[name](ROOT, seed, workdir)
        if trace:
            # A traced run stays in one process, so the tracer sees the CLI too.
            import declustr.cli  # noqa: F401

            workload.spawns = False
            tracer = Tracer()
            metrics, info, rec = measure_traced(workload, tracer)
            tracer.write_spans(OUT / f"spans-{name}.csv")
            units = PER_LAYER
        else:
            metrics, info, rec = measure(workload, seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "failures": rec.failures[:20],
        **info,
    }
    with open(OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json", "w") as out:
        json.dump({"report": report, "metrics": metrics}, out, indent=2)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": {
            name: {"value": value, "unit": units[name][0]}
            for name, value in metrics.items()
        },
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, then one table of every metric."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exited {proc.returncode}")
            status = 1
            continue
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
        print(f"== {name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        rows = [(k, v["value"], v["unit"], "") for k, v in result["metrics"].items()]
        rows += [(k, m["value"], m["unit"], m["samples"])
                 for k, m in report.get("named", {}).items()]
        for metric, value, unit, samples in rows:
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            count = f"n={samples}" if samples != "" else ""
            print(f"  {metric:40s} {shown:>14s} {unit:6s} {count}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
