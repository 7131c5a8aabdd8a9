"""Run-time tracing of declustr's public functions, from outside the package.

A Tracer rebinds chosen functions in every loaded ``declustr`` module
namespace (and in function defaults that captured them) to wrappers, and
restores the originals on ``uninstall``. Functions come in two kinds:

* span targets record one span per call: name, start, end and the span that
  was open on the same thread when the call began (its parent);
* count targets, the hot leaves, only bump a counter, because a span per
  ``gf_mul`` call would cost more than the multiplication.

Spans are kept in compact parallel arrays and written out at the end. A
span's self time is its duration minus the part of it that its child spans
cover. A target the package no longer defines is reported as absent.
"""

from __future__ import annotations

import sys
import threading
from array import array
from contextlib import contextmanager
from time import perf_counter

# (module, function) -> span metric prefix; "<prefix>_s" is summed self time
# and "<prefix>_calls" the number of spans.
SPAN_TARGETS = {
    ("gf256", "gf_mat_inv"): "gf256.mat_inv",
    ("erasure_codes", "rs_encode"): "erasure_codes.encode",
    ("erasure_codes", "rdp_encode"): "erasure_codes.encode",
    ("erasure_codes", "rs_decode"): "erasure_codes.decode",
    ("erasure_codes", "rdp_decode"): "erasure_codes.decode",
    ("simulator", "materialize"): "simulator.materialize",
    ("simulator", "fail_and_reconstruct"): "simulator.reconstruct",
    ("simulator", "exhaustive_verify"): "simulator.sweep",
    ("analysis", "reconstruction_workload"): "analysis.workload",
    ("analysis", "closed_form_workload"): "analysis.closed_form",
    ("analysis", "counterexample_report"): "analysis.counterexample",
    ("parity_groups", "verify_balance"): "parity_groups.verify_balance",
    ("parity_groups", "tau"): "parity_groups.tau",
    ("parity_groups", "group_family"): "parity_groups.family",
    ("parity_groups", "balance_horizontal_code"): "parity_groups.family",
    ("parity_groups", "cyclic_rotation_group"): "parity_groups.family",
    ("parity_groups", "single_arrangement_group"): "parity_groups.family",
    ("designs", "validate_design"): "designs.validate",
    ("layout", "serialize_layout"): "layout.serialize",
    ("layout", "deserialize_layout"): "layout.deserialize",
    ("layout", "build_layout"): "layout.build",
}

# (module, function) -> counter name.
COUNT_TARGETS = {
    ("gf256", "gf_mul"): "gf256.mul_calls",
    ("gf256", "gf_inv"): "gf256.inv_div_calls",
    ("gf256", "gf_div"): "gf256.inv_div_calls",
    ("erasure_codes", "rs_parity_matrix"): "erasure_codes.parity_matrix_calls",
    ("erasure_codes", "reconstruction_rule"): "erasure_codes.rule_calls",
}


def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    parents[i] is the index of span i's parent, or -1. Children are clipped to
    their parent's interval, and overlapping children (spans opened on other
    threads) are covered once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for i, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[i], ends[i]))
    result = []
    for i, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(i, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


class Tracer:
    """Span and call-count recorder for the declustr package."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict[str, list[int]] = {
            name: [0] for name in sorted(set(COUNT_TARGETS.values()))
        }
        self.absent: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object, object]] = []

    # ------------------------------------------------------------ wrappers

    def _span_wrapper(self, fn, name: str):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        local, lock = self._local, self._lock
        name_ids, parents, starts, ends = (
            self.name_ids, self.parents, self.starts, self.ends,
        )

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with lock:
                index = len(starts)
                name_ids.append(name_id)
                parents.append(stack[-1] if stack else -1)
                starts.append(perf_counter())
                ends.append(0.0)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _count_wrapper(fn, cell: list[int]):
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------- install/remove

    def install(self) -> None:
        """Rebind every target in each loaded declustr module and default."""
        if self._patches:
            return
        modules = [
            module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "declustr" or name.startswith("declustr."))
        ]
        replacements = {}
        absent = []
        for (module_name, attr), name in {**SPAN_TARGETS, **COUNT_TARGETS}.items():
            home = sys.modules.get(f"declustr.{module_name}")
            original = getattr(home, attr, None)
            if not callable(original):
                absent.append(f"{module_name}.{attr}")
                continue
            if (module_name, attr) in SPAN_TARGETS:
                replacements[id(original)] = self._span_wrapper(original, name)
            else:
                replacements[id(original)] = self._count_wrapper(
                    original, self.counts[name]
                )
        self.absent = absent
        # Defaults first: once a module's names are rebound, its functions
        # are only reachable through the wrappers.
        for module in modules:
            for fn in _module_functions(module):
                defaults = fn.__defaults__
                if defaults and any(id(v) in replacements for v in defaults):
                    patched = tuple(replacements.get(id(v), v) for v in defaults)
                    self._patches.append((fn, "__defaults__", defaults, patched))
                    fn.__defaults__ = patched
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value, wrapper))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def suspended(self):
        """Run a block against the original functions, then re-wrap them."""
        patches = list(self._patches)
        self.uninstall()
        try:
            yield
        finally:
            for owner, attr, _, wrapper in patches:
                setattr(owner, attr, wrapper)
            self._patches = patches

    # -------------------------------------------------------------- results

    def summary(self) -> dict[str, float]:
        """Per-name span counts and self-time sums, plus the counters."""
        own = self_times(self.parents, self.starts, self.ends)
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}_calls"] = 0
            out[f"{name}_s"] = 0.0
        for name_id, seconds in zip(self.name_ids, own):
            name = self.names[name_id]
            out[f"{name}_calls"] += 1
            out[f"{name}_s"] += seconds
        for name, cell in self.counts.items():
            out[name] = cell[0]
        return out

    def write_spans(self, path) -> None:
        """One CSV line per span: index, parent, name, start, end (seconds)."""
        with open(path, "w") as out:
            out.write("index,parent,name,start_s,end_s\n")
            for index, (name_id, parent, start, end) in enumerate(
                zip(self.name_ids, self.parents, self.starts, self.ends)
            ):
                out.write(
                    f"{index},{parent},{self.names[name_id]},{start:.9f},{end:.9f}\n"
                )


def _module_functions(module):
    """Functions defined at module level or as methods of module classes."""
    for value in list(vars(module).values()):
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, type):
            for member in vars(value).values():
                if hasattr(member, "__defaults__"):
                    yield member
        elif hasattr(value, "__defaults__"):
            yield value
