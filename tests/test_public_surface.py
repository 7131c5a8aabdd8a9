"""The package's exported names: each resolves, none is a submodule or a removed helper,
and each callable refuses a malformed value argument with a DeclustrError alone."""

import copy
import importlib
import importlib.util
import signal
from itertools import combinations
from pathlib import Path
from types import ModuleType

import pytest

import declustr as dc
from declustr.errors import shown

# Helpers that only their own tests used; their properties are now asserted
# directly (see test_simulator, test_designs, test_layout, test_parity_groups
# and test_analysis).
REMOVED = {
    "disk_column_units",
    "double_failure_fraction",
    "dump_disk",
    "expected_full_depth",
    "is_self_complementary",
    "measured_matches_predicted",
    "single_failure_fraction",
}


def test_all_names_resolve_to_no_module_and_no_removed_helper():
    assert not REMOVED & set(dc.__all__)
    for name in dc.__all__:
        assert not isinstance(getattr(dc, name), ModuleType), name
    for name in REMOVED:
        assert not hasattr(dc, name), name
    assert not hasattr(dc.gf256, "gf_add")
    assert not hasattr(dc.DiskArray, "copy")


def test_submodules_stay_reachable_as_attributes():
    # The benchmark harness patches functions through these attributes.
    for name in ("erasure_codes", "gf256", "parity_groups"):
        assert isinstance(getattr(dc, name), ModuleType)
        assert getattr(dc, name).__name__ == f"declustr.{name}"


def test_every_traced_name_is_a_declustr_function():
    # The benchmark's tracer wraps these by name and reports a missing one
    # only as an absent target; read its tables without running it.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = {**tracing.SPAN_TARGETS, **tracing.COUNT_TARGETS}
    assert ("parity_groups", "group_family") in targets
    for module, name in targets:
        assert callable(getattr(importlib.import_module(f"declustr.{module}"), name, None)), name


# The result records: the library builds them from values it has checked.
RECORDS = {
    "ArrangementCounts", "BalanceReport", "CounterexampleReport", "IOStats", "LayoutGeometry",
    "ReconstructionPlan", "SetResult", "TradeoffRow", "UnitProvenance", "VerifySummary",
    "WorkloadReport",
}

# Object-typed parameters, which the fuzz leaves at their valid value: a layout,
# group, design, design's params, code or array of the wrong type is a programming
# error and may raise AttributeError (README, "Key guarantees"). The CLI never makes one.
OBJECT_TYPED = {"array", "code", "design", "group", "layout", "params"}

# Each value replaces each value argument in turn.
MALFORMED = (
    None, 5, -1, 2**70, 1.5, True, "x", "", [], [5], [[0]], {}, {"a": 1}, (None,),
    float("nan"), b"x", object(), set(), (1.0,), ("P1",), [[None]], 10**5000, (10**5000,),
    "P" + "1" * 5000,
)

# Rows whose call is not the exported name itself: a generator refuses at its first next.
CALLS = {"byte_stream": lambda seed: next(dc.byte_stream(seed))}

LIMIT_S = 1.0


@pytest.fixture(scope="module")
def rows():
    """One valid call per public callable: its keyword arguments, by name."""
    design = dc.hadamard_3design(8)
    code = dc.rdp_code(3)
    group = dc.balance_horizontal_code(code)
    layout = dc.build_layout(group, design)
    array = dc.materialize(layout, 1)
    single = dc.build_layout(
        dc.single_arrangement_group(dc.rs_code(4, 1)), dc.reduce_design(design, 2)
    )
    params = design.params
    return {
        "closed_form_workload": dict(params=params, group=group, s=2),
        "counterexample_report": dict(group=group, design=design, failed=(0, 1)),
        "reconstruction_workload": dict(layout=layout, failed=(0,)),
        "round_half_up": dict(value=1.25, decimals=1),
        "tradeoff_table": dict(n=8, rows=[(4, 1)]),
        "Design": dict(params=params, blocks=design.blocks),
        "DesignParams": dict(t=3, n=8, k=4, lam=1),
        "complete_design": dict(n=6, k=4, t=3),
        "count_lambda": dict(params=params, i=1, j=1),
        "design_from_json": dict(obj=dc.design_to_json(design)),
        "design_to_json": dict(design=design),
        "hadamard_3design": dict(n=8),
        "reduce_design": dict(design=design, s=2),
        "validate_design": dict(blocks=design.blocks, t=3, n=8, k=4, lam=1),
        "HorizontalCode": dict(kind="rdp", k=4, delta=2, r=2),
        "canonical_labels": dict(k=4, delta=2),
        "parity_index": dict(label="P1"),
        "parity_label": dict(index=1),
        "rdp_code": dict(p=3),
        "reconstruction_rule": dict(delta=2, lost=("D",)),
        "rs_code": dict(k=4, delta=2),
        "DeclusteredLayout": dict(n=8, design=design, group=group, placements=layout.placements),
        "build_layout": dict(group=group, design=design),
        "deserialize_layout": dict(text=dc.serialize_layout(layout)),
        "layout_geometry": dict(layout=layout),
        "rotate_layout": dict(layout=single),
        "serialize_layout": dict(layout=layout),
        "ParityGroup": dict(code=code, extended_rows=group.extended_rows),
        "arrangement_counts": dict(group=group, i=0, j=1),
        "balance_horizontal_code": dict(code=code),
        "cyclic_rotation_group": dict(code=code),
        "group_family": dict(code=code, family="full"),
        "reconstruction_plan": dict(group=group, lost=(0,)),
        "single_arrangement_group": dict(code=code),
        "tau": dict(group=group, s=1),
        "verify_balance": dict(group=group, max_s=2),
        "DiskArray": dict(layout=layout, disks=array.disks),
        "byte_stream": dict(seed=1),
        "check_parity_invariant": dict(array=array),
        "exhaustive_verify": dict(layout=layout, s=1, seed=1),
        "fail_and_reconstruct": dict(array=array, failed=(0,)),
        "materialize": dict(layout=layout, seed=1),
        "unit_provenance": dict(layout=layout, disk=0, offset=0),
    }


class Overrun(BaseException):
    """Raised by the interval timer in a call that runs past LIMIT_S."""


def _overrun(signum, frame):
    raise Overrun


def test_every_public_callable_has_a_fuzz_row_or_is_a_record(rows):
    callables = {
        name for name in dc.__all__
        if callable(value := getattr(dc, name))
        and not (isinstance(value, type) and issubclass(value, dc.DeclustrError))
    }
    assert not set(rows) & RECORDS
    assert set(rows) | RECORDS == callables


@pytest.fixture
def alarm():
    """SIGALRM raises Overrun while the test runs."""
    previous = signal.signal(signal.SIGALRM, _overrun)
    yield
    signal.signal(signal.SIGALRM, previous)


def _escape(what: str, call) -> str | None:
    """What escapes call() other than a DeclustrError, as one line, or None."""
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        call()
    except dc.DeclustrError:
        pass
    except Overrun:
        return f"{what} ran past {LIMIT_S} s"
    except Exception as exc:  # any other escape is what the fuzz looks for
        return f"{what}: {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return None


def test_malformed_values_raise_only_declustr_errors(rows, alarm):
    # Nothing is drawn: every value meets every value argument of every row.
    escaped = []
    for name, valid in rows.items():
        call = CALLS.get(name, getattr(dc, name))
        call(**valid)
        for arg in sorted(set(valid) - OBJECT_TYPED):
            for value in MALFORMED:
                bad = {**valid, arg: copy.deepcopy(value)}
                escaped.append(_escape(f"{name}({arg}={shown(value)})", lambda: call(**bad)))
    assert not any(escaped), "\n".join(filter(None, escaped))


def _placed(grid, value):
    """(where, grid) with value as each cell in turn, then as each row, then as the grid."""
    for i, row in enumerate(grid):
        for j in range(len(row)):
            yield f"cell ({i}, {j})", [
                [value if (a, b) == (i, j) else cell for b, cell in enumerate(other)]
                for a, other in enumerate(grid)
            ]
    for i in range(len(grid)):
        yield f"row {i}", [value if a == i else other for a, other in enumerate(grid)]
    yield "grid", value


@pytest.mark.parametrize("code", [dc.rdp_code(3), dc.rs_code(4, 2)], ids=["rdp3", "rs4,2"])
def test_codec_methods_raise_only_declustr_errors(code, alarm):
    # HorizontalCode's methods take grids of cells, which the rows above do
    # not reach: each value goes in as a cell, a row and the whole grid, into
    # encode's data and into decode's codeword under every erasure pattern,
    # and as decode's erased and wanted columns.
    data = [[(7 * i + j + 1) % 256 for j in range(code.k - code.delta)] for i in range(code.r)]
    codeword = code.encode(data)
    calls = [("encode", data, code.encode)]
    for size in range(1, code.delta + 1):
        for erased in combinations(range(code.k), size):
            given = [[None if c in erased else cell for c, cell in enumerate(row)] for row in codeword]
            calls.append((f"decode {erased}", given, lambda rows, erased=erased: code.decode(rows, erased)))
    escaped = []
    for value in MALFORMED:
        for name, grid, call in calls:
            for where, bad in _placed(grid, value):
                what = f"{code.kind} {name} with {where} = {shown(value)}"
                escaped.append(_escape(what, lambda: call(copy.deepcopy(bad))))
        for args in ((codeword, value), (codeword, (0,), value)):
            what = f"{code.kind} decode with {shown(args[1:])} after the codeword"
            escaped.append(_escape(what, lambda: code.decode(*copy.deepcopy(args))))
    assert not any(escaped), "\n".join(filter(None, escaped))
