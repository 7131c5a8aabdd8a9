"""The package's exported names: each resolves, none is a submodule or a removed helper."""

import importlib
import importlib.util
from pathlib import Path
from types import ModuleType

import declustr as dc

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
