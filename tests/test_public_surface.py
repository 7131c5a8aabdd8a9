"""The package's exported names: each resolves, none is a submodule or a removed helper."""

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
