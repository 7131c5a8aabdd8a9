"""Declustered-parity layouts for disk arrays.

Combine a systematic MDS horizontal code, an arrangement family that spreads
its parity columns evenly, and a t-(n,k,lambda) design, and the result is an
n-disk array code whose reconstruction workload after up to t-1 failures is
spread uniformly over every surviving disk. This package builds those
layouts, proves the uniformity claim by exhaustive enumeration and closed
form, and re-verifies it byte-for-byte in a failure simulator.
"""

from types import ModuleType as _ModuleType

from .analysis import (
    TRADEOFF_LAMBDA_PRESETS,
    CounterexampleReport,
    TradeoffRow,
    WorkloadReport,
    closed_form_workload,
    counterexample_report,
    reconstruction_workload,
    round_half_up,
    tradeoff_table,
)
from .designs import (
    Design,
    DesignParams,
    complete_design,
    count_lambda,
    design_from_json,
    design_to_json,
    hadamard_3design,
    reduce_design,
    validate_design,
)
from .erasure_codes import (
    DATA,
    HorizontalCode,
    canonical_labels,
    parity_index,
    parity_label,
    rdp_code,
    reconstruction_rule,
    rs_code,
)
from .errors import (
    BlockSizeError,
    CoverageError,
    DeclustrError,
    FormatError,
    InvariantError,
    MismatchError,
    ParamError,
    TooManyErasures,
    TooManyFailures,
    UnbalancedGroup,
)
from .layout import (
    DeclusteredLayout,
    LayoutGeometry,
    build_layout,
    deserialize_layout,
    layout_geometry,
    rotate_layout,
    serialize_layout,
)
from .parity_groups import (
    ArrangementCounts,
    BalanceReport,
    ParityGroup,
    ReconstructionPlan,
    arrangement_counts,
    balance_horizontal_code,
    cyclic_rotation_group,
    group_family,
    reconstruction_plan,
    single_arrangement_group,
    tau,
    verify_balance,
)
from .simulator import (
    DiskArray,
    IOStats,
    SetResult,
    UnitProvenance,
    VerifySummary,
    byte_stream,
    check_parity_invariant,
    exhaustive_verify,
    fail_and_reconstruct,
    materialize,
    unit_provenance,
)

__version__ = "0.1.0"

# The submodules stay reachable as attributes but are not part of the API.
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
