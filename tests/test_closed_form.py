"""Closed form = enumeration = byte sweep, on every design, family and s.

For each layout and each s <= min(delta, t-1), `closed_form_workload` must
equal the count `reconstruction_workload` enumerates from every survivor of
every size-s failure set, and the reads `exhaustive_verify` tallies while it
rebuilds each of those sets byte for byte. A family with no single tau_j has
no closed form: the function raises UnbalancedGroup and the reads differ.
Every layout is also checked under a seeded random point relabeling, which
keeps the design a design and so must keep every count.
"""

import random
from itertools import combinations, product

import pytest
from constructions import orbit_design, pgl_orbit, witt_4_5_11, witt_5_6_12
from test_reconstruction_plan import relabeled

from declustr import (
    DeclusteredLayout,
    build_layout,
    closed_form_workload,
    complete_design,
    exhaustive_verify,
    group_family,
    hadamard_3design,
    rdp_code,
    reconstruction_workload,
    reduce_design,
    rs_code,
)
from declustr.errors import UnbalancedGroup

FAMILIES = ("full", "single", "rotations")


# name -> (code, design, families). The Mathieu designs and hadamard(16) run
# the full family only, to keep the module fast.
CASES = {
    "rs(4,1)/complete(7,4,2)": (
        lambda: rs_code(4, 1), lambda: complete_design(7, 4, 2), FAMILIES
    ),
    "rs(4,2)/complete(8,4,3)": (
        lambda: rs_code(4, 2), lambda: complete_design(8, 4, 3), FAMILIES
    ),
    "rs(5,3)/complete(7,5,4)": (
        lambda: rs_code(5, 3), lambda: complete_design(7, 5, 4), FAMILIES
    ),
    "rdp3/hadamard(8)": (lambda: rdp_code(3), lambda: hadamard_3design(8), FAMILIES),
    "rdp7/hadamard(16)": (lambda: rdp_code(7), lambda: hadamard_3design(16), ("full",)),
    "rs(4,2)/pgl(5)": (
        lambda: rs_code(4, 2), lambda: orbit_design(5, (0, 1, 2, 3)), FAMILIES
    ),
    "rs(4,2)/pgl(7)": (
        lambda: rs_code(4, 2), lambda: orbit_design(7, (0, 1, 2, 4)), FAMILIES
    ),
    "rs(5,2)/pgl(11)": (
        lambda: rs_code(5, 2), lambda: orbit_design(11, (0, 1, 3, 4, 5)), FAMILIES
    ),
    "rs(5,3)/witt 4-(11,5,1)": (lambda: rs_code(5, 3), witt_4_5_11, ("full",)),
    "rs(6,3)/witt 4-(12,6,4)": (
        lambda: rs_code(6, 3), lambda: reduce_design(witt_5_6_12(), 4), ("full",)
    ),
    "rs(6,4)/witt 5-(12,6,1)": (lambda: rs_code(6, 4), witt_5_6_12, ("full",)),
}

# The full family's count at s = 1, 2, ...: literal numbers, because the
# enumeration and the sweep share one read tally. They include the acceptance
# numbers 48/88 and 300/480/630 and the Mathieu sweeps' counts.
EXPECTED_FULL = {
    "rs(4,1)/complete(7,4,2)": (40,),
    "rs(4,2)/complete(8,4,3)": (120, 220),
    "rs(5,3)/complete(7,5,4)": (300, 480, 630),
    "rdp3/hadamard(8)": (48, 88),
    "rdp7/hadamard(16)": (2016, 3312),
    "rs(4,2)/pgl(5)": (48, 84),
    "rs(4,2)/pgl(7)": (48, 88),
    "rs(5,2)/pgl(11)": (1500, 2700),
    "rs(5,3)/witt 4-(11,5,1)": (360, 640, 870),
    "rs(6,3)/witt 4-(12,6,4)": (2160, 3672, 4800),
    "rs(6,4)/witt 5-(12,6,1)": (4320, 7344, 9600, 11520),
}


def enumerated_reads(layout, s: int) -> set[int]:
    """Every per-survivor count over every size-s failure set."""
    reads = set()
    for failed in combinations(range(layout.n), s):
        reads.update(reconstruction_workload(layout, failed).reads.values())
    return reads


@pytest.mark.parametrize("relabel", [False, True], ids=["as built", "relabeled"])
@pytest.mark.parametrize(
    "name,family",
    [(name, family) for name, case in CASES.items() for family in case[2]],
)
def test_closed_form_equals_enumeration_and_sweep(name, family, relabel):
    make_code, make_design, _ = CASES[name]
    design = make_design()
    if relabel:
        design = relabeled(random.Random(name), design)
    layout = build_layout(group_family(make_code(), family), design)
    group, params = layout.group, design.params
    # Every family of a one-parity group is balanced; of the others, only full.
    balanced = family == "full" or group.delta == 1
    top = min(group.delta, design.t - 1)
    if family == "full":
        assert len(EXPECTED_FULL[name]) == top
    for s in range(1, top + 1):
        reads = enumerated_reads(layout, s)
        sweep = exhaustive_verify(layout, s, seed=3)
        assert sweep.passed == sweep.total, s
        if balanced:
            closed = closed_form_workload(params, group, s)
            assert reads == {closed} and sweep.reads_per_disk == closed, s
            if family == "full":
                assert closed == EXPECTED_FULL[name][s - 1], s
        else:
            with pytest.raises(UnbalancedGroup):
                closed_form_workload(params, group, s)
            assert len(reads) > 1 and not sweep.uniform, s


@pytest.mark.parametrize(
    "design_name,code,reads",
    [
        ("bibd_design", rs_code(4, 2), (24,)),  # t=2 < delta+1
        ("reference_design", rs_code(4, 3), (24, 44)),  # t=3 < delta+1
    ],
)
def test_closed_form_on_designs_weaker_than_delta_plus_one(design_name, code, reads, request):
    # build_layout pins t = delta+1, so these layouts are built by hand.
    design = request.getfixturevalue(design_name)
    layout = DeclusteredLayout(
        n=design.n, design=design, group=group_family(code, "full"), placements=design.blocks
    )
    for s, expected in enumerate(reads, 1):
        assert closed_form_workload(design.params, layout.group, s) == expected
        assert enumerated_reads(layout, s) == {expected}
        assert exhaustive_verify(layout, s).reads_per_disk == expected


def test_workload_attaches_the_closed_form_only_below_strength_t(bibd_design):
    layout = DeclusteredLayout(
        n=5, design=bibd_design, group=group_family(rs_code(4, 2), "full"),
        placements=bibd_design.blocks,
    )
    assert reconstruction_workload(layout, {0}).closed_form == 24
    # Two failures on a 2-design: no closed form, and no error either.
    assert reconstruction_workload(layout, {0, 1}).closed_form is None


def _random_base_block(seed: int) -> tuple[int, tuple[int, ...]]:
    """A seeded draw of q in {5, 7, 11} and a k-subset of its projective
    line, k in {4, 5, 6}: the base block of a random 3-design (pgl_orbit)."""
    rng = random.Random(seed)
    q, k = rng.choice((5, 7, 11)), rng.choice((4, 5, 6))
    return q, tuple(sorted(rng.sample(range(q + 1), k)))


@pytest.mark.parametrize(
    "seed", [pytest.param(seed, id=f"seed={seed}") for seed in range(24)]
)
def test_random_3_designs_agree_in_closed_form_enumeration_and_sweep(seed):
    # A seeded base block's PGL(2,q) orbit is a random 3-(q+1, k, lambda)
    # design. With RS(k,2), and RDP p when k = p + 1, the full family's
    # closed form must equal the enumeration and the sweep's reads at s=1
    # and s=2, and every set must recover in every family. Balance is
    # sufficient for uniform reads, not necessary, so the other families'
    # reads are not asserted non-uniform.
    q, base = _random_base_block(seed)
    blocks, k = pgl_orbit(q, base), len(base)
    if len(blocks) == 1 or k == q + 1:
        pytest.skip(f"degenerate draw: {len(blocks)} block(s) of {k} on {q + 1} points")
    design = orbit_design(q, base)
    codes = [rs_code(k, 2), *([rdp_code(k - 1)] if k in (4, 6) else [])]
    for code, family in product(codes, FAMILIES):
        layout = build_layout(group_family(code, family), design)
        for s in (1, 2):
            sweep = exhaustive_verify(layout, s, seed=seed)
            assert sweep.passed == sweep.total, (code, family, s)
            if family == "full":
                closed = closed_form_workload(design.params, layout.group, s)
                assert enumerated_reads(layout, s) == {closed}, (code, s)
                assert sweep.uniform and sweep.reads_per_disk == closed, (code, s)
