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
from functools import cache
from itertools import combinations
from math import comb

import pytest
from test_mathieu_designs import INF, witt_blocks
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
    validate_design,
)
from declustr.errors import UnbalancedGroup

FAMILIES = ("full", "single", "rotations")


def pgl_orbit(q: int, base) -> list[tuple[int, ...]]:
    """Orbit of a subset of the projective line GF(q) u {inf} under PGL(2,q).

    Point q stands for infinity. Each map x -> (ax+b)/(cx+d) with ad-bc != 0
    is taken once, normalised to d=1 when c=0 and to c=1 otherwise. PGL(2,q)
    is sharply 3-transitive, so the orbit of a k-subset is a 3-(q+1,k,lambda)
    design. Blocks are returned sorted, in lexicographic order.
    """
    inf = q

    def image(a, b, c, d, x):
        if x == inf:
            return inf if c == 0 else a * pow(c, -1, q) % q
        den = (c * x + d) % q
        if den == 0:
            return inf
        return (a * x + b) * pow(den, -1, q) % q

    maps = [(a, b, 0, 1) for a in range(1, q) for b in range(q)]
    maps += [
        (a, b, 1, d)
        for a in range(q) for b in range(q) for d in range(q)
        if (a * d - b) % q
    ]
    return sorted({tuple(sorted(image(*m, x) for x in base)) for m in maps})


def orbit_design(q: int, base):
    blocks = pgl_orbit(q, base)
    n, k = q + 1, len(base)
    return validate_design(blocks, 3, n, k, len(blocks) * comb(k, 3) // comb(n, 3))


@cache
def witt_5_6_12():
    return validate_design(witt_blocks(), t=5, n=12, k=6, lam=1)


def witt_4_5_11():
    derived = [tuple(x for x in b if x != INF) for b in witt_5_6_12().blocks if INF in b]
    return validate_design(derived, t=4, n=11, k=5, lam=1)


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
