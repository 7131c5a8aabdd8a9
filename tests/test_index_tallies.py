"""Tallies read off a group's label columns and a layout's bit-mask index
agree with plain loops over the extended rows and placements.

Each case draws, from its seed, six custom families (random subsets and
reorderings of the full rows) beside the three named ones, a relabelling of
the design's points, and a column order within every placement.
"""

import random
from collections import Counter

import pytest

from declustr import (
    DATA,
    DeclusteredLayout,
    ParityGroup,
    arrangement_counts,
    complete_design,
    counterexample_report,
    group_family,
    hadamard_3design,
    layout_geometry,
    parity_label,
    rdp_code,
    rs_code,
    validate_design,
)
from declustr.parity_groups import FAMILIES

P1, P2 = parity_label(1), parity_label(2)

# (name, code, design of strength delta + 1 and block size k)
CODES = [
    ("rs3-1", rs_code(3, 1), complete_design(5, 3, 2)),
    ("rs4-2", rs_code(4, 2), hadamard_3design(8)),
    ("rs5-3", rs_code(5, 3), complete_design(6, 5, 4)),
    ("rdp3", rdp_code(3), complete_design(6, 4, 3)),
    ("rdp5", rdp_code(5), complete_design(7, 6, 3)),
]
CASES = [(name, code, design, seed) for name, code, design in CODES for seed in range(2)]


def groups(code, rng):
    named = [group_family(code, family) for family in FAMILIES]
    full = named[0].extended_rows
    custom = [ParityGroup(code, tuple(rng.sample(full, rng.randint(1, len(full))))) for _ in range(6)]
    return named + custom


def relabelled(design, rng):
    points = list(range(design.n))
    rng.shuffle(points)
    p = design.params
    return validate_design(
        [[points[x] for x in block] for block in design.blocks], p.t, p.n, p.k, p.lam
    )


def row_walk_parity(group):
    return tuple(
        group.r * sum(1 for row in group.extended_rows if row[c] != DATA) for c in range(group.k)
    )


@pytest.mark.parametrize(
    "code,design,seed",
    [case[1:] for case in CASES],
    ids=[f"{name}-seed={seed}" for name, _, _, seed in CASES],
)
def test_index_tallies_match_a_row_walk(code, design, seed):
    rng = random.Random(seed)
    design = relabelled(design, rng)
    for group in groups(code, rng):
        rows = group.extended_rows
        parity = row_walk_parity(group)
        assert group.parity_per_column == parity

        if group.delta == 2:
            for i in range(group.k):
                for j in range(group.k):
                    if i != j:
                        pairs = Counter((row[i], row[j]) for row in rows)
                        counts = arrangement_counts(group, i, j)
                        assert (counts.r_dq, counts.r_pq, counts.r_qp) == (
                            pairs[DATA, P2], pairs[P1, P2], pairs[P2, P1]
                        )

        failed = rng.sample(range(design.n), rng.randint(1, group.delta))
        report = counterexample_report(group, design, failed)
        labels = {}
        for index, placement in enumerate(design.blocks):
            for pos, disk in enumerate(placement):
                seen = {row[pos] for row in rows}
                labels[index, disk] = seen.pop() if len(seen) == 1 else "mixed"
        assert report.labels == labels

        placements = tuple(tuple(rng.sample(block, len(block))) for block in design.blocks)
        layout = DeclusteredLayout(design.n, design, group, placements)
        units, parity_units = [0] * design.n, [0] * design.n
        for placement in placements:
            for pos, disk in enumerate(placement):
                units[disk] += 1
                parity_units[disk] += parity[pos]
        geometry = layout_geometry(layout)
        assert [geometry.column_units_per_disk] * design.n == units
        assert geometry.parity_units_per_disk == tuple(parity_units)
