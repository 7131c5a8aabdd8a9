"""Placement of parity-group instances onto n disks via a block design.

Each design block spawns one group instance; group column c lands on the
c-th smallest block element, and a disk stacks its column-units in ascending
block index. With a design of strength matching the group (t = delta + 1),
every disk ends up holding the same number of column-units and the same
number of parity entries.

Each layout caches one bit-mask index: per disk and position, an int whose
bit i is set when placement i puts that position on that disk. `losses`
splits a failure's affected instances off it into one mask per lost-position
tuple, and `survivor_reads` counts what each mask's reconstruction plan reads
from every surviving disk with ANDs and bit counts; the analysis and the
simulator share that one tally.

The delta=1 path mirrors classic single-parity declustering: a one-row group
whose parity column is last, hence placed on the largest block element, with
an optional cyclic rotation step to even out parity placement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import compress, count
from operator import or_

from .designs import (
    INT,
    INT_LISTS,
    Design,
    check_fields,
    count_lambda,
    design_from_json,
    design_to_json,
    validate_design,
)
from .erasure_codes import CODE_KINDS, HorizontalCode
from .errors import (
    DeclustrError,
    FormatError,
    InvariantError,
    MismatchError,
    ParamError,
    TooManyFailures,
)
from .parity_groups import FAMILIES, ParityGroup, group_family, reconstruction_plan

LAYOUT_JSON_FIELDS = {"n": INT, "design": None, "group": None, "placements": INT_LISTS}

# bytes.translate table taking the ASCII digits of bin() to byte values 0 and 1.
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True)
class DeclusteredLayout:
    """n disks holding one column-unit per (block, block element) incidence."""

    n: int
    design: Design
    group: ParityGroup
    placements: tuple[tuple[int, ...], ...]

    @property
    def units_per_disk(self) -> int:
        return count_lambda(self.design.params, 1, 0)

    @property
    def rows_per_disk(self) -> int:
        return self.group.m * self.units_per_disk

    @cached_property
    def stacks(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per disk, the (placement index, position) of each column-unit it holds.

        A disk stacks its column-units bottom up in ascending block index.
        """
        stacks = [[] for _ in range(self.n)]
        for index, placement in enumerate(self.placements):
            for pos, disk in enumerate(placement):
                stacks[disk].append((index, pos))
        return tuple(map(tuple, stacks))

    @cached_property
    def position_masks(self) -> tuple[tuple[int, ...], ...]:
        """Per disk and position, a bit mask of placements: bit i is set when
        placement i puts that position on that disk."""
        masks = [[0] * self.group.k for _ in range(self.n)]
        for i, placement in enumerate(self.placements):
            bit = 1 << i
            for pos, disk in enumerate(placement):
                masks[disk][pos] |= bit
        return tuple(map(tuple, masks))

    @cached_property
    def member_masks(self) -> tuple[int, ...]:
        """Per disk, the placements that use it: the OR of its `position_masks`."""
        return tuple(reduce(or_, per_disk) for per_disk in self.position_masks)

    @cached_property
    def unit_offsets(self) -> tuple[tuple[int, ...], ...]:
        """Per placement, the offset of its column-unit on each of its disks.

        This is the stacking order of `stacks` with m bytes per unit.
        """
        m = self.group.m
        base = [0] * self.n
        offsets = []
        for placement in self.placements:
            row = []
            for disk in placement:
                row.append(base[disk])
                base[disk] += m
            offsets.append(tuple(row))
        return tuple(offsets)


@dataclass(frozen=True)
class LayoutGeometry:
    """Unit tallies plus the exact data/parity disk fractions."""

    rows_per_disk: int
    column_units_per_disk: int
    parity_units_per_disk: tuple[int, ...]
    parity_uniform: bool
    data_disks: Fraction
    parity_disks: Fraction


def check_failed(layout: DeclusteredLayout, failed) -> frozenset[int]:
    """Validate a failure set against the layout's disks and tolerance."""
    failed, n, delta = frozenset(failed), layout.n, layout.group.delta
    if len(failed) > delta:
        raise TooManyFailures(f"{len(failed)} failed disks exceed the tolerance delta={delta}")
    if any(isinstance(d, bool) or not isinstance(d, int) or not 0 <= d < n for d in failed):
        raise ParamError(f"failed disks must be in 0..{n - 1}, got {sorted(failed)}")
    return failed


def check_index(name: str, value, size: int) -> None:
    """Refuse anything but an int in 0..size-1; a bool indexes like 0 or 1 but is neither."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < size:
        raise ParamError(f"{name} must be an int in 0..{size - 1}, got {value!r}")


def placement_indices(mask: int):
    """The ascending placement indices whose bits are set in `mask`, as an iterator.

    The mask's binary digits, least significant first, select from a counter
    at C level; there is no Python loop over the bits.
    """
    return compress(count(), bin(mask)[:1:-1].encode().translate(_DIGIT_VALUES))


def losses(layout: DeclusteredLayout, failed: frozenset[int]) -> dict[tuple[int, ...], int]:
    """Affected instances grouped by lost positions: {sorted lost tuple:
    bit mask of the placements that lost exactly those positions}.

    Every placement starts in one group that lost nothing. Each failed disk
    in turn splits every group by the position the disk holds in each member
    (one AND per group and position with the disk's `position_masks`); the
    members it does not hold stay where they were.
    """
    groups = {(): (1 << len(layout.placements)) - 1}
    for disk in sorted(failed):
        split: dict[tuple[int, ...], int] = {}
        for lost, mask in groups.items():
            for pos, at in enumerate(layout.position_masks[disk]):
                if hit := mask & at:
                    key = tuple(sorted((*lost, pos)))
                    split[key] = split.get(key, 0) | hit
                    mask ^= hit
            if mask:
                split[lost] = split.get(lost, 0) | mask
        groups = split
    groups.pop((), None)
    return groups


def survivor_reads(layout: DeclusteredLayout, failed: frozenset[int], affected) -> dict[int, int]:
    """Entries read from each surviving disk to rebuild the `losses` groups.

    The groups' masks are pooled per (read count, position read that often)
    of their plans; they are disjoint, so a disk's count for a pool is the
    size of its overlap with that position's `position_masks`, scaled by
    r * rows. A read count that covers every surviving position reads whole
    placements, one unit per disk, so it is pooled per count alone and met
    with the disk's `member_masks`.
    """
    group = layout.group
    whole: dict[int, int] = {}
    pooled: dict[tuple[int, int], int] = {}
    for lost, mask in affected.items():
        for rows, positions in reconstruction_plan(group, lost).by_rows.items():
            if len(positions) + len(lost) == group.k:
                whole[rows] = whole.get(rows, 0) | mask
            else:
                for pos in positions:
                    pooled[rows, pos] = pooled.get((rows, pos), 0) | mask
    reads = {}
    for disk in range(layout.n):
        if disk not in failed:
            member, at = layout.member_masks[disk], layout.position_masks[disk]
            reads[disk] = group.r * (
                sum(rows * (mask & member).bit_count() for rows, mask in whole.items())
                + sum(rows * (mask & at[pos]).bit_count() for (rows, pos), mask in pooled.items())
            )
    return reads


def build_layout(group: ParityGroup, design: Design) -> DeclusteredLayout:
    """Instantiate the group once per block, columns on sorted block elements."""
    if group.k != design.k:
        raise MismatchError(
            f"group size k={group.k} does not match design block size k={design.k}"
        )
    if design.t != group.delta + 1:
        raise MismatchError(
            f"group with delta={group.delta} needs a design of strength "
            f"{group.delta + 1}, got t={design.t}"
        )
    return DeclusteredLayout(
        n=design.n,
        design=design,
        group=group,
        placements=tuple(design.blocks),
    )


def rotate_layout(layout: DeclusteredLayout) -> DeclusteredLayout:
    """Stack n cyclically disk-shifted copies of a single-parity layout.

    Afterwards every disk holds the same number of parity units. Shifting
    relabels disks, so each copy of a placement keeps its column order while
    the blocks become the shifted point sets.
    """
    if layout.group.delta != 1:
        raise ParamError(
            "rotation applies to single-parity layouts; groups with delta >= 2 "
            "already place parity evenly"
        )
    n = layout.n
    params = layout.design.params
    blocks = []
    placements = []
    for shift in range(n):
        for placement in layout.placements:
            shifted = tuple((d + shift) % n for d in placement)
            placements.append(shifted)
            blocks.append(tuple(sorted(shifted)))
    design = validate_design(
        blocks, t=params.t, n=n, k=params.k, lam=params.lam * n
    )
    return DeclusteredLayout(
        n=n, design=design, group=layout.group, placements=tuple(placements)
    )


def layout_geometry(layout: DeclusteredLayout) -> LayoutGeometry:
    """Tally units per disk and derive the exact data/parity disk counts."""
    group = layout.group
    parity_per_column = group.parity_per_column
    unit_counts = [0] * layout.n
    parity_counts = [0] * layout.n
    for placement in layout.placements:
        for position, disk in enumerate(placement):
            unit_counts[disk] += 1
            parity_counts[disk] += parity_per_column[position]
    if len(set(unit_counts)) != 1:
        raise InvariantError(f"column-unit counts differ per disk: {unit_counts}")
    rows_per_disk = group.m * unit_counts[0]
    total_parity = sum(parity_counts)
    parity_disks = Fraction(total_parity, rows_per_disk)
    expected = Fraction(group.delta * layout.n, group.k)
    if parity_disks != expected:
        raise InvariantError(
            f"parity tally {parity_disks} does not match delta*n/k = {expected}"
        )
    return LayoutGeometry(
        rows_per_disk=rows_per_disk,
        column_units_per_disk=unit_counts[0],
        parity_units_per_disk=tuple(parity_counts),
        parity_uniform=len(set(parity_counts)) == 1,
        data_disks=Fraction((group.k - group.delta) * layout.n, group.k),
        parity_disks=parity_disks,
    )


def group_descriptor(group: ParityGroup) -> dict:
    """JSON form of a group: code parameters plus the arrangement family."""
    code = group.code
    if group.family not in FAMILIES:
        raise FormatError(
            f"{code.kind} group of family {group.family!r} has no serialized form; "
            f"serializable are families {', '.join(FAMILIES)}"
        )
    descriptor = {"code": code.kind}
    descriptor.update((name, getattr(code, name)) for name in CODE_KINDS[code.kind][1])
    if group.family != "full":
        descriptor["family"] = group.family
    return descriptor


def _code_from_descriptor(obj) -> tuple[HorizontalCode, str]:
    """A group descriptor's code and family name; the family is not built."""
    kind = obj.get("code") if isinstance(obj, dict) else None
    # Tuple membership compares without hashing: a list kind is unhashable.
    make, names = CODE_KINDS[kind] if kind in tuple(CODE_KINDS) else (None, ())
    fields = {"code": tuple(CODE_KINDS), **dict.fromkeys(names, INT), "family": FAMILIES}
    check_fields("group descriptor", obj, fields, optional=("family",))
    try:
        code = make(*(obj[name] for name in names))
    except ParamError as exc:
        raise FormatError(f"bad group descriptor: {exc}") from exc
    return code, obj.get("family", "full")


def serialize_layout(layout: DeclusteredLayout) -> str:
    """JSON text for a layout; placements are redundant but cross-checked on load."""
    payload = {
        "n": layout.n,
        "design": design_to_json(layout.design),
        "group": group_descriptor(layout.group),
        "placements": [list(p) for p in layout.placements],
    }
    return json.dumps(payload, indent=2) + "\n"


def deserialize_layout(text) -> DeclusteredLayout:
    """Parse layout JSON and revalidate every invariant.

    Structural problems (bad JSON, missing fields) raise FormatError; semantic
    violations (invalid design, placement/block mismatch, duplicated disks in
    one placement) raise InvariantError.
    """
    if isinstance(text, (str, bytes)):
        try:
            obj = json.loads(text)
        except ValueError as exc:  # also bad UTF-8 and integers over 4,300 digits
            raise FormatError(f"layout file is not valid JSON: {exc}") from exc
    else:
        obj = text
    check_fields("layout", obj, LAYOUT_JSON_FIELDS)
    n = obj["n"]
    try:
        design = design_from_json(obj["design"])
    except FormatError:
        raise
    except DeclustrError as exc:
        raise InvariantError(f"embedded design is invalid: {exc}") from exc
    code, family = _code_from_descriptor(obj["group"])
    if n != design.n:
        raise InvariantError(f"layout n={n} but design has n={design.n}")
    if code.k != design.k or design.t != code.delta + 1:
        raise InvariantError(
            f"group (k={code.k}, delta={code.delta}) does not fit a "
            f"{design.t}-({design.n},{design.k},{design.lam}) design"
        )
    group = group_family(code, family)
    placements = tuple(map(tuple, obj["placements"]))
    if len(placements) != len(design.blocks):
        raise InvariantError(f"{len(placements)} placements for {len(design.blocks)} blocks")
    for index, (disks, block) in enumerate(zip(placements, design.blocks)):
        if len(set(disks)) != len(disks):
            raise InvariantError(
                f"placement {index} stores two columns of one group on one disk: {disks}"
            )
        if any(not 0 <= d < n for d in disks):
            raise InvariantError(f"placement {index} names disks outside 0..{n - 1}")
        if tuple(sorted(disks)) != block:
            raise InvariantError(
                f"placement {index} disks {disks} do not match block {block}"
            )
    return DeclusteredLayout(n=n, design=design, group=group, placements=placements)
