"""Placement of parity-group instances onto n disks via a block design.

Each design block spawns one group instance; group column c lands on the
c-th smallest block element, and a disk stacks its column-units in ascending
block index. A layout checks when it is built that its n and k are the
design's and that each placement holds exactly its block's disks, in any
order. build_layout also asks for strength t = delta + 1, so every disk holds
the same number of column-units and the same number of parity entries.

Saving and loading run at C level: serialize_layout writes with
designs.dump_json, and the loader's field, design and placement checks each
decide in one pass over the flattened entries. A per-block loop runs only
after a pass has refused, to name the first offender.

Each layout caches one bit-mask index: per disk and position, an int whose
bit i is set when placement i puts that position on that disk. `losses`
splits a failure's affected instances off it into one mask per lost-position
mask (bit p for position p): the first failed disk's groups are its
`position_masks`, and each further one splits them (`_split`, which the
simulator's sweep walks prefix by prefix). A split ANDs each group with the
disk's members first, so a group the disk does not touch is carried over
whole, and keys each position it takes as `lost | 1 << pos`.
`survivor_reads` pools the masks by what their plans read and counts each
pool on every disk with ANDs and bit counts, one comprehension over the
disks for the first two pools of whole placements; the analysis and the
simulator share that one tally (`_tally`), which takes each plan from the
group's memo.

Each layout also caches the tables through which the simulator moves units
between disks and its unit-major position buffers: per position, each
placement's unit as a slice of the joined disks (`unit_slices`), and each
disk's stack cut into runs of consecutive placements at one position
(`unit_runs`, by `stack_runs`, which also cuts a rebuild's runs by its lanes).

The delta=1 path mirrors classic single-parity declustering: a one-row group
whose parity column is last, hence placed on the largest block element, with
an optional cyclic rotation step to even out parity placement.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import chain, compress
from operator import mul, or_

from . import _stats
from ._record import record
from .designs import (
    INT,
    INT_LISTS,
    Design,
    check_budget,
    check_fields,
    check_iterable,
    count_lambda,
    design_from_json,
    design_to_json,
    dump_json,
    parse_json,
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
    shown,
)
from .parity_groups import FAMILIES, ParityGroup, _plan, group_family

LAYOUT_JSON_FIELDS = {"n": INT, "design": None, "group": None, "placements": INT_LISTS}

# bytes.translate table taking the ASCII digits of bin() to byte values 0 and 1.
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


# The memo: reconstruction_workload's of the closed form it attaches, per failure size.
# It is derived from the fields, so it takes no part in equality or hashing.
@record(frozen=True, memos=("_closed_forms",))
class DeclusteredLayout:
    """n disks holding one column-unit per (block, block element) incidence.
    However given, the placements are stored as a tuple of int tuples: the
    design's blocks themselves when equal to them."""

    n: int
    design: Design
    group: ParityGroup
    placements: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        design, group, placements = self.design, self.group, self.placements
        if type(self.n) is not int or self.n != design.n:
            raise InvariantError(f"layout n={shown(self.n)} but design has n={design.n}")
        if group.k != design.k:
            raise MismatchError(
                f"group size k={group.k} does not match design block size k={design.k}"
            )
        # Blocks are sorted ints, so the blocks themselves match; True or 1.0 == 1 is no disk.
        # Placements are read once: int tuples equal to the blocks are stored as the blocks,
        # unsorted; others must sort to them. The count and the loop name the first offender.
        if placements is design.blocks:
            return
        blocks = design.blocks
        taken = check_iterable("placements", placements, "disk tuples", InvariantError)
        ints = _int_tuples(taken)
        if ints == blocks:
            ints = blocks
        elif not _holds_blocks(ints, blocks):
            if len(taken) != len(blocks):
                raise InvariantError(f"{len(taken)} placements for {len(blocks)} blocks")
            for index, (disks, block) in enumerate(zip(taken, blocks)):
                if not _holds_blocks(_int_tuples((disks,)), (block,)):
                    raise InvariantError(f"placement {index} disks {shown(disks)} do not match block {block}")
        object.__setattr__(self, "placements", ints)

    @cached_property
    def units_per_disk(self) -> int:
        return count_lambda(self.design.params, 1, 0)

    @cached_property
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
    def indices(self) -> tuple[int, ...]:
        """The placement indices 0..b-1, for `placement_indices` to select from."""
        return tuple(range(len(self.placements)))

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

    @cached_property
    def unit_slices(self) -> tuple[tuple[slice, ...], ...]:
        """Per position, each placement's unit there as a byte slice of the
        n disks joined in index order, for a gather to pick out of one join:
        disk d's q-th unit is its (d*U + q)-th m bytes (U units per disk)."""
        ends = list(range(0, self.n * self.rows_per_disk + 1, self.group.m))
        table = [[None] * len(self.placements) for _ in range(self.group.k)]
        for (index, pos), place in zip(chain.from_iterable(self.stacks), map(slice, ends, ends[1:])):
            table[pos][index] = place
        return tuple(map(tuple, table))

    @cached_property
    def unit_runs(self) -> tuple[tuple[tuple[int, ...], tuple[slice, ...]], ...]:
        """Per disk, its stack cut into runs (`stack_runs`) with each
        placement as its own lane: the runs a fill cuts out of its position
        buffers over every placement."""
        return tuple(stack_runs(stack, self.indices, self.group.m) for stack in self.stacks)


def _int_tuples(placements) -> tuple[tuple[int, ...], ...]:
    """The placements as tuples, if they are iterables of exact ints, decided
    by one set of types at C level; else (), which no design's blocks are."""
    try:
        taken = tuple(map(tuple, placements))
    except TypeError:
        return ()
    return taken if set(map(type, chain.from_iterable(taken))) <= {int} else ()


def _holds_blocks(placements, blocks) -> bool:
    """Whether int tuples sort to the blocks: one sort per placement at C level."""
    return tuple(map(tuple, map(sorted, placements))) == blocks


@record(frozen=True)
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
    # Entries are checked before frozenset hashes them, so a list entry is a ParamError too.
    entries = check_iterable("failed disks", failed, "disks")
    n, delta = layout.n, layout.group.delta
    if any(type(d) is not int or not 0 <= d < n for d in entries):
        # Ints in order, then anything else by repr: sorted cannot order None against 0.
        ordered = sorted(entries, key=lambda d: (type(d) is not int, d if type(d) is int else shown(d)))
        raise ParamError(f"failed disks must be in 0..{n - 1}, got {shown(ordered)}")
    failed = frozenset(entries)
    if len(failed) > delta:
        raise TooManyFailures(f"{len(failed)} failed disks exceed the tolerance delta={delta}")
    return failed


def placement_indices(layout: DeclusteredLayout, mask: int):
    """The ascending indices of `layout`'s placements whose bits are set in
    `mask`, as an iterator.

    The mask's binary digits, least significant first, select at C level
    from the layout's `indices`, whose ints already exist; there is no Python
    loop over the bits. (Selecting from a counter instead makes an int per
    digit: 0.24 against 0.12 ms for the lanes of a two-disk rebuild on
    complete(12,6,3).)
    """
    return compress(layout.indices, bin(mask)[:1:-1].encode().translate(_DIGIT_VALUES))


def stack_runs(stack, lane_of, m: int) -> tuple[tuple[int, ...], tuple[slice, ...]]:
    """A disk's stack, its (placement index, position) pairs, cut into runs:
    the longest stretches of units at one position whose placements sit in
    consecutive lanes, lane_of[index] being a placement's lane. Returns each
    run's position and its bytes in that position's unit-major buffer over
    the lanes (lane x's unit at bytes x*m..(x+1)*m), so one join of the
    slices, in order, makes the disk.

    One Python pass over the units: it measured faster than building the
    same runs from C-level passes over the stack or the position columns.
    """
    positions, cuts = [], []
    at = first = end = None
    for index, pos in stack:
        lane = lane_of[index]
        if lane == end and pos == at:
            end += 1
            continue
        if at is not None:
            cuts.append(slice(first * m, end * m))
        positions.append(pos)
        at, first, end = pos, lane, lane + 1
    if at is not None:
        cuts.append(slice(first * m, end * m))
    return tuple(positions), tuple(cuts)


def _split(layout: DeclusteredLayout, groups: dict, disk: int) -> dict[int, int]:
    """`groups` ({lost-position mask: placement mask}) split by `disk`'s failure.

    Each group is first ANDed with the disk's `member_masks`: a group the
    disk does not touch is carried over whole, and the members it does hold
    are ANDed position by position with its `position_masks` until every
    one is placed, each under its group's key with that position's bit set.
    Members the disk does not hold, the 0 group's too, stay where they were.
    """
    split: dict[int, int] = {}
    members, positions = layout.member_masks[disk], layout.position_masks[disk]
    for lost, mask in groups.items():
        if held := mask & members:
            mask ^= held
            for pos, at in enumerate(positions):
                if hit := held & at:
                    key = lost | 1 << pos
                    split[key] = split.get(key, 0) | hit
                    held ^= hit
                    if not held:
                        break
        if mask:
            split[lost] = split.get(lost, 0) | mask
    return split


def losses(layout: DeclusteredLayout, failed: frozenset[int]) -> dict[int, int]:
    """Affected instances grouped by lost positions: {lost-position mask (bit
    p for position p): mask of the placements that lost exactly those}.

    The first failed disk in ascending order groups the placements by the
    position it holds (its `position_masks`), the rest in a 0 group, and
    each further one splits the groups (`_split`, the one splitting rule:
    the sweep walks it prefix by prefix).
    """
    if not failed:
        return {}
    first, *rest = sorted(failed)
    groups = {1 << pos: mask for pos, mask in enumerate(layout.position_masks[first]) if mask}
    groups[0] = ((1 << len(layout.placements)) - 1) ^ layout.member_masks[first]
    groups = reduce(partial(_split, layout), rest, groups)
    groups.pop(0, None)
    return groups


def _tally(layout: DeclusteredLayout, failed, affected) -> list[int]:
    """Per disk, the entries read to rebuild the `losses` groups `affected`
    (a failed disk's count is not a read).

    The groups' masks are pooled by their plans' `pools`, read off each
    plan's own `by_rows`. The plans come from the group's memo `_plans`, so
    `_plan` is asked only for a lost-position mask the group has not
    planned. The masks are disjoint, so a disk's count for a pool is the
    size of its overlap with that position's `position_masks`, scaled by
    r * rows. Pools of whole placements are met with every disk's
    `member_masks`: the first two in one comprehension over the disks, with
    two ANDs, bit counts and multiply-adds per disk (the full family has one
    such pool per number of lost positions, so two at s=2), and any further
    one in a comprehension of its own. Only a plan with no whole pool, which
    the single and rotations families have, adds per-position pools, which
    take a loop per surviving disk.
    """
    group, rec, misses = layout.group, _stats.recorder, 0
    plans = group._plans
    whole: dict[int, int] = {}
    pooled: dict[tuple[int, int], int] = {}
    for lost, mask in affected.items():
        plan = plans.get(lost)
        if plan is None:
            if rec:
                rec.mark("layout.tally_s")
            plan = _plan(group, lost)
            misses += 1
            if rec:
                rec.mark("parity_groups.plan_s")
        rows, keys = plan.pools
        if rows:
            whole[rows] = whole.get(rows, 0) | mask
        else:
            for key in keys:
                pooled[key] = pooled.get(key, 0) | mask
    r, members, pools = group.r, layout.member_masks, iter(whole.items())
    (a, x), (b, y) = next(pools, (0, 0)), next(pools, (0, 0))
    a, b = r * a, r * b
    totals = [a * (x & m).bit_count() + b * (y & m).bit_count() for m in members]
    for rows, mask in pools:
        w = r * rows
        totals = [t + w * (mask & m).bit_count() for t, m in zip(totals, members)]
    if pooled:
        for disk, at in enumerate(layout.position_masks):
            if disk not in failed:
                totals[disk] += r * sum(
                    rows * (mask & at[pos]).bit_count() for (rows, pos), mask in pooled.items()
                )
    if rec:
        rec.add("layout.plan_memo_misses", misses)
        rec.add("layout.plan_memo_hits", len(affected) - misses)
    return totals


def survivor_reads(layout: DeclusteredLayout, failed: frozenset[int], affected) -> dict[int, int]:
    """Entries read from each surviving disk to rebuild the `losses` groups:
    `_tally`'s per-disk counts, through the group's memo of plans."""
    reads = dict(enumerate(_tally(layout, failed, affected)))
    for disk in failed:
        del reads[disk]
    return reads


def build_layout(group: ParityGroup, design: Design) -> DeclusteredLayout:
    """Instantiate the group once per block, columns on sorted block elements."""
    layout = DeclusteredLayout(n=design.n, design=design, group=group, placements=design.blocks)
    if design.t != group.delta + 1:
        raise MismatchError(
            f"group with delta={group.delta} needs a design of strength "
            f"{group.delta + 1}, got t={design.t}"
        )
    return layout


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
    n, params = layout.n, layout.design.params
    placements = tuple(
        tuple((d + shift) % n for d in placement)
        for shift in range(n) for placement in layout.placements
    )
    design = validate_design(placements, t=params.t, n=n, k=params.k, lam=params.lam * n)
    return DeclusteredLayout(n, design, layout.group, placements)


def layout_geometry(layout: DeclusteredLayout) -> LayoutGeometry:
    """Tally units per disk and derive the exact data/parity disk counts."""
    group = layout.group
    parity_per_column = group.parity_per_column
    unit_counts = list(map(len, layout.stacks))
    # Per position, the column's parity entries times the placements putting it on the disk.
    parity_counts = [
        sum(map(mul, parity_per_column, map(int.bit_count, masks)))
        for masks in layout.position_masks
    ]
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
    """A group descriptor's code and family name; the family is not built.

    A parameter over MAX_COVERAGE_SUBSETS is refused before the code tests an
    rdp p by sqrt(p) divisions. No such code fits a design validate_design
    accepts: a fitting code's parameters are at most n, and n <= C(n,t) unless
    t = n, which only an rs code with k = n <= 255 fits.
    """
    kind = obj.get("code") if isinstance(obj, dict) else None
    # Tuple membership compares without hashing: a list kind is unhashable.
    make, names = CODE_KINDS[kind] if kind in tuple(CODE_KINDS) else (None, ())
    fields = {"code": tuple(CODE_KINDS), **dict.fromkeys(names, INT), "family": tuple(FAMILIES)}
    check_fields("group descriptor", obj, fields, optional=("family",))
    try:
        for name in names:
            check_budget(name, obj[name], "as a code parameter")
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
    return dump_json(payload)


def deserialize_layout(text) -> DeclusteredLayout:
    """Parse layout JSON and revalidate every invariant.

    Structural problems (bad JSON, missing fields) raise FormatError; semantic
    violations (invalid design, a group that does not fit it, checked before
    its family is built, or the layout's own invariants) raise InvariantError.
    """
    obj = parse_json(text, "layout file") if isinstance(text, (str, bytes)) else text
    check_fields("layout", obj, LAYOUT_JSON_FIELDS)
    try:
        design = design_from_json(obj["design"])
    except FormatError:
        raise
    except DeclustrError as exc:
        raise InvariantError(f"embedded design is invalid: {exc}") from exc
    code, family = _code_from_descriptor(obj["group"])
    if code.k != design.k or design.t != code.delta + 1:
        raise InvariantError(
            f"group (k={code.k}, delta={code.delta}) does not fit a "
            f"{design.t}-({design.n},{design.k},{design.lam}) design"
        )
    # As tuples, so a refusal names a placement as the design loader names a block.
    placements = tuple(map(tuple, obj["placements"]))
    return DeclusteredLayout(obj["n"], design, group_family(code, family), placements)
