"""Seeded fuzzers for the design and layout loaders.

Valid files are mutated field by field, one to three fields at a time, to
values of every JSON kind. A loader may refuse a mutant only with a
DeclustrError (the CLI's exit 1), and whatever it accepts must serialize back
to exactly the object it was given.

The loaders decide with C-level passes and walk the blocks one by one only
to name the first offender. Targeted mutants of blocks and placements must
end exactly as the per-block loops that used to decide end, kept here as the
reference: the same result, or the same exception type and message.
"""

import copy
import json
import random
import warnings
from itertools import combinations
from math import comb

import pytest
from conftest import BIBD_BLOCKS_2_5_4_3, REFERENCE_BLOCKS_3_8_4_1
from constructions import orbit_design, witt_4_5_11, witt_5_6_12
from test_closed_form import CASES

from declustr import (
    BlockSizeError,
    CoverageError,
    DeclusteredLayout,
    DeclustrError,
    Design,
    DesignParams,
    FormatError,
    InvariantError,
    MismatchError,
    build_layout,
    complete_design,
    design_from_json,
    design_to_json,
    deserialize_layout,
    group_family,
    hadamard_3design,
    rdp_code,
    reduce_design,
    rotate_layout,
    rs_code,
    serialize_layout,
)
from declustr import designs
from declustr.designs import check_budget

REPLACEMENTS = (
    None, True, False, 0.0, 3.0, 2.5, "", "3", "rdp", [], [0, 1], [[0]], {}, {"p": 3},
    -1, 0, 10**30,
)


def _paths(obj, prefix=()):
    """The path of every field and list item below obj, depth first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _mutants(obj, rng, count):
    """count copies of obj, each with one to three fields replaced.

    Fields are drawn by kind first (list indices ignored), so the few scalar
    fields are hit as often as the many block and placement entries.
    """
    kinds = {}
    for path in _paths(obj):
        kind = (len(path), *(key for key in path if isinstance(key, str)))
        kinds.setdefault(kind, []).append(path)
    kinds = list(kinds.values())
    for _ in range(count):
        mutant = copy.deepcopy(obj)
        changed = []
        for _ in range(rng.randint(1, 3)):
            path = rng.choice(rng.choice(kinds))
            # Fields nested in one another are not both replaced.
            if any(done[: len(path)] == path[: len(done)] for done, _ in changed):
                continue
            parent = mutant
            for key in path[:-1]:
                parent = parent[key]
            value = copy.deepcopy(rng.choice(REPLACEMENTS))
            parent[path[-1]] = value
            changed.append((path, value))
        yield mutant, changed


def _load(loader, obj, changed):
    """loader(obj), or None if it refused with a DeclustrError."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return loader(obj)
    except DeclustrError:
        return None
    except Exception as exc:  # any other escape is the failure being looked for
        pytest.fail(f"{changed} escaped as {type(exc).__name__}: {exc}")


def _layouts():
    """One layout per code and family kind: rdp full and single, rs rotations, rotated."""
    hadamard = hadamard_3design(8)
    rs_single = build_layout(group_family(rs_code(4, 1), "single"), complete_design(5, 4, 2))
    return [
        build_layout(group_family(rdp_code(3), "full"), hadamard),
        build_layout(group_family(rs_code(4, 2), "rotations"), complete_design(6, 4, 3)),
        rotate_layout(rs_single),
        build_layout(group_family(rdp_code(3), "single"), hadamard),
    ]


@pytest.mark.parametrize(
    "design",
    [hadamard_3design(8), complete_design(6, 4, 3), complete_design(5, 4, 2)],
    ids=["hadamard8", "complete643", "complete542"],
)
def test_design_loader_refuses_mutants_with_declustr_errors(design):
    rng = random.Random(f"design {design.params}")
    valid = design_to_json(design)
    assert design_from_json(valid) == design
    accepted = 0
    for mutant, changed in _mutants(valid, rng, 1000):
        loaded = _load(design_from_json, mutant, changed)
        if loaded is not None:
            accepted += 1
            assert design_to_json(loaded) == mutant, changed
    assert accepted < 1000


@pytest.mark.parametrize("index", range(4))
def test_layout_loader_refuses_mutants_with_declustr_errors(index):
    layout = _layouts()[index]
    rng = random.Random(f"layout {index}")
    valid = json.loads(serialize_layout(layout))
    assert deserialize_layout(valid) == layout
    for mutant, changed in _mutants(valid, rng, 1000):
        loaded = _load(deserialize_layout, mutant, changed)
        if loaded is not None:
            assert json.loads(serialize_layout(loaded)) == mutant, changed


def test_layout_loader_refuses_damaged_text():
    text = serialize_layout(_layouts()[1]).encode()
    rng = random.Random("layout text")
    for _ in range(300):
        cut = rng.randrange(len(text))
        damaged = bytearray(text[:cut] if rng.random() < 0.5 else text)
        for _ in range(rng.randint(1, 3)):
            if damaged:
                damaged[rng.randrange(len(damaged))] = rng.randrange(256)
        loaded = _load(deserialize_layout, bytes(damaged), f"bytes {bytes(damaged)[:40]!r}")
        if loaded is not None:
            assert deserialize_layout(serialize_layout(loaded)) == loaded


def test_torn_overwrite_is_refused_or_loads_as_old_or_new():
    # --out writes in place and calls no fsync, so after a crash the file may
    # hold any mix of old and new pages, cut at either length, with zeros
    # where a page of neither was written. Pages of 64 bytes cover every
    # coarser power-of-two page size.
    old_layout, new_layout = _layouts()[1], _layouts()[0]
    old, new = serialize_layout(old_layout).encode(), serialize_layout(new_layout).encode()
    assert len(new) < len(old)
    size, page = len(old), 64
    pages = {"old": old, "new": new.ljust(size, b"\0"), "hole": bytes(size)}
    rng = random.Random("torn")
    torn = [old[: len(new)], new + old[len(new):]]
    torn += [new[:cut] + old[cut:] for cut in rng.sample(range(len(new)), 100)]
    for _ in range(200):
        mix = b"".join(
            pages[rng.choice(("old", "new", "hole"))][at : at + page]
            for at in range(0, size, page)
        )
        torn.append(mix[: rng.choice((len(old), len(new)))])
    for text in torn:
        loaded = _load(deserialize_layout, text, f"torn text {text[:40]!r}")
        assert loaded in (None, old_layout, new_layout), text


# ------------------------------------------------ refusals match the loops

# The per-block loops validate_design, check_fields and DeclusteredLayout ran
# before their C-level passes decided. They are the reference: whatever the
# passes accept or refuse, the loaders must end as these loops end, with the
# same exception type and message for the first offender. A row that is not
# iterable, or a placement whose points do not sort together, is refused like
# any other bad entry, not with a TypeError.


def reference_validate_design(blocks, t, n, k, lam):
    params = DesignParams(t=t, n=n, k=k, lam=lam)
    check_budget(f"validating C({n},{t})", comb(n, t), f"{t}-subsets")
    normalized = []
    for block in blocks:
        try:
            block = tuple(block)
        except TypeError:
            raise BlockSizeError(f"block {block} is not a {k}-subset") from None
        if any(type(x) is not int or not 0 <= x < n for x in block):
            raise BlockSizeError(f"block {block} has points that are not ints in 0..{n - 1}")
        members = tuple(sorted(block))
        if len(members) != k or len(set(members)) != k:
            raise BlockSizeError(f"block {block} is not a {k}-subset")
        normalized.append(members)
    counts = {}
    for members in normalized:
        for subset in combinations(members, t):
            counts[subset] = counts.get(subset, 0) + 1
    for subset in combinations(range(n), t):
        found = counts.get(subset, 0)
        if found != lam:
            raise CoverageError(subset, found, lam)
    return Design(params=params, blocks=tuple(normalized))


def reference_misfits(value, kind):
    if kind is designs.INT:
        return [] if type(value) is int else [value]
    if kind is designs.INT_LISTS:
        if not isinstance(value, list):
            return [value]
        return [v for v in value if not isinstance(v, list) or any(type(x) is not int for x in v)]
    return [] if value in kind else [value]


def reference_post_init(self):
    design, group = self.design, self.group
    if type(self.n) is not int or self.n != design.n:
        raise InvariantError(f"layout n={self.n} but design has n={design.n}")
    if group.k != design.k:
        raise MismatchError(
            f"group size k={group.k} does not match design block size k={design.k}"
        )
    if len(self.placements) != len(design.blocks):
        raise InvariantError(f"{len(self.placements)} placements for {len(design.blocks)} blocks")
    if self.placements is not design.blocks:
        for index, (disks, block) in enumerate(zip(self.placements, design.blocks)):
            try:
                matches = tuple(sorted(disks)) == block and all(type(d) is int for d in disks)
            except TypeError:  # not iterable, or points that do not sort together
                matches = False
            if not matches:
                raise InvariantError(f"placement {index} disks {disks} do not match block {block}")
    # Accepted placements are stored as int tuples, however they were given.
    object.__setattr__(self, "placements", tuple(map(tuple, self.placements)))


class Row(list):
    """A list subclass: the loaders take it as a list, like the loops did."""


def _outcome(call):
    """call()'s result, or the type and message of what it raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return call()
    except Exception as exc:
        return type(exc), str(exc)


def _both_outcomes(monkeypatch, call):
    """call()'s outcome as the package runs it and with the reference loops."""
    fast = _outcome(call)
    with monkeypatch.context() as patched:
        patched.setattr(designs, "validate_design", reference_validate_design)
        patched.setattr(designs, "_misfits", reference_misfits)
        patched.setattr(DeclusteredLayout, "__post_init__", reference_post_init)
        return fast, _outcome(call)


POINT_MUTATIONS = ("bool", "float", "str", "negative", "too big", "duplicate point",
                   "short", "long", "reorder", "list subclass", "not a list")
DESIGN_MUTATIONS = POINT_MUTATIONS + ("drop block", "duplicate block", "extra block", "lambda")
PLACEMENT_MUTATIONS = POINT_MUTATIONS + ("swap",)


def _mutate_rows(rows, kind, n, k, rng):
    """Apply one POINT_MUTATIONS kind, or "swap", to a random row of rows."""
    i = rng.randrange(len(rows))
    row = rows[i]
    if not isinstance(row, list):
        return
    j = rng.randrange(len(row)) if row else None
    if kind == "swap":
        other = rng.randrange(len(rows))
        rows[i], rows[other] = rows[other], rows[i]
    elif kind == "long":
        row.append(rng.randrange(n + 1))
    elif kind == "reorder":
        rng.shuffle(row)
    elif kind == "list subclass":
        rows[i] = Row(row)
    elif kind == "not a list":
        rows[i] = rng.choice((5, None))
    elif j is None:
        return
    elif kind == "short":
        del row[j]
    elif kind == "duplicate point":
        row[j] = row[(j + rng.randrange(1, k)) % len(row)] if len(row) > 1 else row[j]
    else:
        row[j] = {
            "bool": lambda x: rng.random() < 0.5,
            "float": float,
            "str": str,
            "negative": lambda x: -1 - rng.randrange(3),
            "too big": lambda x: n + rng.randrange(3),
        }[kind](row[j])


def _mutate_design(obj, kind, rng):
    n, k, blocks = obj["n"], obj["k"], obj["blocks"]
    if kind == "lambda":
        obj["lambda"] += rng.choice((-1, 1))
    elif kind == "drop block":
        del blocks[rng.randrange(len(blocks))]
    elif kind == "duplicate block":
        blocks.insert(rng.randrange(len(blocks) + 1), copy.copy(rng.choice(blocks)))
    elif kind == "extra block":
        blocks.insert(rng.randrange(len(blocks) + 1), sorted(rng.sample(range(n), k)))
    elif blocks:
        _mutate_rows(blocks, kind, n, k, rng)


@pytest.mark.parametrize(
    "design",
    [hadamard_3design(8), complete_design(6, 4, 3), complete_design(5, 4, 2), hadamard_3design(16)],
    ids=["hadamard8", "complete643", "complete542", "hadamard16"],
)
def test_design_refusals_match_the_per_block_loops(design, monkeypatch):
    rng = random.Random(f"refusals {design.params}")
    valid = design_to_json(design)
    refused = set()
    for _ in range(300):
        obj = copy.deepcopy(valid)
        kinds = [rng.choice(DESIGN_MUTATIONS) for _ in range(rng.randint(1, 3))]
        for kind in kinds:
            _mutate_design(obj, kind, rng)
        for call in (
            lambda: designs.validate_design(obj["blocks"], obj["t"], obj["n"], obj["k"], obj["lambda"]),
            lambda: design_from_json(obj),
        ):
            fast, reference = _both_outcomes(monkeypatch, call)
            assert fast == reference, kinds
            if isinstance(fast, tuple):
                refused.add(fast[0])
    assert {BlockSizeError, CoverageError, FormatError} <= refused


@pytest.mark.parametrize("index", range(4))
def test_layout_refusals_match_the_per_block_loops(index, monkeypatch):
    layout = _layouts()[index]
    n, k = layout.n, layout.group.k
    rng = random.Random(f"layout refusals {index}")
    valid = json.loads(serialize_layout(layout))
    refused = set()
    for _ in range(300):
        obj = copy.deepcopy(valid)
        kinds = []
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.3:
                kinds.append(rng.choice(DESIGN_MUTATIONS))
                _mutate_design(obj["design"], kinds[-1], rng)
            else:
                kinds.append(rng.choice(PLACEMENT_MUTATIONS))
                _mutate_rows(obj["placements"], kinds[-1], n, k, rng)
        placements = obj["placements"]
        for call in (
            lambda: deserialize_layout(obj),
            lambda: DeclusteredLayout(n, layout.design, layout.group, placements),
            lambda: DeclusteredLayout(n, layout.design, layout.group, tuple(map(tuple, placements))),
        ):
            fast, reference = _both_outcomes(monkeypatch, call)
            assert fast == reference, kinds
            if isinstance(fast, tuple):
                refused.add(fast[0])
    assert {FormatError, InvariantError} <= refused


def _tier1_designs():
    """Every valid design the other test modules build, by name."""
    found = {name.split("/")[1]: make() for name, (_, make, _) in CASES.items()}
    found["pgl(19) k=4"] = orbit_design(19, (0, 1, 2, 3))
    found["pgl(19) k=5"] = orbit_design(19, (0, 1, 3, 5, 6))
    found["witt 5-(12,6,1)"] = witt_5_6_12()
    found["witt 4-(11,5,1)"] = witt_4_5_11()
    found["reduced 2-(8,4,3)"] = reduce_design(hadamard_3design(8), 2)
    found["3-(8,4,1)"] = designs.validate_design(REFERENCE_BLOCKS_3_8_4_1, 3, 8, 4, 1)
    found["2-(5,4,3)"] = designs.validate_design(BIBD_BLOCKS_2_5_4_3, 2, 5, 4, 3)
    found["complete(9,6,4)"] = complete_design(9, 6, 4)
    found["complete(12,6,3)"] = complete_design(12, 6, 3)
    return found


def test_valid_designs_load_to_the_blocks_the_loops_normalize(monkeypatch):
    rng = random.Random("valid designs")
    for name, design in _tier1_designs().items():
        p = design.params
        shuffled = [rng.sample(block, len(block)) for block in design.blocks]
        for blocks in (design.blocks, shuffled, [Row(b) for b in shuffled]):
            fast, reference = _both_outcomes(
                monkeypatch, lambda: designs.validate_design(iter(blocks), p.t, p.n, p.k, p.lam)
            )
            assert fast == reference == design, name
        obj = {**design_to_json(design), "blocks": shuffled}
        fast, reference = _both_outcomes(monkeypatch, lambda: design_from_json(obj))
        assert fast == reference == design, name
