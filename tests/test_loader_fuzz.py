"""Seeded fuzzers for the design and layout loaders.

Valid files are mutated field by field, one to three fields at a time, to
values of every JSON kind. A loader may refuse a mutant only with a
DeclustrError (the CLI's exit 1), and whatever it accepts must serialize back
to exactly the object it was given.
"""

import copy
import json
import random
import warnings

import pytest

from declustr import (
    DeclustrError,
    build_layout,
    complete_design,
    design_from_json,
    design_to_json,
    deserialize_layout,
    group_family,
    hadamard_3design,
    rdp_code,
    rotate_layout,
    rs_code,
    serialize_layout,
)

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
