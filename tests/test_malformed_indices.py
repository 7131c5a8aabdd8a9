"""A seeded fuzz of malformed indices.

Every entry point that takes lost positions, erased columns, failed disks,
unit coordinates, blocks or placements is fed a float, bool, None, str,
negative or too-large one among valid ints, and must refuse it with a
DeclustrError: no TypeError or IndexError may escape. Failed disks also
meet list, dict and set entries, and lost positions list and set entries or
a list for the tuple; none of them can be hashed. A failure set or erasure
list that is no iterable at all is refused too. Each case builds its
group afresh, so reconstruction_plan meets every lost tuple on a memo miss;
lost tuples equal to a planned one are also fed to a warm memo.
"""

import random

import pytest

from declustr import (
    DeclusteredLayout,
    DeclustrError,
    ParamError,
    build_layout,
    complete_design,
    counterexample_report,
    fail_and_reconstruct,
    group_family,
    hadamard_3design,
    materialize,
    rdp_code,
    reconstruction_plan,
    reconstruction_workload,
    rs_code,
    unit_provenance,
    validate_design,
)

SEEDS = range(64)


def _bad(rng, size):
    """A value that is no index in 0..size-1, of a random kind."""
    return rng.choice((
        float(rng.randrange(size)),
        rng.random() < 0.5,
        None,
        str(rng.randrange(size)),
        -1 - rng.randrange(3),
        size + rng.randrange(3),
    ))


def _among_valid(rng, bad, size, count):
    """count values: bad at a random place among distinct ints in 0..size-1
    that differ from it, so a set cannot fold bad into a valid one."""
    values = rng.sample([i for i in range(size) if i != bad], count - 1)
    values.insert(rng.randrange(count), bad)
    return values


def _calls(rng):
    """(what, call) pairs, each call given one malformed index."""
    code, design = rng.choice((
        (rs_code(4, 2), complete_design(6, 4, 3)),
        (rdp_code(3), hadamard_3design(8)),
    ))
    group = group_family(code, rng.choice(("full", "single")))
    layout = build_layout(group, design)
    n, k, p = layout.n, group.k, design.params
    count = rng.randint(1, group.delta)

    lost = tuple(_among_valid(rng, _bad(rng, k), k, count))
    yield f"lost positions {lost}", lambda: reconstruction_plan(group, lost)

    rows = code.encode([[rng.randrange(256) for _ in range(code.k - code.delta)]
                        for _ in range(code.r)])
    erased = tuple(_among_valid(rng, _bad(rng, k), k, count))
    yield f"erased columns {erased}", lambda: code.decode(rows, erased)

    failed = _among_valid(rng, _bad(rng, n), n, count)
    yield f"workload failed {failed}", lambda: reconstruction_workload(layout, failed)
    array = materialize(layout, seed=rng.randrange(100))
    yield f"rebuild failed {failed}", lambda: fail_and_reconstruct(array, failed)

    disk, offset = rng.randrange(n), rng.randrange(layout.rows_per_disk)
    if rng.random() < 0.5:
        disk = _bad(rng, n)
    else:
        offset = _bad(rng, layout.rows_per_disk)
    yield f"provenance {disk}, {offset}", lambda: unit_provenance(layout, disk, offset)

    blocks = [list(block) for block in design.blocks]
    placements = [list(placement) for placement in layout.placements]
    for rows_of in (blocks, placements):
        i = rng.randrange(len(rows_of))
        if rng.random() < 0.5:
            rows_of[i] = _bad(rng, n)
        else:
            rows_of[i][rng.randrange(k)] = _bad(rng, n)
    yield f"blocks {blocks}", lambda: validate_design(blocks, p.t, p.n, p.k, p.lam)
    yield f"placements {placements}", lambda: DeclusteredLayout(n, design, group, placements)


@pytest.mark.parametrize("seed", SEEDS, ids=[f"seed={seed}" for seed in SEEDS])
def test_malformed_indices_are_refused_with_declustr_errors(seed):
    for what, call in _calls(random.Random(seed)):
        try:
            call()
        except DeclustrError:
            continue
        except Exception as exc:  # any other escape is the failure being looked for
            pytest.fail(f"seed={seed}: {what} escaped as {type(exc).__name__}: {exc}")
        pytest.fail(f"seed={seed}: {what} was accepted")


UNHASHABLE = {"list": lambda rng: [rng.randrange(6)], "dict": lambda rng: {}, "set": lambda rng: {0}}
UNHASHABLE_CASES = [(seed, kind) for seed in range(4) for kind in UNHASHABLE]


@pytest.mark.parametrize(
    "seed,kind", UNHASHABLE_CASES, ids=[f"seed={seed}-{kind}" for seed, kind in UNHASHABLE_CASES]
)
def test_unhashable_failed_disks_are_refused_by_name(seed, kind):
    # A failure set is hashed only after its entries are checked, so a list,
    # dict or set entry is named in a ParamError instead of leaking TypeError.
    rng = random.Random(seed)
    group = group_family(rs_code(4, 2), rng.choice(("full", "single")))
    layout = build_layout(group, complete_design(6, 4, 3))
    bad = UNHASHABLE[kind](rng)
    failed = _among_valid(rng, bad, layout.n, rng.randint(1, group.delta))
    # The valid disks in order, then the one non-disk.
    disks = sorted(d for d in failed if d is not bad)
    message = f"failed disks must be in 0..5, got {disks + [bad]}"
    calls = (
        lambda: reconstruction_workload(layout, failed),
        lambda: fail_and_reconstruct(materialize(layout, seed=seed), failed),
        lambda: counterexample_report(group, layout.design, failed),
    )
    for call in calls:
        with pytest.raises(ParamError) as caught:
            call()
        assert str(caught.value) == message, f"seed={seed}"


UNHASHABLE_LOST = {
    "list-entry": lambda rng, k: tuple(_among_valid(rng, [rng.randrange(k)], k, 2)),
    "set-entry": lambda rng, k: tuple(_among_valid(rng, {rng.randrange(k)}, k, 2)),
    "list": lambda rng, k: sorted(rng.sample(range(k), rng.randint(1, 2))),
}
UNHASHABLE_LOST_CASES = [(seed, kind) for seed in range(4) for kind in UNHASHABLE_LOST]


@pytest.mark.parametrize(
    "seed,kind",
    UNHASHABLE_LOST_CASES,
    ids=[f"seed={seed}-{kind}" for seed, kind in UNHASHABLE_LOST_CASES],
)
def test_unhashable_lost_positions_are_refused_by_name(seed, kind):
    # The plan memo hashes its key first, so a list, or a tuple holding a
    # list or set, must be refused as malformed, warm memo or cold.
    rng = random.Random(seed)
    group = group_family(rs_code(4, 2), rng.choice(("full", "single")))
    lost = UNHASHABLE_LOST[kind](rng, group.k)
    message = f"lost positions must be sorted and distinct in 0..3, got {lost}"
    for warm in (False, True):
        if warm:
            reconstruction_plan(group, (0, 1))
        with pytest.raises(ParamError) as caught:
            reconstruction_plan(group, lost)
        assert str(caught.value) == message, f"seed={seed}"


EQUAL_TO_VALID = [(True,), (1.0,), (False, 1), (0, 1.0), (0.0, True)]


@pytest.mark.parametrize("lost", EQUAL_TO_VALID, ids=[repr(lost) for lost in EQUAL_TO_VALID])
def test_lost_positions_equal_to_a_planned_tuple_are_refused_warm_or_cold(lost):
    # (True,) and (1.0,) equal (1,) and hash like it, so a memo hit would
    # hand them (1,)'s plan: the entries are checked on a hit too.
    group = group_family(rs_code(4, 2), "full")
    valid = tuple(map(int, lost))
    message = f"lost positions must be sorted and distinct in 0..3, got {lost}"
    for warm in (False, True):
        if warm:
            assert reconstruction_plan(group, valid) is reconstruction_plan(group, valid)
        with pytest.raises(ParamError) as caught:
            reconstruction_plan(group, lost)
        assert str(caught.value) == message


NOT_ITERABLE = [5, None, 2.5, True]


@pytest.mark.parametrize("value", NOT_ITERABLE, ids=repr)
def test_non_iterable_failure_sets_and_erasures_are_refused(value):
    # tuple() of a non-iterable raises TypeError; each entry point names it instead.
    code = rs_code(4, 2)
    group = group_family(code, "full")
    layout = build_layout(group, complete_design(6, 4, 3))
    rows = code.encode([[1, 2]])
    calls = (
        lambda: fail_and_reconstruct(materialize(layout, seed=1), value),
        lambda: reconstruction_workload(layout, value),
        lambda: counterexample_report(group, layout.design, value),
        lambda: code.decode(rows, value),
        lambda: validate_design(value, 3, 8, 4, 1),
    )
    for call in calls:
        with pytest.raises(ParamError, match="must be an iterable"):
            call()
