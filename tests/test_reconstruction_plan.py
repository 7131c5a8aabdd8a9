"""The memoized per-group reconstruction plan and the consumers that share it."""

import random
import sys
import threading
import tracemalloc
from itertools import combinations

import pytest

import declustr.analysis as analysis_module
import declustr.layout as layout_module
import declustr.parity_groups as parity_groups
from declustr import (
    DATA,
    build_layout,
    closed_form_workload,
    complete_design,
    counterexample_report,
    exhaustive_verify,
    fail_and_reconstruct,
    group_family,
    hadamard_3design,
    materialize,
    rdp_code,
    reconstruction_rule,
    reconstruction_workload,
    reduce_design,
    rs_code,
    serialize_layout,
    SetResult,
    tau,
    validate_design,
    verify_balance,
)
from declustr.errors import ParamError
from declustr.layout import losses, placement_indices
from declustr.parity_groups import reconstruction_plan


def naive_reads(layout, failed):
    """Per-instance, per-extended-row walk of the rule: entries and units read."""
    group = layout.group
    entries = {d: 0 for d in range(layout.n) if d not in failed}
    units = dict.fromkeys(entries, 0)
    for placement in layout.placements:
        lost = [pos for pos, disk in enumerate(placement) if disk in failed]
        if not lost:
            continue
        touched = set()
        for row in group.extended_rows:
            need = reconstruction_rule(group.delta, [row[pos] for pos in lost])
            for pos, disk in enumerate(placement):
                if disk not in failed and row[pos] in need:
                    entries[disk] += group.r
                    touched.add(disk)
        for disk in touched:
            units[disk] += 1
    return entries, units


def relabeled(rng, design):
    """The same design under a random point relabeling and block order."""
    points = list(range(design.n))
    rng.shuffle(points)
    blocks = [tuple(points[x] for x in block) for block in design.blocks]
    rng.shuffle(blocks)
    p = design.params
    return validate_design(blocks, p.t, p.n, p.k, p.lam)


# (code, design) pairs with t = delta + 1 over small complete and Hadamard
# designs, small enough to try every failure set of size <= delta.
CASES = {
    "rdp3/hadamard(8)": (lambda: rdp_code(3), lambda: hadamard_3design(8)),
    "rdp3/complete(6,4,3)": (lambda: rdp_code(3), lambda: complete_design(6, 4, 3)),
    "rdp5/complete(7,6,3)": (lambda: rdp_code(5), lambda: complete_design(7, 6, 3)),
    "rs(3,1)/complete(5,3,2)": (lambda: rs_code(3, 1), lambda: complete_design(5, 3, 2)),
    "rs(4,1)/hadamard(8)": (
        lambda: rs_code(4, 1), lambda: reduce_design(hadamard_3design(8), 2)
    ),
    "rs(4,2)/hadamard(8)": (lambda: rs_code(4, 2), lambda: hadamard_3design(8)),
    "rs(5,2)/complete(6,5,3)": (lambda: rs_code(5, 2), lambda: complete_design(6, 5, 3)),
    "rs(4,3)/complete(5,4,4)": (lambda: rs_code(4, 3), lambda: complete_design(5, 4, 4)),
    "rs(5,3)/complete(6,5,4)": (lambda: rs_code(5, 3), lambda: complete_design(6, 5, 4)),
}


@pytest.mark.parametrize("family", ["full", "single", "rotations"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_plan_consumers_match_a_naive_rule_walk(name, family):
    rng = random.Random(f"{name}/{family}")
    make_code, make_design = CASES[name]
    code = make_code()
    group = group_family(code, family)
    design = relabeled(rng, make_design())
    layout = build_layout(group, design)
    array = materialize(layout, rng.randrange(1, 1 << 16))
    for s in range(code.delta + 1):
        for failed in combinations(range(layout.n), s):
            entries, units = naive_reads(layout, failed)
            assert reconstruction_workload(layout, failed).reads == entries, failed
            report = counterexample_report(group, design, failed)
            assert report.entries_read == entries, failed
            assert report.units_accessed == units, failed
            rebuilt, stats = fail_and_reconstruct(array, failed)
            assert stats.reads == entries, failed
            assert all(rebuilt.disks[d] == array.disks[d] for d in failed), failed


def walked_losses(layout, failed):
    """Per-placement walk: affected instances grouped by sorted lost positions."""
    groups = {}
    for index, placement in enumerate(layout.placements):
        lost = tuple(pos for pos, disk in enumerate(placement) if disk in failed)
        if lost:
            groups.setdefault(lost, []).append(index)
    return {lost: tuple(indices) for lost, indices in groups.items()}


@pytest.mark.parametrize("family", ["full", "single", "rotations"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_grouped_losses_match_a_per_placement_walk(name, family):
    rng = random.Random(f"losses/{name}/{family}")
    make_code, make_design = CASES[name]
    code = make_code()
    layout = build_layout(group_family(code, family), relabeled(rng, make_design()))
    for s in range(code.delta + 1):
        for failed in combinations(range(layout.n), s):
            grouped = {
                lost: tuple(placement_indices(layout, mask))
                for lost, mask in losses(layout, frozenset(failed)).items()
            }
            assert grouped == walked_losses(layout, failed), failed


def test_a_query_plans_each_lost_tuple_once_and_tau_once_per_size(monkeypatch):
    layout = build_layout(group_family(rs_code(6, 2), "full"), complete_design(12, 6, 3))
    group = layout.group
    asked = {"tally": [], "tau": []}
    plan = parity_groups.reconstruction_plan

    def counting(name):
        def ask(group, lost):
            asked[name].append(lost)
            return plan(group, lost)
        return ask

    monkeypatch.setattr(layout_module, "reconstruction_plan", counting("tally"))
    monkeypatch.setattr(parity_groups, "reconstruction_plan", counting("tau"))
    # The tally reads the group's memo, so the first query of a set asks only
    # for the lost tuples the group has not planned, each once; the attached
    # closed form enumerates tau's sizes once: C(6,1), then C(6,2), then none.
    taus = {(3,): 6, (3, 8): 15, (0, 11): 0, (5,): 0}
    for failed, tau_asks in taus.items():
        unplanned = set(losses(layout, frozenset(failed))) - group._plans.keys()
        report = reconstruction_workload(layout, failed)
        assert report.closed_form is not None
        assert sorted(asked["tally"]) == sorted(unplanned), failed
        assert len(asked["tau"]) == tau_asks, failed
        # A repeat of the query asks nothing.
        asked["tally"].clear(), asked["tau"].clear()
        assert reconstruction_workload(layout, failed) == report
        assert asked == {"tally": [], "tau": []}, failed
    assert closed_form_workload(layout.design.params, group, 1) == report.closed_form
    assert asked == {"tally": [], "tau": []}


def test_a_second_query_of_a_size_makes_no_count_lambda_call(monkeypatch):
    layout = build_layout(group_family(rs_code(6, 2), "full"), complete_design(12, 6, 3))
    calls = []
    count_lambda = analysis_module.count_lambda

    def counting(*args):
        calls.append(args)
        return count_lambda(*args)

    monkeypatch.setattr(analysis_module, "count_lambda", counting)
    monkeypatch.setattr(layout_module, "count_lambda", counting)
    for first, second in [((3,), (5,)), ((3, 8), (0, 11))]:
        calls.clear()
        report = reconstruction_workload(layout, first)
        assert report.closed_form is not None and calls
        calls.clear()
        again = reconstruction_workload(layout, second)
        assert again.closed_form == report.closed_form
        assert calls == []


def split_pairs(layout, sets):
    """The (lost tuple, position) pairs that splitting each failure set's
    groups, one failed disk at a time in ascending order, extends: a
    per-placement walk."""
    pairs = set()
    for failed in sets:
        for placement in layout.placements:
            lost = ()
            for disk in sorted(failed):
                if disk in placement:
                    pos = placement.index(disk)
                    pairs.add((lost, pos))
                    lost = tuple(sorted((*lost, pos)))
    return pairs


@pytest.mark.parametrize("family", ["full", "rotations"])
def test_a_warm_split_builds_no_new_tuple(family, monkeypatch):
    layout = build_layout(group_family(rs_code(5, 3), family), complete_design(7, 5, 4))
    sorts = []

    def counting(items):
        sorts.append(1)
        return sorted(items)

    monkeypatch.setattr(layout_module, "sorted", counting, raising=False)
    memo = layout.group._splits
    sets = [frozenset(failed) for s in (1, 2, 3) for failed in combinations(range(layout.n), s)]
    cold = [losses(layout, failed) for failed in sets]
    # One sort per failure set (losses orders it) and one per memo miss: each
    # distinct (lost tuple, position) pair is extended once.
    filled = {
        (lost, pos) for lost, extended in memo.items() for pos, key in enumerate(extended) if key
    }
    assert filled == split_pairs(layout, sets)
    assert len(sorts) == len(sets) + len(filled)
    sorts.clear()
    entries = {id(key) for extended in memo.values() for key in extended if key}
    warm = [losses(layout, failed) for failed in sets]
    assert warm == cold
    assert len(sorts) == len(sets)
    assert all(id(lost) in entries for groups in warm for lost in groups)
    # The sweep's depth-first walk shares the memo and misses nothing.
    assert exhaustive_verify(layout, 3, seed=2).passed == 35
    assert len(sorts) == len(sets)


def test_rule_calls_depend_on_lost_tuples_not_blocks(monkeypatch):
    layout = build_layout(group_family(rs_code(6, 2), "full"), complete_design(12, 6, 3))
    rows = len(layout.group.extended_rows)
    assert rows == 30
    calls = []
    rule = parity_groups.reconstruction_rule

    def counting(delta, lost):
        calls.append(tuple(lost))
        return rule(delta, lost)

    monkeypatch.setattr(parity_groups, "reconstruction_rule", counting)
    failed = (3, 8)
    affected = sum(1 for p in layout.placements if set(p) & set(failed))
    # The query plans the lost tuples its instances have, and the attached
    # closed form (tau_1, tau_2) the rest: at most C(6,1) + C(6,2) = 21.
    first = reconstruction_workload(layout, failed)
    assert first.closed_form is not None
    assert 0 < len(calls) == len(layout.group._plans) * rows <= 21 * rows < affected * rows
    planned, asked = dict(layout.group._plans), set(calls)
    calls.clear()
    assert reconstruction_workload(layout, failed) == first
    assert calls == []
    # The simulator reads the same memo, so a rebuild plans nothing anew. Its
    # first read of a plan's erased columns re-asks the rule once per extended
    # row, each an ask already made and memoized; the second rebuild asks nothing.
    array = materialize(layout, 9)
    _, stats = fail_and_reconstruct(array, failed)
    assert stats.reads == first.reads
    assert layout.group._plans.keys() == planned.keys()
    assert all(layout.group._plans[lost] is plan for lost, plan in planned.items())
    assert len(calls) == len(losses(layout, frozenset(failed))) * rows
    assert set(calls) <= asked
    calls.clear()
    fail_and_reconstruct(array, failed)
    assert calls == []


def test_memo_takes_no_part_in_equality_hash_or_layout_json():
    design = hadamard_3design(8)
    fresh = group_family(rdp_code(3), "full")
    used = group_family(rdp_code(3), "full")
    layout = build_layout(used, design)
    before = serialize_layout(layout)
    tau(used, 2)
    verify_balance(used, 2)
    reconstruction_workload(layout, (1, 6))
    assert used._plans and not fresh._plans
    assert used._splits and not fresh._splits
    assert layout._closed_forms == {2: 88} and list(layout._first_splits) == [1]
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert serialize_layout(layout) == before
    unused = build_layout(fresh, design)
    assert not unused._closed_forms and not unused._first_splits
    assert unused == layout
    assert hash(unused) == hash(layout)
    assert repr(unused) == repr(layout)


def test_threads_filling_a_cold_memo_agree_with_a_serial_sweep():
    def layout():
        return build_layout(group_family(rdp_code(3), "rotations"), hadamard_3design(8))

    shared = layout()
    array = materialize(shared, 4)
    sets = list(combinations(range(shared.n), 2))
    results, errors = {}, []

    def rebuild(share):
        try:
            for failed in share:
                rebuilt, stats = fail_and_reconstruct(array, failed)
                counts = stats.reads.values()
                results[failed] = SetResult(
                    failed,
                    all(rebuilt.disks[d] == array.disks[d] for d in failed),
                    min(counts),
                    max(counts),
                )
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=rebuild, args=(sets[i::4],)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    serial = exhaustive_verify(layout(), 2, seed=4)
    assert tuple(results[failed] for failed in sets) == serial.results


def test_plan_reads_the_rule_columns_of_each_extended_row():
    group = group_family(rdp_code(3), "full")
    plan = reconstruction_plan(group, (0,))
    assert plan is reconstruction_plan(group, (0,))
    # Every survivor is read in 8 of the 12 extended rows: tau_1 = 2 * 8.
    assert plan.reads == {1: 8, 2: 8, 3: 8}
    assert tau(group, 1) == 16
    for row, columns, erased in zip(group.extended_rows, group.canonical_columns, plan.erased):
        # The given columns are exactly those of the survivors whose label the rule names.
        need = reconstruction_rule(group.delta, [row[0]])
        given = sorted(columns[pos] for pos in plan.reads if row[pos] in need)
        assert given == [c for c in range(group.k) if c not in erased]
        assert columns[0] in erased


@pytest.mark.parametrize("lost", [(1, 0), (0, 0), (4,), (-1,)])
def test_plan_rejects_malformed_lost_tuples(lost):
    with pytest.raises(ParamError):
        reconstruction_plan(group_family(rdp_code(3), "full"), lost)


def reference_plan(group, lost):
    """reads, by_rows and erased, walked one extended row at a time."""
    k, delta = group.k, group.delta
    erased = []
    reads = {pos: 0 for pos in range(k) if pos not in lost}
    for row in group.extended_rows:
        data = iter(range(k))
        columns = [next(data) if label == DATA else k - delta - 1 + int(label[1:]) for label in row]
        need = reconstruction_rule(delta, [row[pos] for pos in lost])
        read = [pos for pos in reads if row[pos] in need]
        for pos in read:
            reads[pos] += 1
        erased.append(tuple(c for c in range(k) if c not in {columns[pos] for pos in read}))
    by_rows = {}
    for pos, rows in reads.items():
        if rows:
            by_rows.setdefault(rows, []).append(pos)
    return reads, {n: tuple(p) for n, p in by_rows.items()}, tuple(erased)


@pytest.mark.parametrize(
    "code",
    [rs_code(4, 1), rs_code(5, 2), rs_code(5, 3), rdp_code(3), rdp_code(5)],
    ids=["rs4-1", "rs5-2", "rs5-3", "rdp3", "rdp5"],
)
def test_plans_match_a_row_by_row_reference(code):
    rng = random.Random(f"plan-oracle-{code}")
    groups = [group_family(code, family) for family in parity_groups.FAMILIES]
    full = groups[0].extended_rows
    for _ in range(6):
        # Custom families: random subsets and reorderings of the full rows,
        # most of them unbalanced.
        rows = rng.sample(full, rng.randint(1, len(full)))
        groups.append(parity_groups.ParityGroup(code, tuple(rows)))
    for group in groups:
        for s in range(code.delta + 1):
            for lost in combinations(range(code.k), s):
                plan = reconstruction_plan(group, lost)
                reads, by_rows, erased = reference_plan(group, lost)
                assert list(plan.reads.items()) == list(reads.items()), lost
                assert plan.by_rows == by_rows, lost
                assert plan.erased == erased, lost


def test_plans_keep_no_per_row_tuple_until_erased_is_read():
    # Timing-free: the tracemalloc peak of building RS(10,3)'s full family
    # (720 extended rows) and checking its balance up to s=3, which plans
    # 175 lost tuples, with the rule memo warm. Keeping each plan's rule
    # answer per extended row peaked at 1,302 KiB; without it, 319 KiB.
    verify_balance(group_family(rs_code(10, 3), "full"), 3)
    tracemalloc.start()
    try:
        group = group_family(rs_code(10, 3), "full")
        report = verify_balance(group, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.balanced and len(group._plans) == 175
    assert peak <= 512 * 1024, peak // 1024
    # erased is derived on first read, one rule answer per extended row, and cached.
    plan = reconstruction_plan(group, (0, 4, 9))
    assert "erased" not in vars(plan)
    assert len(plan.erased) == 720 and plan.erased is plan.erased


def test_losing_nothing_plans_an_empty_need_per_extended_row():
    group = group_family(rs_code(4, 2), "full")
    plan = reconstruction_plan(group, ())
    assert plan.reads == {pos: 0 for pos in range(4)} and plan.by_rows == {}
    assert plan.erased == ((0, 1, 2, 3),) * 12
