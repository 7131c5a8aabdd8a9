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
    """Per-placement walk: affected instances grouped by sorted lost
    positions, each tuple then keyed by its mask (bit p for position p)."""
    groups = {}
    for index, placement in enumerate(layout.placements):
        lost = tuple(pos for pos, disk in enumerate(placement) if disk in failed)
        if lost:
            groups.setdefault(lost, []).append(index)
    return {sum(1 << pos for pos in lost): tuple(indices) for lost, indices in groups.items()}


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


def test_a_query_plans_each_lost_tuple_once_and_tau_reads_the_memo(monkeypatch):
    layout = build_layout(group_family(rs_code(6, 2), "full"), complete_design(12, 6, 3))
    group = layout.group
    asked = {"tally": [], "tau": []}
    plan = parity_groups._plan

    def counting(name):
        def ask(group, mask):
            asked[name].append(mask)
            return plan(group, mask)
        return ask

    monkeypatch.setattr(layout_module, "_plan", counting("tally"))
    monkeypatch.setattr(parity_groups, "_plan", counting("tau"))
    # The tally reads the group's memo, so the first query of a set asks only
    # for the lost-position masks the group has not planned, each once; the
    # closed form the layout attaches per size asks tau for each size up to
    # it, and tau asks for every mask of its size: C(6,1), then C(6,1) +
    # C(6,2), then none.
    taus = {(3,): 6, (3, 8): 21, (0, 11): 0, (5,): 0}
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
    # A closed form asked for directly is not the layout's: tau asks again,
    # and each mask is a memo hit.
    assert closed_form_workload(layout.design.params, group, 1) == report.closed_form
    assert asked["tally"] == [] and len(asked["tau"]) == 6


def test_balance_tau_and_queries_build_each_plan_once(monkeypatch):
    layout = build_layout(group_family(rs_code(6, 2), "full"), complete_design(12, 6, 3))
    group = layout.group
    built = []
    make = parity_groups.ReconstructionPlan

    def counting(lost, *rest):
        built.append(sum(1 << pos for pos in lost))
        return make(lost, *rest)

    monkeypatch.setattr(parity_groups, "ReconstructionPlan", counting)
    report = verify_balance(group, group.delta)
    for s in range(1, group.delta + 1):
        assert tau(group, s) == report.taus[s]
    queries = [(3,), (3, 8), (0, 11), (5,)]
    first = [reconstruction_workload(layout, failed) for failed in queries]
    assert all(query.closed_form is not None for query in first)
    assert [reconstruction_workload(layout, failed) for failed in queries] == first
    # verify_balance plans every set of 1..delta lost positions; nothing after
    # it builds a plan, so each (group, lost mask) plan is built exactly once.
    every = [sum(1 << pos for pos in lost)
             for s in range(1, group.delta + 1) for lost in combinations(range(group.k), s)]
    assert sorted(built) == sorted(every) == sorted(group._plans)


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


@pytest.mark.parametrize("family", ["full", "rotations"])
def test_no_split_sorts(family, monkeypatch):
    layout = build_layout(group_family(rs_code(5, 3), family), complete_design(7, 5, 4))
    sorts = []

    def counting(items):
        sorts.append(1)
        return sorted(items)

    monkeypatch.setattr(layout_module, "sorted", counting, raising=False)
    sets = [frozenset(failed) for s in (1, 2, 3) for failed in combinations(range(layout.n), s)]
    # A split keys each group it extends by ORing in a position's bit, so the
    # one sort is losses' ordering of each failure set, cold and warm alike.
    cold = [losses(layout, failed) for failed in sets]
    assert len(sorts) == len(sets)
    sorts.clear()
    warm = [losses(layout, failed) for failed in sets]
    assert warm == cold
    assert len(sorts) == len(sets)
    # The sweep's depth-first walk sorts nothing.
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
    assert layout._closed_forms == {2: 88}
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert serialize_layout(layout) == before
    unused = build_layout(fresh, design)
    assert not unused._closed_forms
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


@pytest.mark.parametrize("lost", [(1, 0), (0, 0), (4,), (-1,), (True,), (1.0,), [0], ((0,),), ""])
def test_plan_rejects_malformed_lost_tuples(lost):
    # Refused on a cold memo and again once (0,) and (1,) are planned:
    # (True,) and (1.0,) are equal as keys to (1,), and none is looked up.
    group = group_family(rdp_code(3), "full")
    with pytest.raises(ParamError):
        reconstruction_plan(group, lost)
    reconstruction_plan(group, (0,)), reconstruction_plan(group, (1,))
    with pytest.raises(ParamError):
        reconstruction_plan(group, lost)


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
