"""Design validation, construction, and block counting."""

import time
from itertools import combinations
from math import comb

import pytest

from declustr import (
    Design,
    DesignParams,
    complete_design,
    count_lambda,
    design_from_json,
    design_to_json,
    hadamard_3design,
    is_self_complementary,
    reduce_design,
    validate_design,
)
from declustr import designs
from declustr.designs import MAX_COVERAGE_SUBSETS
from declustr.errors import BlockSizeError, CoverageError, FormatError, ParamError
from conftest import BIBD_BLOCKS_2_5_4_3, REFERENCE_BLOCKS_3_8_4_1


def count_by_enumeration(design, contain, avoid):
    """Independent oracle: blocks containing all of one set, none of the other."""
    contain, avoid = set(contain), set(avoid)
    return sum(
        1
        for block in design.blocks
        if contain <= set(block) and not avoid & set(block)
    )


# ------------------------------------------------------------- validation

def test_reference_design_is_valid(reference_design):
    assert reference_design.params == DesignParams(t=3, n=8, k=4, lam=1)
    assert len(reference_design.blocks) == 14


def test_bibd_is_valid(bibd_design):
    assert bibd_design.params == DesignParams(t=2, n=5, k=4, lam=3)
    assert len(bibd_design.blocks) == 5


def test_block_order_is_preserved(reference_design):
    assert reference_design.blocks == REFERENCE_BLOCKS_3_8_4_1


def test_deleting_a_block_breaks_coverage():
    damaged = [b for b in REFERENCE_BLOCKS_3_8_4_1 if b != (0, 1, 2, 3)]
    with pytest.raises(CoverageError) as excinfo:
        validate_design(damaged, t=3, n=8, k=4, lam=1)
    assert excinfo.value.subset == (0, 1, 2)
    assert excinfo.value.count == 0
    assert excinfo.value.expected == 1


def test_duplicating_a_block_breaks_coverage():
    damaged = list(REFERENCE_BLOCKS_3_8_4_1) + [(0, 1, 2, 3)]
    with pytest.raises(CoverageError):
        validate_design(damaged, t=3, n=8, k=4, lam=1)


@pytest.mark.parametrize(
    "block",
    # (0, True, 2, 3) covers like (0, 1, 2, 3), but True is no point; a
    # string among ints cannot even be sorted.
    [
        (0, 1, 2), (0, 1, 2, 3, 4), (0, 1, 2, 2), (0, 1, 2, 8), (-1, 0, 1, 2), (0, True, 2, 3),
        (0, "a", 2, 3), (0, 1.0, 2, 3),
    ],
)
def test_bad_blocks_rejected(block):
    blocks = [block] + list(REFERENCE_BLOCKS_3_8_4_1[1:])
    with pytest.raises(BlockSizeError):
        validate_design(blocks, t=3, n=8, k=4, lam=1)


@pytest.mark.parametrize(
    "t,n,k,lam",
    [
        (0, 8, 4, 1),  # strength out of range
        (5, 8, 4, 1),  # t > k
        (3, 3, 4, 1),  # k > n
        (3, 8, 4, 0),  # lambda < 1
        (2, 5, 4, 1),  # block count 10/6 is not an integer
        (True, 8, 4, 1),  # sizes must be ints, not bools or floats
        (3, 8.0, 4, 1),
        (3, 8, 4.0, 1),
        (3, 8, 4, True),
    ],
)
def test_bad_params_rejected(t, n, k, lam):
    with pytest.raises(ParamError):
        DesignParams(t=t, n=n, k=k, lam=lam)


def test_too_many_coverage_subsets_refused_from_the_count():
    assert comb(182, 3) <= MAX_COVERAGE_SUBSETS < comb(200, 3)
    with pytest.raises(ParamError, match=r"C\(200,3\) = 1313400 3-subsets"):
        validate_design(REFERENCE_BLOCKS_3_8_4_1, t=3, n=200, k=4, lam=1)
    # Within the limit, coverage is checked as usual.
    with pytest.raises(CoverageError):
        validate_design(REFERENCE_BLOCKS_3_8_4_1, t=3, n=182, k=4, lam=1)


# ----------------------------------------------------------- construction

@pytest.mark.parametrize(
    "construct,args",
    [
        (complete_design, (8, 4, True)),
        (complete_design, (8, 4, 3.0)),
        (complete_design, (8.0, 4, 3)),
        (complete_design, (8, "4", 3)),
        (hadamard_3design, (8.0,)),
        (hadamard_3design, (True,)),
        (lambda s: reduce_design(hadamard_3design(8), s), (True,)),
        (lambda s: reduce_design(hadamard_3design(8), s), (2.0,)),
    ],
)
def test_constructors_refuse_non_int_sizes(construct, args):
    with pytest.raises(ParamError, match="must be an int"):
        construct(*args)


def test_complete_design_small_cases():
    assert len(complete_design(4, 2, 2).blocks) == 6
    assert complete_design(4, 2, 2).lam == 1
    assert len(complete_design(6, 3, 3).blocks) == 20
    assert complete_design(6, 3, 3).lam == 1


def test_complete_design_matches_bibd_up_to_order(bibd_design):
    full = complete_design(5, 4, 2)
    assert full.params == bibd_design.params
    assert sorted(full.blocks) == sorted(bibd_design.blocks)


def test_complete_designs_validate_for_all_small_params():
    for n in range(1, 9):
        for k in range(1, n + 1):
            for t in range(1, k + 1):
                design = complete_design(n, k, t)
                validate_design(design.blocks, t=t, n=n, k=k, lam=design.lam)


def test_complete_design_blocks_are_lexicographic():
    design = complete_design(5, 3, 2)
    assert design.blocks == tuple(combinations(range(5), 3))


@pytest.mark.parametrize("n,k,lam,blocks", [(8, 4, 1, 14), (16, 8, 3, 30), (32, 16, 7, 62)])
def test_hadamard_designs_validate(n, k, lam, blocks):
    design = hadamard_3design(n)
    assert design.params == DesignParams(t=3, n=n, k=k, lam=lam)
    assert len(design.blocks) == blocks
    validate_design(design.blocks, t=3, n=n, k=k, lam=lam)


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_hadamard_blocks_match_the_complement_construction(n):
    blocks = []
    for row in range(1, n):
        plus = tuple(c for c in range(n) if bin(row & c).count("1") % 2 == 0)
        blocks += [plus, tuple(c for c in range(n) if c not in set(plus))]
    assert hadamard_3design(n).blocks == tuple(blocks)


def test_oversize_constructions_refused_from_the_count(monkeypatch):
    # A refused call must build nothing: a call into combinations fails fast.
    def never(*args):
        raise AssertionError("blocks were built before the size check")

    monkeypatch.setattr(designs, "combinations", never)
    assert comb(40, 20) > MAX_COVERAGE_SUBSETS
    with pytest.raises(ParamError, match=r"building C\(40,20\) blocks exceeds the limit"):
        complete_design(40, 20, 3)
    # The smallest refused order first, so a missing check fails without a blow-up.
    assert 512 * 511 <= MAX_COVERAGE_SUBSETS < 1024 * 1023
    assert len(hadamard_3design(512).blocks) == 2 * 511
    for n in (1024, 2**30):
        with pytest.raises(ParamError, match=rf"= {n * (n - 1)} points exceeds the limit"):
            hadamard_3design(n)


@pytest.mark.parametrize("n, k", [(20_000, 10_000), (4 * 10**6, 2 * 10**6)])
def test_complete_design_refuses_huge_n_without_the_exact_count(n, k):
    # comb(4*10**6, 2*10**6) runs for minutes, and comb(20_000, 10_000) has
    # more digits than Python will print.
    start = time.perf_counter()
    with pytest.raises(ParamError, match=rf"C\({n},{k}\) blocks exceeds the limit"):
        complete_design(n, k, 3)
    assert time.perf_counter() - start < 0.5


def test_complete_design_budget_boundary():
    # C(n,k) is counted exactly up to the limit: 10**6 is allowed, one more is not.
    assert comb(1_000_000, 1) == MAX_COVERAGE_SUBSETS
    designs._check_comb_budget("building", 1_000_000, 1, "blocks")
    designs._check_comb_budget("building", 1_000_000, 999_999, "blocks")
    with pytest.raises(ParamError):
        designs._check_comb_budget("building", 1_000_001, 1, "blocks")
    assert len(complete_design(23, 6, 3).blocks) == comb(23, 6) == 100_947


@pytest.mark.parametrize("n", [4, 12, 20, 7])
def test_hadamard_rejects_non_powers_of_two(n):
    with pytest.raises(ParamError):
        hadamard_3design(n)


def test_hadamard_blocks_are_complementary_pairs():
    design = hadamard_3design(8)
    for i in range(0, len(design.blocks), 2):
        plus, minus = design.blocks[i], design.blocks[i + 1]
        assert sorted(plus + minus) == list(range(8))


# --------------------------------------------------------- complementation

def test_reference_design_is_self_complementary(reference_design):
    assert is_self_complementary(reference_design)


def test_complete_design_is_self_complementary():
    assert is_self_complementary(complete_design(8, 4, 3))


def test_broken_complementation_detected(reference_design):
    blocks = tuple(
        (0, 1, 2, 3) if block == (4, 5, 6, 7) else block
        for block in reference_design.blocks
    )
    doctored = Design(params=reference_design.params, blocks=blocks)
    assert not is_self_complementary(doctored)


def test_self_complementary_needs_half_sized_blocks(bibd_design):
    with pytest.raises(ParamError):
        is_self_complementary(bibd_design)


# --------------------------------------------------------- block counting

def test_count_lambda_reference_values(reference_design):
    params = reference_design.params
    assert count_lambda(params, 0, 0) == 14
    assert count_lambda(params, 1, 0) == 7
    assert count_lambda(params, 2, 0) == 3
    assert count_lambda(params, 3, 0) == 1
    assert count_lambda(params, 2, 1) == 2
    assert count_lambda(params, 1, 1) == 4
    assert count_lambda(params, 0, 1) == 7


def test_count_lambda_rejects_oversized_sets(reference_design):
    with pytest.raises(ParamError):
        count_lambda(reference_design.params, 2, 2)


@pytest.mark.parametrize("i,j", [(True, 0), (0, False), (1.0, 0), (0, 1.0), ("1", 0), (None, 0)])
def test_count_lambda_rejects_non_int_sizes(reference_design, i, j):
    # A bool would answer as 0 or 1; a float would reach comb() as a TypeError.
    with pytest.raises(ParamError, match="must be an int"):
        count_lambda(reference_design.params, i, j)


def test_count_lambda_rejects_non_integral_counts():
    # Block count 5 is fine, but each point would need to lie in 10/3
    # blocks, so no such design exists.
    params = DesignParams(t=2, n=6, k=4, lam=2)
    with pytest.raises(ParamError):
        count_lambda(params, 1, 0)


@pytest.mark.parametrize("fixture", ["reference_design", "bibd_design"])
def test_count_lambda_matches_enumeration_everywhere(fixture, request):
    design = request.getfixturevalue(fixture)
    params = design.params
    points = range(params.n)
    for i in range(params.t + 1):
        for j in range(params.t + 1 - i):
            expected = count_lambda(params, i, j)
            for contain in combinations(points, i):
                rest = [x for x in points if x not in contain]
                for avoid in combinations(rest, j):
                    assert count_by_enumeration(design, contain, avoid) == expected


# -------------------------------------------------------------- reduction

def test_reduce_to_pair_coverage(reference_design):
    reduced = reduce_design(reference_design, 2)
    assert reduced.params == DesignParams(t=2, n=8, k=4, lam=3)
    assert reduced.blocks == reference_design.blocks
    validate_design(reduced.blocks, t=2, n=8, k=4, lam=3)


def test_reduce_to_point_coverage(reference_design):
    reduced = reduce_design(reference_design, 1)
    assert reduced.params == DesignParams(t=1, n=8, k=4, lam=7)


def test_reduce_identity(reference_design):
    assert reduce_design(reference_design, 3) == reference_design


def test_reduce_rejects_bad_strength(reference_design):
    with pytest.raises(ParamError):
        reduce_design(reference_design, 0)
    with pytest.raises(ParamError):
        reduce_design(reference_design, 4)


# ------------------------------------------------------------------- JSON

def test_json_round_trip(reference_design):
    assert design_from_json(design_to_json(reference_design)) == reference_design


def test_json_unknown_field_warns_but_validates(reference_design):
    obj = design_to_json(reference_design)
    obj["comment"] = "anything"
    with pytest.warns(UserWarning, match="comment"):
        design = design_from_json(obj)
    assert design == reference_design


@pytest.mark.parametrize(
    "mutate",
    [
        lambda obj: obj.pop("t"),
        lambda obj: obj.pop("blocks"),
        lambda obj: obj.update(t="3"),
        lambda obj: obj.update(t=True),
        lambda obj: obj.update(blocks=5),
        lambda obj: obj.update(blocks=[[0, 1, "2", 3]] + obj["blocks"][1:]),
    ],
)
def test_json_structural_errors(reference_design, mutate):
    obj = design_to_json(reference_design)
    mutate(obj)
    with pytest.raises(FormatError):
        design_from_json(obj)


def test_json_huge_point_count_is_a_param_error(reference_design):
    obj = design_to_json(reference_design)
    obj["n"] = 10**30
    with pytest.raises(ParamError, match=f"= {comb(10**30, 3)} 3-subsets"):
        design_from_json(obj)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda obj: obj.update(t=True), "design field 't' must be an integer, got True"),
        (lambda obj: obj.update(k=4.0), "design field 'k' must be an integer, got 4.0"),
        (
            lambda obj: obj.update(blocks=5),
            "design field 'blocks' must be a list of integer lists, got 5",
        ),
        (
            lambda obj: obj["blocks"].__setitem__(3, [0, 1, "2", 3]),
            "design field 'blocks' must be a list of integer lists, got [0, 1, '2', 3]",
        ),
        (lambda obj: obj.pop("lambda"), "design object is missing fields: lambda"),
    ],
    ids=["bool-t", "float-k", "int-blocks", "str-point", "no-lambda"],
)
def test_json_field_errors_name_the_field_and_the_bad_value(reference_design, mutate, message):
    obj = design_to_json(reference_design)
    mutate(obj)
    with pytest.raises(FormatError) as info:
        design_from_json(obj)
    assert str(info.value) == message


def test_json_design_must_be_an_object():
    with pytest.raises(FormatError, match="^design must be a JSON object, got list$"):
        design_from_json([3, 8, 4, 1])


@pytest.mark.parametrize(
    "build",
    [
        lambda: complete_design(10**7, 10**7, 5 * 10**6),
        lambda: design_from_json(
            {"t": 5 * 10**6, "n": 10**7, "k": 10**7, "lambda": 1, "blocks": []}
        ),
    ],
    ids=["complete", "json"],
)
def test_design_params_refuse_huge_t_without_the_exact_count(monkeypatch, build):
    # comb(10**7, 5*10**6) runs for minutes. A comb that wide fails at once
    # here, so a missing bound fails the test instead of hanging it.
    exact = designs.comb

    def narrow(n, k):
        assert min(k, n - k) <= 10**4, f"comb({n}, {k}) was computed"
        return exact(n, k)

    monkeypatch.setattr(designs, "comb", narrow)
    start = time.perf_counter()
    with pytest.raises(ParamError, match=r"C\(10000000,5000000\) 5000000-subsets may take"):
        build()
    assert time.perf_counter() - start < 0.5


def test_design_params_count_bound_boundary():
    # 16000 has 14 bits: t=1000 is exactly MAX_COUNT_BITS, t=1001 is over.
    # The bound uses min(t, n-t), so t close to n is as cheap as t close to 0.
    assert 1000 * (16000).bit_length() == designs.MAX_COUNT_BITS
    DesignParams(t=1000, n=16000, k=16000, lam=1)
    DesignParams(t=15000, n=16000, k=16000, lam=1)
    with pytest.raises(ParamError, match="up to 14014 bits, over the limit of 14000"):
        DesignParams(t=1001, n=16000, k=16000, lam=1)


def test_json_semantic_errors_use_domain_exceptions(reference_design):
    obj = design_to_json(reference_design)
    obj["lambda"] = 2
    with pytest.raises(CoverageError):
        design_from_json(obj)
