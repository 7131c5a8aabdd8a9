"""Designs of strength 4 and 5 (Witt's Mathieu designs) as delta=3,4 inputs.

S(5,6,12) is the orbit of the hexad {inf,1,3,4,5,9} on GF(11) + {inf} under
PSL(2,11); its derived design at inf is a 4-(11,5,1) design, and read as a
4-design it is 4-(12,6,4). Each is validated, then swept at every s <= delta
with the full family: every set recovers and reads the same from every
survivor, the counts below.
"""

from itertools import product

import pytest

from declustr import (
    build_layout,
    exhaustive_verify,
    group_family,
    reduce_design,
    rs_code,
    validate_design,
)

INF = 11  # the point at infinity of GF(11) + {inf}
SQUARES = frozenset(x * x % 11 for x in range(1, 11))


def _mobius(a: int, b: int, c: int, d: int, x: int) -> int:
    """x -> (ax + b) / (cx + d) on GF(11) + {inf}."""
    if x == INF:
        return INF if c == 0 else a * pow(c, -1, 11) % 11
    den = (c * x + d) % 11
    return INF if den == 0 else (a * x + b) * pow(den, -1, 11) % 11


def witt_blocks() -> list[tuple[int, ...]]:
    """The 132 hexads of S(5,6,12): the base hexad's images under every
    Mobius map whose determinant is a nonzero square, i.e. under PSL(2,11)."""
    base = (INF, 1, 3, 4, 5, 9)
    orbit = {
        tuple(sorted(_mobius(a, b, c, d, x) for x in base))
        for a, b, c, d in product(range(11), repeat=4)
        if (a * d - b * c) % 11 in SQUARES
    }
    return sorted(orbit)


@pytest.fixture(scope="module")
def s_5_6_12():
    return validate_design(witt_blocks(), t=5, n=12, k=6, lam=1)


@pytest.fixture(scope="module")
def s_4_5_11(s_5_6_12):
    derived = [tuple(x for x in block if x != INF) for block in s_5_6_12.blocks if INF in block]
    return validate_design(derived, t=4, n=11, k=5, lam=1)


@pytest.fixture(scope="module")
def d_4_6_12(s_5_6_12):
    return reduce_design(s_5_6_12, 4)


def test_witt_designs_validate(s_5_6_12, s_4_5_11, d_4_6_12):
    assert len(s_5_6_12.blocks) == 132
    assert len(s_4_5_11.blocks) == 66
    assert (d_4_6_12.t, d_4_6_12.n, d_4_6_12.k, d_4_6_12.lam) == (4, 12, 6, 4)
    # reduce_design keeps the blocks; check that they cover as it claims.
    assert validate_design(d_4_6_12.blocks, t=4, n=12, k=6, lam=4).blocks == d_4_6_12.blocks


@pytest.mark.parametrize(
    "fixture,k,delta,reads",
    [
        ("s_4_5_11", 5, 3, (360, 640, 870)),
        ("d_4_6_12", 6, 3, (2160, 3672, 4800)),
        ("s_5_6_12", 6, 4, (4320, 7344, 9600, 11520)),
    ],
)
def test_witt_layouts_sweep_uniformly_at_every_s(fixture, k, delta, reads, request):
    # These run lost tuples of size 3 and 4 through the sweep's decode.
    layout = build_layout(group_family(rs_code(k, delta), "full"), request.getfixturevalue(fixture))
    for s, expected in enumerate((0, *reads)):
        summary = exhaustive_verify(layout, s, seed=7)
        assert summary.passed == summary.total, (fixture, s)
        assert summary.uniform, (fixture, s)
        assert summary.reads_per_disk == expected, (fixture, s)
