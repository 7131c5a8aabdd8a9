"""Designs of strength 4 and 5 (Witt's Mathieu designs) as delta=3,4 inputs.

S(5,6,12) is the orbit of the hexad {inf,1,3,4,5,9} on GF(11) + {inf} under
PSL(2,11); its derived design at inf is a 4-(11,5,1) design, and read as a
4-design it is 4-(12,6,4). Each is validated, then swept at every s <= delta
with the full family: every set recovers and reads the same from every
survivor, the counts below. S(5,8,24), the extended Golay code's octads, is
only validated here: its sweeps take seconds.
"""

import pytest
from constructions import golay_octads, witt_4_5_11, witt_5_6_12

from declustr import (
    build_layout,
    exhaustive_verify,
    group_family,
    reduce_design,
    rs_code,
    validate_design,
)


@pytest.fixture(scope="module")
def s_5_6_12():
    return witt_5_6_12()


@pytest.fixture(scope="module")
def s_4_5_11():
    return witt_4_5_11()


@pytest.fixture(scope="module")
def d_4_6_12(s_5_6_12):
    return reduce_design(s_5_6_12, 4)


def test_witt_designs_validate(s_5_6_12, s_4_5_11, d_4_6_12):
    assert len(s_5_6_12.blocks) == 132
    assert len(s_4_5_11.blocks) == 66
    assert (d_4_6_12.t, d_4_6_12.n, d_4_6_12.k, d_4_6_12.lam) == (4, 12, 6, 4)
    # reduce_design keeps the blocks; check that they cover as it claims.
    assert validate_design(d_4_6_12.blocks, t=4, n=12, k=6, lam=4).blocks == d_4_6_12.blocks


def test_golay_octads_validate_as_s_5_8_24():
    octads = golay_octads()
    assert len(octads) == len(set(octads)) == 759
    assert {len(octad) for octad in octads} == {8}
    design = validate_design(octads, t=5, n=24, k=8, lam=1)
    assert design.blocks == tuple(octads)


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
