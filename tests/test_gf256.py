"""GF(2^8) table arithmetic against an independent carry-less oracle."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from declustr.errors import ParamError
from declustr.gf256 import (
    EXP,
    LOG,
    gf_div,
    gf_inv,
    gf_mat_inv,
    gf_mul,
    gf_mul_table,
)

POLY = 0x11D


def clmul_mod(a: int, b: int) -> int:
    """Carry-less polynomial multiply, then reduce mod x^8+x^4+x^3+x^2+1."""
    product = 0
    for bit in range(8):
        if b & (1 << bit):
            product ^= a << bit
    for bit in range(15, 7, -1):
        if product & (1 << bit):
            product ^= POLY << (bit - 8)
    return product


def test_mul_matches_clmul_oracle_for_all_pairs():
    for a in range(256):
        for b in range(256):
            assert gf_mul(a, b) == clmul_mod(a, b)


def test_mul_tables_translate_like_mul():
    every_byte = bytes(range(256))
    for c in range(256):
        assert list(every_byte.translate(gf_mul_table(c))) == [
            clmul_mod(c, x) for x in range(256)
        ]
    with pytest.raises(ParamError):
        gf_mul_table(256)


def test_importing_the_cli_builds_no_mul_table():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import declustr.cli; from declustr.gf256 import gf_mul_table; "
        "print(gf_mul_table.cache_info().currsize)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=60, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.stdout.strip() == "0"


def test_exp_log_tables_are_inverse_bijections():
    assert sorted(EXP[:255]) == sorted(range(1, 256))
    for x in range(1, 256):
        assert EXP[LOG[x]] == x


def test_inverse_multiplies_to_one():
    for x in range(1, 256):
        assert gf_mul(x, gf_inv(x)) == 1


def test_div_inverts_mul():
    for a in range(256):
        for b in range(1, 256, 7):
            assert gf_div(gf_mul(a, b), b) == a


def test_inverse_of_zero_rejected():
    with pytest.raises(ParamError):
        gf_inv(0)
    with pytest.raises(ParamError):
        gf_div(1, 0)


def test_matrix_inverse_round_trip():
    matrix = [[1, 1, 1], [1, 2, 4], [1, 3, 5]]
    inverse = gf_mat_inv(matrix)
    size = len(matrix)
    for i in range(size):
        for j in range(size):
            acc = 0
            for l in range(size):
                acc ^= gf_mul(matrix[i][l], inverse[l][j])
            assert acc == (1 if i == j else 0)


def test_singular_matrix_rejected():
    with pytest.raises(ParamError):
        gf_mat_inv([[1, 2], [2, 4]])
