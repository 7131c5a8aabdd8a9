"""Arithmetic in GF(2^8) with the irreducible polynomial x^8+x^4+x^3+x^2+1.

Multiplication uses log/antilog tables generated from the primitive element
x (0x02). Addition is XOR. A small Gauss-Jordan inverter for matrices over
the field is included for erasure decoding.

For bulk work, gf_mul_table(c) is the 256-byte table of x -> c*x, so
bytes.translate multiplies every byte of a buffer by c in one call. Each
table is built on first use and cached; importing the module builds none.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ParamError

POLY = 0x11D

# EXP holds g^i for i in 0..509 (doubled so gf_mul can skip one modulo);
# LOG holds the discrete log of 1..255.
EXP = [0] * 510
LOG = [0] * 256

_x = 1
for _i in range(255):
    EXP[_i] = _x
    LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= POLY
for _i in range(255, 510):
    EXP[_i] = EXP[_i - 255]
del _x, _i


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return EXP[LOG[a] + LOG[b]]


@lru_cache(maxsize=256)
def gf_mul_table(c: int) -> bytes:
    """Translation table of multiplication by the constant c."""
    if not 0 <= c <= 255:
        raise ParamError(f"{c} is not an element of GF(2^8)")
    if c == 0:
        return bytes(256)
    log_c = LOG[c]
    return bytes([0] + [EXP[log_c + LOG[x]] for x in range(1, 256)])


def gf_inv(a: int) -> int:
    if a == 0:
        raise ParamError("0 has no multiplicative inverse in GF(2^8)")
    return EXP[255 - LOG[a]]


def gf_div(a: int, b: int) -> int:
    return gf_mul(a, gf_inv(b))


def gf_mat_inv(matrix: list[list[int]]) -> list[list[int]]:
    """Invert a square matrix over GF(2^8) by Gauss-Jordan elimination.

    A pivot or factor of 1 costs no multiplication, so a 0/1 matrix is
    inverted with XOR alone.
    """
    n = len(matrix)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ParamError("matrix is singular over GF(2^8)")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        if aug[col][col] != 1:
            scale = gf_inv(aug[col][col])
            aug[col] = [gf_mul(v, scale) for v in aug[col]]
        for r in range(n):
            factor = aug[r][col]
            if r != col and factor:
                row = aug[col] if factor == 1 else [gf_mul(factor, p) for p in aug[col]]
                aug[r] = [v ^ p for v, p in zip(aug[r], row)]
    return [row[n:] for row in aug]
