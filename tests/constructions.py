"""Designs built as group orbits on a projective line, shared by the test modules.

The projective line over GF(q) is GF(q) + {inf}, with point q standing for
inf. PGL(2,q) is sharply 3-transitive on it, so the orbit of any k-subset is
a 3-(q+1, k, lambda) design. Witt's S(5,6,12) is one hexad's orbit under
PSL(2,11), and its derived design at inf is 4-(11,5,1). One Mobius map
serves both groups.

The Golay octads are the 759 weight-8 words of the extended binary Golay
code, whose supports are Witt's S(5,8,24).

For a prime q = 3 mod 4, the Paley Hadamard design on GF(q) + {inf} is a
3-(q+1, (q+1)/2, (q-3)/4) design; q = 19 gives fig13's k = 10 row.
"""

from functools import cache
from itertools import product
from math import comb

from declustr import validate_design

INF = 11  # the point at infinity of GF(11) + {inf}
SQUARES = frozenset(x * x % 11 for x in range(1, 11))


def _mobius(q: int, a: int, b: int, c: int, d: int, x: int) -> int:
    """x -> (ax + b) / (cx + d) on GF(q) + {inf}, inf being q."""
    if x == q:
        return q if c == 0 else a * pow(c, -1, q) % q
    den = (c * x + d) % q
    return q if den == 0 else (a * x + b) * pow(den, -1, q) % q


def pgl_orbit(q: int, base) -> list[tuple[int, ...]]:
    """Orbit of a subset of the projective line GF(q) u {inf} under PGL(2,q).

    Each map x -> (ax+b)/(cx+d) with ad-bc != 0 is taken once, normalised to
    d=1 when c=0 and to c=1 otherwise. Blocks are returned sorted, in
    lexicographic order.
    """
    maps = [(a, b, 0, 1) for a in range(1, q) for b in range(q)]
    maps += [
        (a, b, 1, d)
        for a in range(q) for b in range(q) for d in range(q)
        if (a * d - b) % q
    ]
    return sorted({tuple(sorted(_mobius(q, *m, x) for x in base)) for m in maps})


def orbit_design(q: int, base):
    blocks = pgl_orbit(q, base)
    n, k = q + 1, len(base)
    return validate_design(blocks, 3, n, k, len(blocks) * comb(k, 3) // comb(n, 3))


def witt_blocks() -> list[tuple[int, ...]]:
    """The 132 hexads of S(5,6,12): the base hexad's images under every
    Mobius map whose determinant is a nonzero square, i.e. under PSL(2,11)."""
    base = (INF, 1, 3, 4, 5, 9)
    orbit = {
        tuple(sorted(_mobius(11, a, b, c, d, x) for x in base))
        for a, b, c, d in product(range(11), repeat=4)
        if (a * d - b * c) % 11 in SQUARES
    }
    return sorted(orbit)


@cache
def witt_5_6_12():
    return validate_design(witt_blocks(), t=5, n=12, k=6, lam=1)


def witt_4_5_11():
    derived = [tuple(x for x in b if x != INF) for b in witt_5_6_12().blocks if INF in b]
    return validate_design(derived, t=4, n=11, k=5, lam=1)


# The binary cyclic Golay code of length 23 is generated by
# g(x) = x^11 + x^10 + x^6 + x^5 + x^4 + x^2 + 1, bit i holding x^i.
GOLAY_GENERATOR = 0b110001110101


def golay_octads() -> list[tuple[int, ...]]:
    """The supports of the extended Golay code's weight-8 words, sorted.

    Each of the 4,096 codewords is m(x) * g(x) for one m of degree < 12, a
    carry-less product, extended by an overall parity bit at point 23."""
    octads = []
    for m in range(1 << 12):
        word = 0
        for i in range(12):
            if m >> i & 1:
                word ^= GOLAY_GENERATOR << i
        word |= (word.bit_count() & 1) << 23
        if word.bit_count() == 8:
            octads.append(tuple(i for i in range(24) if word >> i & 1))
    return sorted(octads)


def golay_5_8_24():
    return validate_design(golay_octads(), t=5, n=24, k=8, lam=1)


def paley_hadamard(q: int):
    """The 2q blocks {inf} u (i + nonzero squares) and {i} u (i + non-squares),
    for each i in GF(q), of the Paley Hadamard 3-design; q is a prime = 3 mod 4."""
    squares = {x * x % q for x in range(1, q)}
    blocks = []
    for i in range(q):
        blocks.append(tuple(sorted({q} | {(i + x) % q for x in squares})))
        blocks.append(tuple(sorted({i} | {(i + x) % q for x in range(1, q) if x not in squares})))
    return validate_design(blocks, 3, q + 1, (q + 1) // 2, (q - 3) // 4)
