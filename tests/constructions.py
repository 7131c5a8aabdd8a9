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

A Steiner quadruple system SQS(v) is a 3-(v,4,1) design. Hanani's doubling
makes SQS(20), fig13's k = 4 row, from SQS(10). The complements of a
3-design's blocks form a 3-design again.
"""

from functools import cache
from itertools import combinations, product
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


def sqs10_blocks() -> list[tuple[int, ...]]:
    """The 30 blocks of an SQS(10), by an exact-cover search over the 120
    triples: the smallest uncovered triple takes the first fourth point
    whose block covers only uncovered triples."""
    covered, blocks = set(), []

    def search() -> bool:
        triple = next((t for t in combinations(range(10), 3) if t not in covered), None)
        if triple is None:
            return True
        for x in range(10):
            block = tuple(sorted({*triple, x}))
            triples = set(combinations(block, 3))
            if len(block) == 4 and covered.isdisjoint(triples):
                covered.update(triples)
                blocks.append(block)
                if search():
                    return True
                covered.difference_update(triples)
                blocks.pop()
        return False

    search()
    return sorted(blocks)


def sqs20():
    """SQS(20) by Hanani's doubling: each SQS(10) block on both halves, 0..9
    and 10..19, plus {x, y, z+10, w+10} for every ordered pair of edges
    {x,y}, {z,w} of one factor of K10's round-robin 1-factorization. Point 9
    is fixed, and factor i is {9,i} plus {(i+j) mod 9, (i-j) mod 9} for
    j = 1..4: 60 + 9*25 = 285 blocks."""
    blocks = [half for block in sqs10_blocks() for half in (block, tuple(x + 10 for x in block))]
    for i in range(9):
        factor = [(9, i)] + [((i + j) % 9, (i - j) % 9) for j in range(1, 5)]
        pairs = product(factor, repeat=2)
        blocks += [tuple(sorted((x, y, z + 10, w + 10))) for (x, y), (z, w) in pairs]
    return validate_design(sorted(blocks), 3, 20, 4, 1)


def complement_design(design):
    """The 3-design of the complements of a 3-design's blocks."""
    n, k = design.n, design.n - design.k
    blocks = sorted(tuple(x for x in range(n) if x not in block) for block in design.blocks)
    return validate_design(blocks, 3, n, k, len(blocks) * comb(k, 3) // comb(n, 3))
