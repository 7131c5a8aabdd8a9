"""Seeded benchmark inputs and the independent oracles that check outputs.

Everything here is benchmark-side: the program under test only ever sees the
block lists, failure sets and seeds produced here. The oracles recompute the
expected read counts from first principles (the reconstruction rule and the
block-counting numbers), so a check never trusts the function it checks.
"""

from __future__ import annotations

import random
from math import comb, perm


def rng_for(workload: str, seed: int) -> random.Random:
    """The one random stream a workload draws all its inputs from."""
    return random.Random(f"perfbench:{workload}:{seed}")


def pgl_orbit(q: int, base) -> list[tuple[int, ...]]:
    """Orbit of a subset of the projective line GF(q) u {inf} under PGL(2,q).

    Point q stands for infinity. Each map x -> (ax+b)/(cx+d) with ad-bc != 0
    is taken once, normalised to d=1 when c=0 and to c=1 otherwise. PGL(2,q)
    is sharply 3-transitive, so the orbit of a k-subset is a 3-(q+1,k,lambda)
    design. Blocks are returned sorted, in lexicographic order.
    """
    inf = q

    def image(a, b, c, d, x):
        if x == inf:
            return inf if c == 0 else a * pow(c, -1, q) % q
        den = (c * x + d) % q
        if den == 0:
            return inf
        return (a * x + b) * pow(den, -1, q) % q

    maps = [(a, b, 0, 1) for a in range(1, q) for b in range(q)]
    maps += [
        (a, b, 1, d)
        for a in range(q) for b in range(q) for d in range(q)
        if (a * d - b) % q
    ]
    return sorted({tuple(sorted(image(*m, x) for x in base)) for m in maps})


def failure_set(rng: random.Random, n: int, size: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(n), size)))


def fill_seed(rng: random.Random) -> int:
    """A nonzero materialize seed (seed 0 is the all-zero fill)."""
    return rng.getrandbits(62) + 1


# ----------------------------------------------------------------- oracles

def rule(delta: int, lost) -> set[str]:
    """Labels read to rebuild `lost`: all data plus the d lowest surviving parities."""
    if not lost:
        return set()
    data_lost = sum(1 for label in lost if label == "D")
    surviving = [f"P{i}" for i in range(1, delta + 1) if f"P{i}" not in lost]
    return {"D", *surviving[:data_lost]}


def tau_full(k: int, delta: int, r: int, s: int) -> int:
    """Entries read per surviving column of the full arrangement family.

    Every ordered placement of P1..Pdelta on k columns is one extended row.
    Fix failed columns 0..s-1 and a survivor; label those s+1 columns every
    possible way and weight each labelling by its completions on the rest.
    """
    rest = k - s - 1
    labels = ["D"] + [f"P{i}" for i in range(1, delta + 1)]
    rows = 0
    for labelling in _labellings(labels, s + 1):
        used = sum(1 for label in labelling if label != "D")
        if delta - used > rest:
            continue
        *lost, survivor = labelling
        if survivor in rule(delta, lost):
            rows += perm(rest, delta - used)
    return r * rows


def _labellings(labels, size):
    """Tuples of `size` labels in which each parity label appears at most once."""
    if size == 0:
        yield ()
        return
    for head in _labellings(labels, size - 1):
        for label in labels:
            if label == "D" or label not in head:
                yield head + (label,)


def block_count(t: int, n: int, k: int, lam: int, i: int, j: int) -> int:
    """Blocks containing a fixed i-set and avoiding a disjoint j-set (i+j <= t)."""
    value, rem = divmod(lam * comb(n - i - j, k - i), comb(n - t, k - t))
    if rem:
        raise ValueError(f"no {t}-({n},{k},{lam}) design")
    return value


def reads_per_survivor(t, n, k, lam, delta, r, s) -> int:
    """Closed form for a full-family layout: sum_j C(s,j) lambda(j+1, s-j) tau_j."""
    return sum(
        comb(s, j) * block_count(t, n, k, lam, j + 1, s - j) * tau_full(k, delta, r, j)
        for j in range(1, s + 1)
    )


def rotation_rows(k: int, delta: int) -> list[tuple[str, ...]]:
    base = ("D",) * (k - delta) + tuple(f"P{i}" for i in range(1, delta + 1))
    return [base[-shift:] + base[:-shift] if shift else base for shift in range(k)]


def walk_reads(blocks, rows, delta: int, r: int, failed, n: int):
    """Per-survivor (units accessed, entries read) by walking every instance."""
    failed = set(failed)
    units = {d: 0 for d in range(n) if d not in failed}
    entries = dict(units)
    for block in blocks:
        lost_pos = [pos for pos, disk in enumerate(block) if disk in failed]
        if not lost_pos:
            continue
        read_rows = [0] * len(block)
        for row in rows:
            need = rule(delta, [row[pos] for pos in lost_pos])
            for pos, disk in enumerate(block):
                if disk not in failed and row[pos] in need:
                    read_rows[pos] += 1
        for pos, disk in enumerate(block):
            if disk not in failed and read_rows[pos]:
                units[disk] += 1
                entries[disk] += r * read_rows[pos]
    return units, entries
