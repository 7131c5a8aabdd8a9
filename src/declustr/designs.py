"""t-(n,k,lambda) designs: validation, construction, and block counting.

A design is a collection of k-subsets (blocks) of {0,...,n-1} such that every
t-subset of points lies in exactly lambda blocks. Blocks are stored sorted and
in input order (layout construction refers to blocks by index); repeated
blocks are permitted.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import BlockSizeError, CoverageError, FormatError, ParamError

# Field kinds for check_fields; each is also the phrase its message uses.
INT = "an integer"
INT_LISTS = "a list of integer lists"
DESIGN_JSON_FIELDS = {"t": INT, "n": INT, "k": INT, "lambda": INT, "blocks": INT_LISTS}

# Most items one call builds or counts, refused up front: the C(n,t)
# t-subsets validate_design tallies in one dict, the C(n,k) blocks of
# complete_design, the n(n-1) points of hadamard_3design and the
# delta!*C(k,delta)*k labels of a full parity group.
MAX_COVERAGE_SUBSETS = 10**6

# Most bits of a count C(n,t) < n**min(t, n-t) that DesignParams computes,
# refused from that bound: math.comb takes minutes for t in the millions, and
# 14,000 bits stay under the 4,300 digits Python will print.
MAX_COUNT_BITS = 14_000

# Most bytes materialize fills, n * rows_per_disk, refused before the fill:
# a sweep holds up to 6x the array.
MAX_ARRAY_BYTES = 2**26


def check_budget(what: str, count: int, unit: str, limit: int = MAX_COVERAGE_SUBSETS) -> None:
    if count > limit:
        raise ParamError(f"{what} = {count} {unit} exceeds the limit of {limit}")


def _check_comb_budget(what: str, n: int, k: int, unit: str) -> None:
    """Refuse C(n,k) > MAX_COVERAGE_SUBSETS, counted as a running product.

    The product is exact up to the limit and stops once past it: math.comb
    takes seconds for n in the millions, and its value can have more digits
    than Python will print, so the refusal names C(n,k) instead.
    """
    count = 1
    for i in range(min(k, n - k)):
        count = count * (n - i) // (i + 1)
        if count > MAX_COVERAGE_SUBSETS:
            raise ParamError(
                f"{what} C({n},{k}) {unit} exceeds the limit of {MAX_COVERAGE_SUBSETS}"
            )


def _check_ints(**sizes) -> None:
    """Refuse a size that is not an int; a bool compares like 0 or 1 but is no size."""
    for name, value in sizes.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParamError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class DesignParams:
    """Parameter quadruple of a t-(n,k,lam) design."""

    t: int
    n: int
    k: int
    lam: int

    def __post_init__(self):
        _check_ints(t=self.t, n=self.n, k=self.k, lam=self.lam)
        if not (1 <= self.t <= self.k <= self.n):
            raise ParamError(
                f"need 1 <= t <= k <= n, got t={self.t}, k={self.k}, n={self.n}"
            )
        if self.lam < 1:
            raise ParamError(f"lambda must be >= 1, got {self.lam}")
        bits = min(self.t, self.n - self.t) * self.n.bit_length()
        if bits > MAX_COUNT_BITS:
            raise ParamError(
                f"C({self.n},{self.t}) {self.t}-subsets may take up to {bits} bits, "
                f"over the limit of {MAX_COUNT_BITS}"
            )
        if (self.lam * comb(self.n, self.t)) % comb(self.k, self.t) != 0:
            raise ParamError(
                f"block count lam*C(n,t)/C(k,t) is not an integer for "
                f"t={self.t}, n={self.n}, k={self.k}, lambda={self.lam}"
            )


@dataclass(frozen=True)
class Design:
    """A validated design: params plus an ordered collection of sorted blocks."""

    params: DesignParams
    blocks: tuple[tuple[int, ...], ...]

    @property
    def t(self) -> int:
        return self.params.t

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def k(self) -> int:
        return self.params.k

    @property
    def lam(self) -> int:
        return self.params.lam


def validate_design(blocks, t: int, n: int, k: int, lam: int) -> Design:
    """Check a raw block collection exhaustively and return a Design.

    Every block must be a k-subset of {0,...,n-1} and every t-subset of the
    point set must occur in exactly lam blocks (all C(n,t) subsets are
    checked). A design with more than MAX_COVERAGE_SUBSETS t-subsets is
    refused before any of them is built.
    """
    params = DesignParams(t=t, n=n, k=k, lam=lam)
    check_budget(f"validating C({n},{t})", comb(n, t), f"{t}-subsets")
    normalized = []
    for block in map(tuple, blocks):
        # type, not isinstance: a bool is an int but is no point. Checked
        # before sorting, which cannot order mixed types.
        if any(type(x) is not int or not 0 <= x < n for x in block):
            raise BlockSizeError(f"block {block} has points that are not ints in 0..{n - 1}")
        members = tuple(sorted(block))
        if len(members) != k or len(set(members)) != k:
            raise BlockSizeError(f"block {block} is not a {k}-subset")
        normalized.append(members)
    # Coverage is the authoritative check: a wrong block count always breaks
    # coverage somewhere, and the first deviating subset is the useful report.
    counts = {}
    for members in normalized:
        for subset in combinations(members, t):
            counts[subset] = counts.get(subset, 0) + 1
    for subset in combinations(range(n), t):
        found = counts.get(subset, 0)
        if found != lam:
            raise CoverageError(subset, found, lam)
    return Design(params=params, blocks=tuple(normalized))


def complete_design(n: int, k: int, t: int) -> Design:
    """The design whose blocks are all C(n,k) k-subsets, in lexicographic order.

    More than MAX_COVERAGE_SUBSETS blocks are refused before any is built.
    """
    _check_ints(n=n, k=k, t=t)
    if not (1 <= t <= k <= n):
        raise ParamError(f"need 1 <= t <= k <= n, got t={t}, k={k}, n={n}")
    _check_comb_budget("building", n, k, "blocks")
    params = DesignParams(t=t, n=n, k=k, lam=comb(n - t, k - t))
    return Design(params=params, blocks=tuple(combinations(range(n), k)))


def hadamard_3design(n: int) -> Design:
    """A 3-(n, n/2, n/4-1) design from the rows of a Sylvester matrix of order n.

    Row r of the order-n Sylvester matrix has entry (-1)^popcount(r & c) in
    column c. For each non-constant row, the +1 support and the -1 support
    each contribute one block, giving 2(n-1) blocks of n(n-1) points in all;
    more than MAX_COVERAGE_SUBSETS points are refused before any is built.
    """
    _check_ints(n=n)
    if n < 8 or n & (n - 1) != 0:
        raise ParamError(f"order must be a power of two >= 8, got {n}")
    check_budget(f"building {n}*{n - 1}", n * (n - 1), "points")
    blocks = []
    for row in range(1, n):
        odd = [bin(row & c).count("1") % 2 for c in range(n)]
        blocks.append(tuple(c for c, bit in enumerate(odd) if not bit))
        blocks.append(tuple(c for c, bit in enumerate(odd) if bit))
    params = DesignParams(t=3, n=n, k=n // 2, lam=n // 4 - 1)
    return Design(params=params, blocks=tuple(blocks))


def count_lambda(params: DesignParams, i: int, j: int) -> int:
    """Blocks containing a fixed i-set of points and avoiding a disjoint j-set.

    The value lam * C(n-i-j, k-i) / C(n-t, k-t) is the same for every choice
    of the two disjoint point sets.
    """
    _check_ints(i=i, j=j)
    if i < 0 or j < 0 or i + j > params.t:
        raise ParamError(f"need i >= 0, j >= 0, i + j <= t, got i={i}, j={j}")
    value, rest = divmod(
        params.lam * comb(params.n - i - j, params.k - i),
        comb(params.n - params.t, params.k - params.t),
    )
    if rest:
        raise ParamError(
            f"block count for i={i}, j={j} is not an integer; no "
            f"{params.t}-({params.n},{params.k},{params.lam}) design exists"
        )
    return value


def reduce_design(design: Design, s: int) -> Design:
    """Reinterpret a t-design as an s-design (s <= t) with the induced lambda."""
    _check_ints(s=s)
    if not (1 <= s <= design.t):
        raise ParamError(f"need 1 <= s <= t={design.t}, got s={s}")
    lam_s = count_lambda(design.params, s, 0)
    params = DesignParams(t=s, n=design.n, k=design.k, lam=lam_s)
    return Design(params=params, blocks=design.blocks)


def design_to_json(design: Design) -> dict:
    """Plain-dict form of a design, matching the documented file format."""
    return {
        "t": design.t,
        "n": design.n,
        "k": design.k,
        "lambda": design.lam,
        "blocks": [list(block) for block in design.blocks],
    }


def check_fields(what: str, obj, fields: dict, optional: tuple = ()) -> None:
    """Refuse obj unless it is a JSON object holding each field of its kind.

    fields maps each name to INT (an int, never a bool), INT_LISTS, a tuple
    of the allowed values, or None when a later parser checks the value.
    Names in `optional` may be absent. Unknown keys are ignored with a
    warning once every check has passed.
    """
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object, got {type(obj).__name__}")
    missing = [f for f in fields if f not in obj and f not in optional]
    if missing:
        raise FormatError(f"{what} object is missing fields: {', '.join(missing)}")
    for name, kind in fields.items():
        if name in obj and kind is not None and (bad := _misfits(obj[name], kind)):
            expected = kind if isinstance(kind, str) else f"one of {', '.join(kind)}"
            raise FormatError(f"{what} field {name!r} must be {expected}, got {bad[0]!r}")
    unknown = sorted(str(f) for f in obj if f not in fields)
    if unknown:
        warnings.warn(f"ignoring unknown {what} fields: {', '.join(unknown)}", stacklevel=3)


def _misfits(value, kind) -> list:
    """The parts of value that are not of kind: value itself, or for
    INT_LISTS each entry that is not a list of ints."""
    if kind is INT:
        return [] if type(value) is int else [value]
    if kind is INT_LISTS:
        if not isinstance(value, list):
            return [value]
        return [v for v in value if not isinstance(v, list) or any(type(x) is not int for x in v)]
    return [] if value in kind else [value]


def design_from_json(obj) -> Design:
    """Parse and fully validate a design from its plain-dict form.

    Unknown trailing fields are ignored with a warning, not an error.
    """
    check_fields("design", obj, DESIGN_JSON_FIELDS)
    return validate_design(
        obj["blocks"], t=obj["t"], n=obj["n"], k=obj["k"], lam=obj["lambda"]
    )
