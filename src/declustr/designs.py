"""t-(n,k,lambda) designs: validation, construction, and block counting.

A design is a collection of k-subsets (blocks) of {0,...,n-1} such that every
t-subset of points lies in exactly lambda blocks. Blocks are stored sorted and
in input order (layout construction refers to blocks by index); repeated
blocks are permitted.

Loading decides at C level: one pass over the flattened points checks their
types and range, one over the blocks their shape, and one Counter of every
block's t-subsets the coverage. Only a refused input walks the blocks one by
one in Python, to name the first offender. parse_json reads every file the
package loads, and dump_json writes every file and JSON report it emits.
"""

from __future__ import annotations

import json
import warnings
from collections import Counter
from itertools import chain, combinations, repeat
from json.encoder import encode_basestring_ascii
from math import comb

from ._record import record
from .errors import BlockSizeError, CoverageError, FormatError, ParamError, shown

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

# Most bytes materialize fills, n * rows_per_disk, refused before the fill. Warm
# tracemalloc peaks, in arrays, on complete(12,6,3) + RS(6,2) and hadamard16 + RDP p=7:
# a fill up to 2.35 (pinned at 2.75 and 2.5), an s=2 sweep up to 2.53 (pinned at 3),
# a one-disk rebuild up to 1.7 and a two-disk one, with the array it returns, up to
# 2.15 (both pinned at 2.5). So this limit bounds a process at about 160 MiB.
MAX_ARRAY_BYTES = 2**26


def check_budget(what: str, count: int, unit: str, limit: int = MAX_COVERAGE_SUBSETS) -> None:
    if count > limit:
        raise ParamError(f"{what} = {shown(count)} {unit} exceeds the limit of {limit}")


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
                f"{what} C({shown(n)},{shown(k)}) {unit} exceeds the limit of {MAX_COVERAGE_SUBSETS}"
            )


def check_ints(*, low: int | None = None, high: int | None = None, **values) -> None:
    """Refuse a value that is not an exact int (no bool) or, with bounds, not in low..high."""
    span = "" if low is None else f" in {low}..{high}"
    for name, value in values.items():
        if type(value) is not int or span and not low <= value <= high:
            raise ParamError(f"{name} must be an int{span}, got {shown(value)}")


def check_iterable(name: str, value, what: str, error: type = ParamError) -> tuple:
    """value's items as a tuple; refuse a value that is not iterable."""
    try:
        return tuple(value)
    except TypeError:
        raise error(f"{name} must be an iterable of {what}, got {shown(value)}") from None


@record(frozen=True)
class DesignParams:
    """Parameter quadruple of a t-(n,k,lam) design."""

    t: int
    n: int
    k: int
    lam: int

    def __post_init__(self):
        check_ints(t=self.t, n=self.n, k=self.k, lam=self.lam)
        if not (1 <= self.t <= self.k <= self.n):
            raise ParamError(
                f"need 1 <= t <= k <= n, got t={shown(self.t)}, k={shown(self.k)}, n={shown(self.n)}"
            )
        if self.lam < 1:
            raise ParamError(f"lambda must be >= 1, got {shown(self.lam)}")
        bits = min(self.t, self.n - self.t) * self.n.bit_length()
        if bits > MAX_COUNT_BITS:
            raise ParamError(
                f"C({shown(self.n)},{self.t}) {self.t}-subsets may take up to {bits} bits, "
                f"over the limit of {MAX_COUNT_BITS}"
            )
        if (self.lam * comb(self.n, self.t)) % comb(self.k, self.t) != 0:
            raise ParamError(
                f"block count lam*C(n,t)/C(k,t) is not an integer for "
                f"t={self.t}, n={self.n}, k={self.k}, lambda={shown(self.lam)}"
            )


@record(frozen=True)
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

    One C-level pass decides each check: the blocks' shape in
    `_sorted_blocks`, then coverage from a Counter of every block's
    t-subsets, which is exact iff it holds all C(n,t) of them, each lam
    times. The per-block loop runs only after the shape pass has refused,
    and only names the first offender.
    """
    params = DesignParams(t=t, n=n, k=k, lam=lam)
    check_budget(f"validating C({n},{t})", comb(n, t), f"{t}-subsets")
    blocks, rows = check_iterable("blocks", blocks, "blocks"), []
    try:
        rows.extend(map(tuple, blocks))
    except TypeError:
        pass  # rows keeps the blocks before blocks[len(rows)], the first not iterable
    normalized = _sorted_blocks(rows, n, k) if len(rows) == len(blocks) else None
    if normalized is None:
        for block in rows:
            # type, not isinstance: a bool is an int but is no point.
            if any(type(x) is not int or not 0 <= x < n for x in block):
                raise BlockSizeError(f"block {shown(block)} has points that are not ints in 0..{n - 1}")
            if len(block) != k or len(set(block)) != k:
                raise BlockSizeError(f"block {shown(block)} is not a {k}-subset")
        raise BlockSizeError(f"block {shown(blocks[len(rows)])} is not a {k}-subset")
    # Coverage is the authoritative check: a wrong block count always breaks
    # coverage somewhere, and the first deviating subset is the useful report.
    counts = Counter(chain.from_iterable(map(combinations, normalized, repeat(t))))
    if len(counts) != comb(n, t) or set(counts.values()) != {lam}:
        for subset in combinations(range(n), t):
            found = counts.get(subset, 0)
            if found != lam:
                raise CoverageError(subset, found, lam)
    return Design(params=params, blocks=normalized)


def _sorted_blocks(rows, n: int, k: int):
    """Each row sorted, if all are k-subsets of exact ints in 0..n-1; else None.

    The rows are tuples. The points' types and range, then the rows' sizes
    with and without repeats, are each one set, min or max over a map; no
    rows give ().
    """
    if not rows:
        return ()
    points = tuple(chain.from_iterable(rows))
    if set(map(type, points)) != {int} or min(points) < 0 or max(points) >= n:
        return None
    if set(map(len, rows)) != {k} or set(map(len, map(set, rows))) != {k}:
        return None
    return tuple(map(tuple, map(sorted, rows)))


def complete_design(n: int, k: int, t: int) -> Design:
    """The design whose blocks are all C(n,k) k-subsets, in lexicographic order.

    More than MAX_COVERAGE_SUBSETS blocks are refused before any is built.
    """
    check_ints(n=n, k=k, t=t)
    if not (1 <= t <= k <= n):
        raise ParamError(f"need 1 <= t <= k <= n, got t={shown(t)}, k={shown(k)}, n={shown(n)}")
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
    check_ints(n=n)
    if n < 8 or n & (n - 1) != 0:
        raise ParamError(f"order must be a power of two >= 8, got {shown(n)}")
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
    check_ints(i=i, j=j)
    if i < 0 or j < 0 or i + j > params.t:
        raise ParamError(f"need i >= 0, j >= 0, i + j <= t, got i={shown(i)}, j={shown(j)}")
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
    check_ints(s=s)
    if not (1 <= s <= design.t):
        raise ParamError(f"need 1 <= s <= t={design.t}, got s={shown(s)}")
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


def parse_json(text, what: str):
    """The value of JSON text; what names the text in the FormatError for
    anything json.loads refuses."""
    try:
        return json.loads(text)
    except ValueError as exc:  # also bad UTF-8 and integers over 4,300 digits
        raise FormatError(f"{what} is not valid JSON: {exc}") from exc


def dump_json(obj) -> str:
    """obj as 2-space-indented JSON plus a newline: the bytes of
    json.dumps(obj, indent=2) + "\\n", which every file and JSON report uses.

    json.dumps runs CPython's pure-Python encoder whenever indent is set, at
    several calls per item, and nearly every item of a saved file is an int
    in a design's blocks or a layout's placements. So this writer renders a
    list of equal-length lists of exact ints itself, with one %-format over
    all its ints, walks str-keyed dicts to find such lists, and leaves the
    rest to json.dumps, its newlines re-indented. A structure too deep or
    circular to recurse through goes to json.dumps whole, which renders or
    refuses it as it would anyway.
    """
    try:
        return _render(obj, "\n") + "\n"
    except RecursionError:
        return json.dumps(obj, indent=2) + "\n"


def _render(obj, nl: str) -> str:
    """obj as json.dumps(obj, indent=2) renders it where nl, a newline plus
    the enclosing indent, starts each of its lines after the first."""
    inner = nl + "  "
    # Comparing type sets with {str} and {list} also passes over empty containers.
    if type(obj) is dict and set(map(type, obj)) == {str}:
        items = [
            encode_basestring_ascii(key) + ": " + _render(value, inner)
            for key, value in obj.items()
        ]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if (
        type(obj) is list
        and set(map(type, obj)) == {list}
        and len(widths := set(map(len, obj))) == 1
        and set(map(type, chain.from_iterable(obj))) == {int}
    ):
        deeper = inner + "  "
        row = "[" + deeper + ("," + deeper).join(["%d"] * widths.pop()) + inner + "]"
        text = "[" + inner + ("," + inner).join([row] * len(obj)) + nl + "]"
        return text % tuple(chain.from_iterable(obj))
    return json.dumps(obj, indent=2).replace("\n", nl)


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
            raise FormatError(f"{what} field {name!r} must be {expected}, got {shown(bad[0])}")
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
        # One C-level pass decides; the loop only lists the offenders.
        if all(map(isinstance, value, repeat(list))):
            if set(map(type, chain.from_iterable(value))) <= {int}:
                return []
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
