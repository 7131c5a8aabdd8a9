"""Seeded fuzzers for HorizontalCode and ParityGroup construction.

Valid codes have one to three fields replaced; valid arrangement families
have rows duplicated or dropped, and labels renamed, swapped, cut off or
appended. Construction may refuse a mutant only with a ParamError. A code it
accepts is the one its kind's factory builds and round-trips a codeword; a
group it accepts builds a layout on a matching complete design, and a sweep
of every single failure on that layout recovers every set.
"""

import random

import pytest

from declustr import (
    HorizontalCode,
    ParityGroup,
    build_layout,
    complete_design,
    exhaustive_verify,
    group_family,
    rdp_code,
    rs_code,
)
from declustr.erasure_codes import CODE_KINDS
from declustr.errors import ParamError

FIELD_VALUES = (
    None, True, False, 2.0, "", "rs", "rdp", "RS", "xyz", ["rs"],
    -1, 0, 1, 2, 3, 4, 5, 6, 255, 256, 10**30, 10**400,
)
LABELS = ("D", "P1", "P2", "P3", "P0", "p1", "P", "", None, 1, ("P1",))

# The rows that rs(4,2) groups over complete_design(6,4,3) once accepted:
# reconstruction_workload and materialize answered silently or raised
# IndexError, and the sweep raised TooManyErasures, ValueError or IndexError.
MALFORMED_ROWS = [
    ("D", "P1", "P1", "P2"),
    ("D", "D", "P1", "P1"),
    ("D", "P1"),
    ("D", "D", "P1", "P3"),
]


def _construct(make, *args):
    """make(*args), or None if it refused with a ParamError."""
    try:
        return make(*args)
    except ParamError:
        return None
    except Exception as exc:  # any other escape is the failure being looked for
        pytest.fail(f"{make.__name__}{args!r} escaped as {type(exc).__name__}: {exc}")


def test_code_construction_refuses_mutants_with_param_errors():
    rng = random.Random("code fields")
    bases = [rdp_code(3), rdp_code(5), rs_code(4, 2), rs_code(5, 1), rs_code(6, 3)]
    accepted = 0
    for _ in range(600):
        base = rng.choice(bases)
        fields = [base.kind, base.k, base.delta, base.r]
        for index in rng.sample(range(4), rng.randint(1, 3)):
            fields[index] = rng.choice(FIELD_VALUES)
        code = _construct(HorizontalCode, *fields)
        if code is None:
            continue
        accepted += 1
        make, names = CODE_KINDS[code.kind]
        assert make(*(getattr(code, name) for name in names)) == code, fields
        data = [[rng.randrange(256) for _ in range(code.k - code.delta)] for _ in range(code.r)]
        codeword = code.encode(data)
        erased = tuple(range(code.delta))
        assert code.decode(codeword, erased)[0] == codeword, fields
    assert 0 < accepted < 600


def _mutate_rows(rows, rng):
    """A copy of rows with one to three rows or labels changed."""
    rows = [list(row) for row in rows]
    for _ in range(rng.randint(1, 3)):
        if not rows:
            break
        i = rng.randrange(len(rows))
        row = rows[i]
        change = rng.choice(("duplicate", "drop", "rename", "swap", "shorten", "lengthen"))
        if change == "duplicate":
            rows.insert(rng.randrange(len(rows) + 1), list(row))
        elif change == "drop":
            del rows[i]
        elif change == "rename" and row:
            row[rng.randrange(len(row))] = rng.choice(LABELS)
        elif change == "swap" and row:
            a, b = rng.randrange(len(row)), rng.randrange(len(row))
            row[a], row[b] = row[b], row[a]
        elif change == "shorten" and row:
            del row[rng.randrange(len(row))]
        elif change == "lengthen":
            row.insert(rng.randrange(len(row) + 1), rng.choice(LABELS))
    return tuple(map(tuple, rows))


def _check_group(code, rows, design):
    """Build the group; if accepted, it must sweep clean at s=1 on design."""
    group = _construct(ParityGroup, code, rows)
    if group is None:
        return False
    summary = exhaustive_verify(build_layout(group, design), 1)
    assert summary.passed == summary.total == design.n, rows
    return True


@pytest.mark.parametrize("rows", MALFORMED_ROWS, ids=["P1 twice", "P1 P1", "short", "P3"])
def test_groups_once_accepted_are_refused(rows):
    assert not _check_group(rs_code(4, 2), (rows,), complete_design(6, 4, 3))


def test_group_construction_refuses_mutants_with_param_errors():
    rng = random.Random("arrangement rows")
    cases = [
        (rs_code(4, 2), complete_design(6, 4, 3)),
        (rdp_code(3), complete_design(6, 4, 3)),
        (rs_code(4, 1), complete_design(5, 4, 2)),
        (rs_code(3, 2), complete_design(5, 3, 3)),
    ]
    accepted = 0
    for _ in range(400):
        code, design = rng.choice(cases)
        full = group_family(code, "full").extended_rows
        rows = _mutate_rows(rng.sample(full, rng.randint(1, 3)), rng)
        accepted += _check_group(code, rows, design)
    assert 0 < accepted < 400
