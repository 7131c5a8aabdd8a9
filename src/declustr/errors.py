"""Exception types shared across the package.

Every domain failure derives from DeclustrError so callers (notably the CLI)
can map any library error to a single non-zero exit path. Messages show a
rejected value through `shown`, which names an int too long to read by its
bit length: `str` refuses an int of more than 4,300 digits.
"""

# Ints of more bits than this are shown by their bit length: 14,000 bits stay
# under the 4,300 digits Python will print.
SHOWN_BITS = 14_000


def shown(value) -> str:
    """repr(value) for a refusal message; an int of more than SHOWN_BITS bits
    is named by its bit length instead."""
    if isinstance(value, int) and value.bit_length() > SHOWN_BITS:
        return f"an int of {value.bit_length()} bits"
    try:
        return repr(value)
    except ValueError:  # a container holding such an int
        return f"a {type(value).__name__} holding an int too long to show"


class DeclustrError(Exception):
    """Base class for all domain errors raised by this package."""


class ParamError(DeclustrError):
    """Parameters violate an operation's preconditions."""


class BlockSizeError(DeclustrError):
    """A block is not a k-subset of the point set."""


class CoverageError(DeclustrError):
    """Some t-subset of points is not covered exactly lambda times."""

    def __init__(self, subset: tuple, count: int, expected: int):
        self.subset = tuple(subset)
        self.count = count
        self.expected = expected
        super().__init__(
            f"subset {self.subset} appears in {count} blocks, expected {shown(expected)}"
        )


class TooManyErasures(DeclustrError):
    """More columns erased than the code can decode."""


class MismatchError(DeclustrError):
    """Design and parity group are not compatible (size or strength)."""


class UnbalancedGroup(DeclustrError):
    """Per-column read counts differ, so tau is undefined as a single number."""


class TooManyFailures(DeclustrError):
    """More disks failed than the layout's group tolerates."""


class FormatError(DeclustrError):
    """A serialized file is structurally malformed."""


class InvariantError(DeclustrError):
    """A deserialized object violates a semantic invariant."""
