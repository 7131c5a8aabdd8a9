"""Run stats: where a run's time went and what it did, kept only when asked.

`recorder` is None unless a caller installs a Recorder (the CLI does, for
`simulate --stats` and `analyze workload --stats`), so with stats off the
core pays one `if` per phase boundary and reads no clock. The core is timed
only at phase boundaries:
`mark(key)` adds the time since the previous mark, or since `start`, to
phase `key`, and `end(key)` adds the time from `start` to the last mark.
Keys are the benchmark's per-layer names, module.metric. A key ending in
`_s` holds seconds; any other holds a count, or counts by disk, erasure
pattern or walk depth.
"""

from __future__ import annotations

from time import perf_counter

recorder: Recorder | None = None


class Recorder:
    """Phase times and counts of one run."""

    def __init__(self) -> None:
        self.stats: dict = {}
        self._began = self._last = 0.0

    def start(self) -> None:
        """Start an operation's first phase; earlier time is no phase's."""
        self._began = self._last = perf_counter()

    def mark(self, key: str) -> None:
        """End phase `key`: add the time since the last mark or start."""
        now = perf_counter()
        self.stats[key] = self.stats.get(key, 0.0) + now - self._last
        self._last = now

    def end(self, key: str) -> None:
        """Add the operation's time, from start to the last mark, to `key`."""
        self.stats[key] = self.stats.get(key, 0.0) + self._last - self._began

    def add(self, key: str, n: int = 1, by=None) -> None:
        """Add n to count `key`, or to its count for `by` (a disk, an erasure
        pattern or a depth)."""
        if by is None:
            self.stats[key] = self.stats.get(key, 0) + n
        else:
            counts = self.stats.setdefault(key, {})
            counts[by] = counts.get(by, 0) + n

    def report(self) -> dict:
        """The stats as JSON: keys sorted, a pattern's key its columns joined by commas."""
        return {
            key: {
                ",".join(map(str, by)) if isinstance(by, tuple) else str(by): n
                for by, n in sorted(value.items())
            } if isinstance(value, dict) else value
            for key, value in sorted(self.stats.items())
        }
