"""Expert category labels, their file format and their views at one level.

Apart from the bookmark index, so that reading labels does not load it."""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from typing import NamedTuple

from .choices import LEVELS
from .errors import MalformedRecordError

__all__ = ["CategoryAssignment", "check_level", "label_map", "parse_category_lines",
           "prune_small_categories"]


def check_level(level: str) -> None:
    """Raise ValueError unless `level` is one of LEVELS."""
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")


class CategoryAssignment(NamedTuple):
    """Expert label for a resource: top-level category and optional second level."""

    resource: str
    top: str
    second: str | None = None

    def at_level(self, level: str) -> str | None:
        """The category at `level` (one of LEVELS); None if there is none."""
        check_level(level)
        return self.top if level == "top" else self.second


def label_map(labels: Iterable[CategoryAssignment], level: str) -> dict[str, str]:
    """Resource -> category at `level`, for every assignment that has one."""
    return {a.resource: c for a in labels if (c := a.at_level(level)) is not None}


def prune_small_categories(labels: Iterable[CategoryAssignment],
                           level: str,
                           min_resources: int,
                           ) -> tuple[list[CategoryAssignment], dict]:
    """Drop categories at the given level with fewer than min_resources resources.

    Resources under a dropped category are removed with it.  Returns the
    surviving assignments plus a removal report.
    """
    check_level(level)
    if min_resources < 1:
        raise ValueError(f"min_resources must be >= 1, got {min_resources}")
    labels = list(labels)
    counts = Counter(c for a in labels if (c := a.at_level(level)) is not None)
    dropped = {c for c, n in counts.items() if n < min_resources}
    kept = [a for a in labels if a.at_level(level) not in dropped]
    removed = [a.resource for a in labels if a.at_level(level) in dropped]
    return kept, {"level": level, "min_resources": min_resources,
                  "dropped_categories": sorted(dropped), "removed_resources": removed}


def parse_category_lines(lines: Iterable[str]) -> Iterator[CategoryAssignment]:
    """Parse `resource<TAB>top<TAB>second` lines; the second level may be empty."""
    for line_number, line in enumerate(lines, 1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) not in (2, 3) or not parts[0] or not parts[1]:
            raise MalformedRecordError(
                line_number, "expected resource<TAB>top[<TAB>second]")
        second = parts[2] if len(parts) == 3 and parts[2] else None
        yield CategoryAssignment(resource=parts[0], top=parts[1], second=second)
