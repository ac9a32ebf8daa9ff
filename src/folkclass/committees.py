"""Classifier committees: margin normalization, summation, and prediction.

Each member classifier contributes a margin per (instance, category).
Because members trained on different sources emit margins on different
scales, each member can first be divided by its single largest margin over
the whole batch; the committee score is then the elementwise sum and the
prediction the argmax with lowest-id tie-break.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import MalformedRecordError
from .vectors import read_pair_lines, write_pair_lines

__all__ = [
    "MarginTable", "normalize_margins", "combine", "predict_committee",
    "predict_committee_batch", "write_margin_lines", "read_margin_lines",
]


@dataclass(frozen=True)
class MarginTable:
    """Margins of one classifier: one row per instance, one column per category."""

    instances: tuple[str, ...]
    categories: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self):
        if self.scores.shape != (len(self.instances), len(self.categories)):
            raise ValueError(
                f"scores shape {self.scores.shape} does not match "
                f"{len(self.instances)} instances x {len(self.categories)} categories")
        if len(set(self.instances)) < len(self.instances):
            raise ValueError("instance ids must be unique")
        if not np.isfinite(self.scores).all():
            raise ValueError("margins must be finite")


def normalize_margins(table: MarginTable) -> tuple[MarginTable, dict]:
    """Divide every margin by the classifier's global maximum margin.

    If that maximum is not positive the maximum absolute margin is used
    instead (flagged in the report); an all-zero table is left unchanged.
    The per-instance argmax is unchanged whenever the global max is positive.
    """
    global_max = float(table.scores.max()) if table.scores.size else 0.0
    degenerate = global_max <= 0.0
    if degenerate:
        divisor = float(np.abs(table.scores).max()) if table.scores.size else 0.0
        if divisor == 0.0:
            divisor = 1.0
    else:
        divisor = global_max
    report = {"divisor": divisor, "degenerate_max": degenerate}
    return MarginTable(table.instances, table.categories,
                       table.scores / divisor), report


class _MemberMismatch(ValueError):
    """Committee member `member` covers other categories or instances than
    member 0.  `naming(names)` words it with member i called names[i], so
    that a caller that knows the members' files can name both."""

    def __init__(self, member: int, what: str, theirs: str = "those"):
        self.member, self.what, self.theirs = member, what, theirs
        super().__init__(self.naming([f"classifier {i}" for i in range(member + 1)]))

    def naming(self, names: Sequence[str]) -> str:
        return f"{names[self.member]}: {self.what} differ from {self.theirs} in {names[0]}"


def combine(inputs: Sequence[MarginTable], normalize: bool = True,
            ) -> tuple[MarginTable, dict]:
    """Sum member margins per (instance, category), optionally normalized first.

    All members must cover the same instances and categories, or
    _MemberMismatch names the first member that does not; instance rows
    are aligned by id to the first member's order.
    """
    if not inputs:
        raise ValueError("need at least one classifier")
    first = inputs[0]
    report: dict = {"normalized": normalize, "members": []}
    total = np.zeros_like(first.scores, dtype=float)
    for idx, table in enumerate(inputs):
        if table.categories != first.categories:
            raise _MemberMismatch(idx, f"categories {table.categories}",
                                  str(first.categories))
        if set(table.instances) != set(first.instances):
            raise _MemberMismatch(idx, "instance ids")
        member_report = {}
        if normalize:
            table, member_report = normalize_margins(table)
        report["members"].append(member_report)
        row_of = {inst: i for i, inst in enumerate(table.instances)}
        total += table.scores[[row_of[inst] for inst in first.instances]]
    return MarginTable(first.instances, first.categories, total), report


def predict_committee(summed: np.ndarray) -> int:
    """Winning category index for one instance's summed margins."""
    return int(np.argmax(summed))


def predict_committee_batch(table: MarginTable) -> list[str]:
    """Winning category label per instance."""
    return [table.categories[predict_committee(row)] for row in table.scores]


def write_margin_lines(table: MarginTable) -> Iterable[str]:
    """Serialize as `instance<TAB>category:score ...` with round-trip precision."""
    return write_pair_lines((inst, zip(table.categories, row))
                            for inst, row in zip(table.instances, table.scores))


def read_margin_lines(lines: Iterable[str]) -> MarginTable:
    """Parse a margin file; every line lists the same categories in order, at least one."""
    records = list(read_pair_lines(lines, str))
    if not records:
        raise ValueError("empty margin file")
    categories = list(records[0][2])
    for line_number, _, pairs in records:
        if not pairs:
            raise MalformedRecordError(line_number, "lists no category:score pair")
        if list(pairs) != categories:
            raise MalformedRecordError(line_number, f"categories differ from {categories}")
    return MarginTable(tuple(inst for _, inst, _ in records), tuple(categories),
                       np.array([list(p.values()) for _, _, p in records], dtype=float))
