"""Classifier committees: margin normalization, summation, and prediction.

Each member classifier contributes a margin per (instance, category).
Because members trained on different sources emit margins on different
scales, each member can first be divided by its single largest margin over
the whole batch; the committee score is then the elementwise sum and the
prediction the argmax with lowest-id tie-break.  Tables hold plain
floats, so a committee process never loads numpy.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain, repeat
from math import isfinite
from operator import add, indexOf, truediv

from .errors import MalformedRecordError
from .records import Record
from .vectors import read_pair_lines, write_pair_lines

__all__ = [
    "MarginTable", "normalize_margins", "combine", "predict_committee",
    "predict_committee_batch", "write_margin_lines", "read_margin_lines",
]


class MarginTable(Record):
    """Margins of one classifier: one row per instance, one value per category
    (tuples of floats when built here; any rows, such as `ndarray.tolist()`)."""

    __slots__ = ("instances", "categories", "scores")

    def __init__(self, instances: tuple[str, ...], categories: tuple[str, ...],
                 scores: Sequence[Sequence[float]]):
        n, k = len(instances), len(categories)
        widths = set(map(len, scores)) - {k}
        if len(scores) != n or widths:
            raise ValueError(f"scores shape {(len(scores), min(widths, default=k))} "
                             f"does not match {n} instances x {k} categories")
        if len(set(instances)) < n:
            raise ValueError("instance ids must be unique")
        if not all(map(isfinite, chain.from_iterable(scores))):
            raise ValueError("margins must be finite")
        object.__setattr__(self, "instances", instances)
        object.__setattr__(self, "categories", categories)
        object.__setattr__(self, "scores", scores)


def normalize_margins(table: MarginTable) -> tuple[MarginTable, dict]:
    """Divide every margin by the classifier's global maximum margin.

    If that maximum is not positive the maximum absolute margin is used
    instead (flagged in the report); an all-zero table is left unchanged.
    The per-instance argmax is unchanged whenever the global max is positive.
    """
    report = _normalization(list(chain.from_iterable(table.scores)))
    return MarginTable(table.instances, table.categories, tuple(
        tuple(map(truediv, row, repeat(report["divisor"]))) for row in table.scores)), report


def _normalization(margins: list[float]) -> dict:
    """normalize_margins's report, from all of one table's margins."""
    global_max = max(margins, default=0.0)
    if global_max > 0.0:
        return {"divisor": global_max, "degenerate_max": False}
    return {"divisor": max(map(abs, margins), default=0.0) or 1.0, "degenerate_max": True}


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
    n, k = len(first.instances), len(first.categories)
    # n * k margins per member, flat in the first member's instance order,
    # summed in member order from zeros, so -0.0 in every member sums to 0.0
    total = [0.0] * (n * k)
    for idx, table in enumerate(inputs):
        if table.categories != first.categories:
            raise _MemberMismatch(idx, f"categories {table.categories}",
                                  str(first.categories))
        if set(table.instances) != set(first.instances):
            raise _MemberMismatch(idx, "instance ids")
        row_of = dict(zip(table.instances, table.scores))
        margins = list(chain.from_iterable(map(row_of.__getitem__, first.instances)))
        member_report = {}
        if normalize:
            member_report = _normalization(margins)
            margins = map(truediv, margins, repeat(member_report["divisor"]))
        report["members"].append(member_report)
        total = list(map(add, total, margins))
    rows = tuple(zip(*[iter(total)] * k)) if k else ((),) * n
    return MarginTable(first.instances, first.categories, rows), report


def predict_committee(summed: Sequence[float]) -> int:
    """Winning category index for one instance's summed margins; lowest wins a tie."""
    return indexOf(summed, max(summed))


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
                       tuple(tuple(p.values()) for _, _, p in records))
