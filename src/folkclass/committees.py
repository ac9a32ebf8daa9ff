"""Classifier committees: margin normalization, summation, and prediction.

Each member classifier contributes a margin per (instance, category).
Because members trained on different sources emit margins on different
scales, each member can first be divided by its single largest margin over
the whole batch; the committee score is then the elementwise sum and the
prediction the argmax with lowest-id tie-break.  Members hold finite
margins, so a non-finite sum means a quotient or the sum overflowed, and
the member at fault is named.  Tables hold plain floats, so a committee
process never loads numpy.
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
    "MarginTable", "combine", "predict_committee",
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


def _normalization(margins: list[float]) -> dict:
    """A member's divisor: its global maximum margin, else (flagged) its largest
    |margin|, else 1 for an all-zero member.  A positive maximum keeps every
    instance's argmax."""
    global_max = max(margins, default=0.0)
    if global_max > 0.0:
        return {"divisor": global_max, "degenerate_max": False}
    return {"divisor": max(map(abs, margins), default=0.0) or 1.0, "degenerate_max": True}


class _MemberError(ValueError):
    """Committee member `member` is at fault, as `fault` says (against member 0
    if `in_first`).  `naming(names)` words it with member i called names[i],
    so that a caller that knows the members' files can name them."""

    def __init__(self, member: int, fault: str, in_first: bool = False):
        self.member, self.fault, self.in_first = member, fault, in_first
        super().__init__(self.naming([f"classifier {i}" for i in range(member + 1)]))

    def naming(self, names: Sequence[str]) -> str:
        against = f" in {names[0]}" if self.in_first else ""
        return f"{names[self.member]}: {self.fault}{against}"


def combine(inputs: Sequence[MarginTable], normalize: bool = True,
            ) -> tuple[MarginTable, dict]:
    """Sum member margins per (instance, category), each member divided by its
    `_normalization` divisor first if `normalize`.

    Rows are aligned by instance id to the first member's order.  A member
    that covers other instances or categories than the first, or whose
    margins overflow the sum, raises _MemberError naming it.
    """
    if not inputs:
        raise ValueError("need at least one classifier")
    first = inputs[0]
    total, report = _summed(inputs, normalize)
    k = len(first.categories)
    rows = tuple(zip(*[iter(total)] * k)) if k else ((),) * len(first.instances)
    try:
        return MarginTable(first.instances, first.categories, rows), report
    except ValueError:   # the members are finite, so the sum overflowed
        _summed(inputs, normalize, check=True)
        raise


def _summed(inputs: Sequence[MarginTable], normalize: bool,
            check: bool = False) -> tuple[list[float], dict]:
    """combine's sum, flat, and its report; with `check`, the first member
    after which the sum is not finite raises _MemberError."""
    first = inputs[0]
    report: dict = {"normalized": normalize, "members": []}
    # n * k margins per member, flat in the first member's instance order,
    # summed in member order from zeros, so -0.0 in every member sums to 0.0
    total = [0.0] * (len(first.instances) * len(first.categories))
    for idx, table in enumerate(inputs):
        if table.categories != first.categories:
            raise _MemberError(idx, f"categories {table.categories} differ from "
                                    f"{first.categories}", in_first=True)
        if set(table.instances) != set(first.instances):
            raise _MemberError(idx, "instance ids differ from those", in_first=True)
        row_of = dict(zip(table.instances, table.scores))
        # as Python floats: a numpy scalar's overflow would warn before it is named
        margins = list(map(float, chain.from_iterable(map(row_of.__getitem__,
                                                          first.instances))))
        member_report = _normalization(margins) if normalize else {}
        if normalize:
            margins = map(truediv, margins, repeat(member_report["divisor"]))
        report["members"].append(member_report)
        total = list(map(add, total, margins))
        if check and not all(map(isfinite, total)):
            divided = f" divided by its divisor {member_report['divisor']!r}" if normalize else ""
            raise _MemberError(idx, f"margins{divided} overflow the committee sum")
    return total, report


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
