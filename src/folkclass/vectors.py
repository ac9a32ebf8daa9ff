"""Sparse feature vectors and vocabularies.

A feature vector is a sparse map from integer feature id to a real weight;
zero weights are never stored.  A vocabulary gives the dense id space
(0..n-1, assigned in lexicographic token order) together with per-token
document frequencies.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping
from itertools import chain

from .errors import MalformedRecordError
from .records import Record

__all__ = ["FeatureVector", "Vocabulary", "build_vocabulary",
           "write_pair_lines", "read_pair_lines",
           "write_vector_lines", "read_vector_lines"]


class FeatureVector(Record):
    """Sparse vector: feature id -> weight, with the vocabulary size it lives in."""

    __slots__ = ("entries", "dim")

    def __init__(self, entries: dict[int, float], dim: int):
        for fid, w in entries.items():
            if w == 0.0:
                raise ValueError(f"zero weight stored for feature {fid}")
            if not (0 <= fid < dim):
                raise ValueError(f"feature id {fid} outside dimensionality {dim}")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "dim", dim)

    @staticmethod
    def _of(entries: dict[int, float], dim: int) -> "FeatureVector":
        """A vector whose caller guarantees every id in 0..dim-1 and every
        weight non-zero, as the vectorizer pass does: built unchecked."""
        fv = object.__new__(FeatureVector)
        _set_entries(fv, entries)
        _set_dim(fv, dim)
        return fv

    @staticmethod
    def from_items(items: Iterable[tuple[int, float]], dim: int) -> "FeatureVector":
        """Build a vector, silently dropping zero weights."""
        return FeatureVector({fid: w for fid, w in items if w != 0.0}, dim)

    def dot(self, other: Mapping[int, float]) -> float:
        a, b = self.entries, other
        if len(a) > len(b):
            a, b = b, a
        return sum(w * b[fid] for fid, w in a.items() if fid in b)

    def norm(self) -> float:
        return math.sqrt(sum(w * w for w in self.entries.values()))

    def __len__(self) -> int:
        return len(self.entries)


_set_entries, _set_dim = FeatureVector.entries.__set__, FeatureVector.dim.__set__


class Vocabulary(Record):
    """Dense token <-> id mapping with document frequencies.

    Ids are assigned 0..n-1 in lexicographic token order so that two runs
    over the same corpus produce identical feature spaces.
    """

    __slots__ = ("token_to_id", "id_to_token", "doc_frequency", "n_documents")

    def __init__(self, token_to_id: dict[str, int], id_to_token: list[str],
                 doc_frequency: dict[str, int], n_documents: int):
        object.__setattr__(self, "token_to_id", token_to_id)
        object.__setattr__(self, "id_to_token", id_to_token)
        object.__setattr__(self, "doc_frequency", doc_frequency)
        object.__setattr__(self, "n_documents", n_documents)

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def id_of(self, token: str) -> int:
        return self.token_to_id[token]

    def idf(self, token: str) -> float:
        """ln(|D| / df(token)); 0 for a token present in every document."""
        return math.log(self.n_documents / self.doc_frequency[token])


def build_vocabulary(documents: Iterable[Iterable[str]],
                     min_df_fraction: float = 0.0) -> Vocabulary:
    """Build a vocabulary from token collections, one collection per document.

    Tokens occurring in fewer than ceil(min_df_fraction * |D|) documents are
    excluded.  Repeated tokens within one document count once toward the
    document frequency.
    """
    if not 0.0 <= min_df_fraction < 1.0:
        raise ValueError(f"min_df_fraction must be in [0, 1), got {min_df_fraction}")
    documents = list(documents)
    df = Counter(chain.from_iterable(map(set, documents)))
    threshold = math.ceil(min_df_fraction * len(documents))
    kept = sorted(t for t, f in df.items() if f >= threshold)
    return Vocabulary(
        token_to_id={t: i for i, t in enumerate(kept)},
        id_to_token=kept,
        doc_frequency={t: df[t] for t in kept},
        n_documents=len(documents),
    )


def write_pair_lines(records: Iterable[tuple[str, Iterable[tuple]]]) -> Iterator[str]:
    """Serialize `key<TAB>label:value ...` lines with round-trip precision."""
    for key, pairs in records:
        yield f"{key}\t" + " ".join(f"{label}:{float(v)!r}" for label, v in pairs)


def read_pair_lines(lines: Iterable[str], label_type: Callable[[str], object],
                    ) -> Iterator[tuple[int, str, dict]]:
    """Parse `key<TAB>label:value ...` lines into (line number, key, {label: value}).

    Blank lines are skipped.  A label may hold colons but no whitespace.  A
    line without a TAB, with a bad pair, with a non-finite value (nan, inf)
    or with a repeated label raises MalformedRecordError.
    """
    for line_number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        key, tab, rest = line.rstrip("\n").partition("\t")
        if not tab:
            raise MalformedRecordError(line_number, "expected key<TAB>label:value ...")
        fields = rest.split()
        pairs = {}
        for pair in fields:
            label, colon, value = pair.rpartition(":")
            try:
                if not colon:
                    raise ValueError
                parsed, number = label_type(label), float(value)
            except ValueError:
                raise MalformedRecordError(
                    line_number, f"expected label:value, got {pair!r}") from None
            if not math.isfinite(number):
                raise MalformedRecordError(line_number, f"non-finite value in {pair!r}")
            pairs[parsed] = number
        if len(pairs) < len(fields):
            raise MalformedRecordError(line_number, "a label repeats")
        yield line_number, key, pairs


def write_vector_lines(vectors: Mapping[str, FeatureVector]) -> Iterable[str]:
    """Serialize as `key<TAB>id:weight id:weight ...` with round-trip precision."""
    return write_pair_lines((key, sorted(fv.entries.items()))
                            for key, fv in vectors.items())


def read_vector_lines(lines: Iterable[str],
                      dim: int | None = None) -> dict[str, FeatureVector]:
    """Parse vector lines; infers dimensionality as max id + 1 when not given.

    A negative feature id, or one >= `dim` when `dim` is given, raises
    MalformedRecordError naming its line.
    """
    parsed = []
    for line_number, key, pairs in read_pair_lines(lines, int):
        if pairs and min(pairs) < 0:
            raise MalformedRecordError(line_number, f"negative feature id {min(pairs)}")
        if pairs and dim is not None and max(pairs) >= dim:
            raise MalformedRecordError(
                line_number, f"feature id {max(pairs)} outside dimensionality {dim}")
        parsed.append((key, pairs))
    if dim is None:
        dim = max((max(e) for _, e in parsed if e), default=-1) + 1
    return {key: FeatureVector.from_items(entries.items(), dim)
            for key, entries in parsed}
