"""The value records behave as the frozen dataclasses they replaced:
immutable, compared and hashed by field values, and copyable."""

import copy
import pickle

import pytest

from folkclass.behavior import DescriptivenessResult, UserProfile, UserSplit
from folkclass.committees import MarginTable
from folkclass.folksonomy import Bookmark, ingest_bookmarks
from folkclass.generator import RegimeConfig
from folkclass.labels import CategoryAssignment
from folkclass.records import Record
from folkclass.representation import RepresentationScheme, TextPipelineConfig
from folkclass.vectors import FeatureVector, build_vocabulary

RECORDS = [
    ingest_bookmarks([Bookmark("u", "r", ("a",))]),
    FeatureVector({0: 1.0}, 2),
    build_vocabulary([["a", "b"]]),
    MarginTable(("i0",), ("a", "b"), ((1.0, -2.0),)),
    CategoryAssignment("r", "top", "second"),
    RepresentationScheme.parse("ranks-top5"),
    TextPipelineConfig(frozenset({"the"}), stem=True),
    RegimeConfig("none", n_users=3, bookmarks_per_user=(1, 2)),
    UserProfile("u", 1.0, 1.0, 0.0, 1, 1, 1),
    UserSplit("tpp", 50.0, ("u",), ("u",), 1.0, 1.0),
    DescriptivenessResult(0.5, 2, ("r",)),
]
CHECKED = [r for r in RECORDS if isinstance(r, Record)]


def ids(record):
    return type(record).__name__


@pytest.mark.parametrize("record", RECORDS, ids=ids)
def test_fields_reject_assignment_and_deletion(record):
    for name in type(record).__match_args__:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value


@pytest.mark.parametrize("record", CHECKED, ids=ids)
def test_checked_record_is_a_value(record):
    values = tuple(getattr(record, name) for name in type(record).__match_args__)
    twin = type(record)(*values)
    assert twin == record and twin is not record
    assert record != values     # only its own class equals it
    assert repr(record) == f"{type(record).__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(type(record).__match_args__, values)) + ")"
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))


def test_hash_is_the_field_tuples():
    scheme = RepresentationScheme.parse("weighted-top5")
    assert hash(scheme) == hash((scheme.weighting, scheme.selection, 5))
    assert {scheme: 1}[RepresentationScheme.parse("weighted-top5")] == 1
    with pytest.raises(TypeError, match="unhashable"):
        hash(FeatureVector({0: 1.0}, 2))    # a dict field, as for the dataclass
