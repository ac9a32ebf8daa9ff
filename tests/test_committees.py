import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st
import hypothesis.extra.numpy as npst

from folkclass.errors import MalformedRecordError
from folkclass.committees import (MarginTable, combine, normalize_margins,
                                  predict_committee, predict_committee_batch,
                                  read_margin_lines, write_margin_lines)


def table(scores, instances=None, categories=None):
    scores = np.asarray(scores, dtype=float)
    n, k = scores.shape
    return MarginTable(
        instances=tuple(instances or (f"i{j}" for j in range(n))),
        categories=tuple(categories or (f"c{m}" for m in range(k))),
        scores=scores)


WORKED_A = [[1.2, 1.1, 0.6]]
WORKED_B = [[0.5, 1.0, 1.2]]


class TestNormalize:
    def test_division_by_global_max(self):
        normalized, report = normalize_margins(table([[2.0, 4.0]]))
        assert normalized.scores.tolist() == [[0.5, 1.0]]
        assert report == {"divisor": 4.0, "degenerate_max": False}

    def test_all_equal_to_max(self):
        normalized, _ = normalize_margins(table([[3.0, 3.0], [3.0, 3.0]]))
        assert (normalized.scores == 1.0).all()

    def test_idempotent(self):
        once, _ = normalize_margins(table([[2.0, 4.0], [1.0, 0.5]]))
        twice, report = normalize_margins(once)
        assert np.array_equal(once.scores, twice.scores)
        assert report["divisor"] == 1.0

    def test_degenerate_nonpositive_max_uses_absolute(self):
        normalized, report = normalize_margins(table([[-2.0, -4.0]]))
        assert report["degenerate_max"] is True
        assert report["divisor"] == 4.0
        assert normalized.scores.tolist() == [[-0.5, -1.0]]

    def test_all_zero_left_unchanged(self):
        normalized, report = normalize_margins(table([[0.0, 0.0]]))
        assert report["degenerate_max"] is True
        assert normalized.scores.tolist() == [[0.0, 0.0]]

    def test_argmax_preserved_when_max_positive(self):
        rng = np.random.default_rng(5)
        raw = table(rng.normal(size=(20, 4)) + 1.0)
        if raw.scores.max() > 0:
            normalized, _ = normalize_margins(raw)
            assert (raw.scores.argmax(axis=1)
                    == normalized.scores.argmax(axis=1)).all()


class TestCombine:
    def test_worked_example_sums_and_prediction(self):
        summed, _ = combine([table(WORKED_A), table(WORKED_B)], normalize=False)
        assert summed.scores[0] == pytest.approx([1.7, 2.1, 1.8], abs=1e-12)
        # each member alone mispredicts; the committee recovers category #2
        assert int(np.argmax(WORKED_A[0])) == 0
        assert int(np.argmax(WORKED_B[0])) == 2
        assert predict_committee(summed.scores[0]) == 1

    def test_single_classifier_identity(self):
        t = table([[1.0, 2.0], [3.0, 0.5]])
        summed, _ = combine([t], normalize=False)
        assert np.array_equal(summed.scores, t.scores)

    def test_zero_margin_member_changes_nothing(self):
        t = table([[1.0, 2.0]])
        zeros = table([[0.0, 0.0]])
        summed, _ = combine([t, zeros], normalize=False)
        assert np.array_equal(summed.scores, t.scores)

    def test_member_permutation_invariance(self):
        a, b = table([[1.0, 0.2]]), table([[0.1, 2.0]])
        ab, _ = combine([a, b], normalize=False)
        ba, _ = combine([b, a], normalize=False)
        assert np.array_equal(ab.scores, ba.scores)

    def test_mismatched_categories_rejected(self):
        with pytest.raises(ValueError):
            combine([table([[1.0, 2.0]]),
                     table([[1.0, 2.0]], categories=("x", "y"))])

    def test_mismatched_instances_rejected(self):
        with pytest.raises(ValueError):
            combine([table([[1.0, 2.0]]),
                     table([[1.0, 2.0]], instances=("other",))])

    def test_rows_aligned_by_instance_id(self):
        a = table([[1.0, 0.0], [0.0, 1.0]], instances=("x", "y"))
        b = table([[0.0, 1.0], [1.0, 0.0]], instances=("y", "x"))
        summed, _ = combine([a, b], normalize=False)
        # b's rows must be re-ordered to a's (x, y) before summation
        assert summed.scores.tolist() == [[2.0, 0.0], [0.0, 2.0]]

    def test_empty_committee_rejected(self):
        with pytest.raises(ValueError):
            combine([])

    def test_normalized_single_member_keeps_predictions(self):
        rng = np.random.default_rng(3)
        t = table(rng.normal(size=(30, 5)) + 2.0)
        summed, _ = combine([t], normalize=True)
        assert (summed.scores.argmax(axis=1) == t.scores.argmax(axis=1)).all()


class TestPredict:
    def test_tie_goes_to_lowest_id(self):
        assert predict_committee(np.array([1.0, 1.0, 1.0])) == 0

    def test_batch_returns_labels(self):
        t = table([[0.0, 5.0], [5.0, 0.0]])
        assert predict_committee_batch(t) == ["c1", "c0"]

    @given(npst.arrays(np.float64, (4, 3),
                       elements=st.floats(-100, 100)))
    def test_member_order_never_changes_prediction(self, scores):
        a, b = table(scores), table(scores * 0.5 + 1.0)
        ab, _ = combine([a, b], normalize=False)
        ba, _ = combine([b, a], normalize=False)
        assert predict_committee_batch(ab) == predict_committee_batch(ba)


class TestMarginLines:
    def test_round_trip(self):
        t = table([[1.25, -0.5], [0.125, 3.0]], categories=("web", "books"))
        back = read_margin_lines(list(write_margin_lines(t)))
        assert back.instances == t.instances
        assert back.categories == t.categories
        assert np.array_equal(back.scores, t.scores)

    def test_inconsistent_category_sets_rejected(self):
        lines = ["i0\ta:1.0 b:2.0", "i1\ta:1.0 c:2.0"]
        with pytest.raises(ValueError):
            read_margin_lines(lines)

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError):
            read_margin_lines([])


# instance ids and category labels: no whitespace or line-breaking characters
_TOKEN = st.text(st.characters(codec="ascii", categories=("L", "N", "P", "S")),
                 min_size=1, max_size=8)


class TestMarginLineCodec:
    @given(st.lists(_TOKEN, min_size=1, max_size=5, unique=True),
           st.lists(_TOKEN | _TOKEN.map(lambda t: f"{t}:{t}"), min_size=1,
                    max_size=4, unique=True),
           st.data())
    def test_round_trip(self, instances, categories, data):
        scores = data.draw(npst.arrays(
            float, (len(instances), len(categories)),
            elements=st.floats(allow_nan=False, allow_infinity=False)))
        t = MarginTable(tuple(instances), tuple(categories), scores)
        back = read_margin_lines(list(write_margin_lines(t)))
        assert back.instances == t.instances
        assert back.categories == t.categories
        assert np.array_equal(back.scores, t.scores)

    def test_labels_split_on_last_colon(self):
        back = read_margin_lines(["i0\tweb:design:1.5 books:-2.0"])
        assert back.categories == ("web:design", "books")
        assert back.scores.tolist() == [[1.5, -2.0]]

    def test_changed_category_set_names_line(self):
        lines = ["i0\ta:1.0 b:2.0", "i1\ta:1.0 c:2.0"]
        with pytest.raises(MalformedRecordError) as err:
            read_margin_lines(lines)
        assert err.value.line_number == 2

    def test_bad_score_names_line(self):
        with pytest.raises(MalformedRecordError, match="line 3"):
            read_margin_lines(["i0\ta:1.0", "", "i1\ta:one"])

    @pytest.mark.parametrize("lines,line_number", [
        (["i0\t"], 1), (["i0\t  ", "i1\t"], 1), (["i0\ta:1.0", "i1\t"], 2)])
    def test_line_without_categories_names_line(self, lines, line_number):
        with pytest.raises(MalformedRecordError, match="no category") as err:
            read_margin_lines(lines)
        assert err.value.line_number == line_number

    def test_repeated_category_in_a_line_rejected(self):
        with pytest.raises(MalformedRecordError, match="line 1"):
            read_margin_lines(["i0\ta:1.0 a:2.0"])

    def test_duplicate_instance_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            read_margin_lines(["i0\ta:1.0 b:0.0", "i0\ta:0.0 b:1.0"])
