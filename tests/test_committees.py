import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st
import hypothesis.extra.numpy as npst

from folkclass.errors import MalformedRecordError
from folkclass.committees import (MarginTable, _MemberError, combine,
                                  predict_committee, predict_committee_batch,
                                  read_margin_lines, write_margin_lines)


def table(scores, instances=None, categories=None):
    n, k = len(scores), len(scores[0])
    return MarginTable(
        instances=tuple(instances or (f"i{j}" for j in range(n))),
        categories=tuple(categories or (f"c{m}" for m in range(k))),
        scores=tuple(map(tuple, scores)))


WORKED_A = [[1.2, 1.1, 0.6]]
WORKED_B = [[0.5, 1.0, 1.2]]


class TestTableChecks:
    @pytest.mark.parametrize("scores,message", [
        ([[1.0, 2.0, 3.0]], r"scores shape \(1, 3\) does not match 1 instances x 2 categories"),
        ([[1.0, 2.0], [3.0, 4.0]],
         r"scores shape \(2, 2\) does not match 1 instances x 2 categories"),
        ([[1.0, float("inf")]], "margins must be finite"),
        ([[float("nan"), 0.0]], "margins must be finite")],
        ids=["wide-row", "extra-row", "inf", "nan"])
    def test_rejected_with_message(self, scores, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MarginTable(("i0",), ("a", "b"), np.array(scores))
        with pytest.raises(ValueError, match=f"^{message}$"):
            MarginTable(("i0",), ("a", "b"), scores)

    def test_built_from_a_2d_ndarray(self):
        scores = np.array([[1.0, -2.0], [0.5, 3.0]])
        t = MarginTable(("i0", "i1"), ("a", "b"), scores)
        assert t.scores is scores
        assert predict_committee_batch(t) == ["a", "b"]

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match=r"^scores shape \(2, 1\) does not match"):
            MarginTable(("i0", "i1"), ("a", "b"), [[1.0, 2.0], [3.0]])


def normalized(scores):
    """One member through `combine`: the normalized table and the member's report."""
    summed, report = combine([table(scores)])
    return summed, report["members"][0]


class TestNormalize:
    def test_division_by_global_max(self):
        summed, report = normalized([[2.0, 4.0]])
        assert summed.scores == ((0.5, 1.0),)
        assert report == {"divisor": 4.0, "degenerate_max": False}

    def test_all_equal_to_max(self):
        summed, _ = normalized([[3.0, 3.0], [3.0, 3.0]])
        assert summed.scores == ((1.0, 1.0), (1.0, 1.0))

    def test_idempotent(self):
        once, _ = normalized([[2.0, 4.0], [1.0, 0.5]])
        twice, report = normalized(once.scores)
        assert once.scores == twice.scores
        assert report["divisor"] == 1.0

    def test_degenerate_nonpositive_max_uses_absolute(self):
        summed, report = normalized([[-2.0, -4.0]])
        assert report["degenerate_max"] is True
        assert report["divisor"] == 4.0
        assert summed.scores == ((-0.5, -1.0),)

    def test_all_zero_left_unchanged(self):
        summed, report = normalized([[0.0, 0.0]])
        assert report["degenerate_max"] is True
        assert summed.scores == ((0.0, 0.0),)

    def test_argmax_preserved_when_max_positive(self):
        rng = np.random.default_rng(5)
        raw = (rng.normal(size=(20, 4)) + 1.0).tolist()
        if max(map(max, raw)) > 0:
            summed, _ = normalized(raw)
            assert (np.argmax(raw, axis=1) == np.argmax(summed.scores, axis=1)).all()


class TestOverflow:
    """Finite members whose quotients or sum overflow name the member at fault."""

    # two draws of TestSumsAsNumpy that overflowed; numpy prints the first
    # maximum, 2 / sys.float_info.max, as 1.11253693e-308
    @pytest.mark.parametrize("scores,divisor", [
        ([[1.1125369292536007e-308, -2.0]], "1.1125369292536007e-308"),
        ([[-1.0, 5e-324]], "5e-324")],
        ids=["subnormal-max", "smallest-max"])
    @pytest.mark.parametrize("position", [0, 1])
    def test_normalized_quotients(self, scores, divisor, position):
        members = [table([[1.0, 0.5]])] * position + [table(scores)]
        with pytest.raises(_MemberError) as err:
            combine(members)
        assert err.value.member == position
        assert str(err.value) == (f"classifier {position}: margins divided by its "
                                  f"divisor {divisor} overflow the committee sum")

    def test_unnormalized_sum(self):
        members = [table([[0.0, 1.0]]), table([[1e308, 0.0]]), table([[1e308, 0.0]])]
        with pytest.raises(_MemberError) as err:
            combine(members, normalize=False)
        assert err.value.member == 2
        assert err.value.naming(["a", "b", "c"]) == "c: margins overflow the committee sum"

    def test_ndarray_rows(self):
        # numpy scalars would warn on the overflowing quotient before it is named
        with pytest.raises(_MemberError) as err:
            combine([MarginTable(("i0",), ("a", "b"),
                                 np.array([[1.1125369292536007e-308, -2.0]]))])
        assert err.value.member == 0
        rows = [[0.1, -2.5], [3.0, 1e-300]]
        as_arrays, _ = combine([MarginTable(("i0", "i1"), ("a", "b"), np.array(rows))] * 2)
        assert as_arrays == combine([table(rows, categories=("a", "b"))] * 2)[0]


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
        assert summed.scores == t.scores

    def test_zero_margin_member_changes_nothing(self):
        t = table([[1.0, 2.0]])
        zeros = table([[0.0, 0.0]])
        summed, _ = combine([t, zeros], normalize=False)
        assert summed.scores == t.scores

    def test_member_permutation_invariance(self):
        a, b = table([[1.0, 0.2]]), table([[0.1, 2.0]])
        ab, _ = combine([a, b], normalize=False)
        ba, _ = combine([b, a], normalize=False)
        assert ab.scores == ba.scores

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
        assert summed.scores == ((2.0, 0.0), (0.0, 2.0))

    def test_empty_committee_rejected(self):
        with pytest.raises(ValueError):
            combine([])

    def test_normalized_single_member_keeps_predictions(self):
        rng = np.random.default_rng(3)
        t = table((rng.normal(size=(30, 5)) + 2.0).tolist())
        summed, _ = combine([t], normalize=True)
        assert (np.argmax(summed.scores, axis=1) == np.argmax(t.scores, axis=1)).all()


def numpy_committee(arrays, orders, normalize):
    """The committee sum as a numpy accumulator adds it: every member, normalized
    by its global max (else its largest |margin|, else 1), in member order.
    Member t's row r is instance orders[t][r]; the sum's row j is instance j.
    Returns the sum and None, or, if numpy overflows dividing or adding member
    t, None and t."""
    total = np.zeros_like(arrays[0])
    with np.errstate(over="raise", invalid="raise"):
        for member, (scores, order) in enumerate(zip(arrays, orders)):
            try:
                if normalize:
                    divisor = scores.max() if scores.max() > 0 else np.abs(scores).max() or 1.0
                    scores = scores / divisor
                total += scores[np.argsort(order)]
            except FloatingPointError:
                return None, member
    return total, None


class TestSumsAsNumpy:
    @given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 4), st.booleans(),
           st.data())
    def test_bit_for_bit(self, n, k, members, normalize, data):
        """Rows given in any instance order sum to numpy's bytes, -0.0 included;
        where numpy overflows, the member it overflows at is named."""
        margins = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0])
        arrays = [data.draw(npst.arrays(np.float64, (n, k), elements=margins))
                  for _ in range(members)]
        orders = [data.draw(st.permutations(range(n))) for _ in range(members)]
        tables = [MarginTable(tuple(f"i{j}" for j in order), tuple(f"c{m}" for m in range(k)),
                              scores.tolist()) for scores, order in zip(arrays, orders)]
        expected, at_fault = numpy_committee(arrays, orders, normalize)
        if at_fault is not None:
            with pytest.raises(_MemberError, match="overflow the committee sum$") as err:
                combine(tables, normalize=normalize)
            assert err.value.member == at_fault
            return
        summed, _ = combine(tables, normalize=normalize)
        assert summed.instances == tables[0].instances
        assert np.array(summed.scores).tobytes() == expected[list(orders[0])].tobytes()


class TestPredict:
    def test_tie_goes_to_lowest_id(self):
        assert predict_committee((1.0, 1.0, 1.0)) == 0

    def test_batch_returns_labels(self):
        t = table([[0.0, 5.0], [5.0, 0.0]])
        assert predict_committee_batch(t) == ["c1", "c0"]

    @given(npst.arrays(np.float64, (4, 3),
                       elements=st.floats(-100, 100)))
    def test_member_order_never_changes_prediction(self, scores):
        a, b = table(scores.tolist()), table((scores * 0.5 + 1.0).tolist())
        ab, _ = combine([a, b], normalize=False)
        ba, _ = combine([b, a], normalize=False)
        assert predict_committee_batch(ab) == predict_committee_batch(ba)


class TestMarginLines:
    def test_round_trip(self):
        t = table([[1.25, -0.5], [0.125, 3.0]], categories=("web", "books"))
        back = read_margin_lines(list(write_margin_lines(t)))
        assert back.instances == t.instances
        assert back.categories == t.categories
        assert back.scores == t.scores

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
        t = MarginTable(tuple(instances), tuple(categories), tuple(map(tuple, scores.tolist())))
        back = read_margin_lines(list(write_margin_lines(t)))
        assert back.instances == t.instances
        assert back.categories == t.categories
        assert back.scores == t.scores

    def test_labels_split_on_last_colon(self):
        back = read_margin_lines(["i0\tweb:design:1.5 books:-2.0"])
        assert back.categories == ("web:design", "books")
        assert back.scores == ((1.5, -2.0),)

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
