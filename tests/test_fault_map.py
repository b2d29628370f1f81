"""Tests for FaultMap construction, statistics and serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator import FaultMap


class TestConstruction:
    def test_none_is_fault_free(self):
        fm = FaultMap.none(8, 16)
        assert fm.shape == (8, 16)
        assert fm.num_faulty == 0
        assert fm.fault_rate == 0.0

    def test_from_array_and_indices(self):
        fm_array = FaultMap.from_array([[True, False], [False, True]])
        fm_indices = FaultMap.from_indices(2, 2, [(0, 0), (1, 1)])
        assert fm_array == fm_indices
        assert fm_array.num_faulty == 2

    def test_from_indices_out_of_range(self):
        with pytest.raises(IndexError):
            FaultMap.from_indices(2, 2, [(5, 0)])
        # The error names the first offending pair in input order.
        with pytest.raises(IndexError, match=r"\(2, -1\)"):
            FaultMap.from_indices(4, 4, [(0, 0), (2, -1), (9, 9)])
        with pytest.raises(IndexError, match=r"\(4, 0\)"):
            FaultMap.from_indices(4, 4, [(1, 1), (4, 0), (0, 7)])

    def test_requires_2d_nonempty(self):
        with pytest.raises(ValueError):
            FaultMap(np.zeros(4, dtype=bool))
        with pytest.raises(ValueError):
            FaultMap(np.zeros((0, 3), dtype=bool))

    def test_random_exact_count(self):
        fm = FaultMap.random(32, 32, 0.13, seed=0)
        assert fm.num_faulty == round(0.13 * 32 * 32)
        assert fm.fault_rate == pytest.approx(0.13, abs=1e-3)

    def test_random_bernoulli_mode(self):
        fm = FaultMap.random(64, 64, 0.2, seed=0, exact=False)
        assert 0.1 < fm.fault_rate < 0.3

    def test_random_extremes(self):
        assert FaultMap.random(8, 8, 0.0, seed=0).num_faulty == 0
        assert FaultMap.random(8, 8, 1.0, seed=0).num_faulty == 64

    def test_random_invalid_rate(self):
        with pytest.raises(ValueError):
            FaultMap.random(4, 4, 1.5)
        with pytest.raises(ValueError):
            FaultMap.random(0, 4, 0.5)

    def test_random_determinism(self):
        a = FaultMap.random(16, 16, 0.2, seed=42)
        b = FaultMap.random(16, 16, 0.2, seed=42)
        c = FaultMap.random(16, 16, 0.2, seed=43)
        assert a == b
        assert a != c

    def test_clustered_reaches_target_count(self):
        fm = FaultMap.clustered(32, 32, 0.1, cluster_size=9, seed=0)
        assert fm.num_faulty == round(0.1 * 1024)

    def test_faulty_rows_and_columns(self):
        rows = FaultMap.faulty_rows(4, 6, [1, 3])
        assert rows.num_faulty == 12
        assert set(rows.rows_with_faults().tolist()) == {1, 3}
        cols = FaultMap.faulty_columns(4, 6, [0])
        assert cols.num_faulty == 4
        assert set(cols.columns_with_faults().tolist()) == {0}


class TestStatisticsAndViews:
    def test_counts(self):
        fm = FaultMap.from_indices(3, 3, [(0, 0), (0, 1), (2, 1)])
        np.testing.assert_array_equal(fm.row_fault_counts(), [2, 0, 1])
        np.testing.assert_array_equal(fm.column_fault_counts(), [1, 2, 0])
        assert fm.faulty_indices().shape == (3, 2)

    def test_array_is_read_only(self):
        fm = FaultMap.none(4, 4)
        with pytest.raises(ValueError):
            fm.array[0, 0] = True

    def test_permuted_columns(self):
        fm = FaultMap.from_indices(2, 3, [(0, 0)])
        permuted = fm.permuted_columns([2, 0, 1])
        # Logical column 0 now reads physical column 2 (fault stays at its column).
        assert permuted.array[0, 1]
        assert not permuted.array[0, 0]
        with pytest.raises(ValueError):
            fm.permuted_columns([0, 0, 1])

    def test_union(self):
        a = FaultMap.from_indices(2, 2, [(0, 0)])
        b = FaultMap.from_indices(2, 2, [(1, 1)])
        assert a.union(b).num_faulty == 2
        with pytest.raises(ValueError):
            a.union(FaultMap.none(3, 3))

    def test_equality_and_hash(self):
        a = FaultMap.from_indices(2, 2, [(0, 1)])
        b = FaultMap.from_indices(2, 2, [(0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != "not a fault map"

    def test_repr(self):
        assert "FaultMap" in repr(FaultMap.none(4, 4))


def _serialization_maps():
    return {
        "empty": FaultMap.none(64, 64),
        "one-pe": FaultMap.from_indices(64, 64, [(17, 42)]),
        "full": FaultMap(np.ones((64, 64), dtype=bool)),
        "random-0.3": FaultMap.random(64, 64, 0.3, seed=11),
    }


class TestSerialization:
    def test_round_trip(self):
        fm = FaultMap.random(16, 8, 0.25, seed=3)
        restored = FaultMap.from_dict(fm.to_dict())
        assert restored == fm

    @pytest.mark.parametrize("name", sorted(_serialization_maps()))
    def test_to_dict_json_matches_per_coordinate_encoding(self, name):
        # Store fingerprints hash this JSON, so it must stay byte-identical
        # to the per-coordinate list the maps were first serialized with.
        fm = _serialization_maps()[name]
        reference = {
            "rows": fm.rows,
            "cols": fm.cols,
            "faulty_indices": [[int(r), int(c)] for r, c in np.argwhere(fm.array)],
        }
        assert json.dumps(fm.to_dict()) == json.dumps(reference)
        assert FaultMap.from_dict(fm.to_dict()) == fm
        assert FaultMap.from_dict(json.loads(json.dumps(fm.to_dict()))) == fm

    @pytest.mark.parametrize(
        "indices", [[(0, 0), (1.5, 0)], [(1.0, 0)], [("1", 0)], [(True, False)]]
    )
    def test_from_indices_rejects_non_integer_coordinates(self, indices):
        # Never truncated (1.5 -> 1) and never read as a boolean mask.
        with pytest.raises(IndexError, match="integers"):
            FaultMap.from_indices(4, 4, indices)

    def test_from_indices_rejects_malformed_pairs(self):
        with pytest.raises(ValueError):
            FaultMap.from_indices(4, 4, [(0, 1, 2)])

    def test_from_indices_accepts_generators_tuples_and_empty_input(self):
        expected = FaultMap.from_array([[False, True], [True, False]])
        assert FaultMap.from_indices(2, 2, ((r, 1 - r) for r in range(2))) == expected
        assert FaultMap.from_indices(2, 2, ((0, 1), (1, 0))) == expected
        assert FaultMap.from_indices(2, 2, np.array([[0, 1], [1, 0]])) == expected
        assert FaultMap.from_indices(2, 2, []) == FaultMap.none(2, 2)
        assert FaultMap.from_indices(2, 2, iter(())) == FaultMap.none(2, 2)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=64),
    cols=st.integers(min_value=1, max_value=64),
    rate=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_random_fault_map_invariants(rows, cols, rate, seed):
    """Property: exact sampling produces round(rate*PEs) faults within bounds."""
    fm = FaultMap.random(rows, cols, rate, seed=seed)
    assert fm.shape == (rows, cols)
    assert fm.num_faulty == round(rate * rows * cols)
    assert 0.0 <= fm.fault_rate <= 1.0
    assert fm.num_faulty == fm.array.sum()


@settings(max_examples=20, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=16),
    cols=st.integers(min_value=2, max_value=16),
    rate=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_column_permutation_preserves_fault_count(rows, cols, rate, seed):
    """Property: permuting columns never changes the number of faults."""
    fm = FaultMap.random(rows, cols, rate, seed=seed)
    permutation = np.random.default_rng(seed).permutation(cols)
    assert fm.permuted_columns(permutation).num_faulty == fm.num_faulty


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=16),
    cols=st.integers(min_value=1, max_value=16),
    data=st.data(),
)
def test_from_indices_matches_per_coordinate_scatter(rows, cols, data):
    """Property: the vectorized scatter equals setting one PE at a time,
    for unordered coordinates with repeats."""
    pairs = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=rows - 1),
                st.integers(min_value=0, max_value=cols - 1),
            ),
            max_size=3 * rows * cols,
        )
    )
    reference = np.zeros((rows, cols), dtype=bool)
    for r, c in pairs:
        reference[r, c] = True
    assert FaultMap.from_indices(rows, cols, pairs) == FaultMap(reference)
