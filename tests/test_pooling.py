import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hs
from hypothesis.extra import numpy as hnp

from scenetok.pooling import cell_index, segment_sum


def add_at_reference(values, cell, n_cells, rows):
    """Sequential float64 scatter-add of ``values[rows]`` in row order."""
    if rows is None:
        rows = np.arange(values.shape[0])
    sums = np.zeros((n_cells, values.shape[1]), dtype=np.float64)
    with np.errstate(over="ignore"):  # huge drawn values may sum to inf
        np.add.at(sums, cell[rows], values[rows].astype(np.float64))
    counts = np.bincount(cell[rows], minlength=n_cells)
    return sums, counts


@hs.composite
def pooling_cases(draw):
    dtype = draw(hs.sampled_from([np.float64, np.float32]))
    n = draw(hs.integers(0, 40))
    d = draw(hs.integers(1, 4))
    values = draw(hnp.arrays(dtype, (n, d), elements=hs.floats(
        width=np.dtype(dtype).itemsize * 8, allow_nan=False,
        allow_infinity=False)))
    used = draw(hs.integers(1, 6))
    n_cells = used + draw(hs.integers(0, 4))  # trailing cells stay empty
    cell = draw(hnp.arrays(np.int64, n, elements=hs.integers(0, used - 1)))
    keep = draw(hnp.arrays(bool, n, elements=hs.booleans()))
    rows = draw(hs.sampled_from([None, np.flatnonzero(keep)]))
    return values, cell, n_cells, rows


class TestSegmentSum:
    @settings(max_examples=300, deadline=None)
    @given(pooling_cases())
    def test_matches_add_at_bit_for_bit(self, case):
        values, cell, n_cells, rows = case
        sums, counts, M = segment_sum(values, cell, n_cells, rows=rows)
        ref_sums, ref_counts = add_at_reference(values, cell, n_cells, rows)
        assert sums.dtype == np.float64
        np.testing.assert_array_equal(sums, ref_sums)
        np.testing.assert_array_equal(counts, ref_counts)
        assert M.shape == (n_cells, values.shape[0]) and M.nnz == counts.sum()

    def test_empty_input(self):
        for dtype in (np.float64, np.float32):
            values = np.zeros((0, 3), dtype=dtype)
            sums, counts, _ = segment_sum(values, np.zeros(0, dtype=np.int64), 4)
            assert sums.shape == (4, 3) and sums.dtype == np.float64
            assert not sums.any()
            np.testing.assert_array_equal(counts, np.zeros(4, dtype=np.int64))

    def test_float32_input_accumulates_in_float64(self):
        # 2**24 + 1 + 1 is exact in float64 but rounds to 2**24 in float32
        values = np.array([[2.0 ** 24], [1.0], [1.0]], dtype=np.float32)
        sums, _, _ = segment_sum(values, np.zeros(3, dtype=np.int64), 1)
        assert sums.dtype == np.float64
        assert sums[0, 0] == 2.0 ** 24 + 2

    def test_cells_without_points_are_zero(self):
        values = np.arange(8.0).reshape(4, 2)
        cell = cell_index(np.array([[0, 0], [1, 2], [1, 2], [0, 0]]), T=2)
        sums, counts, _ = segment_sum(values, cell, 6)
        np.testing.assert_array_equal(counts, [2, 0, 0, 0, 0, 2])
        np.testing.assert_array_equal(sums[[1, 2, 3, 4]], 0.0)
        np.testing.assert_array_equal(sums[0], values[0] + values[3])
        np.testing.assert_array_equal(sums[5], values[1] + values[2])
