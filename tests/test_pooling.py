import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from hypothesis.extra import numpy as hnp

from scenetok import pooling
from scenetok.pooling import cell_index, segment_sum


def ids_of(rows, n):
    """Ids over a per-point table that read the listed ``rows``: row i for
    a listed point i, -1 for the rest; None (every row) stays None."""
    if rows is None:
        return None
    ids = np.full(n, -1)
    ids[rows] = rows
    return ids


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
        sums, counts = segment_sum(values, cell, n_cells,
                                   pixel=ids_of(rows, len(values)))
        ref_sums, ref_counts = add_at_reference(values, cell, n_cells, rows)
        assert sums.dtype == np.float64
        np.testing.assert_array_equal(sums, ref_sums)
        np.testing.assert_array_equal(counts, ref_counts)
        assert counts.sum() == len(values if rows is None else rows)

    def test_empty_input(self):
        for dtype in (np.float64, np.float32):
            values = np.zeros((0, 3), dtype=dtype)
            sums, counts = segment_sum(values, np.zeros(0, dtype=np.int64), 4)
            assert sums.shape == (4, 3) and sums.dtype == np.float64
            assert not sums.any()
            np.testing.assert_array_equal(counts, np.zeros(4, dtype=np.int64))

    def test_float32_input_accumulates_in_float64(self):
        # 2**24 + 1 + 1 is exact in float64 but rounds to 2**24 in float32
        values = np.array([[2.0 ** 24], [1.0], [1.0]], dtype=np.float32)
        sums, _ = segment_sum(values, np.zeros(3, dtype=np.int64), 1)
        assert sums.dtype == np.float64
        assert sums[0, 0] == 2.0 ** 24 + 2

    def test_cells_without_points_are_zero(self):
        values = np.arange(8.0).reshape(4, 2)
        cell = cell_index(np.array([[0, 0], [1, 2], [1, 2], [0, 0]]), T=2)
        sums, counts = segment_sum(values, cell, 6)
        np.testing.assert_array_equal(counts, [2, 0, 0, 0, 0, 2])
        np.testing.assert_array_equal(sums[[1, 2, 3, 4]], 0.0)
        np.testing.assert_array_equal(sums[0], values[0] + values[3])
        np.testing.assert_array_equal(sums[5], values[1] + values[2])


def assert_same_sums(got, want):
    """Bit-for-bit equal, including the sign of zero."""
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


# Cell of each of 14 rows: cell 1 has 9 rows, more than a 4-row chunk; cells
# 0, 3, 4 and 6 are empty and fall at or next to chunk boundaries.
CHUNK_CELLS = np.array([1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 5, 5, 2, 7])


class TestChunkedSegmentSum:
    """Chunks of whole cells sum exactly as one sequential scatter-add."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("subset", [False, True])
    @pytest.mark.parametrize("buffer", [1, 8, 12, 1 << 19])  # D=2: 4-6 rows
    def test_matches_add_at_with_small_chunks(self, monkeypatch, dtype,
                                              subset, buffer):
        monkeypatch.setattr(pooling, "_POOL_BUFFER", buffer)
        rng = np.random.default_rng(11)
        values = rng.normal(size=(CHUNK_CELLS.size, 2)).astype(dtype)
        values[[2, 9]] = -0.0  # a -0.0 first summand, and a lone one
        values[10:12] = -0.0   # cell 5 sums only -0.0
        rows = np.array([0, 2, 3, 5, 8, 9, 10, 11, 13]) if subset else None
        sums, counts = segment_sum(values, CHUNK_CELLS, 9,
                                   pixel=ids_of(rows, len(values)))
        ref_sums, ref_counts = add_at_reference(values, CHUNK_CELLS, 9, rows)
        assert sums.dtype == np.float64
        assert_same_sums(sums, ref_sums)
        np.testing.assert_array_equal(counts, ref_counts)
        assert counts.sum() == len(values if rows is None else rows)
        assert not np.signbit(sums[5]).any()  # 0.0 + -0.0 + -0.0 is +0.0

    @settings(max_examples=200, deadline=None)
    @given(pooling_cases(), hs.integers(1, 24))
    def test_any_chunk_size_matches_add_at(self, case, buffer):
        values, cell, n_cells, rows = case
        with mock.patch.object(pooling, "_POOL_BUFFER", buffer):
            sums, counts = segment_sum(values, cell, n_cells,
                                       pixel=ids_of(rows, len(values)))
        ref_sums, ref_counts = add_at_reference(values, cell, n_cells, rows)
        assert_same_sums(sums, ref_sums)
        np.testing.assert_array_equal(counts, ref_counts)

    def test_no_float64_copy_of_the_input(self):
        # the fusion shape: 768 elements x 11 frames, 65 536 points, D=256
        n, d, n_cells = 65536, 256, 768 * 11
        rng = np.random.default_rng(0)
        values = rng.standard_normal((n, d), dtype=np.float32)
        cell = rng.integers(0, n_cells, n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sums, _ = segment_sum(values, cell, n_cells)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak - sums.nbytes < n * d * 8 / 4


class TestPixelGather:
    """Rows read through pixel ids sum as the per-point rows they name."""

    @settings(max_examples=200, deadline=None)
    @given(pooling_cases(), hs.integers(1, 24), hs.data())
    def test_pixel_ids_match_add_at_on_gathered_rows(self, case, buffer, data):
        table, _, n_cells, _ = case
        if table.shape[0] == 0:
            return
        n = data.draw(hs.integers(0, 30))
        pixel = data.draw(hnp.arrays(np.int64, n, elements=hs.integers(
            0, table.shape[0] - 1)))
        cell = data.draw(hnp.arrays(np.int64, n, elements=hs.integers(
            0, n_cells - 1)))
        keep = data.draw(hnp.arrays(bool, n, elements=hs.booleans()))
        rows = data.draw(hs.sampled_from([None, np.flatnonzero(keep)]))
        with mock.patch.object(pooling, "_POOL_BUFFER", buffer):
            read = pixel if rows is None else np.where(
                ids_of(rows, n) >= 0, pixel, -1)
            sums, counts = segment_sum(table, cell, n_cells, pixel=read)
        ref_sums, ref_counts = add_at_reference(table[pixel], cell, n_cells,
                                                rows)
        assert_same_sums(sums, ref_sums)
        np.testing.assert_array_equal(counts, ref_counts)
        assert counts.sum() == (n if rows is None else len(rows))

    @pytest.mark.parametrize("buffer", [1, 5, 1 << 19])
    def test_pixel_rows_are_table_rows_in_point_order(self, buffer):
        rng = np.random.default_rng(3)
        table = rng.normal(size=(10, 2)).astype(np.float32)
        pixel = rng.integers(0, 10, 12)
        cell = rng.integers(0, 4, 12)
        want = table[pixel].astype(np.float64)
        with mock.patch.object(pooling, "_POOL_BUFFER", buffer):
            sums, counts = segment_sum(table, cell, 4, pixel=pixel)
            features = pooling.point_features(
                table, np.where(cell != 3, pixel, -1))
        ref_sums, ref_counts = add_at_reference(want, cell, 4, None)
        assert_same_sums(sums, ref_sums)
        np.testing.assert_array_equal(counts, ref_counts)
        assert features.dtype == np.float32
        np.testing.assert_array_equal(
            features, np.where((cell != 3)[:, None], table[pixel], 0.0))
