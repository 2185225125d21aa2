"""Unit tests for Z-order (Morton) encoding."""

import numpy as np
import pytest

from repro.core.zorder import (
    deinterleave,
    interleave,
    z_decode,
    z_decode_cells,
    z_encode,
    z_encode_array,
)


class TestInterleave:
    def test_paper_example(self):
        # Example 2: horizontal 010, vertical 101 -> z-value 011001.
        assert z_encode(0b010, 0b101) == 0b011001

    def test_origin(self):
        assert z_encode(0, 0) == 0

    def test_single_bits(self):
        assert z_encode(1, 0) == 0b10
        assert z_encode(0, 1) == 0b01

    def test_roundtrip_exhaustive_small(self):
        for x in range(16):
            for y in range(16):
                assert z_decode(z_encode(x, y)) == (x, y)

    def test_roundtrip_large_coordinates(self):
        x, y = 2**31 - 1, 2**30 + 12345
        assert deinterleave(interleave(x, y)) == (x, y)

    def test_monotone_within_quadrant(self):
        # z-order preserves ordering along each axis within a quadrant.
        assert z_encode(0, 0) < z_encode(1, 0) < z_encode(0, 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            z_encode(-1, 0)
        with pytest.raises(ValueError):
            z_decode(-1)


class TestVectorized:
    def test_matches_scalar(self):
        rng = np.random.default_rng(0)
        xs = rng.integers(0, 2**16, 100)
        ys = rng.integers(0, 2**16, 100)
        zs = z_encode_array(xs, ys)
        for x, y, z in zip(xs, ys, zs):
            assert int(z) == z_encode(int(x), int(y))

    def test_unique_per_cell(self):
        xs, ys = np.meshgrid(np.arange(32), np.arange(32))
        zs = z_encode_array(xs.ravel(), ys.ravel())
        assert len(np.unique(zs)) == 32 * 32

    @pytest.mark.parametrize("bits", [1, 4, 8, 9, 16, 32])
    def test_decode_cells_matches_scalar(self, bits):
        """One byte-table gather per z-value byte, at every width."""
        rng = np.random.default_rng(bits)
        xs = rng.integers(0, 2**bits, 64, dtype=np.uint64)
        ys = rng.integers(0, 2**bits, 64, dtype=np.uint64)
        zs = z_encode_array(xs, ys)
        cells = z_decode_cells(zs)
        assert cells.shape == (64, 2) and cells.dtype == np.int64
        assert cells.tolist() == [list(z_decode(int(z))) for z in zs]
        assert z_decode_cells(np.array([], dtype=np.int64)).shape == (0, 2)
