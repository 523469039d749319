"""Property tests for the wide (multi-word) label helpers.

Ground truth is Python's arbitrary-precision ints: every helper is
checked against the equivalent big-int computation via
``label_to_int`` / ``int_to_label_row`` round-trips.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.bitops import (
    MAX_LABEL_BITS,
    RADIX_SORT_THRESHOLD,
    argsort_labels,
    get_label_bit,
    hamming_labels,
    int_to_label_row,
    label_lsb,
    label_mask,
    label_sort_keys,
    label_to_int,
    narrow_labels,
    pack_bit_matrix,
    pairwise_hamming,
    permute_bits,
    popcount_labels,
    resize_label_words,
    shift_left_labels,
    shift_right_labels,
    swap_label_rows,
    unique_labels,
    unpack_bit_matrix,
    unpermute_bits,
    wide_mask,
    widen_labels,
    words_for_bits,
    zeros_labels,
)

wide_values = st.lists(
    st.integers(min_value=0, max_value=(1 << 192) - 1), min_size=1, max_size=20
)


def _as_wide(values, words=3):
    return np.stack([int_to_label_row(v, words) for v in values])


class TestRepresentation:
    @pytest.mark.parametrize(
        "dim,words", [(0, 1), (1, 1), (63, 1), (64, 1), (65, 2), (128, 2), (129, 3)]
    )
    def test_words_for_bits(self, dim, words):
        assert words_for_bits(dim) == words

    def test_zeros_labels_picks_representation(self):
        assert zeros_labels(5, 30).shape == (5,)
        assert zeros_labels(5, 100).shape == (5, 2)
        assert zeros_labels(5, 100).dtype == np.uint64

    def test_widen_narrow_roundtrip(self):
        narrow = np.array([0, 1, 2**62, 5], dtype=np.int64)
        wide = widen_labels(narrow, 3)
        assert wide.shape == (4, 3)
        assert np.array_equal(narrow_labels(wide), narrow)

    def test_narrow_rejects_high_bits(self):
        wide = _as_wide([1 << 70])
        with pytest.raises(ValueError):
            narrow_labels(wide)

    def test_resize_words(self):
        wide = _as_wide([3, 1 << 100], words=2)
        assert resize_label_words(wide, 4).shape == (2, 4)
        with pytest.raises(ValueError):
            widen_labels(wide, 1)  # high bits set


class TestBigIntEquivalence:
    @given(wide_values)
    @settings(max_examples=60, deadline=None)
    def test_popcount(self, values):
        wide = _as_wide(values)
        expect = [bin(v).count("1") for v in values]
        assert popcount_labels(wide).tolist() == expect

    @given(wide_values, st.integers(min_value=0, max_value=191))
    @settings(max_examples=60, deadline=None)
    def test_shifts(self, values, k):
        wide = _as_wide(values)
        right = shift_right_labels(wide, k)
        left = shift_left_labels(wide, k)
        mask = (1 << 192) - 1
        for i, v in enumerate(values):
            assert label_to_int(right, i) == v >> k
            assert label_to_int(left, i) == (v << k) & mask

    @given(wide_values, st.integers(min_value=0, max_value=192))
    @settings(max_examples=60, deadline=None)
    def test_masks(self, values, width):
        wide = _as_wide(values)
        masked = wide & label_mask(width, wide)
        for i, v in enumerate(values):
            assert label_to_int(masked, i) == v & ((1 << width) - 1)

    @given(wide_values)
    @settings(max_examples=60, deadline=None)
    def test_sort_keys_order_numeric(self, values):
        wide = _as_wide(values)
        keys = label_sort_keys(wide)
        got = np.argsort(keys, kind="stable").tolist()
        expect = sorted(range(len(values)), key=lambda i: (values[i], i))
        assert got == expect

    @given(wide_values)
    @settings(max_examples=40, deadline=None)
    def test_unique_labels(self, values):
        wide = _as_wide(values)
        uniq, inverse = unique_labels(wide)
        expect = sorted(set(values))
        assert [label_to_int(uniq, i) for i in range(uniq.shape[0])] == expect
        for i, v in enumerate(values):
            assert label_to_int(uniq, int(inverse[i])) == v

    def test_hamming_and_pairwise(self):
        a = _as_wide([0, (1 << 100) | 3, (1 << 191)])
        ham = pairwise_hamming(a)
        assert ham[0, 1] == 3 and ham[0, 2] == 1 and ham[1, 2] == 4
        assert np.array_equal(ham, ham.T)
        assert hamming_labels(a[0:1], a[1:2]).tolist() == [3]

    def test_pairwise_hamming_blocked_matches_unblocked(self):
        # n > block: the row-blocked wide path must tile correctly
        rng = np.random.default_rng(17)
        wide = rng.integers(0, 1 << 62, size=(600, 2)).astype(np.uint64)
        unblocked = popcount_labels(wide[:, None, :] ^ wide[None, :, :])
        assert np.array_equal(pairwise_hamming(wide, block=256), unblocked)

    def test_get_set_bit_lsb(self):
        a = _as_wide([1, 1 << 64, (1 << 64) | 1])
        assert get_label_bit(a, 0).tolist() == [1, 0, 1]
        assert get_label_bit(a, 64).tolist() == [0, 1, 1]
        assert label_lsb(a).tolist() == [1, 0, 1]


class TestPackUnpackPermute:
    @given(st.integers(min_value=64, max_value=150), st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_pack_unpack_roundtrip(self, dim, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(12, dim), dtype=np.int64)
        labels = pack_bit_matrix(bits)
        assert labels.shape == (12, words_for_bits(dim))
        assert np.array_equal(unpack_bit_matrix(labels, dim), bits.astype(np.int8))

    @given(st.integers(min_value=64, max_value=150), st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_permute_roundtrip_and_agreement(self, dim, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(10, dim), dtype=np.int64)
        labels = pack_bit_matrix(bits)
        perm = rng.permutation(dim)
        permuted = permute_bits(labels, perm)
        # output bit j == input bit perm[j]
        assert np.array_equal(
            unpack_bit_matrix(permuted, dim), bits[:, perm].astype(np.int8)
        )
        assert np.array_equal(unpermute_bits(permuted, perm), labels)

    def test_permute_matches_narrow_when_embedded(self):
        # A narrow labeling widened to 2 words must permute identically.
        rng = np.random.default_rng(7)
        narrow = rng.integers(0, 1 << 40, size=16, dtype=np.int64)
        perm = rng.permutation(40)
        wide = widen_labels(narrow, 2)
        assert np.array_equal(
            narrow_labels(permute_bits(wide, perm)), permute_bits(narrow, perm)
        )


class TestRowOps:
    def test_swap_label_rows_wide_no_aliasing(self):
        a = _as_wide([5, 9, 1 << 100])
        swap_label_rows(a, 0, 2)
        assert label_to_int(a, 0) == 1 << 100 and label_to_int(a, 2) == 5

    def test_swap_label_rows_narrow(self):
        a = np.array([1, 2, 3], dtype=np.int64)
        swap_label_rows(a, 0, 1)
        assert a.tolist() == [2, 1, 3]

    def test_wide_mask_boundaries(self):
        assert label_to_int(wide_mask(64, 2)[None, :], 0) == (1 << 64) - 1
        assert label_to_int(wide_mask(128, 2)[None, :], 0) == (1 << 128) - 1
        assert label_to_int(wide_mask(0, 2)[None, :], 0) == 0
        assert MAX_LABEL_BITS == 63


class TestArgsortLabels:
    """The radix-style fast path must equal the void-key stable argsort."""

    def _void_argsort(self, labels):
        return np.argsort(label_sort_keys(labels), kind="stable")

    @given(wide_values)
    @settings(max_examples=50, deadline=None)
    def test_small_arrays_match_void_path(self, values):
        labels = _as_wide(values)
        got = argsort_labels(labels)
        assert np.array_equal(got, self._void_argsort(labels))

    def test_radix_path_matches_void_path_above_threshold(self):
        rng = np.random.default_rng(0)
        n = RADIX_SORT_THRESHOLD + 500
        labels = rng.integers(0, 2**64, size=(n, 2), dtype=np.uint64)
        # duplicate rows exercise stability: equal keys keep input order
        labels[n // 2 :] = labels[: n - n // 2]
        assert np.array_equal(argsort_labels(labels), self._void_argsort(labels))

    def test_many_word_labels_stay_on_the_void_path_correctly(self):
        rng = np.random.default_rng(2)
        n = RADIX_SORT_THRESHOLD + 100
        labels = rng.integers(0, 2**64, size=(n, 4), dtype=np.uint64)
        assert np.array_equal(argsort_labels(labels), self._void_argsort(labels))

    @pytest.mark.parametrize("width,varying", [(2, 2), (4, 2), (4, 4), (6, 1)])
    def test_varying_word_subsets_match_void_path(self, width, varying):
        # constant word columns are dropped before the radix pass
        rng = np.random.default_rng(width * 10 + varying)
        n = 800
        labels = np.zeros((n, width), dtype=np.uint64)
        cols = rng.choice(width, size=varying, replace=False)
        labels[:, cols] = rng.integers(0, 8, size=(n, varying)).astype(np.uint64)
        assert np.array_equal(argsort_labels(labels), self._void_argsort(labels))

    def test_stability_on_all_equal_labels(self):
        labels = np.zeros((RADIX_SORT_THRESHOLD + 4, 2), dtype=np.uint64)
        assert np.array_equal(
            argsort_labels(labels), np.arange(labels.shape[0])
        )

    def test_narrow_path(self):
        labels = np.array([5, 1, 3, 1, 0], dtype=np.int64)
        assert np.array_equal(
            argsort_labels(labels), np.argsort(labels, kind="stable")
        )

    def test_order_is_numeric_bitvector_order(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2**64, size=(2000, 2), dtype=np.uint64)
        order = argsort_labels(labels)
        ints = [label_to_int(labels, v) for v in order]
        assert ints == sorted(ints)
