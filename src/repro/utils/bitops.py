"""Bit-level helpers for label arithmetic, narrow and wide.

Vertex labels in TIMER are bitvectors of length ``dim_Ga``.  The library
stores them in one of two representations, and every helper here (and
every label consumer in the package) is polymorphic over both:

- **narrow** -- ``dim <= MAX_LABEL_BITS`` (63): a 1-D ``int64`` array,
  one packed word per vertex.  This is the original representation; all
  fixed-seed outputs on it are byte-identical to the pre-wide code, and
  the hot kernels keep their single-word arithmetic.
- **wide** -- ``dim > MAX_LABEL_BITS``: a 2-D ``(n, W)`` ``uint64`` array
  with ``W = ceil(dim / 64)`` words per vertex, word ``w`` holding bits
  ``64*w .. 64*w + 63`` (little-endian word order).  This lifts the
  63-class partial-cube cap: trees beyond 64 vertices, fat-trees beyond
  64 PEs and any ``dim_p + dim_e > 63`` application labeling now label
  fine.

Bit ``0`` (the least significant bit of word 0) is the paper's *last*
label entry -- the digit that the hierarchy construction cuts off first
-- and the lp-part (processor labels) occupies the *high* bits.

Ordering and sorting of wide labels go through :func:`label_sort_keys`,
which views the words as big-endian, most-significant-word-first byte
strings: ``memcmp`` order on those keys equals numeric order of the
bitvectors, so one ``void``-dtype argsort/searchsorted replaces every
integer comparison the narrow code relies on.

All helpers here are pure and vectorized so the hot paths of the
objective function and the swap passes stay in numpy in both width
regimes.
"""

from __future__ import annotations

import numpy as np

#: Maximum label width of the *narrow* (single ``int64`` word)
#: representation.  63 keeps narrow labels inside signed int64; wider
#: labelings switch to the multi-word representation automatically.
MAX_LABEL_BITS = 63

#: Bits per word of the wide representation.
WORD_BITS = 64

#: Popcounts of all byte values; powers the byte-LUT reference fallback.
_POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _bitwise_count_fallback(x) -> np.ndarray:
    """Per-element popcount via a byte lookup table (reference fallback).

    Views each 64-bit word as 8 bytes and sums table lookups.  Kept as
    the ground truth the SWAR path is tested against; only non-negative
    values are meaningful for the int64 case -- labels never go
    negative.
    """
    arr = np.atleast_1d(np.asarray(x))
    if arr.dtype != np.uint64:
        arr = arr.astype(np.int64, copy=False)
    arr = np.ascontiguousarray(arr)
    by = arr.view(np.uint8).reshape(arr.shape + (8,))
    out = _POPCOUNT_TABLE[by].sum(axis=-1, dtype=np.int64)
    if np.ndim(x) == 0:
        return out.reshape(())
    return out


_SWAR_M1 = np.uint64(0x5555555555555555)
_SWAR_M2 = np.uint64(0x3333333333333333)
_SWAR_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_SWAR_H01 = np.uint64(0x0101010101010101)


def _bitwise_count_swar(x) -> np.ndarray:
    """Per-element popcount via SWAR arithmetic (numpy < 2.0 fast path).

    The classic SIMD-within-a-register construction: six full-width
    vector operations per word, no gathers, so numpy's elementwise loops
    vectorize it -- measured ~3x over the byte-LUT fallback.  Exact for
    the whole uint64 range (the final multiply wraps mod 2**64 by
    design).
    """
    arr = np.atleast_1d(np.asarray(x))
    if arr.dtype == np.uint64:
        v = arr.copy()
    elif arr.dtype == np.int64:
        # Labels are non-negative, so the uint64 view is value-exact.
        v = np.ascontiguousarray(arr).view(np.uint64).copy()
    else:
        v = arr.astype(np.uint64)
    v -= (v >> np.uint64(1)) & _SWAR_M1
    v = (v & _SWAR_M2) + ((v >> np.uint64(2)) & _SWAR_M2)
    v = (v + (v >> np.uint64(4))) & _SWAR_M4
    out = ((v * _SWAR_H01) >> np.uint64(56)).astype(np.int64)
    if np.ndim(x) == 0:
        return out.reshape(())
    return out


#: ``bitwise_count(x)``: per-element popcount -- native on numpy >= 2.0,
#: the SWAR construction otherwise.
bitwise_count = getattr(np, "bitwise_count", _bitwise_count_swar)


def popcount(x: np.ndarray) -> np.ndarray:
    """Number of set bits of each element of ``x`` (any integer dtype)."""
    return bitwise_count(x)


def hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise Hamming distance between packed bitvectors."""
    return bitwise_count(np.bitwise_xor(a, b))


def bit_length_for(n: int) -> int:
    """Number of bits needed to represent values ``0 .. n-1``.

    This is the paper's ``ceil(log2 n)`` with the conventions
    ``bit_length_for(0) == bit_length_for(1) == 0``.
    """
    if n <= 1:
        return 0
    return int(n - 1).bit_length()


def mask_of_width(width: int) -> int:
    """Bitmask with the ``width`` least significant bits set (narrow)."""
    if width < 0 or width > MAX_LABEL_BITS:
        raise ValueError(f"mask width {width} out of range [0, {MAX_LABEL_BITS}]")
    return (1 << width) - 1


# ----------------------------------------------------------------------
# Representation plumbing
# ----------------------------------------------------------------------
def words_for_bits(dim: int) -> int:
    """Number of 64-bit words a ``dim``-bit label occupies.

    1 for every narrow width (``dim <= MAX_LABEL_BITS`` keeps the packed
    int64 representation), ``ceil(dim / 64)`` beyond.
    """
    if dim < 0:
        raise ValueError(f"label width {dim} must be >= 0")
    if dim <= MAX_LABEL_BITS:
        return 1
    return -(-dim // WORD_BITS)


def is_wide(labels: np.ndarray) -> bool:
    """True for the multi-word ``(n, W)`` representation."""
    return np.asarray(labels).ndim == 2


def label_words(labels: np.ndarray) -> int:
    """Words per label: 1 for narrow arrays, ``W`` for wide ones."""
    labels = np.asarray(labels)
    return int(labels.shape[1]) if labels.ndim == 2 else 1


def zeros_labels(n: int, dim: int) -> np.ndarray:
    """All-zero label array of the representation matching ``dim``."""
    if dim <= MAX_LABEL_BITS:
        return np.zeros(n, dtype=np.int64)
    return np.zeros((n, words_for_bits(dim)), dtype=np.uint64)


def as_label_array(labels: np.ndarray) -> np.ndarray:
    """Canonical dtype view: int64 for narrow input, uint64 for wide."""
    labels = np.asarray(labels)
    if labels.ndim == 2:
        return labels.astype(np.uint64, copy=False)
    return labels.astype(np.int64, copy=False)


def widen_labels(labels: np.ndarray, words: int) -> np.ndarray:
    """Convert to the wide representation with (at least) ``words`` words.

    Narrow input lands in word 0; already-wide input is zero-padded (or
    truncated, asserting the dropped high words are all zero).
    """
    labels = np.asarray(labels)
    if labels.ndim == 1:
        out = np.zeros((labels.shape[0], max(1, words)), dtype=np.uint64)
        out[:, 0] = labels.astype(np.int64).view(np.uint64)
        return out
    cur = labels.shape[1]
    if cur == words:
        return labels.astype(np.uint64, copy=False)
    if cur < words:
        out = np.zeros((labels.shape[0], words), dtype=np.uint64)
        out[:, :cur] = labels
        return out
    if np.any(labels[:, words:]):
        raise ValueError(f"cannot truncate to {words} words: high bits set")
    return np.ascontiguousarray(labels[:, :words])


def narrow_labels(labels: np.ndarray) -> np.ndarray:
    """Convert to the narrow int64 representation (high words must be 0)."""
    labels = np.asarray(labels)
    if labels.ndim == 1:
        return labels.astype(np.int64, copy=False)
    if labels.shape[1] > 1 and np.any(labels[:, 1:]):
        raise ValueError("labels do not fit in one word")
    word0 = np.ascontiguousarray(labels[:, 0], dtype=np.uint64)
    if np.any(word0 >> np.uint64(MAX_LABEL_BITS)):
        raise ValueError(f"labels exceed {MAX_LABEL_BITS} bits")
    return word0.view(np.int64)


def resize_label_words(labels: np.ndarray, words: int) -> np.ndarray:
    """Match a wide array's word count (pad/truncate); narrow passthrough."""
    if np.asarray(labels).ndim == 1 and words == 1:
        return np.asarray(labels, dtype=np.int64)
    return widen_labels(labels, words)


def copy_labels(labels: np.ndarray) -> np.ndarray:
    """A mutable copy in canonical dtype (both representations)."""
    return as_label_array(labels).copy()


# ----------------------------------------------------------------------
# Polymorphic label arithmetic
# ----------------------------------------------------------------------
def popcount_labels(x: np.ndarray) -> np.ndarray:
    """Per-label popcount: one int per label row in either representation.

    Accepts any array whose *last* axis is the word axis for wide input
    (so pairwise ``(n, n, W)`` XOR tensors reduce correctly).
    """
    x = np.asarray(x)
    if x.ndim >= 2 and x.dtype == np.uint64:
        return bitwise_count(x).sum(axis=-1, dtype=np.int64)
    return bitwise_count(x)


def hamming_labels(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-label Hamming distance in either representation."""
    return popcount_labels(np.bitwise_xor(a, b))


def pairwise_hamming(labels: np.ndarray, block: int = 256) -> np.ndarray:
    """``(n, n)`` Hamming distance matrix of a label array.

    Row-blocked so the wide case never materializes the full
    ``(n, n, W)`` XOR tensor at once.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if labels.ndim == 1:
        return bitwise_count(labels[:, None] ^ labels[None, :])
    out = np.empty((n, n), dtype=np.int64)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        out[lo:hi] = bitwise_count(
            labels[lo:hi, None, :] ^ labels[None, :, :]
        ).sum(axis=-1, dtype=np.int64)
    return out


def label_mask(width: int, labels: np.ndarray) -> "int | np.ndarray":
    """Low-``width``-bits mask in the representation of ``labels``.

    Narrow input gets a plain int (``mask_of_width``); wide input gets a
    ``(W,)`` ``uint64`` word vector that broadcasts against ``(n, W)``.
    """
    if np.asarray(labels).ndim == 1:
        return mask_of_width(width)
    return wide_mask(width, label_words(labels))


def wide_mask(width: int, words: int) -> np.ndarray:
    """``(words,)`` uint64 vector with the ``width`` low bits set."""
    if width < 0 or width > words * WORD_BITS:
        raise ValueError(f"mask width {width} out of range [0, {words * WORD_BITS}]")
    out = np.zeros(words, dtype=np.uint64)
    full, rem = divmod(width, WORD_BITS)
    out[:full] = np.uint64(0xFFFFFFFFFFFFFFFF)
    if rem:
        out[full] = (np.uint64(1) << np.uint64(rem)) - np.uint64(1)
    return out


def get_label_bit(labels: np.ndarray, j: int) -> np.ndarray:
    """Bit ``j`` of every label as an int64 0/1 array."""
    labels = np.asarray(labels)
    if labels.ndim == 1:
        return (labels >> np.int64(j)) & np.int64(1)
    w, b = divmod(j, WORD_BITS)
    return ((labels[:, w] >> np.uint64(b)) & np.uint64(1)).astype(np.int64)


def set_label_bit(labels: np.ndarray, j: int, bits: np.ndarray) -> None:
    """OR 0/1 ``bits`` into bit ``j`` of every label, in place."""
    if labels.ndim == 1:
        labels |= np.asarray(bits, dtype=np.int64) << np.int64(j)
    else:
        w, b = divmod(j, WORD_BITS)
        labels[:, w] |= np.asarray(bits).astype(np.uint64) << np.uint64(b)


def label_lsb(labels: np.ndarray) -> np.ndarray:
    """The least significant bit of every label (int64 0/1 array).

    This is the only label content the swap kernels ever test, so both
    width regimes share the exact same vectorized gain arithmetic.
    """
    labels = np.asarray(labels)
    if labels.ndim == 1:
        return labels & np.int64(1)
    return (labels[:, 0] & np.uint64(1)).astype(np.int64)


def shift_right_labels(labels: np.ndarray, k: int) -> np.ndarray:
    """``labels >> k`` in either representation (word-carrying for wide)."""
    labels = np.asarray(labels)
    if labels.ndim == 1:
        return labels >> np.int64(k)
    n, W = labels.shape
    word_shift, bit_shift = divmod(k, WORD_BITS)
    out = np.zeros_like(labels)
    if word_shift < W:
        shifted = labels[:, word_shift:]
        if bit_shift == 0:
            out[:, : W - word_shift] = shifted
        else:
            lo = shifted >> np.uint64(bit_shift)
            out[:, : W - word_shift] = lo
            if shifted.shape[1] > 1:
                out[:, : W - word_shift - 1] |= shifted[:, 1:] << np.uint64(
                    WORD_BITS - bit_shift
                )
    return out


def shift_left_labels(labels: np.ndarray, k: int) -> np.ndarray:
    """``labels << k`` in either representation (word-carrying for wide).

    Wide output keeps the input's word count; bits shifted beyond the
    top word are dropped (callers size the array via
    :func:`words_for_bits` first).
    """
    labels = np.asarray(labels)
    if labels.ndim == 1:
        return labels << np.int64(k)
    n, W = labels.shape
    word_shift, bit_shift = divmod(k, WORD_BITS)
    out = np.zeros_like(labels)
    if word_shift < W:
        src = labels[:, : W - word_shift]
        if bit_shift == 0:
            out[:, word_shift:] = src
        else:
            out[:, word_shift:] = src << np.uint64(bit_shift)
            if src.shape[1] > 1:
                out[:, word_shift + 1 :] |= src[:, :-1] >> np.uint64(
                    WORD_BITS - bit_shift
                )
    return out


# ----------------------------------------------------------------------
# Ordering, grouping, row swaps
# ----------------------------------------------------------------------
def label_sort_keys(labels: np.ndarray) -> np.ndarray:
    """A 1-D array whose ``<``/``==`` order equals numeric label order.

    Narrow labels are their own keys.  Wide labels become ``void`` byte
    strings -- words reversed to most-significant-first and byteswapped
    to big-endian -- so memcmp order (what numpy's void dtype sorts,
    uniques and searchsorts by) coincides with bitvector order.
    """
    labels = np.asarray(labels)
    if labels.ndim == 1:
        return labels
    W = labels.shape[1]
    be = np.ascontiguousarray(labels[:, ::-1]).astype(">u8")
    return np.ascontiguousarray(be).view(np.dtype((np.void, 8 * W))).ravel()


#: Wide label arrays at or above this many rows argsort via the
#: word-column radix path (np.lexsort); below it the generic void-key
#: argsort wins on constant factors.  Tuned on the bench_micro workload.
RADIX_SORT_THRESHOLD = 256

#: The radix path pays one full stable sort pass per *varying* word,
#: while the void path's memcmp usually exits on the first differing
#: byte, so lexsort only wins while the pass count stays small
#: (measured: ~1.2 - 2.3x faster at <= 2 varying words, ~0.7x at 4,
#: across n = 256 .. 5e5).  Constant word columns cannot affect a
#: stable order, so the regime is counted over varying columns -- which
#: extends the fast path to any total W (e.g. contracted hierarchy
#: levels, whose high words are all zero).
RADIX_SORT_MAX_WORDS = 2


def argsort_labels(labels: np.ndarray) -> np.ndarray:
    """Stable argsort of a label array in numeric bitvector order.

    Narrow labels use numpy's integer sort directly.  Wide labels order
    by their big-endian byte keys (:func:`label_sort_keys`); at or above
    :data:`RADIX_SORT_THRESHOLD` rows with at most
    :data:`RADIX_SORT_MAX_WORDS` *varying* words the memcmp-based void
    argsort is replaced by a radix-style pass -- ``np.lexsort`` over the
    varying word columns, least significant first.  All paths are
    stable, so they produce the identical permutation.
    """
    labels = np.asarray(labels)
    if labels.ndim == 1:
        return np.argsort(labels, kind="stable")
    n, width = labels.shape
    if n >= RADIX_SORT_THRESHOLD:
        if width <= RADIX_SORT_MAX_WORDS:
            return np.lexsort(labels.T)
        varying = np.nonzero(labels.min(axis=0) != labels.max(axis=0))[0]
        if varying.size == 0:
            return np.arange(n, dtype=np.int64)
        if varying.size <= RADIX_SORT_MAX_WORDS:
            return np.lexsort(labels[:, varying].T)
    return np.argsort(label_sort_keys(labels), kind="stable")


def labels_equal_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise label equality -> 1-D bool (row-wise for wide)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim == 1:
        return a == b
    return (a == b).all(axis=1)


def swap_label_rows(labels: np.ndarray, u: int, v: int) -> None:
    """Exchange the labels of vertices ``u`` and ``v`` in place.

    The 2-D case needs an explicit copy: tuple assignment of row views
    would alias and corrupt one side.
    """
    if labels.ndim == 1:
        labels[u], labels[v] = labels[v], labels[u]
    else:
        tmp = labels[u].copy()
        labels[u] = labels[v]
        labels[v] = tmp


def unique_labels(labels: np.ndarray):
    """Sorted-unique labels with inverse, for either representation.

    Returns ``(uniq, inverse)`` where ``uniq`` holds the distinct labels
    in ascending numeric order (same representation as the input) and
    ``inverse`` maps every row to its position in ``uniq`` -- the wide
    generalization of ``np.unique(labels, return_inverse=True)``.
    """
    labels = np.asarray(labels)
    if labels.ndim == 1:
        uniq, inverse = np.unique(labels, return_inverse=True)
        return uniq, inverse.astype(np.int64, copy=False)
    keys = label_sort_keys(labels)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return labels[first], inverse.astype(np.int64, copy=False)


# ----------------------------------------------------------------------
# Bit-matrix packing and integer round-trips
# ----------------------------------------------------------------------
def pack_bit_matrix(bits: np.ndarray) -> np.ndarray:
    """Pack an ``(n, dim)`` 0/1 matrix into labels (column ``j`` = bit ``j``).

    Chooses the representation from ``dim``: narrow int64 words up to 63
    bits, ``(n, W)`` uint64 beyond.
    """
    bits = np.asarray(bits)
    n, dim = bits.shape
    if dim <= MAX_LABEL_BITS:
        shifts = np.arange(dim, dtype=np.int64)
        return (bits.astype(np.int64) << shifts[None, :]).sum(
            axis=1, dtype=np.int64
        )
    W = words_for_bits(dim)
    out = np.zeros((n, W), dtype=np.uint64)
    for w in range(W):
        chunk = bits[:, w * WORD_BITS : (w + 1) * WORD_BITS].astype(np.uint64)
        shifts = np.arange(chunk.shape[1], dtype=np.uint64)
        out[:, w] = (chunk << shifts[None, :]).sum(axis=1, dtype=np.uint64)
    return out


def unpack_bit_matrix(labels: np.ndarray, dim: int) -> np.ndarray:
    """``(n, dim)`` int8 0/1 matrix; column ``j`` = bit ``j`` of each label."""
    labels = np.asarray(labels)
    n = labels.shape[0]
    out = np.empty((n, dim), dtype=np.int8)
    for j in range(dim):
        out[:, j] = get_label_bit(labels, j)
    return out


def label_to_int(labels: np.ndarray, v: int) -> int:
    """Vertex ``v``'s label as an arbitrary-precision Python int."""
    labels = np.asarray(labels)
    if labels.ndim == 1:
        return int(labels[v])
    value = 0
    for w in range(labels.shape[1] - 1, -1, -1):
        value = (value << WORD_BITS) | int(labels[v, w])
    return value


def int_to_label_row(value: int, words: int) -> np.ndarray:
    """A Python int as one wide label row (``(words,)`` uint64)."""
    if value < 0 or value >> (words * WORD_BITS):
        raise ValueError(f"value does not fit in {words} words")
    mask = (1 << WORD_BITS) - 1
    return np.array(
        [(value >> (WORD_BITS * w)) & mask for w in range(words)], dtype=np.uint64
    )


# ----------------------------------------------------------------------
# Bit permutations
# ----------------------------------------------------------------------
def permute_bits(labels: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Permute bit positions of every label.

    ``perm`` maps *new* bit position ``j`` to *old* bit position
    ``perm[j]``: output bit ``j`` equals input bit ``perm[j]``.  Bits above
    ``len(perm)`` must be zero (labels use exactly ``len(perm)`` bits).

    The implementation gathers one bit-plane per output position; this
    is at most ``dim`` vectorized passes over the array, which profiling
    showed is far cheaper than any per-element Python loop for the
    instance sizes of the paper.  Wide labels use the same construction
    with word-addressed bit extraction.
    """
    perm = np.asarray(perm, dtype=np.int64)
    labels = np.asarray(labels)
    if labels.ndim == 1:
        labels = labels.astype(np.int64, copy=False)
        out = np.zeros_like(labels)
        for j, p in enumerate(perm):
            bit = (labels >> int(p)) & 1
            out |= bit << j
        return out
    out = np.zeros_like(labels, dtype=np.uint64)
    for j, p in enumerate(perm):
        set_label_bit(out, j, get_label_bit(labels, int(p)))
    return out


def unpermute_bits(labels: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Inverse of :func:`permute_bits` for the same ``perm``."""
    perm = np.asarray(perm, dtype=np.int64)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm), dtype=np.int64)
    return permute_bits(labels, inv)


def bits_to_int(bits) -> int:
    """Pack an iterable of 0/1 digits, most significant first, into an int.

    Mirrors the paper's reading order: ``bits_to_int([1, 0]) == 2``.
    """
    value = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"digit {b!r} is not a bit")
        value = (value << 1) | b
    return value


def int_to_bits(value: int, width: int) -> list[int]:
    """Unpack ``value`` into ``width`` digits, most significant first."""
    if value < 0 or (width < MAX_LABEL_BITS and value >= (1 << width)):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]
