"""Bit-packed shot storage: 64 Monte-Carlo shots per uint64 word.

Float sampling materializes 8 bytes per sampled Bernoulli bit, so
memory — not CPU — would cap campaign size.  This module is the
Stim-style answer the shot engine runs on: shots live along a packed
leading axis (word ``w``, lane ``b`` holds shot ``64 * w + b``, LSB
first), so a boolean batch of shape ``(shots, T, rows, cols)`` becomes
a uint64 array of shape ``(ceil(shots / 64), T, rows, cols)`` and every
element-wise XOR over the batch turns into one word-wise XOR over 64
shots.

Conventions:

* the packed axis is always axis 0;
* lanes are LSB-first: lane ``b`` of a word is ``(word >> b) & 1``;
* tail lanes of the final word (shots not divisible by 64) are
  zero-filled on packing and must never be read back as shots.

Lane ``b`` of a word is bit ``b % 8`` of its little-endian byte
``b // 8``, so a chunk's real lanes fill only its first
``ceil(shots / 8)`` bytes: :func:`pack_shots` pads lanes to a whole byte
(not to 64) before packing, and a reader that needs only the real
shots — the windowed detection scan in :mod:`repro.sim.batch` — unpacks
only those bytes.
"""

from __future__ import annotations

import numpy as np

from repro.sim import backend

#: Shots per packed word.
WORD_BITS = 64


def word_count(shots: int) -> int:
    """Number of uint64 words needed to hold ``shots`` lanes."""
    if shots < 1:
        raise ValueError("need at least one shot")
    return -(-shots // WORD_BITS)


def pack_shots(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(shots, ...)`` array into ``(words, ...)`` uint64.

    Lane ``s % 64`` of word ``s // 64`` holds shot ``s``; tail lanes of
    the final word are zero.  The result is C-contiguous.
    """
    xp = backend.get_array_module(bits)
    # Thresholding up front keeps any-nonzero-is-1 packbits semantics
    # on every backend and alignment.
    bits = xp.asarray(bits).astype(bool, copy=False)
    shots, rest = bits.shape[0], bits.shape[1:]
    words = word_count(shots)
    if xp is not np:  # generic lane fold (CuPy packbits lacks bitorder)
        pad = xp.zeros((words * WORD_BITS - shots,) + rest, dtype=bool)
        lanes_first = xp.concatenate([bits, pad], axis=0).reshape(
            (words, WORD_BITS) + rest)
        out = xp.zeros((words,) + rest, dtype=xp.uint64)
        for b in range(WORD_BITS):
            out |= lanes_first[:, b].astype(xp.uint64) << xp.uint64(b)
        return out
    # Lanes last, padded to a whole byte only: every row is whole bytes,
    # so one flat packbits equals the per-row packing and runs several
    # times faster.  The zeroed byte buffer supplies the word's tail
    # lanes, and only the word axis is moved back to the front.
    n_bytes = -(-shots // 8)
    lanes_last = xp.zeros(rest + (8 * n_bytes,), dtype=bool)
    lanes_last[..., :shots] = np.moveaxis(bits, 0, -1)
    packed = xp.zeros(rest + (8 * words,), dtype=xp.uint8)
    packed[..., :n_bytes] = np.packbits(
        lanes_last.reshape(-1), bitorder="little").reshape(rest + (n_bytes,))
    return np.ascontiguousarray(np.moveaxis(packed.view("<u8"), -1, 0))


def unpack_shots(words: np.ndarray, shots: int) -> np.ndarray:
    """Invert :func:`pack_shots`: ``(words, ...)`` uint64 to bool shots."""
    xp = backend.get_array_module(words)
    words = xp.asarray(words, dtype="<u8")
    n_words = words.shape[0]
    if shots > n_words * WORD_BITS:
        raise ValueError("more shots requested than lanes stored")
    if xp is not np:  # generic lane spread
        bits = xp.zeros((n_words * WORD_BITS,) + words.shape[1:],
                        dtype=bool)
        for b in range(WORD_BITS):
            bits[b::WORD_BITS] = (words >> xp.uint64(b)) & xp.uint64(1)
        return bits[:shots]
    as_bytes = np.ascontiguousarray(words[..., None]).view(np.uint8)
    lanes_last = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    bits = np.moveaxis(lanes_last, -1, 1).reshape(
        (n_words * WORD_BITS,) + words.shape[1:])
    return bits[:shots].astype(bool)


def lane_bit(words: np.ndarray, shot: int) -> int:
    """One shot's bit of a ``(words,)`` array of packed parity words."""
    w, b = divmod(shot, WORD_BITS)
    return (int(words[w]) >> b) & 1


def _popcount_generic(words: np.ndarray) -> np.ndarray:
    """SWAR popcount in word-wise ops (any backend)."""
    xp = backend.get_array_module(words)
    v = xp.asarray(words, dtype=xp.uint64).copy()
    m1 = xp.uint64(0x5555555555555555)
    m2 = xp.uint64(0x3333333333333333)
    m4 = xp.uint64(0x0F0F0F0F0F0F0F0F)
    h = xp.uint64(0x0101010101010101)
    v -= (v >> xp.uint64(1)) & m1
    v = (v & m2) + ((v >> xp.uint64(2)) & m2)
    v = (v + (v >> xp.uint64(4))) & m4
    return ((v * h) >> xp.uint64(56)).astype(xp.int64)


if hasattr(np, "bitwise_count"):  # NumPy >= 2.0
    def popcount(words: np.ndarray) -> np.ndarray:
        """Per-word set-bit counts (number of active shots per word)."""
        if backend.get_array_module(words) is not np:
            return _popcount_generic(words)
        return np.bitwise_count(words)
else:  # pragma: no cover - exercised only on NumPy < 2.0
    def popcount(words: np.ndarray) -> np.ndarray:
        """Per-word set-bit counts (number of active shots per word)."""
        return _popcount_generic(words)
