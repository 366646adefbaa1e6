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
    # Thresholding up front keeps any-nonzero-is-1 packbits semantics.
    bits = np.asarray(bits).astype(bool, copy=False)
    shots, rest = bits.shape[0], bits.shape[1:]
    words = word_count(shots)
    # Lanes last, padded to a whole byte only: every row is whole bytes,
    # so one flat packbits equals the per-row packing and runs several
    # times faster.  The zeroed byte buffer supplies the word's tail
    # lanes, and only the word axis is moved back to the front.
    n_bytes = -(-shots // 8)
    lanes_last = np.zeros(rest + (8 * n_bytes,), dtype=bool)
    lanes_last[..., :shots] = np.moveaxis(bits, 0, -1)
    packed = np.zeros(rest + (8 * words,), dtype=np.uint8)
    packed[..., :n_bytes] = np.packbits(
        lanes_last.reshape(-1), bitorder="little").reshape(rest + (n_bytes,))
    return np.ascontiguousarray(np.moveaxis(packed.view("<u8"), -1, 0))


def unpack_shots(words: np.ndarray, shots: int) -> np.ndarray:
    """Invert :func:`pack_shots`: ``(words, ...)`` uint64 to bool shots."""
    words = np.asarray(words, dtype="<u8")
    n_words = words.shape[0]
    if shots > n_words * WORD_BITS:
        raise ValueError("more shots requested than lanes stored")
    as_bytes = np.ascontiguousarray(words[..., None]).view(np.uint8)
    lanes_last = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    bits = np.moveaxis(lanes_last, -1, 1).reshape(
        (n_words * WORD_BITS,) + words.shape[1:])
    return bits[:shots].astype(bool)


def lane_bit(words: np.ndarray, shot: int) -> int:
    """One shot's bit of a ``(words,)`` array of packed parity words."""
    w, b = divmod(shot, WORD_BITS)
    return (int(words[w]) >> b) & 1
